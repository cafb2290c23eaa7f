"""Command-line front end.

Subcommands: graph gen/info/census, scatter dump, variance, walk
decay/singular, experiment.  Outputs are CSV/JSON (plus optional SVG line
plots) and carry the digest of a run manifest, written alongside as
<output>.manifest.json.  Exit codes: 0 success, 2 parse or unreadable
path, 3 validation, 4 numerical (including a LAPACK failure).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .census import census_report
from .errors import NumericalError, ParseError, QgeError, ValidationError
from .evolution import (
    MetricGraph,
    build_assembly,
    constant_observable,
    draw_lengths,
    parity_observable,
    variance_estimate,
)
from .experiment import EXPERIMENT_COLUMNS, family_experiment, parse_config
from .fileio import (
    load_graph,
    load_lengths,
    load_observable,
    save_graph,
    save_matrix_csv,
    write_csv_atomic,
    write_json_atomic,
)
from .graphs import Graph, generate_random_regular, girth, is_ramanujan, spectral_report
from .manifest import RunManifest
from .scattering import equi_transmitting_sigma, kirchhoff_sigma
from .svgplot import line_plot
from .walk import classical_map, decay_profile, singular_profile, vertex_basis

__all__ = ["main"]


_SIGMAS = {"et": equi_transmitting_sigma, "kirchhoff": kirchhoff_sigma}
_OBSERVABLES = {"parity": parity_observable, "const": constant_observable}
# parsed options that route the command or place its output: not parameters
_ROUTING = {"command", "func", "out", "plot"}
# parsed options naming a file the command reads
_INPUT_FILES = ("graph", "config", "lengths", "obs")


def _observable_for(name: str, g: Graph, kappa: float):
    if name in _OBSERVABLES:
        return _OBSERVABLES[name](g.bond_index, kappa)
    return load_observable(name, 2 * g.B)


def _manifest(args, seeds=(), params: dict | None = None) -> RunManifest:
    """The run manifest of a parsed command line.

    The command name joins the `command` and `*_command` destinations.  The
    parameters are all other parsed options except those in _ROUTING, unless
    `params` replaces them (`experiment` reads its parameters from a file).
    Every file the command reads is digested: the graph, config and lengths
    files, and an `--obs` that names no built-in observable.
    """
    opts = vars(args)
    command = " ".join([opts["command"]] + [v for k, v in opts.items() if k.endswith("_command")])
    if params is None:
        params = {
            k: v for k, v in opts.items() if k not in _ROUTING and not k.endswith("_command")
        }
    inputs = {
        k: opts[k]
        for k in _INPUT_FILES
        if opts.get(k) and not (k == "obs" and opts[k] in _OBSERVABLES)
    }
    return RunManifest.build(command, params, seeds=seeds, inputs=inputs)


def _write_manifest(out_path: str, manifest: RunManifest) -> None:
    write_json_atomic(Path(str(out_path) + ".manifest.json"), manifest.to_json_dict())


def _emit_json(out: str | None, payload: dict, manifest: RunManifest) -> None:
    """Write payload (with the manifest digest) and the manifest to `out`,
    or print the payload when no output path is given."""
    payload = {**payload, "manifest": manifest.digest}
    if out:
        write_json_atomic(out, payload)
        _write_manifest(out, manifest)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _emit_csv(out: str, header: list[str], rows: list[list], manifest: RunManifest) -> None:
    """Write the table (headed by the manifest digest) and the manifest to `out`."""
    write_csv_atomic(out, header, rows, manifest_digest=manifest.digest)
    _write_manifest(out, manifest)


def _cmd_graph_gen(args) -> int:
    save_graph(args.out, generate_random_regular(args.n, args.d, args.seed))
    _write_manifest(args.out, _manifest(args, seeds=[args.seed]))
    return 0


def _cmd_graph_info(args) -> int:
    g = load_graph(args.graph)
    report = spectral_report(g)
    gth = girth(g)
    ramanujan = None
    if report.is_connected and not report.is_bipartite:
        ramanujan = is_ramanujan(report)
    payload = {
        "n": report.n,
        "d": report.d,
        "B": g.B,
        "mu": None if report.mu is None else list(report.mu),
        "beta": report.beta,
        "is_connected": report.is_connected,
        "is_bipartite": report.is_bipartite,
        "girth": gth if gth is not None else "acyclic",
        "ramanujan": ramanujan,
    }
    _emit_json(args.out, payload, _manifest(args))
    return 0


def _cmd_graph_census(args) -> int:
    report = census_report(load_graph(args.graph), args.t)
    _emit_json(args.out, report.to_json_dict(), _manifest(args))
    return 0


def _cmd_scatter_dump(args) -> int:
    save_matrix_csv(args.out, _SIGMAS[args.kind](args.d).entries)
    _write_manifest(args.out, _manifest(args))
    return 0


def _lengths_for(args, g: Graph) -> np.ndarray:
    if args.lengths:
        return load_lengths(args.lengths, g.B)
    return draw_lengths(g.B, args.length_seed)


def _cmd_variance(args) -> int:
    g = load_graph(args.graph)
    mg = MetricGraph(graph=g, lengths=_lengths_for(args, g))
    assembly = build_assembly(mg, _SIGMAS[args.sigma](g.d))
    f = _observable_for(args.obs, g, args.kappa)
    est = variance_estimate(assembly, mg, f, args.K, args.samples)
    seeds = [] if args.lengths else [args.length_seed]
    _emit_json(args.out, est.to_json_dict(), _manifest(args, seeds=seeds))
    return 0


def _cmd_walk_decay(args) -> int:
    g = load_graph(args.graph)
    m = classical_map(build_assembly(g, _SIGMAS[args.sigma](g.d)))
    basis = vertex_basis(g.bond_index)
    f = _observable_for(args.obs, g, args.kappa)
    beta = spectral_report(g).beta
    rows = decay_profile(m, f, args.T, beta, basis)
    _emit_csv(
        args.out,
        ["t", "norm", "bound", "bound_kind"],
        [[r.t, r.norm, r.bound, r.bound_kind] for r in rows],
        _manifest(args),
    )
    if args.plot:
        ts = [float(r.t) for r in rows]
        line_plot(
            [
                ("norm", ts, [r.norm for r in rows]),
                ("bound", ts, [r.bound for r in rows]),
            ],
            args.plot,
            title="walk decay",
            xlabel="t",
            ylabel="norm",
            logy=True,
        )
    return 0


def _cmd_walk_singular(args) -> int:
    g = load_graph(args.graph)
    values = singular_profile(classical_map(build_assembly(g, _SIGMAS[args.sigma](g.d))))
    groups: list[list[float]] = []
    for v in values:
        if groups and abs(groups[-1][0] - v) < 1e-9:
            groups[-1].append(float(v))
        else:
            groups.append([float(v)])
    _emit_csv(
        args.out,
        ["value", "multiplicity"],
        [[float(np.mean(grp)), len(grp)] for grp in groups],
        _manifest(args),
    )
    return 0


def _cmd_experiment(args) -> int:
    cfg = parse_config(Path(args.config).read_text())
    rows = family_experiment(cfg)
    params = asdict(cfg)
    del params["output"]  # places the output, like --out
    manifest = _manifest(args, seeds=cfg.seeds, params=params)
    out = Path(args.out or cfg.output)
    _emit_csv(out, EXPERIMENT_COLUMNS, [r.csv_values() for r in rows], manifest)
    sidecar = {
        "horizon_rule": "T = max(1, floor(0.3 log_{d-1} n))",
        "rows": [
            {"n": r.n, "seed": r.seed, "terms": r.bound_terms, "status": r.status}
            for r in rows
        ],
    }
    write_json_atomic(
        Path(str(out) + ".constants.json"), sidecar, manifest_digest=manifest.digest
    )
    if args.plot:
        ok_rows = [r for r in rows if r.status == "ok"]
        ns = sorted({r.n for r in ok_rows})
        mean_var = [
            float(np.mean([r.variance for r in ok_rows if r.n == n])) for n in ns
        ]
        bounds = [
            float(np.mean([r.bound for r in ok_rows if r.n == n and r.bound_kind == "full"]))
            if any(r.n == n and r.bound_kind == "full" for r in ok_rows)
            else float("nan")
            for n in ns
        ]
        line_plot(
            [
                ("variance", [float(n) for n in ns], mean_var),
                ("bound", [float(n) for n in ns], bounds),
            ],
            args.plot,
            title="family sweep",
            xlabel="n",
            ylabel="variance",
            logy=True,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qge",
        description="Quantum evolution, bond walks and variance bounds on regular graphs",
    )
    parser.add_argument("--version", action="version", version=f"qge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="generate and inspect graphs")
    graph_sub = p_graph.add_subparsers(dest="graph_command", required=True)

    p_gen = graph_sub.add_parser("gen", help="sample a uniform simple d-regular graph")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--d", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_graph_gen)

    p_info = graph_sub.add_parser("info", help="spectral report as JSON")
    p_info.add_argument("graph")
    p_info.add_argument("--out")
    p_info.set_defaults(func=_cmd_graph_info)

    p_census = graph_sub.add_parser("census", help="short-cycle censuses")
    p_census.add_argument("graph")
    p_census.add_argument("--t", type=int, required=True)
    p_census.add_argument("--out")
    p_census.set_defaults(func=_cmd_graph_census)

    p_scatter = sub.add_parser("scatter", help="vertex scattering matrices")
    scatter_sub = p_scatter.add_subparsers(dest="scatter_command", required=True)
    p_dump = scatter_sub.add_parser("dump", help="dump a vertex matrix as re,im CSV")
    p_dump.add_argument("--kind", choices=_SIGMAS, required=True)
    p_dump.add_argument("--d", type=int, required=True)
    p_dump.add_argument("--out", required=True)
    p_dump.set_defaults(func=_cmd_scatter_dump)

    p_var = sub.add_parser("variance", help="estimate the quantum variance")
    p_var.add_argument("--graph", required=True)
    p_var.add_argument("--sigma", choices=_SIGMAS, default="et")
    p_var.add_argument("--K", type=float, default=200.0)
    p_var.add_argument("--samples", type=int, default=200)
    p_var.add_argument("--obs", default="parity", help="parity, const, or an observable file")
    p_var.add_argument("--kappa", type=float, default=1.0)
    p_var.add_argument("--lengths", help="lengths file (default: seeded uniform [1,2])")
    p_var.add_argument("--length-seed", type=int, default=0)
    p_var.add_argument("--out")
    p_var.set_defaults(func=_cmd_variance)

    p_walk = sub.add_parser("walk", help="classical bond-walk diagnostics")
    walk_sub = p_walk.add_subparsers(dest="walk_command", required=True)

    p_decay = walk_sub.add_parser("decay", help="norm decay table")
    p_decay.add_argument("--graph", required=True)
    p_decay.add_argument("--T", type=int, default=30)
    p_decay.add_argument("--sigma", choices=_SIGMAS, default="et")
    p_decay.add_argument("--obs", default="parity")
    p_decay.add_argument("--kappa", type=float, default=1.0)
    p_decay.add_argument("--out", required=True)
    p_decay.add_argument("--plot")
    p_decay.set_defaults(func=_cmd_walk_decay)

    p_sing = walk_sub.add_parser("singular", help="singular value profile")
    p_sing.add_argument("--graph", required=True)
    p_sing.add_argument("--sigma", choices=_SIGMAS, default="et")
    p_sing.add_argument("--out", required=True)
    p_sing.set_defaults(func=_cmd_walk_singular)

    p_exp = sub.add_parser("experiment", help="family sweep from a config file")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", help="override the config's output path")
    p_exp.add_argument("--plot")
    p_exp.set_defaults(func=_cmd_experiment)

    return parser


def _fail(exc: Exception, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        return _fail(exc, 2)
    except ValidationError as exc:
        return _fail(exc, 3)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        return _fail(exc, 4)
    except QgeError as exc:
        return _fail(exc, 3)


if __name__ == "__main__":
    sys.exit(main())
