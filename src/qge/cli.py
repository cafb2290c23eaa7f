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
from .graphs import Graph, generate_random_regular, is_ramanujan, spectral_report
from .manifest import RunManifest
from .scattering import equi_transmitting_sigma, kirchhoff_sigma
from .svgplot import line_plot
from .walk import classical_map, decay_profile, singular_profile, vertex_basis

__all__ = ["main"]


def _sigma_for(kind: str, d: int):
    if kind == "et":
        return equi_transmitting_sigma(d)
    if kind == "kirchhoff":
        return kirchhoff_sigma(d)
    raise ParseError(f"unknown scattering kind {kind!r} (choose et or kirchhoff)")


def _observable_for(name: str, g: Graph, kappa: float):
    if name == "parity":
        return parity_observable(g.bond_index, kappa)
    if name == "const":
        return constant_observable(g.bond_index, kappa)
    return load_observable(name, 2 * g.B)


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


def _cmd_graph_gen(args) -> int:
    g = generate_random_regular(args.n, args.d, args.seed)
    manifest = RunManifest.build(
        "graph gen", {"n": args.n, "d": args.d, "seed": args.seed}, seeds=[args.seed]
    )
    save_graph(args.out, g)
    _write_manifest(args.out, manifest)
    return 0


def _cmd_graph_info(args) -> int:
    g = load_graph(args.graph)
    report = spectral_report(g)
    manifest = RunManifest.build(
        "graph info", {"graph": str(args.graph)}, inputs={"graph": args.graph}
    )
    ramanujan = None
    if report.is_connected and not report.is_bipartite:
        ramanujan = is_ramanujan(report)
    payload = {
        "n": report.n,
        "d": report.d,
        "B": g.B,
        "mu": list(report.mu),
        "beta": report.beta,
        "is_connected": report.is_connected,
        "is_bipartite": report.is_bipartite,
        "girth": report.girth if report.girth is not None else "acyclic",
        "ramanujan": ramanujan,
    }
    _emit_json(args.out, payload, manifest)
    return 0


def _cmd_graph_census(args) -> int:
    g = load_graph(args.graph)
    report = census_report(g, args.t)
    manifest = RunManifest.build(
        "graph census",
        {"graph": str(args.graph), "t": args.t},
        inputs={"graph": args.graph},
    )
    _emit_json(args.out, report.to_json_dict(), manifest)
    return 0


def _cmd_scatter_dump(args) -> int:
    sigma = _sigma_for(args.kind, args.d)
    save_matrix_csv(args.out, sigma.entries)
    manifest = RunManifest.build("scatter dump", {"kind": args.kind, "d": args.d})
    _write_manifest(args.out, manifest)
    return 0


def _lengths_for(args, g: Graph) -> np.ndarray:
    if args.lengths:
        return load_lengths(args.lengths, g.B)
    return draw_lengths(g.B, args.length_seed)


def _cmd_variance(args) -> int:
    g = load_graph(args.graph)
    lengths = _lengths_for(args, g)
    mg = MetricGraph(graph=g, lengths=lengths)
    assembly = build_assembly(mg, _sigma_for(args.sigma, g.d))
    f = _observable_for(args.obs, g, args.kappa)
    est = variance_estimate(assembly, mg, f, args.K, args.samples)
    manifest = RunManifest.build(
        "variance",
        {
            "graph": str(args.graph),
            "sigma": args.sigma,
            "K": args.K,
            "samples": args.samples,
            "obs": args.obs,
            "kappa": args.kappa,
            "lengths": str(args.lengths) if args.lengths else None,
            "length_seed": args.length_seed,
        },
        seeds=[args.length_seed] if not args.lengths else [],
        inputs={"graph": args.graph},
    )
    _emit_json(args.out, est.to_json_dict(), manifest)
    return 0


def _cmd_walk_decay(args) -> int:
    g = load_graph(args.graph)
    assembly = build_assembly(g, _sigma_for(args.sigma, g.d))
    m = classical_map(assembly)
    basis = vertex_basis(g.bond_index)
    f = _observable_for(args.obs, g, args.kappa)
    beta = spectral_report(g).beta
    rows = decay_profile(m, f, args.T, beta, basis)
    manifest = RunManifest.build(
        "walk decay",
        {
            "graph": str(args.graph),
            "T": args.T,
            "sigma": args.sigma,
            "obs": args.obs,
            "kappa": args.kappa,
        },
        inputs={"graph": args.graph},
    )
    write_csv_atomic(
        args.out,
        ["t", "norm", "bound", "bound_kind"],
        [[r.t, r.norm, r.bound, r.bound_kind] for r in rows],
        manifest_digest=manifest.digest,
    )
    _write_manifest(args.out, manifest)
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
    assembly = build_assembly(g, _sigma_for(args.sigma, g.d))
    values = singular_profile(classical_map(assembly))
    groups: list[list[float]] = []
    for v in values:
        if groups and abs(groups[-1][0] - v) < 1e-9:
            groups[-1].append(float(v))
        else:
            groups.append([float(v)])
    manifest = RunManifest.build(
        "walk singular",
        {"graph": str(args.graph), "sigma": args.sigma},
        inputs={"graph": args.graph},
    )
    write_csv_atomic(
        args.out,
        ["value", "multiplicity"],
        [[float(np.mean(grp)), len(grp)] for grp in groups],
        manifest_digest=manifest.digest,
    )
    _write_manifest(args.out, manifest)
    return 0


def _cmd_experiment(args) -> int:
    cfg = parse_config(Path(args.config).read_text())
    rows = family_experiment(cfg)
    manifest = RunManifest.build(
        "experiment",
        {
            "d": cfg.d,
            "n_list": list(cfg.n_list),
            "seeds": list(cfg.seeds),
            "K": cfg.K,
            "samples": cfg.samples,
            "kappa": cfg.kappa,
        },
        seeds=cfg.seeds,
        inputs={"config": args.config},
    )
    out = Path(args.out or cfg.output)
    write_csv_atomic(
        out,
        EXPERIMENT_COLUMNS,
        [r.csv_values() for r in rows],
        manifest_digest=manifest.digest,
    )
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
    _write_manifest(out, manifest)
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
    p_dump.add_argument("--kind", choices=["et", "kirchhoff"], required=True)
    p_dump.add_argument("--d", type=int, required=True)
    p_dump.add_argument("--out", required=True)
    p_dump.set_defaults(func=_cmd_scatter_dump)

    p_var = sub.add_parser("variance", help="estimate the quantum variance")
    p_var.add_argument("--graph", required=True)
    p_var.add_argument("--sigma", choices=["et", "kirchhoff"], default="et")
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
    p_decay.add_argument("--sigma", choices=["et", "kirchhoff"], default="et")
    p_decay.add_argument("--obs", default="parity")
    p_decay.add_argument("--kappa", type=float, default=1.0)
    p_decay.add_argument("--out", required=True)
    p_decay.add_argument("--plot")
    p_decay.set_defaults(func=_cmd_walk_decay)

    p_sing = walk_sub.add_parser("singular", help="singular value profile")
    p_sing.add_argument("--graph", required=True)
    p_sing.add_argument("--sigma", choices=["et", "kirchhoff"], default="et")
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
