"""Benchmark for the qge CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``sweep``: ``qge experiment`` over n = 10, 20, 40 (d = 4) with four
  graph seeds drawn from ``--seed``, K = 200, 30 k-samples, default threads;
* ``variance_n80``: ``qge variance`` on an n = 80 graph with 40 k-samples,
  ``OPENBLAS_NUM_THREADS=1``;
* ``walk_n1000``: ``qge graph info``, ``qge walk decay --T 30`` and
  ``qge graph census --t 6`` on an n = 1000 graph, default threads.

Each pass is a closed loop with one client: a fresh child interpreter imports
``qge``, writes the seeded inputs, then calls ``qge.cli.main`` for each
command in turn.  Passes repeat until ``--seconds`` have gone by (none
starts that is predicted to end after 1.6 times that), and three children
that only set up run before each untraced pass, so ``setup_s`` is a median
of several.  Every pass's outputs are checked; a failed check, non-zero exit
or uncaught exception is a failed operation.

With ``--trace 0`` the last stdout line reports the end-to-end metrics as
medians over passes.  With ``--trace 1`` untraced and traced passes
alternate and it reports the per-layer metrics: span counts and self times
from the traced passes (spans are written to ``.perfbench/``), counts
computed from array shapes and outputs (labelled ``computed``: they ignore
cache misses), and ``trace.overhead_s``, the traced minus the untraced
median wall time.  A traced pass whose span counts differ from the
workload's known counts is a failed operation.

The metric names and units are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import check_sweep, check_variance, check_walk, csv_rows, own_beta
from tracer import read_spans, span_stats
from workloads import (
    EXPECTED_EIGENSOLVES,
    SWEEP_N,
    SWEEP_SEEDS,
    THREAD_ENV,
    THREAD_VARS,
    WALK_T,
    WORKLOADS,
    commands,
    read_edges,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUPS_PER_PASS = 3  # set-up-only children before each untraced-run pass
RUN_LIMIT_S = 165.0  # no pass starts that would end after this
OVERRUN = 1.6  # nor, once each mode has run, one that would end after OVERRUN * --seconds
CHILD_TIMEOUT_S = 170.0


def child_env(workload: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(THREAD_ENV[workload])
    return env


def spawn(workload: str, seed: int, mode: str, work: Path, timeout: float) -> dict | None:
    """Run one child; its result dict, or None if it failed or timed out."""
    work.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode, str(work)]
    with open(work / "child.log", "w") as log:
        try:
            proc = subprocess.run(argv + [repr(time.monotonic())], cwd=ROOT, env=child_env(workload),
                                  stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            log.write(f"perfbench: child killed after {timeout:.0f} s\n")
            return None
    if proc.returncode != 0 or not (work / "result.json").exists():
        return None
    return json.loads((work / "result.json").read_text())


def check_pass(workload: str, seed: int, work: Path, beta_cache: dict) -> tuple[int, int, list[str]]:
    out_dir = work / "out"
    if workload == "sweep":
        return check_sweep(out_dir, seed)
    if workload == "variance_n80":
        return check_variance(out_dir, seed)
    graph_text = (work / "in" / "graph.txt").read_text()
    if graph_text not in beta_cache:
        beta_cache[graph_text] = own_beta(*read_edges(work / "in" / "graph.txt"))
    return check_walk(out_dir, work / "in", beta_cache[graph_text])


def percentile_ms(durations: list[float], q: float) -> float:
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def output_counts(workload: str, work: Path) -> dict:
    """Counts computed from the pass's outputs and array shapes, not measured.

    They repeat exactly.  The byte counts ignore cache misses: S is a dense
    (2B)^2 complex128 array and each of the T decay steps reads the dense
    (2B)^2 float64 M once.
    """
    out = work / "out"
    counts = {
        "cli.bytes_written": sum(p.stat().st_size for p in out.iterdir()),
        "evolution.S_bytes_computed": 0,
        "evolution.eigenbasis.dim_mean": 0.0,
        "walk.decay_bytes_computed": 0,
        "census.c_bonds": 0,
        "census.t_bonds": 0,
        "experiment.rows_ok": 0,
        "experiment.rows_failed": 0,
        "bounds.full_rows": 0,
    }
    try:
        counts.update(_shape_counts(workload, out))
    except (OSError, ValueError, KeyError):
        pass  # a missing or malformed output already failed its check
    return counts


def _shape_counts(workload: str, out: Path) -> dict:
    counts = {}
    if workload == "sweep":
        rows = csv_rows(out / "sweep.csv")
        ok = [r for r in rows if r["status"] == "ok"]
        dims = [2 * int(r["B"]) for r in ok]
        counts["evolution.S_bytes_computed"] = sum(16 * m * m for m in dims)
        counts["evolution.eigenbasis.dim_mean"] = statistics.fmean(dims) if dims else 0.0
        counts["experiment.rows_ok"] = len(ok)
        counts["experiment.rows_failed"] = len(rows) - len(ok)
        counts["bounds.full_rows"] = sum(r["bound_kind"] == "full" for r in ok)
    elif workload == "variance_n80":
        dim = 2 * json.loads((out / "variance.json").read_text())["B"]
        counts["evolution.S_bytes_computed"] = 16 * dim * dim
        counts["evolution.eigenbasis.dim_mean"] = float(dim)
    else:
        dim = 2 * json.loads((out / "info.json").read_text())["B"]
        counts["evolution.S_bytes_computed"] = 16 * dim * dim
        counts["walk.decay_bytes_computed"] = WALK_T * 8 * dim * dim
        census = json.loads((out / "census.json").read_text())
        counts["census.c_bonds"] = len(census["c_bonds"])
        counts["census.t_bonds"] = len(census["t_bonds"])
    return counts


def layer_metrics(stats: dict, workload: str, work: Path) -> dict:
    """Per-layer values of one traced pass (times in s unless named _ms)."""
    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(stats.get(name, {}).get("self_s", 0.0) for name in names)

    eig = stats.get("evolution.eigenbasis", {}).get("durations", [])
    values = {
        "evolution.eigenbasis.calls": calls("evolution.eigenbasis"),
        "evolution.eigenbasis.self_s": self_s("evolution.eigenbasis"),
        "evolution.eigenbasis.ms_p50": percentile_ms(eig, 50),
        "evolution.eigenbasis.ms_p90": percentile_ms(eig, 90),
        "evolution.evolution.self_s": self_s("evolution.evolution"),
        "evolution.variance_estimate.self_s": self_s("evolution.variance_estimate"),
        "evolution.build_assembly.calls": calls("evolution.build_assembly"),
        "evolution.build_assembly.self_s": self_s("evolution.build_assembly"),
        "walk.classical_map.self_s": self_s("walk.classical_map"),
        "walk.vertex_basis.self_s": self_s("walk.vertex_basis"),
        "walk.decay_profile.self_s": self_s("walk.decay_profile"),
        "census.calls": sum(s["calls"] for n, s in stats.items() if n.startswith("census.")),
        "census.min_return_lengths.self_s": self_s("census.min_return_lengths"),
        "census.near_cycle_census.self_s": self_s("census.near_cycle_census"),
        "census.cycle_bond_census.calls": calls("census.cycle_bond_census"),
        "census.cycle_bond_census.self_s": self_s("census.cycle_bond_census"),
        "graphs.generate_random_regular.calls": calls("graphs.generate_random_regular"),
        "graphs.generate_random_regular.self_s": self_s("graphs.generate_random_regular"),
        "graphs.spectral_report.self_s": self_s("graphs.spectral_report"),
        "graphs.girth.self_s": self_s("graphs.girth"),
        "scattering.equi_transmitting_sigma.calls": calls("scattering.equi_transmitting_sigma"),
        "scattering.equi_transmitting_sigma.self_s": self_s("scattering.equi_transmitting_sigma"),
        "bounds.explicit_variance_bound.calls": calls("bounds.explicit_variance_bound"),
        "bounds.explicit_variance_bound.self_s": self_s("bounds.explicit_variance_bound"),
        "experiment.family_experiment.self_s": self_s("experiment.family_experiment"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.fileio_write.self_s": self_s(*[n for n in stats if n.startswith(("fileio.write_", "fileio.save_"))]),
        "cli.load_graph.self_s": self_s("fileio.load_graph"),
        "cli.manifest_build.self_s": self_s("manifest.RunManifest.build"),
        "trace.spans": sum(s["calls"] for s in stats.values()),
    }
    values.update(output_counts(workload, work))
    return values


def count_problems(values: dict, workload: str) -> list[str]:
    """Span counts that differ from what the workload must make."""
    expected = {
        "evolution.eigenbasis.calls": EXPECTED_EIGENSOLVES[workload],
        "cli.main.calls": len(commands(workload, Path(), Path())),
    }
    if workload != "walk_n1000":
        expected["census.calls"] = 0
    return [f"{name} = {values[name]}, expected {want}"
            for name, want in expected.items() if values[name] != want]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.exists():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def metadata(thread_env: dict) -> dict:
    import scipy

    def blas(config):
        lib = config["Build Dependencies"]["blas"]
        return f"{lib.get('name')} {lib.get('version')}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "thread_env": thread_env,
        "git_commit": git_commit(),
    }


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "qge" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: no qge source tree (src/qge) or BENCHMARK.json here", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    started = time.monotonic()
    run_dir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    children = iter(range(1, 10_000))

    def child(mode: str) -> tuple[Path, dict | None]:
        work = run_dir / f"child{next(children):02d}-{mode}"
        left = CHILD_TIMEOUT_S - (time.monotonic() - started)
        return work, spawn(args.workload, args.seed, mode, work, left)

    # Warm-up: byte-compiles qge and fills the page cache; not measured.
    child("setup")
    measure_start = time.monotonic()
    attempted = failed = 0
    notes: list[str] = []
    setups: list[float] = []

    def setup_only() -> None:
        nonlocal attempted, failed
        for _ in range(0 if args.trace else SETUPS_PER_PASS):
            attempted += 1
            _, res = child("setup")
            if res is None:
                failed += 1
                notes.append("set-up child failed")
            else:
                setups.append(res["setup_s"])

    modes = ["run", "trace"] if args.trace else ["run"]
    ops_per_pass = (len(SWEEP_N) * SWEEP_SEEDS if args.workload == "sweep"
                    else len(commands(args.workload, Path(), Path())))
    walls: dict[str, list[float]] = {"run": [], "trace": []}
    rss_mib: list[float] = []
    layer_values: list[dict] = []
    thread_env: dict = {}
    beta_cache: dict = {}
    passes, longest = 0, 0.0
    while True:
        now = time.monotonic()
        if now - started + longest > RUN_LIMIT_S:
            break
        measured = now - measure_start
        if passes >= len(modes) and (measured >= args.seconds
                                     or measured + longest > OVERRUN * args.seconds):
            break
        setup_only()
        mode = modes[passes % len(modes)]
        passes += 1
        work, res = child(mode)
        longest = max(longest, time.monotonic() - now)
        if res is None:
            attempted += ops_per_pass
            failed += ops_per_pass
            notes.append(f"pass {passes} ({mode}): child failed, see {work / 'child.log'}")
            continue
        n_att, n_fail, pass_notes = check_pass(args.workload, args.seed, work, beta_cache)
        attempted += n_att
        failed += max(n_fail, sum(code != 0 for code in res["codes"]))
        notes.extend(pass_notes + res["errors"])
        setups.append(res["setup_s"])
        thread_env = res["thread_env"]
        walls[mode].append(res["wall_s"])
        if mode == "run":
            rss_mib.append(res["maxrss_kib"] / 1024.0)
        else:
            values = layer_metrics(span_stats(read_spans(work / "spans.jsonl")), args.workload, work)
            problems = count_problems(values, args.workload)
            attempted += 1
            if problems:
                failed += 1
                notes.extend(f"traced pass {passes}: {p}" for p in problems)
            layer_values.append(values)
        print(f"pass {passes} {mode}: wall_s={res['wall_s']:.4f} setup_s={res['setup_s']:.4f} "
              f"peak_rss_mib={res['maxrss_kib'] / 1024.0:.1f}", flush=True)
        shutil.rmtree(work / "in")
        shutil.rmtree(work / "out")

    if args.trace:
        raw = {name: median([v[name] for v in layer_values]) for name in layer_values[0]} if layer_values else {}
        raw["trace.overhead_s"] = median(walls["trace"]) - median(walls["run"])
        run_wall = median(walls["run"])
        raw["evolution.k_samples_per_s"] = raw.get("evolution.eigenbasis.calls", 0) / run_wall if run_wall else 0.0
        wanted = spec["per_layer"]
    else:
        raw = {
            "wall_s": median(walls["run"]),
            "setup_s": median(setups),
            "peak_rss_mib": median(rss_mib),
            "success_ratio": (attempted - failed) / attempted if attempted else 0.0,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": raw.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    missing = [m["name"] for m in wanted if m["name"] not in raw]
    if missing:
        failed += 1
        notes.append(f"metrics not computed: {missing}")
    attempted = max(attempted, failed, 1)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "meta": metadata({args.workload: thread_env}),
        "walls": walls,
        "setups": setups,
        "peak_rss_mib": rss_mib,
        "notes": notes,
        "metrics": metrics,
    }
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "record.json").write_text(json.dumps(record, indent=2))
    for note in notes:
        print(f"note: {note}")
    print("meta " + json.dumps(record["meta"], sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
