"""The three workloads: their seeded inputs, CLI commands and thread setting.

Graphs come from a configuration model with rejection of loops, multiple
edges and disconnected draws, so a change to ``qge.graphs`` cannot change
what ``variance_n80`` and ``walk_n1000`` measure.  The ``sweep`` workload
only writes a config: it keeps program-side sampling, as the criterion-13b
sweep does.  The same seed always gives the same files.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path

import numpy as np

D = 4
SWEEP_N = (10, 20, 40)
SWEEP_SEEDS = 4
K_WINDOW = 200  # k-window of every variance estimate
SWEEP_SAMPLES = 30
VARIANCE_N = 80
VARIANCE_SAMPLES = 40
WALK_N = 1000
WALK_T = 30
CENSUS_T = 6
WORKLOADS = ("sweep", "variance_n80", "walk_n1000")

# Thread variables removed from the child's environment before the
# workload's own setting is applied: sweep and walk_n1000 run with the
# user's default BLAS threads, variance_n80 is the single-threaded baseline.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "QGE_THREADS")
THREAD_ENV = {"sweep": {}, "variance_n80": {"OPENBLAS_NUM_THREADS": "1"}, "walk_n1000": {}}

# U(k) eigensolves one pass makes: 12 rows x 30 k-samples, 40 k-samples, none.
EXPECTED_EIGENSOLVES = {
    "sweep": len(SWEEP_N) * SWEEP_SEEDS * SWEEP_SAMPLES,
    "variance_n80": VARIANCE_SAMPLES,
    "walk_n1000": 0,
}


def _connected(n: int, us: np.ndarray, vs: np.ndarray) -> bool:
    nbr: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(us.tolist(), vs.tolist()):
        nbr[u].append(v)
        nbr[v].append(u)
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        for v in nbr[queue.popleft()]:
            if not seen[v]:
                seen[v] = True
                count += 1
                queue.append(v)
    return count == n


def random_regular_edges(n: int, d: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Edges (u < v, sorted) of a connected simple d-regular graph."""
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    while True:
        perm = rng.permutation(stubs)
        us, vs = np.minimum(perm[0::2], perm[1::2]), np.maximum(perm[0::2], perm[1::2])
        keys = us * n + vs
        if np.any(us == vs) or len(np.unique(keys)) != len(keys):
            continue
        if not _connected(n, us, vs):
            continue
        order = np.argsort(keys)
        return [(int(us[i]), int(vs[i])) for i in order]


def read_edges(path: Path) -> tuple[int, list[tuple[int, int]]]:
    lines = path.read_text().split("\n")
    n = int(lines[0].split()[0])
    edges = [tuple(int(x) for x in ln.split()) for ln in lines[1:] if ln.strip()]
    return n, edges


def sweep_seeds(seed: int) -> list[int]:
    rng = np.random.default_rng([seed, 13])
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=SWEEP_SEEDS)]


def _write_graph(path: Path, n: int, edges: list[tuple[int, int]]) -> None:
    path.write_text(f"{n} {D}\n" + "".join(f"{u} {v}\n" for u, v in edges))


def write_inputs(workload: str, seed: int, in_dir: Path) -> None:
    """Write the input files of one workload run into ``in_dir``."""
    in_dir.mkdir(parents=True, exist_ok=True)
    if workload == "sweep":
        seeds = ", ".join(str(s) for s in sweep_seeds(seed))
        (in_dir / "sweep.cfg").write_text(
            f"d = {D}\nn_list = {', '.join(map(str, SWEEP_N))}\nseeds = {seeds}\n"
            f"K = {K_WINDOW}\nsamples = {SWEEP_SAMPLES}\nkappa = 1\n"
        )
    elif workload == "variance_n80":
        rng = np.random.default_rng([seed, VARIANCE_N])
        edges = random_regular_edges(VARIANCE_N, D, rng)
        _write_graph(in_dir / "graph.txt", VARIANCE_N, edges)
        lengths = rng.uniform(1.0, 2.0, size=len(edges))
        (in_dir / "lengths.txt").write_text("".join(f"{x!r}\n" for x in lengths.tolist()))
    elif workload == "walk_n1000":
        rng = np.random.default_rng([seed, WALK_N])
        _write_graph(in_dir / "graph.txt", WALK_N, random_regular_edges(WALK_N, D, rng))
    else:
        raise ValueError(f"unknown workload {workload!r}")


def commands(workload: str, in_dir: Path, out_dir: Path) -> list[list[str]]:
    """The ``qge`` argument lists one pass runs, in order."""
    graph = str(in_dir / "graph.txt")
    if workload == "sweep":
        return [["experiment", "--config", str(in_dir / "sweep.cfg"),
                 "--out", str(out_dir / "sweep.csv")]]
    if workload == "variance_n80":
        return [["variance", "--graph", graph, "--lengths", str(in_dir / "lengths.txt"),
                 "--sigma", "et", "--obs", "parity", "--K", str(K_WINDOW),
                 "--samples", str(VARIANCE_SAMPLES), "--out", str(out_dir / "variance.json")]]
    if workload == "walk_n1000":
        return [
            ["graph", "info", graph, "--out", str(out_dir / "info.json")],
            ["walk", "decay", "--graph", graph, "--T", str(WALK_T),
             "--out", str(out_dir / "decay.csv")],
            ["graph", "census", graph, "--t", str(CENSUS_T), "--out", str(out_dir / "census.json")],
        ]
    raise ValueError(f"unknown workload {workload!r}")
