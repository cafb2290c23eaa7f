"""Correctness checks on the files a pass wrote.

Each check returns (attempted, failed, notes): one operation per sweep row,
per ``qge variance`` call and per walk_n1000 command.  Values are compared
with tolerances, never by digest, because the BLAS thread count and any
faster eigensolver change the last digits.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import CENSUS_T, D, SWEEP_N, VARIANCE_N, WALK_N, WALK_T, read_edges, sweep_seeds

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())
BETA_TOL = 1e-8  # graph info's beta against this module's eigvalsh
DECAY_SLACK = 1e-12  # the slack DecayRow.violated allows


def csv_rows(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _finite(text) -> bool:
    try:
        return math.isfinite(float(text))
    except (TypeError, ValueError):
        return False


def check_sweep(out_dir: Path, seed: int) -> tuple[int, int, list[str]]:
    expected = {(n, s) for n in SWEEP_N for s in sweep_seeds(seed)}
    notes = []
    seen = set()
    try:
        for row in csv_rows(out_dir / "sweep.csv"):
            key = (int(row["n"]), int(row["seed"]))
            problems = []
            if key not in expected or key in seen:
                problems.append("unexpected row")
            if row["status"] != "ok":
                problems.append(f"status {row['status']!r}")
            elif int(row["B"]) != key[0] * D // 2:
                problems.append(f"B={row['B']}")
            elif not (_finite(row["variance"]) and float(row["variance"]) >= 0.0):
                problems.append(f"variance {row['variance']}")
            elif row["bound_kind"] == "full" and not float(row["variance"]) <= float(row["bound"]):
                problems.append(f"variance {row['variance']} above bound {row['bound']}")
            seen.add(key)
            if problems:
                notes.append(f"sweep row n={key[0]} seed={key[1]}: {'; '.join(problems)}")
    except (OSError, ValueError, KeyError) as exc:
        return len(expected), len(expected), [f"sweep.csv: {exc}"]
    failed = min(len(expected), len(notes) + len(expected - seen))
    if expected - seen:
        notes.append(f"sweep: rows missing for {sorted(expected - seen)}")
    return len(expected), failed, notes


def check_variance(out_dir: Path, seed: int) -> tuple[int, int, list[str]]:
    try:
        payload = json.loads((out_dir / "variance.json").read_text())
    except (OSError, ValueError) as exc:
        return 1, 1, [f"variance.json: {exc}"]
    est = payload.get("estimate")
    notes = []
    if payload.get("B") != VARIANCE_N * D // 2:
        notes.append(f"variance: B={payload.get('B')}")
    if not (_finite(est) and est >= 0.0 and _finite(payload.get("stderr"))):
        notes.append(f"variance: estimate {est}, stderr {payload.get('stderr')}")
    ref = REFERENCE["variance_n80"]
    if seed == ref["seed"] and not notes and abs(est - ref["estimate"]) > ref["rtol"] * ref["estimate"]:
        notes.append(f"variance: estimate {est!r} differs from reference {ref['estimate']!r}")
    return 1, int(bool(notes)), notes


def own_beta(n: int, edges: list[tuple[int, int]]) -> float:
    """d minus the largest |eigenvalue| once d (connected) and, for a
    bipartite graph, -d are dropped."""
    adj = np.zeros((n, n))
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1.0
    mu = np.linalg.eigvalsh(adj)  # increasing
    nontrivial = mu[1:-1] if mu[0] < -D + 1e-8 else mu[:-1]
    return D - float(np.max(np.abs(nontrivial)))


def check_walk(out_dir: Path, in_dir: Path, beta: float) -> tuple[int, int, list[str]]:
    n, edges = read_edges(in_dir / "graph.txt")
    b = len(edges)
    notes = []
    try:
        info = json.loads((out_dir / "info.json").read_text())
        if (info["n"], info["d"], info["B"]) != (WALK_N, D, b):
            notes.append(f"info: n, d, B = {info['n']}, {info['d']}, {info['B']}")
        elif not abs(float(info["beta"]) - beta) <= BETA_TOL:
            notes.append(f"info: beta {info['beta']!r}, eigvalsh gives {beta!r}")
    except (OSError, ValueError, KeyError) as exc:
        notes.append(f"info.json: {exc}")
    try:
        rows = csv_rows(out_dir / "decay.csv")
        bad = [r["t"] for r in rows
               if not _finite(r["norm"])
               or (r["bound_kind"] == "general" and not float(r["norm"]) <= float(r["bound"]) + DECAY_SLACK)]
        if [int(r["t"]) for r in rows] != list(range(1, WALK_T + 1)) or bad:
            notes.append(f"decay: {len(rows)} rows, bound failed at t={bad}")
    except (OSError, ValueError, KeyError) as exc:
        notes.append(f"decay.csv: {exc}")
    try:
        census = json.loads((out_dir / "census.json").read_text())
        c_bonds, t_bonds = census["c_bonds"], census["t_bonds"]
        if (census["t"] != CENSUS_T
                or len(set(c_bonds)) != len(c_bonds) or not all(0 <= e < b for e in c_bonds)
                or len(set(t_bonds)) != len(t_bonds) or not all(0 <= e < 2 * b for e in t_bonds)):
            notes.append("census: c_bonds not a subset of the edges, or t_bonds not of the bonds")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        notes.append(f"census.json: {exc}")
    return 3, len(notes), notes
