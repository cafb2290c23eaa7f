"""Shared graph builders, a random vertex unitary, independent census
oracles and the comparison with them, the bond-operator product check, the
dense pair-basis square, and the acceptance summary printer.

The oracles here deliberately use a different mechanism than the package:
censuses and girths are recomputed from integer powers of the directed-bond
adjacency (non-backtracking) matrix, and M^2 of the bond-reversal route
from a dense W^2, so agreement is a genuine two-route check.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from qge import Graph, MetricGraph, VertexScattering, build_assembly, classical_map, draw_lengths


def k5() -> Graph:
    edges = tuple((u, v) for u in range(5) for v in range(u + 1, 5))
    return Graph(n=5, d=4, edges=edges)


def petersen() -> Graph:
    edges = (
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    )
    return Graph(n=10, d=3, edges=edges)


def cage46() -> Graph:
    """Incidence graph of the projective plane over GF(3): 4-regular,
    26 vertices, girth 6."""
    pts = []
    for x, y, z in itertools.product(range(3), repeat=3):
        if (x, y, z) == (0, 0, 0):
            continue
        for c in (x, y, z):
            if c != 0:
                inv = 1 if c == 1 else 2
                v = tuple((inv * t) % 3 for t in (x, y, z))
                break
        if v not in pts:
            pts.append(v)
    assert len(pts) == 13
    edges = []
    for i, p in enumerate(pts):
        for j, line in enumerate(pts):
            if sum(a * b for a, b in zip(p, line)) % 3 == 0:
                edges.append((i, 13 + j))
    return Graph(n=26, d=4, edges=tuple(sorted(edges)))


def circulant(n: int, steps: tuple[int, ...]) -> Graph:
    """The circulant graph C_n(steps): i ~ i +- s mod n for each step s; it
    is bipartite when n is even and every step odd."""
    edges = sorted({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps})
    return Graph(n=n, d=2 * len(steps), edges=edges)


def two_copies(g: Graph) -> Graph:
    """The disjoint union of g with itself: vertex v + g.n copies v."""
    return Graph(n=2 * g.n, d=g.d, edges=np.vstack((g.edges, g.edges + g.n)))


def k5_chain(m: int) -> Graph:
    """Chain of K5-based gadgets joined by bridge edges: 4-regular with a
    spectral gap shrinking in m."""
    edges = []

    def block(base, drop):
        for i in range(5):
            for j in range(i + 1, 5):
                if (i, j) in drop:
                    continue
                edges.append((base + i, base + j))

    for b in range(m):
        base = 5 * b
        if b in (0, m - 1):
            block(base, {(0, 1)})
        else:
            block(base, {(0, 1), (2, 3)})
    for b in range(m - 1):
        left, right = 5 * b, 5 * (b + 1)
        lstubs = (0, 1) if b == 0 else (2, 3)
        edges.append((left + lstubs[0], right))
        edges.append((left + lstubs[1], right + 1))
    return Graph(n=5 * m, d=4, edges=tuple(sorted(edges)))


def random_unitary(d: int, rng: np.random.Generator) -> VertexScattering:
    """A Haar-random d x d vertex matrix: the QR factor of a complex
    Gaussian matrix, its columns rephased by the signs of R's diagonal."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return VertexScattering(entries=q * (np.diag(r) / np.abs(np.diag(r))))


def pair_square_oracle(u) -> np.ndarray:
    """M^2 = V0^H W^2 V0, dense, for the operator u with antisymmetric blocks
    (see qge.evolution._reversal_attempt): W^2 / 2 scattered densely, then
    its half-blocks summed into the pair basis, in complex arithmetic."""
    succ, coef = u.gather
    n = len(succ)
    half = np.sqrt(u.phases)
    w = half[:, None] * coef * half[succ]
    w2 = np.zeros((n, n), dtype=np.complex128)
    w2[np.arange(n)[:, None, None], succ[succ]] = 0.5 * w[:, :, None] * w[succ]  # W^2 / 2
    h = n // 2
    s, t = w2[:h] + w2[h:], w2[:h] - w2[h:]
    m2 = np.empty((n, n), dtype=np.complex128)
    np.add(s[:, :h], s[:, h:], out=m2[:h, :h])
    np.subtract(s[:, :h], s[:, h:], out=m2[:h, h:])
    np.add(t[:, :h], t[:, h:], out=m2[h:, :h])
    np.subtract(t[:, :h], t[:, h:], out=m2[h:, h:])
    m2[:h, h:] *= 1j
    m2[h:, :h] *= -1j
    return m2


# ---------------------------------------------------------------------------
# independent census oracles (integer matrix powers of the bond digraph)


def assert_products_match_dense(g: Graph, rule) -> None:
    """o @ x equals o.dense() @ x (rtol 1e-14, atol 1e-15, well inside
    1e-13) for S, M = |S|^2 and U(k), on real and complex, (2B,) and
    (2B, 3) arrays x: the gather against the scatter, including a complex
    U(k) applied to a real x."""
    s = build_assembly(g, rule)
    lengths = MetricGraph(graph=g, lengths=draw_lengths(g.B, seed=g.n)).directed_lengths
    rng = np.random.default_rng(5)
    two_b = 2 * g.B
    xs = [rng.normal(size=two_b), rng.normal(size=(two_b, 3))]
    xs += [x + 1j * rng.normal(size=x.shape) for x in xs]
    for o in (s, classical_map(s), s.with_phases(np.exp(1.3j * lengths))):
        dense = o.dense()
        for x in xs:
            assert np.allclose(o @ x, dense @ x, rtol=1e-14, atol=1e-15)


def hashimoto_matrix(g: Graph) -> np.ndarray:
    bi = g.bond_index
    two_b = bi.num_directed
    h = np.zeros((two_b, two_b), dtype=np.int64)
    for b in range(two_b):
        for c in range(two_b):
            if bi.heads[b] == bi.tails[c] and c != bi.rev[b]:
                h[b, c] = 1
    return h


def _bool_powers(h: np.ndarray, t_max: int) -> list[np.ndarray]:
    """powers[l] = boolean reachability in exactly l non-backtracking steps.

    The 0/1 products are taken in float64, where BLAS does them (numpy
    multiplies int64 without it); they are exact, every entry being at
    most 2B, far below 2^53."""
    two_b = h.shape[0]
    h = h.astype(np.float64)
    powers = [np.eye(two_b, dtype=bool)]
    cur = np.eye(two_b)
    for _ in range(t_max):
        cur = (cur @ h > 0).astype(np.float64)
        powers.append(cur.astype(bool))
    return powers


def oracle_min_return(g: Graph, cap: int) -> list[int | None]:
    powers = _bool_powers(hashimoto_matrix(g), cap)
    two_b = 2 * g.B
    out: list[int | None] = [None] * two_b
    for b in range(two_b):
        for length in range(1, cap + 1):
            if powers[length][b, b]:
                out[b] = length
                break
    return out


def assert_same_returns(ours: np.ndarray, oracle: list[int | None]) -> None:
    """min_return_lengths' float array against an oracle's list, whose None
    (no return up to the cap) is the array's nan."""
    expected = np.array([np.nan if r is None else r for r in oracle])
    assert ours.dtype == np.float64
    np.testing.assert_array_equal(ours, expected)


def oracle_girth(g: Graph, cap: int = 12) -> int | None:
    h = hashimoto_matrix(g)
    cur = np.eye(h.shape[0], dtype=object)
    for length in range(1, cap + 1):
        cur = cur @ h
        if np.trace(cur) > 0:
            return length
    return None


def oracle_cycle_census(g: Graph, t: int) -> frozenset[int]:
    ret = oracle_min_return(g, t)
    return frozenset(e for e in range(g.B) if ret[e] is not None or ret[e + g.B] is not None)


def oracle_near_census(g: Graph, t: int) -> frozenset[int]:
    powers = _bool_powers(hashimoto_matrix(g), t)
    ret = oracle_min_return(g, 2 * t)
    two_b = 2 * g.B
    members = set()
    for t2 in range(2, t + 1):
        on_cycle = [b for b in range(two_b) if ret[b] is not None and ret[b] <= 2 * t2]
        if not on_cycle:
            continue
        t1 = t - t2
        for b0 in range(two_b):
            if b0 in members:
                continue
            for length in range(t1 + 1):
                if any(powers[length][b0, c] for c in on_cycle):
                    members.add(b0)
                    break
    return frozenset(members)


# ---------------------------------------------------------------------------
# acceptance summary printing

ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    ACCEPTANCE_RESULTS.append((name, report.outcome.upper()))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{outcome:>6}  {name}")


@pytest.fixture(scope="session")
def k5_graph():
    return k5()


@pytest.fixture(scope="session")
def petersen_graph():
    return petersen()


@pytest.fixture(scope="session")
def cage_graph():
    return cage46()
