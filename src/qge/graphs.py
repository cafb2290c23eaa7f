"""Simple d-regular combinatorial graphs: sampling, import, spectra, girth.

A Graph is immutable after construction and is always fully validated:
every vertex has degree exactly d, no loops, no repeated edges, 2B = n d.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bonds import BondIndex
from .errors import ParameterError, ParseError, SamplingError, ValidationError

__all__ = [
    "Graph",
    "SpectralReport",
    "generate_random_regular",
    "import_graph",
    "export_graph",
    "spectral_report",
    "is_ramanujan",
    "girth",
]

EIG_TOL = 1e-9  # eigenvalue tolerance for multiplicity / bipartite detection


def _rng(seed: int) -> np.random.Generator:
    """numpy's default generator for a seed in [0, 2^64)."""
    if not 0 <= seed < 2**64:
        raise ParameterError(f"seed {seed} must lie in [0, 2^64)")
    return np.random.default_rng(np.uint64(seed))

RAMANUJAN_TOL = 1e-9


@dataclass(frozen=True)
class Graph:
    """Simple d-regular graph on n labelled vertices with B = n d / 2 edges."""

    n: int
    d: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n, d = self.n, self.d
        if n <= 0 or d <= 0:
            raise ValidationError("n and d must be positive")
        if (n * d) % 2 != 0:
            raise ValidationError(f"n*d = {n * d} is odd; no {d}-regular graph on {n} vertices")
        deg = [0] * n
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValidationError(f"repeated edge ({u},{v})")
            seen.add(key)
            deg[u] += 1
            deg[v] += 1
        bad = [v for v in range(n) if deg[v] != d]
        if bad:
            raise ValidationError(
                f"vertex {bad[0]} has degree {deg[bad[0]]}, expected {d}"
            )
        if 2 * len(self.edges) != n * d:
            raise ValidationError("edge count inconsistent with 2B = nd")

    @property
    def B(self) -> int:
        return len(self.edges)

    @property
    def adjacency(self) -> np.ndarray:
        return self.bond_index.adjacency

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Neighbours of each vertex in increasing order (the slot order)."""
        bi = self.bond_index
        return tuple(map(tuple, bi.heads[bi.out_bonds].tolist()))

    @cached_property
    def bond_index(self) -> BondIndex:
        return BondIndex.from_graph(self)


@dataclass(frozen=True)
class SpectralReport:
    """Connectivity-matrix spectrum and derived structural facts.

    mu is the full eigenvalue list in decreasing order.  beta is
    d - max |mu| over the non-trivial spectrum, where one eigenvalue d is
    removed per connected component and one eigenvalue -d per bipartite
    component.  girth is None for an acyclic graph.
    """

    n: int
    d: int
    mu: tuple[float, ...]
    beta: float
    is_connected: bool
    is_bipartite: bool
    girth: int | None


def generate_random_regular(n: int, d: int, seed: int, max_attempts: int = 100_000) -> Graph:
    """Sample a uniform simple d-regular graph on n labelled vertices.

    Configuration model with full rejection of pairings containing loops or
    multiple edges; conditioned on simplicity the outcome is exactly uniform.
    Deterministic for a fixed seed, which must lie in [0, 2^64).
    """
    if d < 3:
        raise ParameterError(f"degree d={d} must be >= 3")
    if d >= n:
        raise ParameterError(f"need d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ParameterError(f"n*d = {n * d} must be even")
    rng = _rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    for _ in range(max_attempts):
        perm = rng.permutation(stubs)
        us, vs = perm[0::2], perm[1::2]
        if np.any(us == vs):
            continue
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        keys = lo * n + hi
        if len(np.unique(keys)) != len(keys):
            continue
        order = np.argsort(keys, kind="stable")
        edges = tuple((int(lo[i]), int(hi[i])) for i in order)
        return Graph(n=n, d=d, edges=edges)
    raise SamplingError(
        f"no simple pairing found in {max_attempts} attempts for n={n}, d={d}"
    )


def import_graph(text: str) -> Graph:
    """Parse the plain-text edge-list format: header "n d", then B lines "u v"."""
    from .fileio import content_lines  # fileio imports this module

    lines = content_lines(text)
    if not lines:
        raise ParseError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"header must be 'n d', got {lines[0]!r}")
    try:
        n, d = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"non-integer header {lines[0]!r}") from exc
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"edge line must be 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"non-integer edge line {ln!r}") from exc
        edges.append((u, v))
    expected = n * d // 2
    if len(edges) != expected:
        raise ValidationError(f"expected B={expected} edges, file has {len(edges)}")
    return Graph(n=n, d=d, edges=tuple(edges))


def export_graph(g: Graph) -> str:
    """Serialize to the edge-list format accepted by import_graph."""
    out = [f"{g.n} {g.d}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def _component_bipartite_flags(g: Graph) -> list[bool]:
    """2-colouring BFS per connected component; one bipartite flag each."""
    color = [-1] * g.n
    flags = []
    for start in range(g.n):
        if color[start] >= 0:
            continue
        ok = True
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in g.neighbors[u]:
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    ok = False
        flags.append(ok)
    return flags


def girth(g: Graph) -> int | None:
    """Length of the shortest cycle, via BFS from every vertex; None if acyclic.

    The distance and parent arrays are allocated once: a vertex's entries
    are current when its stamp is the root of the running search.
    """
    best: int | None = None
    nbr = g.neighbors
    stamp = [-1] * g.n
    dist = [0] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        stamp[root] = root
        dist[root] = 0
        parent[root] = -1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if best is not None and 2 * dist[u] >= best:
                break  # the queue holds no smaller distance
            for v in nbr[u]:
                if stamp[v] != root:
                    stamp[v] = root
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif v != parent[u]:
                    # non-tree edge: the closed walk root->u->v->root has
                    # length dist[u] + dist[v] + 1 and contains a cycle no
                    # longer than that
                    cand = dist[u] + dist[v] + 1
                    if best is None or cand < best:
                        best = cand
    return best


def spectral_report(g: Graph) -> SpectralReport:
    """Full eigenvalue list of the connectivity matrix plus derived facts.

    Connectivity and bipartiteness are decided structurally (traversal and
    2-colouring); the eigenvalue multiplicities of +/-d are cross-checked
    against them so numerics never decide alone.
    """
    c = g.adjacency.astype(np.float64)
    mu = np.linalg.eigvalsh(c)[::-1]  # decreasing
    flags = _component_bipartite_flags(g)
    comps = len(flags)
    bipartite = all(flags)
    n_bip = sum(flags)  # one -d eigenvalue per bipartite component

    mult_top = int(np.sum(mu > g.d - EIG_TOL))
    if mult_top != comps:
        raise ValidationError(
            f"eigenvalue multiplicity of d ({mult_top}) disagrees with the "
            f"traversal component count ({comps})"
        )
    mult_bottom = int(np.sum(mu < -g.d + EIG_TOL))
    if mult_bottom != n_bip:
        raise ValidationError(
            f"-d multiplicity ({mult_bottom}) disagrees with the bipartite "
            f"component count ({n_bip})"
        )

    # Non-trivial spectrum: drop one +d per component and one -d per
    # bipartite component.
    nontrivial = mu[mult_top : len(mu) - n_bip] if n_bip else mu[mult_top:]
    beta = g.d - float(np.max(np.abs(nontrivial))) if len(nontrivial) else float(g.d)

    return SpectralReport(
        n=g.n,
        d=g.d,
        mu=tuple(float(x) for x in mu),
        beta=beta,
        is_connected=comps == 1,
        is_bipartite=bipartite,
        girth=girth(g),
    )


def is_ramanujan(report: SpectralReport) -> bool:
    """True iff every non-trivial |mu_i| <= 2 sqrt(d-1) + tol.

    Only defined for connected, non-bipartite graphs.
    """
    if not report.is_connected:
        raise ValidationError("Ramanujan test requires a connected graph")
    if report.is_bipartite:
        raise ValidationError("Ramanujan test requires a non-bipartite graph")
    nontrivial = np.array(report.mu[1:])
    return bool(np.all(np.abs(nontrivial) <= 2.0 * np.sqrt(report.d - 1) + RAMANUJAN_TOL))
