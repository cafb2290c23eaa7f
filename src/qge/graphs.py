"""Simple d-regular combinatorial graphs: sampling, spectra, girth.

A Graph is immutable after construction and is always fully validated:
every vertex has degree exactly d, no loops, no repeated edges, 2B = n d.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import _runtime
from ._checks import integer
from .bonds import BondIndex, _owned
from .errors import NumericalError, ParameterError, SamplingError, ValidationError

__all__ = [
    "Graph",
    "SpectralReport",
    "generate_random_regular",
    "spectral_report",
    "is_ramanujan",
    "girth",
]

EIG_TOL = 1e-9  # eigenvalue tolerance for multiplicity / bipartite detection
DENSE_SPECTRUM_MAX_N = 512  # above this many vertices beta comes from Lanczos
LANCZOS_TOL = 1e-10  # residual estimate at which an extreme Ritz pair has converged
LANCZOS_FIRST_CHECK = 30  # Lanczos step of the first convergence check
LANCZOS_SEED = 0  # seed of the Gaussian start vector
MAX_ATTEMPTS = 100_000  # configuration-model pairings drawn before giving up
# no draw is made when the expected number of pairings per simple one,
# exp((d^2 - 1) / 4) (Bender & Canfield 1978), exceeds MAX_ATTEMPTS this many
# times over: d = 7 (1.6 times) still draws, d = 8 (69 times) does not
HOPELESS_FACTOR = 10


def _rng(seed: int) -> np.random.Generator:
    """numpy's default generator for a seed in [0, 2^64)."""
    seed = integer(seed, 0, "seed")
    if seed >= 2**64:
        raise ParameterError(f"seed {seed} must lie in [0, 2^64)")
    return np.random.default_rng(np.uint64(seed))

RAMANUJAN_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple d-regular graph on n labelled vertices with B = n d / 2 edges.

    n and d are positive integers, stored as int (see _checks.integer);
    edges is a read-only (B, 2) int64 array, one row "u v" per edge, kept as
    given or else copied from any (B, 2) integer array-like.
    """

    n: int
    d: int
    edges: np.ndarray

    def __post_init__(self):
        n, d = integer(self.n, 1, "n"), integer(self.d, 1, "d")
        if (n * d) % 2 != 0:
            raise ValidationError(f"n*d = {n * d} is odd; no {d}-regular graph on {n} vertices")
        try:
            uv = np.asarray(self.edges)
        except ValueError as exc:
            raise ValidationError(f"edges must be a (B, 2) integer array: {exc}") from exc
        if uv.dtype.kind not in "iu" or uv.ndim != 2 or uv.shape[1] != 2:
            raise ValidationError(
                f"edges must be a (B, 2) integer array, got {uv.dtype} of shape {uv.shape}"
            )
        if 2 * len(uv) != n * d:
            raise ValidationError(
                f"edge count {len(uv)}: degree {d} on {n} vertices needs {n * d // 2} edges"
            )
        bad = np.flatnonzero(((uv < 0) | (uv >= n)).any(axis=1))
        if len(bad):
            raise ValidationError(f"edge ({uv[bad[0], 0]},{uv[bad[0], 1]}) out of range")
        uv = _owned(uv, np.int64)
        loops = np.flatnonzero(uv[:, 0] == uv[:, 1])
        if len(loops):
            raise ValidationError(f"self-loop at vertex {uv[loops[0], 0]}")
        keys = np.sort(uv.min(axis=1) * n + uv.max(axis=1))
        dup = np.flatnonzero(keys[1:] == keys[:-1])
        if len(dup):
            u, v = divmod(int(keys[dup[0]]), n)
            raise ValidationError(f"repeated edge ({u},{v})")
        deg = np.bincount(uv.ravel(), minlength=n)
        bad = np.flatnonzero(deg != d)
        if len(bad):
            raise ValidationError(f"vertex {bad[0]} has degree {deg[bad[0]]}, expected {d}")
        for name, value in (("n", n), ("d", d), ("edges", uv)):
            object.__setattr__(self, name, value)

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
        return BondIndex(self)


@dataclass(frozen=True)
class SpectralReport:
    """Connectivity-matrix spectrum and derived structural facts.

    mu is the full eigenvalue list in decreasing order, or None above
    DENSE_SPECTRUM_MAX_N vertices, where it is not computed.  beta is
    d - max |mu| over the non-trivial spectrum, where one eigenvalue d is
    removed per connected component and one eigenvalue -d per bipartite
    component.
    """

    n: int
    d: int
    mu: tuple[float, ...] | None
    beta: float
    is_connected: bool
    is_bipartite: bool

    @property
    def ergodic(self) -> bool:
        """Connected and not bipartite: beta then leaves out only the one
        eigenvalue d, the constant vector's."""
        return self.is_connected and not self.is_bipartite

    @property
    def walk_gap(self) -> float:
        """The gap the bond walk's decay bound reads: beta on an ergodic
        graph, else 0.  On traceless observables the walk M keeps what beta
        leaves out: the eigenvalue 1 for each component beyond the first
        (f = +-1 by component) and -1 for each bipartite component (f = the
        sign of the tail's colour), and those observables never decay."""
        return self.beta if self.ergodic else 0.0


def generate_random_regular(n: int, d: int, seed: int) -> Graph:
    """Sample a uniform simple d-regular graph on n labelled vertices.

    Configuration model with full rejection of pairings containing loops or
    multiple edges; conditioned on simplicity the outcome is exactly uniform.
    Deterministic for a fixed seed, which must lie in [0, 2^64).  Raises
    SamplingError after MAX_ATTEMPTS rejections, or before the first draw
    where HOPELESS_FACTOR says the rejections cannot succeed.
    """
    d = integer(d, 3, "degree d")
    n = integer(n, d + 1, "vertex count n")
    if (n * d) % 2 != 0:
        raise ParameterError(f"n*d = {n * d} must be even")
    rng = _rng(seed)
    log_expected = (d * d - 1) / 4  # log of the pairings drawn per simple one
    if log_expected > math.log(max(HOPELESS_FACTOR * MAX_ATTEMPTS, 1)):
        raise SamplingError(f"a simple pairing takes about e^{log_expected:g} draws at d={d}")
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    for _ in range(MAX_ATTEMPTS):
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
        return Graph(n=n, d=d, edges=np.column_stack((lo[order], hi[order])))
    raise SamplingError(
        f"no simple pairing found in {MAX_ATTEMPTS} attempts for n={n}, d={d}"
    )


def _components(g: Graph) -> tuple[np.ndarray, np.ndarray, list[bool]]:
    """One 2-colouring BFS over the graph: each vertex's component label and
    colour (0 or 1), and one bipartite flag per component."""
    label = [-1] * g.n
    color = [0] * g.n
    flags = []
    for start in range(g.n):
        if label[start] >= 0:
            continue
        ok = True
        label[start] = len(flags)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in g.neighbors[u]:
                if label[v] < 0:
                    label[v] = label[u]
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    ok = False
        flags.append(ok)
    return np.array(label), np.array(color), flags


def girth(g: Graph) -> int | None:
    """Length of the shortest cycle, via BFS from every vertex; None if acyclic.

    The search ends at the first triangle, the shortest cycle a simple graph
    can have.  The distance and parent arrays are allocated once: a vertex's
    entries are current when its stamp is the root of the running search.
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
                    if cand == 3:
                        return 3
                    if best is None or cand < best:
                        best = cand
    return best


def _dense_spectrum(g: Graph, flags: list[bool]) -> tuple[tuple[float, ...], float]:
    """Full eigenvalue list (decreasing) of the connectivity matrix and beta.

    The eigenvalue multiplicities of +/-d are cross-checked against the
    component count and the bipartite flags.  The eigensolve runs at one
    BLAS thread, so its bits do not depend on the thread count.
    """
    c = g.adjacency.astype(np.float64)
    with _runtime.one_blas_thread():
        mu = np.linalg.eigvalsh(c)[::-1]  # decreasing
    comps = len(flags)
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
    return tuple(float(x) for x in mu), beta


def _lanczos_extremes(matvec, deflate, n: int, max_steps: int) -> tuple[float, float]:
    """Lowest and highest eigenvalue of a symmetric operator on the
    (non-empty) complement of the vectors that `deflate` projects out.

    Three-term Lanczos from a seeded Gaussian start, with no
    reorthogonalisation against the Krylov basis: the deflated vectors are
    projected out of every new vector instead, so rounding cannot grow
    them back.  The extreme Ritz pairs are trusted once their residual
    estimates beta_j |s_{j,i}| fall below LANCZOS_TOL (Paige 1980); they are
    checked on a growing schedule.  Each check takes the two extreme
    eigenpairs of the tridiagonal T_j from LAPACK's dstemr
    (_runtime.tridiagonal_extremes), and takes a dense eigh of T_j, at one
    BLAS thread, only where that routine is not found or its call fails.
    """
    q = deflate(_rng(LANCZOS_SEED).standard_normal(n))
    q /= np.linalg.norm(q)
    q_prev = np.zeros(n)
    alphas: list[float] = []
    betas: list[float] = []
    check = LANCZOS_FIRST_CHECK
    for j in range(1, max_steps + 1):
        w = deflate(matvec(q))
        if betas:
            w -= betas[-1] * q_prev
        alphas.append(float(q @ w))
        w -= alphas[-1] * q
        betas.append(float(np.linalg.norm(w)))
        if j == check or j == max_steps or betas[-1] < LANCZOS_TOL:
            pairs = _runtime.tridiagonal_extremes(alphas, betas)
            if pairs is None:
                t = np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)
                with _runtime.one_blas_thread():
                    theta, s = np.linalg.eigh(t)
                pairs = (theta[0], s[-1, 0]), (theta[-1], s[-1, -1])
            (lo, s_lo), (hi, s_hi) = pairs
            if betas[-1] * max(abs(s_lo), abs(s_hi)) < LANCZOS_TOL:
                return float(lo), float(hi)
            check = j + max(10, j // 4)
        q_prev, q = q, w / betas[-1]
    raise NumericalError(
        f"Lanczos did not resolve the extreme eigenvalues in {max_steps} steps"
    )


def _lanczos_gap(g: Graph, label: np.ndarray, color: np.ndarray, flags: list[bool]) -> float:
    """beta from the extreme non-trivial eigenvalues, by Lanczos on the
    adjacency gather with the structural eigenvectors deflated.

    The structural vectors are one normalised indicator per component
    (eigenvalue d) and one normalised +/-1 colouring per bipartite
    component (eigenvalue -d); the two colour classes of a regular
    bipartite component have equal size, so the vectors are orthonormal and
    are projected out component by component.  They span everything only
    when every component is a single edge (d = 1); then beta = d, as on the
    dense route.
    """
    comps, n_bip = len(flags), sum(flags)
    if comps + n_bip == g.n:
        return float(g.d)
    bi = g.bond_index
    nbr = bi.heads[bi.out_bonds.T]  # (d, n); the matvec adds its rows left to right
    size = np.bincount(label).astype(np.float64)
    sign = np.where(np.array(flags)[label], 1.0 - 2.0 * color, 0.0)

    def deflate(w: np.ndarray) -> np.ndarray:
        w = w - (np.bincount(label, weights=w) / size)[label]
        if n_bip:
            w -= sign * (np.bincount(label, weights=sign * w) / size)[label]
        return w

    lo, hi = _lanczos_extremes(
        lambda x: reduce(operator.add, (x[row] for row in nbr)), deflate, g.n, max_steps=g.n
    )
    if hi > g.d - EIG_TOL or lo < -g.d + EIG_TOL:
        raise ValidationError(
            f"extreme Ritz values {lo}, {hi} after deflating {comps} component and "
            f"{n_bip} bipartite vectors: one lies within {EIG_TOL} of +/-d"
        )
    return g.d - max(-lo, hi)


def spectral_report(g: Graph) -> SpectralReport:
    """Spectral gap of the connectivity matrix, connectivity and bipartiteness.

    Connectivity and bipartiteness are decided structurally, by one
    traversal with 2-colouring.  Up to DENSE_SPECTRUM_MAX_N vertices the
    full spectrum comes from a dense eigensolve, whose multiplicities of
    +/-d are cross-checked against the traversal; above it, beta comes
    from deflated Lanczos, which rejects any Ritz value at +/-d, and mu is
    None.  Either way numerics never decide alone.
    """
    label, color, flags = _components(g)
    if g.n <= DENSE_SPECTRUM_MAX_N:
        mu, beta = _dense_spectrum(g, flags)
    else:
        mu, beta = None, _lanczos_gap(g, label, color, flags)
    return SpectralReport(
        n=g.n,
        d=g.d,
        mu=mu,
        beta=beta,
        is_connected=len(flags) == 1,
        is_bipartite=all(flags),
    )


def is_ramanujan(report: SpectralReport) -> bool:
    """True iff every non-trivial |mu_i| <= 2 sqrt(d-1) + tol, that is
    d - beta <= 2 sqrt(d-1) + tol.

    Only defined for ergodic (connected, non-bipartite) graphs.
    """
    if not report.ergodic:
        raise ValidationError("Ramanujan test requires a connected non-bipartite graph")
    return bool(report.d - report.beta <= 2.0 * np.sqrt(report.d - 1) + RAMANUJAN_TOL)
