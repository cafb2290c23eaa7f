"""Quantum evolution on directed bonds.

Forms the evolution U(k) with entries e^{i k L_b} S_{bc}, the bond
operator S re-phased (no dense S is kept), and provides the spectral
diagnostics built on it: eigenbases, the quantum-variance estimator, trace
correlators, k-averaged squared-modulus matrices, and the Fejer window
machinery.

Orientation convention: S_{bc} is nonzero exactly when directed bond b feeds
into the vertex that bond c leaves, and then equals the vertex-matrix
amplitude from the incoming slot of b to the outgoing slot of c (incident
edges at a vertex are slotted in sorted-neighbour order, as fixed by
BondIndex.out_bonds).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import _runtime
from ._checks import check, imag_residue, integer, stochasticity_deviation, unitarity_deviation
from .bonds import BondIndex, BondOperator, _frozen, _owned
from .errors import (
    AssemblyError,
    NumericalError,
    ParameterError,
    ValidationError,
    WorkBudgetError,
)
from .graphs import Graph, _rng
from .scattering import VertexScattering

__all__ = [
    "MetricGraph",
    "Observable",
    "FejerWeights",
    "draw_lengths",
    "build_assembly",
    "evolution",
    "eigenbasis",
    "VarianceEstimate",
    "variance_estimate",
    "trace_correlator",
    "m_tilde",
    "fejer",
    "fejer_kernel",
    "lemma_a_sides",
    "parity_observable",
    "constant_observable",
]

S_UNITARITY_TOL = 1e-10
EIGENBASIS_TOL = 1e-8
IMAG_RESIDUE_TOL = 1e-10
OBSERVABLE_TOL = 1e-12  # |Tr f| per bond and unit of sup|f| of a traceless f
M_TILDE_TOL = 1e-8  # row and column sums of the k-averaged |U^t|^2
LEMMA_A_TOL = 1e-8  # imaginary residue and lhs - rhs of the windowed trace inequality
# Cayley shifts alpha of eigenbasis, tried in order: two generic angles
# 1.6 rad apart, so a U(k) with an eigenvalue near -e^{-i alpha} for one
# of them is well conditioned for the other.
_CAYLEY_SHIFTS = (0.7, 2.3)
# The bond-reversal route of eigenbasis (see _reversal_attempt): M^2
# eigenphases closer than _PAIR_GAP (rad) form one cluster, and a Cayley
# eigenvalue |h| reaching _POLE_BOUND fails the attempt, so that the next
# shift runs.  Below the bound every angle is 2 / _POLE_BOUND from the
# pole, so no cluster wraps round it while _PAIR_GAP < 4 / _POLE_BOUND.
_PAIR_GAP = 1e-3
_POLE_BOUND = 2e3
# eigenbasis's residual and variance_estimate's statistic run over column
# blocks of at most this many bytes of complex128 (one block at 2B <= 160),
# so that a k-sample's scratch stays small while several run at once
_BLOCK_BYTES = 1 << 19
LENGTH_RANGE = (1.0, 2.0)  # bounds of the uniform draw_lengths


@dataclass(frozen=True, eq=False)
class MetricGraph:
    """A graph with one positive length per undirected bond.

    Directed bonds share the length of their undirected counterpart.
    """

    graph: Graph
    lengths: np.ndarray

    def __post_init__(self):
        lengths = _owned(self.lengths, np.float64)
        if lengths.shape != (self.graph.B,):
            raise ValidationError(
                f"need {self.graph.B} bond lengths, got shape {lengths.shape}"
            )
        if not np.all(np.isfinite(lengths) & (lengths > 0.0)):
            raise ValidationError("all bond lengths must be finite and positive")
        object.__setattr__(self, "lengths", lengths)

    @property
    def directed_lengths(self) -> np.ndarray:
        return np.concatenate([self.lengths, self.lengths])


def draw_lengths(b: int, seed: int) -> np.ndarray:
    """Uniform bond lengths in LENGTH_RANGE from a seed in [0, 2^64);
    irrational length ratios with probability one, which is what the
    k-averages rely on."""
    return _rng(seed).uniform(*LENGTH_RANGE, size=integer(b, 0, "bond count b"))


def build_assembly(mg: MetricGraph | Graph, rule) -> BondOperator:
    """Wire the vertex matrices of a per-vertex scattering rule into the
    bond operator S, checked unitary through its blocks.

    `rule` is a single VertexScattering applied at every vertex, or a
    sequence with one entry per vertex.  Every matrix must be d x d.
    """
    g = mg.graph if isinstance(mg, MetricGraph) else mg
    bi = g.bond_index
    if isinstance(rule, VertexScattering):
        sigmas = [rule] * g.n
    else:
        sigmas = list(rule)
        if len(sigmas) != g.n:
            raise AssemblyError(f"need one vertex matrix per vertex ({g.n}), got {len(sigmas)}")
    for v, sig in enumerate(sigmas):
        if sig.d != g.d:
            raise AssemblyError(f"vertex {v}: matrix size {sig.d} != degree {g.d}")

    s = BondOperator(bi, np.stack([sig.entries for sig in sigmas]))
    check(s.unitarity_deviation(), S_UNITARITY_TOL, NumericalError, "assembled S")
    return s


def evolution(s: BondOperator, mg: MetricGraph, k: float) -> np.ndarray:
    """The dense U(k) with entries e^{i k L_b} S_{bc}; unitary for real k.

    One scatter from the vertex blocks:
    U[in_bonds[v, i], out_bonds[v, j]] = e^{i k L[in_bonds[v, i]]} sigma_v[j, i].
    """
    return s.with_phases(np.exp(1j * k * mg.directed_lengths)).dense()


def _cayley(operands: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and orthonormal eigenvectors of 2 H for the
    Cayley transform H with a H^T = b, (a, b) = operands: real symmetric
    (LAPACK dgesv and dsyevd) or complex Hermitian (zgesv and zheevd).
    Adding the conjugate transpose drops the rounding-level anti-Hermitian
    part of the computed H, which keeps the eigenvectors accurate.  Callers
    build the operands in the call, so that (on CPython 3.11 and later)
    they are freed before the eigh.
    Raises LinAlgError when a is exactly singular; an ill-conditioned a is
    judged by the residual gate of eigenbasis."""
    h2t = np.linalg.solve(*operands)
    del operands
    h2t += h2t.T.conj()
    return np.linalg.eigh(h2t.T)


def _cayley_operands(u: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(I + V)^T and i (I - V)^T for V = e^{i alpha} u, whose solve is the
    transposed Cayley transform H^T (see eigenbasis).  Built from u.T, they
    are already column-major, so numpy's copies into LAPACK's layout are
    contiguous."""
    diag = np.diag_indices(u.shape[0])
    a = np.multiply(u.T, np.exp(1j * alpha))  # V^T
    b = np.multiply(a, -1j)
    a[diag] += 1.0  # (I + V)^T
    b[diag] += 1j  # i (I - V)^T
    return a, b


def _cayley_eigh(u: np.ndarray | BondOperator, alpha: float) -> np.ndarray:
    """Orthonormal eigenvectors of the unitary u, scattered when an
    operator, by _cayley at shift alpha: the complex route of eigenbasis,
    and the cluster blocks of _reversal_attempt."""
    if isinstance(u, BondOperator):
        u = u.dense()
    return _cayley(_cayley_operands(u, alpha))[1]


def _pair_vectors(o: np.ndarray) -> np.ndarray:
    """V0 (o1 + i o2)/sqrt 2 and V0 (o1 - i o2)/sqrt 2 in columns 2p and
    2p + 1, for the real columns o1 = o[:, 2p] and o2 = o[:, 2p + 1].

    Split each column into its rows below B (o1t, o2t) and from B on
    (o1b, o2b).  The + vector has top ((o1t - o2b) + i (o2t + o1b))/2 and
    the - vector top ((o1t + o2b) + i (o1b - o2t))/2; each one's bottom is
    the conjugate of the other's top.  Real arithmetic throughout.
    """
    n = len(o)
    half = n // 2
    o1t, o2t, o1b, o2b = o[:half, 0::2], o[:half, 1::2], o[half:, 0::2], o[half:, 1::2]
    z = np.empty((n, n), dtype=np.complex128)
    top = z[:half]
    np.subtract(o1t, o2b, out=top.real[:, 0::2])
    np.add(o2t, o1b, out=top.imag[:, 0::2])
    np.add(o1t, o2b, out=top.real[:, 1::2])
    np.subtract(o1b, o2t, out=top.imag[:, 1::2])
    top *= 0.5
    np.conjugate(top[:, 1::2], out=z[half:, 0::2])
    np.conjugate(top[:, 0::2], out=z[half:, 1::2])
    return z


def _pair_operands(w2: np.ndarray, alpha: float, scatter) -> tuple[np.ndarray, np.ndarray]:
    """I + P and Q, real and column-major, for e^{i alpha} M^2 = P + i Q:
    the terms w2 of W^2 times e^{i alpha}, scattered by the pattern of
    BondIndex.pair_scatter, one np.bincount for each part.  As for
    _cayley_operands, numpy's copies into LAPACK's layout are then
    contiguous."""
    targets, units = scatter
    n = len(w2)
    z = units * (np.exp(1j * alpha) * w2.ravel())
    a = np.bincount(targets, z.real.ravel(), minlength=n * n).reshape(n, n).T
    a[np.diag_indices(n)] += 1.0  # I + P
    return a, np.bincount(targets, z.imag.ravel(), minlength=n * n).reshape(n, n).T


def _reversal_attempt(u: BondOperator, alpha: float) -> np.ndarray:
    """Orthonormal eigenvectors of u = diag(phases) X with antisymmetric
    blocks, from one real Cayley solve at shift alpha.  In the gauge
    D = diag(sqrt(phases)), u = D W D^-1 for W = D X D, supported on the
    successor pattern, and J W J = -W^T for the bond reversal J
    (b <-> b + B) when phases[b] = phases[J b].

    In the pair basis V0, whose columns are (e_b + e_{b+B})/sqrt 2 and
    then i (e_b - e_{b+B})/sqrt 2 for b < B (so V0 V0^T = J),
    M = V0^H W V0 is complex skew-symmetric and unitary, so M^2 is complex
    symmetric: e^{i alpha} M^2 = P + i Q with commuting real symmetric P
    and Q, scattered from the terms of W^2 (_pair_operands), and the Cayley
    transform (I + P)^{-1} Q, with eigenvalues h_j = tan((phi_j + alpha)/2)
    for the eigenphases phi_j of M^2, has real eigenvectors.  Each
    eigenvalue of M^2 is (exactly) double; on its real eigenvector pair
    (o1, o2) the block of M is [[0, a], [-a, 0]], so (o1 +- i o2)/sqrt 2
    are eigenvectors of M, and V0 maps them to eigenvectors of W
    (_pair_vectors).  Eigenphases of M^2 closer than _PAIR_GAP form one
    cluster; the vectors of a cluster larger than a pair span an invariant
    subspace, whose small block _cayley_eigh diagonalises.

    Raises LinAlgError when I + P is exactly singular, when some |h_j|
    reaches _POLE_BOUND or when a cluster is odd; a u without the symmetry
    fails there or at the residual gate of eigenbasis.  No dense u is
    formed.
    """
    # read first: the pattern, built on the first call, lives as long as
    # the graph; built after this call's temporaries, it would sit above
    # their freed space and raise peak RSS (about 0.1 MiB at 2B = 320)
    scatter = u.bond_index.pair_scatter
    n = u.bond_index.num_directed
    succ, coef = u.gather  # zero diagonals: the d-1 successor slots
    half = np.sqrt(u.phases)
    w = half[:, None] * coef * half[succ]  # W[b, succ[b, j]]
    w2 = w[:, :, None] * w[succ]  # the terms of W^2[b, succ[succ[b, j], l]]
    e2, o = _cayley(_pair_operands(w2, alpha, scatter))
    h = 0.5 * e2
    if not np.max(np.abs(h)) < _POLE_BOUND:
        raise np.linalg.LinAlgError(f"Cayley pole: max |h| {np.max(np.abs(h)):.3e}")
    t = 2.0 * np.arctan(h)  # ascending Cayley angles phi_j + alpha

    bounds = np.concatenate(([0], np.flatnonzero(np.diff(t) >= _PAIR_GAP) + 1, [n]))
    sizes = np.diff(bounds)
    if np.any(sizes % 2):
        raise np.linalg.LinAlgError(f"odd cluster of M^2 eigenphases, sizes {sorted(set(sizes.tolist()))}")
    # every cluster starts at an even column: columns (2p, 2p + 1) are a pair
    q = _pair_vectors(o)
    del o
    q *= half[:, None]  # eigenvectors of W to those of u
    for start, size in zip(bounds[:-1][sizes > 2].tolist(), sizes[sizes > 2].tolist()):
        qg = q[:, start : start + size]
        block = qg.conj().T @ (u @ qg)
        # the block's eigenvalues lie near +-e^{i phi/2}: the shift puts
        # the pole a quarter turn from both
        phi = float(np.mean(t[start : start + size])) - alpha
        q[:, start : start + size] = qg @ _cayley_eigh(block, 0.5 * (np.pi - phi))
    return q


def _column_blocks(n: int) -> list[slice]:
    """Equal slices, each within _BLOCK_BYTES, of the n columns of an
    (n, n) complex128 array."""
    most = max(1, _BLOCK_BYTES // (16 * n))
    width = math.ceil(n / math.ceil(n / most))  # equal widths, none above most
    return [slice(j, j + width) for j in range(0, n, width)]


def eigenbasis(u: np.ndarray | BondOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases theta_j in [0, 1) and an orthonormal eigenvector basis.

    U phi_j = e^{2 pi i theta_j} phi_j.  The eigenvectors are those of the
    Hermitian eigenproblem (LAPACK zheevd) of the Cayley transform
    H = i (I - V)(I + V)^{-1} of V = e^{i alpha} U, and each eigenphase is
    the angle of phi_j^H U phi_j, which stays accurate when an eigenvalue
    of U lies near the pole -e^{-i alpha}.  Every eigenpair must meet the
    column residual |U phi_j - e^{2 pi i theta_j} phi_j| < EIGENBASIS_TOL,
    formed in column blocks (_column_blocks).
    Degenerate eigenphases get an arbitrary orthonormal basis of their
    eigenspace.  The eigenphases are not sorted.

    u is a dense array or a BondOperator such as U(k) = S.with_phases(e^{i k L}),
    whose unitarity is read from its blocks and phases and whose residuals
    are formed by its gather.  The attempts, each a (route, shift) pair,
    run in one fixed order: the real route of _reversal_attempt (a
    BondOperator with antisymmetric blocks only), then the route above on
    u.dense(), each at the shifts of _CAYLEY_SHIFTS in turn.  The first
    attempt whose solve succeeds and whose eigenpairs pass the residual is
    returned; NumericalError is raised when none does.

    A u that is not a non-empty square matrix, or not unitary to
    EIGENBASIS_TOL, raises ValidationError.
    """
    operator = isinstance(u, BondOperator)
    if not operator:
        u = np.asarray(u, dtype=np.complex128)
        if u.ndim != 2 or u.shape[0] != u.shape[1] or u.size == 0:
            raise ValidationError(f"eigenbasis input must be a non-empty square matrix, got shape {u.shape}")
    dev = u.unitarity_deviation() if operator else unitarity_deviation(u)
    check(dev, EIGENBASIS_TOL, ValidationError, "eigenbasis input")
    attempts = [("complex", _cayley_eigh, alpha) for alpha in _CAYLEY_SHIFTS]
    if operator and u.antisymmetric:
        attempts[:0] = [("bond reversal", _reversal_attempt, alpha) for alpha in _CAYLEY_SHIFTS]
    failures = []
    for name, attempt, alpha in attempts:
        try:
            q = attempt(u, alpha)
        except np.linalg.LinAlgError as exc:
            failures.append(f"{name} at alpha={alpha}: {exc}")
            continue
        theta = np.empty(len(q))
        worst = 0.0
        for cols in _column_blocks(len(q)):
            y = u @ q[:, cols]
            t = (np.angle(np.vecdot(q[:, cols], y, axis=0)) / (2.0 * np.pi)) % 1.0
            t[t == 1.0] = 0.0  # (-tiny) % 1.0 rounds up to 1.0
            theta[cols] = t
            y -= q[:, cols] * np.exp(2j * np.pi * t)
            worst = max(worst, float(np.max(np.vecdot(y, y, axis=0).real)))
        worst = math.sqrt(worst)
        if worst < EIGENBASIS_TOL:
            return theta, q
        failures.append(f"{name} at alpha={alpha}: residual {worst:.3e}")
    raise NumericalError(
        f"eigenbasis failed at every attempt (tolerance {EIGENBASIS_TOL}): {'; '.join(failures)}"
    )


@dataclass(frozen=True, eq=False)
class Observable:
    """A bond observable f in C^(2B) with sup-norm kappa = sup|f| (0 for an empty f);
    f is traceless when |Tr f| < OBSERVABLE_TOL * max(1, 2B) * max(1, kappa)."""

    f: np.ndarray

    def __post_init__(self):
        f = _owned(self.f, np.complex128)
        if f.ndim != 1:
            raise ValidationError("observable must be a vector")
        if not np.all(np.isfinite(f)):
            raise ValidationError("observable entries must be finite")
        object.__setattr__(self, "f", f)

    @cached_property
    def kappa(self) -> float:
        return float(np.max(np.abs(self.f))) if self.f.size else 0.0

    @cached_property
    def traceless(self) -> bool:
        return abs(self.trace()) < OBSERVABLE_TOL * max(1, self.dim) * max(1.0, self.kappa)

    @property
    def dim(self) -> int:
        return len(self.f)

    def trace(self) -> complex:
        return complex(np.sum(self.f))


def _check_finite_bound(value) -> None:
    if not np.isfinite(value):
        raise ParameterError(f"observable value {value} must be finite")


def parity_observable(bi: BondIndex, kappa: float = 1.0) -> Observable:
    """+kappa on bonds leaving even vertices, -kappa otherwise, mean-centred.

    The deterministic observable family of the experiment harness.
    """
    _check_finite_bound(kappa)
    f = kappa * np.where(bi.tails % 2 == 0, 1.0, -1.0)
    return Observable(f - np.mean(f))


def constant_observable(bi: BondIndex, value: complex = 1.0) -> Observable:
    _check_finite_bound(value)
    return Observable(np.full(bi.num_directed, value, dtype=np.complex128))


def _k_grid(s: BondOperator, mg: MetricGraph, k_max: float, samples: int):
    """The midpoint grid of [0, k_max] (equispaced, never duplicating
    endpoints) and the map k -> U(k) = S.with_phases(e^{i k L}), which
    forms one operator per call.  samples and the window are checked when
    called, before any U(k), and len(ks) is the checked sample count."""
    samples = integer(samples, 1, "samples")
    if not (math.isfinite(k_max) and k_max > 0.0):
        raise ParameterError(f"k window {k_max} must be finite and positive")
    lengths = mg.directed_lengths
    ks = (np.arange(samples) + 0.5) * (k_max / samples)
    return ks, lambda k: s.with_phases(np.exp(1j * k * lengths))


def _check_dim(s: BondOperator, f: Observable) -> None:
    two_b = s.bond_index.num_directed
    if f.dim != two_b:
        raise ValidationError(f"observable has dim {f.dim}, expected {two_b}")


def _check_operand_memory(two_b: int, workers: int) -> None:
    """Raise WorkBudgetError where the k-samples in flight cannot fit in
    physical memory: every eigenbasis route holds at least two 2B x 2B
    float64 operands per k-sample, so this lower bound refuses no run that
    can finish.  No check where the memory size is not available."""
    need = workers * 2 * two_b * two_b * 8
    memory = _runtime.physical_memory()
    if memory is not None and need > memory:
        raise WorkBudgetError(
            f"{workers} k-samples in flight at 2B = {two_b} hold at least {need} bytes "
            f"of operands, more than the {memory} bytes of physical memory"
        )


@dataclass(frozen=True)
class VarianceEstimate:
    estimate: float
    stderr: float
    B: int
    K: float
    samples: int

    def to_json_dict(self) -> dict:
        """The fields, with an undefined (NaN) stderr as null."""
        return {**asdict(self), "stderr": None if math.isnan(self.stderr) else self.stderr}


def variance_estimate(
    s: BondOperator,
    mg: MetricGraph,
    f: Observable,
    k_max: float,
    samples: int,
) -> VarianceEstimate:
    """Estimate the k-averaged second moment of eigenvector matrix elements
    of diag(f) around their uniform average Tr diag(f) / 2B.

    The k values are the equispaced midpoint grid on [0, k_max].  The
    standard error is the sample standard deviation of the per-k statistic
    divided by sqrt(samples); it is undefined (NaN, null in the JSON form)
    for a single sample.

    Each eigenbasis call gets U(k) as the operator S.with_phases(e^{i k L}),
    so the real bond-reversal route serves antisymmetric vertex matrices;
    the eigenvectors, and so the estimate, then differ from the complex
    route's in the last digits.

    The k-samples run through _runtime.thread_map, each at one BLAS
    thread, so the estimate depends neither on the worker count nor on
    OPENBLAS_NUM_THREADS; each worker holds one k-sample's eigenbasis and
    scratch, and the statistic is formed in column blocks.  Before the
    first U(k), WorkBudgetError refuses k-samples whose operands cannot
    fit in physical memory (_check_operand_memory).
    """
    ks, u_at = _k_grid(s, mg, k_max, samples)
    samples = len(ks)
    _check_dim(s, f)
    two_b = s.bond_index.num_directed
    _check_operand_memory(two_b, _runtime.pool_workers(samples))
    # the facts the k-samples share, built here: cached_property locks nothing on 3.12+
    s.gather
    if s.antisymmetric:
        s.bond_index.pair_scatter
    mean_element = f.trace() / two_b
    blocks = _column_blocks(two_b)

    def per_k(k: float) -> float:
        _, q = eigenbasis(u_at(k))
        elements = np.concatenate([np.einsum("bj,b->j", np.abs(q[:, c]) ** 2, f.f) for c in blocks])
        return float(np.sum(np.abs(elements - mean_element) ** 2)) / two_b

    values = np.array(_runtime.thread_map(per_k, ks))
    estimate = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(samples)) if samples > 1 else math.nan
    return VarianceEstimate(
        estimate=estimate, stderr=stderr, B=s.bond_index.B, K=float(k_max), samples=samples
    )


def trace_correlator(s: BondOperator, mg: MetricGraph, f: Observable, t: int, k: float) -> float:
    """Tr(diag(f)* U(k)^t diag(f) U(k)^-t), a real quantity for real f.

    Imaginary residue beyond tolerance raises instead of being truncated.
    """
    t = integer(t, 0, "t")
    _check_dim(s, f)
    u = evolution(s, mg, k)
    ut = np.linalg.matrix_power(u, t)
    w = np.abs(ut) ** 2
    val = complex(np.conj(f.f) @ w @ f.f)  # real for real f
    check(imag_residue(val), IMAG_RESIDUE_TOL, NumericalError, "trace correlator imaginary part")
    return val.real


def m_tilde(
    s: BondOperator, mg: MetricGraph, t: int, k_max: float, samples: int
) -> np.ndarray:
    """Entrywise k-average of |U(k)^t|^2 over the sample grid.

    Doubly stochastic (each |U^t|^2 is, U being unitary); checked to M_TILDE_TOL.
    """
    t = integer(t, 0, "t")
    ks, u_at = _k_grid(s, mg, k_max, samples)
    two_b = s.bond_index.num_directed
    acc = np.zeros((two_b, two_b))
    for k in ks:
        acc += np.abs(np.linalg.matrix_power(u_at(k).dense(), t)) ** 2
    acc /= len(ks)
    check(stochasticity_deviation(acc), M_TILDE_TOL, NumericalError, "k-averaged |U^t|^2 sums")
    return acc


@dataclass(frozen=True)
class FejerWeights:
    """Triangular window weights values[t + T] = w_hat(t) = (1 - |t|/T)/T for
    |t| < T, and 0 at |t| = T; they sum to exactly 1 over t = -T..T."""

    T: int

    def __post_init__(self):
        object.__setattr__(self, "T", integer(self.T, 1, "window T"))

    @cached_property
    def values(self) -> np.ndarray:
        T, ts = self.T, np.arange(-self.T, self.T + 1)
        return _frozen(np.where(np.abs(ts) < T, (1.0 - np.abs(ts) / T) / T, 0.0))

    def weight(self, t: int) -> float:
        if abs(t) >= self.T:
            return 0.0
        return float(self.values[t + self.T])


def fejer(T: int) -> FejerWeights:
    return FejerWeights(T)


def fejer_kernel(T: int, x: float) -> float:
    """w_T(x) = 2 (1 - cos(T x)) / (T x)^2, continued by 1 at x = 0.

    Non-negative for all real x (it equals sinc^2(Tx/2) up to normalisation).
    """
    u = integer(T, 1, "window T") * float(x)
    if abs(u) < 1e-4:
        return 1.0 - u * u / 12.0
    return 2.0 * (1.0 - math.cos(u)) / (u * u)


def lemma_a_sides(u: np.ndarray, a_mat: np.ndarray, T: int) -> tuple[float, float]:
    """Both sides of the windowed trace inequality for a unitary U.

    lhs = (1/N) sum_j |<u_j, A u_j>|^2 over a computed eigenbasis;
    rhs = (1/N) sum_{t=-T..T} w_hat(t) Tr(A* U^t A U^-t).
    Always lhs - rhs < LEMMA_A_TOL; a violation marks a numerical fault and raises.
    U must be a non-empty square matrix, unitary, and A of its shape
    (ValidationError otherwise).
    """
    u = np.asarray(u, dtype=np.complex128)
    a_mat = np.asarray(a_mat, dtype=np.complex128)
    if a_mat.shape != u.shape:
        raise ValidationError(f"A has shape {a_mat.shape}, U has shape {u.shape}")
    _, q = eigenbasis(u)  # validates the shape and unitarity
    n = len(q)
    diag_elems = np.einsum("ij,ij->j", np.conj(q), a_mat @ q)
    lhs = float(np.sum(np.abs(diag_elems) ** 2)) / n

    w = fejer(T)
    a_dag = a_mat.conj().T
    total = w.weight(0) * np.trace(a_dag @ a_mat)
    p = a_mat.copy()
    for t in range(1, w.T + 1):
        p = u @ p @ u.conj().T  # U^t A U^-t
        wt = w.weight(t)
        if wt == 0.0:
            continue
        term = np.trace(a_dag @ p)
        total += wt * (term + np.conj(term))  # the t and -t terms pair up
    check(imag_residue(total), LEMMA_A_TOL, NumericalError, "windowed trace sum imaginary part")
    rhs = float(total.real) / n
    check(lhs - rhs, LEMMA_A_TOL, NumericalError, f"trace inequality lhs={lhs} rhs={rhs}")
    return lhs, rhs
