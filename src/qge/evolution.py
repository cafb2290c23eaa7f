"""Quantum evolution on directed bonds.

Assembles the 2B x 2B bond matrix S from per-vertex scattering matrices,
forms the evolution U(k) with entries e^{i k L_b} S_{bc}, and provides the
spectral diagnostics built on it: eigenbases, secular-root scans, the
quantum-variance estimator, trace correlators, k-averaged squared-modulus
matrices, and the Fejer window machinery.

Orientation convention: S_{bc} is nonzero exactly when directed bond b feeds
into the vertex that bond c leaves, and then equals the vertex-matrix
amplitude from the incoming slot of b to the outgoing slot of c (incident
edges at a vertex are slotted in sorted-neighbour order, as fixed by
BondIndex.out_bonds).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bonds import BondIndex
from .errors import (
    AssemblyError,
    NumericalError,
    ParameterError,
    ValidationError,
)
from .graphs import Graph
from .scattering import VertexScattering

__all__ = [
    "MetricGraph",
    "Assembly",
    "Observable",
    "FejerWeights",
    "draw_lengths",
    "build_assembly",
    "evolution",
    "eigenbasis",
    "spectrum_scan",
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
# Cayley shifts alpha of eigenbasis, tried in order: two generic angles
# 1.6 rad apart, so a U(k) with an eigenvalue near -e^{-i alpha} for one
# of them is well conditioned for the other.
_CAYLEY_SHIFTS = (0.7, 2.3)


@dataclass(frozen=True)
class MetricGraph:
    """A graph with one positive length per undirected bond.

    Directed bonds share the length of their undirected counterpart.
    """

    graph: Graph
    lengths: np.ndarray

    def __post_init__(self):
        lengths = np.asarray(self.lengths, dtype=np.float64)
        if lengths.shape != (self.graph.B,):
            raise ValidationError(
                f"need {self.graph.B} bond lengths, got shape {lengths.shape}"
            )
        if not np.all(np.isfinite(lengths) & (lengths > 0)):
            raise ValidationError("all bond lengths must be finite and positive")
        object.__setattr__(self, "lengths", lengths)
        lengths.setflags(write=False)

    @property
    def directed_lengths(self) -> np.ndarray:
        return np.concatenate([self.lengths, self.lengths])


def draw_lengths(b: int, seed: int, low: float = 1.0, high: float = 2.0) -> np.ndarray:
    """Seeded uniform bond lengths in [low, high]; irrational length ratios
    with probability one, which is what the k-averages rely on."""
    rng = np.random.default_rng(np.uint64(seed))
    return rng.uniform(low, high, size=b)


@dataclass(frozen=True)
class Assembly:
    """Bond scattering matrix S plus the record of vertex matrices used."""

    bond_index: BondIndex
    S: np.ndarray
    vertex_rule: tuple[str, ...]

    def __post_init__(self):
        self.S.setflags(write=False)

    @property
    def no_backscatter(self) -> bool:
        two_b = self.bond_index.num_directed
        idx = np.arange(two_b)
        return bool(np.all(self.S[idx, self.bond_index.rev] == 0.0))


def _unitarity_deviation(bi: BondIndex, entries: np.ndarray) -> float:
    """max |S S^* - I| of the S wired from the (n, d, d) vertex matrices.

    When out_bonds and in_bonds are permutations of the bonds, S is a
    block-diagonal matrix of transposed vertex matrices with rows and
    columns permuted, so its deviation is the worst per-vertex one,
    max_v |sigma_v^H sigma_v - I|.  A broken wiring reads as infinite.
    """
    bonds = np.arange(bi.num_directed)
    for wiring in (bi.out_bonds, bi.in_bonds):
        if not np.array_equal(np.sort(wiring, axis=None), bonds):
            return math.inf
    gram = np.einsum("vji,vjk->vik", entries.conj(), entries)
    return float(np.max(np.abs(gram - np.eye(entries.shape[1]))))


def build_assembly(mg: MetricGraph | Graph, rule) -> Assembly:
    """Assemble S from a per-vertex scattering rule.

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

    entries = np.stack([sig.entries for sig in sigmas])
    two_b = bi.num_directed
    s = np.zeros((two_b, two_b), dtype=np.complex128)
    # S[in_bonds[v, i], out_bonds[v, j]] = sigma_v[j, i]
    s[bi.in_bonds[:, :, None], bi.out_bonds[:, None, :]] = entries.transpose(0, 2, 1)

    dev = _unitarity_deviation(bi, entries)
    if not dev < S_UNITARITY_TOL:
        raise NumericalError(f"assembled S not unitary (deviation {dev:.3e})")
    return Assembly(bond_index=bi, S=s, vertex_rule=tuple(sig.kind for sig in sigmas))


def evolution(a: Assembly, mg: MetricGraph, k: float) -> np.ndarray:
    """U(k) with entries e^{i k L_b} S_{bc}; unitary for real k."""
    phases = np.exp(1j * k * mg.directed_lengths)
    return phases[:, None] * a.S


def _cayley_eigh(u: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases and eigenvectors of the unitary u through the Cayley
    transform with shift alpha (see eigenbasis).

    The transposed system (I + V)^T H^T = i (I - V)^T is solved, so the
    column-major LAPACK routines work on u's row-major buffer without a
    layout copy.  Raises LinAlgError when I + V is exactly singular.
    """
    diag = np.diag_indices(u.shape[0])
    a = np.multiply(u.T, np.exp(1j * alpha))  # V^T
    b = np.multiply(a, -1j)
    a[diag] += 1.0  # (I + V)^T
    b[diag] += 1j  # i (I - V)^T
    with warnings.catch_warnings():
        # an ill-conditioned I + V is judged by the residual gate instead
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        ht = scipy.linalg.solve(a, b, overwrite_a=True, overwrite_b=True)
    del a
    # 2 (H + H^H)/2, stored transposed: dropping the rounding-level
    # anti-Hermitian part of the computed H keeps the eigenvectors accurate
    h2 = ht.T.conj()
    h2 += ht
    del ht, b
    w2, q = scipy.linalg.eigh(h2.T, overwrite_a=True, driver="evd")
    theta = ((2.0 * np.arctan(0.5 * w2) - alpha) / (2.0 * np.pi)) % 1.0
    theta[theta == 1.0] = 0.0  # (-tiny) % 1.0 rounds up to 1.0
    return theta, q


def eigenbasis(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases theta_j in [0, 1) and an orthonormal eigenvector basis.

    U phi_j = e^{2 pi i theta_j} phi_j.  Computed as the Hermitian
    eigenproblem (LAPACK zheevd) of the Cayley transform
    H = i (I - V)(I + V)^{-1} of V = e^{i alpha} U, whose eigenvalues
    tan((phi_j + alpha)/2) give the eigenphases back and whose orthonormal
    eigenvectors are those of U.  The shift alpha is the first entry of
    _CAYLEY_SHIFTS; when I + V is singular or the column residual
    |U phi_j - e^{2 pi i theta_j} phi_j| reaches EIGENBASIS_TOL, the second
    shift is tried, and NumericalError is raised if that fails as well.
    Degenerate eigenphases get an arbitrary orthonormal basis of their
    eigenspace.  The eigenphases are not sorted.
    """
    u = np.asarray(u, dtype=np.complex128)
    n = u.shape[0]
    dev = float(np.max(np.abs(u @ u.conj().T - np.eye(n))))
    if not dev < EIGENBASIS_TOL:
        raise ValidationError(f"eigenbasis requires a unitary matrix (deviation {dev:.3e})")
    failures = []
    for alpha in _CAYLEY_SHIFTS:
        try:
            theta, q = _cayley_eigh(u, alpha)
        except np.linalg.LinAlgError as exc:
            failures.append(f"alpha={alpha}: {exc}")
            continue
        residual = u @ q - q * np.exp(2j * np.pi * theta)[None, :]
        worst = float(np.max(np.linalg.norm(residual, axis=0)))
        if worst < EIGENBASIS_TOL:
            return theta, q
        failures.append(f"alpha={alpha}: residual {worst:.3e}")
    raise NumericalError(
        f"eigenbasis failed at every Cayley shift (tolerance {EIGENBASIS_TOL}): {'; '.join(failures)}"
    )


def _nearest_signed_phase(a: Assembly, mg: MetricGraph, k: float) -> float:
    lam = np.linalg.eigvals(evolution(a, mg, k))
    ph = np.angle(lam) / (2.0 * np.pi)  # in (-1/2, 1/2]
    return float(ph[np.argmin(np.abs(ph))])


def spectrum_scan(
    a: Assembly,
    mg: MetricGraph,
    k_range: tuple[float, float],
    resolution: float,
    root_tol: float = 1e-10,
) -> list[float]:
    """Approximate roots of det(U(k) - I) = 0 in [k_lo, k_hi].

    Grid scan of the eigenphase nearest zero followed by bisection on its
    sign change.  Eigenphases increase with k, so every root is an
    up-crossing; the resolution must be finer than the root spacing for all
    roots to be bracketed.  Diagnostic only: the variance estimator never
    uses it.
    """
    k_lo, k_hi = float(k_range[0]), float(k_range[1])
    if not (k_hi > k_lo):
        raise ParameterError(f"empty scan range [{k_lo}, {k_hi}]")
    if resolution <= 0:
        raise ParameterError("resolution must be positive")
    ks = np.arange(k_lo, k_hi + resolution / 2, resolution)
    rho = [_nearest_signed_phase(a, mg, k) for k in ks]
    roots: list[float] = []
    for i, r in enumerate(rho):
        if abs(r) < root_tol:
            roots.append(float(ks[i]))
    for i in range(len(ks) - 1):
        lo, hi = float(ks[i]), float(ks[i + 1])
        rlo, rhi = rho[i], rho[i + 1]
        if not (rlo < -root_tol and rhi > root_tol):
            continue
        if abs(rlo) + abs(rhi) > 0.45:  # wrapped pair, not a crossing
            continue
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if _nearest_signed_phase(a, mg, mid) < 0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-13 * max(1.0, abs(hi)):
                break
        roots.append(0.5 * (lo + hi))
    roots.sort()
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > 1e-9 * max(1.0, abs(r)):
            deduped.append(r)
    return deduped


@dataclass(frozen=True)
class Observable:
    """A bond observable f in C^(2B) with sup-norm bound kappa."""

    f: np.ndarray
    kappa: float
    traceless: bool

    def __post_init__(self):
        self.f.setflags(write=False)

    @classmethod
    def from_vector(cls, values, kappa: float | None = None) -> "Observable":
        f = np.asarray(values, dtype=np.complex128).copy()
        if f.ndim != 1:
            raise ValidationError("observable must be a vector")
        if not np.all(np.isfinite(f)):
            raise ValidationError("observable entries must be finite")
        sup = float(np.max(np.abs(f))) if f.size else 0.0
        if kappa is None:
            kappa = sup
        elif not sup <= kappa + 1e-12:
            raise ValidationError(f"|f| reaches {sup}, above the stated bound {kappa}")
        traceless = abs(complex(np.sum(f))) < 1e-12 * max(1, len(f))
        return cls(f=f, kappa=float(kappa), traceless=traceless)

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
    signs = np.where(bi.tails % 2 == 0, 1.0, -1.0)
    f = kappa * signs
    f = f - np.mean(f)
    return Observable.from_vector(f)


def constant_observable(bi: BondIndex, value: complex = 1.0) -> Observable:
    _check_finite_bound(value)
    return Observable.from_vector(np.full(bi.num_directed, value, dtype=np.complex128))


def _check_window(k_max: float) -> None:
    if not (math.isfinite(k_max) and k_max > 0):
        raise ParameterError(f"k window {k_max} must be finite and positive")


def _sample_grid(k_max: float, samples: int) -> np.ndarray:
    """Midpoint grid on [0, k_max]: equispaced, never duplicating endpoints."""
    h = k_max / samples
    return (np.arange(samples) + 0.5) * h


@dataclass(frozen=True)
class VarianceEstimate:
    estimate: float
    stderr: float
    B: int
    K: float
    samples: int

    def to_json_dict(self) -> dict:
        return {
            "B": self.B,
            "K": self.K,
            "samples": self.samples,
            "estimate": self.estimate,
            "stderr": None if math.isnan(self.stderr) else self.stderr,
        }


def variance_estimate(
    a: Assembly,
    mg: MetricGraph,
    f: Observable,
    k_max: float,
    samples: int,
    seed: int | None = None,
    sampler: str = "grid",
) -> VarianceEstimate:
    """Estimate the k-averaged second moment of eigenvector matrix elements
    of diag(f) around their uniform average Tr diag(f) / 2B.

    Default sampler is the equispaced midpoint grid on [0, k_max];
    sampler="mc" draws the k values uniformly instead (seeded).  The
    standard error is the sample standard deviation of the per-k statistic
    divided by sqrt(samples); it is undefined (NaN, null in the JSON form)
    for a single sample.
    """
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    _check_window(k_max)
    two_b = a.bond_index.num_directed
    if f.dim != two_b:
        raise ValidationError(f"observable has dim {f.dim}, expected {two_b}")
    if sampler == "grid":
        ks = _sample_grid(k_max, samples)
    elif sampler == "mc":
        rng = np.random.default_rng(np.uint64(seed if seed is not None else 0))
        ks = rng.uniform(0.0, k_max, size=samples)
    else:
        raise ParameterError(f"unknown sampler {sampler!r}")

    mean_element = f.trace() / two_b

    def per_k(k: float) -> float:
        _, q = eigenbasis(evolution(a, mg, k))
        elements = np.einsum("bj,b->j", np.abs(q) ** 2, f.f)
        return float(np.sum(np.abs(elements - mean_element) ** 2)) / two_b

    values = np.array([per_k(k) for k in ks])
    estimate = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(samples)) if samples > 1 else math.nan
    return VarianceEstimate(
        estimate=estimate, stderr=stderr, B=a.bond_index.B, K=float(k_max), samples=samples
    )


def trace_correlator(a: Assembly, mg: MetricGraph, f: Observable, t: int, k: float) -> float:
    """Tr(diag(f)* U(k)^t diag(f) U(k)^-t), a real quantity for real f.

    Imaginary residue beyond tolerance raises instead of being truncated.
    """
    if t < 0:
        raise ParameterError("t must be >= 0")
    u = evolution(a, mg, k)
    ut = np.linalg.matrix_power(u, t)
    w = np.abs(ut) ** 2
    val = complex(np.conj(f.f) @ w @ f.f)
    if not abs(val.imag) <= IMAG_RESIDUE_TOL * max(1.0, abs(val.real)):
        raise NumericalError(
            f"trace correlator has imaginary residue {val.imag:.3e}; "
            "analytically real only for real observables"
        )
    return val.real


def m_tilde(
    a: Assembly, mg: MetricGraph, t: int, k_max: float, samples: int
) -> np.ndarray:
    """Entrywise k-average of |U(k)^t|^2 over the sample grid.

    Doubly stochastic (each |U^t|^2 is, U being unitary); checked to 1e-8.
    """
    if t < 0:
        raise ParameterError("t must be >= 0")
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    _check_window(k_max)
    two_b = a.bond_index.num_directed
    ks = _sample_grid(k_max, samples)

    acc = np.zeros((two_b, two_b))
    for k in ks:
        acc += np.abs(np.linalg.matrix_power(evolution(a, mg, k), t)) ** 2
    acc /= samples
    worst = max(
        float(np.max(np.abs(acc.sum(axis=0) - 1.0))),
        float(np.max(np.abs(acc.sum(axis=1) - 1.0))),
    )
    if not worst < 1e-8:
        raise NumericalError(f"k-averaged matrix not doubly stochastic ({worst:.3e})")
    return acc


@dataclass(frozen=True)
class FejerWeights:
    """Triangular window weights w_hat(t) = (1 - |t|/T)/T for |t| < T.

    They sum to exactly 1 over t = -T..T.
    """

    T: int
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    def weight(self, t: int) -> float:
        if abs(t) >= self.T:
            return 0.0
        return float(self.values[t + self.T])


def fejer(T: int) -> FejerWeights:
    if T < 1 or int(T) != T:
        raise ParameterError(f"window T={T} must be a positive integer")
    T = int(T)
    ts = np.arange(-T, T + 1)
    vals = np.where(np.abs(ts) < T, (1.0 - np.abs(ts) / T) / T, 0.0)
    return FejerWeights(T=T, values=vals)


def fejer_kernel(T: int, x: float) -> float:
    """w_T(x) = 2 (1 - cos(T x)) / (T x)^2, continued by 1 at x = 0.

    Non-negative for all real x (it equals sinc^2(Tx/2) up to normalisation).
    """
    if T < 1:
        raise ParameterError(f"window T={T} must be >= 1")
    u = T * float(x)
    if abs(u) < 1e-4:
        return 1.0 - u * u / 12.0
    return 2.0 * (1.0 - math.cos(u)) / (u * u)


def lemma_a_sides(u: np.ndarray, a_mat: np.ndarray, T: int) -> tuple[float, float]:
    """Both sides of the windowed trace inequality for a unitary U.

    lhs = (1/N) sum_j |<u_j, A u_j>|^2 over a computed eigenbasis;
    rhs = (1/N) sum_{t=-T..T} w_hat(t) Tr(A* U^t A U^-t).
    Always lhs <= rhs + 1e-8; a violation marks a numerical fault and raises.
    """
    u = np.asarray(u, dtype=np.complex128)
    a_mat = np.asarray(a_mat, dtype=np.complex128)
    n = u.shape[0]
    _, q = eigenbasis(u)  # validates unitarity
    diag_elems = np.einsum("ij,ij->j", np.conj(q), a_mat @ q)
    lhs = float(np.sum(np.abs(diag_elems) ** 2)) / n

    w = fejer(T)
    a_dag = a_mat.conj().T
    total = w.weight(0) * np.trace(a_dag @ a_mat)
    p = a_mat.copy()
    for t in range(1, T + 1):
        p = u @ p @ u.conj().T  # U^t A U^-t
        wt = w.weight(t)
        if wt == 0.0:
            continue
        term = np.trace(a_dag @ p)
        total += wt * (term + np.conj(term))  # the t and -t terms pair up
    total = complex(total)
    if not abs(total.imag) <= 1e-8 * max(1.0, abs(total.real)):
        raise NumericalError(f"windowed trace sum has imaginary residue {total.imag:.3e}")
    rhs = total.real / n
    if not lhs <= rhs + 1e-8:
        raise NumericalError(f"trace inequality violated: lhs={lhs} rhs={rhs}")
    return lhs, rhs
