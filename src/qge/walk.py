"""The classical Markov chain on directed bonds and its decay machinery.

M has entries |S_{bc}|^2 and is doubly stochastic.  Probability mass on a
bond flows to the bonds feeding into its origin, so M e_v = e~_v where e_v
indicates bonds leaving vertex v and e~_v bonds entering it.  On the
orthogonal complement of span{e_v} the chain contracts norms by exactly
1/(d-1); on the span itself iterates are controlled by a scalar
three-term recurrence driven by the connectivity eigenvalues.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from ._checks import check, imag_residue, integer, stochasticity_deviation
from .bonds import BondIndex, BondOperator
from .errors import (
    NumericalError,
    ParameterError,
    StochasticityError,
    ValidationError,
    WalkBoundUnavailableError,
)
from .evolution import Observable
from .graphs import Graph, SpectralReport

__all__ = [
    "VertexBasis",
    "WalkIdentityReport",
    "DecayRow",
    "classical_map",
    "vertex_basis",
    "walk_action_identities",
    "singular_profile",
    "reduced_matrix",
    "psi",
    "reduced_consistency",
    "project_g1",
    "project_g2",
    "g2_contraction",
    "z_sequence",
    "z_closed_form",
    "z_bound",
    "y_from_z",
    "walk_decay_constant",
    "decay_profile",
]

STOCHASTICITY_TOL = 1e-10
IDENTITY_TOL = 1e-10
G2_MEMBERSHIP_TOL = 1e-10
Z_TOL = 1e-9  # recurrence against closed form, and the closed form's imaginary part
Z_DEGENERATE_TOL = 1e-12  # |sqrt(omega^2 - 1)| below which the closed form degenerates
DECAY_SLACK = 1e-12  # how far a decay norm may exceed its bound


def classical_map(s: BondOperator) -> BondOperator:
    """M = |S|^2 entrywise, the bond operator with the blocks |sigma_v|^2;
    doubly stochastic or the assembly is corrupt.

    Row in_bonds[v, i] of M sums blocks[v, :, i] and column out_bonds[v, j]
    sums blocks[v, j, :], so the check runs on the vertex blocks.  M is
    block-diagonal up to row and column permutations, with d non-zeros per
    row, and `m @ x` is its gather.
    """
    w = np.abs(s.blocks) ** 2
    dev = stochasticity_deviation(w)
    check(dev, STOCHASTICITY_TOL, StochasticityError, "M row/column sums")
    return BondOperator(s.bond_index, w)


@dataclass(frozen=True, eq=False)
class VertexBasis:
    """Outgoing (e_v) and incoming (e~_v) bond indicator vectors per vertex,
    held as index arrays: e_v indicates the bonds b with tails[b] = v and
    e~_v those with heads[b] = v.  <e_u, e~_v> is the connectivity entry.
    """

    n: int
    d: int
    tails: np.ndarray = field(repr=False)
    heads: np.ndarray = field(repr=False)

    def overlaps(self, x: np.ndarray) -> np.ndarray:
        """The n inner products <e_v, x>, that is e @ x."""
        x = np.asarray(x)
        if np.iscomplexobj(x):
            return self.overlaps(x.real) + 1j * self.overlaps(x.imag)
        return np.bincount(self.tails, weights=x, minlength=self.n)


def vertex_basis(bi: BondIndex) -> VertexBasis:
    """Indicator vectors of each vertex's outgoing and incoming bonds."""
    return VertexBasis(n=bi.n, d=bi.out_bonds.shape[1], tails=bi.tails, heads=bi.heads)


@dataclass(frozen=True)
class WalkIdentityReport:
    """Maximum deviations of the two vertex-vector identities under M."""

    max_dev_outgoing: float   # M e_v vs e~_v
    max_dev_incoming: float   # M e~_v vs (sum_{w~v} e~_w - e_v)/(d-1)

    @property
    def max_dev(self) -> float:
        return max(self.max_dev_outgoing, self.max_dev_incoming)

    @property
    def equi_transmitting(self) -> bool:
        return self.max_dev < IDENTITY_TOL


def walk_action_identities(m: BondOperator) -> WalkIdentityReport:
    """Check M e_v = e~_v and M e~_v = (sum_{w~v} e~_w - e_v)/(d-1) for all v.

    Row b = in_bonds[v, i] of M has its d non-zeros blocks[v, :, i] on the
    bonds leaving v, which all lie in e_v and of which the j-th lies in
    e~_w for w the j-th neighbour of v; the i-th leaves towards tail(b).
    So entry b of M e_v is the row sum, entry b of M e~_w is blocks[v, j, i],
    and both identities are statements about the blocks: unit row sums, and
    blocks[v, j, i] = (1 - [i = j])/(d-1).  Every other entry of both sides
    is zero.

    The first identity holds for every unitary assembly (columns of each
    vertex matrix have unit norm); the second requires zero reflection, so
    its deviation is what flags a non-equi-transmitting input.
    """
    w = m.blocks
    d = w.shape[-1]
    dev_out = float(np.max(np.abs(w.sum(axis=1) - 1.0)))
    expected = (1.0 - np.eye(d)) / (d - 1)
    dev_in = float(np.max(np.abs(w - expected)))
    return WalkIdentityReport(dev_out, dev_in)


def singular_profile(m: BondOperator) -> np.ndarray:
    """Singular values of M in decreasing order: M is block-diagonal up to
    row and column permutations, so they are those of its vertex blocks."""
    values = np.linalg.svd(m.blocks, compute_uv=False)
    return np.sort(values, axis=None)[::-1]


def reduced_matrix(g: Graph) -> np.ndarray:
    """The 2n x 2n reduced operator [[0, -I/(d-1)], [I, C/(d-1)]]."""
    n, d = g.n, g.d
    c = g.adjacency.astype(np.float64)
    top = np.hstack([np.zeros((n, n)), -np.eye(n) / (d - 1)])
    bottom = np.hstack([np.eye(n), c / (d - 1)])
    return np.vstack([top, bottom])


def _phi_tilde(coeffs: np.ndarray) -> np.ndarray:
    """Lift vertex coefficients a to the reduced space as (a; 0)."""
    a = np.asarray(coeffs, dtype=np.complex128)
    return np.concatenate([a, np.zeros_like(a)])


def psi(x_hat: np.ndarray, basis: VertexBasis) -> np.ndarray:
    """psi(a; b) = sum_v a_v e_v + b_v e~_v in C^(2B); kernel contains (1; -1)."""
    x_hat = np.asarray(x_hat, dtype=np.complex128)
    n = basis.n
    if x_hat.shape != (2 * n,):
        raise ValidationError(f"reduced vector must have length {2 * n}")
    return x_hat[:n][basis.tails] + x_hat[n:][basis.heads]


def _vertex_coefficients(f: np.ndarray, basis: VertexBasis) -> np.ndarray:
    """Coefficients of the span{e_v} component (the e_v are orthogonal,
    each of squared norm d)."""
    return basis.overlaps(f) / basis.d


def reduced_consistency(g: Graph, m: BondOperator, f, t: int) -> float:
    """Max deviation between psi(C_hat^t phi~(f)) and M^t f for f in span{e_v}.

    f may be given as n vertex coefficients or as a full 2B bond vector
    (which must lie in the span to tolerance).
    """
    t = integer(t, 0, "t")
    basis = vertex_basis(g.bond_index)
    f = np.asarray(f, dtype=np.complex128)
    if f.shape == (g.n,):
        coeffs = f
        f_vec = coeffs[basis.tails]
    elif f.shape == (2 * g.B,):
        coeffs = _vertex_coefficients(f, basis)
        f_vec = f
        resid = float(np.max(np.abs(f - coeffs[basis.tails])))
        tol = G2_MEMBERSHIP_TOL * max(1.0, float(np.max(np.abs(f))))
        check(resid, tol, ValidationError, "f outside span(e_v)")
    else:
        raise ValidationError("f must have length n (coefficients) or 2B (bond vector)")

    c_hat = reduced_matrix(g)
    lhs = _phi_tilde(coeffs)
    for _ in range(t):
        lhs = c_hat @ lhs
    lhs = psi(lhs, basis)

    rhs = f_vec
    for _ in range(t):
        rhs = m @ rhs
    return float(np.max(np.abs(lhs - rhs)))


def project_g1(x: np.ndarray, basis: VertexBasis) -> np.ndarray:
    """Orthogonal projection onto span{e_v}."""
    return _vertex_coefficients(x, basis)[basis.tails]


def project_g2(x: np.ndarray, basis: VertexBasis) -> np.ndarray:
    """Orthogonal projection onto the complement of span{e_v}."""
    return x - project_g1(x, basis)


def g2_contraction(m: BondOperator, g_vec: np.ndarray) -> float:
    """||M g|| / ||g|| for g orthogonal to span{e_v}; equals 1/(d-1)."""
    basis = vertex_basis(m.bond_index)
    g_vec = np.asarray(g_vec, dtype=np.complex128)
    norm = float(np.linalg.norm(g_vec))
    if norm == 0.0:
        raise ValidationError("zero vector")
    overlap = float(np.max(np.abs(basis.overlaps(g_vec)))) / np.sqrt(basis.d)
    check(overlap, G2_MEMBERSHIP_TOL * norm, ValidationError, "span(e_v) component")
    return float(np.linalg.norm(m @ g_vec)) / norm


def z_sequence(mu: float, d: int, T: int) -> np.ndarray:
    """z_0..z_T from z_t = (mu z_{t-1} - z_{t-2})/(d-1), z_0 = 0, z_1 = 1.

    When the closed form is well-conditioned (omega away from +-1) the two
    are compared at Z_TOL relative to the sequence scale; disagreement means
    a broken implementation and raises.
    """
    d = integer(d, 3, "d")
    T = integer(T, 0, "T")
    if not np.isfinite(mu):
        raise ParameterError(f"mu={mu} must be finite")
    z = np.zeros(T + 1)
    if T >= 1:
        z[1] = 1.0
    for t in range(2, T + 1):
        z[t] = (mu * z[t - 1] - z[t - 2]) / (d - 1)
    omega = mu / (2.0 * np.sqrt(d - 1.0))
    if abs(abs(omega) - 1.0) > 1e-3:
        closed = z_closed_form(mu, d, T)
        scale = max(1.0, float(np.max(np.abs(z))))
        worst = float(np.max(np.abs(z - closed)))
        check(worst, Z_TOL * scale, NumericalError, "z recurrence against closed form")
    return z


def z_closed_form(mu: float, d: int, T: int) -> np.ndarray:
    """Closed form of the recurrence via omega = mu / (2 sqrt(d-1)).

    Complex arithmetic throughout, valid for omega inside and outside
    [-1, 1]; undefined at omega = +-1 (degenerate root)."""
    d = integer(d, 3, "d")
    T = integer(T, 0, "T")
    omega = complex(mu / (2.0 * np.sqrt(d - 1.0)))
    disc = cmath.sqrt(omega * omega - 1.0)
    if abs(disc) < Z_DEGENERATE_TOL:
        raise ParameterError("closed form degenerates at |mu| = 2 sqrt(d-1)")
    root = np.sqrt(d - 1.0)
    lam_p = (omega + disc) / root
    lam_m = (omega - disc) / root
    ts = np.arange(T + 1)
    vals = (root / (2.0 * disc)) * (lam_p**ts - lam_m**ts)
    residue = imag_residue(vals)
    check(residue, Z_TOL, NumericalError, "z closed form imaginary part")
    return vals.real


def z_bound(d: int, beta: float, T: int) -> np.ndarray:
    """The scalar decay envelope t ((d-1-beta)/(d-1))^(t-1) for t = 0..T."""
    d = integer(d, 3, "d")
    if not np.isfinite(beta):
        raise ParameterError(f"beta={beta} must be finite")
    ts = np.arange(integer(T, 0, "T") + 1, dtype=np.float64)
    ratio = (d - 1.0 - beta) / (d - 1.0)
    return ts * ratio ** np.clip(ts - 1, 0, None)


def y_from_z(z: np.ndarray, d: int) -> np.ndarray:
    """y_t = -z_{t-1}/(d-1), the upper-block coefficient; y_0 = 0."""
    d = integer(d, 3, "d")
    y = np.zeros_like(z)
    y[1:] = -z[:-1] / (d - 1)
    return y


def walk_decay_constant(d: int, beta: float) -> float:
    """The explicit norm-decay constant 5(d-1)/(2(d-2-beta)): the one gate
    of the walk bound.

    Only defined for 0 < beta < d-2; at or above d-2 the derivation
    degenerates, and a gap of 0 (SpectralReport.walk_gap of a bipartite or
    disconnected graph) leaves a traceless observable that never decays.
    """
    d = integer(d, 3, "d")
    if not np.isfinite(beta):
        raise ParameterError(f"beta={beta} must be finite")
    if not 0.0 < beta < d - 2:
        raise WalkBoundUnavailableError(
            f"beta={beta} outside (0, d-2={d - 2}): explicit decay constant unavailable"
        )
    return 5.0 * (d - 1) / (2.0 * (d - 2 - beta))


@dataclass(frozen=True)
class DecayRow:
    t: int
    norm: float
    bound: float   # nan when no bound applies
    bound_kind: str  # "general", "vertex_span", or "none"

    @property
    def violated(self) -> bool:
        return not np.isnan(self.bound) and not self.norm <= self.bound + DECAY_SLACK


def decay_profile(m: BondOperator, f: Observable, T: int, report: SpectralReport) -> list[DecayRow]:
    """Norms ||M^t f|| for t = 1..T against the explicit decay envelope at
    the walk's gap beta = report.walk_gap, report being the spectral report
    of m's graph.

    Where walk_decay_constant gives K, the bound is K ||f|| t r^t with
    r = (d-1-beta)/(d-1), valid for any traceless f, and is read as
    K r ||f|| z_bound[t].  Otherwise the profile falls back to the span{e_v}
    envelope 2 ||f|| z_bound[t] when f lies in that span and its premise
    d-1-beta >= sqrt(d-1) holds, and reports norms only when either fails
    (a larger gap, as on tiny complete graphs, takes the envelope to 0 while
    the norms stay).
    """
    T = integer(T, 1, "T")
    if not f.traceless:
        raise ValidationError("decay bounds require a traceless observable")
    basis = vertex_basis(m.bond_index)
    d, beta = basis.d, report.walk_gap
    if (report.n, report.d) != (basis.n, d):
        raise ValidationError(f"spectral report for n={report.n}, d={report.d}, walk on n={basis.n}, d={d}")
    fvec = f.f
    fnorm = float(np.linalg.norm(fvec))
    try:  # K ||f|| t r^t = (K r ||f||) t r^(t-1)
        scale = walk_decay_constant(d, beta) * (d - 1.0 - beta) / (d - 1.0) * fnorm
        kind = "general"
    except WalkBoundUnavailableError:
        in_span = np.linalg.norm(project_g2(fvec, basis)) <= G2_MEMBERSHIP_TOL * max(1.0, fnorm)
        covered = in_span and d - 1.0 - beta >= np.sqrt(d - 1.0)
        kind, scale = ("vertex_span", 2.0 * fnorm) if covered else ("none", float("nan"))
    bounds = scale * z_bound(d, beta, T)

    rows = []
    x = fvec
    for t in range(1, T + 1):
        x = m @ x
        norm = float(np.linalg.norm(x))
        rows.append(DecayRow(t=t, norm=norm, bound=float(bounds[t]), bound_kind=kind))
    return rows
