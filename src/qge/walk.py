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
from dataclasses import dataclass

import numpy as np

from .bonds import BondIndex
from .errors import (
    IdentityFailureError,
    NumericalError,
    ParameterError,
    StochasticityError,
    ValidationError,
    WalkBoundUnavailableError,
)
from .evolution import Assembly, Observable
from .graphs import Graph

__all__ = [
    "VertexBasis",
    "WalkIdentityReport",
    "DecayRow",
    "classical_map",
    "vertex_basis",
    "walk_action_identities",
    "singular_profile",
    "reduced_matrix",
    "phi_tilde",
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


def classical_map(a: Assembly) -> np.ndarray:
    """M = |S|^2 entrywise; doubly stochastic or the assembly is corrupt."""
    m = np.abs(a.S) ** 2
    worst = max(
        float(np.max(np.abs(m.sum(axis=0) - 1.0))),
        float(np.max(np.abs(m.sum(axis=1) - 1.0))),
    )
    if not worst <= STOCHASTICITY_TOL:
        raise StochasticityError(f"row/column sums deviate by {worst:.3e}")
    return m


@dataclass(frozen=True)
class VertexBasis:
    """Outgoing (e) and incoming (e_tilde) bond indicator vectors per vertex.

    Rows are vertices; <e_i, e~_j> equals the connectivity matrix entry.
    """

    n: int
    d: int
    e: np.ndarray
    e_tilde: np.ndarray

    def __post_init__(self):
        self.e.setflags(write=False)
        self.e_tilde.setflags(write=False)

    @property
    def adjacency(self) -> np.ndarray:
        return (self.e @ self.e_tilde.T).astype(np.int64)


def vertex_basis(bi: BondIndex) -> VertexBasis:
    """Indicator vectors of each vertex's outgoing and incoming bonds."""
    two_b = bi.num_directed
    bonds = np.arange(two_b)
    e = np.zeros((bi.n, two_b))
    et = np.zeros((bi.n, two_b))
    e[bi.tails, bonds] = 1.0
    et[bi.heads, bonds] = 1.0
    return VertexBasis(n=bi.n, d=bi.out_bonds.shape[1], e=e, e_tilde=et)


@dataclass(frozen=True)
class WalkIdentityReport:
    """Maximum deviations of the two vertex-vector identities under M."""

    max_dev_outgoing: float   # M e_v vs e~_v
    max_dev_incoming: float   # M e~_v vs (sum_{w~v} e~_w - e_v)/(d-1)
    equi_transmitting: bool

    @property
    def max_dev(self) -> float:
        return max(self.max_dev_outgoing, self.max_dev_incoming)


def walk_action_identities(
    m: np.ndarray, basis: VertexBasis, strict: bool = False
) -> WalkIdentityReport:
    """Check M e_v = e~_v and M e~_v = (sum_{w~v} e~_w - e_v)/(d-1) for all v.

    The first identity holds for every unitary assembly (columns of each
    vertex matrix have unit norm); the second requires zero reflection, so
    its deviation is what flags a non-equi-transmitting input.  With
    strict=True a deviation beyond tolerance raises, for callers that have
    asserted an equi-transmitting assembly.
    """
    c = basis.adjacency.astype(np.float64)
    d = basis.d
    me = m @ basis.e.T           # columns: M e_v
    met = m @ basis.e_tilde.T    # columns: M e~_v
    dev_out = float(np.max(np.abs(me - basis.e_tilde.T)))
    expected = (c @ basis.e_tilde - basis.e) / (d - 1)
    dev_in = float(np.max(np.abs(met - expected.T)))
    report = WalkIdentityReport(
        max_dev_outgoing=dev_out,
        max_dev_incoming=dev_in,
        equi_transmitting=max(dev_out, dev_in) <= IDENTITY_TOL,
    )
    if strict and not report.equi_transmitting:
        raise IdentityFailureError(
            f"vertex-vector identities deviate by {report.max_dev:.3e} on an "
            "assembly asserted equi-transmitting; wiring bug or wrong sigma"
        )
    return report


def singular_profile(m: np.ndarray) -> np.ndarray:
    """Singular values of M in decreasing order, via the symmetric
    eigenproblem of M^T M."""
    evals = np.linalg.eigvalsh(m.T @ m)
    return np.sqrt(np.clip(evals, 0.0, None))[::-1]


def reduced_matrix(g: Graph) -> np.ndarray:
    """The 2n x 2n reduced operator [[0, -I/(d-1)], [I, C/(d-1)]]."""
    n, d = g.n, g.d
    c = g.adjacency.astype(np.float64)
    top = np.hstack([np.zeros((n, n)), -np.eye(n) / (d - 1)])
    bottom = np.hstack([np.eye(n), c / (d - 1)])
    return np.vstack([top, bottom])


def phi_tilde(coeffs: np.ndarray) -> np.ndarray:
    """Lift vertex coefficients a to the reduced space as (a; 0)."""
    a = np.asarray(coeffs, dtype=np.complex128)
    return np.concatenate([a, np.zeros_like(a)])


def psi(x_hat: np.ndarray, basis: VertexBasis) -> np.ndarray:
    """psi(a; b) = sum_v a_v e_v + b_v e~_v in C^(2B); kernel contains (1; -1)."""
    x_hat = np.asarray(x_hat, dtype=np.complex128)
    n = basis.n
    if x_hat.shape != (2 * n,):
        raise ValidationError(f"reduced vector must have length {2 * n}")
    return basis.e.T @ x_hat[:n] + basis.e_tilde.T @ x_hat[n:]


def _vertex_coefficients(f: np.ndarray, basis: VertexBasis) -> np.ndarray:
    """Coefficients of the span{e_v} component (the e_v are orthogonal,
    each of squared norm d)."""
    return (basis.e @ f) / basis.d


def _real_pair(x: np.ndarray) -> np.ndarray:
    """A complex vector as the real (len, 2) stack [x.real, x.imag].

    Iterating a real M on this stack never casts M to complex, and the
    stack's Frobenius norm is ||x||.
    """
    return np.stack([x.real, x.imag], axis=1)


def reduced_consistency(g: Graph, m: np.ndarray, f, t: int) -> float:
    """Max deviation between psi(C_hat^t phi~(f)) and M^t f for f in span{e_v}.

    f may be given as n vertex coefficients or as a full 2B bond vector
    (which must lie in the span to tolerance).
    """
    if t < 0:
        raise ParameterError("t must be >= 0")
    basis = vertex_basis(g.bond_index)
    f = np.asarray(f, dtype=np.complex128)
    if f.shape == (g.n,):
        coeffs = f
        f_vec = basis.e.T @ coeffs
    elif f.shape == (2 * g.B,):
        coeffs = _vertex_coefficients(f, basis)
        f_vec = f
        resid = float(np.max(np.abs(f - basis.e.T @ coeffs)))
        if not resid <= G2_MEMBERSHIP_TOL * max(1.0, float(np.max(np.abs(f)))):
            raise ValidationError(
                f"observable is outside span(e_v) by {resid:.3e}; "
                "reduced evolution only represents that span"
            )
    else:
        raise ValidationError("f must have length n (coefficients) or 2B (bond vector)")

    c_hat = reduced_matrix(g)
    x = phi_tilde(coeffs)
    lhs = x
    for _ in range(t):
        lhs = c_hat @ lhs
    lhs = psi(lhs, basis)

    rhs = _real_pair(f_vec)
    for _ in range(t):
        rhs = m @ rhs
    return float(np.max(np.abs(lhs - (rhs[:, 0] + 1j * rhs[:, 1]))))


def project_g1(x: np.ndarray, basis: VertexBasis) -> np.ndarray:
    """Orthogonal projection onto span{e_v}."""
    return basis.e.T @ ((basis.e @ x) / basis.d)


def project_g2(x: np.ndarray, basis: VertexBasis) -> np.ndarray:
    """Orthogonal projection onto the complement of span{e_v}."""
    return x - project_g1(x, basis)


def g2_contraction(m: np.ndarray, g_vec: np.ndarray, basis: VertexBasis) -> float:
    """||M g|| / ||g|| for g orthogonal to span{e_v}; equals 1/(d-1)."""
    g_vec = np.asarray(g_vec, dtype=np.complex128)
    norm = float(np.linalg.norm(g_vec))
    if norm == 0.0:
        raise ValidationError("zero vector")
    overlap = float(np.max(np.abs(basis.e @ g_vec))) / np.sqrt(basis.d)
    if not overlap <= G2_MEMBERSHIP_TOL * norm:
        raise ValidationError(
            f"vector has span(e_v) component {overlap:.3e}; not in the contraction space"
        )
    return float(np.linalg.norm(m @ g_vec)) / norm


def z_sequence(mu: float, d: int, T: int, check: bool = True) -> np.ndarray:
    """z_0..z_T from z_t = (mu z_{t-1} - z_{t-2})/(d-1), z_0 = 0, z_1 = 1.

    When the closed form is well-conditioned (omega away from +-1) the two
    are compared at 1e-9 relative to the sequence scale; disagreement means
    a broken implementation and raises.
    """
    if d < 3:
        raise ParameterError("d must be >= 3")
    if T < 0:
        raise ParameterError("T must be >= 0")
    z = np.zeros(T + 1)
    if T >= 1:
        z[1] = 1.0
    for t in range(2, T + 1):
        z[t] = (mu * z[t - 1] - z[t - 2]) / (d - 1)
    if check:
        omega = mu / (2.0 * np.sqrt(d - 1.0))
        if abs(abs(omega) - 1.0) > 1e-3:
            closed = z_closed_form(mu, d, T)
            scale = max(1.0, float(np.max(np.abs(z))))
            worst = float(np.max(np.abs(z - closed)))
            if not worst <= 1e-9 * scale:
                raise NumericalError(
                    f"recurrence and closed form disagree by {worst:.3e}"
                )
    return z


def z_closed_form(mu: float, d: int, T: int) -> np.ndarray:
    """Closed form of the recurrence via omega = mu / (2 sqrt(d-1)).

    Complex arithmetic throughout, valid for omega inside and outside
    [-1, 1]; undefined at omega = +-1 (degenerate root)."""
    if d < 3:
        raise ParameterError("d must be >= 3")
    omega = complex(mu / (2.0 * np.sqrt(d - 1.0)))
    disc = cmath.sqrt(omega * omega - 1.0)
    if abs(disc) < 1e-12:
        raise ParameterError("closed form degenerates at |mu| = 2 sqrt(d-1)")
    root = np.sqrt(d - 1.0)
    lam_p = (omega + disc) / root
    lam_m = (omega - disc) / root
    ts = np.arange(T + 1)
    vals = (root / (2.0 * disc)) * (lam_p**ts - lam_m**ts)
    worst = float(np.max(np.abs(vals.imag)))
    if not worst <= 1e-9 * max(1.0, float(np.max(np.abs(vals.real)))):
        raise NumericalError(f"closed form has imaginary residue {worst:.3e}")
    return vals.real


def z_bound(d: int, beta: float, T: int) -> np.ndarray:
    """The scalar decay envelope t ((d-1-beta)/(d-1))^(t-1) for t = 0..T."""
    ts = np.arange(T + 1, dtype=np.float64)
    ratio = (d - 1.0 - beta) / (d - 1.0)
    with np.errstate(divide="ignore"):
        powers = ratio ** np.clip(ts - 1, 0, None)
    return ts * powers


def y_from_z(z: np.ndarray, d: int) -> np.ndarray:
    """y_t = -z_{t-1}/(d-1), the upper-block coefficient; y_0 = 0."""
    y = np.zeros_like(z)
    y[1:] = -z[:-1] / (d - 1)
    return y


def walk_decay_constant(d: int, beta: float) -> float:
    """The explicit norm-decay constant 5(d-1)/(2(d-2-beta)).

    Only defined for beta < d-2; at or above that the derivation degenerates.
    """
    if beta >= d - 2:
        raise WalkBoundUnavailableError(
            f"beta={beta} >= d-2={d - 2}: explicit decay constant unavailable"
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
        return not np.isnan(self.bound) and self.norm > self.bound + 1e-12


def decay_profile(
    m: np.ndarray,
    f: Observable,
    T: int,
    beta: float,
    basis: VertexBasis,
) -> list[DecayRow]:
    """Norms ||M^t f|| for t = 1..T against the explicit decay envelope.

    For beta < d-2 the bound is K ||f|| t ((d-1-beta)/(d-1))^t with
    K = 5(d-1)/(2(d-2-beta)), valid for any traceless f.  Otherwise the
    profile falls back to the span{e_v} envelope 2 ||f|| t ((d-1-beta)/(d-1))^(t-1)
    when f lies in that span, and reports norms only when it does not.
    The envelope itself presumes d-1-beta >= sqrt(d-1); graphs with an even
    larger gap (tiny complete graphs) can exceed it, which the violation
    flag reports honestly.
    """
    if T < 1:
        raise ParameterError("T must be >= 1")
    if not f.traceless:
        raise ValidationError("decay bounds require a traceless observable")
    d = basis.d
    fvec = f.f
    fnorm = float(np.linalg.norm(fvec))
    ratio = (d - 1.0 - beta) / (d - 1.0)

    kind = "none"
    const = float("nan")
    if beta < d - 2:
        kind = "general"
        const = walk_decay_constant(d, beta)
    else:
        in_span = float(np.linalg.norm(project_g2(fvec, basis))) <= G2_MEMBERSHIP_TOL * max(
            1.0, fnorm
        )
        if in_span:
            kind = "vertex_span"

    rows = []
    x = _real_pair(fvec)
    for t in range(1, T + 1):
        x = m @ x
        norm = float(np.linalg.norm(x))
        if kind == "general":
            bound = const * fnorm * t * ratio**t
        elif kind == "vertex_span":
            bound = 2.0 * fnorm * t * ratio ** (t - 1)
        else:
            bound = float("nan")
        rows.append(DecayRow(t=t, norm=norm, bound=bound, bound_kind=kind))
    return rows
