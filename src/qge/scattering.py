"""Vertex scattering matrices: Kirchhoff and equi-transmitting constructions.

Equi-transmitting matrices (zero diagonal, off-diagonal moduli all equal to
1/sqrt(d-1), unitary) are built from skew-Hadamard matrices as
sigma = (H - I)/sqrt(d-1).  Skew-Hadamard matrices are constructed exactly
in integer arithmetic by the Paley quadratic-residue method (order q+1 for
primes q = 3 mod 4) and order doubling; this covers d in {2, 4, 8, 12, 16,
24, 32, ...}, every degree used by the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    HadamardOrderError,
    NoEquiTransmittingMatrixError,
    NumericalError,
    ParameterError,
)

__all__ = [
    "VertexScattering",
    "SkewHadamard",
    "kirchhoff_sigma",
    "skew_hadamard",
    "equi_transmitting_sigma",
    "is_equi_transmitting",
]

UNITARITY_TOL = 1e-10


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


@dataclass(frozen=True)
class VertexScattering:
    """A d x d unitary vertex matrix together with the rule that built it."""

    kind: str
    entries: np.ndarray

    def __post_init__(self):
        m = self.entries
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ParameterError("vertex scattering matrix must be square")
        dev = _max_abs(m @ m.conj().T - np.eye(m.shape[0]))
        if not dev < UNITARITY_TOL:
            raise NumericalError(f"vertex matrix not unitary (deviation {dev:.3e})")
        self.entries.setflags(write=False)

    @property
    def d(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SkewHadamard:
    """Integer matrix with entries +-1, H + H^T = 2I and H H^T = mI exactly."""

    m: int
    entries: np.ndarray

    def __post_init__(self):
        h = self.entries
        if h.dtype.kind != "i":
            raise ParameterError("skew-Hadamard entries must be integers")
        if not np.all(np.abs(h) == 1):
            raise NumericalError("skew-Hadamard entries must be +-1")
        if not np.array_equal(h + h.T, 2 * np.eye(self.m, dtype=h.dtype)):
            raise NumericalError("H + H^T = 2I violated")
        if not np.array_equal(h @ h.T, self.m * np.eye(self.m, dtype=h.dtype)):
            raise NumericalError("H H^T = mI violated")
        self.entries.setflags(write=False)


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    for p in range(2, int(q**0.5) + 1):
        if q % p == 0:
            return False
    return True


def supported_hadamard_order(m: int) -> bool:
    """Orders reachable by Paley (q = m-1 prime, q = 3 mod 4) plus doubling."""
    if m == 2:
        return True
    if m < 2 or m % 2 != 0:
        return False
    q = m - 1
    if _is_prime(q) and q % 4 == 3:
        return True
    return m % 2 == 0 and supported_hadamard_order(m // 2)


def skew_hadamard(m: int) -> SkewHadamard:
    """Exact skew-Hadamard matrix of order m (Paley + doubling)."""
    if m == 2:
        return SkewHadamard(m=2, entries=np.array([[1, 1], [-1, 1]], dtype=np.int64))
    if m < 2 or m % 2 != 0:
        raise HadamardOrderError(
            f"no skew-Hadamard construction for order {m}; supported orders are "
            "2, q+1 for primes q = 3 mod 4, and doubles thereof"
        )
    q = m - 1
    if _is_prime(q) and q % 4 == 3:
        return SkewHadamard(m=m, entries=_paley(q))
    if supported_hadamard_order(m // 2):
        h = skew_hadamard(m // 2).entries
        doubled = np.block([[h, h], [-h.T, h.T]])
        return SkewHadamard(m=m, entries=doubled)
    raise HadamardOrderError(
        f"no skew-Hadamard construction for order {m}; supported orders are "
        "2, q+1 for primes q = 3 mod 4, and doubles thereof"
    )


def _paley(q: int) -> np.ndarray:
    """Order q+1 skew-Hadamard from quadratic residues mod q (q = 3 mod 4)."""
    residues = {(x * x) % q for x in range(1, q)}
    chi = np.zeros(q, dtype=np.int64)
    for a in range(1, q):
        chi[a] = 1 if a in residues else -1
    s = np.empty((q, q), dtype=np.int64)  # s[i,j] = chi(j - i), skew since chi(-1) = -1
    for i in range(q):
        for j in range(q):
            s[i, j] = chi[(j - i) % q]
    h = np.empty((q + 1, q + 1), dtype=np.int64)
    h[0, 0] = 1
    h[0, 1:] = 1
    h[1:, 0] = -1
    h[1:, 1:] = s + np.eye(q, dtype=np.int64)
    return h


def kirchhoff_sigma(d: int) -> VertexScattering:
    """The standard-coupling vertex matrix: entries 2/d - delta_ij.

    Real, symmetric, and an involution (sigma^2 = I).
    """
    if d < 2:
        raise ParameterError(f"degree d={d} must be >= 2")
    entries = np.full((d, d), 2.0 / d) - np.eye(d)
    return VertexScattering(kind=f"kirchhoff[d={d}]", entries=entries.astype(np.complex128))


def equi_transmitting_sigma(d: int) -> VertexScattering:
    """Zero-diagonal unitary with all off-diagonal moduli 1/sqrt(d-1).

    Built as (H - I)/sqrt(d-1) from a skew-Hadamard H of order d.  No such
    matrix exists for d = 3; other unsupported degrees fail with the
    construction error of skew_hadamard.
    """
    if d == 3:
        raise NoEquiTransmittingMatrixError(
            "no 3x3 equi-transmitting matrix exists for any choice of phases"
        )
    if d < 2:
        raise ParameterError(f"degree d={d} must be >= 2")
    h = skew_hadamard(d).entries.astype(np.float64)
    entries = (h - np.eye(d)) / np.sqrt(d - 1)
    return VertexScattering(
        kind=f"equi_transmitting[d={d}]", entries=entries.astype(np.complex128)
    )


def is_equi_transmitting(m: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff m is unitary within tol, has |diagonal| < tol, and every
    off-diagonal modulus within tol of 1/sqrt(d-1)."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    d = m.shape[0]
    if d < 2:
        return False
    if _max_abs(m @ m.conj().T - np.eye(d)) >= tol:
        return False
    if _max_abs(np.diag(m)) >= tol:
        return False
    off = np.abs(m[~np.eye(d, dtype=bool)])
    return bool(np.all(np.abs(off - 1.0 / np.sqrt(d - 1)) < tol))
