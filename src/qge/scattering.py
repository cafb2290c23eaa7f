"""Vertex scattering matrices: Kirchhoff and equi-transmitting constructions.

Equi-transmitting matrices (zero diagonal, off-diagonal moduli all equal to
1/sqrt(d-1), unitary) are built from skew-Hadamard matrices as
sigma = (H - I)/sqrt(d-1).  Skew-Hadamard matrices are constructed exactly
in integer arithmetic by the Paley quadratic-residue method (order q+1 for
primes q = 3 mod 4) and order doubling; this covers d in {2, 4, 8, 12, 16,
24, 32, ...}, every degree used by the experiment harness.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from ._checks import check, integer, unitarity_deviation
from .bonds import _owned
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
EQUI_TRANSMITTING_TOL = 1e-9  # each deviation is_equi_transmitting measures


@dataclass(frozen=True, eq=False)
class VertexScattering:
    """A d x d unitary vertex matrix."""

    entries: np.ndarray

    def __post_init__(self):
        m = _owned(self.entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ParameterError("vertex scattering matrix must be square")
        check(unitarity_deviation(m), UNITARITY_TOL, NumericalError, "vertex matrix unitarity")
        object.__setattr__(self, "entries", m)

    @property
    def d(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class SkewHadamard:
    """Integer matrix with entries +-1, H + H^T = 2I and H H^T = mI exactly."""

    entries: np.ndarray

    def __post_init__(self):
        h = _owned(self.entries)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.dtype.kind != "i":
            raise ParameterError("skew-Hadamard entries must form a square integer matrix")
        if not np.all(np.abs(h) == 1):
            raise NumericalError("skew-Hadamard entries must be +-1")
        if not np.array_equal(h + h.T, 2 * np.eye(len(h), dtype=h.dtype)):
            raise NumericalError("H + H^T = 2I violated")
        if not np.array_equal(h @ h.T, len(h) * np.eye(len(h), dtype=h.dtype)):
            raise NumericalError("H H^T = mI violated")
        object.__setattr__(self, "entries", h)


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    for p in range(2, int(q**0.5) + 1):
        if q % p == 0:
            return False
    return True


def skew_hadamard(m: int) -> SkewHadamard:
    """Exact skew-Hadamard matrix of order m: the one of order 2, the Paley
    matrix of order q+1 for a prime q = 3 mod 4, or the double of one of
    order m/2."""
    if m == 2:
        return SkewHadamard(np.array([[1, 1], [-1, 1]], dtype=np.int64))
    if m > 2 and m % 4 == 0 and _is_prime(m - 1):
        return SkewHadamard(_paley(m - 1))
    if m > 2 and m % 2 == 0:
        with contextlib.suppress(HadamardOrderError):
            h = skew_hadamard(m // 2).entries
            return SkewHadamard(np.block([[h, h], [-h.T, h.T]]))
    raise HadamardOrderError(
        f"no skew-Hadamard construction for order {m}; supported orders are "
        "2, q+1 for primes q = 3 mod 4, and doubles thereof"
    )


def _paley(q: int) -> np.ndarray:
    """Order q+1 skew-Hadamard from quadratic residues mod q (q = 3 mod 4)."""
    chi = np.full(q, -1, dtype=np.int64)  # the quadratic character mod q
    chi[0] = 0
    chi[[(x * x) % q for x in range(1, q)]] = 1
    i = np.arange(q)
    s = chi[(i - i[:, None]) % q]  # s[i, j] = chi(j - i), skew since chi(-1) = -1
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
    d = integer(d, 2, "degree d")
    entries = np.full((d, d), 2.0 / d) - np.eye(d)
    return VertexScattering(entries=entries.astype(np.complex128))


def equi_transmitting_sigma(d: int) -> VertexScattering:
    """Zero-diagonal unitary with all off-diagonal moduli 1/sqrt(d-1).

    Built as (H - I)/sqrt(d-1) from a skew-Hadamard H of order d.  No such
    matrix exists for d = 3; other unsupported degrees fail with the
    construction error of skew_hadamard.
    """
    d = integer(d, 2, "degree d")
    if d == 3:
        raise NoEquiTransmittingMatrixError(
            "no 3x3 equi-transmitting matrix exists for any choice of phases"
        )
    entries = (skew_hadamard(d).entries - np.eye(d)) / np.sqrt(d - 1)
    return VertexScattering(entries=entries.astype(np.complex128))


def is_equi_transmitting(m: np.ndarray) -> bool:
    """True iff m is unitary within EQUI_TRANSMITTING_TOL, has |diagonal|
    below it, and every off-diagonal modulus within it of 1/sqrt(d-1)."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    d = m.shape[0]
    if d < 2:
        return False
    off = np.abs(m[~np.eye(d, dtype=bool)])
    return bool(
        unitarity_deviation(m) < EQUI_TRANSMITTING_TOL
        and np.all(np.abs(np.diag(m)) < EQUI_TRANSMITTING_TOL)
        and np.all(np.abs(off - 1.0 / np.sqrt(d - 1)) < EQUI_TRANSMITTING_TOL)
    )
