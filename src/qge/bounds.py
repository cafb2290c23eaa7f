"""Closed-form summation lemmas and the assembled explicit variance bound.

The headline inequality is assembled with explicit constants so every term
is machine-checkable:

    total = kappa^2/T                                    (diagonal term)
          + 2 kappa^2 K (d-1)(d-1-beta) / (T beta^2)     (walk term)
          + 2 kappa^2 (d-1)^T census / (B T^2 (d-2)^3)   (short-cycle term)

with K = 5(d-1)/(2(d-2-beta)).  `census` counts directed bonds on closed
non-backtracking walks of length <= 2T (twice the edge census).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._checks import integer
from .errors import ParameterError
from .walk import walk_decay_constant

__all__ = [
    "BoundInputs",
    "VarianceBound",
    "WormaldParams",
    "weighted_geo_sum",
    "weighted_geo_sum_inf",
    "fejer_geo_sum",
    "explicit_variance_bound",
    "choose_horizon",
    "wormald_probability",
]

# choose_horizon floors (3/10) log_{d-1} n plus this slack, so that a value
# that is an integer in exact arithmetic but rounds just below it (as
# 0.3 log 3^10 / log 3 = 3 - 4e-16 does) floors to that integer
_HORIZON_SLACK = 1e-9


def weighted_geo_sum(theta: float, T: int) -> float:
    """sum_{t=1..T} t theta^t in closed form."""
    if theta == 1.0:
        raise ParameterError("closed form undefined at theta = 1")
    T = integer(T, 1, "T")
    return (T * theta ** (T + 2) + theta - (T + 1) * theta ** (T + 1)) / (theta - 1.0) ** 2


def weighted_geo_sum_inf(theta: float) -> float:
    """sum_{t>=1} t theta^t = theta/(theta-1)^2 for |theta| < 1."""
    if abs(theta) >= 1.0:
        raise ParameterError("infinite sum needs |theta| < 1")
    return theta / (theta - 1.0) ** 2


def fejer_geo_sum(theta: float, T: int) -> float:
    """sum_{t=1..T} theta^t w_hat_T(t) = (theta/T^2)(T-1+theta^T-T theta)/(1-theta)^2."""
    if theta == 1.0:
        raise ParameterError("closed form undefined at theta = 1")
    T = integer(T, 1, "T")
    return (theta / T**2) * (T - 1 + theta**T - T * theta) / (1.0 - theta) ** 2


@dataclass(frozen=True)
class BoundInputs:
    """Everything the explicit variance bound depends on.

    census is the directed cycle-bond count at horizon 2T (twice the number
    of edges on closed non-backtracking walks of length <= 2T).
    """

    kappa: float
    d: int
    beta: float
    T: int
    census: int
    B: int

    def __post_init__(self):
        if not all(map(math.isfinite, vars(self).values())):
            raise ParameterError(f"bound inputs must be finite: {self}")
        if self.kappa <= 0.0:
            raise ParameterError("kappa must be positive")
        object.__setattr__(self, "d", integer(self.d, 3, "d"))
        if not (0.0 <= self.beta < self.d):
            raise ParameterError(f"beta={self.beta} must lie in [0, d)")
        object.__setattr__(self, "T", integer(self.T, 1, "T"))
        object.__setattr__(self, "census", integer(self.census, 0, "census"))
        object.__setattr__(self, "B", integer(self.B, 1, "B"))


@dataclass(frozen=True)
class VarianceBound:
    term_diag: float
    term_walk: float
    term_cycles: float
    total: float
    walk_constant: float
    provenance: dict


def explicit_variance_bound(bi: BoundInputs) -> VarianceBound:
    """Assemble the three-term variance bound with explicit constants.

    Raises WalkBoundUnavailableError where walk_decay_constant, the walk
    bound's one gate, does: beta = 0 or beta >= d-2.
    """
    kappa, d, beta, T, census, b = bi.kappa, bi.d, bi.beta, bi.T, bi.census, bi.B
    const = walk_decay_constant(d, beta)

    term_diag = kappa**2 / T
    term_walk = 2.0 * kappa**2 * const * (d - 1) * (d - 1 - beta) / (T * beta**2)
    term_cycles = 2.0 * kappa**2 * (d - 1) ** T * census / (b * T**2 * (d - 2) ** 3)
    total = term_diag + term_walk + term_cycles
    provenance = {
        "term_diag": "kappa^2 / T",
        "term_walk": "2 kappa^2 K (d-1)(d-1-beta) / (T beta^2), K = 5(d-1)/(2(d-2-beta))",
        "term_cycles": "2 kappa^2 (d-1)^T census / (B T^2 (d-2)^3), census over directed bonds",
    }
    return VarianceBound(
        term_diag=term_diag,
        term_walk=term_walk,
        term_cycles=term_cycles,
        total=total,
        walk_constant=const,
        provenance=provenance,
    )


def choose_horizon(n: int, d: int) -> int:
    """Window length T = max(1, floor((3/10) log_{d-1} n))."""
    n = integer(n, 2, "n")
    d = integer(d, 3, "d")
    raw = 0.3 * math.log(n) / math.log(d - 1)
    return max(1, math.floor(raw + _HORIZON_SLACK))


@dataclass(frozen=True)
class WormaldParams:
    """Inputs of the short-cycle probability evaluator.

    k is the cycle-length horizon (real, >= 3), S the edge count on short
    cycles, A the scale factor (> 1)."""

    n: int
    d: int
    k: float
    S: float
    A: float

    def __post_init__(self):
        if not all(map(math.isfinite, vars(self).values())):
            raise ParameterError(f"Wormald inputs must be finite: {self}")
        if self.k < 3.0:
            raise ParameterError("k must be >= 3")
        if self.A <= 1.0:
            raise ParameterError("A must exceed 1")
        object.__setattr__(self, "d", integer(self.d, 3, "d"))
        object.__setattr__(self, "n", integer(self.n, 1, "n"))
        if self.S < 0.0:
            raise ParameterError("S must be >= 0")


def wormald_probability(p: WormaldParams) -> float:
    """Upper bound exp(-5 (d-1)^k) (e/A)^(S/(4k)) on the probability that a
    random d-regular graph on n vertices has exactly S edges on cycles of
    length at most k.

    Evaluated in log space; underflows to 0.0 for large arguments, and is
    math.inf, the value of the formula, where the exponent exceeds the float
    range (A < e with a large S: a vacuous bound).
    """
    try:
        log_value = -5.0 * math.pow(p.d - 1, p.k) + (p.S / (4.0 * p.k)) * (1.0 - math.log(p.A))
    except OverflowError:  # (d-1)^k beyond the float range: the bound underflows
        return 0.0
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf
