"""The one home of invariant checks: `check`, the fail-closed comparison every
raising tolerance check goes through, the deviation measures they share, and
`integer`, the one check of an integer parameter (a count, degree, horizon or
seed).  Each tolerance is a named constant in the module that checks it."""

import math

import numpy as np

from .errors import ParameterError


def check(dev: float, tol: float, exc: type[Exception], what: str) -> None:
    """Raise exc unless dev < tol, so a NaN deviation fails."""
    if not dev < tol:
        raise exc(f"{what}: deviation {dev:.3e} not below tolerance {tol:.3e}")


def integer(value, least: int, what: str) -> int:
    """value as an int when it is an int, a numpy integer or an integral finite
    float of at least `least`; ParameterError for anything else, bools included."""
    if isinstance(value, (float, np.floating)):
        whole = float(value).is_integer()  # False for nan and inf
    else:
        whole = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (whole and value >= least):
        bound = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise ParameterError(f"{what}={value} must be {bound}")
    return int(value)


def unitarity_deviation(m: np.ndarray) -> float:
    """max |m m^H - I| over the last two axes, for one matrix or a stack."""
    gram = m @ np.swapaxes(m.conj(), -1, -2)
    return float(np.max(np.abs(gram - np.eye(m.shape[-1])), initial=0.0))


def stochasticity_deviation(w: np.ndarray) -> float:
    """Worst |row sum - 1| or |column sum - 1| over the last two axes."""
    sums = np.concatenate((w.sum(axis=-1), w.sum(axis=-2)), axis=None)
    return float(np.max(np.abs(sums - 1.0)))


def imag_residue(z) -> float:
    """max |Im z| / max(1, max |Re z|); infinite unless z is finite."""
    z = np.asarray(z)
    if not np.all(np.isfinite(z)):
        return math.inf
    return float(np.max(np.abs(z.imag))) / max(1.0, float(np.max(np.abs(z.real))))
