"""Exception hierarchy shared by all qge modules.

The three branches map onto the CLI exit codes: ParseError -> 2,
ValidationError -> 3, NumericalError -> 4 (as do a LAPACK LinAlgError and
a MemoryError).
"""


class QgeError(Exception):
    """Base class for all package errors."""


class ParseError(QgeError):
    """Malformed input text: graph files, length files, config files."""


class ValidationError(QgeError):
    """Input violates a documented precondition or invariant."""


class ParameterError(ValidationError):
    """Scalar argument out of range (bad n/d parity, T < 1, theta = 1, ...)."""


class HadamardOrderError(ValidationError):
    """Requested skew-Hadamard order is outside the constructible set."""


class NoEquiTransmittingMatrixError(ValidationError):
    """No equi-transmitting matrix exists for the requested degree (d = 3)."""


class WorkBudgetError(ValidationError):
    """A computation would exceed its work budget: a census search its
    configured budget, or the k-samples of a variance estimate the
    machine's physical memory."""


class AssemblyError(ValidationError):
    """Vertex matrices do not fit the graph (size or degree mismatch)."""


class WalkBoundUnavailableError(ValidationError):
    """beta outside (0, d - 2): the walk-decay constant degenerates, or the walk has no gap."""


class NumericalError(QgeError):
    """A numerically-computed quantity violated its hard tolerance."""


class SamplingError(NumericalError):
    """Rejection sampling exhausted its attempt budget."""


class StochasticityError(NumericalError):
    """A walk matrix failed its doubly-stochastic check (corrupt assembly)."""
