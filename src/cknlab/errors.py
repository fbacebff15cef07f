"""Exception hierarchy for cknlab.

Every failure mode that callers are expected to branch on gets its own
class.  The CLI maps these onto process exit codes:

* :class:`PreconditionError` (and subclasses)  -> exit code 2
* :class:`NonConvergenceError`                 -> exit code 3
* :class:`ConsistencyError` (and subclasses)   -> exit code 4
"""

from __future__ import annotations


class CknLabError(Exception):
    """Base class for all cknlab errors."""


class PreconditionError(CknLabError, ValueError):
    """An argument violates a documented mathematical precondition."""


class DomainError(PreconditionError):
    """A scalar argument is outside the domain of the requested function."""


class UnsupportedRegimeError(PreconditionError):
    """No closed form is known for the requested parameter regime.

    The message names the violated condition so callers can report it.
    """


class RangeOverflowError(CknLabError, OverflowError):
    """The exact result exceeds double-precision range, or a nonzero
    product underflows to zero in it.

    Raised instead of silently returning ``inf``.
    """


class DivergentIntegralError(PreconditionError):
    """A requested moment integral diverges (weight exponent <= -1 at 0,
    or non-decaying tail)."""


class ZeroDenominatorError(PreconditionError):
    """A quotient's denominator energy is zero (or numerically so)."""


class NonConvergenceError(CknLabError, RuntimeError):
    """Quadrature refinement hit its level cap before the tolerance.

    Carries the partial result so diagnostics can report how far the
    refinement got.
    """

    def __init__(self, message: str, value: float = float("nan"),
                 err_est: float = float("inf")):
        super().__init__(message)
        self.value = value
        self.err_est = err_est


class NonFiniteSampleError(NonConvergenceError):
    """The integrand returned nan/inf at a quadrature node that carries
    non-negligible weight.  The message names the node."""


class ConsistencyError(CknLabError, RuntimeError):
    """Two independent computation routes disagreed beyond tolerance."""


class VerificationMismatchError(ConsistencyError):
    """A Gauss-Laguerre energy of an estimate's argmin, or its quotient,
    disagreed with the double-exponential quadrature witness."""
