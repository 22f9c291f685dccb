"""Exception types raised across the toolkit.

Domain violations derive from ValueError so callers can catch them with
standard idioms; numerical failures derive from ArithmeticError.
`count` checks the integer counts that entry points take.
"""

import operator


class InvalidOrder(ValueError):
    """Order parameter outside the admissible range."""


class NearSingularOrder(InvalidOrder):
    """Order too close to the delta-function limit for double precision."""


class NegativeArgument(ValueError):
    """Argument must be non-negative for this entry point."""


class InvalidArgument(ValueError):
    """Generic argument outside the admissible range."""


class InvalidMomentOrder(ValueError):
    """Moment order delta must exceed -1."""


class UnsupportedQ(ValueError):
    """Closed forms are available only for q in {2, 3} (ODE check adds 4)."""


class InvalidExponent(ValueError):
    """Power-law exponent outside the admissible range."""


class InvalidTime(ValueError):
    """Time argument must be finite and strictly positive."""


class DomainError(ValueError):
    """A front-end parameter violates the target operation's preconditions."""


class SpecMismatch(ValueError):
    """Equation parameters do not match the requested reduction."""


class NonUniformGrid(ValueError):
    """Grid operation requires a uniform grid starting at zero."""


class UnsupportedOrder(ValueError):
    """Grid scheme implemented only for orders in (0, 1)."""


class InvalidPair(ValueError):
    """Unknown transform-pair identifier."""


class InsufficientPaths(ValueError):
    """Ensemble statistics need at least 100 paths."""


class NonConvergence(ArithmeticError):
    """Series stopping rule not met within the term budget."""


class QuadratureFailure(ArithmeticError):
    """Adaptive quadrature exceeded its subdivision budget."""


class NotPositiveDefinite(ArithmeticError):
    """Covariance factorization failed (degenerate or duplicated times)."""


class CFLViolation(ArithmeticError):
    """Time-stepping update grew beyond the stability guard."""


class ResultOverflow(ArithmeticError):
    """A result lies outside the double range."""


def count(value, name: str, least: int) -> int:
    """value as an int; InvalidArgument naming the parameter name unless it
    is an integer (an int, a numpy integer: anything with __index__ but a
    bool) of at least least."""
    try:
        if isinstance(value, bool):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise InvalidArgument(
            f"{name} must be an integer, got {value!r}") from None
    if n < least:
        raise InvalidArgument(f"need {name} >= {least}, got {n}")
    return n
