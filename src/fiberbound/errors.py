"""Exception types shared across the package."""


class FiberboundError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(FiberboundError):
    """Text does not match the cycle or partition grammar."""


class BudgetExceededError(FiberboundError):
    """A run, enumeration or count would pass a fixed cap or the 2**63 guard."""


class BadParametersError(FiberboundError):
    """Parameters violate a structural precondition."""


class NotInImageError(FiberboundError):
    """Value is not in the image of the injection being decoded."""


class InconsistentOracleError(FiberboundError):
    """An oracle returned two different outputs for the same input."""


class OracleCodomainError(FiberboundError):
    """An oracle returned a value outside its declared codomain."""
