"""Exception types shared across the package, and the int check that raises one."""


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


def _require_int(name: str, value) -> None:
    """Refuse a count that is not an ``int`` by exact type, so a ``bool``
    or a ``float`` is a domain error and never a raw ``TypeError``."""
    if type(value) is not int:
        raise BadParametersError(f"{name} must be an int, got {value!r}")
