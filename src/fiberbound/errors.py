"""Exception types shared across the package, and the count check that raises one.

:func:`_require_int` is the one check of a count: an ``int`` by exact
type, so a ``bool`` or a ``float`` is refused, and at least ``least``
when a bound is given.  A value under the bound reads
``"{name} must be non-negative"`` when ``least`` is 0 and
``"{name} must be at least {least}"`` otherwise.
"""


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


def _require_int(name: str, value, least=None) -> None:
    """Refuse a count that is not an ``int`` by exact type, so a ``bool``
    or a ``float`` is a domain error and never a raw ``TypeError``, and,
    when ``least`` is given, one below it: "must be non-negative" for a
    ``least`` of 0 and "must be at least {least}" for any other."""
    if type(value) is not int:
        raise BadParametersError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise BadParametersError(f"{name} must be {bound}")
