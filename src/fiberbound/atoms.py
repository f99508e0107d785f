"""The countable atom universe and its finite atom sets.

Atoms are plain non-negative integers.  Finite atom sets are plain
Python sets and print as ``{a,b,c}`` with the atoms ascending.

:func:`_atoms_ok` is the one definition of an atom: an ``int`` by exact
type, so a ``bool`` is not one, and non-negative.  Every entry point that
takes atoms from a caller checks them through it.
"""

from __future__ import annotations

from typing import Iterable

from .errors import ParseError, _require_int


def _atoms_ok(xs: Iterable) -> bool:
    """Whether every item of ``xs`` is an atom: an ``int`` by exact type
    and non-negative."""
    for a in xs:
        if type(a) is not int or a < 0:
            return False
    return True


def fresh_atoms(count: int, avoid: Iterable[int]) -> tuple[int, ...]:
    """The ``count`` smallest atoms outside ``avoid``, ascending."""
    _require_int("count", count, 0)
    avoid = set(avoid)
    out = []
    a = 0
    while len(out) < count:
        if a not in avoid:
            out.append(a)
        a += 1
    return tuple(out)


def format_atom_set(atoms: Iterable[int]) -> str:
    return "{" + ",".join(str(a) for a in sorted(atoms)) + "}"


def parse_atom_set(text: str) -> frozenset[int]:
    """Parse ``{a,b,c}`` (or bare ``a,b,c``); the empty set is ``{}``.

    Each atom is spelled in ASCII decimal digits, leading zeros allowed,
    and the text is read as given: whitespace anywhere in it is refused.
    """
    if text.startswith("{") and not text.endswith("}"):
        raise ParseError(f"unbalanced braces in atom set: {text!r}")
    body = text[1:-1] if text.startswith("{") else text
    if not body:
        return frozenset()
    parts = body.split(",")
    try:
        atoms = [int(part) for part in parts]
    except ValueError:
        raise ParseError(f"bad atom in set: {text!r}") from None
    if any(a < 0 for a in atoms):
        raise ParseError(f"negative atom in set: {text!r}")
    # int() also reads a sign, underscores, spaces and other scripts' digits
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise ParseError(f"bad atom in set: {text!r}")
    if len(set(atoms)) != len(atoms):
        raise ParseError(f"duplicate atom in set: {text!r}")
    return frozenset(atoms)

