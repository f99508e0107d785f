"""The countable atom universe and finite/cofinite region descriptions.

Atoms are plain non-negative integers.  Finite atom sets print as
``{a,b,c}`` with the atoms ascending.  A :class:`SetSpec` describes either a
finite region or the complement of a finite region, which is enough to
decide membership for every region the engines ever restrict to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import BadParametersError, ParseError


def fresh_atoms(count: int, avoid: Iterable[int]) -> tuple[int, ...]:
    """The ``count`` smallest atoms outside ``avoid``, ascending."""
    if count < 0:
        raise BadParametersError("count must be non-negative")
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


@dataclass(frozen=True)
class SetSpec:
    """A finite set of atoms or the complement of one.

    ``complement=False`` means the region is exactly ``atoms``;
    ``complement=True`` means the region is the whole universe minus
    ``atoms``.  Membership is decidable either way.
    """

    atoms: frozenset[int]
    complement: bool

    @classmethod
    def finite(cls, atoms: Iterable[int]) -> "SetSpec":
        return cls(frozenset(atoms), False)

    @classmethod
    def cofinite(cls, excluded: Iterable[int]) -> "SetSpec":
        """The universe minus ``excluded``."""
        return cls(frozenset(excluded), True)

    def __contains__(self, atom: int) -> bool:
        return (atom in self.atoms) != self.complement
