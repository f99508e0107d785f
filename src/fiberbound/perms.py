"""Finitely supported permutations of the atom universe.

A :class:`FinPerm` stores exactly its moved points as a finite bijection,
so structural equality coincides with equality as functions.  Two stored
invariants matter everywhere downstream: no stored point is fixed, and the
moved set can never have size one.

The cycle-notation grammar is bit-exact::

    Perm  := "()" | Cycle+
    Cycle := "(" atom (";" atom)+ ")"

with atoms decimal and the canonical form produced by :meth:`to_cycles`:
each cycle rotated so its least atom comes first, cycles sorted by first
atom, and the identity printing as ``()``.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

from .atoms import SetSpec
from .errors import DuplicatePointError, ParseError, SinglePointError

_CYCLE_RE = re.compile(r"\(([0-9;]*)\)")
_PERM_RE = re.compile(r"^(\([0-9;]*\))+$")


class FinPerm:
    """A permutation of the atom universe moving finitely many points."""

    __slots__ = ("_map", "_hash")

    def __init__(self, mapping: Mapping[int, int]):
        cleaned = {a: b for a, b in mapping.items() if a != b}
        if len(cleaned) == 1:
            raise SinglePointError("a permutation cannot move exactly one point")
        if set(cleaned.values()) != set(cleaned.keys()):
            raise ValueError("mapping is not a bijection of its moved points")
        if any(a < 0 for a in cleaned):
            raise ValueError("atoms must be non-negative")
        self._map = cleaned
        self._hash = hash(frozenset(cleaned.items()))

    @classmethod
    def identity(cls) -> "FinPerm":
        return cls({})

    @classmethod
    def cycle(cls, points: Iterable[int]) -> "FinPerm":
        """The cyclic permutation sending each listed atom to the next.

        The empty sequence yields the identity; a single point is rejected.
        """
        pts = list(points)
        if len(set(pts)) != len(pts):
            raise DuplicatePointError(f"repeated atom in cycle {pts}")
        if len(pts) == 1:
            raise SinglePointError("cycle of length one is not a permutation move")
        if not pts:
            return cls({})
        return cls({pts[i]: pts[(i + 1) % len(pts)] for i in range(len(pts))})

    @classmethod
    def parse(cls, text: str) -> "FinPerm":
        """Parse cycle notation; inverse of :meth:`to_cycles` on canonical text."""
        if text == "()":
            return cls({})
        if not _PERM_RE.match(text):
            raise ParseError(f"not cycle notation: {text!r}")
        mapping: dict[int, int] = {}
        seen: set[int] = set()
        for m in _CYCLE_RE.finditer(text):
            body = m.group(1)
            parts = body.split(";")
            if len(parts) < 2 or any(not p.isdigit() for p in parts):
                raise ParseError(f"bad cycle {m.group(0)!r} in {text!r}")
            pts = [int(p) for p in parts]
            if len(set(pts)) != len(pts) or seen & set(pts):
                raise ParseError(f"atom repeated across cycles in {text!r}")
            seen.update(pts)
            for i, a in enumerate(pts):
                mapping[a] = pts[(i + 1) % len(pts)]
        return cls(mapping)

    @property
    def moved(self) -> frozenset[int]:
        """The set of points this permutation moves."""
        return frozenset(self._map)

    @property
    def moved_map(self) -> dict[int, int]:
        return dict(self._map)

    def __call__(self, atom: int) -> int:
        return self._map.get(atom, atom)

    def after(self, other: "FinPerm") -> "FinPerm":
        """Composition applying ``other`` first, then ``self``."""
        support = set(self._map) | set(other._map)
        return FinPerm({a: self(other(a)) for a in support})

    def inverse(self) -> "FinPerm":
        return FinPerm({b: a for a, b in self._map.items()})

    def is_identity(self) -> bool:
        return not self._map

    def deflate(self, region: SetSpec) -> "FinPerm":
        """Push this permutation onto ``region``, identity elsewhere.

        Each point of the region is sent to the first point of its orbit
        that lands back inside the region.  Well defined because every
        orbit is finite and eventually returns to its start; points whose
        orbit meets the region only in themselves become fixed.
        """
        out: dict[int, int] = {}
        for x in self._map:
            if x not in region:
                continue
            y = self(x)
            while y not in region:
                y = self(y)
            out[x] = y
        return FinPerm(out)

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its least atom, sorted."""
        seen: set[int] = set()
        out = []
        for start in sorted(self._map):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self._map[start]
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self._map[nxt]
            out.append(tuple(cyc))
        return out

    def to_cycles(self) -> str:
        if not self._map:
            return "()"
        return "".join("(" + ";".join(str(a) for a in cyc) + ")" for cyc in self.cycles())

    def __str__(self) -> str:
        return self.to_cycles()

    def __repr__(self) -> str:
        return f"FinPerm.parse({self.to_cycles()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinPerm):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        return self._hash
