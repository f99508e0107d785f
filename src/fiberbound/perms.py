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

A permutation is validated once, where it enters: the public constructor,
:meth:`FinPerm.cycle` and :meth:`FinPerm.parse` check that the map is a
bijection of non-negative int atoms that never moves exactly one point.
Operations on valid permutations wrap their results with the unchecked
:meth:`FinPerm._of`, each for a reason that needs no re-check:

- :meth:`~FinPerm.cycle`, once it has checked its points: distinct
  non-negative int atoms, never exactly one, each sent to the next, are a
  fixed-point-free bijection.
- :meth:`~FinPerm.inverse`: the inverse of a fixed-point-free bijection is one.
- :meth:`~FinPerm.conjugate`: renaming by a bijection keeps a map injective
  and keeps ``a != b``.
- :meth:`~FinPerm.after`: a composition of bijections is a bijection; it
  drops fixed points as it goes, and no bijection moves exactly one point.
- :meth:`~FinPerm.deflate`: the first-return map is a bijection of the
  moved points outside ``off``; it drops fixed points as it goes.
- ``inject.encode``: the image is an injective rename of a bijection,
  joined on disjoint atoms with a cycle.
- ``inject.level_swap``: pairs of the level's swap, an involution without
  fixed points, closed under it, so disjoint transpositions.
- ``inject.decode``: the reconstruction is ``t`` off a cycle of ``t``,
  conjugated by the level's swap, an involution made of disjoint
  transpositions.
- ``fraenkel.perms_moving_exactly``: derangements of a checked pool of
  distinct non-negative int atoms.  The text it keeps on each is
  canonical: the subset it renames ``range(count)`` onto ascends, so
  renaming the canonical text of the derangement over the positions
  keeps which atom is least in each cycle and the order of the cycles.
- ``fraenkel.classify``'s transpositions: each swaps an atom of ``s`` or
  ``t`` with an atom that ``fresh_atoms`` picked outside a set holding it,
  so two distinct non-negative int atoms.
- ``fraenkel._verify``'s transposition for a missing-moved sample: it swaps
  the verdict's atom, checked to be an int atom of ``s``, with the one atom
  the sample adds to ``s``, checked to be a non-negative int outside it.
- ``perm_engine.assemble``: a union of permutations with disjoint supports.
- ``perm_engine``'s seeds and fallback transpositions: each swaps two
  distinct atoms at or above the engine's base, which ``WitnessEngine``
  checks once as a non-negative int before it builds any seed.

A permutation's hash and its canonical text are each computed on first use
and kept on it; the one exception is ``fraenkel.perms_moving_exactly``,
which sets each permutation's text as it builds it.  That is safe because
a permutation never changes once it is built: no method writes to its map,
and every caller of :meth:`FinPerm._of` hands its dict over and keeps no
reference to it.  It pays where one value is asked about again and again:
a pool oracle keys on a witness's text, and the engines re-ask about every
recorded witness on each audit.
"""

from __future__ import annotations

import re
from typing import Container, Iterable, Mapping

from .atoms import _atoms_ok
from .errors import BadParametersError, ParseError

_CYCLE_RE = re.compile(r"\(([0-9;]*)\)")
_PERM_RE = re.compile(r"^(\([0-9;]*\))+$")


class FinPerm:
    """A permutation of the atom universe moving finitely many points.

    The hash and the canonical text are each computed on first use and
    kept, except that ``fraenkel.perms_moving_exactly`` sets the text of
    each permutation it yields: most permutations are intermediates that
    are never hashed or written, and a witness is both on every audit.
    Keeping them is safe because no method mutates ``_map`` and
    :meth:`_of`'s callers hand their dict over.
    """

    __slots__ = ("_map", "_hash", "_text")

    def __init__(self, mapping: Mapping[int, int]):
        cleaned = {a: b for a, b in mapping.items() if a != b}
        if len(cleaned) == 1:
            raise BadParametersError("a permutation cannot move exactly one point")
        if cleaned.keys() != set(cleaned.values()):
            raise BadParametersError("mapping is not a bijection of its moved points")
        if not (_atoms_ok(cleaned) and _atoms_ok(cleaned.values())):
            raise BadParametersError("atoms must be non-negative integers")
        self._map = cleaned
        self._hash = None
        self._text = None

    @classmethod
    def _of(cls, mapping: dict[int, int]) -> "FinPerm":
        """Wrap ``mapping``, already a fixed-point-free bijection of
        non-negative int atoms, without checking it.

        The caller hands the dict over and must not keep or mutate it.
        """
        perm = object.__new__(cls)
        perm._map = mapping
        perm._hash = None
        perm._text = None
        return perm

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
            raise BadParametersError(f"repeated atom in cycle {pts}")
        if len(pts) == 1:
            raise BadParametersError("cycle of length one is not a permutation move")
        if not _atoms_ok(pts):
            raise BadParametersError("atoms must be non-negative integers")
        return cls._of(dict(zip(pts, pts[1:] + pts[:1])))

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
            try:
                pts = [int(p) for p in parts]
            except ValueError:
                # an atom past Python's limit on digits in an int string
                raise ParseError(f"bad atom in cycle notation: {text!r}") from None
            atoms = set(pts)
            if len(atoms) != len(pts):
                raise ParseError(f"repeated atom in cycle {m.group(0)!r} in {text!r}")
            if not seen.isdisjoint(atoms):
                raise ParseError(f"atom repeated across cycles in {text!r}")
            seen.update(atoms)
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
        outer, inner = self._map, other._map
        out = {a: c for a, b in inner.items() if (c := outer.get(b, b)) != a}
        for a, b in outer.items():
            if a not in inner:
                out[a] = b
        return FinPerm._of(out)

    def inverse(self) -> "FinPerm":
        return FinPerm._of({b: a for a, b in self._map.items()})

    def conjugate(self, g: "FinPerm") -> "FinPerm":
        """``g∘self∘g⁻¹``: this permutation with every atom renamed by ``g``."""
        rename = g._map.get
        return FinPerm._of({rename(a, a): rename(b, b) for a, b in self._map.items()})

    def deflate(self, off: Container[int]) -> "FinPerm":
        """Push this permutation off the atoms ``off``, identity on them.

        Each moved point outside ``off`` is sent to the first point of its
        orbit that lands back outside ``off``, and each moved point in
        ``off`` becomes fixed.  Well defined because every orbit is finite
        and eventually returns to its start; a point outside ``off`` whose
        orbit meets no other point outside it becomes fixed too.  ``off``
        is read only through ``in``, so any set of atoms will do.  The two
        usual regions are written:

        - onto a finite region ``R``: ``s.deflate(s.moved - R)``;
        - onto the complement of a finite set ``E``: ``s.deflate(E)``.
        """
        mapping = self._map
        out: dict[int, int] = {}
        for x, y in mapping.items():
            if x in off:
                continue
            # the orbit of a moved point is moved, so it stays in the map
            while y in off:
                y = mapping[y]
            if y != x:
                out[x] = y
        return FinPerm._of(out)

    def to_cycles(self) -> str:
        """The canonical cycle text, each cycle written as it is walked.

        The walk runs on the first call, and its text is kept.
        """
        text = self._text
        if text is not None:
            return text
        mapping = self._map
        seen: set[int] = set()
        parts: list[str] = []
        for start in sorted(mapping):
            if start in seen:
                continue
            parts.append("(" + str(start))
            x = mapping[start]
            while x != start:
                seen.add(x)
                parts.append(";" + str(x))
                x = mapping[x]
            parts.append(")")
        text = self._text = "".join(parts) or "()"
        return text

    def __str__(self) -> str:
        return self.to_cycles()

    def __repr__(self) -> str:
        return f"FinPerm.parse({self.to_cycles()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinPerm):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._map.items()))
        return self._hash
