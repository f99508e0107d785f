"""An explicit injection from n-point permutations into m-point ones.

Works for any ``m >= n + 2``.  A :class:`Tableau` reserves
``(m - n) * (2**(n+1) - 1)`` atoms arranged in levels ``H_0 .. H_n`` with
``|H_i| = (m - n) * 2**i``: each level holds ``m - n`` marker atoms plus one
shadow atom for every atom of every lower level.  A tableau that would
reserve more than ``TABLEAU_ATOM_CAP`` atoms is refused before any is built.

Encoding a permutation ``s`` that moves exactly ``n`` points picks the
least level untouched by ``s`` (one exists by pigeonhole), moves ``s`` away
from the lower levels with ``s.conjugate(swap)``, where ``swap`` exchanges
its atoms there with that level's shadow atoms, and multiplies by the cycle
on the level's marker atoms.  Each level's marker cycle is built once, with
the tableau, and reused by every encoding.  The image moves exactly ``m``
points and determines ``s`` uniquely; :func:`decode` runs the
reconstruction and certifies it by re-encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (BadParametersError, BudgetExceededError, NotInImageError,
                     WrongMovedSizeError)
from .perms import FinPerm

TABLEAU_ATOM_CAP = 2**20


class Tableau:
    """Reserved-atom structure for one (n, m) instance."""

    def __init__(self, n: int, m: int):
        if n < 0 or m < n + 2:
            raise BadParametersError(f"need m >= n + 2, got n={n}, m={m}")
        width = m - n
        # width >= 2, so an n past the cap's bit length alone exceeds it; testing
        # that first keeps a huge n from building a huge power of two
        if n >= TABLEAU_ATOM_CAP.bit_length() or width * (2 ** (n + 1) - 1) > TABLEAU_ATOM_CAP:
            raise BudgetExceededError(
                f"tableau n={n}, m={m} reserves more than {TABLEAU_ATOM_CAP} atoms")
        self.n = n
        self.m = m
        counter = 0
        self.marker_rows: list[tuple[int, ...]] = []
        self.marker_cycles: list[FinPerm] = []
        self.shadow_maps: list[dict[int, int]] = []
        self.levels: list[frozenset[int]] = []
        for i in range(n + 1):
            row = tuple(range(counter, counter + width))
            counter += width
            lower = sorted(a for lvl in self.levels for a in lvl)
            shadows = {}
            for x in lower:
                shadows[x] = counter
                counter += 1
            self.marker_rows.append(row)
            self.marker_cycles.append(FinPerm.cycle(row))
            self.shadow_maps.append(shadows)
            self.levels.append(frozenset(row) | frozenset(shadows.values()))
        self.reserved = frozenset(range(counter))
        assert counter == width * (2 ** (n + 1) - 1)
        assert all(len(self.levels[i]) == width * 2**i for i in range(n + 1))

    def __repr__(self) -> str:
        return f"Tableau(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class EncodeTrace:
    """The intermediate objects of one encoding."""

    level: int
    swap: FinPerm
    conjugated: FinPerm
    marker_cycle: FinPerm


def encode(s: FinPerm, tab: Tableau) -> tuple[FinPerm, EncodeTrace]:
    moved = s._map.keys()
    if len(moved) != tab.n:
        raise WrongMovedSizeError(
            f"permutation moves {len(moved)} points, tableau expects {tab.n}")
    level = None
    for i in range(tab.n + 1):
        if moved.isdisjoint(tab.levels[i]):
            level = i
            break
    # n + 1 disjoint levels versus n moved points: one level is untouched.
    assert level is not None
    shadows = tab.shadow_maps[level]
    pairs = {}
    for x in sorted(moved):
        if x in shadows:
            pairs[x] = shadows[x]
            pairs[shadows[x]] = x
    # the shadow map is injective from the lower levels into this one, so
    # these are disjoint transpositions
    swap = FinPerm._of(pairs)
    conjugated = s.conjugate(swap)
    marker_cycle = tab.marker_cycles[level]
    assert len(conjugated._map) == tab.n
    assert conjugated._map.keys().isdisjoint(marker_cycle._map)
    image = conjugated.after(marker_cycle)
    assert len(image._map) == tab.m
    return image, EncodeTrace(level, swap, conjugated, marker_cycle)


def decode(t: FinPerm, tab: Tableau) -> FinPerm:
    """Invert :func:`encode`, certified by re-encoding the result."""
    moved = t._map.keys()
    level = None
    for i in range(tab.n + 1):
        if not moved.isdisjoint(tab.levels[i]):
            level = i
            break
    if level is None:
        raise NotInImageError("permutation moves no reserved level")
    row = tab.marker_rows[level]
    for idx, a in enumerate(row):
        if t(a) != row[(idx + 1) % len(row)]:
            raise NotInImageError("marker atoms do not carry the marker cycle")
    # t maps the row onto itself, so it permutes the rest of its moved set
    # too, and restricted there it is a permutation that moves no row atom
    row_set = set(row)
    conjugated = FinPerm._of({a: b for a, b in t._map.items() if a not in row_set})
    pairs = {}
    for x, shadow in tab.shadow_maps[level].items():
        if shadow in conjugated._map:
            pairs[x] = shadow
            pairs[shadow] = x
    # the shadow map is injective between disjoint sets: disjoint transpositions
    swap = FinPerm._of(pairs)
    s = conjugated.conjugate(swap)
    if len(s._map) != tab.n:
        raise NotInImageError("reconstruction has the wrong moved size")
    image, _ = encode(s, tab)
    if image != t:
        raise NotInImageError("re-encoding the reconstruction differs")
    return s
