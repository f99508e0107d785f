"""An explicit injection from n-point permutations into m-point ones.

Works for any ``m >= n + 2``.  A :class:`Tableau` reserves
``(m - n) * (2**(n+1) - 1)`` atoms arranged in levels ``H_0 .. H_n`` with
``|H_i| = (m - n) * 2**i``: each level holds ``m - n`` marker atoms plus one
shadow atom for every atom of every lower level.  A tableau that would
reserve more than ``TABLEAU_ATOM_CAP`` atoms is refused before any is built.
Each level's marker cycle and its swap, the involution that exchanges every
lower-level atom with its shadow, are built once, with the tableau.

Encoding a permutation ``s`` that moves exactly ``n`` points picks the
least level untouched by ``s`` (one exists by pigeonhole) and makes the
image in one pass: a single rename of ``s`` through that level's swap,
where an atom of a lower level becomes its shadow and any other atom
keeps its name (``s`` moves no shadow, which lies in the level), joined
with the cycle on the level's marker atoms, which the renamed map does not
touch.  This equals ``s.conjugate(swap).after(marker_cycle)``, where
``swap`` exchanges the atoms of ``s`` below the level with their shadows.
The image moves exactly ``m`` points and determines ``s`` uniquely.
:func:`encode` returns the image and the level; :func:`level_swap` builds
``swap`` from them when it is wanted, as ``fiberbound inject`` shows it.

:func:`decode` takes the least level ``t`` touches, checks that ``t``
carries that level's marker cycle, and renames the rest of ``t`` through
the level's swap in one pass.  That is exact for every ``t``, valid or
not: ``t`` moves no atom of a lower level, so on ``t``'s atoms the full
swap sends exactly the shadows ``t`` moves back to their atoms, as the
transpositions over those shadows alone would.  The result is certified by
re-encoding it.
"""

from __future__ import annotations

from .errors import BadParametersError, BudgetExceededError, NotInImageError, _require_int
from .perms import FinPerm

TABLEAU_ATOM_CAP = 2**20


class Tableau:
    """Reserved-atom structure for one (n, m) instance."""

    def __init__(self, n: int, m: int):
        _require_int("n", n)
        _require_int("m", m)
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
        self.marker_cycles: list[FinPerm] = []
        self.swaps: list[dict[int, int]] = []
        self.levels: list[frozenset[int]] = []
        for i in range(n + 1):
            row = tuple(range(counter, counter + width))
            counter += width
            lower = sorted(a for lvl in self.levels for a in lvl)
            shadows = {}
            for x in lower:
                shadows[x] = counter
                counter += 1
            self.marker_cycles.append(FinPerm.cycle(row))
            # the shadow map is injective from the lower levels into this one,
            # so joined with its reverse it is an involution without fixed points
            swap = {b: a for a, b in shadows.items()}
            swap.update(shadows)
            self.swaps.append(swap)
            self.levels.append(frozenset(row) | frozenset(shadows.values()))
        self.reserved = frozenset(range(counter))

    def __repr__(self) -> str:
        return f"Tableau(n={self.n}, m={self.m})"


def _image(s_map: dict[int, int], tab: Tableau) -> tuple[int, dict[int, int]]:
    """The level and the map of the encoding of the permutation ``s_map``."""
    if len(s_map) != tab.n:
        raise BadParametersError(
            f"permutation moves {len(s_map)} points, tableau expects {tab.n}")
    moved = s_map.keys()
    # n + 1 disjoint levels versus n moved points: one level is untouched
    for level, atoms in enumerate(tab.levels):
        if moved.isdisjoint(atoms):
            break
    # s moves no atom of the level, where every shadow lies, so renaming each
    # moved atom through the swap is conjugating by the swap; the marker cycle
    # moves only atoms of the level, disjoint from the renamed map
    rename = tab.swaps[level].get
    image = {rename(a, a): rename(b, b) for a, b in s_map.items()}
    image.update(tab.marker_cycles[level]._map)
    return level, image


def encode(s: FinPerm, tab: Tableau) -> tuple[FinPerm, int]:
    """The image of ``s`` and the level it was encoded at."""
    level, image = _image(s._map, tab)
    return FinPerm._of(image), level


def level_swap(s: FinPerm, tab: Tableau, level: int) -> FinPerm:
    """The transpositions ``x <-> shadow(x)`` over the atoms ``s`` moves below ``level``,
    the level ``s`` was encoded at."""
    swap = tab.swaps[level]
    # s avoids the level, so the swap's keys among its atoms lie below it;
    # the swap is an involution, so these are disjoint transpositions
    pairs = {x: swap[x] for x in s._map.keys() & swap.keys()}
    pairs.update([(b, a) for a, b in pairs.items()])
    return FinPerm._of(pairs)


def decode(t: FinPerm, tab: Tableau) -> FinPerm:
    """Invert :func:`encode`, certified by re-encoding the result."""
    t_map = t._map
    moved = t_map.keys()
    for level, atoms in enumerate(tab.levels):
        if not moved.isdisjoint(atoms):
            break
    else:
        raise NotInImageError("permutation moves no reserved level")
    marker = tab.marker_cycles[level]._map
    if not marker.items() <= t_map.items():
        raise NotInImageError("marker atoms do not carry the marker cycle")
    # t maps the row onto itself, so it permutes the rest of its moved set too;
    # it moves no atom below the level, so the swap renames exactly its shadows
    rename = tab.swaps[level].get
    s_map = {rename(a, a): rename(b, b) for a, b in t_map.items() if a not in marker}
    if len(s_map) != tab.n:
        raise NotInImageError("reconstruction has the wrong moved size")
    if _image(s_map, tab)[1] != t_map:
        raise NotInImageError("re-encoding the reconstruction differs")
    return FinPerm._of(s_map)
