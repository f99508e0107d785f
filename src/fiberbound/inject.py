"""An explicit injection from n-point permutations into m-point ones.

Works for any ``m >= n + 2``.  A :class:`Tableau` reserves
``(m - n) * (2**(n+1) - 1)`` atoms arranged in levels ``H_0 .. H_n`` with
``|H_i| = (m - n) * 2**i``: each level holds ``m - n`` marker atoms plus one
shadow atom for every atom of every lower level.

Encoding a permutation ``s`` that moves exactly ``n`` points picks the
least level untouched by ``s`` (one exists by pigeonhole), conjugates ``s``
away from the lower levels by swapping into that level's shadow atoms, and
multiplies by the cycle on the level's marker atoms.  The image moves
exactly ``m`` points and determines ``s`` uniquely; :func:`decode` runs the
reconstruction and certifies it by re-encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParametersError, FiberboundError, NotInImageError, WrongMovedSizeError
from .perms import FinPerm


class Tableau:
    """Reserved-atom structure for one (n, m) instance."""

    def __init__(self, n: int, m: int):
        if n < 0 or m < n + 2:
            raise BadParametersError(f"need m >= n + 2, got n={n}, m={m}")
        self.n = n
        self.m = m
        width = m - n
        counter = 0
        self.marker_rows: list[tuple[int, ...]] = []
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
    if len(s.moved) != tab.n:
        raise WrongMovedSizeError(
            f"permutation moves {len(s.moved)} points, tableau expects {tab.n}")
    level = None
    for i in range(tab.n + 1):
        if not (s.moved & tab.levels[i]):
            level = i
            break
    # n + 1 disjoint levels versus n moved points: one level is untouched.
    assert level is not None
    shadows = tab.shadow_maps[level]
    pairs = {}
    for x in sorted(s.moved):
        if x in shadows:
            pairs[x] = shadows[x]
            pairs[shadows[x]] = x
    swap = FinPerm(pairs)
    conjugated = swap.after(s).after(swap)
    marker_cycle = FinPerm.cycle(tab.marker_rows[level])
    assert len(conjugated.moved) == tab.n
    assert not (conjugated.moved & marker_cycle.moved)
    image = conjugated.after(marker_cycle)
    assert len(image.moved) == tab.m
    return image, EncodeTrace(level, swap, conjugated, marker_cycle)


def decode(t: FinPerm, tab: Tableau) -> FinPerm:
    """Invert :func:`encode`, certified by re-encoding the result."""
    level = None
    for i in range(tab.n + 1):
        if t.moved & tab.levels[i]:
            level = i
            break
    if level is None:
        raise NotInImageError("permutation moves no reserved level")
    row = tab.marker_rows[level]
    for idx, a in enumerate(row):
        if t(a) != row[(idx + 1) % len(row)]:
            raise NotInImageError("marker atoms do not carry the marker cycle")
    row_set = set(row)
    stripped = {a: b for a, b in t.moved_map.items() if a not in row_set}
    if any(b in row_set for b in stripped.values()):
        raise NotInImageError("marker atoms entangled with the rest of the map")
    try:
        conjugated = FinPerm(stripped)
    except (ValueError, FiberboundError):
        raise NotInImageError("stripping the marker cycle left a non-permutation") from None
    pairs = {}
    for x, shadow in tab.shadow_maps[level].items():
        if shadow in conjugated.moved:
            pairs[x] = shadow
            pairs[shadow] = x
    try:
        swap = FinPerm(pairs)
    except (ValueError, FiberboundError):
        raise NotInImageError("shadow atoms do not form an involution") from None
    s = swap.after(conjugated).after(swap)
    if len(s.moved) != tab.n:
        raise NotInImageError("reconstruction has the wrong moved size")
    image, _ = encode(s, tab)
    if image != t:
        raise NotInImageError("re-encoding the reconstruction differs")
    return s
