"""Views of the value types that only tests read, and a reference build.

Each view computes from a value a structure that the library itself does
not need: the cycles of a permutation as tuples, the membership masks of a
quotient frame's classes, and a tableau level's marker atoms.
:func:`seed_witnesses` reads an engine's seeds, which the driver builds
only as it asks the oracle about them and keeps out of ``engine.g``.
:func:`cycle_text` and :func:`partition_text` write a value's canonical
text afresh from its map or blocks, never from the text a value keeps.
:func:`build_family` is the permutation engine's family build as it was
before the engine kept a family index: one pass over every answer per
rebuilt level, with the four member checks as asserts.  Tests compare the
indexed build with it.
"""

import itertools
from typing import Optional

from fiberbound.errors import BadParametersError
from fiberbound.perm_engine import FamilyEntry
from fiberbound.perms import FinPerm


def cycles(p):
    """Disjoint cycles of the ``FinPerm`` ``p``, each starting at its least atom, sorted."""
    rest = dict(p._map)
    out = []
    for start in sorted(p._map):
        if start not in rest:
            continue
        cyc = [start]
        nxt = rest.pop(start)
        while nxt != start:
            cyc.append(nxt)
            nxt = rest.pop(nxt)
        out.append(tuple(cyc))
    return out


def cycle_text(p):
    """The canonical cycle text of the ``FinPerm`` ``p``, walked from its map."""
    return "".join("(" + ";".join(map(str, cyc)) + ")" for cyc in cycles(p)) or "()"


def partition_text(p):
    """The canonical text of the ``FinitaryPartition`` ``p``, written from its blocks."""
    blocks = sorted(p._blocks, key=min)
    return "".join("{" + ",".join(map(str, sorted(b))) + "}" for b in blocks) or "{}*"


def masks(frame):
    """The membership pattern of each of ``frame.classes``: bit ``len(values) - 1 - i``
    is set when the class lies in ``values[i]``, so value 0 is the most significant bit."""
    top = len(frame.values) - 1
    membership = {}
    for i, v in enumerate(frame.values):
        bit = 1 << (top - i)
        for a in v:
            membership[a] = membership.get(a, 0) | bit
    return tuple(membership[next(iter(c))] for c in frame.classes)


def seed_witnesses(engine):
    """The seed witnesses of the ``WitnessEngine`` ``engine``, in pair order:
    the objects the driver built, read from its ledger once the first step
    has asked about every seed, or else built through ``engine._seed`` on
    the same pairs ``(base, base + 1 + j)``."""
    count, queries = engine.seed_count, engine.ledger.queries
    if len(queries) >= count:
        return list(itertools.islice(queries, count))
    base = engine.base
    return [engine._seed((base, base + 1 + j)) for j in range(count)]


def marker_row(tab, i):
    """The marker atoms of level ``i`` of the ``Tableau`` ``tab``, ascending."""
    return tuple(sorted(tab.marker_cycles[i].moved))


def build_family(answers: dict[FinPerm, int], m: int, n: int,
                 prev: Optional[list[FamilyEntry]] = None,
                 ) -> tuple[list[FamilyEntry], Optional[tuple[int, frozenset[int]]]]:
    """Build the disjoint-support family from the oracle answers.

    ``answers`` maps each distinct answer on the ``m`` emitted permutations
    to the index of the first one that got it, in index order; the family
    has one level per power of two up to ``m``.  A repeated answer can
    never win a least-index search that its first occurrence loses, so
    both cases scan the first occurrences only.  Returns the entries plus
    the stage at which construction got stuck, if it did.  Ties resolve by
    index order, then atom order.

    ``prev`` is the entries list an earlier call returned, and ``answers``
    must extend the record it was built from: every answer it held keeps
    its index, and new answers have larger ones.  The leading case-1
    entries of ``prev`` are then kept as they are.  A case-1 level takes
    the least index whose answer has an escaping atom; if the levels
    before it are unchanged, so is the occupied set, the answers at
    smaller indices still do not escape and the chosen one still does.
    A case-2 level is rebuilt, since a new answer may escape or form an
    earlier pair, and so is a stuck level, which may come unstuck.

    Each level makes one pass over ``answers``, and each answer walks its
    own moved points once: a pair ``x -> y`` with both outside the
    occupied set is an escape, and one with only ``x`` inside goes into
    the answer's ``reach``, the outward map case 2 compares.  A point the
    answer fixes maps into the occupied set if it lies there, so only
    moved points can reach out.  A level thus costs O(Σ|moved(s)|) over
    the answers, at most 2n per answer, whatever the size of the
    occupied set.  The occupied set only grows within a build, so escapes
    only vanish: after a build's first case-2 level every later level is
    case 2 or stuck.
    """
    if m < 1:
        raise BadParametersError("need at least one value")
    top = m.bit_length() - 1
    entries = list(itertools.takewhile(lambda e: e.case == 1, prev or ()))
    occupied: set[int] = set().union(*(e.perm._map.keys() for e in entries))

    for level in range(len(entries), top + 1):
        chosen = None
        outward = []
        for s, i in answers.items():
            escapes = []
            reach = {}
            for x, y in s._map.items():
                if y not in occupied:
                    if x in occupied:
                        reach[x] = y
                    else:
                        escapes.append(x)
            if escapes:
                perm = s.deflate(occupied)
                chosen = FamilyEntry(level, 1, i, None, min(escapes), perm)
                break
            if reach:
                outward.append((i, s, reach))
        if chosen is None:
            found = None
            for a_pos, (i, s_i, reach_i) in enumerate(outward):
                for j, s_j, reach_j in outward[a_pos + 1:]:
                    xs = [x for x in reach_i if x in reach_j and reach_i[x] != reach_j[x]]
                    if xs:
                        found = (i, s_i, j, s_j, min(xs))
                        break
                if found:
                    break
            if found is None:
                return entries, (level, frozenset(occupied))
            i, s_i, j, s_j, x = found
            perm = s_j.after(s_i.inverse()).deflate(occupied)
            chosen = FamilyEntry(level, 2, i, j, x, perm)
        moved = chosen.perm._map.keys()
        assert moved, "family members must be nontrivial"
        assert len(moved) <= 2 * n
        assert moved.isdisjoint(occupied)
        assert len(occupied) <= 2 * n * level
        entries.append(chosen)
        occupied.update(moved)
    return entries, None
