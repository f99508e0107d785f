"""Witness engine against claimed bounded-fiber maps out of the full
permutation group into the permutations moving at most n points.

Each step queries the oracle on the witnesses emitted since the last step,
builds a family of nontrivial permutations with pairwise disjoint supports
from the distinct answers at their first index, read from the driver's
answer record, and emits the first product of family members not seen
before.  The answers only ever extend, so a step keeps the leading case-1
levels of the last step's family and rebuilds from its first case-2 or
stuck level.  Strict mode seeds ``m0 + 1`` witnesses, with ``m0`` from
:func:`strict_bounds`, the least count the stuck-family argument needs, so
that a failed family construction is a genuine inconsistency; that count
is feasible for n <= 2.  Opportunistic mode runs from a small seed count
and patches over legitimate early failures with fresh transpositions,
which keeps the construction machinery exercised wherever
:func:`compute_bounds` accepts n and k, since its header carries that
function's ``l0`` and ``m0``: at k = 1 that is n <= 3.

A candidate depends only on the family's members, so the driver's walk
over the index sets resumes while they are unchanged, and ``chosen_a`` is
the index set a walk restarted from the empty set would reach.  A fallback
step leaves the walk alone; a new level changes the members, so the walk
restarts.  A trace's ``B_new`` holds only the answers first seen at its
step, and its ``family`` is ``null`` while the entries equal the last trace's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .atoms import SetSpec
from .auditing import (BoundParams, WitnessEngine, _Inconsistent, assemble_certificate,
                       compute_bounds)
from .errors import BadParametersError, OracleCodomainError
from .partitions import derangement
from .perms import FinPerm

_FALLBACK_OFFSET = 500_000


@dataclass(frozen=True)
class FamilyEntry:
    """One family member with its construction provenance."""

    level: int
    case: int                      # 1: single answer escapes, 2: pair disagreement
    i: int
    j: Optional[int]
    x: int
    perm: FinPerm

    def as_json(self) -> dict:
        return {
            "l": self.level,
            "case": self.case,
            "i": self.i,
            "j": self.j,
            "x": self.x,
            "t": self.perm.to_cycles(),
        }


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
                perm = s.deflate(SetSpec.cofinite(occupied))
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
            perm = s_j.after(s_i.inverse()).deflate(SetSpec.cofinite(occupied))
            chosen = FamilyEntry(level, 2, i, j, x, perm)
        moved = chosen.perm._map.keys()
        assert moved, "family members must be nontrivial"
        assert len(moved) <= 2 * n
        assert moved.isdisjoint(occupied)
        assert len(occupied) <= 2 * n * level
        entries.append(chosen)
        occupied.update(moved)
    return entries, None


def stuck_answer_bound(n: int, level: int) -> int:
    """``N(level)``: how many permutations moving at most ``n`` points
    move only atoms of a fixed set of ``4*n*level`` atoms."""
    return sum(math.comb(4 * n * level, j) * derangement(j) for j in range(n + 1))


def strict_bounds(n: int, k: int) -> BoundParams:
    """The least threshold the stuck-family argument needs.

    ``l0`` is the least integer such that ``k*N(l) < 2**l`` holds for
    every ``l > l0``, with ``N`` = :func:`stuck_answer_bound`, and
    ``m0 = k*N(l0)``.  Suppose :func:`build_family` is stuck at level
    ``L`` with occupied set ``O``, ``|O| <= 2*n*L``, on ``m > m0``
    emitted witnesses, so ``2**L <= m``.  Case 1 failed, so an answer
    ``s`` sends each atom ``x`` outside ``O`` that it moves into ``O``;
    then ``x``'s orbit predecessor ``y`` lies in ``O`` too, and
    ``x = s(y)``.  Case 2 failed, so all answers sending a ``y`` in ``O``
    outside ``O`` agree on its image ``r(y)``.  Every answer thus moves
    only atoms of ``O ∪ r(O)``, at most ``4*n*L`` atoms, and the distinct
    answers number ``d <= N(L)``.  Without a violation ``m <= k*d <= k*N(L)``;
    that is below ``2**L`` when ``L > l0``, and at most ``m0`` otherwise,
    since ``N`` grows with ``L``.

    ``N(l) <= (2*n*l)**(2*n)`` for ``n, l >= 1``, so every ``l`` past
    :func:`compute_bounds`' ``l0`` holds; the scan down from there checks
    the rest directly, and that call's overflow guard refuses a huge
    ``n`` or ``k`` first.
    """
    l0 = compute_bounds(n, k).l0
    while l0 > 0 and k * stuck_answer_bound(n, l0) < 2**l0:
        l0 -= 1
    return BoundParams(n, k, l0, k * stuck_answer_bound(n, l0))


def assemble(entries: list[FamilyEntry], indices) -> FinPerm:
    """Product of the selected family members (disjoint supports)."""
    mapping: dict[int, int] = {}
    for idx in indices:
        member = entries[idx].perm
        assert member._map.keys().isdisjoint(mapping), "family supports must be disjoint"
        mapping.update(member._map)
    return FinPerm._of(mapping)


def _index_sets(width: int):
    """All subsets of range(width), ascending with index 0 most significant."""
    for value in range(1 << width):
        yield tuple(i for i in range(width) if value >> (width - 1 - i) & 1)


class PermDiagEngine(WitnessEngine):
    kind = "perm-diag"

    def __init__(self, n: int, k: int, oracle: Callable[[FinPerm], FinPerm],
                 mode: str = "strict", seed_count: int = 64, instance_id: int = 0):
        if mode not in ("strict", "opportunistic"):
            raise BadParametersError(f"unknown mode {mode!r}")
        self.n = n
        self.mode = mode
        if mode == "strict":
            self.bounds = strict_bounds(n, k)
            seed_count = self.bounds.m0 + 1
        else:
            self.bounds = compute_bounds(n, k)
        super().__init__(k, oracle, instance_id, seed_count, FinPerm.cycle, str)
        self._next_fallback = self.base + _FALLBACK_OFFSET
        # the last step's family, kept in part by the next step's build
        self._family = None

    def _refuse_seeds(self, count: int) -> str:
        if self.mode == "strict":
            return f"strict mode needs {count} seeds (m0 = {self.bounds.m0}); use opportunistic mode"
        return super()._refuse_seeds(count)

    def _check_output(self, out) -> None:
        if not isinstance(out, FinPerm) or len(out._map) > self.n:
            raise OracleCodomainError(
                f"oracle returned a value moving {len(out._map) if isinstance(out, FinPerm) else '?'} "
                f"points, claimed codomain moves at most {self.n}")

    def _fresh_fallback(self) -> FinPerm:
        while True:
            pair = (self._next_fallback, self._next_fallback + 1)
            self._next_fallback += 2
            perm = FinPerm.cycle(list(pair))
            if perm not in self.ledger.queries:
                return perm

    def step(self) -> dict:
        m = len(self.g)
        new = self._query_new()
        answers = self.answers
        entries, stuck = build_family(answers, m, self.n, self._family)
        trace: dict = {
            "m": m,
            "B_new": [[answers[s], s.to_cycles()] for s in new],
            "family": None if entries == self._family else [e.as_json() for e in entries],
            "stuck_at": None,
            "fallback": False,
            "chosen_a": None,
            "result": None,
        }
        self._family = entries
        if stuck is not None:
            level, occupied = stuck
            trace["stuck_at"] = [level, sorted(occupied)]
            if self.mode == "strict":
                self.traces.append(trace)
                raise _Inconsistent
            result = self._fresh_fallback()
            trace["fallback"] = True
        else:
            # A full-length family offers more candidates than emitted
            # permutations, so one of them is always fresh.
            indices, result, _ = self._first_fresh(
                tuple(e.perm for e in entries), lambda: _index_sets(len(entries)),
                lambda indices: assemble(entries, indices))
            trace["chosen_a"] = list(indices)
        trace["result"] = result.to_cycles()
        return self._emit(result, trace)

    def _certificate(self, kind, steps, violation) -> dict:
        return assemble_certificate(kind, self.n, self.k, self.bounds.l0, self.bounds.m0, steps,
                                    self._outputs(), violation, self.traces)
