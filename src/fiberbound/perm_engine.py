"""Witness engine against claimed bounded-fiber maps out of the full
permutation group into the permutations moving at most n points.

Each step queries the oracle on the witnesses emitted since the last step,
builds a family of nontrivial permutations with pairwise disjoint supports
from the distinct answers at their first index, read from the driver's
answer record, and emits the first product of family members not seen
before.  The engine owns one :class:`FamilyIndex`, which holds the last
step's family and lists which answers move each atom, so a rebuilt case-2
level walks only the answers that move its occupied atoms.  The answers
only ever extend, and one rule decides what a step reuses: while the
record gains no answer, every built level stands, since the same answers
build the same levels, and a step builds only the levels above the last
top, or returns a stuck family as it is, whose stall lies at or below
that top.  A step that gains an answer keeps the leading case-1 levels,
which no new answer changes, and rebuilds from the first case-2 or stuck
level, which a new answer may unstick or pair differently.

A family stuck at level ``L`` on ``m`` witnesses, all queried without a
violation, admits at most ``N(L)`` distinct answers
(:func:`stuck_answer_bound`; the argument is in :func:`strict_bounds`'
docstring and holds for any emitted set), so ``m <= k*N(L)``.  A stall
with ``m > k*N(L)`` is forbidden: the step appends its trace and the run
ends as ``stuck``.  Any other stall is admitted and emits a fallback: the
driver's next seed pair, the transposition ``(base; base + 1 + j)`` for the
least ``j`` at or past the seed count not used yet whose witness is not
emitted yet, so a run's arbitrary picks all come from one pair rule.  The
mode picks only the seed count, which the header names as ``seeds``.
Strict mode seeds ``m0 + 1`` witnesses, with ``m0`` from
:func:`strict_bounds`, the count at which no stall is admitted: every
stall has ``m > m0``, a level ``L <= l0`` has ``k*N(L) <= k*N(l0) = m0``,
and a level ``L > l0`` has ``k*N(L) < 2**L <= m``, since a family's levels
stop at ``2**L <= m``.  That count is feasible for n <= 2.  Opportunistic
mode runs from the seed count it is given, at any n, so its early stalls
are admitted and fall back, which keeps the construction machinery
exercised.

A candidate depends only on the family's members, so the driver's walk
over the index sets resumes while they are unchanged, and ``chosen_a`` is
the index set a walk restarted from the empty set would reach.  A fallback
step leaves the walk alone; a new level changes the members, so the walk
restarts.  A trace's ``B_new`` holds only the answers first seen at its
step, and its ``family`` is ``null`` while the entries equal the last trace's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .auditing import (SEED_CAP, BoundParams, WitnessEngine, _Inconsistent,
                       assemble_certificate, compute_bounds)
from .errors import BadParametersError, BudgetExceededError, OracleCodomainError, _require_int
from .partitions import derangement
from .perms import FinPerm


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


class FamilyIndex:
    """What :func:`build_family` keeps from one call to the next.

    ``entries`` is the family the last call returned, ``occupied`` is the
    set of atoms ``entries`` moves, ``built`` is the record's length at
    that call, and ``stuck`` is the ``(level, occupied)`` it returned when
    it got stuck, and ``None`` otherwise.  A call on a record whose length
    is still ``built`` gained no answer, so it keeps every level; any
    other call keeps them up to the first case-2 or stuck level.  ``values`` is
    the driver's answer record itself, its ``(answer, first index)`` pairs
    in index order, and its first ``indexed`` pairs are indexed:
    ``movers`` lists, for each atom, the positions of the indexed answers
    that move it, ascending.  No indexed answer escapes the occupied set,
    that is, sends an atom outside it to another atom outside it, whenever
    a level begins: a case-1 member is its answer deflated onto the free
    atoms, so occupying it occupies every atom where that answer escaped;
    the answers indexed before it did not escape, and occupying atoms only
    ends escapes; a case-2 level is reached with every answer indexed and
    none escaping; and a cut frees only the atoms of the levels from the
    first case-2 or stuck level on, whose build found none escaping.
    """

    def __init__(self):
        self.values: list[tuple[FinPerm, int]] = []
        self.movers: dict[int, list[int]] = {}
        self.indexed = 0
        self.built = 0
        self.entries: list[FamilyEntry] = []
        self.occupied: set[int] = set()
        self.stuck: Optional[tuple[int, frozenset[int]]] = None

    def _case_one(self, level: int) -> Optional[FamilyEntry]:
        """The least escaping answer's member, at its least escaping atom.
        No indexed answer escapes, so the walk indexes the answers past
        them into ``movers`` until one does."""
        values, movers, occupied = self.values, self.movers, self.occupied
        while self.indexed < len(values):
            p = self.indexed
            self.indexed = p + 1
            s, i = values[p]
            escapes = []
            for x, y in s._map.items():
                movers.setdefault(x, []).append(p)
                if x not in occupied and y not in occupied:
                    escapes.append(x)
            if escapes:
                return FamilyEntry(level, 1, i, None, min(escapes), s.deflate(occupied))
        return None

    def _case_two(self, level: int) -> Optional[FamilyEntry]:
        """The least disagreeing pair's member; every answer is indexed and none escapes."""
        pairs = [pair for pair in map(self._least, self.occupied) if pair[1] is not None]
        if not pairs:
            return None
        (s_i, i), (s_j, j) = (self.values[p] for p in min(pairs))
        occupied = self.occupied
        x = min(x for x, y in s_i._map.items()
                if x in occupied and y not in occupied and s_j(x) not in occupied and s_j(x) != y)
        perm = s_j.after(s_i.inverse()).deflate(occupied)
        return FamilyEntry(level, 2, i, j, x, perm)

    def _least(self, x: int) -> tuple[Optional[int], Optional[int]]:
        """The least position live at ``x`` and the least live one with another image."""
        values, occupied = self.values, self.occupied
        first = image = None
        for p in self.movers.get(x, ()):
            y = values[p][0]._map[x]
            if y in occupied:
                continue
            if first is None:
                first, image = p, y
            elif y != image:
                return first, p
        return first, None


def build_family(answers: list[tuple[FinPerm, int]], m: int, index: FamilyIndex,
                 ) -> tuple[list[FamilyEntry], Optional[tuple[int, frozenset[int]]]]:
    """Build the disjoint-support family from the oracle answers.

    ``answers`` is the driver's answer record, which the index reads in
    place: each distinct answer on the ``m`` emitted permutations paired
    with the index of the first one that got it, in index order; the family
    has one level per power of two up to ``m``.  A repeated answer can
    never win a least-index search that its first occurrence loses, so
    both cases search the first occurrences only.  Returns the entries
    plus the stage at which construction got stuck, if it did.  Ties
    resolve by index order, then atom order.

    ``index`` is a :class:`FamilyIndex` that only calls on this answer
    record were given, and ``answers`` extends the list the last of them
    read: every pair it held keeps its position, and new answers have
    larger ones.  The caller's ``m`` never shrinks.  The family that call
    returned, held in ``entries``, is reused by one rule.  If the record
    gained no answer since, every built level stands: with the same
    answers each level finds the same escape or the same least pair on the
    same occupied set, so a rebuild would give the same levels.  The call
    builds only the levels above the last top, and a stuck family is
    returned as it is, with the index's kept ``stuck``, since its stall
    lies at or below the last top and a larger ``m`` only raises the top.
    If the record gained an answer, the family is kept up to its first
    case-2 or stuck level.  A case-1 level takes the least index whose
    answer has an escaping atom; if the levels before it are unchanged, so
    is the occupied set, the answers at smaller indices still do not
    escape and the chosen one still does.  A case-2 level is rebuilt,
    since a new answer may escape or form an earlier pair, and so is a
    stuck level, which may come unstuck.  The occupied set only grows
    within a build, so escapes only vanish, and a family is a run of
    case-1 levels followed by case-2 levels.  Dropping levels rebuilds
    the occupied set from the kept ones' atoms, at most 2n·level, and each
    new member adds its atoms.  A call that tries a level returns a new
    list and leaves the one the last call returned as it was, since the
    engine compares the two; a call that tries none returns that list.
    The returned entries are the index's ``entries``, which the next call
    reads.

    No indexed answer escapes when a level begins (see
    :class:`FamilyIndex`), so case 1 indexes the answers past the indexed
    ones until one escapes, at O(n) each, since an answer moves at most n
    atoms; each answer is indexed once.  Case 2, reached with every answer
    indexed and none escaping, walks the movers of each occupied atom ``x``
    in order, past the dead ones (which send ``x`` into the occupied set),
    up to its second distinct live image.  That gives ``x``'s first live
    entry and its first live entry with another image.  The least
    disagreeing pair of answers ``(i, j)`` in index order is then the least
    of these pairs: ``i`` is the least first entry over atoms with a
    disagreement, since any disagreeing pair at ``x`` has ``i`` at or after
    ``x``'s first entry; and where ``x``'s first entry comes before ``i``,
    every live answer at ``x`` agrees with it, so ``j`` is the least
    disagreeing entry over the atoms whose first entry is ``i``.  Its ``x``
    is the least atom where the two disagree.  A case-2 level thus costs
    the movers walked at each occupied atom, however many answers the
    record holds.  For n <= 2 every answer that moves an atom is a
    transposition, so the dead movers at an atom number at most |occupied|
    and no live one agrees with the first, so a level costs O(|occupied|²).
    For n >= 3 an atom may have any number of dead or agreeing movers, and
    the walk passes them all.

    Each member holds by construction what a family needs.  It is
    nontrivial: a case-1 answer sends its escaping ``x`` to ``s(x)``
    outside the occupied set, and a case-2 member sends ``s_i(x)`` to
    ``s_j(x)``, two distinct atoms outside it, and pushing it off the
    occupied set keeps a step that lands outside it.  It
    moves at most 2n points, since ``s`` moves at most n and
    ``s_j∘s_i⁻¹`` at most 2n, and deflating moves no new point.  It is
    disjoint from the occupied set, which the deflation fixes.  So the
    occupied set before level ``l`` has at most 2n·l atoms.
    """
    _require_int("m", m)
    if m < 1:
        raise BadParametersError("need at least one value")
    top = m.bit_length() - 1
    entries, kept = index.entries, len(index.entries)
    if index.built != len(answers):
        index.values, index.built, index.stuck = answers, len(answers), None
        kept = next((e.level for e in entries if e.case == 2), kept)
    elif index.stuck is not None:
        return entries, index.stuck
    if kept > top:
        return entries, None
    if kept < len(entries):
        index.occupied = {x for e in entries[:kept] for x in e.perm._map}
    entries = index.entries = entries[:kept]
    for level in range(kept, top + 1):
        chosen = index._case_one(level) or index._case_two(level)
        if chosen is None:
            index.stuck = (level, frozenset(index.occupied))
            return entries, index.stuck
        entries.append(chosen)
        index.occupied.update(chosen.perm._map)
    return entries, None


def stuck_answer_bound(n: int, level: int) -> int:
    """``N(level)``: how many permutations moving at most ``n`` points
    move only atoms of a fixed set of ``4*n*level`` atoms.

    Both counts are ``int``s by exact type and non-negative.
    """
    _require_int("n", n, 0)
    _require_int("level", level, 0)
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
    return BoundParams(l0, k * stuck_answer_bound(n, l0))


def assemble(entries: list[FamilyEntry], indices) -> FinPerm:
    """Product of the selected family members (disjoint supports)."""
    mapping: dict[int, int] = {}
    for idx in indices:
        mapping.update(entries[idx].perm._map)
    return FinPerm._of(mapping)


def _index_sets(width: int):
    """All subsets of range(width), ascending with index 0 most significant."""
    for value in range(1 << width):
        yield tuple(i for i in range(width) if value >> (width - 1 - i) & 1)


def _transposition(pair: tuple[int, int]) -> FinPerm:
    """The swap of two distinct non-negative int atoms, unchecked."""
    a, b = pair
    return FinPerm._of({a: b, b: a})


class PermDiagEngine(WitnessEngine):
    kind = "perm-diag"
    seed_format = "(%d;%d)"

    def __init__(self, n: int, k: int, oracle: Callable[[FinPerm], FinPerm],
                 mode: str = "strict", seed_count: int = 64, instance_id: int = 0):
        if mode not in ("strict", "opportunistic"):
            raise BadParametersError(f"unknown mode {mode!r}")
        self.n = n
        if mode == "strict":
            m0 = strict_bounds(n, k).m0
            seed_count = m0 + 1
            if seed_count > SEED_CAP:
                raise BudgetExceededError(f"strict mode needs {seed_count} seeds "
                                          f"(m0 = {m0}); use opportunistic mode")
        else:
            _require_int("n", n, 0)
        super().__init__(k, oracle, instance_id, seed_count, _transposition, str)
        # the last step's family; a trace's ``family`` is null while the entries equal it
        self._family = None
        self._index = FamilyIndex()

    def _check_output(self, out) -> None:
        if not isinstance(out, FinPerm) or len(out._map) > self.n:
            raise OracleCodomainError(
                f"oracle returned a value moving {len(out._map) if isinstance(out, FinPerm) else '?'} "
                f"points, claimed codomain moves at most {self.n}")

    def step(self) -> dict:
        m = self.seed_count + len(self.g)
        new = self._query_new()
        entries, stuck = build_family(self.answers, m, self._index)
        trace: dict = {
            "m": m,
            "B_new": [[i, s.to_cycles()] for s, i in new],
            "family": None if entries == self._family else [e.as_json() for e in entries],
            "stuck_at": None,
            "fallback": False,
            "chosen_a": None,
        }
        self._family = entries
        if stuck is not None:
            level, occupied = stuck
            trace["stuck_at"] = [level, sorted(occupied)]
            if m > self.k * stuck_answer_bound(self.n, level):
                self.traces.append(trace)
                raise _Inconsistent
            result = self._next_seed()
            trace["fallback"] = True
        else:
            # A full-length family offers more candidates than emitted
            # permutations, so one of them is always fresh.
            indices, result, _ = self._first_fresh(
                tuple(e.perm for e in entries), lambda: _index_sets(len(entries)),
                lambda indices: assemble(entries, indices))
            trace["chosen_a"] = list(indices)
        return self._emit(result, trace)

    def _certificate(self, kind, steps, violation) -> dict:
        return assemble_certificate(kind, self.n, self.k, self.seed_count, steps,
                                    self._outputs(str), violation, self.traces)
