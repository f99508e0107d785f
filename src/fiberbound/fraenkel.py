"""Support-based contradiction probe for candidate assignments s -> t.

Under the conjugation action ``s.conjugate(g)`` = g∘s∘g⁻¹ (``s`` with its
atoms renamed by ``g``), any function with finite support E that maps an
n-point permutation avoiding E to an (n+1)-point permutation is refutable
pointwise.  :func:`classify` places each candidate pair into the first
applicable of three branches, each carrying computable witnesses:

1. ``s`` moves an atom that ``t`` does not: conjugating ``s`` by
   transpositions through fresh atoms produces arbitrarily many distinct
   inputs that any E-supported map must send to the same ``t``.
2. ``t`` moves an atom outside ``moved(s)`` and E: a transposition fixing
   E and ``moved(s)`` pointwise changes ``t``, so no E-supported map can
   hit it.
3. Otherwise ``t`` moves exactly one extra atom ``e`` inside E; then
   ``t(e)`` lies in ``moved(s)`` and conjugation by ``s`` itself (which
   fixes E pointwise) changes ``t``.

:func:`classify` and :func:`_verify` read each permutation's stored map,
whose keys are exactly its moved points, so they copy no moved set.

:func:`scan` is orbit-weighted: it classifies and re-verifies the
permutation pairs of one representative pair of moved sets (A, B) per
orbit of Sym(E) × Sym(carrier∖E), A avoiding E, and weights each outcome
by the orbit's size, reporting per-branch counts and escapes over every
eligible pair.  This is exact because conjugating both permutations by a
renaming of the carrier that fixes E setwise maps the pairs over (A, B)
one-to-one onto those over the renamed sets and keeps each pair's branch
and every :func:`_verify` check, all memberships in E, moved(s) or
moved(t); such renamings reach exactly the (A', B') with the same |A∩B| = i
and |B∩E| = j, of which there are C(c−e, n)·C(n, i)·C(e, j)·C(c−e−n, n+1−i−j)
on a carrier of c atoms with |E| = e.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations
from math import comb
from operator import eq, itemgetter
from typing import Iterator, Union

from .atoms import _atoms_ok, fresh_atoms
from .errors import BadParametersError, BudgetExceededError, _require_int
from .partitions import DERANGEMENT_MAX, derangement
from .perms import FinPerm

# permutation pairs classified per scan: one D(n)·D(n+1) block per orbit
SCAN_PAIR_CAP = 10_000


@dataclass(frozen=True)
class SupportConfig:
    support: frozenset[int]
    n: int
    carrier_size: int

    def __post_init__(self):
        if not isinstance(self.support, frozenset):
            raise BadParametersError("support must be a frozenset of atoms")
        _require_int("n", self.n)
        _require_int("carrier_size", self.carrier_size)
        if self.n < 2:
            raise BadParametersError("n must be at least 2 (nothing moves exactly one point)")
        if self.carrier_size < len(self.support) + self.n + 2:
            raise BadParametersError(
                "carrier must hold the support, the moved points, and a spare atom")
        if not _atoms_ok(self.support):
            raise BadParametersError("support atoms must be non-negative integers")
        if any(a >= self.carrier_size for a in self.support):
            raise BadParametersError("support atoms must lie inside the carrier")


@dataclass(frozen=True)
class MissingMoved:
    atom: int
    samples: tuple[FinPerm, ...]


@dataclass(frozen=True)
class ExtraOutside:
    atom: int
    swap: FinPerm
    conjugate: FinPerm


@dataclass(frozen=True)
class ForcedFixedPoint:
    support_atom: int
    image: int
    conjugate: FinPerm


@dataclass(frozen=True)
class PreconditionFail:
    reason: str


ProbeVerdict = Union[MissingMoved, ExtraOutside, ForcedFixedPoint, PreconditionFail]


def classify(s: FinPerm, t: FinPerm, cfg: SupportConfig) -> ProbeVerdict:
    ms, mt, e_set = s._map.keys(), t._map.keys(), cfg.support
    if len(ms) != cfg.n:
        return PreconditionFail(f"s moves {len(ms)} points, expected {cfg.n}")
    if len(mt) != cfg.n + 1:
        return PreconditionFail(f"t moves {len(mt)} points, expected {cfg.n + 1}")
    if not ms.isdisjoint(e_set):
        return PreconditionFail("s must avoid the support")
    if max(ms) >= cfg.carrier_size or max(mt) >= cfg.carrier_size:
        return PreconditionFail("s and t must live inside the carrier")

    missing = ms - mt
    if missing:
        a = min(missing)
        fresh = fresh_atoms(2, e_set | mt | ms)
        return MissingMoved(a, tuple(s.conjugate(FinPerm._of({a: b, b: a})) for b in fresh))

    added = mt - ms
    extra = added - e_set
    if extra:
        a = min(extra)
        (b,) = fresh_atoms(1, e_set | mt)
        swap = FinPerm._of({a: b, b: a})
        return ExtraOutside(a, swap, t.conjugate(swap))

    # branches 1 and 2 failed, so mt = ms ∪ {e} with e in E; the unpacking
    # raises if that shape ever broke, and t(e) != e lies in mt - {e} = ms
    (e,) = added
    return ForcedFixedPoint(e, t(e), t.conjugate(s))


@cache
def _shapes(count: int) -> tuple[tuple[itemgetter, str, itemgetter], ...]:
    """One row per derangement of ``range(count)``, in ``permutations`` order.

    A row holds an ``itemgetter`` of the derangement's images, its canonical
    text over the positions with each position written as ``%d``, and an
    ``itemgetter`` of the positions in the order that text names them.
    Rows need ``count >= 2``, so each getter returns a tuple.  A table of
    more than ``SCAN_PAIR_CAP`` rows is refused before any is built.
    """
    if count > DERANGEMENT_MAX or derangement(count) > SCAN_PAIR_CAP:
        raise BudgetExceededError(f"count {count} needs D({count}) derangements, "
                                  f"over the cap {SCAN_PAIR_CAP}")
    rows = []
    for images in permutations(range(count)):
        if any(map(eq, range(count), images)):
            continue
        text = FinPerm._of(dict(enumerate(images))).to_cycles()
        order = [int(a) for a in re.findall(r"[0-9]+", text)]
        rows.append((itemgetter(*images), re.sub(r"[0-9]+", "%d", text), itemgetter(*order)))
    return tuple(rows)


def perms_moving_exactly(atoms: Iterator[int], count: int) -> Iterator[FinPerm]:
    """All permutations of the given atoms moving exactly ``count`` of them.

    It checks its arguments when called, before the first draw: the atoms
    must be distinct non-negative ints and ``count`` a non-negative ``int``
    by exact type.  The order is that of ``combinations`` of the sorted
    atoms, and within each subset that of ``permutations`` of it, fixed
    points dropped.  Each subset's permutations come from the table of the
    derangements of ``range(count)``, which also hands over each one's
    canonical text.  The table is built at the first call with a ``count``
    the pool can move and kept for the life of the process.  It holds
    D(count) rows, read off all ``count!`` permutations, so a ``count``
    whose table would pass ``SCAN_PAIR_CAP`` rows (8 or more, D(8) =
    14,833) is refused with :class:`BudgetExceededError` when the pool
    holds that many atoms; the scan needs at most 5 and the codec at most 3.
    """
    pool = list(atoms)
    _require_int("count", count, 0)
    if not _atoms_ok(pool):
        raise BadParametersError("atoms must be non-negative integers")
    if len(set(pool)) != len(pool):
        raise BadParametersError("repeated atom in the pool")
    pool.sort()
    if count == 0:
        return iter((FinPerm.identity(),))
    if count > len(pool):
        return iter(())
    shapes = _shapes(count)

    def gen() -> Iterator[FinPerm]:
        for subset in combinations(pool, count):
            # the subset ascends as the positions do, so the rotations and the
            # cycle order of the positions' text are those of the atoms' text
            for images, text, order in shapes:
                perm = FinPerm._of(dict(zip(subset, images(subset))))
                perm._text = text % order(subset)
                yield perm

    return gen()


def _verify(verdict: ProbeVerdict, s: FinPerm, t: FinPerm, cfg: SupportConfig) -> bool:
    e_set = cfg.support
    if isinstance(verdict, MissingMoved):
        a, ms, mt = verdict.atom, s._map.keys(), t._map.keys()
        # a in moved(s) also makes a != b below, since b is not: so {a: b, b: a}
        # is a transposition, as FinPerm._of requires
        if not _atoms_ok((a,)) or a not in ms or a in mt or a in e_set:
            return False
        if len(verdict.samples) < 2 or len(set(verdict.samples)) != len(verdict.samples):
            return False
        # each sample is s conjugated by the transposition (a b), where b is
        # the one atom it adds to moved(s); (a b) must fix E and moved(t),
        # and b, read off the sample, must be a non-negative int before (a b) is built
        for p in verdict.samples:
            extra = p._map.keys() - ms
            if len(extra) != 1 or not _atoms_ok(extra):
                return False
            (b,) = extra
            if b in mt or b in e_set or p != s.conjugate(FinPerm._of({a: b, b: a})):
                return False
        return True
    if isinstance(verdict, ExtraOutside):
        a, swapped, ms = verdict.atom, verdict.swap._map.keys(), s._map.keys()
        # a in swapped with the two disjointness tests puts a outside moved(s) and E
        if a not in t._map or a not in swapped:
            return False
        if not (swapped.isdisjoint(e_set) and swapped.isdisjoint(ms)):
            return False
        return verdict.conjugate == t.conjugate(verdict.swap) and verdict.conjugate != t
    if isinstance(verdict, ForcedFixedPoint):
        e, d, ms = verdict.support_atom, verdict.image, s._map.keys()
        if e not in e_set or t(e) != d or d == e or d not in ms or not ms.isdisjoint(e_set):
            return False
        # s fixes e, so t^s sends e to s(d), and s(d) != d = t(e): t^s != t
        return verdict.conjugate == t.conjugate(s)
    return False


def _orbits(cfg: SupportConfig) -> Iterator[tuple[int, int, int]]:
    """``(i, j, size)`` for each orbit of moved-set pairs (A, B) with
    |A∩B| = i and |B∩E| = j, A avoiding E; ``size`` counts its (A, B)."""
    n, e = cfg.n, len(cfg.support)
    outside = cfg.carrier_size - e
    for i in range(n + 1):
        for j in range(n + 2 - i):
            size = comb(outside, n) * comb(n, i) * comb(e, j) * comb(outside - n, n + 1 - i - j)
            if size:
                yield i, j, size


_BRANCHES = {MissingMoved: "missing_moved", ExtraOutside: "extra_outside",
             ForcedFixedPoint: "forced_fixed_point"}


def _pairs_per_orbit(n: int) -> int:
    """D(n)·D(n+1), or for n >= 5 the lower bound D(5)·D(6).

    The product D(j)·D(j+1) never falls as j grows, and at j = 5 it is
    already over ``SCAN_PAIR_CAP``, so no larger j needs counting.
    """
    j = min(n, 5)
    return derangement(j) * derangement(j + 1)


def scan(cfg: SupportConfig) -> dict:
    """Branch counts over every eligible (s, t) pair, one representative per orbit."""
    n = cfg.n
    # The per-orbit count is the only check the cap needs: every n >= 5 fails
    # it (D(5)·D(6) = 11,660), and n <= 4 has at most (n+1)(n+4)/2 = 20
    # orbits of D(4)·D(5) = 396 pairs, so 7,920 pairs in all.
    per_orbit = _pairs_per_orbit(n)
    if per_orbit > SCAN_PAIR_CAP:
        raise BudgetExceededError(
            f"scan would classify at least {per_orbit} pairs, over the cap {SCAN_PAIR_CAP}")
    support = sorted(cfg.support)
    # the smallest atoms outside E lie inside the carrier, since E does
    free = fresh_atoms(min(2 * n + 1, cfg.carrier_size - len(support)), support)
    s_pool = list(perms_moving_exactly(iter(free[:n]), n))
    counts = dict.fromkeys(_BRANCHES.values(), 0)
    pairs = escapes = 0
    for i, j, size in _orbits(cfg):
        moved_t = free[:i] + tuple(support[:j]) + free[n:2 * n + 1 - i - j]
        t_pool = list(perms_moving_exactly(iter(moved_t), n + 1))
        pairs += size * len(s_pool) * len(t_pool)
        for s in s_pool:
            for t in t_pool:
                verdict = classify(s, t, cfg)
                # _verify refuses a PreconditionFail
                if not _verify(verdict, s, t, cfg):
                    escapes += size
                else:
                    counts[_BRANCHES[type(verdict)]] += size
    return {
        "carrier": cfg.carrier_size,
        "E": support,
        "n": n,
        "pairs": pairs,
        **counts,
        "escapes": escapes,
    }
