"""Support-based contradiction probe for candidate assignments s -> t.

Under the conjugation action, any function with finite support E that maps
an n-point permutation avoiding E to an (n+1)-point permutation is
refutable pointwise.  :func:`classify` places each candidate pair into the
first applicable of three branches, each carrying computable witnesses:

1. ``s`` moves an atom that ``t`` does not: conjugating ``s`` by
   transpositions through fresh atoms produces arbitrarily many distinct
   inputs that any E-supported map must send to the same ``t``.
2. ``t`` moves an atom outside ``moved(s)`` and E: a transposition fixing
   E and ``moved(s)`` pointwise changes ``t``, so no E-supported map can
   hit it.
3. Otherwise ``t`` moves exactly one extra atom ``e`` inside E; then
   ``t(e)`` lies in ``moved(s)`` and conjugation by ``s`` itself (which
   fixes E pointwise) changes ``t``.

:func:`scan` classifies every eligible pair over a small carrier and
re-verifies each witness, reporting per-branch counts and any escapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterator, Union

from .atoms import fresh_atoms
from .errors import BadParametersError, BudgetExceededError
from .perms import FinPerm

SCAN_CARRIER_CAP = 8


@dataclass(frozen=True)
class SupportConfig:
    support: frozenset[int]
    n: int
    carrier_size: int

    def __post_init__(self):
        if self.n < 2:
            raise BadParametersError("n must be at least 2 (nothing moves exactly one point)")
        if self.carrier_size < len(self.support) + self.n + 2:
            raise BadParametersError(
                "carrier must hold the support, the moved points, and a spare atom")
        if any(a >= self.carrier_size or a < 0 for a in self.support):
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
    ms, mt, e_set = s.moved, t.moved, cfg.support
    if len(ms) != cfg.n:
        return PreconditionFail(f"s moves {len(ms)} points, expected {cfg.n}")
    if len(mt) != cfg.n + 1:
        return PreconditionFail(f"t moves {len(mt)} points, expected {cfg.n + 1}")
    if ms & e_set:
        return PreconditionFail("s must avoid the support")
    if any(a >= cfg.carrier_size for a in ms | mt):
        return PreconditionFail("s and t must live inside the carrier")

    missing = sorted(ms - mt)
    if missing:
        a = missing[0]
        fresh = fresh_atoms(2, e_set | mt | ms)
        samples = []
        for b in fresh:
            pi = FinPerm.cycle([a, b])
            samples.append(pi.after(s).after(pi))
        return MissingMoved(a, tuple(samples))

    extra = sorted(mt - (ms | e_set))
    if extra:
        a = extra[0]
        (b,) = fresh_atoms(1, e_set | mt)
        swap = FinPerm.cycle([a, b])
        return ExtraOutside(a, swap, swap.after(t).after(swap))

    in_support = sorted(mt - ms)
    assert len(in_support) == 1 and in_support[0] in e_set
    e = in_support[0]
    d = t(e)
    assert d in ms
    conjugate = s.after(t).after(s.inverse())
    return ForcedFixedPoint(e, d, conjugate)


def perms_moving_exactly(atoms: Iterator[int], count: int) -> Iterator[FinPerm]:
    """All permutations of the given atoms moving exactly ``count`` of them."""
    pool = sorted(atoms)
    if count == 0:
        yield FinPerm.identity()
        return
    for subset in combinations(pool, count):
        for image in permutations(subset):
            if all(a != b for a, b in zip(subset, image)):
                yield FinPerm(dict(zip(subset, image)))


def _verify(verdict: ProbeVerdict, s: FinPerm, t: FinPerm, cfg: SupportConfig) -> bool:
    e_set = cfg.support
    if isinstance(verdict, MissingMoved):
        if verdict.atom not in s.moved - t.moved:
            return False
        if len(verdict.samples) < 2 or len(set(verdict.samples)) != len(verdict.samples):
            return False
        # each sample arises from a transposition fixing E and moved(t)
        return all(len(p.moved) == cfg.n for p in verdict.samples)
    if isinstance(verdict, ExtraOutside):
        swap = verdict.swap
        if any(swap(a) != a for a in e_set | s.moved):
            return False
        return verdict.conjugate == swap.after(t).after(swap) and verdict.conjugate != t
    if isinstance(verdict, ForcedFixedPoint):
        e, d = verdict.support_atom, verdict.image
        if e not in e_set or t(e) != d or d == e or d not in s.moved:
            return False
        if any(s(a) != a for a in e_set):
            return False
        return verdict.conjugate == s.after(t).after(s.inverse()) and verdict.conjugate != t
    return False


def scan(cfg: SupportConfig) -> dict:
    """Classify every eligible (s, t) pair over the carrier."""
    if cfg.carrier_size > SCAN_CARRIER_CAP:
        raise BudgetExceededError(
            f"carrier {cfg.carrier_size} exceeds the scan cap {SCAN_CARRIER_CAP}")
    carrier = range(cfg.carrier_size)
    s_pool = list(perms_moving_exactly((a for a in carrier if a not in cfg.support), cfg.n))
    t_pool = list(perms_moving_exactly(iter(carrier), cfg.n + 1))
    counts = {"missing_moved": 0, "extra_outside": 0, "forced_fixed_point": 0}
    escapes = 0
    for s in s_pool:
        for t in t_pool:
            verdict = classify(s, t, cfg)
            if isinstance(verdict, PreconditionFail) or not _verify(verdict, s, t, cfg):
                escapes += 1
                continue
            if isinstance(verdict, MissingMoved):
                counts["missing_moved"] += 1
            elif isinstance(verdict, ExtraOutside):
                counts["extra_outside"] += 1
            else:
                counts["forced_fixed_point"] += 1
    return {
        "carrier": cfg.carrier_size,
        "E": sorted(cfg.support),
        "n": cfg.n,
        "pairs": len(s_pool) * len(t_pool),
        "missing_moved": counts["missing_moved"],
        "extra_outside": counts["extra_outside"],
        "forced_fixed_point": counts["forced_fixed_point"],
        "escapes": escapes,
    }
