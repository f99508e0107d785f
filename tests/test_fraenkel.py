from itertools import combinations, permutations
from math import comb
from operator import eq

import pytest

from fiberbound import fraenkel
from fiberbound.errors import BadParametersError, BudgetExceededError
from fiberbound.fraenkel import (ExtraOutside, ForcedFixedPoint, MissingMoved,
                                 PreconditionFail, SupportConfig, classify,
                                 _verify, perms_moving_exactly, scan)
from fiberbound.inject import Tableau
from fiberbound.partitions import derangement
from fiberbound.perms import FinPerm
from helpers import cycle_text

c = FinPerm.cycle
CFG = SupportConfig(frozenset({0}), 2, 8)


def test_config_validation():
    with pytest.raises(BadParametersError):
        SupportConfig(frozenset({0}), 1, 8)
    with pytest.raises(BadParametersError):
        SupportConfig(frozenset({0, 1, 2}), 2, 5)
    with pytest.raises(BadParametersError):
        SupportConfig(frozenset({9}), 2, 8)
    with pytest.raises(BadParametersError):
        SupportConfig(frozenset({True}), 2, 6)
    with pytest.raises(BadParametersError):
        SupportConfig(frozenset({1.5}), 2, 6)
    for support in ([0], (0,)):
        with pytest.raises(BadParametersError):
            SupportConfig(support, 2, 8)
    for n, carrier_size in ((2, 6.0), (2.0, 6), (True, 6), (2, "6")):
        with pytest.raises(BadParametersError):
            SupportConfig(frozenset(), n, carrier_size)


def test_missing_moved_branch():
    v = classify(c([1, 2]), c([3, 4, 5]), CFG)
    assert isinstance(v, MissingMoved)
    assert v.atom == 1
    pi6, pi7 = FinPerm.cycle([1, 6]), FinPerm.cycle([1, 7])
    assert v.samples == (pi6.after(c([1, 2])).after(pi6),
                         pi7.after(c([1, 2])).after(pi7))
    assert len(set(v.samples)) == 2


def test_extra_outside_branch():
    v = classify(c([1, 2]), c([1, 2, 3]), CFG)
    assert isinstance(v, ExtraOutside)
    assert v.atom == 3
    assert v.swap == c([3, 4])
    assert v.conjugate == c([1, 2, 4])
    assert v.conjugate != c([1, 2, 3])


def test_forced_fixed_point_branch():
    s, t = c([1, 2]), c([0, 1, 2])
    v = classify(s, t, CFG)
    assert isinstance(v, ForcedFixedPoint)
    assert v.support_atom == 0
    assert v.image == 1
    assert v.image in s.moved
    assert v.conjugate == FinPerm.parse("(0;2;1)")
    assert v.conjugate != t


@pytest.mark.parametrize("n, e", [(n, e) for n in (2, 3) for e in range(5) if e + n + 2 <= 8])
def test_forced_fixed_point_shape_over_the_scan_pools(monkeypatch, n, e):
    # every pair scan classifies at carrier 8: branch 3 always finds its one
    # support atom in E and sends it into moved(s)
    verdicts = []

    def recorded(s, t, cfg):
        verdict = classify(s, t, cfg)
        verdicts.append((s, verdict))
        return verdict

    monkeypatch.setattr(fraenkel, "classify", recorded)
    cfg = SupportConfig(frozenset(range(e)), n, 8)
    assert scan(cfg)["escapes"] == 0
    forced = [(s, v) for s, v in verdicts if isinstance(v, ForcedFixedPoint)]
    assert bool(forced) == (e > 0)
    for s, v in forced:
        assert v.support_atom in cfg.support
        assert v.image in s.moved


def test_precondition_failures():
    assert isinstance(classify(c([1, 2, 3]), c([3, 4, 5]), CFG), PreconditionFail)
    assert isinstance(classify(c([1, 2]), c([3, 4]), CFG), PreconditionFail)
    assert isinstance(classify(c([0, 1]), c([3, 4, 5]), CFG), PreconditionFail)
    big = classify(c([1, 20]), c([3, 4, 5]), CFG)
    assert isinstance(big, PreconditionFail)


def test_perms_moving_exactly_counts():
    assert len(list(perms_moving_exactly(iter(range(6)), 0))) == 1
    assert len(list(perms_moving_exactly(iter(range(6)), 2))) == 15
    assert len(list(perms_moving_exactly(iter(range(6)), 3))) == 40
    assert len(list(perms_moving_exactly(iter(range(7)), 4))) == 315


def _criterion_1_pool(n, m):
    reserved = len(Tableau(n, m).reserved)
    return list(range(reserved + 4))


# each criterion 1 pool at counts 0..3, which hold every count the codec
# sweeps; its count-5 sweep of (3, 5) alone would be 12 million permutations
@pytest.mark.parametrize("pool, counts", [
    (list(range(8)), range(6)),
    ([40, 3, 17, 1000, 8, 2, 9], range(6)),
    (_criterion_1_pool(2, 4), range(4)),
    (_criterion_1_pool(2, 5), range(4)),
    (_criterion_1_pool(3, 5), range(4)),
], ids=["sorted", "unsorted-sparse", "criterion-1-2-4", "criterion-1-2-5", "criterion-1-3-5"])
def test_perms_moving_exactly_matches_the_filtered_permutations(pool, counts):
    # the reference: every permutation of each subset of the sorted pool, in
    # the order itertools gives them, minus those with a fixed point
    for count in counts:
        want = [dict(zip(subset, image))
                for subset in combinations(sorted(pool), count)
                for image in permutations(subset)
                if not any(map(eq, subset, image))]
        got = list(perms_moving_exactly(iter(pool), count))
        assert [p._map for p in got] == want
        for p in got:
            if count:
                # the kept text, set as the permutation is yielded
                assert p._text == cycle_text(p)
            else:
                assert p.to_cycles() == cycle_text(p) == "()"


def test_count_past_the_pool_yields_nothing_and_builds_no_table(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the derangement table was built")

    fraenkel._shapes.cache_clear()
    monkeypatch.setattr(fraenkel, "permutations", unreachable)
    assert list(perms_moving_exactly(iter([4, 1, 6]), 4)) == []
    assert list(perms_moving_exactly(iter([]), 2)) == []
    assert fraenkel._shapes.cache_info().currsize == 0


@pytest.mark.parametrize("atoms, count", [
    ([0, 1, 2], -1),
    ([0, 0, 1, 1], 2),
    ([0, -1, 2], 2),
    ([0, "1", 2], 2),
    ([5, 5], 0),
    ([0, 1, 2], True),
    ([0, 1, 2], 2.0),
], ids=["negative-count", "repeated-atom", "negative-atom", "non-int-atom",
        "checked-before-identity", "bool-count", "float-count"])
def test_perms_moving_exactly_rejects_bad_pools(atoms, count):
    with pytest.raises(BadParametersError):
        next(perms_moving_exactly(iter(atoms), count))


def test_scan_carrier_six():
    report = scan(SupportConfig(frozenset({0}), 2, 6))
    assert report["pairs"] == 400
    assert report["escapes"] == 0
    assert (report["missing_moved"] + report["extra_outside"]
            + report["forced_fixed_point"]) == 400


def test_scan_empty_support_never_reaches_branch_three():
    report = scan(SupportConfig(frozenset(), 2, 6))
    assert report["forced_fixed_point"] == 0
    assert report["escapes"] == 0
    assert report["pairs"] == report["missing_moved"] + report["extra_outside"]


def test_scan_two_atom_support():
    report = scan(SupportConfig(frozenset({0, 1}), 2, 7))
    assert report["pairs"] == 10 * (35 * 2)
    assert report["escapes"] == 0
    assert report["forced_fixed_point"] > 0


def exhaustive_scan(cfg):
    """Reference: classify every eligible (s, t) pair over the whole carrier."""
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
            elif isinstance(verdict, MissingMoved):
                counts["missing_moved"] += 1
            elif isinstance(verdict, ExtraOutside):
                counts["extra_outside"] += 1
            else:
                counts["forced_fixed_point"] += 1
    return {"carrier": cfg.carrier_size, "E": sorted(cfg.support), "n": cfg.n,
            "pairs": len(s_pool) * len(t_pool), **counts, "escapes": escapes}


# E is spread over the carrier (odd atoms) so that the representatives must
# skip support atoms; carrier 8 with n = 3 is left out as the one slow case
REFERENCE_CONFIGS = [(carrier, e, n) for carrier in (6, 7, 8) for e in range(5)
                     for n in (2, 3)
                     if carrier >= e + n + 2 and (carrier, n) != (8, 3)]


@pytest.mark.parametrize("carrier, e, n", REFERENCE_CONFIGS)
def test_orbit_scan_matches_exhaustive_reference(carrier, e, n):
    cfg = SupportConfig(frozenset(range(1, 2 * e, 2)), n, carrier)
    # items, not dicts, so the field order is compared too
    assert list(scan(cfg).items()) == list(exhaustive_scan(cfg).items())


def test_scan_past_the_old_carrier_cap():
    cfg = SupportConfig(frozenset({0}), 3, 64)
    report = scan(cfg)
    pairs = comb(63, 3) * derangement(3) * comb(64, 4) * derangement(4)
    assert report["pairs"] == pairs
    assert report["escapes"] == 0
    assert (report["missing_moved"] + report["extra_outside"]
            + report["forced_fixed_point"]) == pairs


# Whole scan reports as literals: the exhaustive reference above runs the
# same classify and _verify as scan, so only literals catch a change that
# alters both sides alike.
PINNED_REPORTS = [
    (8, 2, [], [3136, 2800, 336, 0, 0]),
    (8, 2, [0], [2352, 2100, 210, 42, 0]),
    (8, 2, [0, 1], [1680, 1500, 120, 60, 0]),
    (8, 2, [0, 1, 2], [1120, 1000, 60, 60, 0]),
    (8, 2, [0, 1, 2, 3], [672, 600, 24, 48, 0]),
    (64, 3, [0], [454165494048, 454121891370, 42887880, 714798, 0]),
    (64, 4, [0], [1798495356430080, 1798481203429680, 13917117060, 235883340, 0]),
    (64, 4, [0, 1, 2], [1575640325064960, 1575627925790160, 11779311060, 619963740, 0]),
]


@pytest.mark.parametrize("carrier, n, support, counts", PINNED_REPORTS,
                         ids=[f"c{c}-n{n}-E{len(e)}" for c, n, e, _ in PINNED_REPORTS])
def test_scan_reports_are_pinned(carrier, n, support, counts):
    report = scan(SupportConfig(frozenset(support), n, carrier))
    keys = ("pairs", "missing_moved", "extra_outside", "forced_fixed_point", "escapes")
    assert list(report.items()) == [("carrier", carrier), ("E", support), ("n", n),
                                    *zip(keys, counts)]


def test_scan_guard(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the guard must refuse before enumerating")

    monkeypatch.setattr(fraenkel, "perms_moving_exactly", unreachable)
    monkeypatch.setattr(fraenkel, "classify", unreachable)
    for cfg in (SupportConfig(frozenset(), 5, 8), SupportConfig(frozenset(), 6, 8),
                SupportConfig(frozenset({0}), 5, 64), SupportConfig(frozenset(), 20, 44)):
        with pytest.raises(BudgetExceededError):
            scan(cfg)


@pytest.mark.parametrize("forged", [(c([6, 7]), c([6, 8])), (c([2, 3]), c([2, 6]))])
def test_verify_rejects_forged_missing_moved_samples(forged):
    s, t = c([1, 2]), c([3, 4, 5])
    assert _verify(classify(s, t, CFG), s, t, CFG)
    assert not _verify(MissingMoved(1, forged), s, t, CFG)


# (s, t) pairs whose honest verdicts take branches 1, 2 and 3
MM_PAIR = (c([1, 2]), c([3, 4, 5]))
EO_PAIR = (c([1, 2]), c([1, 2, 3]))
FF_PAIR = (c([1, 2]), c([0, 1, 2]))
# each corrupts one field of the honest verdict on the pair, or the pair's s
CORRUPTIONS = {
    # t moves atom 1, and only the atom check sees it: the samples are honest for it
    "mm-atom-moved-by-t": (EO_PAIR, lambda v, s: (MissingMoved(1, (c([2, 6]), c([2, 7]))), s)),
    "mm-one-sample": (MM_PAIR, lambda v, s: (MissingMoved(v.atom, v.samples[:1]), s)),
    "mm-repeated-sample": (MM_PAIR, lambda v, s: (MissingMoved(v.atom, v.samples[:1] * 2), s)),
    # s = (1 2) conjugated by (1 0) and by (1 3): the swap moves E, then moved(t)
    "mm-added-atom-in-e": (MM_PAIR, lambda v, s: (
        MissingMoved(v.atom, (c([0, 2]), v.samples[1])), s)),
    "mm-added-atom-moved-by-t": (MM_PAIR, lambda v, s: (
        MissingMoved(v.atom, (c([3, 2]), v.samples[1])), s)),
    # unchecked samples whose added atom names no swap: each must be refused, not raise
    "mm-added-atom-negative": (MM_PAIR, lambda v, s: (
        MissingMoved(v.atom, (FinPerm._of({-1: 2, 2: -1}), v.samples[1])), s)),
    # s = (2 3), where True adds an atom equal to 1 outside moved(s)
    "mm-added-atom-bool": ((c([2, 3]), c([4, 5, 6])), lambda v, s: (
        MissingMoved(v.atom, (FinPerm._of({True: 3, 3: True}), v.samples[1])), s)),
    # True equals atom 1 of s but is not an int atom
    "mm-atom-bool": (MM_PAIR, lambda v, s: (MissingMoved(True, v.samples), s)),
    # the swap and conjugate stay honest for atom 3; only the atom is wrong
    "eo-atom-not-moved-by-t": (EO_PAIR, lambda v, s: (ExtraOutside(4, v.swap, v.conjugate), s)),
    "eo-atom-moved-by-s": (EO_PAIR, lambda v, s: (ExtraOutside(1, v.swap, v.conjugate), s)),
    # the swap moves the atom, and with it moved(s), then E: no check on the atom
    # alone is left to refuse these, the swap's disjointness tests do
    "eo-atom-moved-by-s-and-swap": (EO_PAIR, lambda v, s: (
        ExtraOutside(1, c([1, 5]), c([2, 3, 5])), s)),
    "eo-atom-in-e-and-swap": (FF_PAIR, lambda v, s: (ExtraOutside(0, c([0, 5]), c([1, 2, 5])), s)),
    # each forged swap comes with the conjugate it gives, so only the swap is wrong
    "eo-swap-moves-moved-s": (EO_PAIR, lambda v, s: (
        ExtraOutside(v.atom, c([1, 3]), c([1, 3, 2])), s)),
    "eo-swap-moves-e": (EO_PAIR, lambda v, s: (ExtraOutside(v.atom, c([0, 3]), c([0, 1, 2])), s)),
    # with s = (1 7) the swap (2 5) fixes E and moved(s) and changes t, but not atom 3
    "eo-swap-fixes-its-atom": (EO_PAIR, lambda v, s: (
        ExtraOutside(v.atom, c([2, 5]), c([1, 5, 3])), c([1, 7]))),
    "eo-wrong-conjugate": (EO_PAIR, lambda v, s: (ExtraOutside(v.atom, v.swap, c([1, 2, 5])), s)),
    # (5 6) fixes E and moved(s) but also t, so the conjugate it gives is t
    "eo-swap-fixes-t": (EO_PAIR, lambda v, s: (ExtraOutside(v.atom, c([5, 6]), c([1, 2, 3])), s)),
    "ff-atom-outside-e": (FF_PAIR, lambda v, s: (ForcedFixedPoint(3, v.image, v.conjugate), s)),
    "ff-image-not-t-of-e": (FF_PAIR, lambda v, s: (ForcedFixedPoint(0, 2, v.conjugate), s)),
    # s = (2 3) fixes E, and t^s = (0 1 3), but t(0) = 1 is not moved by s
    "ff-image-not-moved-by-s": (FF_PAIR, lambda v, s: (
        ForcedFixedPoint(0, 1, c([0, 1, 3])), c([2, 3]))),
    "ff-wrong-conjugate": (FF_PAIR, lambda v, s: (ForcedFixedPoint(0, v.image, c([0, 1, 3])), s)),
    "ff-s-moves-e": (FF_PAIR, lambda v, s: (v, c([0, 1]))),
    "precondition-fail": (MM_PAIR, lambda v, s: (PreconditionFail("not a probe"), s)),
}


@pytest.mark.parametrize("pair, corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_verify_rejects_each_corrupted_verdict(pair, corrupt):
    s, t = pair
    honest = classify(s, t, CFG)
    assert _verify(honest, s, t, CFG)
    verdict, s = corrupt(honest, s)
    assert _verify(verdict, s, t, CFG) is False


def test_scan_counts_unverified_verdicts_as_escapes(monkeypatch):
    monkeypatch.setattr(fraenkel, "classify", lambda s, t, cfg: MissingMoved(-1, ()))
    report = scan(CFG)
    assert report["escapes"] == report["pairs"] > 0
    assert report["missing_moved"] == report["extra_outside"] == report["forced_fixed_point"] == 0
