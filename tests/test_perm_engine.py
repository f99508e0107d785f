import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberbound import perm_engine
from fiberbound.atoms import SetSpec
from fiberbound.auditing import compute_bounds
from fiberbound.errors import (BadParametersError, InfeasibleRunError, OracleCodomainError,
                               OverflowGuardError)
from fiberbound.oracles import pool_perm_oracle, truncate_oracle
from fiberbound.perm_engine import (FamilyIndex, PermDiagEngine, assemble, build_family,
                                    strict_bounds, stuck_answer_bound)
from fiberbound.perms import FinPerm
from format1 import expand_traces
from helpers import build_family as reference_family

c = FinPerm.cycle


def memo_injective():
    # memoised injective oracle: each new input gets the next transposition
    memo = {}

    def injective(s):
        if s not in memo:
            memo[s] = c([0, len(memo) + 1])
        return memo[s]

    return injective


def driver_seeds(count):
    engine = PermDiagEngine(2, 1, truncate_oracle(2), "opportunistic", count)
    return engine.g[:engine.seed_count]


def test_seed_transpositions():
    assert [str(s) for s in driver_seeds(3)] == ["(1000;1001)", "(1000;1002)", "(1000;1003)"]
    forty = driver_seeds(40)
    assert len(set(forty)) == len(forty) == 40
    assert (forty[0], forty[-1]) == (c([1000, 1001]), c([1000, 1040]))
    with pytest.raises(BadParametersError, match="seed count must be at least 1"):
        driver_seeds(0)


def family(values):
    # build_family on the first-occurrence record of an answer list
    answers = {}
    for idx, v in enumerate(values):
        answers.setdefault(v, idx)
    return build_family(answers, len(values), FamilyIndex())


def test_build_family_single_value_sticks():
    entries, stuck = family([c([1, 2]), c([1, 2])])
    assert len(entries) == 1
    assert entries[0].case == 1 and entries[0].i == 0 and entries[0].x == 1
    assert entries[0].perm == c([1, 2])
    assert stuck == (1, frozenset({1, 2}))


def test_build_family_identity_values_stick_immediately():
    entries, stuck = family([FinPerm.identity()] * 4)
    assert entries == []
    assert stuck == (0, frozenset())


def test_build_family_case_two_formula():
    # with {1} occupied, answers (1;3) and (1;4) disagree outward at 1
    s0, s1 = c([1, 3]), c([1, 4])
    t = s1.after(s0.inverse()).deflate(SetSpec.cofinite({1}))
    assert t == c([3, 4])


def test_build_family_full_run():
    values = [c([1000, 1001 + j]) for j in range(8)]
    entries, stuck = family(values)
    assert stuck is None
    assert len(entries) == 4  # levels 0..3
    assert entries[0].case == 1
    assert all(e.case == 2 for e in entries[1:])
    supports = [e.perm.moved for e in entries]
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            assert not (supports[i] & supports[j])


def brute_family(values, n):
    # reference route: scan raw index pairs with no first-occurrence cut
    m = len(values)
    top = m.bit_length() - 1
    out = []
    occupied = set()
    for level in range(top + 1):
        chosen = None
        for i, s in enumerate(values):
            xs = [x for x in s.moved if x not in occupied and s(x) not in occupied]
            if xs:
                chosen = (1, i, None, min(xs), s.deflate(SetSpec.cofinite(occupied)))
                break
        if chosen is None:
            for i in range(m):
                for j in range(i + 1, m):
                    xs = [x for x in occupied
                          if values[i](x) != values[j](x)
                          and values[i](x) not in occupied and values[j](x) not in occupied]
                    if xs:
                        chosen = (2, i, j, min(xs),
                                  values[j].after(values[i].inverse()).deflate(
                                      SetSpec.cofinite(occupied)))
                        break
                if chosen:
                    break
        if chosen is None:
            return out, (level, frozenset(occupied))
        out.append(chosen)
        occupied |= chosen[4].moved
    return out, None


@st.composite
def small_value_lists(draw):
    pool = [FinPerm.identity()] + [c(list(pair)) for pair in
                                   [(0, 1), (0, 2), (1, 2), (2, 3), (0, 3), (1, 3)]]
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))


@given(small_value_lists())
@settings(max_examples=200)
def test_family_matches_raw_pair_scan(values):
    got_entries, got_stuck = family(values)
    want, want_stuck = brute_family(values, 2)
    assert got_stuck == want_stuck
    assert [(e.case, e.i, e.j, e.x, e.perm) for e in got_entries] == want


def answer_perms(n):
    # permutations moving at most n of the atoms 0..5; truncate-style
    # transpositions sharing the atom 0 make case-2 levels common
    moving = (st.lists(st.integers(0, 5), unique=True, max_size=n)
              .flatmap(lambda pts: st.permutations(pts).map(lambda img: FinPerm(dict(zip(pts, img))))))
    if n < 2:
        return moving
    return st.one_of(moving, st.integers(1, 5).map(lambda j: c([0, j])))


@st.composite
def wide_value_lists(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    return draw(st.lists(answer_perms(n), min_size=1, max_size=16)), n


@given(wide_value_lists())
@settings(max_examples=300)
# level 1 is case 2, and the pair disagrees outward at 1 before 0 in map order
@example(([c([0, 1]), FinPerm({1: 2, 2: 1, 0: 3, 3: 0}), FinPerm({0: 4, 4: 0, 1: 5, 5: 1})], 4))
# level 1 is case 2; the first answer of the pair is live at 0 and 1, the second only at 1
@example(([c([0, 1]), FinPerm({0: 2, 2: 0, 1: 3, 3: 1}), c([1, 4])], 4))
def test_family_matches_raw_pair_scan_on_wide_answers(drawn):
    # 3- and 4-cycles give answers whose reach holds several atoms
    values, n = drawn
    got_entries, got_stuck = family(values)
    want, want_stuck = brute_family(values, n)
    assert got_stuck == want_stuck
    assert [(e.case, e.i, e.j, e.x, e.perm) for e in got_entries] == want


def check_members(entries, n):
    # the four member properties build_family holds by construction
    occupied = set()
    for level, e in enumerate(entries):
        moved = e.perm._map.keys()
        assert moved, "family members must be nontrivial"
        assert len(moved) <= 2 * n
        assert moved.isdisjoint(occupied)
        assert len(occupied) <= 2 * n * level
        occupied.update(moved)


def test_reference_member_checks_run_under_python_O():
    # conftest.py registers helpers for assert rewriting, so the reference
    # build's member asserts fire even where python -O strips asserts: a
    # transposition moves two points, over 2n = 0
    with pytest.raises(AssertionError):
        reference_family({FinPerm.cycle([0, 1]): 0}, 1, 0)


def grow_family(values, n):
    # feed the first-occurrence record one answer at a time through one
    # family index and compare every call with the reference given the last
    # call's entries as prev, with the reference built from nothing, and
    # with the same call on a fresh index.  After each call the index holds
    # the entries list the call returned, and every indexed answer that
    # escapes is on its heap.  Returns the cases seen.
    answers = {}
    prev = prev_stuck = None
    index = FamilyIndex()
    seen = set()
    for idx, v in enumerate(values):
        answers.setdefault(v, idx)
        want = reference_family(answers, idx + 1, n, prev)
        assert want == reference_family(answers, idx + 1, n)
        entries, stuck = build_family(answers, idx + 1, index)
        assert index.entries is entries
        heap = set(index.heap)
        assert all(p in heap for p, escaping in enumerate(index.escapes) if escaping)
        assert (entries, stuck) == want == build_family(answers, idx + 1, FamilyIndex())
        check_members(entries, n)
        if prev is not None:
            for old, new in zip(prev, entries):
                if old.case != 1:
                    break
                assert new is old
                seen.add("kept")
        if prev is not None:
            first = next((e.level for e in prev if e.case == 2), None)
            if first is not None and entries[first].case == 1:
                seen.add("rollback")
        if prev_stuck is not None and len(entries) > prev_stuck:
            seen.add("unstuck")
        seen.update(e.case for e in entries)
        if stuck is not None:
            seen.add("stuck")
        prev, prev_stuck = entries, stuck and stuck[0]
    return seen


@st.composite
def growing_answers(draw):
    # a prefix of transpositions sharing the atom 0 makes case-2 and stuck
    # levels; cycles on the atoms 6..11 escape the levels that answers on
    # 0..5 fill, so one arriving later turns the first case-2 level into case 1
    n = draw(st.sampled_from([1, 2, 3]))
    if n == 1:
        return draw(st.lists(answer_perms(n), min_size=1, max_size=20)), n
    shared = st.integers(1, 5).map(lambda j: c([0, j]))
    late = st.lists(st.integers(6, 11), min_size=2, max_size=n, unique=True).map(c)
    return (draw(st.lists(shared, max_size=8))
            + draw(st.lists(st.one_of(answer_perms(n), late), min_size=1, max_size=14))), n


@given(growing_answers())
@settings(max_examples=300)
def test_incremental_family_matches_a_fresh_build(drawn):
    values, n = drawn
    grow_family(values, n)


@pytest.mark.parametrize("values, cases", [
    # truncate-style answers share the base atom: stuck, then case 2, per level
    ([c([0, 1 + j]) for j in range(12)], {1, 2, "stuck", "unstuck", "kept"}),
    # a single repeated answer sticks at level 1 for good
    ([c([1, 2])] * 9, {1, "stuck", "kept"}),
    # level 1 is case 2 at m = 3 and turns into case 1 when (5;6) arrives
    ([c([0, 1]), c([0, 2]), c([0, 3]), c([5, 6])], {1, 2, "stuck", "unstuck", "rollback", "kept"}),
], ids=["shared-base", "repeated", "case-2-to-case-1"])
def test_incremental_family_examples_reach_each_case(values, cases):
    assert grow_family(values, 2) == cases


def test_assemble_examples():
    entries, _ = family([c([1000, 1001 + j]) for j in range(4)])
    members = [e.perm for e in entries]
    assert assemble(entries, []) == FinPerm.identity()
    assert assemble(entries, [0]) == members[0]
    both = assemble(entries, [0, 1])
    assert both == members[0].after(members[1])


def test_assemble_injective():
    entries, stuck = family([c([1000, 1001 + j]) for j in range(1000)])
    assert stuck is None
    width = len(entries)
    assert width == 10
    seen = {assemble(entries, [i for i in range(width) if mask >> i & 1])
            for mask in range(1 << width)}
    assert len(seen) == 1 << width


def test_strict_low_n_violates_at_seed_queries():
    cert = PermDiagEngine(1, 1, truncate_oracle(1), mode="strict").run(5)
    assert cert["kind"] == "ledger-violation"
    assert len(cert["outputs"]) == 2
    assert cert["violation"]["output"] == "()"
    assert len(cert["violation"]["witnesses"]) == 2
    assert cert["all_distinct"]


def test_strict_high_n_refused():
    with pytest.raises(InfeasibleRunError, match=r"^strict mode needs 6098446 seeds \(m0 = 6098445\); "
                                                 "use opportunistic mode$"):
        PermDiagEngine(3, 1, truncate_oracle(3), mode="strict")


@pytest.mark.parametrize("n, k, paper, sharp", [
    (1, 1, (8, 256), (0, 1)),
    (1, 2, (9, 648), (1, 2)),
    (2, 1, (27, 136_048_896), (12, 4_561)),
    (2, 2, (28, 314_703_872), (13, 10_714)),
    (2, 5, (29, 905_319_680), (15, 35_705)),
    (3, 1, (49, 645_779_095_649_856), (22, 6_098_445)),
])
def test_strict_bounds_table(n, k, paper, sharp):
    want = compute_bounds(n, k)
    assert (want.l0, want.m0) == paper
    got = strict_bounds(n, k)
    assert (got.n, got.k, got.l0, got.m0) == (n, k) + sharp


@pytest.mark.parametrize("k", [1, 2, 3, 7, 64])
def test_strict_bounds_at_n0_are_the_papers(k):
    assert strict_bounds(0, k) == compute_bounds(0, k)


@pytest.mark.parametrize("n, l", [(1, 1), (1, 2), (2, 1)])
def test_stuck_answer_bound_counts_small_perms(n, l):
    # the permutations of 4nl atoms that move at most n of them
    atoms = range(4 * n * l)
    count = sum(1 for image in itertools.permutations(atoms)
                if sum(a != b for a, b in zip(atoms, image)) <= n)
    assert stuck_answer_bound(n, l) == count


def test_strict_bounds_are_least_and_valid():
    checked = 0
    for n in range(1, 4):
        for k in range(1, 65):
            try:
                paper = compute_bounds(n, k)
            except OverflowGuardError:
                continue
            sharp = strict_bounds(n, k)
            assert sharp.m0 <= paper.m0
            assert sharp.m0 == k * stuck_answer_bound(n, sharp.l0)
            if sharp.l0 > 0:
                assert k * stuck_answer_bound(n, sharp.l0) >= 2**sharp.l0
            for l in range(sharp.l0 + 1, paper.l0 + 65):
                assert k * stuck_answer_bound(n, l) < 2**l
            for l in range(1, paper.l0 + 65):
                assert stuck_answer_bound(n, l) <= (2 * n * l) ** (2 * n)
            checked += 1
    assert checked > 64


@st.composite
def stuck_candidates(draw):
    # n = 2 answers moving at most 2 of 10 atoms, one equal pair the identity,
    # and any m covering them
    pairs = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=24))
    values = [c([a, b]) if a != b else FinPerm.identity() for a, b in pairs]
    return values, draw(st.integers(len(values), 64))


@given(stuck_candidates())
@settings(max_examples=200)
def test_stuck_family_counting_lemma(drawn):
    # the argument behind strict_bounds, on the real build_family
    values, m = drawn
    n = 2
    answers = {}
    for idx, v in enumerate(values):
        answers.setdefault(v, idx)
    _, stuck = build_family(answers, m, FamilyIndex())
    if stuck is None:
        return
    level, occupied = stuck
    images = {}
    for s in answers:
        for x, y in s.moved_map.items():
            if x in occupied and y not in occupied:
                images.setdefault(x, set()).add(y)
    assert all(len(ys) == 1 for ys in images.values())
    closure = occupied.union(*images.values())
    for s in answers:
        assert s.moved <= closure
    assert len(closure) <= 4 * n * level
    assert len(answers) <= stuck_answer_bound(n, level)


def hash_injective(s):
    # stateless: a transposition on two atoms named by a hash of the moved map
    h = 0
    for a, b in sorted(s.moved_map.items()):
        h = (h * 1_000_003 + a * 65_537 + b) % (2**61 - 1)
    return c([2 * h, 2 * h + 1])


@pytest.mark.parametrize("oracle, steps, kind", [
    (truncate_oracle(2), 50, "ledger-violation"),
    (pool_perm_oracle(10, 2), 50, "ledger-violation"),
    (hash_injective, 20, "perm-diag"),
], ids=["truncate", "pool-10", "injective"])
def test_strict_n2_runs(oracle, steps, kind):
    engine = PermDiagEngine(2, 1, oracle, mode="strict")
    assert engine.seed_count == 4_562
    cert = engine.run(steps)
    assert cert["kind"] == kind
    assert (cert["l0"], cert["m0"]) == (12, 4_561)
    assert len(cert["outputs"]) - cert["steps"] == cert["m0"] + 1
    assert cert["all_distinct"]
    if kind == "perm-diag":
        assert cert["steps"] == steps
        assert all(t["stuck_at"] is None and not t["fallback"] for t in cert["traces"])


def test_strict_certificates_count_sharp_seeds():
    for n, k in [(0, 3), (1, 1), (1, 2), (1, 5)]:
        cert = PermDiagEngine(n, k, truncate_oracle(n), mode="strict").run(3)
        assert len(cert["outputs"]) - cert["steps"] == strict_bounds(n, k).m0 + 1


def test_opportunistic_pool_pigeonhole():
    cert = PermDiagEngine(2, 1, pool_perm_oracle(10, 2), mode="opportunistic",
                          seed_count=64).run(50)
    assert cert["kind"] == "ledger-violation"
    assert len(cert["violation"]["witnesses"]) == 2


def test_opportunistic_fresh_stream():
    # injective oracle: never violates, every step must construct
    cert = PermDiagEngine(2, 1, memo_injective(), mode="opportunistic", seed_count=8).run(20)
    assert cert["kind"] == "perm-diag"
    assert cert["steps"] == 20
    assert len(cert["outputs"]) == 28
    assert cert["all_distinct"]
    for trace in expand_traces(cert):
        assert trace["stuck_at"] is None or trace["fallback"]
        seen = set()
        for entry in trace["family"]:
            member = FinPerm.parse(entry["t"])
            assert member.moved and len(member.moved) <= 4
            assert not (member.moved & seen)
            seen |= member.moved


def test_opportunistic_fallback_on_constant_oracle():
    cert = PermDiagEngine(2, 10, lambda s: c([1, 2]), mode="opportunistic", seed_count=2).run(3)
    assert cert["kind"] == "perm-diag"
    assert cert["steps"] == 3
    fallbacks = [t for t in cert["traces"] if t["fallback"]]
    assert fallbacks
    for t in fallbacks:
        assert t["stuck_at"] is not None
        assert t["chosen_a"] is None
    assert cert["all_distinct"]


def test_candidate_order_prefers_empty_set():
    # with fresh seeds the first constructed value is the identity
    engine = PermDiagEngine(2, 1, memo_injective(), mode="opportunistic", seed_count=8)
    trace = engine.step()
    assert trace["chosen_a"] == []
    assert str(engine.g[-1]) == "()"


def test_oracle_codomain_checked():
    engine = PermDiagEngine(2, 1, lambda s: c([1, 2, 3, 4, 5]),
                            mode="opportunistic", seed_count=2)
    with pytest.raises(OracleCodomainError):
        engine.step()


def test_steps_validation():
    with pytest.raises(BadParametersError):
        PermDiagEngine(1, 1, truncate_oracle(1), mode="strict").run(0)


def test_flipping_oracle_detected():
    from fiberbound.errors import InconsistentOracleError

    calls = {"n": 0}

    def unstable(s):
        calls["n"] += 1
        return c([0, 1]) if calls["n"] <= 8 else c([0, 2])

    engine = PermDiagEngine(2, 64, unstable, mode="opportunistic", seed_count=8)
    engine.step()
    with pytest.raises(InconsistentOracleError):
        engine.step()


def test_stuck_in_strict_reports_inconsistency(monkeypatch):
    engine = PermDiagEngine(1, 4, lambda s: FinPerm.identity(), mode="opportunistic",
                            seed_count=4)
    engine.mode = "strict"
    monkeypatch.setattr("fiberbound.perm_engine.build_family",
                        lambda answers, m, index: ([], (0, frozenset())))
    cert = engine.run(3)
    assert cert["kind"] == "stuck"
    assert cert["traces"][-1]["stuck_at"] == [0, []]


def test_family_reads_the_driver_answer_record(monkeypatch):
    engine = PermDiagEngine(2, 8, pool_perm_oracle(10, 2), mode="opportunistic", seed_count=8)
    seen = []
    returned = []

    def spy(answers, m, index):
        seen.append((answers, m))
        # each step passes the engine's index, which holds the entries list
        # the last step's build returned
        assert index is engine._index
        if returned:
            assert index.entries is returned[-1]
        else:
            assert index.entries == []
        result = build_family(answers, m, index)
        returned.append(result[0])
        return result

    monkeypatch.setattr("fiberbound.perm_engine.build_family", spy)
    cert = engine.run(20)
    assert cert["steps"] == 20
    assert [m for _, m in seen] == list(range(8, 28))
    assert all(answers is engine.answers for answers, _ in seen)


def test_exhausted_walk_reports_stuck(monkeypatch):
    engine = PermDiagEngine(2, 1, memo_injective(), mode="opportunistic", seed_count=8)
    calls = []

    def stale(entries, indices):
        calls.append(indices)
        return engine.g[0]

    monkeypatch.setattr("fiberbound.perm_engine.assemble", stale)
    cert = engine.run(2)
    assert cert["kind"] == "stuck"
    assert cert["steps"] == 0
    # the stale candidates are distinct, so the walk gives up after m + 1
    assert len(calls) <= len(engine.g) + 1


@pytest.mark.parametrize("oracle, k, steps, counts_starts", [
    (memo_injective, 1, 40, True),
    (lambda: pool_perm_oracle(10, 2), 8, 30, False),
], ids=["injective", "pool-fallbacks"])
def test_resumed_walk_matches_a_restarted_walk(monkeypatch, oracle, k, steps, counts_starts):
    starts = []
    index_sets = perm_engine._index_sets

    def counted(width):
        starts.append(width)
        return index_sets(width)

    monkeypatch.setattr("fiberbound.perm_engine._index_sets", counted)
    cert = PermDiagEngine(2, k, oracle(), mode="opportunistic", seed_count=8).run(steps)
    assert cert["kind"] == "perm-diag" and len(cert["traces"]) == steps
    if counts_starts:
        assert 1 < len(starts) < steps
    else:
        assert any(t["fallback"] for t in cert["traces"])
    seeds = [f"(1000;{1001 + j})" for j in range(8)]
    assert cert["outputs"][:8] == seeds
    # recompute every walk from the certificate alone, starting at the empty set
    for i, trace in enumerate(expand_traces(cert)):
        if trace["fallback"]:
            continue
        emitted = set(seeds + cert["outputs"][8:8 + i])
        members = [FinPerm.parse(e["t"]) for e in trace["family"]]
        width = len(members)
        for value in range(1 << width):
            chosen = [j for j in range(width) if value >> (width - 1 - j) & 1]
            product = FinPerm.identity()
            for j in chosen:
                product = product.after(members[j])
            if product.to_cycles() not in emitted:
                break
        else:
            pytest.fail(f"no fresh candidate at trace {i}")
        assert chosen == trace["chosen_a"]
        assert product.to_cycles() == trace["result"]


@pytest.mark.parametrize("oracle, k, mode, seed_count, steps", [
    (lambda: truncate_oracle(2), 8, "opportunistic", 64, 120),
    (lambda: truncate_oracle(2), 20, "opportunistic", 64, 120),
    (lambda: pool_perm_oracle(1, 2), 8, "opportunistic", 4, 20),
    (lambda: pool_perm_oracle(2, 2), 8, "opportunistic", 8, 40),
    (lambda: pool_perm_oracle(10, 2), 8, "opportunistic", 8, 80),
    (memo_injective, 1, "opportunistic", 8, 60),
    # strict mode seeds m0 + 1 witnesses whatever the seed count
    (lambda: truncate_oracle(2), 1, "strict", 0, 50),
], ids=["truncate-k8", "truncate-k20", "pool-1", "pool-2", "pool-10", "memo-injective",
        "strict-truncate"])
def test_incremental_family_keeps_certificates_byte_identical(monkeypatch, oracle, k, mode,
                                                               seed_count, steps):
    kept = PermDiagEngine(2, k, oracle(), mode, seed_count).run(steps)
    monkeypatch.setattr("fiberbound.perm_engine.build_family",
                        lambda answers, m, index: build_family(answers, m, FamilyIndex()))
    fresh = PermDiagEngine(2, k, oracle(), mode, seed_count).run(steps)
    assert json.dumps(kept) == json.dumps(fresh)
