import collections
import itertools
import json
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberbound.auditing import BoundParams, OracleLedger, compute_bounds
from fiberbound.errors import BadParametersError, BudgetExceededError, InconsistentOracleError
from fiberbound.oracles import min_block_oracle, pool_perm_oracle, pool_set_oracle, truncate_oracle
from fiberbound.partition_engine import PartitionDiagEngine
from fiberbound.perm_engine import PermDiagEngine
from fiberbound.partitions import FinitaryPartition, derangement
from fiberbound.perms import FinPerm


def minimal_window_start(n, k, width=100):
    # independent minimal search for the window start
    def ok(l):
        return k * (2 * n * l) ** (2 * n) < 2**l

    start = 0
    while True:
        if all(ok(l) for l in range(start + 1, start + width + 1)):
            return start
        start += 1


def test_compute_bounds_examples():
    assert compute_bounds(1, 1) == BoundParams(8, 256)
    assert compute_bounds(1, 2) == BoundParams(9, 648)
    assert compute_bounds(0, 1).m0 == 1
    assert compute_bounds(2, 1).m0 == 108**4


@pytest.mark.parametrize("n,k", [(0, 1), (0, 7), (1, 1), (1, 2), (1, 10), (2, 1), (2, 3), (3, 1)])
def test_compute_bounds_against_independent_search(n, k):
    params = compute_bounds(n, k)
    assert params.l0 == minimal_window_start(n, k)
    assert params.m0 == k * (2 * n * params.l0) ** (2 * n)
    # the inequality holds through the window and fails at the start itself
    for l in range(params.l0 + 1, params.l0 + 101):
        assert k * (2 * n * l) ** (2 * n) < 2**l
    assert params.l0 == 0 or not (k * (2 * n * params.l0) ** (2 * n) < 2**params.l0)


@pytest.mark.parametrize("n,k", [(4, 1), (10**4, 1), (10**7, 1), (1, 10**21)])
def test_compute_bounds_overflow_guard(n, k):
    # refused at once, naming n and k rather than the digits of m0
    with pytest.raises(BudgetExceededError, match=rf"2\*\*63-1 guard for n={n}, k={k}$"):
        compute_bounds(n, k)


def test_ledger_violation_and_idempotence():
    led = OracleLedger(1, str)
    assert led.record("s1", "id") is None
    # the certificate's violation object itself
    assert led.record("s2", "id") == {"output": "id", "witnesses": ["s1", "s2"]}
    assert led.record("s1", "id") is None
    assert led.fibers == {"id": 2}


def test_ledger_under_bound():
    led = OracleLedger(2, str)
    assert led.record("a", "x") is None
    assert led.record("z", "y") is None
    assert led.record("b", "x") is None
    # the witnesses are the inputs over "x", in the order recorded
    assert led.record("c", "x")["witnesses"] == ["a", "b", "c"]


def test_ledger_inconsistent_oracle():
    led = OracleLedger(3, str)
    led.record("a", "x")
    with pytest.raises(InconsistentOracleError):
        led.record("a", "y")


def test_ledger_records_a_none_answer():
    # None is an answer like any other: asking again is idempotent, and a
    # different answer to the same input is inconsistent
    led = OracleLedger(1, str)
    assert led.record("x", None) is None
    assert led.record("x", None) is None
    assert led.fibers == {None: 1}
    led = OracleLedger(1, str)
    assert led.record("y", None) is None
    with pytest.raises(InconsistentOracleError):
        led.record("y", 5)


def test_moved_set_fiber_exactness():
    # over six atoms the moved-set fibers have exactly the derangement sizes
    atoms = range(6)
    counts = {}
    for image in itertools.permutations(atoms):
        moved = frozenset(a for a, b in zip(atoms, image) if a != b)
        counts[moved] = counts.get(moved, 0) + 1
    for moved, count in counts.items():
        if len(moved) <= 4:
            assert count == derangement(len(moved))


def test_seed_partitions_counts():
    # the driver builds seed j from the atom pair (base, base + 1 + j); this
    # is the one test that pins the count 72k² + 1 by value, and every other
    # test reads it from the engine
    for k, count in ((1, 73), (2, 289), (3, 649)):
        engine = PartitionDiagEngine(k, min_block_oracle)
        seeds = engine.g[:engine.seed_count]
        assert len(seeds) == count
        assert len(set(seeds)) == len(seeds)


SEED_ENGINES = {
    "part-k1": lambda iid: PartitionDiagEngine(1, min_block_oracle, instance_id=iid),
    "part-k2": lambda iid: PartitionDiagEngine(2, min_block_oracle, instance_id=iid),
    "part-k3": lambda iid: PartitionDiagEngine(3, min_block_oracle, instance_id=iid),
    "perm-seeds1": lambda iid: PermDiagEngine(2, 1, truncate_oracle(2), "opportunistic",
                                              seed_count=1, instance_id=iid),
    "perm-seeds64": lambda iid: PermDiagEngine(2, 1, truncate_oracle(2), "opportunistic",
                                               seed_count=64, instance_id=iid),
    "strict-n1-k1": lambda iid: PermDiagEngine(1, 1, truncate_oracle(1), instance_id=iid),
    "strict-n1-k2": lambda iid: PermDiagEngine(1, 2, truncate_oracle(1), instance_id=iid),
    "strict-n1-k3": lambda iid: PermDiagEngine(1, 3, truncate_oracle(1), instance_id=iid),
    "strict-n2-k1": lambda iid: PermDiagEngine(2, 1, truncate_oracle(2), instance_id=iid),
}


def _checked_twin(engine, pair):
    if isinstance(engine, PartitionDiagEngine):
        return FinitaryPartition([pair])
    return FinPerm.cycle(pair)


@pytest.mark.parametrize("iid", [-1, 0, 8, True], ids=["iid-1", "iid0", "iid8", "iidTrue"])
@pytest.mark.parametrize("name", sorted(SEED_ENGINES))
def test_unchecked_seeds_equal_checked_ones(name, iid):
    # the driver builds its seeds, and the next pair it hands out past them,
    # without the public constructors' checks, and writes the seeds' text from
    # the pairs; each must agree with a checked build.
    # Only an int instance id gets that far: True is refused before any seed
    # is built, not run as instance 1
    if type(iid) is not int:
        with pytest.raises(BadParametersError) as exc:
            SEED_ENGINES[name](iid)
        assert str(exc.value) == f"instance id must be an int, got {iid!r}"
        return
    engine = SEED_ENGINES[name](iid)
    base = engine.base
    assert base == 1000 * (iid + 1)
    count = engine.seed_count
    for j, seed in enumerate(engine.g[:count]):
        twin = _checked_twin(engine, (base, base + 1 + j))
        assert seed == twin
        assert hash(seed) == hash(twin)
        assert str(seed) == str(twin)
    after = engine._next_seed()
    twin = _checked_twin(engine, (base, base + 1 + count))
    assert (after, hash(after), str(after)) == (twin, hash(twin), str(twin))
    cert = engine.run(1)
    assert cert["outputs"][:count] == [str(x) for x in engine.g[:count]]


@pytest.mark.parametrize("iid", [-2, 1.5])
@pytest.mark.parametrize("make", [
    lambda oracle, iid: PartitionDiagEngine(1, oracle, instance_id=iid),
    lambda oracle, iid: PermDiagEngine(2, 1, oracle, "opportunistic", seed_count=8, instance_id=iid),
    lambda oracle, iid: PermDiagEngine(1, 1, oracle, instance_id=iid),
], ids=["part", "perm-opportunistic", "perm-strict"])
def test_bad_instance_ids_are_refused(make, iid):
    # base -1000 is no atom, and an instance id is an int by exact type;
    # refused before the oracle is asked
    calls = []
    message = ("atoms must be non-negative integers" if type(iid) is int
               else f"instance id must be an int, got {iid!r}")
    with pytest.raises(BadParametersError) as exc:
        make(lambda x: calls.append(x), iid).run(1)
    assert str(exc.value) == message
    assert calls == []


def test_ledger_serializes_only_violations_and_flips(monkeypatch):
    # inputs and outputs are permutations here, so every text goes through to_cycles
    calls = []
    to_cycles = FinPerm.to_cycles

    def counted(p):
        calls.append(p)
        return to_cycles(p)

    monkeypatch.setattr(FinPerm, "to_cycles", counted)
    led = OracleLedger(2, FinPerm.to_cycles)
    out = FinPerm.cycle([1, 0])
    assert led.record(FinPerm.cycle([1, 2]), out) is None
    assert led.record(FinPerm.cycle([3, 1]), out) is None
    assert led.record(FinPerm.cycle([1, 2]), out) is None
    assert calls == []
    violation = led.record(FinPerm.cycle([4, 1]), out)
    assert violation == {"output": "(0;1)", "witnesses": ["(1;2)", "(1;3)", "(1;4)"]}
    with pytest.raises(InconsistentOracleError, match=r"\(1;2\) mapped to both \(0;1\) and \(0;2\)"):
        led.record(FinPerm.cycle([2, 1]), FinPerm.cycle([2, 0]))


@pytest.mark.parametrize("make_engine, steps", [
    (lambda: PermDiagEngine(2, 8, truncate_oracle(2), mode="opportunistic", seed_count=8), 12),
    (lambda: PartitionDiagEngine(2, min_block_oracle), 4),
], ids=["perm", "part"])
def test_codomain_checked_once_per_record(monkeypatch, make_engine, steps):
    # each emitted input is queried once, and only a new record is checked
    engine = make_engine()
    checked = []
    check = engine._check_output

    def counted(out):
        checked.append(out)
        check(out)

    monkeypatch.setattr(engine, "_check_output", counted)
    cert = engine.run(steps)
    assert cert["steps"] == steps
    assert len(checked) == len(engine.ledger.queries) == len(engine.g) - 1


def shared_sets():
    # the i-th new input gets range(37*i mod 150): for i < 300 each answer
    # is shared by exactly two inputs, 150 apart in emission order
    memo = {}

    def oracle(p):
        if p not in memo:
            memo[p] = frozenset(range(37 * len(memo) % 150))
        return memo[p]

    return oracle


SHARED_ANSWER_ENGINES = pytest.mark.parametrize("make_engine, steps", [
    (lambda: PermDiagEngine(2, 8, pool_perm_oracle(10, 2), mode="opportunistic", seed_count=8), 30),
    (lambda: PartitionDiagEngine(2, shared_sets()), 8),
], ids=["perm-pool", "part-shared"])


@SHARED_ANSWER_ENGINES
def test_answer_record_is_first_occurrences(make_engine, steps):
    engine = make_engine()
    for _ in range(steps):
        engine.step()
        want = {}
        for idx, v in enumerate(engine.oracle(x) for x in engine.g[:-1]):
            want.setdefault(v, idx)
        assert engine.answers == list(want.items())
    assert len(engine.answers) < len(engine.g) - 1


@SHARED_ANSWER_ENGINES
def test_clean_ledger_holds_at_most_k_inputs_per_answer(make_engine, steps):
    # the bound the counting arguments use, on engines whose answers repeat;
    # the ledger's fiber counts are the sizes of the fibers of its queries
    engine = make_engine()
    ledger = engine.ledger
    for _ in range(steps):
        engine.step()
        sizes = collections.Counter(ledger.queries.values())
        assert sizes == ledger.fibers and max(sizes.values()) <= engine.k
        assert len(ledger.queries) <= engine.k * len(engine.answers)


def memo_oracle(answer):
    # the i-th new input gets answer(i)
    memo = {}

    def oracle(x):
        if x not in memo:
            memo[x] = answer(len(memo))
        return memo[x]

    return oracle


@pytest.mark.parametrize("make_engine, steps", [
    (lambda: PermDiagEngine(2, 1, memo_oracle(lambda i: FinPerm.cycle([0, i + 1])),
                            mode="opportunistic", seed_count=8), 30),
    (lambda: PermDiagEngine(2, 8, pool_perm_oracle(10, 2), mode="opportunistic", seed_count=8), 30),
    (lambda: PartitionDiagEngine(1, memo_oracle(lambda i: frozenset({i}))), 8),
    (lambda: PartitionDiagEngine(2, shared_sets()), 8),
], ids=["perm-injective", "perm-pool", "part-injective", "part-shared"])
def test_ledger_queries_are_the_emitted_set(monkeypatch, make_engine, steps):
    # the fresh tests read the ledger: it must hold exactly the emitted witnesses
    engine = make_engine()
    entries = []

    def checked(method):
        def wrapper(*args):
            assert engine.ledger.queries.keys() == set(engine.g)
            entries.append(method.__name__)
            return method(*args)
        return wrapper

    monkeypatch.setattr(engine, "_first_fresh", checked(engine._first_fresh))
    monkeypatch.setattr(engine, "_next_seed", checked(engine._next_seed))
    cert = engine.run(steps)
    assert cert["steps"] == steps
    assert len(entries) == steps


def injective_perms():
    return memo_oracle(lambda i: FinPerm.cycle([0, i + 1]))


@pytest.mark.parametrize("make_engine, steps", [
    (lambda: PartitionDiagEngine(2, min_block_oracle), 50),
    (lambda: PermDiagEngine(2, 1, injective_perms(), "opportunistic", 64), 100),
], ids=["part-min-block", "perm-injective"])
def test_certificate_grows_linearly(make_engine, steps):
    # each trace carries only what is new, so twice the steps is about twice the bytes
    short, long = (make_engine().run(s) for s in (steps, 2 * steps))
    assert (short["steps"], long["steps"]) == (steps, 2 * steps)
    assert len(json.dumps(long)) <= 2.2 * len(json.dumps(short))


@pytest.mark.parametrize("make_engine, steps", [
    (lambda: PermDiagEngine(2, 20, truncate_oracle(2), "opportunistic", 64), 60),
    (lambda: PermDiagEngine(2, 8, pool_perm_oracle(10, 2), "opportunistic", 8), 40),
    (lambda: PartitionDiagEngine(2, min_block_oracle), 30),
    # an instance whose 73 seeds land on distinct pool sets, so steps run
    (lambda: PartitionDiagEngine(1, pool_set_oracle(1000), instance_id=7), 10),
], ids=["truncate", "pool-perm", "min-block", "pool-set"])
def test_each_trace_carries_only_new_answers(make_engine, steps):
    engine = make_engine()
    cert = engine.run(steps)
    new = [t["C_new"] if "C_new" in t else t["B_new"] for t in cert["traces"]]
    assert len(new) >= 2
    # one witness is emitted per step, so at most one answer is new after the seeds
    assert all(len(step_new) <= 1 for step_new in new[1:])
    assert sum(map(len, new)) == len(engine.answers)


@pytest.mark.parametrize("make_engine, oracle, steps, want", [
    (lambda oracle: PermDiagEngine(2, 1, oracle, "opportunistic", 64), injective_perms(), 200, 1214),
    # the part count follows the seed count, so it is read from the formula alone
    (lambda oracle: PartitionDiagEngine(2, oracle), min_block_oracle, 60, None),
], ids=["perm-injective", "part-min-block"])
def test_each_witness_is_queried_once_plus_audits(make_engine, oracle, steps, want):
    # 2·(seeds + steps − 1) for the new witnesses and the final audit, plus
    # seeds + t − 2 for the audit on each power-of-two step t >= 2
    calls = []

    def counted(x):
        calls.append(x)
        return oracle(x)

    engine = make_engine(counted)
    assert engine.run(steps)["steps"] == steps
    s = engine.seed_count
    audits = [t for t in range(2, steps + 1) if t & (t - 1) == 0]
    expected = 2 * (s + steps - 1) + sum(s + t - 2 for t in audits)
    assert want in (None, expected)
    assert len(calls) == expected


def flip_after(monkeypatch, engine, steps, other):
    # once `steps` steps are done, the oracle answers `other` for the first seed
    oracle, first, done = engine.oracle, engine.g[0], []
    monkeypatch.setattr(engine, "oracle",
                        lambda x: other if len(done) >= steps and x == first else oracle(x))
    step = engine.step

    def counted():
        trace = step()
        done.append(trace)
        return trace

    monkeypatch.setattr(engine, "step", counted)


# (engine on an oracle, the answer of the i-th new input, an answer no input gets)
FLIP_ENGINES = [
    (lambda oracle: PermDiagEngine(2, 1, oracle, "opportunistic", 8),
     lambda i: FinPerm.cycle([0, i + 1]), FinPerm.cycle([900, 901])),
    (lambda oracle: PartitionDiagEngine(1, oracle), lambda i: frozenset({i}), frozenset({900})),
]


@pytest.mark.parametrize("make_engine, answer, other, message", [
    (*FLIP_ENGINES[0], r"^input \(1000;1001\) mapped to both \(0;1\) and \(900;901\)$"),
    (*FLIP_ENGINES[1], r"^input \{1000,1001\} mapped to both \{0\} and \{900\}$"),
], ids=["perm", "part"])
def test_flip_after_step_3_raises_on_the_step_4_audit(monkeypatch, make_engine, answer, other,
                                                       message):
    engine = make_engine(memo_oracle(answer))
    flip_after(monkeypatch, engine, 3, other)
    for _ in range(3):
        engine.step()
    # the audit compares without record, and hands record the changed answer
    with pytest.raises(InconsistentOracleError, match=message):
        engine.step()
    assert len(engine.traces) == 3


# (engine on an oracle, the answer of the i-th new input, a copy of an answer, steps)
FRESH_ENGINES = [
    (lambda oracle: PermDiagEngine(2, 1, oracle, "opportunistic", 8),
     lambda i: FinPerm.cycle([0, i + 1]), lambda p: FinPerm(dict(p._map)), 40),
    (lambda oracle: PartitionDiagEngine(1, oracle), lambda i: frozenset({i, i + 1}),
     lambda v: frozenset(list(v)), 20),
]


@pytest.mark.parametrize("make_engine, answer, copy, steps", FRESH_ENGINES, ids=["perm", "part"])
def test_equal_fresh_answers_pass_every_audit(monkeypatch, make_engine, answer, copy, steps):
    # an oracle that builds a new, equal answer on every call certifies as a
    # memoized one does, and its audits reach record for no witness
    memo = memo_oracle(answer)

    def fresh(x):
        return copy(memo(x))

    engine = make_engine(fresh)
    recorded = []
    record = engine.ledger.record

    def counted(x, out):
        recorded.append(x)
        return record(x, out)

    monkeypatch.setattr(engine.ledger, "record", counted)
    cert = engine.run(steps)
    first = engine.g[0]
    assert fresh(first) == fresh(first) and fresh(first) is not fresh(first)
    assert (cert["steps"], len(engine.traces)) == (steps, steps)
    assert recorded == list(engine.ledger.queries) == engine.g[:-1]
    assert json.dumps(cert) == json.dumps(make_engine(memo_oracle(answer)).run(steps))


def test_an_audit_that_gets_the_recorded_object_compares_nothing(monkeypatch):
    # a memoizing oracle hands back the recorded answer itself, so no audit
    # runs FinPerm.__eq__ on it
    engine = PermDiagEngine(2, 1, memo_oracle(lambda i: FinPerm.cycle([0, i + 1])),
                            "opportunistic", 8)
    compared = []
    eq = FinPerm.__eq__

    def counted(self, other):
        compared.append(self)
        return eq(self, other)

    monkeypatch.setattr(FinPerm, "__eq__", counted)
    engine.step()
    engine.step()
    compared.clear()
    engine._audit()
    assert len(engine.ledger.queries) == 9 and compared == []


@pytest.mark.parametrize("make_engine, answer, other", FLIP_ENGINES, ids=["perm", "part"])
def test_flip_after_the_last_step_raises_from_the_final_audit(monkeypatch, make_engine, answer, other):
    assert make_engine(memo_oracle(answer)).run(3)["kind"] in ("perm-diag", "part-diag")
    engine = make_engine(memo_oracle(answer))
    flip_after(monkeypatch, engine, 3, other)
    with pytest.raises(InconsistentOracleError):
        engine.run(3)


@pytest.mark.parametrize("make_engine, answer, other", FLIP_ENGINES, ids=["perm", "part"])
def test_flip_before_a_violation_raises(monkeypatch, make_engine, answer, other):
    def refuted_at_step_6():
        # the input first queried at step 6 repeats the first answer
        return memo_oracle(lambda i: answer(i if i < seeds + 4 else 0))

    seeds = make_engine(memo_oracle(answer)).seed_count
    cert = make_engine(refuted_at_step_6()).run(10)
    assert (cert["kind"], cert["steps"]) == ("ledger-violation", 5)
    # steps 5 and 6 make no audit, so the flip after step 4 meets the final one
    engine = make_engine(refuted_at_step_6())
    flip_after(monkeypatch, engine, 4, other)
    with pytest.raises(InconsistentOracleError):
        engine.run(10)
    assert len(engine.traces) == 5


# Seeds sit at 1000·(id + 1) and fallbacks at the base + 500,000, and these
# oracles commute with adding a constant to every atom, so instance id must
# give instance 0's certificate with every atom shifted by 1000·id.
TRANSLATION_RUNS = {
    "min-block-k2": (lambda iid: PartitionDiagEngine(2, min_block_oracle, instance_id=iid), 60),
    "strict-n2": (lambda iid: PermDiagEngine(2, 1, truncate_oracle(2), "strict",
                                             instance_id=iid), 50),
    "opportunistic-n2-k8": (lambda iid: PermDiagEngine(2, 8, truncate_oracle(2), "opportunistic",
                                                       4, instance_id=iid), 50),
}


@cache
def _at_instance_0(name):
    make, steps = TRANSLATION_RUNS[name]
    return make(0).run(steps)


def _shift_perm(text, d):
    # a shift keeps the order of the atoms, so canonical text stays canonical
    cycles = text[1:-1].split(")(") if text != "()" else []
    return "".join("(" + ";".join(str(int(a) + d) for a in c.split(";")) + ")"
                   for c in cycles) or "()"


def _shift_partition(text, d):
    blocks = FinitaryPartition.parse(text)._blocks
    return str(FinitaryPartition([{a + d for a in block} for block in blocks]))


def _shift_trace(trace, d):
    if "C_new" in trace:
        return dict(trace, C_new=[[a + d for a in answer] for answer in trace["C_new"]])
    family, stuck = trace["family"], trace["stuck_at"]
    return dict(
        trace,
        B_new=[[i, _shift_perm(text, d)] for i, text in trace["B_new"]],
        family=family and [dict(e, x=e["x"] + d, t=_shift_perm(e["t"], d)) for e in family],
        stuck_at=stuck and [stuck[0], [a + d for a in stuck[1]]])


def _shift_certificate(cert, d):
    """``cert`` with every atom shifted by ``d``, field by field."""
    text = _shift_partition if cert["n"] is None else _shift_perm
    shifted = dict(cert, outputs=[text(x, d) for x in cert["outputs"]],
                   traces=[_shift_trace(t, d) for t in cert["traces"]])
    if cert["violation"] is not None:
        # only the perm runs end in a violation, whose output is a permutation
        v = cert["violation"]
        shifted["violation"] = {"output": _shift_perm(v["output"], d),
                                "witnesses": [text(w, d) for w in v["witnesses"]]}
    return shifted


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 40))
def test_instances_are_translates_of_instance_0(iid):
    for name, (make, steps) in TRANSLATION_RUNS.items():
        want = _shift_certificate(_at_instance_0(name), 1000 * iid)
        assert make(iid).run(steps) == want, name
