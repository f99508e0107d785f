import json

import pytest

from fiberbound import partition_engine
from fiberbound.auditing import SEED_CAP
from fiberbound.errors import BadParametersError, InconsistentOracleError, OracleCodomainError
from fiberbound.oracles import min_block_oracle, pool_set_oracle
from fiberbound.partition_engine import PartitionDiagEngine
from fiberbound.partitions import (FinitaryPartition, bell, build_frame, lift,
                                   iter_partitions_ranked)
from format1 import expand_traces
from helpers import partition_text, seed_witnesses
from test_golden import PINS, _grow_thirds, _perm_diag, _perm_stuck


def driver_seeds(k):
    return seed_witnesses(PartitionDiagEngine(k, min_block_oracle))


def test_seed_shapes():
    for k in (1, 2):
        seeds = driver_seeds(k)
        assert seeds[0] == FinitaryPartition([{1000, 1001}])
        assert seeds[-1] == FinitaryPartition([{1000, 1000 + len(seeds)}])


def test_constant_empty_oracle_violates_immediately():
    cert = PartitionDiagEngine(1, lambda p: frozenset()).run(5)
    assert cert["kind"] == "ledger-violation"
    assert cert["violation"]["output"] == "{}"
    assert len(cert["violation"]["witnesses"]) == 2
    assert cert["steps"] == 0


def test_min_block_run_handles_huge_class_counts():
    engine = PartitionDiagEngine(1, min_block_oracle)
    cert = engine.run(100)
    assert cert["kind"] in ("part-diag", "ledger-violation")
    assert cert["all_distinct"]
    assert cert["traces"], "at least one constructed step expected"
    first = cert["traces"][0]
    assert first["m"] == engine.seed_count
    assert first["l"] == engine.seed_count + 1
    assert first["rank_checked"] == 1
    for trace in expand_traces(cert):
        m, l, values = trace["m"], trace["l"], trace["C"]
        assert m <= 1 * len(values)
        assert len(values) <= 2**l
        if m > 72:
            assert 72 < 2**l


def test_first_constructed_partition_is_single_block():
    engine = PartitionDiagEngine(1, min_block_oracle)
    engine.step()
    atoms = range(1000, 1000 + engine.seed_count + 1)
    assert str(engine.g[-1]) == str(FinitaryPartition([set(atoms)]))


def test_chosen_partition_is_rank_minimal():
    engine = PartitionDiagEngine(1, min_block_oracle)
    for _ in range(3):
        engine.step()
    # regenerate the stream for the final step, whose frame is built from
    # every answer so far, and check everything below the chosen partition
    # lifts to something already emitted
    frame = build_frame([v for v, _ in engine.answers])
    emitted = set(seed_witnesses(engine) + engine.g)
    stream = iter_partitions_ranked(frame.l)
    for rank in range(engine.traces[-1]["rank_checked"] - 1):
        stale = lift(next(stream), frame)
        assert stale in emitted
    chosen = lift(next(stream), frame)
    assert chosen == engine.g[-1]


@pytest.mark.parametrize("oracle, steps, resumes_every_step", [
    (min_block_oracle, 20, True),
    (_grow_thirds, 12, False),
], ids=["min-block", "grow-thirds"])
def test_resumed_walk_matches_a_restarted_walk(monkeypatch, oracle, steps, resumes_every_step):
    starts = []

    def counted(l):
        starts.append(l)
        return iter_partitions_ranked(l)

    monkeypatch.setattr("fiberbound.partition_engine.iter_partitions_ranked", counted)
    cert = PartitionDiagEngine(2, oracle).run(steps)
    assert cert["kind"] == "part-diag" and len(cert["traces"]) == steps
    if resumes_every_step:
        assert len(starts) == 1
    else:
        assert 1 < len(starts) < steps
    # recompute every step from the certificate alone, walking from rank 1
    seeds = len(cert["outputs"]) - cert["steps"]
    for i, trace in enumerate(expand_traces(cert)):
        emitted = set(cert["outputs"][:seeds + i])
        frame = build_frame([frozenset(v) for v in trace["C"]])
        for rank, q in enumerate(iter_partitions_ranked(frame.l), 1):
            fresh = str(lift(q, frame))
            if fresh not in emitted:
                break
        assert rank == trace["rank_checked"]
        assert fresh == trace["result"]


@pytest.mark.parametrize("oracle", [min_block_oracle, _grow_thirds], ids=["min-block", "grow-thirds"])
def test_each_step_refines_its_frame_by_its_new_answers(monkeypatch, oracle):
    calls, frames = [], []

    def recording(values, frame=None):
        calls.append([sorted(v) for v in values])
        frame = build_frame(values, frame)
        frames.append(frame.classes)
        return frame

    monkeypatch.setattr(partition_engine, "build_frame", recording)
    cert = PartitionDiagEngine(2, oracle).run(60)
    traces = cert["traces"]
    assert cert["kind"] == "part-diag" and len(traces) == 60
    assert calls == [t["C_new"] for t in traces]
    assert [] in calls
    running = []
    for new, classes in zip(calls, frames):
        running += new
        assert classes == build_frame(running).classes


def test_two_value_step_has_room():
    # two answers {1,2} and {2,3} split into three classes, and the five
    # ranked lifts leave room past any two stale entries
    frame = build_frame([frozenset({1, 2}), frozenset({2, 3})])
    assert frame.classes == (frozenset({3}), frozenset({1}), frozenset({2}))
    lifts = [lift(q, frame) for q in iter_partitions_ranked(frame.l)]
    assert len(lifts) == 5
    assert len(set(lifts)) == 5
    stale = set(lifts[:2])
    fresh = next(p for p in lifts if p not in stale)
    assert fresh == lifts[2]


PART_RUNS = {
    **{name: PINS[name].run for name in sorted(PINS) if name.startswith("part-")},
    "min-block-k1": lambda mp: PartitionDiagEngine(1, min_block_oracle).run(100),
    "min-block-k2": lambda mp: PartitionDiagEngine(2, min_block_oracle).run(100),
    "min-block-k3": lambda mp: PartitionDiagEngine(3, min_block_oracle).run(100),
    # the one pool oracle whose run gets past the seeds, at k = 1
    "pool-1000-instance-7": lambda mp: PartitionDiagEngine(1, pool_set_oracle(1000), 7).run(20),
}


@pytest.mark.parametrize("name", PART_RUNS)
def test_every_trace_has_more_subsets_than_72k(name, monkeypatch):
    # every step has m >= 72k² + 1 witnesses, at most k per answer, so more
    # than 72k distinct answers, each a union of classes: 2^l exceeds their
    # count, and with it 72k
    cert = PART_RUNS[name](monkeypatch)
    assert len(cert["traces"]) == cert["steps"]
    for trace in cert["traces"]:
        assert 72 * cert["k"] < 2 ** trace["l"]


@pytest.mark.parametrize("make, steps, oracle_writes", [
    (lambda: PartitionDiagEngine(2, min_block_oracle), 60, False),
    (lambda: PartitionDiagEngine(1, pool_set_oracle(1000), 7), 20, True),
], ids=["min-block-k2", "pool-1000-instance-7"])
def test_certificate_writes_each_step_witness_once(make, steps, oracle_writes):
    # min-block never writes a witness, so the certificate writes each one
    # through the frame's atom texts; the pool oracle keys on str, so each
    # witness already keeps its text and the certificate reuses it
    engine = make()
    kept = []
    certificate = engine._certificate

    def spy(*args):
        kept.extend(w._text for w in engine.g)
        return certificate(*args)

    engine._certificate = spy
    cert = engine.run(steps)
    assert (cert["kind"], cert["steps"]) == ("part-diag", steps)
    witnesses = engine.g
    outputs = cert["outputs"][engine.seed_count:]
    assert outputs == [partition_text(w) for w in witnesses]
    # no step writes a witness's text; only the oracle may, and it is never
    # asked about the last witness, whose step ends the run
    assert [text is not None for text in kept] == [oracle_writes] * (steps - 1) + [False]
    assert all(out is str(w) for out, w in zip(outputs, witnesses))
    assert all(out is text for out, text in zip(outputs, kept) if text is not None)


def test_audit_reasks_answer_the_recorded_objects():
    # min-block answers with the first block of each witness's kept order, so
    # every re-ask hands back the recorded object itself and the audit makes
    # no frozenset compare, for the one-block seeds and the step witnesses
    engine = PartitionDiagEngine(2, min_block_oracle)
    assert engine.run(60)["kind"] == "part-diag"
    queries = engine.ledger.queries
    # the last witness ends the run unasked
    assert list(queries) == seed_witnesses(engine) + engine.g[:-1]
    assert any(len(x._blocks) > 1 for x in engine.g[:-1])
    assert all(min_block_oracle(x) is answer for x, answer in queries.items())


def test_pool_oracle_pigeonhole():
    cert = PartitionDiagEngine(1, pool_set_oracle(9)).run(10)
    assert cert["kind"] == "ledger-violation"
    assert len(cert["violation"]["witnesses"]) == 2


def test_injective_oracle_streams_forever():
    memo = {}

    def injective(p):
        if p not in memo:
            memo[p] = frozenset(range(len(memo) + 1))
        return memo[p]

    engine = PartitionDiagEngine(1, injective)
    cert = engine.run(12)
    assert cert["kind"] == "part-diag"
    assert cert["steps"] == 12
    assert len(cert["outputs"]) == engine.seed_count + 12
    assert cert["all_distinct"]


def test_oracle_codomain_checked():
    for answer in ({1, 2}, frozenset({True})):
        engine = PartitionDiagEngine(1, lambda p: answer)
        with pytest.raises(OracleCodomainError):
            engine.step()


def test_equal_answer_keeps_the_recorded_value():
    # a re-queried answer equal to the recorded one is not re-checked, so the
    # engine must go on with the checked value: {False, True} == {0, 1}, but
    # bools are not atoms
    def bools_on_requery():
        memo = {}

        def oracle(p):
            if p not in memo:
                memo[p] = frozenset(range(len(memo) + 1))
                return memo[p]
            return frozenset(bool(a) if a < 2 else a for a in memo[p])

        return oracle

    plain = {}
    want = PartitionDiagEngine(1, lambda p: plain.setdefault(p, frozenset(range(len(plain) + 1)))
                               ).run(3)
    assert json.dumps(PartitionDiagEngine(1, bools_on_requery()).run(3)) == json.dumps(want)
    assert want["kind"] == "part-diag"


def test_flipping_oracle_detected():
    calls = {"n": 0}

    def unstable(p):
        calls["n"] += 1
        return min_block_oracle(p) if calls["n"] <= engine.seed_count else frozenset()

    engine = PartitionDiagEngine(1, unstable)
    engine.step()
    with pytest.raises(InconsistentOracleError):
        engine.step()


def test_steps_validation():
    with pytest.raises(BadParametersError):
        PartitionDiagEngine(1, min_block_oracle).run(0)


def test_exhausted_stream_reports_stuck(monkeypatch):
    engine = PartitionDiagEngine(1, min_block_oracle)
    monkeypatch.setattr("fiberbound.partition_engine.iter_partitions_ranked",
                        lambda l: iter(()))
    cert = engine.run(2)
    assert cert["kind"] == "stuck"


def test_no_partition_stall_is_admitted_at_the_seed_count():
    # a stall needs B(l) <= m <= k*2**l (see the module docstring); every k the
    # seed cap allows seeds more than k*2**l at each l where B(l) <= k*2**l
    ks = [k for k in range(1, 200) if 72 * k * k + 1 <= SEED_CAP]
    assert ks == list(range(1, 118))
    for k in ks:
        l = 0
        while bell(l) <= k * 2**l:
            assert k * 2**l < 72 * k * k + 1
            l += 1
        # past here each partition of l atoms extends in at least two ways, so
        # B(l + 1) >= 2*B(l) > k*2**(l + 1) and the window stays empty
        assert l >= 1 and bell(l + 1) >= 2 * bell(l)


def test_stale_lifts_report_stuck(monkeypatch):
    engine = PartitionDiagEngine(1, min_block_oracle)
    first = seed_witnesses(engine)[0]
    monkeypatch.setattr("fiberbound.partition_engine.lift", lambda q, frame: first)
    cert = engine.run(2)
    assert cert["kind"] == "stuck"
    assert cert["steps"] == 0


def test_certificate_shape(monkeypatch):
    engine = PartitionDiagEngine(1, min_block_oracle)
    cert = engine.run(1)
    assert cert["n"] is None
    assert cert["seeds"] == engine.seed_count
    # a perm run with fallback and constructed steps, and a strict stuck run,
    # whose last trace emitted no witness
    perm = _perm_diag(monkeypatch)
    assert {t["fallback"] for t in perm["traces"]} == {False, True}
    stuck = _perm_stuck(monkeypatch)
    assert len(stuck["traces"]) == stuck["steps"] + 1
    assert stuck["traces"][-1]["stuck_at"] is not None
    part_keys = ["m", "C_new", "l", "rank_checked"]
    perm_keys = ["m", "B_new", "family", "stuck_at", "fallback", "chosen_a"]
    for run, keys in [(cert, part_keys), (perm, perm_keys), (stuck, perm_keys)]:
        assert list(run) == ["format", "kind", "n", "k", "seeds", "steps", "outputs",
                             "all_distinct", "violation", "traces"]
        assert run["format"] == 4
        assert len(run["outputs"]) == run["seeds"] + run["steps"]
        assert run["traces"]
        for trace in run["traces"]:
            assert list(trace) == keys
