import pytest

from fiberbound.errors import BadParametersError, OracleCodomainError
from fiberbound.oracles import min_block_oracle, pool_set_oracle
from fiberbound.partition_engine import PartitionDiagEngine, run_partition_diag, seed_partitions
from fiberbound.partitions import FinitaryPartition, build_frame, lift, iter_partitions_ranked


def test_seed_shapes():
    seeds = seed_partitions(1, 1000)
    assert len(seeds) == 73
    assert seeds[0] == FinitaryPartition([{1000, 1001}])
    assert seeds[-1] == FinitaryPartition([{1000, 1073}])
    assert len(seed_partitions(2, 1000)) == 289


def test_constant_empty_oracle_violates_immediately():
    cert = run_partition_diag(1, lambda p: frozenset(), steps=5)
    assert cert["kind"] == "ledger-violation"
    assert cert["violation"]["output"] == "{}"
    assert len(cert["violation"]["witnesses"]) == 2
    assert cert["steps"] == 0


def test_min_block_run_handles_huge_class_counts():
    cert = run_partition_diag(1, min_block_oracle, steps=100)
    assert cert["kind"] in ("part-diag", "ledger-violation")
    assert cert["all_distinct"]
    assert cert["traces"], "at least one constructed step expected"
    first = cert["traces"][0]
    assert first["m"] == 73
    assert first["l"] == 74
    assert first["rank_checked"] == 1
    for trace in cert["traces"]:
        m, l, values = trace["m"], trace["l"], trace["C"]
        assert m <= 1 * len(values)
        assert len(values) <= 2**l
        if m > 72:
            assert 72 < 2**l


def test_first_constructed_partition_is_single_block():
    engine = PartitionDiagEngine(1, min_block_oracle)
    trace = engine.step()
    assert trace["result"] == str(FinitaryPartition([set(range(1000, 1074))]))


def test_chosen_partition_is_rank_minimal():
    engine = PartitionDiagEngine(1, min_block_oracle)
    for _ in range(3):
        trace = engine.step()
    # regenerate the stream for the final trace and check everything below
    # the chosen partition lifts to something already emitted
    values = [frozenset(v) for v in trace["C"]]
    frame = build_frame(values)
    emitted = set(engine.g)
    stream = iter_partitions_ranked(frame.l)
    for rank in range(trace["rank_checked"] - 1):
        stale = lift(next(stream), frame)
        assert stale in emitted
    chosen = lift(next(stream), frame)
    assert str(chosen) == trace["result"]


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


def test_pool_oracle_pigeonhole():
    cert = run_partition_diag(1, pool_set_oracle(9), steps=10)
    assert cert["kind"] == "ledger-violation"
    assert len(cert["violation"]["witnesses"]) == 2


def test_injective_oracle_streams_forever():
    memo = {}

    def injective(p):
        if p not in memo:
            memo[p] = frozenset(range(len(memo) + 1))
        return memo[p]

    cert = run_partition_diag(1, injective, steps=12)
    assert cert["kind"] == "part-diag"
    assert cert["steps"] == 12
    assert len(cert["outputs"]) == 85
    assert cert["all_distinct"]


def test_oracle_codomain_checked():
    engine = PartitionDiagEngine(1, lambda p: {1, 2})
    with pytest.raises(OracleCodomainError):
        engine.step()


def test_steps_validation():
    with pytest.raises(BadParametersError):
        run_partition_diag(1, min_block_oracle, steps=0)


def test_exhausted_stream_reports_stuck(monkeypatch):
    engine = PartitionDiagEngine(1, min_block_oracle)
    monkeypatch.setattr("fiberbound.partition_engine.iter_partitions_ranked",
                        lambda l: iter(()))
    cert = engine.run(2)
    assert cert["kind"] == "stuck"


def test_certificate_shape():
    cert = run_partition_diag(1, min_block_oracle, steps=1)
    assert list(cert) == ["kind", "n", "k", "l0", "m0", "steps", "outputs",
                          "all_distinct", "violation", "traces"]
    assert cert["n"] is None and cert["l0"] is None
    assert cert["m0"] == 72
