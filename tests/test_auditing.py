import itertools

import pytest

from fiberbound.auditing import (BoundParams, OracleLedger, compute_bounds,
                                 moved_set_adapter)
from fiberbound.errors import InconsistentOracleError, OverflowGuardError
from fiberbound.partition_engine import run_partition_diag, seed_partitions
from fiberbound.partitions import derangement
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
    assert compute_bounds(1, 1) == BoundParams(1, 1, 8, 256)
    assert compute_bounds(1, 2) == BoundParams(1, 2, 9, 648)
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


def test_compute_bounds_overflow_guard():
    with pytest.raises(OverflowGuardError):
        compute_bounds(4, 1)


def test_ledger_violation_and_idempotence():
    led = OracleLedger(1, str, str)
    assert led.record("s1", "id") is None
    violation = led.record("s2", "id")
    assert violation is not None
    assert violation.output == "id"
    assert violation.witnesses == ("s1", "s2")
    assert led.record("s1", "id") is None
    assert max(len(f) for f in led.fibers.values()) == 2


def test_ledger_under_bound():
    led = OracleLedger(2, str, str)
    assert led.record("a", "x") is None
    assert led.record("b", "x") is None
    assert led.record("c", "x") is not None


def test_ledger_inconsistent_oracle():
    led = OracleLedger(3, str, str)
    led.record("a", "x")
    with pytest.raises(InconsistentOracleError):
        led.record("a", "y")


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


def test_moved_set_adapter_factors():
    dummy = lambda x: FinPerm.identity()
    assert moved_set_adapter(dummy, 1, 2)[1] == 1
    assert moved_set_adapter(dummy, 1, 4)[1] == 9
    assert moved_set_adapter(dummy, 1, 0)[1] == 1
    assert moved_set_adapter(dummy, 3, 4)[1] == 27


def test_adapter_feeds_partition_engine():
    # a partition-to-permutation oracle attacked through the moved-set map
    def to_perm(p):
        blocks = p.exceptional_blocks
        if not blocks:
            return FinPerm.identity()
        least = sorted(min(blocks, key=min))
        return FinPerm.cycle(least[:2])

    adapted, bound = moved_set_adapter(to_perm, 1, 2)
    cert = run_partition_diag(bound, adapted, steps=3)
    assert cert["kind"] in ("part-diag", "ledger-violation")
    assert cert["all_distinct"]


def test_seed_partitions_counts():
    assert len(seed_partitions(1, 1000)) == 73
    assert len(seed_partitions(2, 1000)) == 289
    seeds = seed_partitions(1, 1000)
    assert len(set(seeds)) == len(seeds)
