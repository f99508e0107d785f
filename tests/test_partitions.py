import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberbound.errors import BudgetExceededError, OutOfRangeError, OverlappingBlocksError, ParseError
from fiberbound.partitions import (FinitaryPartition, bell, build_frame, derangement,
                                   enumerate_partitions_ranked, iter_partitions_ranked,
                                   iter_partitions_rgs, lift, partition_sort_key)


def bell_by_binomial_sum(n):
    # independent route: B_{n+1} = sum_k C(n, k) B_k
    vals = [1]
    for i in range(n):
        vals.append(sum(math.comb(i, k) * vals[k] for k in range(i + 1)))
    return vals[n]


def derangement_by_inclusion_exclusion(j):
    return sum((-1) ** i * math.comb(j, i) * math.factorial(j - i) for i in range(j + 1))


def test_from_blocks_examples():
    p = FinitaryPartition([{1, 2}, {3}])
    assert p.exceptional_blocks == frozenset({frozenset({1, 2})})
    assert FinitaryPartition([]) == FinitaryPartition.singletons()
    with pytest.raises(OverlappingBlocksError):
        FinitaryPartition([{1, 2}, {2, 3}])


def test_partition_text():
    p = FinitaryPartition([{5, 6, 7}, {1, 2}])
    assert str(p) == "{1,2}{5,6,7}"
    assert str(FinitaryPartition.singletons()) == "{}*"
    assert FinitaryPartition.parse("{1,2}{5,6,7}") == p
    assert FinitaryPartition.parse("{}*") == FinitaryPartition.singletons()
    with pytest.raises(ParseError):
        FinitaryPartition.parse("1,2")


@given(st.lists(st.frozensets(st.integers(0, 30), min_size=2, max_size=4), max_size=4))
def test_partition_round_trip(blocks):
    flat = []
    used = set()
    for b in blocks:
        if not (b & used):
            flat.append(b)
            used |= b
    p = FinitaryPartition(flat)
    assert FinitaryPartition.parse(str(p)) == p


def test_block_of():
    p = FinitaryPartition([{1, 2}])
    assert p.block_of(1) == frozenset({1, 2})
    assert p.block_of(9) == frozenset({9})


def test_bell_values():
    assert bell(0) == 1
    assert bell(4) == 15
    assert bell(10) == 115975
    assert bell(12) == 4213597
    for l in range(16):
        assert bell(l) == bell_by_binomial_sum(l)
    with pytest.raises(OutOfRangeError):
        bell(26)
    with pytest.raises(OutOfRangeError):
        bell(-1)


def test_derangement_values():
    assert derangement(0) == 1
    assert derangement(3) == 2
    assert derangement(4) == 9
    for j in range(12):
        assert derangement(j) == derangement_by_inclusion_exclusion(j)
    with pytest.raises(OutOfRangeError):
        derangement(21)


def test_bell_exponential_lower_bound():
    for l in range(1, 13):
        assert 72 * bell(l) > 4**l


def test_build_frame_worked_example():
    frame = build_frame([frozenset({1, 2}), frozenset({2, 3})])
    assert frame.classes == (frozenset({3}), frozenset({1}), frozenset({2}))
    assert frame.l == 3


def test_build_frame_degenerate():
    assert build_frame([frozenset()]).l == 0
    frame = build_frame([frozenset({1, 2})])
    assert frame.classes == (frozenset({1, 2}),)


@given(st.lists(st.frozensets(st.integers(0, 9), max_size=4), max_size=5, unique=True))
def test_frame_properties(values):
    frame = build_frame(values)
    union = set().union(*values) if values else set()
    # classes partition the union
    assert set().union(*frame.classes) if frame.classes else set() == union
    total = sum(len(cls) for cls in frame.classes)
    assert total == len(union)
    # two atoms share a class exactly when their membership patterns agree
    assert len(set(frame.vectors)) == frame.l
    # class order is total
    for i in range(frame.l):
        for j in range(frame.l):
            cmp = frame.compare_subsets({i}, {j})
            assert cmp == 0 if i == j else cmp != 0
    # each listed value is recoverable from the classes it contains
    for v in frame.values:
        assert v == frozenset().union(*(cls for cls in frame.classes if cls <= v)) or not v
    assert len(frame.values) <= 2**frame.l or frame.l == 0


def test_compare_subsets_examples():
    frame = build_frame([frozenset({1, 2}), frozenset({2, 3})])
    assert frame.compare_subsets(set(), {0}) == -1
    assert frame.compare_subsets({0}, {1, 2}) == 1
    assert frame.compare_subsets({1}, {1}) == 0


def test_compare_partitions_examples():
    frame = build_frame([frozenset({1}), frozenset({1, 2})])
    assert frame.l == 2
    assert frame.compare_partitions([{0}, {1}], [{0, 1}]) == 1
    assert frame.compare_partitions([{0, 1}], [{0, 1}]) == 0
    one = build_frame([frozenset({1, 2})])
    assert one.compare_partitions([{0}], [{0}]) == 0


def _frame_with_l(l):
    return build_frame([frozenset({i}) for i in range(l)])


def test_enumerate_counts():
    assert list(enumerate_partitions_ranked(build_frame([]))) == [()]
    assert len(list(enumerate_partitions_ranked(_frame_with_l(3)))) == 5
    with pytest.raises(BudgetExceededError):
        enumerate_partitions_ranked(_frame_with_l(13))


@pytest.mark.parametrize("l", range(7))
def test_three_orderings_agree(l):
    frame = _frame_with_l(l)
    materialized = list(enumerate_partitions_ranked(frame))
    lazy = list(iter_partitions_ranked(l))
    direct = sorted(iter_partitions_rgs(l),
                    key=functools.cmp_to_key(frame.compare_partitions))
    normal = lambda seq: [frozenset(map(frozenset, q)) for q in seq]
    assert normal(materialized) == normal(lazy) == normal(direct)
    assert len(materialized) == bell(l)
    assert len(set(normal(materialized))) == bell(l)


def test_lazy_prefix_of_large_frame():
    stream = iter_partitions_ranked(60)
    first = next(stream)
    assert first == (frozenset(range(60)),)
    second = next(stream)
    assert frozenset(map(frozenset, second)) == frozenset(
        {frozenset(range(1, 60)), frozenset({0})})


@given(st.integers(2, 6))
@settings(max_examples=10)
def test_rank_key_orders_like_comparator(l):
    frame = _frame_with_l(l)
    parts = list(iter_partitions_rgs(l))
    by_key = sorted(parts, key=lambda q: partition_sort_key(q, l), reverse=True)
    for a, b in zip(by_key, by_key[1:]):
        assert frame.compare_partitions(a, b) == -1


def test_lift_examples():
    frame = build_frame([frozenset({1, 2})])
    assert lift([{0}], frame) == FinitaryPartition([{1, 2}])
    two = build_frame([frozenset({1}), frozenset({1, 2})])  # classes {2},{1}
    assert lift([{0, 1}], two) == FinitaryPartition([{1, 2}])
    assert lift([{0}, {1}], two) == FinitaryPartition.singletons()


@given(st.integers(0, 5), st.integers(0, 200))
def test_lift_always_finitary(l, pick):
    frame = _frame_with_l(l)
    parts = list(iter_partitions_rgs(l))
    q = parts[pick % len(parts)]
    lifted = lift(q, frame)
    union = set().union(*frame.classes) if frame.classes else set()
    for block in lifted.exceptional_blocks:
        assert len(block) >= 2
        assert block <= union
