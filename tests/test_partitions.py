import functools
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberbound.errors import (BadParametersError, BudgetExceededError, OutOfRangeError,
                               OverlappingBlocksError, ParseError)
from fiberbound.partitions import (BELL_MAX, FinitaryPartition, bell, build_frame, derangement,
                                   iter_partitions_ranked, lift)
from helpers import masks

# Reference for the lazy rank stream: every partition by restricted growth
# strings, ordered either by sorting block bitmasks or by the comparator
# over characteristic strings that the partitions module docstring defines.

ENUMERATION_CAP = 12


def iter_partitions_rgs(l):
    """All partitions of ``{0..l-1}`` via restricted growth strings."""
    if l == 0:
        yield ()
        return
    labels = [0] * l

    def rec(pos, mx):
        if pos == l:
            blocks = {}
            for i, lab in enumerate(labels):
                blocks.setdefault(lab, []).append(i)
            yield tuple(frozenset(b) for b in blocks.values())
            return
        for v in range(mx + 2):
            labels[pos] = v
            yield from rec(pos + 1, max(mx, v))

    yield from rec(1, 0)


def partition_sort_key(q, l):
    """Ascending tuple of block bitmasks; reverse-sorting it ranks partitions."""
    return tuple(sorted(sum(1 << (l - 1 - i) for i in b) for b in q))


def enumerate_partitions_ranked(frame, budget=ENUMERATION_CAP):
    """All partitions of the frame's classes, ascending in the rank order.

    Materializes and sorts, so ``l`` beyond ``budget`` raises rather than
    building an astronomically long list.
    """
    l = frame.l
    if l > budget:
        raise BudgetExceededError(f"l={l} exceeds enumeration budget {budget}")
    parts = list(iter_partitions_rgs(l))
    parts.sort(key=lambda q: partition_sort_key(q, l), reverse=True)
    return iter(parts)


def subset_key(frame, indices):
    """Bitmask of a class subset; class 0 is the most significant bit."""
    l = frame.l
    key = 0
    for i in indices:
        if not 0 <= i < l:
            raise IndexError(f"class index {i} out of range for l={l}")
        key |= 1 << (l - 1 - i)
    return key


def compare_subsets(frame, u, v):
    """-1, 0 or 1 comparing characteristic strings over the classes."""
    ku, kv = subset_key(frame, u), subset_key(frame, v)
    return (ku > kv) - (ku < kv)


def compare_partitions(frame, q1, q2):
    """Compare partitions of the classes: the least subset in the symmetric
    difference decides, and the side containing it is the greater."""
    s1 = {frozenset(b) for b in q1}
    s2 = {frozenset(b) for b in q2}
    if s1 == s2:
        return 0
    least = min((s1 ^ s2), key=lambda b: subset_key(frame, b))
    return 1 if least in s1 else -1


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
    assert FinitaryPartition([]) == FinitaryPartition(())
    with pytest.raises(OverlappingBlocksError):
        FinitaryPartition([{1, 2}, {2, 3}])


def test_partition_text():
    p = FinitaryPartition([{5, 6, 7}, {1, 2}])
    assert str(p) == "{1,2}{5,6,7}"
    assert str(FinitaryPartition(())) == "{}*"
    assert FinitaryPartition.parse("{1,2}{5,6,7}") == p
    assert FinitaryPartition.parse("{}*") == FinitaryPartition(())
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
    for l in range(1, BELL_MAX + 1):
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
    assert (set().union(*frame.classes) if frame.classes else set()) == union
    total = sum(len(cls) for cls in frame.classes)
    assert total == len(union)
    # two atoms share a class exactly when their membership patterns agree
    assert len(set(masks(frame))) == frame.l
    # each class's mask is its atoms' membership pattern, value 0 most
    # significant, and the masks strictly ascend
    width = len(frame.values)
    for cls, mask in zip(frame.classes, masks(frame)):
        for a in cls:
            assert mask == sum(1 << (width - 1 - i) for i, v in enumerate(frame.values) if a in v)
    assert all(a < b for a, b in zip(masks(frame), masks(frame)[1:]))
    # each listed value is recoverable from the classes it contains
    for v in frame.values:
        assert v == frozenset().union(*(cls for cls in frame.classes if cls <= v)) or not v
    assert len(frame.values) <= 2**frame.l or frame.l == 0


def frame_by_bool_vectors(values):
    # reference build: one bool per listed value for each atom, grouped and
    # sorted as tuples; each vector read as a mask, value 0 most significant
    vals = tuple(frozenset(v) for v in values)
    groups = {}
    for a in sorted(set().union(*vals)):
        groups.setdefault(tuple(a in v for v in vals), []).append(a)
    ordered = sorted(groups.items())
    masks = tuple(int("".join("1" if bit else "0" for bit in vec), 2) for vec, _ in ordered)
    return vals, tuple(frozenset(atoms) for _, atoms in ordered), masks


@given(st.lists(st.frozensets(st.integers(0, 9), max_size=6), max_size=7, unique=True),
       st.booleans(), st.booleans(), st.randoms())
def test_build_frame_matches_bool_vector_reference(values, with_empty, with_union, rnd):
    whole = frozenset().union(*values)
    for extra, wanted in ((frozenset(), with_empty), (whole, with_union)):
        if wanted and extra not in values:
            values.append(extra)
    rnd.shuffle(values)
    frame = build_frame(values)
    assert (frame.values, frame.classes, masks(frame)) == frame_by_bool_vectors(values)


@given(st.lists(st.frozensets(st.integers(0, 9), max_size=6), max_size=7, unique=True),
       st.booleans(), st.booleans(), st.data())
def test_refined_frame_matches_a_full_build(values, with_empty, with_union, data):
    whole = frozenset().union(*values)
    for extra, wanted in ((frozenset(), with_empty), (whole, with_union)):
        if wanted and extra not in values:
            values.insert(data.draw(st.integers(0, len(values))), extra)
    i = data.draw(st.integers(0, len(values)))
    full = build_frame(values)
    prev = build_frame(values[:i])
    prev_classes = prev.classes
    frame = build_frame(values[i:], prev)
    assert (frame.values, frame.classes, masks(frame)) == (full.values, full.classes, masks(full))
    assert frame is prev
    # the masks come from the values, not from the refinement, so this
    # checks the order the refinement put the classes in
    assert all(a < b for a, b in zip(masks(frame), masks(frame)[1:]))
    # a class no new value split is prev's own object, whether the new
    # values miss it or cover it
    new_atoms = frozenset().union(*values[i:])
    kept = {id(c) for c in frame.classes}
    for c in prev_classes:
        if c.isdisjoint(new_atoms):
            assert id(c) in kept
    for c in frame.classes:
        assert c not in prev_classes or any(c is d for d in prev_classes)
    # a value the frame already lists, or one repeated within the call, is
    # refused before any refinement, and the frame is left as it was
    state = (frame.values, frame.classes)
    fresh = frozenset({10})
    refused = [[fresh, fresh]] + [[fresh, v] for v in values] + [[v] for v in values]
    for more in refused:
        with pytest.raises(BadParametersError, match="duplicate-free"):
            build_frame(more, frame)
        assert (frame.values, frame.classes) == state
    # nor was ``fresh`` refined in behind the refusals
    build_frame([fresh], frame)
    assert frame.classes == build_frame(values + [fresh]).classes


def _state(frame):
    return frame.values, frame.classes, masks(frame)


def test_union_of_classes_keeps_the_class_tuple():
    # classes {4}, {3}, {1}, {2} of {1,2}, {2,3}, {4}; every value added here
    # is a union of classes, so no class splits and no atom is new
    frame = build_frame([frozenset({1, 2}), frozenset({2, 3}), frozenset({4})])
    classes = frame.classes
    values = list(frame.values)
    for more in ([frozenset({1, 2, 3})], [frozenset({1, 4}), frozenset({3})], [frozenset()]):
        build_frame(more, frame)
        values += more
        assert frame.classes is classes
        assert _state(frame) == _state(build_frame(values))


@pytest.mark.parametrize("more", [
    [frozenset({1, 3})],                    # holds {1} whole and cuts {3,4}
    [frozenset({2, 5})],                    # holds {2} whole and brings atom 5
    [frozenset({5, 6})],                    # only new atoms
    [frozenset(), frozenset({4})],          # an empty value, then a cut of {3,4}
    [frozenset({1, 3, 4}), frozenset({3})],  # a union, then a cut
], ids=["split", "union-and-fresh", "fresh", "empty-then-split", "union-then-split"])
def test_changing_value_matches_a_full_build(more):
    # classes {3,4}, {1}, {2}
    values = [frozenset({1, 2}), frozenset({2, 3, 4})]
    frame = build_frame(values)
    classes = frame.classes
    build_frame(more, frame)
    assert frame.classes is not classes
    assert _state(frame) == _state(build_frame(values + more))


@pytest.mark.parametrize("seed", range(4))
def test_random_fold_matches_a_full_build_at_every_prefix(seed):
    # each value is a union of classes, cuts one, or brings a new atom; only
    # a union keeps the class tuple object
    rnd = random.Random(seed)
    values = [frozenset({0, 1, 2})]
    frame = build_frame(values)
    kinds = set()
    while len(values) < 60:
        classes = frame.classes
        picked = frozenset().union(*rnd.sample(classes, rnd.randint(0, len(classes))))
        kind = rnd.choice(["union", "split", "fresh"])
        if kind == "split":
            big = [c for c in classes if len(c) > 1]
            if not big:
                continue
            c = rnd.choice(big)
            picked = (picked - c) | frozenset(rnd.sample(sorted(c), rnd.randint(1, len(c) - 1)))
        elif kind == "fresh":
            picked |= {rnd.randint(3, 40)}
        if picked in frame.values or kind == "fresh" and picked <= set().union(*classes):
            continue
        kinds.add(kind)
        values.append(picked)
        build_frame([picked], frame)
        assert (frame.classes is classes) == (kind == "union")
        assert _state(frame) == _state(build_frame(values))
    assert kinds == {"union", "split", "fresh"}


def test_compare_subsets_examples():
    frame = build_frame([frozenset({1, 2}), frozenset({2, 3})])
    assert compare_subsets(frame, set(), {0}) == -1
    assert compare_subsets(frame, {0}, {1, 2}) == 1
    assert compare_subsets(frame, {1}, {1}) == 0


def test_compare_partitions_examples():
    frame = build_frame([frozenset({1}), frozenset({1, 2})])
    assert frame.l == 2
    assert compare_partitions(frame, [{0}, {1}], [{0, 1}]) == 1
    assert compare_partitions(frame, [{0, 1}], [{0, 1}]) == 0
    one = build_frame([frozenset({1, 2})])
    assert compare_partitions(one, [{0}], [{0}]) == 0


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
                    key=functools.cmp_to_key(functools.partial(compare_partitions, frame)))
    normal = lambda seq: [frozenset(map(frozenset, q)) for q in seq]
    assert normal(materialized) == normal(lazy) == normal(direct)
    assert len(materialized) == bell(l)
    assert len(set(normal(materialized))) == bell(l)


def iter_partitions_by_block_mask(l):
    """The rank stream as first written: each first block's mask counted
    down over all the indices after its least one, O(t) per draw."""

    def gen(avail, upper):
        if not avail:
            yield ()
            return
        yield (frozenset(avail),)
        for jpos in range(1, len(avail)):
            m1 = avail[jpos]
            if m1 >= upper:
                break
            head = avail[:jpos]
            tail = avail[jpos + 1:]
            t = len(tail)
            for mask in range((1 << t) - 1, -1, -1):
                members = tuple(tail[p] for p in range(t) if mask >> (t - 1 - p) & 1)
                block = frozenset((m1,) + members)
                rest = head + tuple(x for x in tail if x not in block)
                for sub in gen(rest, m1):
                    yield (block,) + sub

    yield from gen(tuple(range(l)), l)


@pytest.mark.parametrize("l", range(9))
def test_ranked_walk_matches_block_mask_walk(l):
    assert list(iter_partitions_ranked(l)) == list(iter_partitions_by_block_mask(l))


@pytest.mark.parametrize("l", [12, 40, 290])
def test_ranked_walk_prefix_matches_block_mask_walk(l):
    # 290 classes is the benchmark's part-stream width
    prefix = list(itertools.islice(iter_partitions_ranked(l), 3000))
    assert prefix == list(itertools.islice(iter_partitions_by_block_mask(l), 3000))


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
        assert compare_partitions(frame, a, b) == -1


def test_lift_examples():
    frame = build_frame([frozenset({1, 2})])
    assert lift([{0}], frame) == FinitaryPartition([{1, 2}])
    two = build_frame([frozenset({1}), frozenset({1, 2})])  # classes {2},{1}
    assert lift([{0, 1}], two) == FinitaryPartition([{1, 2}])
    assert lift([{0}, {1}], two) == FinitaryPartition(())


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


def checked_lift(q, frame):
    # the lift as first written: every block the union of its classes,
    # through the checked constructor
    return FinitaryPartition([frozenset().union(*(frame.classes[i] for i in part)) for part in q])


@given(st.lists(st.frozensets(st.integers(0, 9), max_size=5), max_size=3, unique=True), st.data())
@example([], None)
@example([frozenset()], None)
@example([frozenset({1}), frozenset({1, 2}), frozenset({2, 3})], None)
@example([frozenset({1, 2, 3}), frozenset({3, 4, 5}), frozenset({5, 6, 7})], None)
def test_unchecked_lift_matches_the_checked_lift(values, data):
    # frames with no class, singleton classes and classes of several atoms,
    # folded in one piece or two; every draw up to l = 6 meets ties for the
    # largest block and a one-class largest block
    cut = 0 if data is None else data.draw(st.integers(0, len(values)))
    frame = build_frame(values[cut:], build_frame(values[:cut]))
    if frame.l > 6:
        return
    assert frame.atoms == frozenset().union(*frame.classes)
    for q in iter_partitions_ranked(frame.l):
        lifted, want = lift(q, frame), checked_lift(q, frame)
        assert (lifted, hash(lifted), str(lifted)) == (want, hash(want), str(want))


class CountingClasses(tuple):
    def __new__(cls, classes):
        self = super().__new__(cls, classes)
        self.reads = 0
        return self

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("j", [0, 117, 199])
@pytest.mark.parametrize("largest_first", [True, False])
def test_lift_reads_only_the_classes_outside_the_largest_block(j, largest_first):
    frame = build_frame([frozenset({i}) for i in range(200)])
    rest, alone = frozenset(range(200)) - {j}, frozenset({j})
    q = (rest, alone) if largest_first else (alone, rest)
    want = checked_lift(q, frame)
    frame.classes = classes = CountingClasses(frame.classes)
    assert lift(q, frame) == want
    assert classes.reads == 1
