import hashlib
import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fiberbound.errors import BadParametersError, BudgetExceededError, NotInImageError
from fiberbound.fraenkel import perms_moving_exactly
from fiberbound.inject import TABLEAU_ATOM_CAP, Tableau, decode, encode, level_swap
from fiberbound.perms import FinPerm
from helpers import marker_row


def test_tableau_shapes():
    tab = Tableau(2, 4)
    assert len(tab.reserved) == 14
    assert [len(tab.levels[i]) for i in range(3)] == [2, 4, 8]
    assert Tableau(0, 2).reserved == frozenset({0, 1})
    with pytest.raises(BadParametersError):
        Tableau(3, 3)
    # (40, 42) would reserve 2 * (2**41 - 1) atoms; the guard raises before building any
    with pytest.raises(BudgetExceededError):
        Tableau(40, 42)
    with pytest.raises(BudgetExceededError):
        Tableau(0, TABLEAU_ATOM_CAP + 1)


@pytest.mark.parametrize("n, m", [(0, 2), (0, 3), (2, 4), (2, 5), (3, 5)])
def test_tableau_level_sizes(n, m):
    tab = Tableau(n, m)
    width = m - n
    assert tab.reserved == frozenset(range(width * (2 ** (n + 1) - 1)))
    assert [len(level) for level in tab.levels] == [width * 2**i for i in range(n + 1)]


def lower_half(tab, i):
    """The half of ``swaps[i]`` whose keys lie below level ``i``: each lower
    atom to its shadow."""
    return {a: b for a, b in tab.swaps[i].items() if a not in tab.levels[i]}


def test_tableau_level_structure():
    tab = Tableau(2, 5)
    width = 3
    for i in range(3):
        markers = set(marker_row(tab, i))
        shadows = set(lower_half(tab, i).values())
        assert len(markers) == width
        assert tab.levels[i] == frozenset(markers | shadows)
        lower = set().union(*tab.levels[:i]) if i else set()
        assert set(lower_half(tab, i)) == lower


@pytest.mark.parametrize("n, m", [(2, 4), (2, 5), (3, 5)])
def test_swaps_are_fixed_point_free_involutions(n, m):
    tab = Tableau(n, m)
    assert len(tab.swaps) == n + 1
    for i, swap in enumerate(tab.swaps):
        assert all(swap[b] == a != b for a, b in swap.items())
        lower = set().union(*tab.levels[:i])
        assert swap.keys() == lower | set(lower_half(tab, i).values())


@pytest.mark.parametrize("n, m", [(2, 4), (2, 5), (3, 5)])
def test_encode_is_the_swap_conjugate_times_the_marker_cycle(n, m):
    tab = Tableau(n, m)
    for s in _codec_pool(tab):
        image, level = encode(s, tab)
        assert image == s.conjugate(level_swap(s, tab, level)).after(tab.marker_cycles[level])
        # a level-0 image keeps the text encode wrote; it must be the walk's
        assert image.to_cycles() == FinPerm(dict(image._map)).to_cycles()
        assert decode(image, tab) == s


def test_encode_texts_on_the_criterion_1_pools_are_pinned():
    # recorded before level 0 set its images' text, with each text walked
    rows = []
    for n, m in [(2, 4), (2, 5), (3, 5)]:
        tab = Tableau(n, m)
        rows += [[n, m, s.to_cycles(), encode(s, tab)[0].to_cycles()] for s in _codec_pool(tab)]
    assert len(rows) == 12421
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "3ae1ff495c868730a2ef108492351b43f66f13c1e22f06e84ec58230ec674a4b")


def test_encode_fresh_support():
    tab = Tableau(2, 4)
    s = FinPerm.cycle([20, 21])
    image, level = encode(s, tab)
    assert level == 0
    assert level_swap(s, tab, level) == FinPerm.identity()
    assert image == s.after(FinPerm.cycle(marker_row(tab, 0)))
    assert len(image.moved) == 4


def test_encode_on_marker_atoms():
    tab = Tableau(2, 4)
    row0 = marker_row(tab, 0)
    s = FinPerm.cycle([row0[0], row0[1]])
    image, level = encode(s, tab)
    assert level == 1
    shadow = lower_half(tab, 1)
    swap = level_swap(s, tab, level)
    assert swap.moved == frozenset(
        {row0[0], row0[1], shadow[row0[0]], shadow[row0[1]]})
    conjugated = s.conjugate(swap)
    assert conjugated == FinPerm.cycle([shadow[row0[0]], shadow[row0[1]]])
    assert image == conjugated.after(FinPerm.cycle(marker_row(tab, 1)))


def test_encode_wrong_size():
    tab = Tableau(2, 4)
    with pytest.raises(BadParametersError, match=r"^permutation moves 0 points, tableau expects 2$"):
        encode(FinPerm.identity(), tab)


def test_encode_trace_invariants():
    tab = Tableau(3, 5)
    s = FinPerm.cycle([1, 40, 41])
    image, level = encode(s, tab)
    swap = level_swap(s, tab, level)
    assert swap == swap.inverse()
    conjugated = s.conjugate(swap)
    assert len(conjugated.moved) == 3
    assert not (conjugated.moved & tab.marker_cycles[level].moved)
    assert len(image.moved) == 5


def _codec_pool(tab):
    # the criterion 1 pool: every n-point permutation of the reserved atoms and 4 spares
    atoms = sorted(tab.reserved) + [len(tab.reserved) + i for i in range(4)]
    return perms_moving_exactly(iter(atoms), tab.n)


def _three_step_encode(s, tab, level):
    # the construction encode replaced: conjugate by x <-> shadow(x) over the
    # moved atoms below the level, then multiply by the level's marker cycle
    shadows = lower_half(tab, level)
    pairs = {}
    for x in sorted(s.moved & shadows.keys()):
        pairs[x] = shadows[x]
        pairs[shadows[x]] = x
    swap = FinPerm(pairs)
    conjugated = s.conjugate(swap)
    return swap, conjugated, conjugated.after(tab.marker_cycles[level])


def _check_one_pass(s, tab):
    image, got = encode(s, tab)
    level = min(i for i in range(tab.n + 1) if not s.moved & tab.levels[i])
    assert got == level
    swap, conjugated, expected = _three_step_encode(s, tab, level)
    assert image == expected
    assert level_swap(s, tab, level) == swap
    return level


@pytest.mark.parametrize("n, m", [(2, 4), (2, 5)])
def test_one_pass_image_equals_three_step_construction(n, m):
    tab = Tableau(n, m)
    levels = {_check_one_pass(s, tab) for s in _codec_pool(tab)}
    assert levels == set(range(n + 1))


def test_one_pass_image_on_every_level_of_3_5():
    tab = Tableau(3, 5)
    first = {}
    for s in _codec_pool(tab):
        first.setdefault(encode(s, tab)[1], s)
    assert sorted(first) == [0, 1, 2, 3]
    for s in (*first.values(), FinPerm.parse("(1;40;41)"), FinPerm.parse("(0;2;6)")):
        _check_one_pass(s, tab)


def test_decode_accepts_exactly_the_image():
    # every permutation of the 14 reserved atoms and 2 spares that moves 4 of
    # them: decode returns a preimage exactly on the C(16, 2) images
    tab = Tableau(2, 4)
    atoms = sorted(tab.reserved) + [14, 15]
    messages = {"permutation moves no reserved level",
                "marker atoms do not carry the marker cycle",
                "reconstruction has the wrong moved size",
                "re-encoding the reconstruction differs"}
    total = accepted = 0
    for t in perms_moving_exactly(iter(atoms), 4):
        total += 1
        try:
            s = decode(t, tab)
        except NotInImageError as exc:
            assert str(exc) in messages
            continue
        assert encode(s, tab)[0] == t
        accepted += 1
    assert total == 16380
    assert accepted == 120


def test_decode_failures():
    tab = Tableau(2, 4)
    with pytest.raises(NotInImageError, match="^permutation moves no reserved level$"):
        decode(FinPerm.identity(), tab)
    row0 = marker_row(tab, 0)
    with pytest.raises(NotInImageError,
                       match="^reconstruction has the wrong moved size$"):
        decode(FinPerm.cycle([row0[0], row0[1]]), tab)
    # moves a level but the marker cycle is absent
    with pytest.raises(NotInImageError,
                       match="^marker atoms do not carry the marker cycle$"):
        decode(FinPerm.cycle([row0[0], 20, 21, 22]), tab)


def test_decode_rejects_a_reconstruction_that_encodes_elsewhere():
    # level 1's marker cycle around (30 31): level 0 is free for (30 31), so
    # encoding it puts the marker cycle on level 0 instead
    with pytest.raises(NotInImageError, match="^re-encoding the reconstruction differs$"):
        decode(FinPerm.parse("(2;3)(30;31)"), Tableau(2, 4))


@st.composite
def decode_inputs(draw):
    """A tableau and a permutation of its reserved atoms plus four spare ones:
    a random one, a valid image composed with one, or a level's marker cycle
    times an n-cycle on the other atoms, which decodes to an n-point
    permutation whose own encoding may pick another level."""
    tab = draw(st.sampled_from([Tableau(2, 4), Tableau(2, 5), Tableau(3, 5)]))
    atoms = sorted(tab.reserved) + [len(tab.reserved) + i for i in range(4)]
    shape = draw(st.sampled_from(["random", "image", "marker"]))
    if shape == "random":
        points = draw(st.lists(st.sampled_from(atoms), unique=True, max_size=10))
        return tab, FinPerm(dict(zip(points, draw(st.permutations(points)))))
    if shape == "marker":
        level = draw(st.integers(0, tab.n))
        atoms = [a for a in atoms if a not in marker_row(tab, level)]
    # for n = 2 and 3 every permutation moving exactly n points is an n-cycle
    s = FinPerm.cycle(draw(st.lists(st.sampled_from(atoms), unique=True, min_size=tab.n,
                                    max_size=tab.n)))
    if shape == "marker":
        return tab, tab.marker_cycles[level].after(s)
    points = draw(st.lists(st.sampled_from(atoms), unique=True, max_size=4))
    return tab, encode(s, tab)[0].after(FinPerm(dict(zip(points, draw(st.permutations(points))))))


@given(decode_inputs())
def test_decode_returns_a_preimage_or_refuses(case):
    # what the decoder's certificate guarantees: any result re-encodes to t
    tab, t = case
    try:
        s = decode(t, tab)
    except NotInImageError:
        return
    assert encode(s, tab)[0] == t


def test_round_trip_small_exhaustive():
    tab = Tableau(2, 4)
    atoms = sorted(tab.reserved) + [14, 15]
    seen = set()
    for pair in itertools.combinations(atoms, 2):
        s = FinPerm.cycle(list(pair))
        image, _ = encode(s, tab)
        assert len(image.moved) == 4
        assert decode(image, tab) == s
        seen.add(image)
    assert len(seen) == len(list(itertools.combinations(atoms, 2)))


def test_n_zero_round_trip():
    tab = Tableau(0, 3)
    image, level = encode(FinPerm.identity(), tab)
    assert level == 0
    assert image == FinPerm.cycle(marker_row(tab, 0))
    assert decode(image, tab) == FinPerm.identity()


def test_marker_cycles_built_once_per_tableau():
    for tab in (Tableau(3, 5), Tableau(0, 3)):
        assert len(tab.marker_cycles) == tab.n + 1
        for i, cyc in enumerate(tab.marker_cycles):
            assert cyc == FinPerm.cycle(marker_row(tab, i))
    tab = Tableau(2, 4)
    row0 = marker_row(tab, 0)
    for s in (FinPerm.cycle([20, 21]), FinPerm.cycle([row0[0], row0[1]])):
        image, level = encode(s, tab)
        assert tab.marker_cycles[level] == FinPerm.cycle(marker_row(tab, level))
        assert tab.marker_cycles[level]._map.items() <= image._map.items()
