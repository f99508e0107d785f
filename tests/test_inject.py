import itertools

import pytest

from fiberbound.errors import BadParametersError, NotInImageError, WrongMovedSizeError
from fiberbound.inject import Tableau, decode, encode
from fiberbound.perms import FinPerm


def test_tableau_shapes():
    tab = Tableau(2, 4)
    assert len(tab.reserved) == 14
    assert [len(tab.levels[i]) for i in range(3)] == [2, 4, 8]
    assert Tableau(0, 2).reserved == frozenset({0, 1})
    with pytest.raises(BadParametersError):
        Tableau(3, 3)


def test_tableau_level_structure():
    tab = Tableau(2, 5)
    width = 3
    for i in range(3):
        markers = set(tab.marker_rows[i])
        shadows = set(tab.shadow_maps[i].values())
        assert len(markers) == width
        assert tab.levels[i] == frozenset(markers | shadows)
        lower = set().union(*tab.levels[:i]) if i else set()
        assert set(tab.shadow_maps[i]) == lower


def test_encode_fresh_support():
    tab = Tableau(2, 4)
    s = FinPerm.cycle([20, 21])
    image, trace = encode(s, tab)
    assert trace.level == 0
    assert trace.swap.is_identity()
    assert image == s.after(FinPerm.cycle(tab.marker_rows[0]))
    assert len(image.moved) == 4


def test_encode_on_marker_atoms():
    tab = Tableau(2, 4)
    row0 = tab.marker_rows[0]
    s = FinPerm.cycle([row0[0], row0[1]])
    image, trace = encode(s, tab)
    assert trace.level == 1
    shadow = tab.shadow_maps[1]
    assert trace.swap.moved == frozenset(
        {row0[0], row0[1], shadow[row0[0]], shadow[row0[1]]})
    assert trace.conjugated == FinPerm.cycle([shadow[row0[0]], shadow[row0[1]]])
    assert image == trace.conjugated.after(FinPerm.cycle(tab.marker_rows[1]))


def test_encode_wrong_size():
    tab = Tableau(2, 4)
    with pytest.raises(WrongMovedSizeError):
        encode(FinPerm.identity(), tab)


def test_encode_trace_invariants():
    tab = Tableau(3, 5)
    s = FinPerm.cycle([1, 40, 41])
    image, trace = encode(s, tab)
    assert trace.swap == trace.swap.inverse()
    assert len(trace.conjugated.moved) == 3
    assert not (trace.conjugated.moved & trace.marker_cycle.moved)
    assert len(image.moved) == 5


def test_decode_failures():
    tab = Tableau(2, 4)
    with pytest.raises(NotInImageError):
        decode(FinPerm.identity(), tab)
    row0 = tab.marker_rows[0]
    with pytest.raises(NotInImageError):
        decode(FinPerm.cycle([row0[0], row0[1]]), tab)
    # moves a level but the marker cycle is absent
    with pytest.raises(NotInImageError):
        decode(FinPerm.cycle([row0[0], 20, 21, 22]), tab)


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
    image, trace = encode(FinPerm.identity(), tab)
    assert image == FinPerm.cycle(tab.marker_rows[0])
    assert decode(image, tab) == FinPerm.identity()
