from hypothesis import given
from hypothesis import strategies as st

import pytest

from fiberbound.atoms import SetSpec, format_atom_set, fresh_atoms, parse_atom_set
from fiberbound.errors import ParseError


def test_fresh_atoms_examples():
    assert fresh_atoms(3, set()) == (0, 1, 2)
    assert fresh_atoms(2, {0, 2}) == (1, 3)
    assert fresh_atoms(0, {7}) == ()


@given(st.integers(0, 10), st.frozensets(st.integers(0, 20), max_size=10))
def test_fresh_atoms_properties(count, avoid):
    out = fresh_atoms(count, avoid)
    assert len(out) == count
    assert len(set(out)) == count
    assert not (set(out) & avoid)


def test_spec_contains():
    assert 3 in SetSpec.finite({1, 3})
    assert 2 not in SetSpec.cofinite({2})
    assert 42 in SetSpec.cofinite(set())
    assert 7 in SetSpec.universe()


def test_atom_set_text():
    assert format_atom_set({3, 1, 2}) == "{1,2,3}"
    assert format_atom_set(set()) == "{}"
    assert parse_atom_set("{1,2,3}") == frozenset({1, 2, 3})
    assert parse_atom_set("{}") == frozenset()
    assert parse_atom_set("0,5") == frozenset({0, 5})
    with pytest.raises(ParseError):
        parse_atom_set("{1,1}")
    with pytest.raises(ParseError):
        parse_atom_set("{1,x}")


@given(st.frozensets(st.integers(0, 99), max_size=8))
def test_atom_set_round_trip(atoms):
    assert parse_atom_set(format_atom_set(atoms)) == atoms
