from hypothesis import given
from hypothesis import strategies as st

import pytest

from fiberbound.atoms import format_atom_set, fresh_atoms, parse_atom_set
from fiberbound.errors import BadParametersError, ParseError
from fiberbound.partitions import FinitaryPartition, build_frame
from fiberbound.perms import FinPerm


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


def test_atom_set_text():
    assert format_atom_set({3, 1, 2}) == "{1,2,3}"
    assert format_atom_set(set()) == "{}"
    assert parse_atom_set("{1,2,3}") == frozenset({1, 2, 3})
    assert parse_atom_set("{}") == frozenset()
    assert parse_atom_set("0,5") == frozenset({0, 5})
    assert parse_atom_set("{007,0}") == frozenset({0, 7})
    assert FinitaryPartition.parse("{01,2}") == FinitaryPartition([[1, 2]])
    with pytest.raises(ParseError):
        parse_atom_set("{1,1}")
    with pytest.raises(ParseError):
        parse_atom_set("{1,x}")


# int() reads each of these atoms; format_atom_set writes none of them.  The
# set text is not stripped either, so "2,1 " is refused for its outer space
NON_CANONICAL_ATOMS = {"plus": "+1", "underscore": "1_0", "arabic-indic": "\u0663",
                       "inner-space": " 1 ", "fullwidth": "\uff11", "trailing-space": "1 "}


@pytest.mark.parametrize("atom", NON_CANONICAL_ATOMS.values(), ids=NON_CANONICAL_ATOMS.keys())
def test_atom_set_refuses_non_canonical_atoms(atom):
    for text in ("{" + atom + "}", "{" + atom + ",2}", "{2," + atom + "}", "2," + atom):
        with pytest.raises(ParseError) as exc:
            parse_atom_set(text)
        assert str(exc.value) == f"bad atom in set: {text!r}"
    with pytest.raises(ParseError):
        FinitaryPartition.parse("{" + atom + ",2}")
    with pytest.raises(ParseError):
        FinitaryPartition.parse("{3,4}{" + atom + ",2}")


@given(st.frozensets(st.integers(0, 99), max_size=8))
def test_atom_set_round_trip(atoms):
    assert parse_atom_set(format_atom_set(atoms)) == atoms


@pytest.mark.parametrize("build", [
    lambda: FinPerm({1: 2, 2: 3}),
    lambda: FinPerm({-1: 2, 2: -1}),
    lambda: FinPerm({True: 2, 2: True}),
    lambda: FinPerm({1: 2, 2: True}),
    lambda: FinitaryPartition([{-1, 2}]),
    lambda: FinitaryPartition([{True, 2}]),
    lambda: build_frame([{1, 2}, {2, 1}]),
    lambda: fresh_atoms(-1, ()),
], ids=["perm-non-bijection", "perm-negative", "perm-bool", "perm-bool-image",
        "partition-negative", "partition-bool", "frame-duplicates", "fresh-negative-count"])
def test_value_constructors_raise_domain_errors(build):
    with pytest.raises(BadParametersError):
        build()
