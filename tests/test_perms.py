import pytest
from hypothesis import given
from hypothesis import strategies as st

from fiberbound.atoms import SetSpec
from fiberbound.errors import DuplicatePointError, ParseError, SinglePointError
from fiberbound.perms import FinPerm

c = FinPerm.cycle


@st.composite
def fin_perms(draw, max_support=8, pool=16):
    atoms = draw(st.lists(st.integers(0, pool - 1), unique=True, max_size=max_support))
    image = draw(st.permutations(atoms))
    return FinPerm(dict(zip(atoms, image)))


@st.composite
def regions(draw, pool=16):
    atoms = draw(st.frozensets(st.integers(0, pool - 1), max_size=pool))
    cofinite = draw(st.booleans())
    return SetSpec.cofinite(atoms) if cofinite else SetSpec.finite(atoms)


def test_cycle_examples():
    s = c([1, 2, 3])
    assert s(1) == 2 and s(2) == 3 and s(3) == 1
    assert c([]) == FinPerm.identity()
    assert c([4, 7]).moved == frozenset({4, 7})


def test_cycle_errors():
    with pytest.raises(DuplicatePointError):
        c([1, 2, 1])
    with pytest.raises(SinglePointError):
        c([5])


def test_fixed_points_pruned():
    assert FinPerm({3: 3, 1: 2, 2: 1, 9: 9}).moved == frozenset({1, 2})


def test_no_single_moved_point_ever():
    with pytest.raises(SinglePointError):
        FinPerm({1: 2})


def test_apply():
    assert c([1, 2, 3])(1) == 2
    assert c([1, 2, 3])(9) == 9
    assert FinPerm.identity()(0) == 0


def test_compose_examples():
    assert c([1, 2]).after(c([1, 2])) == FinPerm.identity()
    both = c([3, 4]).after(c([1, 2]))
    assert both.moved == frozenset({1, 2, 3, 4})
    assert c([1, 4]).after(c([1, 3])) == c([1, 3, 4])


def test_inverse_examples():
    assert c([1, 2, 3]).inverse() == c([1, 3, 2])
    assert FinPerm.identity().inverse() == FinPerm.identity()
    assert c([4, 7]).inverse() == c([4, 7])


def test_moved():
    assert c([1, 2]).moved == frozenset({1, 2})
    assert FinPerm.identity().moved == frozenset()
    assert c([1, 2, 3]).moved == frozenset({1, 2, 3})


def test_deflate_examples():
    assert c([1, 2, 3]).deflate(SetSpec.finite({1, 3})) == c([1, 3])
    assert c([1, 2]).deflate(SetSpec.universe()) == c([1, 2])
    assert c([1, 2, 3, 4]).deflate(SetSpec.cofinite({2})) == c([1, 3, 4])


def _deflate_by_cycle_filter(s, region):
    # independent route: keep each cycle's members of the region in cyclic order
    out = {}
    for cyc in s.cycles():
        members = [a for a in cyc if a in region]
        for i, a in enumerate(members):
            out[a] = members[(i + 1) % len(members)]
    return FinPerm(out)


@given(fin_perms(), regions())
def test_deflate_matches_cycle_filter(s, region):
    result = s.deflate(region)
    assert result == _deflate_by_cycle_filter(s, region)
    assert all(a in region for a in result.moved)
    assert result.moved <= s.moved


@given(fin_perms())
def test_deflate_degenerate_regions(s):
    assert s.deflate(SetSpec.universe()) == s
    assert FinPerm.identity().deflate(SetSpec.finite(s.moved)) == FinPerm.identity()


@given(fin_perms())
def test_deflate_bijects_finite_region(s):
    region = frozenset(list(sorted(s.moved))[::2])
    result = s.deflate(SetSpec.finite(region))
    images = {result(a) for a in region}
    assert images == set(region)


@given(fin_perms())
def test_inverse_law(s):
    assert s.after(s.inverse()) == FinPerm.identity()
    assert s.inverse().after(s) == FinPerm.identity()
    assert s.inverse().moved == s.moved


@given(fin_perms(), fin_perms())
def test_compose_support(g, f):
    assert g.after(f).moved <= g.moved | f.moved


@given(fin_perms(max_support=4, pool=8))
def test_disjoint_supports_commute(f):
    g = FinPerm({a + 10: b + 10 for a, b in f.moved_map.items()})
    assert g.after(f) == f.after(g)


def test_to_cycles_examples():
    assert c([2, 1]).to_cycles() == "(1;2)"
    assert FinPerm.identity().to_cycles() == "()"
    assert c([5, 6]).after(c([1, 2, 3])).to_cycles() == "(1;2;3)(5;6)"


@given(fin_perms(pool=40))
def test_cycles_round_trip(s):
    assert FinPerm.parse(s.to_cycles()) == s


def test_parse_errors():
    for bad in ("", "(1)", "(1;2", "1;2)", "(1;2)(2;3)", "(1;;2)", "(a;b)", "() ()"):
        with pytest.raises(ParseError):
            FinPerm.parse(bad)


def test_parse_non_canonical_forms():
    assert FinPerm.parse("(2;1)") == c([1, 2])
    assert FinPerm.parse("(5;6)(1;2;3)") == c([5, 6]).after(c([1, 2, 3]))
