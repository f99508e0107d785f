import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fiberbound.errors import BadParametersError, ParseError
from fiberbound.fraenkel import perms_moving_exactly
from fiberbound.inject import Tableau, decode, encode, level_swap
from fiberbound.perm_engine import FamilyIndex, _index_sets, assemble, build_family
from fiberbound.perms import FinPerm
from helpers import cycle_text, cycles

c = FinPerm.cycle


@st.composite
def fin_perms(draw, max_support=8, pool=16):
    atoms = draw(st.lists(st.integers(0, pool - 1), unique=True, max_size=max_support))
    image = draw(st.permutations(atoms))
    return FinPerm(dict(zip(atoms, image)))


def offs(pool=16):
    """The atoms a deflation pushes off."""
    return st.frozensets(st.integers(0, pool - 1), max_size=pool)


def test_cycle_examples():
    s = c([1, 2, 3])
    assert s(1) == 2 and s(2) == 3 and s(3) == 1
    assert c([]) == FinPerm.identity()
    assert c([4, 7]).moved == frozenset({4, 7})


def test_cycle_errors():
    with pytest.raises(BadParametersError, match=r"^repeated atom in cycle \[1, 2, 1\]$"):
        c([1, 2, 1])
    with pytest.raises(BadParametersError, match=r"^cycle of length one is not a permutation move$"):
        c([5])


# the message of each refusal other than a bad atom's, by the points' repr
CYCLE_REFUSALS = {
    "[1, 1]": r"^repeated atom in cycle \[1, 1\]$",
    "[1.0, 1]": r"^repeated atom in cycle \[1\.0, 1\]$",
    "[3]": r"^cycle of length one is not a permutation move$",
}


@pytest.mark.parametrize("points, error", [
    ([1, 1], BadParametersError),
    ([1.0, 1], BadParametersError),
    ([3], BadParametersError),
    ([-1, 2], BadParametersError),
    ([True, 2], BadParametersError),
    ([1.0, 2], BadParametersError),
    (["a", "b"], BadParametersError),
])
def test_cycle_rejects_bad_points(points, error):
    match = CYCLE_REFUSALS.get(repr(points), r"^atoms must be non-negative integers$")
    with pytest.raises(error, match=match):
        c(points)


@given(st.lists(st.integers(0, 40), unique=True, max_size=10).filter(lambda pts: len(pts) != 1))
def test_cycle_matches_checked_constructor(pts):
    assert c(pts) == FinPerm({a: pts[(i + 1) % len(pts)] for i, a in enumerate(pts)})


def test_fixed_points_pruned():
    assert FinPerm({3: 3, 1: 2, 2: 1, 9: 9}).moved == frozenset({1, 2})


def test_no_single_moved_point_ever():
    with pytest.raises(BadParametersError, match=r"^a permutation cannot move exactly one point$"):
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
    s = c([1, 2, 3])
    assert s.deflate(s.moved - {1, 3}) == c([1, 3])
    assert c([1, 2]).deflate(()) == c([1, 2])
    assert c([1, 2, 3, 4]).deflate({2}) == c([1, 3, 4])


def _deflate_by_cycle_filter(s, off):
    # independent route: keep each cycle's members outside off in cyclic order
    out = {}
    for cyc in cycles(s):
        members = [a for a in cyc if a not in off]
        for i, a in enumerate(members):
            out[a] = members[(i + 1) % len(members)]
    return FinPerm(out)


@given(fin_perms(), offs(), st.booleans())
def test_deflate_matches_cycle_filter(s, atoms, onto):
    # onto: the atoms are a finite region R, reached by pushing off moved − R
    off = s.moved - atoms if onto else atoms
    result = s.deflate(off)
    assert result == _deflate_by_cycle_filter(s, off)
    assert result.moved.isdisjoint(off)
    assert result.moved <= (s.moved & atoms if onto else s.moved)


@given(fin_perms())
def test_deflate_degenerate_regions(s):
    assert s.deflate(()) == s
    assert s.deflate(s.moved) == FinPerm.identity()
    assert FinPerm.identity().deflate(s.moved) == FinPerm.identity()


@given(fin_perms())
def test_deflate_bijects_finite_region(s):
    region = frozenset(list(sorted(s.moved))[::2])
    result = s.deflate(s.moved - region)
    images = {result(a) for a in region}
    assert images == set(region)


@given(fin_perms())
def test_inverse_law(s):
    assert s.after(s.inverse()) == FinPerm.identity()
    assert s.inverse().after(s) == FinPerm.identity()
    assert s.inverse().moved == s.moved


@given(fin_perms(), fin_perms())
def test_conjugate_matches_composition(s, g):
    assert s.conjugate(g) == g.after(s).after(g.inverse())
    assert s.conjugate(g).moved == {g(a) for a in s.moved}
    assert s.conjugate(FinPerm.identity()) == s


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


def _cycles_by_seen_set(s):
    # reference: walk each cycle from its least atom, skipping atoms already seen
    seen = set()
    out = []
    for start in sorted(s.moved):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        nxt = s(start)
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = s(nxt)
        out.append(tuple(cyc))
    return out


@given(fin_perms(pool=40))
def test_cycles_match_seen_set_reference(s):
    ref = _cycles_by_seen_set(s)
    assert cycles(s) == ref
    text = "".join("(" + ";".join(str(a) for a in cyc) + ")" for cyc in ref)
    assert s.to_cycles() == (text or "()")


def test_parse_errors():
    for bad in ("", "(1)", "(1;2", "1;2)", "(1;2)(2;3)", "(1;;2)", "(a;b)", "() ()"):
        with pytest.raises(ParseError):
            FinPerm.parse(bad)


INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(INT_DIGITS == 0, reason="int() reads decimal strings of any length")
def test_parse_over_long_atom_is_a_parse_error():
    # one digit past the limit of int() on a decimal string
    with pytest.raises(ParseError, match="bad atom in cycle notation"):
        FinPerm.parse("(" + "9" * (INT_DIGITS + 1) + ";1)")


def test_parse_non_canonical_forms():
    assert FinPerm.parse("(2;1)") == c([1, 2])
    assert FinPerm.parse("(5;6)(1;2;3)") == c([5, 6]).after(c([1, 2, 3]))


def _after_pointwise(g, f):
    return FinPerm({a: g(f(a)) for a in g.moved | f.moved})


def _conjugate_pointwise(s, g):
    return FinPerm({g(a): g(s(a)) for a in s.moved})


def _inverse_pointwise(s):
    return FinPerm({s(a): a for a in s.moved})


@given(fin_perms(), fin_perms())
def test_kernel_matches_pointwise_reference(s, g):
    # references go through __call__ over the union of supports
    assert s.after(g) == _after_pointwise(s, g)
    assert g.after(s) == _after_pointwise(g, s)
    assert s.conjugate(g) == _conjugate_pointwise(s, g)
    assert s.inverse() == _inverse_pointwise(s)
    for a in s.moved | g.moved | {99}:
        assert s.conjugate(g)(g(a)) == g(s(a))


@given(fin_perms())
def test_equal_perms_hash_equal(s):
    first = hash(s)
    assert hash(s) == first
    ident = FinPerm.identity()
    routes = [FinPerm.parse(s.to_cycles()), s.after(ident), ident.after(s),
              s.conjugate(ident), s.inverse().inverse()]
    for t in routes:
        assert t == s
        assert hash(t) == first
    assert len({s, *routes}) == 1
    assert hash(s) == first


def _validates(r):
    # the validating constructor would accept the unchecked map unchanged
    return FinPerm(dict(r._map))._map == r._map


@given(fin_perms(), fin_perms(), offs())
def test_trusted_results_are_valid(s, g, off):
    for r in (s.after(g), g.after(s), s.after(s.inverse()), s.inverse(),
              s.conjugate(g), s.deflate(off), g.deflate(off)):
        assert _validates(r)


def test_trusted_assemble_is_valid():
    entries, stuck = build_family([(c([1000, 1001 + j]), j) for j in range(16)], 16, FamilyIndex())
    assert stuck is None and len(entries) == 5
    for indices in _index_sets(len(entries)):
        assert _validates(assemble(entries, indices))


@pytest.mark.parametrize("n, m", [(2, 4), (2, 5), (3, 5)])
def test_trusted_codec_results_are_valid(n, m):
    # the criterion 1 pools: every n-point permutation of the reserved atoms and 4 spares
    tab = Tableau(n, m)
    atoms = sorted(tab.reserved) + list(range(len(tab.reserved), len(tab.reserved) + 4))
    for s in perms_moving_exactly(iter(atoms), n):
        assert _validates(s)
        image, level = encode(s, tab)
        swap = level_swap(s, tab, level)
        assert _validates(swap) and _validates(s.conjugate(swap)) and _validates(image)
        assert _validates(decode(image, tab))


# one value from each way a FinPerm is built, checked or not
PERM_BUILDS = {
    "init": lambda: FinPerm({3: 5, 5: 4, 4: 3, 9: 8, 8: 9}),
    "cycle": lambda: c([7, 2, 5]),
    "parse": lambda: FinPerm.parse("(5;6)(2;1;3)"),
    "identity": FinPerm.identity,
    "after": lambda: c([5, 6]).after(c([1, 2, 3])),
    "inverse": lambda: c([1, 4, 2, 9]).inverse(),
    "conjugate": lambda: c([1, 2, 3]).conjugate(c([3, 8])),
    "deflate": lambda: c([1, 5, 2, 7, 3]).deflate({5, 7}),
    "encode": lambda: encode(c([0, 2]), Tableau(2, 4))[0],
    "level-swap": lambda: level_swap(c([0, 2]), Tableau(2, 4), 1),
    "decode": lambda: decode(FinPerm.parse("(6;7)(8;10)"), Tableau(2, 4)),
    "perms-moving-exactly": lambda: list(perms_moving_exactly(iter([4, 1, 6]), 3))[-1],
}


@pytest.mark.parametrize("build", PERM_BUILDS.values(), ids=PERM_BUILDS.keys())
def test_cycle_text_is_walked_once_and_kept(build):
    s = build()
    text = s.to_cycles()
    assert text == cycle_text(s)
    assert s.to_cycles() is text
    assert str(s) is text


@given(fin_perms(pool=40), fin_perms(pool=40), offs(pool=40))
def test_kept_cycle_text_matches_a_fresh_walk(s, g, off):
    for r in (s, s.after(g), s.inverse(), s.conjugate(g), s.deflate(off)):
        text = r.to_cycles()
        assert text == cycle_text(r)
        assert r.to_cycles() is text
