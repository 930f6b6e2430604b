"""Differential and property tests of the packed-monomial KappaPoly kernel.

Every random case is checked against the plain dict-of-Fraction reference
ring in oracles.py, which shares no code with the library.
"""

from fractions import Fraction as F
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautrel import KappaPoly
from tautrel.tautring import MAX_INDEX, _monomial_rows, _value_at, terms_json

from oracles import (
    ref_add,
    ref_clean,
    ref_mul,
    ref_scale,
    ref_substitute,
    ref_terms_json,
    weights,
)

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)

fractions = st.builds(
    F, st.integers(min_value=-60, max_value=60), st.integers(min_value=1, max_value=12)
)
nonzero_fractions = fractions.filter(bool)
monos = st.dictionaries(
    st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=4), max_size=3
).map(lambda d: tuple(sorted(d.items())))
ref_polys = st.dictionaries(monos, fractions, max_size=6).map(ref_clean)
mappings = st.dictionaries(
    st.integers(min_value=0, max_value=6),  # psi, index 0, may be mapped too
    st.dictionaries(monos, fractions, max_size=3).map(ref_clean),
    max_size=3,
)


# ------------------------------------------------------- against the reference

@SETTINGS
@given(ref_polys, ref_polys)
def test_products_match_reference(p, q):
    assert (KappaPoly(p) * KappaPoly(q)).terms == ref_mul(p, q)


@SETTINGS
@given(ref_polys, ref_polys)
def test_sums_and_differences_match_reference(p, q):
    assert (KappaPoly(p) + KappaPoly(q)).terms == ref_add(p, q)
    assert (KappaPoly(p) - KappaPoly(q)).terms == ref_add(p, ref_scale(q, F(-1)))
    assert (-KappaPoly(p)).terms == ref_scale(p, F(-1))


@SETTINGS
@given(ref_polys, fractions)
def test_scale_matches_reference(p, r):
    assert KappaPoly(p).scale(r).terms == ref_scale(p, r)


@SETTINGS
@given(ref_polys, mappings)
def test_substitute_matches_reference(p, mapping):
    got = KappaPoly(p).substitute({idx: KappaPoly(v) for idx, v in mapping.items()})
    assert got.terms == ref_substitute(p, mapping)


@SETTINGS
@given(ref_polys)
def test_terms_view_round_trip(p):
    poly = KappaPoly(p)
    view = poly.terms
    assert view == p and dict(view.items()) == p
    assert len(view) == len(p) and sorted(view.values()) == sorted(p.values())
    assert KappaPoly(view) == poly
    for m, v in p.items():
        assert view[m] == v and poly.coeff(m) == v and m in view


# psi (index 0), indices past one byte and up to MAX_INDEX, exponents to 255;
# integer, negative and many-digit coefficients
json_monos = st.dictionaries(
    st.one_of(st.integers(min_value=0, max_value=6), st.integers(min_value=250, max_value=MAX_INDEX)),
    st.integers(min_value=1, max_value=255),
    max_size=4,
).map(lambda d: tuple(sorted(d.items())))
json_coeffs = st.one_of(
    fractions,
    st.integers(min_value=-(10**40), max_value=10**40).map(F),
    st.builds(F, st.integers(min_value=-(10**40), max_value=10**40), st.integers(min_value=1, max_value=10**30)),
)
json_polys = st.dictionaries(json_monos, json_coeffs, max_size=8).map(ref_clean)


@SETTINGS
@given(json_polys)
def test_terms_json_matches_reference(p):
    assert terms_json(KappaPoly(p)) == ref_terms_json(p)


@pytest.mark.parametrize(
    "p",
    [
        {},  # "[]"
        {(): F(-3)},
        {((0, 4),): F(7), ((0, 2), (1, 1)): F(-5, 6)},
        {((256, 1),): F(1, 2), ((1, 1), (1023, 255)): F(-9)},
        {((255, 3), (256, 2), (257, 1)): F(10**30, 7), ((2, 1),): F(-2, 3)},
    ],
)
def test_terms_json_edges_match_reference(p):
    # the zero polynomial, a constant, psi, and fields past the first byte
    assert terms_json(KappaPoly(p)) == ref_terms_json(p)


# ---------------------------------------------------------------- ring laws

@SETTINGS
@given(ref_polys, ref_polys, ref_polys)
def test_ring_laws(p, q, r):
    a, b, c = KappaPoly(p), KappaPoly(q), KappaPoly(r)
    one, zero = KappaPoly.scalar(F(1)), KappaPoly()
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * one == a and a + zero == a and (a * zero).is_zero()
    assert (a - a).is_zero() and a + (-a) == zero


@SETTINGS
@given(ref_polys, nonzero_fractions, nonzero_fractions)
def test_normal_form_makes_equality_exact(p, r, s):
    # equal values reached by different routes have equal representations
    a = KappaPoly(p)
    assert a.scale(r).scale(1 / r) == a
    assert a.scale(r).scale(s) == a.scale(r * s)
    assert a.scale(r) + a.scale(s) == a.scale(r + s)


@SETTINGS
@given(ref_polys, ref_polys, mappings, fractions)
def test_substitute_is_linear(p, q, mapping, r):
    kmap = {idx: KappaPoly(v) for idx, v in mapping.items()}
    a, b = KappaPoly(p), KappaPoly(q)
    assert (a + b).substitute(kmap) == a.substitute(kmap) + b.substitute(kmap)
    assert a.scale(r).substitute(kmap) == a.substitute(kmap).scale(r)


# faber's polynomials hold no psi, and its check point reads none
kappa_polys = ref_polys.map(lambda p: {m: v for m, v in p.items() if not m or m[0][0]})
point_values = st.one_of(st.integers(min_value=-7, max_value=7), fractions)


@SETTINGS
@given(
    st.integers(min_value=1, max_value=5),
    st.lists(point_values, min_size=7, max_size=7),
    st.lists(kappa_polys, min_size=1, max_size=4),
)
def test_value_at_matches_term_by_term_evaluation(m, point, polys):
    # generators 1..6 fall on both sides of the cut m, and one low_values
    # memo serves every call at this point, as in faber_solve
    low_values = {}
    for p in polys:
        poly = KappaPoly(p)
        terms = poly.terms.items()
        want = sum((v * prod(point[i] ** e for i, e in mono) for mono, v in terms), F(0))
        assert _value_at(poly, point, m, low_values) == want


@SETTINGS
@given(st.lists(ref_polys, max_size=4))
def test_monomial_rows_are_the_polys_over_their_monomials(ps):
    # up to one order of the columns, row i is ps[i] over the union of the
    # monomials, times the lcm of its denominators
    basis = {m for p in ps for m in p}
    want = [[p.get(m, 0) * lcm(*(v.denominator for v in p.values())) for m in basis] for p in ps]
    assert sorted(zip(*_monomial_rows([KappaPoly(p) for p in ps]))) == sorted(zip(*want))


# ------------------------------------------------------------ encoding edges

def test_without_gen_drops_only_the_bare_generator():
    k1, k2 = KappaPoly.gen(1), KappaPoly.gen(2)
    p = (k1 * k1).scale(F(3, 4)) + k2.scale(F(-5, 6)) + (k1 * k2).scale(F(1, 2))
    rest = p.without_gen(2)
    assert rest.gen_coeff(2) == 0 and rest.coeff(((1, 1), (2, 1))) == F(1, 2)
    assert rest + KappaPoly.gen(2, coeff=p.gen_coeff(2)) == p
    assert p.without_gen(3) == p
    # dropping a term renormalises the common denominator
    assert (KappaPoly.gen(1, coeff=F(1, 6)) + k2).without_gen(1) == k2


def test_exponents_up_to_the_field_limit_round_trip():
    p = KappaPoly.gen(1, 127) * KappaPoly.gen(1, 127)
    assert p.terms == {((1, 254),): 1}
    assert p.max_gen() == 1 and weights(p) == {254}
    top = KappaPoly.gen(MAX_INDEX, 3) * KappaPoly.gen(0, 2)
    assert top.terms == {((0, 2), (MAX_INDEX, 3)): 1}
    assert top.max_gen() == MAX_INDEX


@pytest.mark.parametrize(
    "left, right",
    [
        (KappaPoly.gen(1, 128), KappaPoly.gen(1)),
        (KappaPoly.gen(1), KappaPoly.gen(1, 200)),
        (KappaPoly.gen(0, 130), KappaPoly.gen(0, 130)),
        (KappaPoly.gen(3, 128) + KappaPoly.gen(1), KappaPoly.gen(3, 128)),
    ],
)
def test_product_overflow_raises_instead_of_aliasing(left, right):
    # without the guard 128 + 128 in the kappa_1 field would carry into kappa_2
    with pytest.raises(OverflowError):
        left * right


def test_substitute_overflow_raises_instead_of_aliasing():
    with pytest.raises(OverflowError):
        KappaPoly.gen(2, 100).substitute({2: KappaPoly.gen(1, 2)})


def test_unrepresentable_monomials_are_rejected():
    with pytest.raises(ValueError):
        KappaPoly.gen(MAX_INDEX + 1)
    with pytest.raises(ValueError):
        KappaPoly.gen(1, 256)
    with pytest.raises(ValueError):
        KappaPoly({((1, 1), (1, 2)): F(1)})
    assert KappaPoly.gen(2).coeff(((MAX_INDEX + 1, 1),)) == 0
    assert KappaPoly.gen(2).gen_coeff(-1) == 0
