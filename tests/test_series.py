import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautrel import BiSeries, UniSeries, ode_residual
from tautrel.series import _half_power_coeffs
from tautrel.tables import _add_symmetric_products

from oracles import (
    _binomial_series_coeff,
    bi_exp,
    coeff_via_change_of_vars,
    ref_add,
    ref_bi_mul,
    ref_ode_residual,
    ref_uni_mul,
)

XU = ("x", "u")


def random_biseries(rng, orders, density=0.4, zero_constant=False):
    terms = {}
    for i in range(orders[0] + 1):
        for j in range(orders[1] + 1):
            if zero_constant and i == 0 and j == 0:
                continue
            if rng.random() < density:
                terms[(i, j)] = F(rng.randint(-9, 9), rng.randint(1, 9))
    return BiSeries(XU, orders, terms)


# ---------------------------------------------------------------- UniSeries

def test_uniseries_exp_example():
    x = UniSeries.from_terms("x", 3, {1: F(1)})
    assert x.exp().coeffs == (F(1), F(1), F(1, 2), F(1, 6))


def test_uniseries_mul_example():
    x = UniSeries.from_terms("x", 3, {1: F(1)})
    assert (x * x).coeffs == (0, 0, 1, 0)


def test_uniseries_exp_rejects_constant():
    s = UniSeries.from_terms("x", 2, {0: F(1)})
    with pytest.raises(ValueError):
        s.exp()


def test_uniseries_exp_linear_coefficient():
    # z-coefficient of exp(c*z) is c itself; c = 5/6 is the first diagonal entry
    s = UniSeries.from_terms("z", 3, {1: F(5, 6)})
    assert s.exp().coeff(1) == F(5, 6)


def test_uniseries_mismatch_errors():
    a = UniSeries("x", 3, [0] * 4)
    with pytest.raises(ValueError):
        a * UniSeries("y", 3, [0] * 4)
    with pytest.raises(ValueError):
        a * UniSeries("x", 4, [0] * 5)
    with pytest.raises(ValueError):
        a.coeff(4)
    assert a != 0  # a series never equals an int


def test_uniseries_exp_is_multiplicative():
    rng = random.Random(11)
    for _ in range(10):
        a = UniSeries("x", 6, [0] + [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(6)])
        b = UniSeries("x", 6, [0] + [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(6)])
        a_plus_b = UniSeries("x", 6, [u + v for u, v in zip(a.coeffs, b.coeffs)])
        assert a_plus_b.exp().coeffs == tuple(ref_uni_mul(a.exp().coeffs, b.exp().coeffs))


# ----------------------------------------------------------------- BiSeries

def test_biseries_mul_examples():
    one_px = BiSeries(XU, (2, 0), {(0, 0): F(1), (1, 0): F(1)})
    one_mx = BiSeries(XU, (2, 0), {(0, 0): F(1), (1, 0): F(-1)})
    assert (one_px * one_mx).coeffs == {(0, 0): F(1), (2, 0): F(-1)}

    a = BiSeries(XU, (0, 2), {(0, 0): F(1), (0, 1): F(2)})
    assert (a * a).coeffs == {(0, 0): F(1), (0, 1): F(4), (0, 2): F(4)}

    s = BiSeries(XU, (2, 2), {(1, 0): F(1), (0, 1): F(1)})
    assert (s * s).coeffs == {(2, 0): F(1), (1, 1): F(2), (0, 2): F(1)}


def test_biseries_order_and_var_mismatch():
    a = BiSeries(XU, (2, 2), {})
    with pytest.raises(ValueError):
        a * BiSeries(XU, (2, 3), {})
    with pytest.raises(ValueError):
        a * BiSeries(("t", "w"), (2, 2), {})


def test_biseries_coeff_extraction():
    p = BiSeries(XU, (2, 2), {(0, 0): F(1), (1, 2): F(3)})
    assert p.coeff(1, 2) == 3
    assert p.coeff(2, 0) == 0
    assert p != 1  # a series never equals an int
    with pytest.raises(ValueError):
        p.coeff(3, 0)


def test_biseries_canonical_form():
    p = BiSeries(XU, (2, 2), {(0, 0): F(0), (1, 1): F(2)})
    assert (0, 0) not in p.coeffs  # zeros are never stored
    with pytest.raises(ValueError):
        BiSeries(XU, (1, 1), {(2, 0): F(1)})  # exponent beyond truncation


def test_biseries_exp_examples():
    one = BiSeries(XU, (2, 2), {(0, 0): F(1)})
    assert bi_exp(BiSeries(XU, (2, 2), {})) == one
    x = BiSeries(XU, (3, 0), {(1, 0): F(1)})
    assert bi_exp(x).coeffs == {(0, 0): F(1), (1, 0): F(1), (2, 0): F(1, 2), (3, 0): F(1, 6)}
    with pytest.raises(ValueError):
        bi_exp(one)


def test_biseries_mul_commutes_and_associates():
    rng = random.Random(3)
    for _ in range(8):
        a = random_biseries(rng, (4, 3))
        b = random_biseries(rng, (4, 3))
        c = random_biseries(rng, (4, 3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_biseries_exp_additive():
    rng = random.Random(5)
    for _ in range(6):
        a = random_biseries(rng, (3, 3), zero_constant=True)
        b = random_biseries(rng, (3, 3), zero_constant=True)
        a_plus_b = BiSeries(XU, (3, 3), ref_add(a.coeffs, b.coeffs))
        assert bi_exp(a_plus_b).coeffs == ref_bi_mul(bi_exp(a).coeffs, bi_exp(b).coeffs, (3, 3))


def test_dump_format():
    p = BiSeries(XU, (2, 2), {(1, 2): F(3), (0, 0): F(1, 2), (1, 0): F(-4)})
    assert p.dump() == "0 0 1/2\n1 0 -4\n1 2 3"


# ------------------------------------------------------ half powers of 1+4v

def test_half_power_seed_is_signed_central_binomial():
    # (1+4v)^(-1/2) = sum (-1)^k C(2k, k) v^k, the seed of every odd power
    central = [factorial(2 * k) // factorial(k) ** 2 for k in range(21)]
    assert _half_power_coeffs(-1, -1, 20)[-1] == [(-1) ** k * c for k, c in enumerate(central)]
    assert _half_power_coeffs(-1, -1, 4)[-1] == [1, -2, 6, -20, 70]


def test_half_powers_are_the_binomial_series():
    powers = _half_power_coeffs(-60, 4, 20)
    assert sorted(powers) == list(range(-60, 5))
    for h, cs in powers.items():
        assert all(type(v) is int for v in cs)
        assert cs == [_binomial_series_coeff(F(h, 2), k) * 4**k for k in range(21)], h


# ------------------------------------------------------- change of variables

def test_change_of_vars_examples():
    xw = BiSeries(("x", "w"), (1, 1), {(1, 1): F(1)})
    assert coeff_via_change_of_vars(xw, 1, 1) == 1
    one = BiSeries(("x", "w"), (0, 0), {(0, 0): F(1)})
    assert coeff_via_change_of_vars(one, 0, 0) == 1
    w2 = BiSeries(("x", "w"), (0, 2), {(0, 2): F(1)})
    assert coeff_via_change_of_vars(w2, 0, 2) == 1


def test_change_of_vars_equals_direct_extraction():
    rng = random.Random(13)
    for _ in range(12):
        p = random_biseries(rng, (5, 5), density=0.5)
        for a in range(6):
            for d in range(6):
                assert coeff_via_change_of_vars(p, a, d) == p.coeff(a, d)


def test_change_of_vars_truncation_error():
    p = BiSeries(("x", "w"), (2, 2), {})
    with pytest.raises(ValueError):
        coeff_via_change_of_vars(p, 3, 1)


# ------------------- integer products and the ODE residual against the reference

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)

# numerators and denominators up to 10**30, so one common denominator of
# a whole operand reaches hundreds of bits
big_fractions = st.builds(
    F,
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(min_value=1, max_value=10**30),
)
coefficients = st.one_of(st.just(F(0)), st.just(F(0)), big_fractions)


@st.composite
def uni_pairs(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    terms = st.lists(coefficients, min_size=n + 1, max_size=n + 1)
    return draw(terms), draw(terms)


@st.composite
def bi_pairs(draw):
    orders = (draw(st.integers(0, 5)), draw(st.integers(0, 5)))
    keys = st.tuples(st.integers(0, orders[0]), st.integers(0, orders[1]))
    terms = st.dictionaries(keys, coefficients, max_size=12)
    return orders, draw(terms), draw(terms)


@SETTINGS
@given(uni_pairs())
def test_uniseries_mul_matches_reference(pair):
    a, b = pair
    n = len(a) - 1
    assert (UniSeries("x", n, a) * UniSeries("x", n, b)).coeffs == tuple(ref_uni_mul(a, b))


@SETTINGS
@given(bi_pairs())
def test_biseries_mul_matches_reference(case):
    orders, a, b = case
    prod = BiSeries(XU, orders, a) * BiSeries(XU, orders, b)
    assert prod.coeffs == ref_bi_mul(a, b, orders)
    assert all(isinstance(v, F) for v in prod.coeffs.values())


@SETTINGS
@given(st.integers(0, 6), st.integers(0, 6))
def test_products_of_mismatched_orders_raise(n, k):
    with pytest.raises(ValueError):
        UniSeries("x", n, [0] * (n + 1)) * UniSeries("x", n + 1, [0] * (n + 2))
    one = {(0, 0): F(1)}
    with pytest.raises(ValueError):
        BiSeries(XU, (n, k), one) * BiSeries(XU, (n + 1, k), one)
    with pytest.raises(ValueError):
        BiSeries(XU, (n, k), one) * BiSeries(XU, (n, k + 1), one)


@st.composite
def symmetric_products(draw):
    """(out, rows, i, w): integer rows[0..i] and a weight list with w[m] = w[i-m],
    or None for weight 1; when w[0] = 0, rows[i] may be absent, as in the ODE solve."""
    i = draw(st.integers(0, 8))
    ints = st.one_of(st.just(0), st.integers(-(10**30), 10**30))
    out = draw(st.lists(ints, max_size=8))
    rows = [draw(st.lists(ints, max_size=7)) for _ in range(i + 1)]
    kind = draw(st.sampled_from(["unweighted", "weighted", "last row absent"]))
    if kind == "unweighted":
        return out, rows, i, None
    half = draw(st.lists(st.integers(-6, 6), min_size=i // 2 + 1, max_size=i // 2 + 1))
    w = [half[min(m, i - m)] for m in range(i + 1)]
    if kind == "last row absent":
        w[0] = w[i] = 0
        rows.pop()
    return out, rows, i, w


@SETTINGS
@given(symmetric_products())
def test_symmetric_products_match_double_loop(case):
    out, rows, i, w = case
    weights = [1] * (i + 1) if w is None else w
    expected = list(out)
    for m in range(i + 1):
        if weights[m]:
            for a, x in enumerate(rows[m]):
                for b, y in enumerate(rows[i - m]):
                    if a + b < len(expected):
                        expected[a + b] += weights[m] * x * y
    _add_symmetric_products(out, rows, i, None if w is None else w.__getitem__)
    assert out == expected


@st.composite
def ode_candidates(draw):
    orders = (draw(st.integers(0, 5)), draw(st.integers(2, 6)))
    keys = st.tuples(st.integers(0, orders[0]), st.integers(0, orders[1]))
    return orders, draw(st.dictionaries(keys, coefficients, max_size=12))


@SETTINGS
@given(ode_candidates())
def test_ode_residual_matches_reference(case):
    orders, f = case
    assert ode_residual(BiSeries(("x", "w"), orders, f)).coeffs == ref_ode_residual(f, orders)
