import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautrel import BiSeries, UniSeries, binomial_series_coeffs
from tautrel.series import _half_power_coeffs

from oracles import bi_exp, coeff_via_change_of_vars, ref_bi_mul, ref_uni_mul

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

def test_uniseries_mul_and_exp():
    x = UniSeries.from_terms("x", 3, {1: F(1)})
    e = x.exp()
    assert e.coeffs == (F(1), F(1), F(1, 2), F(1, 6))
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
    a = UniSeries.zero("x", 3)
    b = UniSeries.zero("y", 3)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * UniSeries.zero("x", 4)
    with pytest.raises(ValueError):
        a.coeff(4)


def test_uniseries_exp_is_multiplicative():
    rng = random.Random(11)
    for _ in range(10):
        a = UniSeries("x", 6, [0] + [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(6)])
        b = UniSeries("x", 6, [0] + [F(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(6)])
        assert (a + b).exp() == a.exp() * b.exp()


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
        a + BiSeries(("t", "w"), (2, 2), {})


def test_biseries_coeff_extraction():
    p = BiSeries(XU, (2, 2), {(0, 0): F(1), (1, 2): F(3)})
    assert p.coeff(1, 2) == 3
    assert p.coeff(2, 0) == 0
    with pytest.raises(ValueError):
        p.coeff(3, 0)


def test_biseries_canonical_form():
    p = BiSeries(XU, (2, 2), {(0, 0): F(0), (1, 1): F(2)})
    assert (0, 0) not in p.coeffs  # zeros are never stored
    with pytest.raises(ValueError):
        BiSeries(XU, (1, 1), {(2, 0): F(1)})  # exponent beyond truncation


def test_biseries_exp_examples():
    zero = BiSeries.zero(XU, (2, 2))
    assert bi_exp(zero) == BiSeries.one(XU, (2, 2))
    x = BiSeries(XU, (3, 0), {(1, 0): F(1)})
    assert bi_exp(x).coeffs == {(0, 0): F(1), (1, 0): F(1), (2, 0): F(1, 2), (3, 0): F(1, 6)}
    with pytest.raises(ValueError):
        bi_exp(BiSeries.one(XU, (2, 2)))


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
        assert bi_exp(a + b) == bi_exp(a) * bi_exp(b)


def test_derivative_shift_truncate():
    p = BiSeries(XU, (2, 2), {(1, 1): F(2), (2, 0): F(3)})
    assert p.derivative(0).coeffs == {(0, 1): F(2), (1, 0): F(6)}
    assert p.derivative(1).coeffs == {(1, 0): F(2)}
    sh = p.shift(1, 2)
    assert sh.orders == (2, 4) and sh.coeffs == {(1, 3): F(2), (2, 2): F(3)}
    assert p.truncate((1, 1)).coeffs == {(1, 1): F(2)}
    with pytest.raises(ValueError):
        p.truncate((3, 2))


def test_dump_format():
    p = BiSeries(XU, (2, 2), {(1, 2): F(3), (0, 0): F(1, 2), (1, 0): F(-4)})
    assert p.dump() == "0 0 1/2\n1 0 -4\n1 2 3"


# ------------------------------------------------- generalized binomial pow

def test_binomial_series_examples():
    assert binomial_series_coeffs(F(4), F(1, 2), 2) == [F(1), F(2), F(-2)]
    assert binomial_series_coeffs(F(4), F(0), 2) == [F(1), F(0), F(0)]
    assert binomial_series_coeffs(F(4), F(-1), 2) == [F(1), F(-4), F(16)]


def test_binomial_series_exponents_add():
    exps = [F(1, 2), F(-1, 2), F(3, 2), F(-2), F(5)]
    for e1 in exps:
        for e2 in exps:
            a = UniSeries("u", 6, binomial_series_coeffs(F(4), e1, 6))
            b = UniSeries("u", 6, binomial_series_coeffs(F(4), e2, 6))
            c = UniSeries("u", 6, binomial_series_coeffs(F(4), e1 + e2, 6))
            assert a * b == c


def test_half_powers_are_the_binomial_series():
    powers = _half_power_coeffs(-60, 4, 20)
    assert sorted(powers) == list(range(-60, 5))
    for h, cs in powers.items():
        assert all(type(v) is int for v in cs)
        assert cs == binomial_series_coeffs(F(4), F(h, 2), 20), h


def test_binomial_series_integer_exponent_matches_expansion():
    # (1+4u)^3 has the plain binomial coefficients
    cs = binomial_series_coeffs(F(4), F(3), 4)
    assert cs == [F(1), F(12), F(48), F(64), F(0)]


# ------------------------------------------------------- change of variables

def test_change_of_vars_examples():
    xw = BiSeries(("x", "w"), (1, 1), {(1, 1): F(1)})
    assert coeff_via_change_of_vars(xw, 1, 1) == 1
    one = BiSeries.one(("x", "w"), (0, 0))
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


# ------------------------------------- integer products against the reference

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
        UniSeries.zero("x", n) * UniSeries.zero("x", n + 1)
    with pytest.raises(ValueError):
        BiSeries.one(XU, (n, k)) * BiSeries.one(XU, (n + 1, k))
    with pytest.raises(ValueError):
        BiSeries.one(XU, (n, k)) * BiSeries.one(XU, (n, k + 1))
