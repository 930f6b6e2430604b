import random
from fractions import Fraction
from math import comb, gcd

import pytest

from tautrel import bernoulli_table


def test_rational_arithmetic_examples():
    assert Fraction(1, 12) + Fraction(5, 6) == Fraction(11, 12)
    assert Fraction(25, 36) * Fraction(1, 2) == Fraction(25, 72)
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)


def test_rational_normalization_invariants():
    rng = random.Random(7)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        for r in (a + b, a - b, a * b, -a):
            assert r.denominator > 0
            assert gcd(abs(r.numerator), r.denominator) == 1


def test_rational_string_round_trip():
    assert str(Fraction(-1, 2)) == "-1/2"
    assert str(Fraction(10, 2)) == "5"  # no "/1" for integers
    assert Fraction("25/72") == Fraction(25, 72)
    assert Fraction("-5") == Fraction(-5)


def test_bernoulli_small_values():
    b = bernoulli_table(8)
    assert b[0] == 1
    assert b[1] == Fraction(-1, 2)
    assert b[2] == Fraction(1, 6)
    assert b[3] == 0
    assert b[4] == Fraction(-1, 30)
    assert b[6] == Fraction(1, 42)
    assert b[8] == Fraction(-1, 30)


def test_bernoulli_odd_vanish_and_convolution():
    b = bernoulli_table(30)
    assert all(b[2 * n + 1] == 0 for n in range(1, 15))
    for n in range(1, 30):
        assert sum(comb(n + 1, j) * b[j] for j in range(n + 1)) == 0


def test_bernoulli_out_of_range():
    b = bernoulli_table(4)
    with pytest.raises(IndexError):
        b[5]
    with pytest.raises(ValueError):
        bernoulli_table(-1)
