"""Truncated formal power series over exact rationals, in one or two variables.

Truncation orders are explicit and checked on every binary operation;
there is no silent order coercion.  Use ``truncate``/``shift`` to move
between orders deliberately.  All values are immutable by convention.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Collection, Iterable, Iterator

from . import _EXPORTS
from .tables import _add_convolution

__all__ = [name for name, home in _EXPORTS.items() if home == "series"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _over_common_den(values: Collection[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of values over the lcm of their denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _half_power_coeffs(lo: int, hi: int, order: int) -> dict[int, list[int]]:
    """Coefficients of (1 + 4v)^(h/2) through v^order, for every lo <= h <= hi.

    4^k * C(h/2, k) is an integer for every integer h, so each power is a
    list of ints.  Odd h start from (1 + 4v)^(-1/2), whose coefficients are
    (-1)^k * C(2k, k), and even h from 1; every other power is a factor
    (1 + 4v) or 1/(1 + 4v) away, each a two-term integer recurrence.
    """
    seeds = {0: [1] + [0] * order, -1: [(-1) ** k * comb(2 * k, k) for k in range(order + 1)]}
    out: dict[int, list[int]] = {}
    for h, seed in seeds.items():
        cs = seed
        for up in range(h, hi + 1, 2):
            if up > h:
                cs = [cs[0]] + [cs[k] + 4 * cs[k - 1] for k in range(1, order + 1)]
            if up >= lo:
                out[up] = cs
        cs = seed
        for down in range(h - 2, lo - 1, -2):
            cs = list(cs)
            for k in range(1, order + 1):
                cs[k] -= 4 * cs[k - 1]
            if down <= hi:
                out[down] = cs
    return out


class UniSeries:
    """Series sum_{k<=order} coeffs[k] * var^k, dense coefficient list."""

    __slots__ = ("var", "order", "coeffs")

    def __init__(self, var: str, order: int, coeffs: Iterable[Fraction]):
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if len(cs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(cs)}")
        self.var = var
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, var: str, order: int) -> "UniSeries":
        return cls(var, order, [_ZERO] * (order + 1))

    @classmethod
    def from_terms(cls, var: str, order: int, terms: dict[int, Fraction]) -> "UniSeries":
        cs = [_ZERO] * (order + 1)
        for k, v in terms.items():
            if not 0 <= k <= order:
                raise ValueError(f"exponent {k} outside truncation order {order}")
            cs[k] = Fraction(v)
        return cls(var, order, cs)

    def coeff(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise ValueError(f"exponent {k} outside truncation order {self.order}")
        return self.coeffs[k]

    def _check(self, other: "UniSeries") -> None:
        if self.var != other.var or self.order != other.order:
            raise ValueError(
                f"series mismatch: ({self.var!r}, {self.order}) vs"
                f" ({other.var!r}, {other.order})"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniSeries):
            return NotImplemented
        return (
            self.var == other.var
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "UniSeries") -> "UniSeries":
        self._check(other)
        return UniSeries(
            self.var, self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "UniSeries") -> "UniSeries":
        self._check(other)
        return UniSeries(
            self.var, self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def scale(self, r: Fraction) -> "UniSeries":
        r = Fraction(r)
        return UniSeries(self.var, self.order, [r * a for a in self.coeffs])

    def __mul__(self, other: "UniSeries") -> "UniSeries":
        """Exact product: one integer convolution over one denominator."""
        self._check(other)
        a, da = _over_common_den(self.coeffs)
        b, db = _over_common_den(other.coeffs)
        out = [0] * (self.order + 1)
        _add_convolution(out, a, b)
        den = da * db
        return UniSeries(self.var, self.order, [Fraction(v, den) for v in out])

    def exp(self) -> "UniSeries":
        """exp of a series with zero constant term, via E' = a' E."""
        if self.coeffs[0]:
            raise ValueError("exp requires zero constant term")
        n = self.order
        a = self.coeffs
        e = [_ONE] + [_ZERO] * n
        for k in range(1, n + 1):
            s = sum(m * a[m] * e[k - m] for m in range(1, k + 1))
            e[k] = Fraction(s, k)
        return UniSeries(self.var, n, e)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __repr__(self) -> str:
        return f"UniSeries({self.var!r}, {self.order}, {list(self.coeffs)})"


class BiSeries:
    """Sparse bivariate series: map (i, j) -> nonzero Fraction within orders."""

    __slots__ = ("vars", "orders", "coeffs")

    def __init__(
        self,
        vars: tuple[str, str],
        orders: tuple[int, int],
        coeffs: dict[tuple[int, int], Fraction],
    ):
        n1, n2 = orders
        if n1 < 0 or n2 < 0:
            raise ValueError("orders must be >= 0")
        clean: dict[tuple[int, int], Fraction] = {}
        for (i, j), v in coeffs.items():
            if not 0 <= i <= n1 or not 0 <= j <= n2:
                raise ValueError(f"exponent ({i}, {j}) outside orders {orders}")
            if type(v) is not Fraction:
                v = Fraction(v)
            if v:
                clean[(i, j)] = v
        self.vars = (vars[0], vars[1])
        self.orders = (n1, n2)
        self.coeffs = clean

    @classmethod
    def zero(cls, vars: tuple[str, str], orders: tuple[int, int]) -> "BiSeries":
        return cls(vars, orders, {})

    @classmethod
    def one(cls, vars: tuple[str, str], orders: tuple[int, int]) -> "BiSeries":
        return cls(vars, orders, {(0, 0): _ONE})

    def coeff(self, i: int, j: int) -> Fraction:
        n1, n2 = self.orders
        if not 0 <= i <= n1 or not 0 <= j <= n2:
            raise ValueError(f"exponent ({i}, {j}) outside orders {self.orders}")
        return self.coeffs.get((i, j), _ZERO)

    def _check(self, other: "BiSeries") -> None:
        if self.vars != other.vars or self.orders != other.orders:
            raise ValueError(
                f"series mismatch: {self.vars}@{self.orders} vs"
                f" {other.vars}@{other.orders}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiSeries):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.orders == other.orders
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "BiSeries") -> "BiSeries":
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, _ZERO) + v
        return BiSeries(self.vars, self.orders, out)

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        return self + (-other)

    def __neg__(self) -> "BiSeries":
        return BiSeries(self.vars, self.orders, {k: -v for k, v in self.coeffs.items()})

    def scale(self, r: Fraction) -> "BiSeries":
        r = Fraction(r)
        return BiSeries(self.vars, self.orders, {k: r * v for k, v in self.coeffs.items()})

    def _integer_rows(self) -> tuple[list[list[int]], int]:
        """Dense integer rows over one denominator: rows[i][j] * den == coeff(i, j)."""
        n1, n2 = self.orders
        nums, den = _over_common_den(self.coeffs.values())
        rows = [[0] * (n2 + 1) for _ in range(n1 + 1)]
        for (i, j), v in zip(self.coeffs, nums):
            rows[i][j] = v
        return rows, den

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        """Exact product: row-by-row integer convolutions over one denominator."""
        self._check(other)
        n1, n2 = self.orders
        a, da = self._integer_rows()
        b, db = other._integer_rows()
        nonzero_b = [(i, row) for i, row in enumerate(b) if any(row)]
        out = [[0] * (n2 + 1) for _ in range(n1 + 1)]
        for i1, row1 in enumerate(a):
            if any(row1):
                for i2, row2 in nonzero_b:
                    if i1 + i2 > n1:
                        break
                    _add_convolution(out[i1 + i2], row1, row2)
        den = da * db
        terms = {
            (i, j): Fraction(v, den)
            for i, row in enumerate(out)
            for j, v in enumerate(row)
            if v
        }
        return BiSeries(self.vars, self.orders, terms)

    def derivative(self, axis: int) -> "BiSeries":
        """Formal derivative along axis 0 or 1; that order drops by one."""
        n1, n2 = self.orders
        if axis == 0:
            orders = (max(n1 - 1, 0), n2)
            terms = {
                (i - 1, j): i * v for (i, j), v in self.coeffs.items() if i >= 1
            }
        elif axis == 1:
            orders = (n1, max(n2 - 1, 0))
            terms = {
                (i, j - 1): j * v for (i, j), v in self.coeffs.items() if j >= 1
            }
        else:
            raise ValueError("axis must be 0 or 1")
        return BiSeries(self.vars, orders, terms)

    def shift(self, axis: int, amount: int) -> "BiSeries":
        """Multiply by var[axis]**amount; the truncation order grows to match."""
        if amount < 0:
            raise ValueError("shift amount must be >= 0")
        n1, n2 = self.orders
        if axis == 0:
            orders = (n1 + amount, n2)
            terms = {(i + amount, j): v for (i, j), v in self.coeffs.items()}
        elif axis == 1:
            orders = (n1, n2 + amount)
            terms = {(i, j + amount): v for (i, j), v in self.coeffs.items()}
        else:
            raise ValueError("axis must be 0 or 1")
        return BiSeries(self.vars, orders, terms)

    def truncate(self, orders: tuple[int, int]) -> "BiSeries":
        n1, n2 = orders
        if n1 > self.orders[0] or n2 > self.orders[1]:
            raise ValueError("cannot truncate to larger orders")
        return BiSeries(
            self.vars,
            orders,
            {(i, j): v for (i, j), v in self.coeffs.items() if i <= n1 and j <= n2},
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self) -> Iterator[tuple[int, int, Fraction]]:
        for (i, j) in sorted(self.coeffs):
            yield i, j, self.coeffs[(i, j)]

    def dump(self) -> str:
        """Debug dump: one term per line, "i j num/den", sorted by (i, j)."""
        return "\n".join(f"{i} {j} {v}" for i, j, v in self.terms())

    def __repr__(self) -> str:
        return f"BiSeries({self.vars}, {self.orders}, {len(self.coeffs)} terms)"

