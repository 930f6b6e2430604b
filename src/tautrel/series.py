"""Truncated formal power series over exact rationals, in one or two variables.

Truncation orders are explicit, and a product of series in other variables
or at other orders raises ValueError.  All values are immutable by
convention.  The checks in ``tautrel.coeffs`` run on integer rows
(``BiSeries._integer_rows``), so there is no sum, derivative or truncation.
From tautrel this module reads only the package's name map.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Collection, Iterable, Iterator

from . import _EXPORTS

__all__ = [name for name, home in _EXPORTS.items() if home == "series"]

_ZERO = Fraction(0)


def _over_common_den(values: Collection[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of values over the lcm of their denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _half_power_coeffs(lo: int, hi: int, order: int) -> dict[int, list[int]]:
    """Coefficients of (1 + 4v)^(h/2) through v^order, for every lo <= h <= hi.

    4^k * C(h/2, k) is an integer for every integer h, so each power is a
    list of ints.  The lowest power of each parity is the binomial series,
    c_0 = 1 and c_k = c_(k-1) * 2(h - 2k + 2) / k, an exact integer
    division; each higher power of that parity is one factor (1 + 4v) up.
    """
    out: dict[int, list[int]] = {}
    for start in range(lo, min(lo + 2, hi + 1)):
        cs = [1]
        for k in range(1, order + 1):
            cs.append(cs[-1] * 2 * (start - 2 * k + 2) // k)
        for h in range(start, hi + 1, 2):
            out[h] = cs
            cs = [cs[0]] + [cs[k] + 4 * cs[k - 1] for k in range(1, order + 1)]
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

    # no src/ caller: kept while bench/tracer.py TARGETS pins it
    def __mul__(self, other: "UniSeries") -> "UniSeries":
        """Exact product: the coefficient convolution, truncated at the order."""
        self._check(other)
        a, b = self.coeffs, other.coeffs
        return UniSeries(
            self.var,
            self.order,
            [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(self.order + 1)],
        )

    def exp(self) -> "UniSeries":
        """exp of a series with zero constant term, via E' = a' E."""
        if self.coeffs[0]:
            raise ValueError("exp requires zero constant term")
        n = self.order
        a = self.coeffs
        e = [Fraction(1)] + [_ZERO] * n
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

    def _integer_rows(self) -> tuple[list[list[int]], int]:
        """Dense integer rows over one denominator: rows[i][j] * den == coeff(i, j)."""
        n1, n2 = self.orders
        nums, den = _over_common_den(self.coeffs.values())
        rows = [[0] * (n2 + 1) for _ in range(n1 + 1)]
        for (i, j), v in zip(self.coeffs, nums):
            rows[i][j] = v
        return rows, den

    # no src/ caller: kept while bench/tracer.py TARGETS pins it
    def __mul__(self, other: "BiSeries") -> "BiSeries":
        """Exact product: the coefficient convolution, truncated at the orders."""
        self._check(other)
        n1, n2 = self.orders
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), u in self.coeffs.items():
            for (i2, j2), v in other.coeffs.items():
                if i1 + i2 <= n1 and j1 + j2 <= n2:
                    out[i1 + i2, j1 + j2] = out.get((i1 + i2, j1 + j2), _ZERO) + u * v
        return BiSeries(self.vars, self.orders, out)

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

