"""The two coefficient triangles every relation is built from.

An integer triangle q[k][j] defined by a quadratic recurrence, and a
rational triangle c[k][j] obtained from it by a two-term linear relation
solved downward from the diagonal.  Their cross-validations, the series
ODE they come from and its closed forms live in ``tautrel.coeffs``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from . import _EXPORTS

__all__ = [name for name, home in _EXPORTS.items() if home == "tables"]

_ZERO = Fraction(0)


class QTable(NamedTuple):
    """Integer triangle q[k][j], 0 <= j <= k <= k_max; zero outside."""

    k_max: int
    rows: tuple[tuple[int, ...], ...]

    def get(self, k: int, j: int) -> int:
        if k < 0 or j < 0 or j > k:
            return 0
        if k > self.k_max:
            raise ValueError(f"q table sized {self.k_max}, need k={k}")
        return self.rows[k][j]


class CTable(NamedTuple):
    """Rational triangle c[k][j], 1 <= k <= k_max, 0 <= j <= k; zero for j > k."""

    k_max: int
    rows: tuple[tuple[Fraction, ...], ...]  # rows[k-1] holds c[k][0..k]

    def get(self, k: int, j: int) -> Fraction:
        if k < 1:
            raise ValueError("c table starts at k=1")
        if k > self.k_max:
            raise ValueError(f"c table sized {self.k_max}, need k={k}")
        if j < 0:
            return _ZERO
        if j > k:
            return _ZERO
        return self.rows[k - 1][j]


def _add_convolution(out: list[int], a: list[int], b: list[int]) -> None:
    """out[i + j] += a[i] * b[j] for every i + j < len(out)."""
    n = len(out)
    nonzero_b = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in nonzero_b:
                if i + j >= n:
                    break
                out[i + j] += x * y


def _add_symmetric_products(
    out: list[int], rows: list[list[int]], i: int, weight: Callable[[int], int] | None = None
) -> None:
    """out += sum_{m=0..i} w(m)*rows[m]*rows[i-m] through len(out), for w(m) = w(i-m).

    The terms at m and i - m then agree, so each is formed once, for m <= i/2,
    and doubled when m != i - m; a zero weight (w = 1 for None) forms nothing.
    """
    for m in range(i // 2 + 1):
        w = (1 if weight is None else weight(m)) * (1 if 2 * m == i else 2)
        if w:
            _add_convolution(out, rows[m] if w == 1 else [w * v for v in rows[m]], rows[i - m])


def build_q_table(k_max: int) -> QTable:
    """Fill the integer triangle from its quadratic recurrence.

    q[k][j] = (2k+4j-2)*q[k-1][j-1] + (j+1)*q[k-1][j]
              + sum_{m,l} q[m][l]*q[k-1-m][j-1-l]

    with q[0][0] = 1 and q vanishing outside 0 <= j <= k.  The double sum
    is the (k-1, j-1) entry of the 2-D self-convolution of the triangle,
    assembled row by row by ``_add_symmetric_products``.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    rows: list[list[int]] = [[1]]
    for k in range(1, k_max + 1):
        kk = k - 1
        conv_row = [0] * (kk + 1)
        _add_symmetric_products(conv_row, rows, kk)
        prev = rows[kk]
        row = []
        for j in range(k + 1):
            val = 0
            if 0 <= j - 1 <= kk:
                val += (2 * k + 4 * j - 2) * prev[j - 1]
            if j <= kk:
                val += (j + 1) * prev[j]
            if 1 <= j <= kk + 1:
                val += conv_row[j - 1]
            row.append(val)
        rows.append(row)
    return QTable(k_max, tuple(tuple(r) for r in rows))


def build_c_table(q: QTable) -> CTable:
    """Solve q[k][j] = (2k+4j)*c[k][j] + (j+1)*c[k][j+1] downward in j.

    The boundary c[k][k+1] = 0 makes j = k the well-posed starting point,
    c[k][k] = q[k][k]/(6k).  Each row descends on a running integer
    numerator n and denominator d of c[k][j+1], starting from 0/1:

        n <- q[k][j]*d - (j+1)*n,    d <- d*(2k+4j)

    and the Fraction built for c[k][j] hands back n and d in lowest terms,
    so each value costs one gcd.  Divisors 2k+4j are positive for k >= 1.
    """
    if q.k_max < 1:
        raise ValueError("need q table with k_max >= 1")
    rows: list[tuple[Fraction, ...]] = []
    for k in range(1, q.k_max + 1):
        qk = q.rows[k]
        row = [_ZERO] * (k + 1)
        n, d = 0, 1
        for j in range(k, -1, -1):
            v = row[j] = Fraction(qk[j] * d - (j + 1) * n, d * (2 * k + 4 * j))
            n, d = v.numerator, v.denominator
        rows.append(tuple(row))
    return CTable(q.k_max, tuple(rows))
