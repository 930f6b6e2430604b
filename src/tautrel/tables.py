"""The two coefficient triangles every relation is built from.

An integer triangle q[k][j] defined by a quadratic recurrence, and a
rational triangle c[k][j] obtained from it by a two-term linear relation
solved downward from the diagonal.  Their cross-validations, the series
ODE they come from and its closed forms live in ``tautrel.coeffs``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

__all__ = ["QTable", "CTable", "build_q_table", "build_c_table"]

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


def build_q_table(k_max: int) -> QTable:
    """Fill the integer triangle from its quadratic recurrence.

    q[k][j] = (2k+4j-2)*q[k-1][j-1] + (j+1)*q[k-1][j]
              + sum_{m,l} q[m][l]*q[k-1-m][j-1-l]

    with q[0][0] = 1 and q vanishing outside 0 <= j <= k.  The double sum
    is the (k-1, j-1) entry of the 2-D self-convolution of the triangle,
    assembled row by row from 1-D convolutions.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    rows: list[list[int]] = [[1]]
    for k in range(1, k_max + 1):
        kk = k - 1
        # conv_row[j] = sum_{m+m'=kk, l+l'=j} q[m][l]*q[m'][l']
        # The sum is symmetric in m <-> kk - m: take m <= kk/2, doubling
        # every pair but the middle one.
        conv_row = [0] * (kk + 1)
        for m in range(kk // 2 + 1):
            row_m = rows[m] if 2 * m == kk else [2 * v for v in rows[m]]
            _add_convolution(conv_row, row_m, rows[kk - m])
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

    The boundary c[k][k+1] = 0 makes j = k the well-posed starting point:
    c[k][k] = q[k][k]/(6k), then descend.  Divisors 2k+4j are positive
    for every k >= 1.
    """
    if q.k_max < 1:
        raise ValueError("need q table with k_max >= 1")
    rows: list[tuple[Fraction, ...]] = []
    for k in range(1, q.k_max + 1):
        row = [_ZERO] * (k + 1)
        row[k] = Fraction(q.get(k, k), 6 * k)
        for j in range(k - 1, -1, -1):
            row[j] = Fraction(q.get(k, j) - (j + 1) * row[j + 1], 2 * k + 4 * j)
        rows.append(tuple(row))
    return CTable(q.k_max, tuple(rows))
