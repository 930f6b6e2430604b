"""The exact scalar convention and the Bernoulli numbers.

The universal scalar everywhere in this package is ``fractions.Fraction``:
arbitrary-precision, always stored in lowest terms with a positive
denominator, so equality checks are trivial and exact.  The canonical
string form is ``str(Fraction)`` / ``Fraction(str)``: ``"num/den"`` with
``den > 0`` in lowest terms, and plain ``"n"`` for integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

__all__ = ["BernoulliTable", "bernoulli_table"]


class BernoulliTable:
    """Bernoulli numbers B_0 .. B_max_index (first convention, B_1 = -1/2)."""

    __slots__ = ("max_index", "values")

    def __init__(self, max_index: int, values: tuple[Fraction, ...]):
        self.max_index = max_index
        self.values = values

    def __repr__(self) -> str:
        return f"BernoulliTable(max_index={self.max_index}, values={self.values!r})"

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n <= self.max_index:
            raise IndexError(f"B_{n} not tabulated (max index {self.max_index})")
        return self.values[n]


def bernoulli_table(n_max: int) -> BernoulliTable:
    """Build B_0..B_n_max by the convolution recurrence.

    For n >= 1:  sum_{j=0}^{n} C(n+1, j) * B_j = 0, solved for B_n.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    values: list[Fraction] = [Fraction(1)]
    for n in range(1, n_max + 1):
        s = sum(comb(n + 1, j) * values[j] for j in range(n))
        values.append(Fraction(-s, n + 1))
    return BernoulliTable(n_max, tuple(values))
