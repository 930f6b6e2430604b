"""The exact scalar convention and the Bernoulli numbers.

The universal scalar everywhere in this package is ``fractions.Fraction``:
arbitrary-precision, always stored in lowest terms with a positive
denominator, so equality checks are trivial and exact.  The canonical
string form is ``str(Fraction)`` / ``Fraction(str)``: ``"num/den"`` with
``den > 0`` in lowest terms, and plain ``"n"`` for integers.
"""

from __future__ import annotations

from fractions import Fraction

from . import _EXPORTS

__all__ = [name for name, home in _EXPORTS.items() if home == "exact"]

_ZERO = Fraction(0)


def bernoulli_table(n_max: int) -> tuple[Fraction, ...]:
    """B_0..B_n_max (first convention, B_1 = -1/2), from the tangent numbers.

    The tangent numbers T_1..T_m, m = n_max // 2, come from Brent and
    Harvey's in-place integer recurrence ("Fast computation of Bernoulli,
    Tangent and Secant numbers", 2011): start from T_k = (k-1)!, then for
    k = 2..m and j = k..m set T_j = (j-k)*T_(j-1) + (j-k+2)*T_j.  Then

        B_2k = (-1)^(k-1) * 2k * T_k / (4^k * (4^k - 1))

    and B_n = 0 for odd n >= 3, so each value costs one Fraction.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    m = n_max // 2
    t = [0, 1]  # t[k] = T_k; t[0] is unused
    for k in range(2, m + 1):
        t.append((k - 1) * t[k - 1])
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    values: list[Fraction] = [Fraction(1), Fraction(-1, 2)][: n_max + 1]
    for n in range(2, n_max + 1):
        if n % 2:
            values.append(_ZERO)
        else:
            k = n // 2
            four_k = 4**k
            num = 2 * k * t[k] if k % 2 else -2 * k * t[k]
            values.append(Fraction(num, four_k * (four_k - 1)))
    return tuple(values)
