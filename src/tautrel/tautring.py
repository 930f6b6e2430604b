"""Sparse weighted polynomial algebra in kappa generators and relation extraction.

Generators are indexed by nonnegative integers; index 0 is reserved for the
extra weight-1 generator psi used by the pointed-curve relation.  The
index-0 kappa symbol is never a generator: it is substituted as the
scalar 2g-2 at extraction time, which keeps the ring independent of the
genus.

Inside a polynomial a monomial is a packed exponent vector (Monagan and
Pearce, CASC 2007): one int holding an 8-bit exponent field per generator
index, psi (index 0) in the lowest byte, so multiplying two monomials is
one integer addition.  Generator indices run 0..MAX_INDEX and a stored
exponent 0..255.  A product whose operands hold an exponent past
MAX_OPERAND_EXPONENT (127) raises OverflowError, since the sum of two
such fields could carry into the next generator's field; no monomial
ever aliases another.

A polynomial is a map from packed monomial to integer numerator over one
positive denominator.  It is kept normalised (no zero numerators, and the
gcd of the numerators and the denominator is 1), so equality is exact
dict equality.  Sums, scalings and products work on integers only, and
every product goes through one kernel, ``_sum_of_products``.

At the edges a monomial reads as a tuple of (index, exponent) pairs
sorted by index (``Mono``): ``terms``, ``coeff`` and the constructor speak
that form.  The weighted degree of a monomial counts index*exponent (psi
counts 1 per power).  Every extracted relation is homogeneous in this
grading.

An exponential exp(sum_m v1^m kappa_m sum_j coeff(m, j) v2^j) is built as
two factors, E0(v1) G(v1, v2): E0 is the exponential of the v2^0 slice, G
that of the rest, which stops at the largest v2 power read and stays small.
A relation is one cell of the exponential times its second factor F2
(F2 = 1 for b = 0).  Read alone (``extract_relation``, the psi and
diagonal routes) it is that cell of E0 (G F2), and no other is formed.
A batch (``extract_relations``, ``extract_relations_from_ode``) keeps the
cells sum_k E0_k G(i-k, j) of one exponential on its windows' staircase.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import reduce
from math import gcd, lcm, prod
from operator import mul, or_
from typing import TYPE_CHECKING, NamedTuple

from . import _EXPORTS
from .tables import CTable, QTable

if TYPE_CHECKING:  # the ODE route's solution; only its callers load series
    from .series import BiSeries

__all__ = [name for name, home in _EXPORTS.items() if home == "tautring"]

_ZERO = Fraction(0)
_ONE = Fraction(1)

Mono = tuple[tuple[int, int], ...]

# One byte per generator index; decoding reads the packed int's bytes.
_FIELD_BITS = 8
_EXP_MAX = (1 << _FIELD_BITS) - 1
MAX_INDEX = 1023
# The largest exponent a product operand may hold: with the top bit of every
# field clear, the sum of two fields cannot carry into the next one.
MAX_OPERAND_EXPONENT = (1 << (_FIELD_BITS - 1)) - 1
_FIELD_TOPS = int.from_bytes(bytes([MAX_OPERAND_EXPONENT + 1]) * (MAX_INDEX + 1), "little")
_COMPLEMENT = bytes(range(_EXP_MAX, -1, -1))
_INDICES = range(MAX_INDEX + 1)
# JSON text of a monomial field: '"<index>":' then the exponent's digits.
_INDEX_KEYS = tuple(f'"{i}":' for i in _INDICES)
_EXP_DIGITS = tuple(map(str, range(_EXP_MAX + 1)))


def _encode(mono: Mono) -> int:
    key = 0
    for idx, e in mono:
        if not 0 <= idx <= MAX_INDEX:
            raise ValueError(f"generator index {idx} outside 0..{MAX_INDEX}")
        if not 0 <= e <= _EXP_MAX:
            raise ValueError(f"exponent {e} of generator {idx} outside 0..{_EXP_MAX}")
        shift = _FIELD_BITS * idx
        if (key >> shift) & _EXP_MAX:
            raise ValueError(f"generator index {idx} repeated in {mono!r}")
        key += e << shift
    return key


def _exponents(key: int) -> bytes:
    """Byte i is the exponent of generator i."""
    return key.to_bytes((key.bit_length() + 7) // 8, "little")


def _decode(key: int) -> Mono:
    return tuple((idx, e) for idx, e in enumerate(_exponents(key)) if e)


def _weight(key: int) -> int:
    f = _exponents(key)
    return sum(map(mul, f, _INDICES)) + (f[0] if f else 0)


class _TermsView(Mapping):
    """Read-only {Mono: Fraction} view of a polynomial, decoded on access."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict[int, int], den: int):
        self._num = num
        self._den = den

    def __len__(self) -> int:
        return len(self._num)

    def __iter__(self):
        return map(_decode, self._num)

    def __getitem__(self, mono: Mono) -> Fraction:
        try:
            return Fraction(self._num[_encode(mono)], self._den)
        except (KeyError, TypeError, ValueError):
            raise KeyError(mono) from None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class KappaPoly:
    """Sparse polynomial: packed monomial -> integer numerator, one denominator."""

    __slots__ = ("_num", "_den", "_tops")

    def __init__(self, terms: Mapping[Mono, Fraction] | None = None):
        num: dict[int, int] = {}
        den = 1
        if terms:
            fracs = [(_encode(m), Fraction(v)) for m, v in terms.items()]
            den = lcm(*(v.denominator for _, v in fracs))
            for k, v in fracs:
                num[k] = num.get(k, 0) + v.numerator * (den // v.denominator)
        self._set(num, den)

    def _set(self, num: dict[int, int], den: int) -> None:
        """Store num/den in normal form: no zeros, gcd(numerators, den) = 1."""
        if 0 in num.values():
            num = {k: v for k, v in num.items() if v}
        if not num:
            den = 1
        elif den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {k: v // g for k, v in num.items()}
        self._num = num
        self._den = den
        self._tops = None

    @classmethod
    def scalar(cls, v: Fraction) -> "KappaPoly":
        v = Fraction(v)
        return _poly({0: v.numerator}, v.denominator)

    @classmethod
    def gen(cls, index: int, exponent: int = 1, coeff: Fraction = _ONE) -> "KappaPoly":
        if index < 0 or exponent < 1:
            raise ValueError("generator index must be >= 0 and exponent >= 1")
        coeff = Fraction(coeff)
        return _poly({_encode(((index, exponent),)): coeff.numerator}, coeff.denominator)

    @property
    def terms(self) -> _TermsView:
        """The terms as a read-only {Mono: Fraction} mapping."""
        return _TermsView(self._num, self._den)

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KappaPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __add__(self, other: "KappaPoly") -> "KappaPoly":
        den = lcm(self._den, other._den)
        s1, s2 = den // self._den, den // other._den
        out = {k: v * s1 for k, v in self._num.items()} if s1 != 1 else dict(self._num)
        for k, v in other._num.items():
            if k in out:
                out[k] += v * s2
            else:
                out[k] = v * s2
        return _poly(out, den)

    def scale(self, r: Fraction) -> "KappaPoly":
        r = Fraction(r)
        a = r.numerator
        return _poly({k: a * v for k, v in self._num.items()}, r.denominator * self._den)

    def __mul__(self, other: "KappaPoly") -> "KappaPoly":
        return _sum_of_products([(self, other, 1)])

    def coeff(self, mono: Mono) -> Fraction:
        return self.terms.get(mono, _ZERO)

    def gen_coeff(self, index: int) -> Fraction:
        """Coefficient of the bare generator kappa_index (exponent 1)."""
        return self.coeff(((index, 1),))

    def without_gen(self, index: int) -> "KappaPoly":
        """This polynomial with its bare kappa_index term (exponent 1) dropped."""
        num = dict(self._num)
        num.pop(_encode(((index, 1),)), None)
        return _poly(num, self._den)

    def _field_tops(self) -> int:
        """Top bit of every exponent field used by any term (cached)."""
        if self._tops is None:
            self._tops = reduce(or_, self._num, 0) & _FIELD_TOPS
        return self._tops

    def max_gen(self) -> int:
        """Largest generator index present; -1 for constants and zero."""
        used = reduce(or_, self._num, 0)
        return (used.bit_length() - 1) // _FIELD_BITS if used else -1

    def substitute(self, mapping: dict[int, "KappaPoly"]) -> "KappaPoly":
        """Replace each mapped generator by its polynomial, exactly.

        Unmapped generators pass through.  The terms are peeled by their
        highest mapped generator h, as K0 + sum_h S_h mapping[h] with S_h
        their quotient by kappa_h, itself substituted the same way: Horner's
        rule in several variables (Carnicer and Gasca, Math. Comp. 1990).
        """
        mask = 0
        for idx in mapping:
            mask |= _EXP_MAX << (_FIELD_BITS * idx)
        return _peel(self._num, self._den, mapping, mask)

    def __repr__(self) -> str:
        return f"KappaPoly({len(self._num)} terms)"


def _canonical_keys(num: dict[int, int]) -> list[int]:
    """Packed monomials in canonical order: graded by weighted degree, then
    lexicographic with the larger exponent of the lowest differing index
    first (the complemented exponent bytes, compared in index order)."""
    width = (reduce(or_, num, 0).bit_length() + 7) // 8
    order = [(_weight(k), k.to_bytes(width, "little").translate(_COMPLEMENT), k) for k in num]
    order.sort()
    return [k for _, _, k in order]


def _poly(num: dict[int, int], den: int) -> KappaPoly:
    """The normalised polynomial num/den, for den > 0."""
    p = object.__new__(KappaPoly)
    p._set(num, den)
    return p


_UNIT_POLY = _poly({0: 1}, 1)
_ZERO_POLY = _poly({}, 1)
# The cells (i, j) of a bivariate series, or of one of its factors.
_Cells = dict[tuple[int, int], KappaPoly]


def _sum_of_products(
    pairs: list[tuple[KappaPoly, KappaPoly, int]], div: int = 1
) -> KappaPoly:
    """sum(r * p * q for p, q, r in pairs) / div, for integers r and div > 0.

    This is the one multiplication kernel: products, substitution and
    the exponential recurrence all end here.  Every pair shares one
    denominator, so the inner loop adds packed monomials and multiplies
    integer numerators only.
    """
    den = lcm(*(p._den * q._den for p, q, _ in pairs))
    acc: dict[int, int] = {}
    for p, q, r in pairs:
        if p._field_tops() | q._field_tops():
            raise OverflowError(
                "exponent of 128 or more in a product operand: packed field would carry"
            )
        pt, qt = p._num, q._num
        if len(pt) > len(qt):
            pt, qt = qt, pt
        c = r * (den // (p._den * q._den))
        for k1, n1 in pt.items():
            n1 *= c
            for k2, n2 in qt.items():
                k = k1 + k2
                if k in acc:
                    acc[k] += n1 * n2
                else:
                    acc[k] = n1 * n2
    return _poly(acc, den * div)


def _peel(num: dict[int, int], den: int, mapping: dict[int, KappaPoly], mask: int) -> KappaPoly:
    """num/den with every generator in the packed ``mask`` replaced by its
    mapping: the terms free of them, plus mapping[h] times the substituted
    quotient by kappa_h of the terms whose highest such generator is h."""
    free: dict[int, int] = {}
    quotients: dict[int, dict[int, int]] = {}
    for k, n in num.items():
        if mapped := k & mask:
            h = (mapped.bit_length() - 1) // _FIELD_BITS
            quotients.setdefault(h, {})[k - (1 << (_FIELD_BITS * h))] = n
        else:
            free[k] = n
    pairs = [(_poly(free, den), _UNIT_POLY, 1)]
    for h, quotient in quotients.items():
        pairs.append((_peel(quotient, den, mapping, mask), mapping[h], 1))
    return _sum_of_products(pairs)


def _value_at(poly: KappaPoly, point: list, m: int, low_values: dict[int, int]) -> Fraction:
    """poly at kappa_i = point[i], from its packed terms, apart from
    ``substitute`` and ``_sum_of_products``.  Terms are grouped by their part
    past kappa_m, so each group meets a rational value once; ``low_values``
    keeps each monomial's value in kappa_1..kappa_m at point[1..m]."""
    low_point, high_point = point[1 : m + 1], point[m + 1 :]
    cut = _FIELD_BITS * (m + 1)
    groups: dict[int, int] = {}
    for key, n in poly._num.items():
        low = key & ((1 << cut) - 1)
        if (v := low_values.get(low)) is None:
            v = low_values[low] = prod(map(pow, low_point, low.to_bytes(m + 1, "little")[1:]))
        groups[key >> cut] = groups.get(key >> cut, 0) + n * v
    total = sum(
        n * prod(x**e for x, e in zip(high_point, k.to_bytes(len(high_point), "little")) if e)
        for k, n in groups.items()
    )
    return Fraction(total, poly._den)


def _monomial_rows(polys: list[KappaPoly]) -> list[list[int]]:
    """Row i is polys[i] times its denominator, over every packed monomial they hold."""
    basis = sorted(set().union(*(p._num for p in polys)))
    return [[p._num.get(k, 0) for k in basis] for p in polys]


def terms_json(poly: KappaPoly) -> str:
    """The terms as canonical JSON array text, in ``_canonical_keys`` order.

    Each term reads {"monomial":{"<index>":<exponent>,...},"coeff":"<n/d>"},
    the coefficient in lowest terms ("<n>" when integral), with no spaces.
    """
    num, den = poly._num, poly._den
    keys, digits = _INDEX_KEYS, _EXP_DIGITS
    parts = []
    for k in _canonical_keys(num):
        n = num[k]
        g = gcd(n, den)
        coeff = str(n // g) if g == den else f"{n // g}/{den // g}"
        mono = ",".join([keys[i] + digits[e] for i, e in enumerate(_exponents(k)) if e])
        parts.append(f'{{"monomial":{{{mono}}},"coeff":"{coeff}"}}')
    return f"[{','.join(parts)}]"


class PolySeries(NamedTuple):
    """Bivariate truncated series whose coefficients are KappaPoly values.

    Row i of the first variable holds the cells j <= limits[i] of the
    second; the limits never increase with i (a staircase, of which the
    rectangle is the constant case).  Zero cells are not stored.
    """

    limits: tuple[int, ...]
    cells: _Cells


def _exp_factors(coeff: Callable[[int, int], Fraction], limits: list[int]) -> tuple[_Cells, _Cells]:
    """exp of sum_{m>=1} s_m v1^m, with s_m = sum_l coeff(m, l) kappa_m v2^l,
    as its two factors E0(v1) G(v1, v2) on the cells j <= limits[i].

    E0, the exponential of the v2^0 slices, follows the recurrence in v1,
    i * E0_i = sum_m m * s_{m,0} * E0_{i-m}; G, the exponential of the
    rest, the recurrence in v2, j * G_j = sum_l l * A_l * G_{j-l} with
    A_l = sum_m s_{m,l} v1^m, one kernel call per cell.  Every slice is read
    before the first product, slice m through v2^limits[m] only.  The limits
    must not increase with i, so that every cell a recurrence reads lies
    inside them.  Returns E0 as the cells (i, 0), G as its nonzero cells.
    """
    slices: list[dict[int, KappaPoly]] = [{} for _ in range(limits[0] + 1)]
    for m in range(1, len(limits)):
        for l in range(limits[m] + 1):
            if v := coeff(m, l):
                slices[l][m] = KappaPoly.gen(m, coeff=v)
    e0 = {(0, 0): _UNIT_POLY}
    for i in range(1, len(limits)):
        pairs = [(s, e0[(i - m, 0)], m) for m, s in slices[0].items() if m <= i]
        e0[(i, 0)] = _sum_of_products(pairs, div=i)
    g = {(0, 0): _UNIT_POLY}
    for j in range(1, limits[0] + 1):
        for i in range(1, sum(top >= j for top in limits)):
            pairs = [
                (s, g[(i - m, j - l)], l)
                for l in range(1, j + 1)
                for m, s in slices[l].items()
                if (i - m, j - l) in g
            ]
            if not (cell := _sum_of_products(pairs, div=j)).is_zero():
                g[(i, j)] = cell
    return e0, g


def _exp_cells(coeff: Callable[[int, int], Fraction], limits: list[int]) -> _Cells:
    """Every nonzero cell of the exponential of ``_exp_factors``, for a batch
    of reads: cell (i, j) is sum_k E0_k G(i-k, j), and (i, 0) is E0_i."""
    e0, g = _exp_factors(coeff, limits)
    cells = e0 | {
        (i, j): _convolve_cell(g, e0, i, j)
        for i, top in enumerate(limits)
        for j in range(1, top + 1)
    }
    return {k: p for k, p in cells.items() if not p.is_zero()}


def _staircase(windows: list[tuple[int, int]]) -> list[int]:
    """Row limits through the (n, d) windows: J(i) = max{d : (n, d) in windows, n >= i}.

    Row i takes the largest d of a window in row i or any row below it,
    so the limits never increase with i.
    """
    if not windows:
        raise ValueError("need at least one (n, d) window")
    if any(n < 0 or d < 0 for n, d in windows):
        raise ValueError(f"negative window in {windows!r}")
    limits = [0] * (max(n for n, _ in windows) + 1)
    for n, d in windows:
        limits[n] = max(limits[n], d)
    for i in range(len(limits) - 2, -1, -1):
        limits[i] = max(limits[i], limits[i + 1])
    return limits


def kappa_exponential(c: CTable, windows: list[tuple[int, int]]) -> PolySeries:
    """exp(-sum_{a>=1} x^a kappa_a sum_{j<=a} c[a][j] u^j) on a staircase.

    ``windows`` lists the cells (x^n, u^d) the caller will read, directly
    or through a second factor (whose reads (n-i, d-j) stay below (n, d)).
    Row i is built through u^J(i), with J(i) = max{d : (n, d) in windows,
    n >= i}; one window (n, d) gives the full rectangle.  A c table too
    small for the windows raises ValueError before any product.
    """
    limits = _staircase(windows)
    return PolySeries(tuple(limits), _exp_cells(lambda a, j: -c.get(a, j), limits))


class TautRelation(NamedTuple):
    """One extracted relation: a homogeneous polynomial that vanishes."""

    g: int
    d: int
    b: int
    degree: int
    poly: KappaPoly


class PsiRelation(NamedTuple):
    """Pointed-curve relation: homogeneous in psi and the kappa generators."""

    g: int
    d: int
    degree: int
    poly: KappaPoly


class DiagonalRelation(NamedTuple):
    """Relation built from the diagonal-coefficient generating series."""

    g: int
    b: int
    a: int
    poly: KappaPoly


def _kappa_symbol(index: int, g: int, coeff: Fraction = _ONE) -> KappaPoly:
    """kappa_index as a ring element, for index >= 0: index 0 -> 2g-2."""
    if index == 0:
        return KappaPoly.scalar(coeff * (2 * g - 2))
    return KappaPoly.gen(index, coeff=coeff)


# The second factor of every b = 0 read: F2 = 1.
_UNIT_FACTOR: _Cells = {(0, 0): _UNIT_POLY}


def _convolve_cell(cells: _Cells, f2: _Cells, i: int, j: int) -> KappaPoly:
    """Coefficient (i, j) of the product of two series, each given by its
    cells, without forming the full product.  Times F2 = 1 it is the cell
    itself, with no kernel product: a batch cell (x^n, u^d) holds kappa_1^n,
    past the operand relation_window bounds for b = 0 and d < n."""
    if f2 is _UNIT_FACTOR:
        return cells.get((i, j), _ZERO_POLY)
    pairs = []
    for (i2, j2), p in f2.items():
        if i2 > i or j2 > j:
            continue
        cell = cells.get((i - i2, j - j2))
        if cell is not None:
            pairs.append((cell, p, 1))
    return _sum_of_products(pairs)


def _one_window(coeff: Callable[[int, int], Fraction], f2: _Cells, n: int, d: int) -> KappaPoly:
    """Cell (n, d) of the exponential of ``_exp_factors`` times F2, read from
    its factors as E0 (G F2): column d of G times F2, then E0 times that
    column, so no other cell of the exponential is formed."""
    e0, g = _exp_factors(coeff, [d] * (n + 1))
    column = ((i, _convolve_cell(g, f2, i, d)) for i in range(n + 1))
    # as in G, only nonzero cells: no E0 row is multiplied by a zero cell
    return _convolve_cell({(i, d): p for i, p in column if not p.is_zero()}, e0, n, d)


def relation_window(g: int, d: int, b: int = 0, psi: bool = False) -> int:
    """The x-exponent n of the cell (x^n, u^d) holding the (g, d, b) relation.

    The plain exponential (b = 0) is read at n = g+1-2d; the exponential
    times the second factor (b >= 1, and every psi relation) at
    n = g+2-2d.  Raises ValueError unless g >= 2, d >= 2, b >= 0 and n >= 0,
    and when the kernel could not multiply the relation out: a generator
    index past MAX_INDEX (none exceeds the relation's degree, g+1+b-2d or
    n for psi), or a product operand past MAX_OPERAND_EXPONENT.  That
    operand is, for b = 0, kappa_1^(n-1) in the exponential's recurrence if
    d < n, else G(n, n), a multiple of kappa_1^n (G(i, j) = 0 for j > i)
    that a batch read, and for d = n the one-window read, multiplies by
    E0_0; for b >= 1 the cell, holding kappa_1^n, that a batch read
    multiplies by the second factor; for psi the second factor's psi^n entry.
    """
    if g < 2 or d < 2 or b < 0:
        raise ValueError("need g >= 2, d >= 2, b >= 0")
    plain = b == 0 and not psi
    n = (g + 1 - 2 * d) if plain else (g + 2 - 2 * d)
    if n < 0:
        raise ValueError(f"relation out of range for (g={g}, d={d}, b={b})")
    _check_kernel_bounds(n if psi else g + 1 + b - 2 * d, n - 1 if plain and d < n else n)
    return n


def _check_kernel_bounds(index: int, exponent: int) -> None:
    """Refuse a generator index past MAX_INDEX or a product operand exponent
    past MAX_OPERAND_EXPONENT, read at call time."""
    if index > MAX_INDEX:
        raise ValueError(f"generator index {index} outside 0..{MAX_INDEX}")
    if exponent > MAX_OPERAND_EXPONENT:
        raise ValueError(
            f"exponent {exponent} in a product operand outside 0..{MAX_OPERAND_EXPONENT}"
        )


def _second_factor(g: int, n: int, d: int, b: int, psi: bool, q: QTable) -> _Cells:
    """The second factor's cells through (x^n, u^d), each one packed term:
    lead - 2 sum_{a>=0} gen_a x^(a+1) sum_{j<=a} q[a][j] u^(j+1), with lead
    kappa_{b-1} and gen_a kappa_{a+b} (b >= 1), for psi lead 1 and gen_a
    psi^(a+1), and 1 for b = 0.  relation_window bounds every index and
    exponent here."""
    if b == 0 and not psi:
        return _UNIT_FACTOR
    f2 = {(0, 0): _UNIT_POLY if psi else _kappa_symbol(b - 1, g)}
    for a2 in range(n):
        key = a2 + 1 if psi else 1 << (_FIELD_BITS * (a2 + b))
        for j in range(min(a2, d - 1) + 1):
            if qv := q.get(a2, j):
                f2[(a2 + 1, j + 1)] = _poly({key: -2 * qv}, 1)
    return f2


def _taut_relation(g: int, d: int, b: int, poly: KappaPoly) -> TautRelation:
    return TautRelation(g=g, d=d, b=b, degree=g + 1 + b - 2 * d, poly=poly)


def extract_relation(g: int, d: int, b: int, q: QTable, c: CTable) -> TautRelation:
    """Extract the (g, d, b) relation from the exponential generating series.

    For b = 0 the plain exponential is read at (x^(g+1-2d), u^d); for
    b >= 1 the exponential times the second factor is read at
    (x^(g+2-2d), u^d).  The zero polynomial is a legal, degenerate result.
    Many relations are read faster together by ``extract_relations``.
    """
    n = relation_window(g, d, b)
    f2 = _second_factor(g, n, d, b, False, q)
    return _taut_relation(g, d, b, _one_window(lambda a, j: -c.get(a, j), f2, n, d))


def extract_relations(
    cells: list[tuple[int, int, int]], q: QTable, c: CTable
) -> list[TautRelation]:
    """The relation of each (g, d, b) in ``cells``, in order ([] for none),
    each equal to ``extract_relation``'s.  Every window passes
    relation_window before one ``kappa_exponential`` is built on their
    staircase; each relation is read from its cells times the second factor.
    """
    if not cells:
        return []
    windows = [(relation_window(g, d, b), d) for g, d, b in cells]
    exp = kappa_exponential(c, windows).cells
    return [
        _taut_relation(g, d, b, _convolve_cell(exp, _second_factor(g, n, d, b, False, q), n, d))
        for (g, d, b), (n, _) in zip(cells, windows)
    ]


def extract_psi_relation(g: int, d: int, q: QTable, c: CTable) -> PsiRelation:
    """Pointed-curve relation with psi (generator 0) kept symbolic."""
    n = relation_window(g, d, psi=True)
    poly = _one_window(lambda a, j: -c.get(a, j), _second_factor(g, n, d, 0, True, q), n, d)
    return PsiRelation(g=g, d=d, degree=n, poly=poly)


def extract_relation_from_ode(g: int, d: int, b: int, alpha: BiSeries) -> TautRelation:
    """Extract the (g, d, b) relation through the ODE coefficient table: the
    batch of one of ``extract_relations_from_ode``."""
    return extract_relations_from_ode([(g, d, b)], alpha)[0]


def extract_relations_from_ode(
    cells: list[tuple[int, int, int]], alpha: BiSeries
) -> list[TautRelation]:
    """The relation of each (g, d, b) in ``cells``, in order ([] for none),
    through the ODE coefficient table.

    This is an independent pipeline in the (t, w) variables: the
    push-forward dictionary turns the ODE solution into
    sum t^(a-1) kappa_{a-1} alpha[a][j] w^j (the a = 1 slice is the
    scalar (2g-2) sum_j alpha[1][j] w^j), and the companion factor into
    kappa_{b-1} + 2 sum t^a kappa_{a+b-1} j alpha[a][j] w^j (1 for b = 0).
    Results agree with extract_relation up to the sign (-1)^d coming from
    the change of variables between the two coordinate systems.

    One exponential without the a = 1 slice, on the staircase of all the
    windows, serves every genus.  That slice, a scalar series in w read as
    the cells (0, j) of a second series, multiplies it once per genus, on
    the staircase of that genus's windows, where the genus first appears.
    """
    if not cells:
        return []
    from .series import UniSeries

    windows = [(relation_window(g, d, b), d) for g, d, b in cells]
    limits = _staircase(windows)
    n_x, n_w = alpha.orders
    if n_x < len(limits) or n_w < limits[0]:
        raise ValueError(f"alpha table sized {alpha.orders}, need ({len(limits)}, {limits[0]})")
    base = _exp_cells(lambda m, j: alpha.coeff(m + 1, j), limits)
    by_genus: dict[int, _Cells] = {}
    out = []
    for (g, d, b), (n, _) in zip(cells, windows):
        if (series := by_genus.get(g)) is None:
            stairs = _staircase([w for (g2, _, _), w in zip(cells, windows) if g2 == g])
            w_top = stairs[0]
            f0 = UniSeries("w", w_top, [(2 * g - 2) * alpha.coeff(1, j) for j in range(w_top + 1)])
            ef0 = {(0, j): KappaPoly.scalar(v) for j, v in enumerate(f0.exp().coeffs) if v}
            series = by_genus[g] = {
                (i, j): cell
                for i, top in enumerate(stairs)
                for j in range(top + 1)
                if not (cell := _convolve_cell(base, ef0, i, j)).is_zero()
            }
        f2 = _UNIT_FACTOR
        if b:
            f2 = {(0, 0): _kappa_symbol(b - 1, g)}
            for a2 in range(n + 1):
                for j in range(1, d + 1):
                    if av := alpha.coeff(a2, j):
                        f2[(a2, j)] = _kappa_symbol(a2 + b - 1, g, coeff=2 * j * av)
        out.append(_taut_relation(g, d, b, _convolve_cell(series, f2, n, d)))
    return out


def extract_diagonal_relation(g: int, b: int, a: int, c: CTable) -> DiagonalRelation:
    """Relation from the diagonal generating series, at its admissible degrees.

    For b = 0 the degree a must equal g/3 + 1 or (g+1)/3; for b >= 1 it
    must equal (g-1)/3 + b or (g+1)/3 + b.  The polynomial is the t^a
    coefficient of exp(-sum c[j][j] kappa_j t^j) times, for b >= 1,
    (kappa_{b-1} t^(b-1) - 2 kappa_b t^b - 12 sum_j j c[j][j] kappa_{j+b} t^(j+b)),
    read through ``_one_window`` with no second variable.
    """
    if g < 2 or b < 0 or a < 1:
        raise ValueError("need g >= 2, b >= 0, a >= 1")
    if b == 0:
        if 3 * a != g + 3 and 3 * a != g + 1:
            raise ValueError(
                f"inadmissible (g={g}, b=0, a={a}): need a = g/3+1 or (g+1)/3"
            )
    else:
        if 3 * (a - b) != g - 1 and 3 * (a - b) != g + 1:
            raise ValueError(
                f"inadmissible (g={g}, b={b}, a={a}): need a = (g-1)/3+b or (g+1)/3+b"
            )
    f2 = _UNIT_FACTOR
    if b:
        f2 = {(b - 1, 0): _kappa_symbol(b - 1, g), (b, 0): KappaPoly.gen(b, coeff=Fraction(-2))}
        for j in range(1, a - b + 1):
            if cv := c.get(j, j):
                f2[(j + b, 0)] = KappaPoly.gen(j + b, coeff=-12 * j * cv)
    return DiagonalRelation(g=g, b=b, a=a, poly=_one_window(lambda m, _: -c.get(m, m), f2, a, 0))


def relation_json(rel: TautRelation | PsiRelation) -> str:
    """Canonical one-line JSON for a relation; byte-stable across runs."""
    kind = '"psi":true' if isinstance(rel, PsiRelation) else f'"b":{rel.b}'
    return (
        f'{{"g":{rel.g},"d":{rel.d},{kind},"degree":{rel.degree},'
        f'"terms":{terms_json(rel.poly)}}}'
    )
