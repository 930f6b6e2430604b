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
sorted by index (``Mono``): ``terms``, ``sorted_terms``, ``coeff`` and the
constructor speak that form.  The weighted degree of a monomial counts
index*exponent (psi counts 1 per power).  Every extracted relation is
homogeneous in this grading.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul, or_
from typing import TYPE_CHECKING, NamedTuple

from .tables import CTable, QTable

if TYPE_CHECKING:  # the ODE route's solution; only its callers load series
    from .series import BiSeries

__all__ = [
    "MAX_INDEX",
    "MAX_OPERAND_EXPONENT",
    "KappaPoly",
    "PolySeries",
    "TautRelation",
    "PsiRelation",
    "DiagonalRelation",
    "kappa_exponential",
    "relation_window",
    "extract_relation",
    "extract_psi_relation",
    "extract_relation_from_ode",
    "extract_diagonal_relation",
    "ode_exponential",
    "ode_genus_exponential",
    "relation_json",
    "terms_json",
]

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

    def _combine(self, other: "KappaPoly", sign: int) -> "KappaPoly":
        den = lcm(self._den, other._den)
        s1, s2 = den // self._den, sign * (den // other._den)
        out = {k: v * s1 for k, v in self._num.items()} if s1 != 1 else dict(self._num)
        for k, v in other._num.items():
            if k in out:
                out[k] += v * s2
            else:
                out[k] = v * s2
        return _poly(out, den)

    def __add__(self, other: "KappaPoly") -> "KappaPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "KappaPoly") -> "KappaPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "KappaPoly":
        return _poly({k: -v for k, v in self._num.items()}, self._den)

    def scale(self, r: Fraction) -> "KappaPoly":
        r = Fraction(r)
        a = r.numerator
        return _poly({k: a * v for k, v in self._num.items()}, r.denominator * self._den)

    def __mul__(self, other: "KappaPoly") -> "KappaPoly":
        return _sum_of_products([(self, other, 1)])

    def coeff(self, mono: Mono) -> Fraction:
        try:
            n = self._num.get(_encode(mono))
        except ValueError:
            return _ZERO
        return Fraction(n, self._den) if n else _ZERO

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

    def homogeneous_degree(self) -> int | None:
        """Common weighted degree, None for the zero polynomial.

        Raises ValueError when the terms mix degrees.
        """
        degs = {_weight(k) for k in self._num}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous polynomial, degrees {sorted(degs)}")
        return degs.pop()

    def substitute(
        self,
        mapping: dict[int, "KappaPoly"],
        _power_cache: dict[int, "KappaPoly"] | None = None,
    ) -> "KappaPoly":
        """Replace each mapped generator by its polynomial, exactly.

        Unmapped generators pass through.  Terms are grouped by their
        mapped part, and the product of substituted powers for each
        group is cached across calls when a shared cache dict is
        supplied; that cache is only valid for one fixed mapping per
        generator.
        """
        cache = _power_cache if _power_cache is not None else {}
        mask = 0
        for idx in mapping:
            mask |= _EXP_MAX << (_FIELD_BITS * idx)
        groups: dict[int, dict[int, int]] = {}
        for k, n in self._num.items():
            mapped = k & mask
            kept = groups.get(mapped)
            if kept is None:
                groups[mapped] = {k - mapped: n}
            else:
                kept[k - mapped] = n
        return _sum_of_products(
            [
                (_poly(kept, self._den), _power_product(mapped, mapping, cache), 1)
                for mapped, kept in groups.items()
            ]
        )

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        """Terms in canonical order (see ``_canonical_keys``)."""
        num, den = self._num, self._den
        return [(_decode(k), Fraction(num[k], den)) for k in _canonical_keys(num)]

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


def _power_product(
    mapped: int, mapping: dict[int, KappaPoly], cache: dict[int, KappaPoly]
) -> KappaPoly:
    """Product of mapping[idx]**e over the fields of a packed monomial, cached."""
    if not mapped:
        return _UNIT_POLY
    f = cache.get(mapped)
    if f is None:
        top = (mapped.bit_length() - 1) // _FIELD_BITS
        shift = _FIELD_BITS * top
        e = mapped >> shift
        rest = mapped - (e << shift)
        if rest:
            f = _power_product(rest, mapping, cache) * _power_product(
                e << shift, mapping, cache
            )
        elif e == 1:
            f = mapping[top]
        else:
            f = _power_product((e - 1) << shift, mapping, cache) * mapping[top]
        cache[mapped] = f
    return f


def terms_json(poly: KappaPoly) -> str:
    """The terms as canonical JSON array text, in ``sorted_terms`` order.

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


class PolySeries:
    """Bivariate truncated series whose coefficients are KappaPoly values.

    Row i of the first variable holds the cells j <= limits[i] of the
    second; the limits never increase with i (a staircase, of which the
    rectangle is the constant case).  ``genus`` is set on a series whose
    cells depend on the genus (the ODE route's, once its a = 1 factor is
    applied); None means the series serves every genus.  Zero cells are
    not stored.
    """

    __slots__ = ("limits", "cells", "genus")

    def __init__(
        self,
        limits: list[int],
        cells: dict[tuple[int, int], KappaPoly],
        genus: int | None = None,
    ):
        self.limits = tuple(limits)
        self.cells = {k: p for k, p in cells.items() if not p.is_zero()}
        self.genus = genus

    def coeff(self, i: int, j: int) -> KappaPoly:
        if not self.covers(i, j):
            raise ValueError(f"cell ({i}, {j}) outside the row limits {self.limits}")
        return self.cells.get((i, j), KappaPoly())

    def covers(self, i: int, j: int) -> bool:
        return 0 <= i < len(self.limits) and 0 <= j <= self.limits[i]


def _exp_from_slices(
    coeff: Callable[[int, int], Fraction], limits: list[int]
) -> dict[tuple[int, int], KappaPoly]:
    """exp of sum_{m>=1} s_m v1^m, cellwise on the cells j <= limits[i], where
    the slice s_m is sum_j coeff(m, j) kappa_m v2^j.

    Every slice is read from ``coeff`` before the first product.  Uses the
    derivative recurrence in the first variable:
    i * e_i = sum_m m * s_m * e_{i-m}, one kernel call per cell.  The
    limits must not increase with i, so that every cell the recurrence
    reads, (i-m, j' <= j), lies inside them, and slice m is read through
    v2^limits[m] only.  Every cell is returned, zero ones included.
    """
    slices: dict[int, dict[int, KappaPoly]] = {}
    for m in range(1, len(limits)):
        slices[m] = row = {}
        for j in range(limits[m] + 1):
            v = coeff(m, j)
            if v:
                row[j] = KappaPoly.gen(m, coeff=v)
    e: list[dict[int, KappaPoly]] = [{0: _UNIT_POLY}]
    for i in range(1, len(limits)):
        top = limits[i]
        buckets: dict[int, list[tuple[KappaPoly, KappaPoly, int]]] = {}
        for m in range(1, i + 1):
            sm = slices[m]
            if not sm:
                continue
            em = e[i - m]
            for jm, p in sm.items():
                for je, qp in em.items():
                    j = jm + je
                    if j <= top:
                        buckets.setdefault(j, []).append((p, qp, m))
        e.append({j: _sum_of_products(pairs, div=i) for j, pairs in buckets.items()})
    return {(i, j): p for i, row in enumerate(e) for j, p in row.items()}


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
    return PolySeries(limits, _exp_from_slices(lambda a, j: -c.get(a, j), limits))


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


def _convolve_cell(
    cells: dict[tuple[int, int], KappaPoly],
    f2: dict[tuple[int, int], KappaPoly],
    i: int,
    j: int,
) -> KappaPoly:
    """Coefficient (i, j) of the product of two series, each given by its
    cells, without forming the full product."""
    pairs = []
    for (i2, j2), p in f2.items():
        if i2 > i or j2 > j:
            continue
        cell = cells.get((i - i2, j - j2))
        if cell is not None:
            pairs.append((cell, p, 1))
    return _sum_of_products(pairs)


def relation_window(g: int, d: int, b: int = 0, psi: bool = False) -> int:
    """The x-exponent n of the cell (x^n, u^d) holding the (g, d, b) relation.

    The plain exponential (b = 0) is read at n = g+1-2d; the exponential
    times the second factor (b >= 1, and every psi relation) at
    n = g+2-2d.  Raises ValueError unless g >= 2, d >= 2, b >= 0 and n >= 0,
    and when the kernel could not multiply the relation out: a generator
    index past MAX_INDEX (none exceeds the relation's degree, g+1+b-2d or
    n for psi), or a product operand past MAX_OPERAND_EXPONENT.  That
    operand is kappa_1^(n-1) in the exponential's recurrence for b = 0,
    and with a second factor the cell itself, kappa_1^n or psi^n.
    """
    if g < 2 or d < 2 or b < 0:
        raise ValueError("need g >= 2, d >= 2, b >= 0")
    plain = b == 0 and not psi
    n = (g + 1 - 2 * d) if plain else (g + 2 - 2 * d)
    if n < 0:
        raise ValueError(f"relation out of range for (g={g}, d={d}, b={b})")
    _check_kernel_bounds(n if psi else g + 1 + b - 2 * d, n - 1 if plain else n)
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


def _extract(
    g: int, d: int, b: int, psi: bool, q: QTable, c: CTable, exp_series: PolySeries | None
) -> KappaPoly:
    """Cell (x^n, u^d) of the exponential, times the second factor unless b = 0.

    The second factor is lead - 2 sum_{a>=0} gen_a x^(a+1) sum_{j<=a} q[a][j] u^(j+1)
    with lead kappa_{b-1} and gen_a kappa_{a+b}, or for psi lead 1 and
    gen_a psi^(a+1).
    """
    n = relation_window(g, d, b, psi)
    if exp_series is None:
        exp_series = kappa_exponential(c, [(n, d)])
    elif not exp_series.covers(n, d):
        raise ValueError(f"shared exponential does not cover the cell ({n}, {d})")
    if b == 0 and not psi:
        return exp_series.coeff(n, d)
    f2 = {(0, 0): _UNIT_POLY if psi else _kappa_symbol(b - 1, g)}
    for a2 in range(0, n):
        for j in range(0, min(a2, d - 1) + 1):
            qv = q.get(a2, j)
            if not qv:
                continue
            coeff = Fraction(-2 * qv)
            gen = KappaPoly.gen(0, a2 + 1, coeff) if psi else _kappa_symbol(a2 + b, g, coeff)
            f2[(a2 + 1, j + 1)] = gen
    return _convolve_cell(exp_series.cells, f2, n, d)


def extract_relation(
    g: int, d: int, b: int, q: QTable, c: CTable, exp_series: PolySeries | None = None
) -> TautRelation:
    """Extract the (g, d, b) relation from the exponential generating series.

    For b = 0 the plain exponential is read at (x^(g+1-2d), u^d); for
    b >= 1 the exponential times the second factor is read at
    (x^(g+2-2d), u^d).  The zero polynomial is a legal, degenerate result.

    ``exp_series`` may carry a precomputed exponential whose windows
    include (relation_window(g, d, b), d), so grids of extractions can
    share one; a shared exponential that does not cover that cell raises
    ValueError.
    """
    poly = _extract(g, d, b, False, q, c, exp_series)
    return TautRelation(g=g, d=d, b=b, degree=g + 1 + b - 2 * d, poly=poly)


def extract_psi_relation(
    g: int, d: int, q: QTable, c: CTable, exp_series: PolySeries | None = None
) -> PsiRelation:
    """Pointed-curve relation with psi (generator 0) kept symbolic."""
    poly = _extract(g, d, 0, True, q, c, exp_series)
    return PsiRelation(g=g, d=d, degree=relation_window(g, d, psi=True), poly=poly)


def ode_exponential(alpha: BiSeries, windows: list[tuple[int, int]]) -> PolySeries:
    """exp(sum_{a>=2} t^(a-1) kappa_{a-1} sum_j alpha[a][j] w^j) on a staircase.

    This is the ODE route's exponential without its a = 1 slice, the
    scalar (2g-2) sum_j alpha[1][j] w^j, so it serves every genus;
    ``ode_genus_exponential`` applies that slice.  ``windows`` lists the
    cells (t^n, w^d) the caller will read; row i is built through w^J(i),
    with J(i) = max{d : (n, d) in windows, n >= i}.
    """
    limits = _staircase(windows)
    n_x, n_w = alpha.orders
    if n_x < len(limits) or n_w < limits[0]:
        raise ValueError(f"alpha table sized {alpha.orders}, need ({len(limits)}, {limits[0]})")
    return PolySeries(limits, _exp_from_slices(lambda m, j: alpha.coeff(m + 1, j), limits))


def ode_genus_exponential(
    base: PolySeries, alpha: BiSeries, g: int, windows: list[tuple[int, int]]
) -> PolySeries:
    """``base`` times exp((2g-2) sum_j alpha[1][j] w^j), on the staircase of
    ``windows``: the whole ODE-route exponential of genus g.

    The factor is a scalar series in w, read as the cells (0, j) of a
    second series, so each cell is one ``_convolve_cell``.  A base that
    does not cover the windows, or that already carries a genus factor,
    raises ValueError.
    """
    if base.genus is not None:
        raise ValueError(f"series already carries the genus-{base.genus} factor")
    limits = _staircase(windows)
    if not all(base.covers(i, top) for i, top in enumerate(limits)):
        raise ValueError(f"base series does not cover the windows {windows!r}")
    from .series import UniSeries

    f0 = UniSeries("w", limits[0], [(2 * g - 2) * alpha.coeff(1, j) for j in range(limits[0] + 1)])
    ef0 = {(0, j): KappaPoly.scalar(v) for j, v in enumerate(f0.exp().coeffs) if v}
    cells = {
        (i, j): _convolve_cell(base.cells, ef0, i, j)
        for i, top in enumerate(limits)
        for j in range(top + 1)
    }
    return PolySeries(limits, cells, genus=g)


def extract_relation_from_ode(
    g: int, d: int, b: int, alpha: BiSeries, ode_series: PolySeries | None = None
) -> TautRelation:
    """Extract the (g, d, b) relation through the ODE coefficient table.

    This is an independent pipeline in the (t, w) variables: the
    push-forward dictionary turns the ODE solution into
    sum t^(a-1) kappa_{a-1} alpha[a][j] w^j (the a = 1 slice is the
    scalar (2g-2) sum_j alpha[1][j] w^j), and the companion factor into
    kappa_{b-1} + 2 sum t^a kappa_{a+b-1} j alpha[a][j] w^j.  Results
    agree with extract_relation up to the sign (-1)^d coming from the
    change of variables between the two coordinate systems.

    ``ode_series`` may carry a precomputed ``ode_genus_exponential`` of
    genus g whose windows include (relation_window(g, d, b), d), so the
    cells of one genus can share one; a series of another genus, or one
    that does not cover that cell, raises ValueError.
    """
    t_exp = relation_window(g, d, b)
    if ode_series is None:
        windows = [(t_exp, d)]
        ode_series = ode_genus_exponential(ode_exponential(alpha, windows), alpha, g, windows)
    elif ode_series.genus != g:
        raise ValueError(f"shared ODE series is for genus {ode_series.genus}, not {g}")
    elif not ode_series.covers(t_exp, d):
        raise ValueError(f"shared ODE series does not cover the cell ({t_exp}, {d})")

    if b == 0:
        poly = ode_series.coeff(t_exp, d)
    else:
        f2 = {(0, 0): _kappa_symbol(b - 1, g)}
        for a2 in range(0, t_exp + 1):
            for j in range(1, d + 1):
                av = alpha.coeff(a2, j)
                if av:
                    f2[(a2, j)] = _kappa_symbol(a2 + b - 1, g, coeff=2 * j * av)
        poly = _convolve_cell(ode_series.cells, f2, t_exp, d)
    return TautRelation(g=g, d=d, b=b, degree=g + 1 + b - 2 * d, poly=poly)


def extract_diagonal_relation(g: int, b: int, a: int, c: CTable) -> DiagonalRelation:
    """Relation from the diagonal generating series, at its admissible degrees.

    For b = 0 the degree a must equal g/3 + 1 or (g+1)/3; for b >= 1 it
    must equal (g-1)/3 + b or (g+1)/3 + b.  The polynomial is the t^a
    coefficient of exp(-sum c[j][j] kappa_j t^j) times, for b >= 1,
    (kappa_{b-1} t^(b-1) - 2 kappa_b t^b - 12 sum_j j c[j][j] kappa_{j+b} t^(j+b)).
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
    e = _exp_from_slices(lambda m, _: -c.get(m, m), [0] * (a + 1))
    if b == 0:
        poly = e.get((a, 0), KappaPoly())
    else:
        f2 = {(b - 1, 0): _kappa_symbol(b - 1, g), (b, 0): KappaPoly.gen(b, coeff=Fraction(-2))}
        for j in range(1, a - b + 1):
            cv = c.get(j, j)
            if cv:
                f2[(j + b, 0)] = KappaPoly.gen(j + b, coeff=-12 * j * cv)
        poly = _convolve_cell(e, f2, a, 0)
    return DiagonalRelation(g=g, b=b, a=a, poly=poly)


def relation_json(rel: TautRelation | PsiRelation) -> str:
    """Canonical one-line JSON for a relation; byte-stable across runs."""
    kind = '"psi":true' if isinstance(rel, PsiRelation) else f'"b":{rel.b}'
    return (
        f'{{"g":{rel.g},"d":{rel.d},{kind},"degree":{rel.degree},'
        f'"terms":{terms_json(rel.poly)}}}'
    )
