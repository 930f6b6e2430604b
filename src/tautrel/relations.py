"""Generator-elimination procedure, nonvanishing scan, and independence checks.

For each genus g the classes kappa_1..kappa_{floor(g/3)} generate once
every kappa_a with floor(g/3) < a <= g-2 is rewritten in lower-index
classes.  The selection of which extracted relation to solve for each a
follows the constructive recipe: prefer a b >= 2 relation whose leading
coefficient is a positive integer from the q triangle; where no integer
d exists in the admissible interval, fall back to the parity-matched
b in {0, 1} relation, whose leading coefficient the scan checks to be
nonzero for every a up to 60.  Polynomials are read only through tautring,
which alone knows their packed form: the point check and the rank's rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from math import lcm
from typing import NamedTuple

from . import _EXPORTS
from .tables import CTable, QTable
from .tautring import (
    KappaPoly,
    _check_kernel_bounds,
    _monomial_rows,
    _value_at,
    extract_relations,
    extract_relations_from_ode,
    relation_window,
)

__all__ = [name for name, home in _EXPORTS.items() if home == "relations"]


class FaberConsistencyError(RuntimeError):
    """One of faber_solve's three checks failed: a zero leading coefficient,
    a high generator left by the reduction, or a relation that does not
    vanish at the check point."""


class FaberChoice(NamedTuple):
    """Chosen (d, b) for solving kappa_a in genus g."""

    g: int
    a: int
    d: int
    b: int
    case_tag: str  # "b_large", "b0" or "b1"


def faber_choose(g: int, a: int) -> FaberChoice:
    """Pick the relation used to express kappa_a, deterministically.

    Requires floor(g/3)+1 <= a <= g-2.  When 3a >= g+5 and the interval
    [(g+3-a)/2, (g+2)/3] contains an integer, the smallest such d is
    taken with b = a+2d-g-1 >= 2.  Otherwise b is fixed by the parity of
    a-g-1 to 0 or 1 and d = (g+1+b-a)/2.

    The solved kappa_a holds a kappa_1^a term, and ``substitute`` passes
    every term of its operand through the kernel, so an a past the
    kernel's generator index or operand exponent raises ValueError.
    """
    if g < 2:
        raise ValueError("need g >= 2")
    lo_a = g // 3 + 1
    if not lo_a <= a <= g - 2:
        raise ValueError(f"a={a} outside generation range [{lo_a}, {g - 2}] for g={g}")
    _check_kernel_bounds(a, a)
    if 3 * a >= g + 5:
        d_lo = (g + 4 - a) // 2  # ceil((g+3-a)/2)
        d_hi = (g + 2) // 3
        if d_lo <= d_hi:
            d = d_lo
            b = a + 2 * d - g - 1
            return FaberChoice(g=g, a=a, d=d, b=b, case_tag="b_large")
    # b = a-g-1 (mod 2) makes g+1+b-a even, and a <= g-3+b (a = g-2 has
    # the parity of g, so it takes b = 1) makes d >= 2
    b = (a - g - 1) % 2
    d = (g + 1 + b - a) // 2
    return FaberChoice(g=g, a=a, d=d, b=b, case_tag=f"b{b}")


class GeneratorExpression(NamedTuple):
    """kappa_a = rhs, with rhs free of any kappa_j for j >= a."""

    g: int
    a: int
    rhs: KappaPoly


def faber_solve(
    g: int, q: QTable, c: CTable, rewrite: bool = True
) -> list[GeneratorExpression]:
    """Express every kappa_a, floor(g/3) < a <= g-2, in lower classes.

    With rewrite=True each right-hand side is fully reduced to
    kappa_1..kappa_{floor(g/3)} by back-substitution.  A zero leading
    coefficient is a fatal consistency failure, not a legal outcome.

    Each reduction is checked by exact evaluation at one integer point,
    kappa_i = the i-th prime for i <= floor(g/3) and each solved kappa_h =
    its reduced form there, where the source relation must vanish.  The
    check reads the packed terms, not ``substitute``, so a wrong leading
    coefficient or a fault in the reduction fails it.  It is a necessary
    condition only: an error that vanishes at the point passes, and so
    does a wrong q or c entry, which changes the relation the reduction
    follows.
    """
    if g < 2:
        raise ValueError("need g >= 2")
    m = g // 3
    choices = [faber_choose(g, a) for a in range(m + 1, g - 1)]
    rels = extract_relations([(g, ch.d, ch.b) for ch in choices], q, c)
    # the check point: kappa_1..kappa_m at the primes, then each solved value
    primes = (p for p in count(2) if all(p % i for i in range(2, p)))
    point: list[int | Fraction] = [0, *islice(primes, m)]
    low_values: dict[int, int] = {}

    reduced: dict[int, KappaPoly] = {}
    out: list[GeneratorExpression] = []
    for ch, rel in zip(choices, rels):
        lam = rel.poly.gen_coeff(ch.a)
        if lam == 0:
            raise FaberConsistencyError(
                f"zero leading coefficient at (g={g}, a={ch.a}, d={ch.d}, b={ch.b})"
            )
        raw = rel.poly.without_gen(ch.a).scale(Fraction(-1) / lam)
        red = raw.substitute(reduced)
        if red.max_gen() > m:
            raise FaberConsistencyError(
                f"reduction left a high generator at (g={g}, a={ch.a})"
            )
        point.append(_value_at(red, point, m, low_values))
        if value := _value_at(rel.poly, point, m, low_values):
            raise FaberConsistencyError(
                f"relation nonzero at the check point (g={g}, a={ch.a}, d={ch.d}, b={ch.b}):"
                f" {value}"
            )
        reduced[ch.a] = red
        out.append(GeneratorExpression(g=g, a=ch.a, rhs=red if rewrite else raw))
    return out


# The scan recomputes the b = 1 coefficient by full extraction for a <= this.
_SAMPLE_MAX = 8


class ScanReport(NamedTuple):
    """Nonvanishing scan outcome: checks made, failures, remark-formula mismatches."""

    checked: int
    failures: list[dict]
    remark_formula_mismatches: list[dict]

    @property
    def ok(self) -> bool:
        return not self.failures


def scan_nonvanishing(a_max: int, q: QTable, c: CTable) -> ScanReport:
    """Check the two fallback leading coefficients never vanish.

    For every 1 <= d <= a <= a_max: c[a][d] != 0 (the b = 0 pairing,
    genus a+2d-1) and (2g-2)*c[a][d] + 2*q[a-1][d-1] != 0 with
    g = a+2d-2 (the b = 1 pairing).  On the sub-grid a <= _SAMPLE_MAX the
    b = 1 coefficient is recomputed from a full extraction.  Cells where
    the alternative published formula (2a-4d-6)*c[a][d] + 2*q[a-1][d-1]
    disagrees with the extraction-based value are reported separately.
    """
    if a_max < 1:
        raise ValueError("a_max must be >= 1")
    failures: list[dict] = []
    mismatches: list[dict] = []
    # the b = 1 relation of each sampled (a, d), in genus a+2d-2
    lim = min(_SAMPLE_MAX, a_max)
    cells = [(a + 2 * d - 2, d, 1) for a in range(2, lim + 1) for d in range(2, a + 1)]
    sampled = {(r.g, r.d): r for r in extract_relations(cells, q, c)}
    for a in range(1, a_max + 1):
        for d in range(1, a + 1):
            cad = c.get(a, d)
            q2 = 2 * q.get(a - 1, d - 1)
            g1 = a + 2 * d - 2
            if cad == 0:
                failures.append({"a": a, "d": d, "g": g1 + 1, "b": 0, "value": "0"})
            coef_b1 = (2 * g1 - 2) * cad + q2
            if coef_b1 == 0:
                failures.append({"a": a, "d": d, "g": g1, "b": 1, "value": "0"})
            remark = (2 * a - 4 * d - 6) * cad + q2
            if remark != coef_b1:
                mismatches.append(
                    {
                        "a": a,
                        "d": d,
                        "g": g1,
                        "b": 1,
                        "extraction": str(coef_b1),
                        "remark_formula": str(remark),
                    }
                )
            if (rel := sampled.get((g1, d))) is not None:
                if (lead := rel.poly.gen_coeff(a)) != -coef_b1:
                    failures.append(
                        {
                            "a": a,
                            "d": d,
                            "g": g1,
                            "b": 1,
                            "value": str(lead),
                            "kind": "sample_extraction_mismatch",
                        }
                    )
    # two table checks per grid cell, and one per sampled extraction
    return ScanReport(a_max * (a_max + 1) + len(cells), failures, mismatches)


def rank_exact(rows: list[list[Fraction]]) -> int:
    """Rank of rows of ints or Fractions by fraction-free (Bareiss) elimination."""
    mat: list[list[int]] = []
    for row in rows:
        mult = lcm(*(v.denominator for v in row))
        mat.append([int(v * mult) for v in row])
    if not mat:
        return 0
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        piv = None
        for r in range(rank, n_rows):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        p = mat[rank][col]
        for r in range(rank + 1, n_rows):
            for cc in range(col + 1, n_cols):
                mat[r][cc] = (p * mat[r][cc] - mat[r][col] * mat[rank][cc]) // prev
            mat[r][col] = 0
        prev = p
        rank += 1
        if rank == n_rows:
            break
    return rank


class IndependenceReport(NamedTuple):
    """All relations of one weighted degree for one genus, with their rank."""

    g: int
    a: int
    pairs: list[dict]  # {d, b, nonzero}
    n_nonzero: int
    rank: int

    @property
    def ok(self) -> bool:
        return self.rank == self.n_nonzero


def independence_report(g: int, a: int, q: QTable, c: CTable) -> IndependenceReport:
    """Extract every (d, b) relation of degree a in genus g and rank them.

    Pairs satisfy d >= 2, b >= 0, a = g+1+b-2d and nonnegative extraction
    exponents; zero polynomials are listed but excluded from the matrix,
    whose rows are the others' integer numerators over their monomials.
    """
    if g < 2 or a < 1:
        raise ValueError("need g >= 2 and a >= 1")
    cells = [(g, d, b) for d in range(2, (g + 2) // 2 + 1) if (b := a + 2 * d - g - 1) >= 0]
    rels = extract_relations(cells, q, c)
    pairs = [{"d": r.d, "b": r.b, "nonzero": not r.poly.is_zero()} for r in rels]
    polys = [r.poly for r in rels if not r.poly.is_zero()]
    return IndependenceReport(g, a, pairs, len(polys), rank_exact(_monomial_rows(polys)))


def cross_pipeline_cells(g_max: int) -> list[tuple[int, int, int, int]]:
    """Every (g, d, b, n) with 2 <= g <= g_max and b <= 4 that has a relation.

    n is the x-exponent of the relation's cell, from ``relation_window``.
    """
    cells = []
    for g in range(2, g_max + 1):
        for d in range(2, (g + 2) // 2 + 1):
            for b in range(0, 5):
                try:
                    cells.append((g, d, b, relation_window(g, d, b)))
                except ValueError:  # this (g, d, b) has no cell
                    continue
    return cells


def cross_pipeline_check(q: QTable, c: CTable, order: int) -> tuple[str, list[str]]:
    """Compare the exponential and ODE extraction pipelines cell by cell.

    Every cell of ``cross_pipeline_cells(min(order, 14))`` (238 at the cap)
    is extracted both ways, each route as one batch, the ODE one from one
    alpha table; the ODE relation must equal (-1)^d times the exponential
    one.
    Needs order >= 2, where the first cells appear.  Returns a summary and
    the first mismatch as a one-item list, or [] when every cell agrees.
    """
    if order < 2:
        raise ValueError("need order >= 2")
    from .coeffs import solve_series_ode

    grid = cross_pipeline_cells(min(order, 14))
    alpha = solve_series_ode(max(n for *_, n in grid) + 1, max(d for _, d, _, _ in grid))
    cells = [(g, d, b) for g, d, b, _ in grid]
    summary = "both extraction pipelines proportional"
    for r1, r2 in zip(extract_relations(cells, q, c), extract_relations_from_ode(cells, alpha)):
        if r2.poly != r1.poly.scale((-1) ** r1.d):
            return summary, [f"(g={r1.g}, d={r1.d}, b={r1.b}) pipelines disagree"]
    return summary, []
