"""Coefficient tables and their cross-validations.

Two triangular families drive everything: an integer triangle q[k][j]
defined by a quadratic recurrence, and a rational triangle c[k][j]
obtained from it by a two-term linear relation solved downward from the
diagonal.  A bivariate generating series ties them together: it solves

    x*w*F_ww = w*(F_w)**2 + (1 - x)*F_w - 1

with w=0 slice fixed by Bernoulli numbers, and both the series and its
w-derivative have closed-form expansions in powers of (1+4w) whose
coefficients are exactly c[k][j] and q[k][j].  Building the series both
ways and comparing coefficientwise is the strongest self-check in this
package: the two computation paths share nothing.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from .exact import BernoulliTable, bernoulli_table
from .series import BiSeries, UniSeries, binomial_series_coeffs

__all__ = [
    "QTable",
    "CTable",
    "AlphaTable",
    "build_q_table",
    "build_c_table",
    "solve_series_ode",
    "expand_w_deriv_closed",
    "expand_closed_form",
    "p_series",
    "ode_residual",
    "ode_check_failures",
    "q_functional_equation_residual",
    "diag_ode_residual",
    "genfunc_check",
    "remark_identity_failures",
    "verify_coeff_identities",
]

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


def _conv(a: list[int] | tuple[int, ...], b: list[int] | tuple[int, ...]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


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
            weight = 1 if 2 * m == kk else 2
            for l, v in enumerate(_conv(rows[m], rows[kk - m])):
                conv_row[l] += weight * v
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


class AlphaTable(NamedTuple):
    """Coefficients alpha[k][j] of the ODE solution, 0 <= k <= n_x, 0 <= j <= n_w."""

    orders: tuple[int, int]
    entries: tuple[tuple[Fraction, ...], ...]

    def get(self, k: int, j: int) -> Fraction:
        n_x, n_w = self.orders
        if not 0 <= k <= n_x or not 0 <= j <= n_w:
            raise ValueError(f"alpha table sized {self.orders}, need ({k}, {j})")
        return self.entries[k][j]

    def to_series(self) -> BiSeries:
        terms = {}
        for k, row in enumerate(self.entries):
            for j, v in enumerate(row):
                if v:
                    terms[(k, j)] = v
        return BiSeries(("x", "w"), self.orders, terms)


def solve_series_ode(n_x: int, n_w: int) -> AlphaTable:
    """Solve x*w*F_ww = w*(F_w)**2 + (1-x)*F_w - 1 as a series in x and w.

    Writing F = sum_d F_d(x) w^d/d!, equating the coefficient of w^(d-1)
    gives, for every d >= 1,

        delta_{d,1} = F_d - d*x*F_d + sum_{l=1}^{d-1} C(d-1,l)*l*F_l*F_{d-l}

    so each F_d is the known right side times the geometric series
    1/(1 - d*x).  The d = 0 slice is the prescribed initial data
    F_0(x) = -sum_{a>=2} B_a/(a(a-1)) x^a.

    Two identities keep the solve cheap.  The weights of l and d - l agree,
    C(d-1,l)*l = C(d-1,d-l)*(d-l) = (d-1)!/((l-1)!(d-l-1)!), so each
    product F_l*F_{d-l} is formed once, for l <= d/2, with its weight
    doubled when l != d - l.  And multiplying by 1/(1 - d*x) is the O(n)
    recurrence out[k] = rhs[k] + d*out[k-1], not a dense product.
    """
    if n_x < 1 or n_w < 1:
        raise ValueError("orders must be >= 1")
    bern = bernoulli_table(n_x)
    g0 = [_ZERO, _ZERO] + [
        -bern[a] / (a * (a - 1)) for a in range(2, n_x + 1)
    ]
    slices: list[UniSeries] = [UniSeries("x", n_x, g0)]
    for d in range(1, n_w + 1):
        rhs = UniSeries.zero("x", n_x)
        if d == 1:
            rhs = UniSeries.from_terms("x", n_x, {0: Fraction(1)})
        for l in range(1, d // 2 + 1):
            weight = comb(d - 1, l) * l * (1 if 2 * l == d else 2)
            rhs = rhs - (slices[l] * slices[d - l]).scale(Fraction(weight))
        out = list(rhs.coeffs)
        for k in range(1, n_x + 1):
            out[k] += d * out[k - 1]
        slices.append(UniSeries("x", n_x, out))
    entries = tuple(
        tuple(slices[j].coeffs[k] / factorial(j) for j in range(n_w + 1))
        for k in range(n_x + 1)
    )
    return AlphaTable((n_x, n_w), entries)


def _sqrt_shifted_coeffs(n: int) -> list[Fraction]:
    """Coefficients of (-1 + sqrt(1+4w))/(2w) through w^n."""
    sq = binomial_series_coeffs(Fraction(4), Fraction(1, 2), n + 1)
    return [sq[j + 1] / 2 for j in range(n + 1)]


def _add_half_power_sum(
    terms: dict[tuple[int, int], Fraction],
    t: QTable | CTable,
    s: int,
    sign: int,
    n_x: int,
    n_w: int,
) -> None:
    """Add sign * sum_{1<=k<n_x} sum_{j<=k} x^(k+1) t[k][j] (-w)^j (1+4w)^(-j-k/2-s)
    to ``terms``, through w^n_w.

    The exponent repeats across (k, j), so each distinct one is expanded
    once, with exact generalized-binomial series, and sliced.  A table
    sized below n_x - 1 raises ValueError from its ``get``.
    """
    expansions: dict[Fraction, list[Fraction]] = {}
    for k in range(1, n_x):
        for j in range(0, min(k, n_w) + 1):
            tv = t.get(k, j)
            if not tv:
                continue
            e = -(j + Fraction(k, 2) + s)
            cs = expansions.get(e)
            if cs is None:
                cs = expansions[e] = binomial_series_coeffs(Fraction(4), e, n_w)
            signed = -sign * tv if j % 2 else sign * tv
            for m, bv in enumerate(cs[: n_w - j + 1]):
                if bv:
                    key = (k + 1, j + m)
                    terms[key] = terms.get(key, _ZERO) + signed * bv


def expand_w_deriv_closed(q: QTable, n_x: int, n_w: int) -> BiSeries:
    """Closed form of the w-derivative of the ODE solution.

    (-1+sqrt(1+4w))/(2w) + x/(1+4w)
        + sum_{k>=1} sum_{j<=k} x^(k+1) q[k][j] (-w)^j (1+4w)^(-j-k/2-1)

    expanded with exact generalized-binomial series for the half-integer
    powers of 1+4w.
    """
    terms: dict[tuple[int, int], Fraction] = {}
    for j, v in enumerate(_sqrt_shifted_coeffs(n_w)):
        if v:
            terms[(0, j)] = v
    if n_x >= 1:
        for m, v in enumerate(binomial_series_coeffs(Fraction(4), Fraction(-1), n_w)):
            if v:
                terms[(1, m)] = v
    _add_half_power_sum(terms, q, 1, 1, n_x, n_w)
    return BiSeries(("x", "w"), (n_x, n_w), terms)


def expand_closed_form(c: CTable, n_x: int, n_w: int) -> BiSeries:
    """Closed form of the ODE solution itself.

    F(0,w) + (x/4)*ln(1+4w)
        - sum_{k>=1} sum_{j<=k} x^(k+1) c[k][j] (-w)^j (1+4w)^(-j-k/2)

    where F(0,w) is the w-antiderivative (zero constant term) of
    (-1+sqrt(1+4w))/(2w).
    """
    terms: dict[tuple[int, int], Fraction] = {}
    a0 = _sqrt_shifted_coeffs(max(n_w - 1, 0))
    for j in range(min(len(a0), n_w)):
        if a0[j]:
            terms[(0, j + 1)] = a0[j] / (j + 1)
    if n_x >= 1:
        for m in range(1, n_w + 1):
            terms[(1, m)] = Fraction((-1) ** (m - 1) * 4 ** (m - 1), m)
    _add_half_power_sum(terms, c, 0, -1, n_x, n_w)
    return BiSeries(("x", "w"), (n_x, n_w), terms)


def p_series(k_max: int) -> UniSeries:
    """P(z) = sum_k (6k)!/((3k)!(2k)!) (z/72)^k, the diagonal generating series."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    coeffs = [
        Fraction(factorial(6 * k), factorial(3 * k) * factorial(2 * k) * 72**k)
        for k in range(k_max + 1)
    ]
    return UniSeries("z", k_max, coeffs)


def ode_residual(alpha: AlphaTable) -> BiSeries:
    """Residual x*w*F_ww - w*(F_w)**2 - (1-x)*F_w + 1 over the exact window.

    Zero through orders (n_x, n_w - 1) is the defining property of the table.
    """
    n_x, n_w = alpha.orders
    if n_w < 2:
        raise ValueError("need w-order >= 2 to form the residual")
    window = (n_x, n_w - 1)
    f = alpha.to_series()
    fw = f.derivative(1)
    fww = fw.derivative(1)
    t1 = fww.shift(0, 1).shift(1, 1).truncate(window)
    t2 = (fw * fw).shift(1, 1).truncate(window)
    fw_w = fw.truncate(window)
    t3 = fw_w - fw.shift(0, 1).truncate(window)
    one = BiSeries.one(("x", "w"), window)
    return t1 - t2 - t3 + one


def ode_check_failures(q: QTable, c: CTable, n: int) -> tuple[str, list[str]]:
    """Solve the ODE through (n, n) and check it three ways.

    The residual of the defining equation must vanish, the solution must
    equal its closed form in c, and its w-derivative the closed form in q.
    Needs n >= 2 and both tables sized n - 1 or more.  Returns a summary
    and the failure messages, [] when all hold.
    """
    alpha = solve_series_ode(n, n)
    series = alpha.to_series()
    failures = []
    if not ode_residual(alpha).is_zero():
        failures.append("nonzero residual in the defining equation")
    if series != expand_closed_form(c, n, n):
        failures.append("closed form differs from the solved series")
    if series.derivative(1) != expand_w_deriv_closed(q, n, n).truncate((n, n - 1)):
        failures.append("derivative closed form differs")
    return f"alpha vs closed-form: match through ({n},{n})", failures


def q_functional_equation_residual(q: QTable, n_x: int, n_u: int) -> BiSeries:
    """Residual of Q = 1 + x*sqrt(1+4u)*((1+4u)*(uQ)_u + u*Q**2).

    Q is assembled from the integer triangle as
    sum_k x^k (1+4u)^(k/2) sum_{j<=k} q[k][j] u^j, at a working u-order
    two above the requested one so every derivative/shift stays exact.
    """
    if q.k_max < n_x:
        raise ValueError(f"q table sized {q.k_max}, need {n_x}")
    m = n_u + 2
    vars_xu = ("x", "u")
    terms: dict[tuple[int, int], Fraction] = {}
    for k in range(n_x + 1):
        pre = binomial_series_coeffs(Fraction(4), Fraction(k, 2), m)
        for j in range(0, min(k, m) + 1):
            qv = q.get(k, j)
            if not qv:
                continue
            for t, pv in enumerate(pre):
                if pv and j + t <= m:
                    key = (k, j + t)
                    terms[key] = terms.get(key, _ZERO) + qv * pv
    qq = BiSeries(vars_xu, (n_x, m), terms)
    uq_du = qq.shift(1, 1).derivative(1)
    one4u = BiSeries(vars_xu, (n_x, m), {(0, 0): Fraction(1), (0, 1): Fraction(4)})
    inner = one4u * uq_du + (qq * qq).shift(1, 1).truncate((n_x, m))
    sqrt = binomial_series_coeffs(Fraction(4), Fraction(1, 2), m)
    root = BiSeries(vars_xu, (n_x, m), {(0, t): v for t, v in enumerate(sqrt)})
    rhs = (root * inner).shift(0, 1).truncate((n_x, m)) + BiSeries.one(vars_xu, (n_x, m))
    return (qq - rhs).truncate((n_x, n_u))


def diag_ode_residual(q: QTable, k_max: int) -> UniSeries:
    """Residual of D = 6z**2*D' + D**2 + 5z**2 for D(z) = sum_k q[k][k] z^(k+1).

    The inhomogeneous 5z**2 comes out of the change of variables that
    produces this equation (and is what the integrating-factor recursion
    6(k+1)p_{k+1} = (6k+1)(6k+5)p_k needs); without it the equation has
    only the zero solution.
    """
    if q.k_max < k_max:
        raise ValueError(f"q table sized {q.k_max}, need {k_max}")
    n = k_max + 1
    d = UniSeries.from_terms(
        "z", n, {k + 1: Fraction(q.get(k, k)) for k in range(1, k_max + 1)}
    )
    dd = d.coeffs
    z2dp = [_ZERO] * (n + 1)
    for k in range(1, n + 1):
        z2dp[k] = Fraction(6 * (k - 1)) * dd[k - 1]
    t1 = UniSeries("z", n, z2dp[: n + 1])
    inhom = UniSeries.from_terms("z", n, {2: Fraction(5)})
    return d - t1.truncate(n) - d * d - inhom


def genfunc_check(q: QTable, c: CTable, k_max: int) -> tuple[str, list[str]]:
    """Check the diagonal generating series through z^k_max, two ways.

    exp(sum_k c[k][k] z^k) must equal P(z), and D(z) = sum_k q[k][k] z^(k+1)
    must solve its Riccati equation.  Returns a summary naming p_1..p_3
    and the failure messages, [] when both hold.
    """
    diag = UniSeries.from_terms("z", k_max, {k: c.get(k, k) for k in range(1, k_max + 1)})
    p = p_series(k_max)
    failures = []
    if diag.exp() != p:
        failures.append(f"diag_exponential: exp of the c diagonal is not P(z) through z^{k_max}")
    if not diag_ode_residual(q, k_max).is_zero():
        failures.append(f"diag_functional_equation: nonzero residual through z^{k_max}")
    spots = ", ".join(f"p_{k} = {p.coeff(k)}" for k in range(1, min(3, k_max) + 1))
    return f"diagonal series matched; {spots}", failures


def remark_identity_failures(q: QTable, bern: BernoulliTable, k_max: int) -> list[str]:
    """Check B_{k+1}/(k(k+1)) = (1/4) sum_l (-4)^(-l) q[k][l] l! / prod_i (k/2+i).

    The product runs over i = 0..l, so the half-integer factorial ratio is
    evaluated as an exact rational.  Returns one message per failing k.
    """
    failures = []
    for k in range(1, k_max + 1):
        lhs = bern[k + 1] / (k * (k + 1))
        rhs = _ZERO
        denom = Fraction(k, 2)
        prod = denom
        fact = 1
        for l in range(0, k + 1):
            if l > 0:
                fact *= l
                prod *= denom + l
            rhs += Fraction(-4) ** (-l) * q.get(k, l) * fact / prod
        rhs /= 4
        if lhs != rhs:
            failures.append(f"bernoulli_remark at k={k}: expected {lhs}, got {rhs}")
    return failures


def verify_coeff_identities(q: QTable, c: CTable, k_max: int) -> tuple[str, list[str]]:
    """Run every exact cross-identity between the tables up to k_max.

    Checks: positivity of the integer triangle, diagonal and subdiagonal
    ties between the two triangles, the Bernoulli closed form of column
    zero, both diagonal checks of ``genfunc_check``, the bivariate
    functional equation through order min(k_max, 12), and the
    Bernoulli-sum identity.  Returns a summary with the number of checks
    and the failure messages, [] when all hold.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    bern = bernoulli_table(k_max + 1)
    failures = []
    checked = 0
    for k in range(k_max + 1):
        for j in range(k + 1):
            checked += 1
            if q.get(k, j) <= 0:
                failures.append(f"q_positive at k={k}, j={j}: got {q.get(k, j)}")
    for k in range(1, k_max + 1):
        for identity, want, got in (
            ("diag_six_k", q.get(k, k), 6 * k * c.get(k, k)),
            ("diag_sixty", q.get(k, k), 60 * c.get(k, k - 1)),
            ("subdiag_ratio", (k + 1) * q.get(k, k), 10 * q.get(k, k - 1)),
            ("column_zero_bernoulli", bern[k + 1] / (k * (k + 1)), c.get(k, 0)),
        ):
            checked += 1
            if got != want:
                failures.append(f"{identity} at k={k}: expected {want}, got {got}")

    failures += genfunc_check(q, c, k_max)[1]
    checked += 2

    n = min(k_max, 12)
    checked += 1
    if not q_functional_equation_residual(q, n, n).is_zero():
        failures.append(f"bivariate_functional_equation: nonzero residual through order {n}")

    failures += remark_identity_failures(q, bern, k_max)
    checked += k_max
    return f"{checked} exact checks to k={k_max}", failures
