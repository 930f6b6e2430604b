"""The series ODE behind the coefficient tables, and their cross-validations.

The two triangles q[k][j] and c[k][j] (built in ``tautrel.tables`` and
re-exported here) are tied together by a bivariate generating series:
it solves

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

from . import _EXPORTS
from .exact import bernoulli_table
from .series import BiSeries, UniSeries, _half_power_coeffs, _over_common_den
# re-exported, so ``tautrel.coeffs.build_q_table`` still names the builder
from .tables import CTable, QTable, _add_convolution, build_c_table, build_q_table  # noqa: F401

__all__ = [name for name, home in _EXPORTS.items() if home == "coeffs"]

_ZERO = Fraction(0)


def solve_series_ode(n_x: int, n_w: int) -> BiSeries:
    """Solve x*w*F_ww = w*(F_w)**2 + (1-x)*F_w - 1 as a series in x and w.

    The coefficient of x^k w^j is alpha[k][j], 0 <= k <= n_x, 0 <= j <= n_w.

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

    Every slice past F_0 has integer coefficients: F_1 = 1/(1 - x), and
    the right side of F_d holds only integer weights and products of
    slices F_1..F_(d-1); F_0 enters no product.  So the solve runs on
    integer lists, each product an integer convolution with its weight
    folded into one operand, and each alpha[k][d] = F_d[k]/d! is one
    Fraction.
    """
    if n_x < 1 or n_w < 1:
        raise ValueError("orders must be >= 1")
    bern = bernoulli_table(n_x)
    terms = {(a, 0): -bern[a] / (a * (a - 1)) for a in range(2, n_x + 1) if bern[a]}
    slices: list[list[int]] = [[]]  # F_0 enters no product
    fact = 1
    for d in range(1, n_w + 1):
        rhs = [0] * (n_x + 1)
        if d == 1:
            rhs[0] = 1
        for l in range(1, d // 2 + 1):
            weight = comb(d - 1, l) * l * (1 if 2 * l == d else 2)
            _add_convolution(rhs, [-weight * v for v in slices[l]], slices[d - l])
        for k in range(1, n_x + 1):
            rhs[k] += d * rhs[k - 1]
        slices.append(rhs)
        fact *= d
        terms.update(((k, d), Fraction(v, fact)) for k, v in enumerate(rhs) if v)
    return BiSeries(("x", "w"), (n_x, n_w), terms)


def _sqrt_shifted_coeffs(n: int) -> list[int]:
    """Coefficients of (-1 + sqrt(1+4w))/(2w) through w^n: integers."""
    sq = _half_power_coeffs(1, 1, n + 1)[1]
    return [v // 2 for v in sq[1:]]


def _add_half_power_sum(
    terms: dict[tuple[int, int], Fraction],
    t: QTable | CTable,
    s: int,
    sign: int,
    n_x: int,
    n_w: int,
) -> None:
    """Add sign * sum_{1<=k<n_x} sum_{j<=k} x^(k+1) t[k][j] (-w)^j (1+4w)^(-j-k/2-s)
    to ``terms``, through w^n_w; no other part of a closed form reaches x^2.

    Every key (k+1, .) comes from row k alone, so each row is summed as
    integer numerators over that row's common denominator, and becomes
    Fractions once.  The powers of 1+4w are the integer series of
    ``_half_power_coeffs``.  A table sized below n_x - 1 raises ValueError
    from its ``get``.
    """
    if n_x < 2:
        return
    powers = _half_power_coeffs(-(3 * (n_x - 1) + 2 * s), -(1 + 2 * s), n_w)
    for k in range(1, n_x):
        nums, den = _over_common_den([t.get(k, j) for j in range(min(k, n_w) + 1)])
        acc = [0] * (n_w + 1)
        for j, v in enumerate(nums):
            if v:
                v = -sign * v if j % 2 else sign * v
                acc[j:] = [a + v * p for a, p in zip(acc[j:], powers[-(2 * j + k + 2 * s)])]
        for i, v in enumerate(acc):
            if v:
                terms[(k + 1, i)] = Fraction(v, den)


def expand_w_deriv_closed(q: QTable, n_x: int, n_w: int) -> BiSeries:
    """Closed form of the w-derivative of the ODE solution.

    (-1+sqrt(1+4w))/(2w) + x/(1+4w)
        + sum_{k>=1} sum_{j<=k} x^(k+1) q[k][j] (-w)^j (1+4w)^(-j-k/2-1)

    expanded with the exact integer series of the half-integer powers of
    1+4w.
    """
    terms: dict[tuple[int, int], Fraction] = {}
    for j, v in enumerate(_sqrt_shifted_coeffs(n_w)):
        if v:
            terms[(0, j)] = Fraction(v)
    if n_x >= 1:
        for m in range(n_w + 1):
            terms[(1, m)] = Fraction((-4) ** m)
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
            terms[(0, j + 1)] = Fraction(a0[j], j + 1)
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


def ode_residual(f: BiSeries) -> BiSeries:
    """Residual x*w*F_ww - w*(F_w)**2 - (1-x)*F_w + 1 over the exact window.

    Zero through orders (n_x, n_w - 1) is the defining property of the
    ODE solution.  It reads no w^0 coefficient: F(x, 0) is initial data
    that enters only through w-derivatives, so ``ode_check_failures``
    checks it against the closed form alone.

    With G = den*F_w on integer rows, den**2 times the residual at x^i w^j
    is den*((j+1)*G[i-1][j] - G[i][j]) - (G*G)[i][j-1], plus den**2 at
    (0, 0).  Each product G[m]*G[i-m] in row i of G*G is formed once, for
    m <= i/2, and doubled when m != i - m.
    """
    n_x, n_w = f.orders
    if n_w < 2:
        raise ValueError("need w-order >= 2 to form the residual")
    fw = {(i, j - 1): j * v for (i, j), v in f.coeffs.items() if j}
    g, den = BiSeries(f.vars, (n_x, n_w - 1), fw)._integer_rows()
    den2 = den * den
    terms: dict[tuple[int, int], Fraction] = {}
    prev = [0] * n_w
    for i, cur in enumerate(g):
        sq = [0] * (n_w - 1)
        for m in range(i // 2 + 1):
            _add_convolution(sq, g[m] if 2 * m == i else [2 * v for v in g[m]], g[i - m])
        res = [den * ((j + 1) * p - v) - s for j, (p, v, s) in enumerate(zip(prev, cur, [0] + sq))]
        if i == 0:
            res[0] += den2
        terms.update(((i, j), Fraction(v, den2)) for j, v in enumerate(res) if v)
        prev = cur
    return BiSeries(f.vars, (n_x, n_w - 1), terms)


def ode_check_failures(q: QTable, c: CTable, n: int) -> tuple[str, list[str]]:
    """Solve the ODE through (n, n) and check it three ways.

    The residual of the defining equation must vanish, the solution must
    equal its closed form in c, and its w-derivative the closed form in q.
    Needs n >= 2 and both tables sized n - 1 or more.  Returns a summary
    and the failure messages, [] when all hold.
    """
    series = solve_series_ode(n, n)
    failures = []
    if not ode_residual(series).is_zero():
        failures.append("nonzero residual in the defining equation")
    if series != expand_closed_form(c, n, n):
        failures.append("closed form differs from the solved series")
    deriv = {(i, j - 1): j * v for (i, j), v in series.coeffs.items() if j}
    if deriv != expand_w_deriv_closed(q, n, n - 1).coeffs:
        failures.append("derivative closed form differs")
    return f"alpha vs closed-form: match through ({n},{n})", failures


def q_functional_equation_residual(q: QTable, n_x: int, n_u: int) -> BiSeries:
    """Residual of Q = 1 + x*sqrt(1+4u)*((1+4u)*(uQ)_u + u*Q**2), through (n_x, n_u).

    Row k of Q is (1+4u)^(k/2) * sum_{j<=k} q[k][j] u^j, an integer series
    from ``_half_power_coeffs``.  Row k of the right side reads only the
    rows of Q below k, and its u^t coefficient only their terms through
    u^t, so every row is exact through u^n_u on integer lists.
    """
    if q.k_max < n_x:
        raise ValueError(f"q table sized {q.k_max}, need {n_x}")
    n = n_u + 1
    powers = _half_power_coeffs(0, max(n_x, 1), n_u)
    rows: list[list[int]] = []
    terms: dict[tuple[int, int], int] = {}
    for k in range(n_x + 1):
        row = [0] * n
        _add_convolution(row, powers[k], q.rows[k])
        rhs = [0] * n
        if k == 0:
            rhs[0] = 1
        else:
            # (1+4u)*(uQ)_u + u*Q**2 on row k - 1, then times sqrt(1+4u)
            prev, sq = rows[-1], [0] * n
            for m in range(k):
                _add_convolution(sq, rows[m], rows[k - 1 - m])
            inner = [prev[0]] + [
                (t + 1) * prev[t] + 4 * t * prev[t - 1] + sq[t - 1] for t in range(1, n)
            ]
            _add_convolution(rhs, powers[1], inner)
        rows.append(row)
        terms.update(((k, t), a - b) for t, (a, b) in enumerate(zip(row, rhs)) if a != b)
    return BiSeries(("x", "u"), (n_x, n_u), terms)


def diag_ode_residual(q: QTable, k_max: int) -> UniSeries:
    """Residual of D = 6z**2*D' + D**2 + 5z**2 for D(z) = sum_k q[k][k] z^(k+1).

    The inhomogeneous 5z**2 comes out of the change of variables that
    produces this equation (and is what the integrating-factor recursion
    6(k+1)p_{k+1} = (6k+1)(6k+5)p_k needs); without it the equation has
    only the zero solution.  D and the residual are integer lists through
    z^(k_max+1).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if q.k_max < k_max:
        raise ValueError(f"q table sized {q.k_max}, need {k_max}")
    n = k_max + 1
    d = [0, 0] + [q.rows[k][k] for k in range(1, n)]
    rhs = [0] * (n + 1)
    _add_convolution(rhs, d, d)
    rhs[2] += 5
    for t in range(2, n + 1):
        rhs[t] += 6 * (t - 1) * d[t - 1]
    return UniSeries("z", n, [a - b for a, b in zip(d, rhs)])


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


def remark_identity_failures(q: QTable, bern: tuple[Fraction, ...], k_max: int) -> list[str]:
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
