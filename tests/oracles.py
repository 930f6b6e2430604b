"""Brute-force oracle for relation extraction, independent of the library.

The exponential coefficient is enumerated directly: a cell (A, D) of
exp(-sum_a x^a kappa_a sum_j c[a][j] u^j) is a sum over multisets of
(a, j) pairs with total x-weight A and u-weight D, each multiset
contributing prod (-c[a][j])^m / m! on the monomial prod kappa_a^m.
Nothing here is shared with the production pipeline: no series type,
no slice recurrence, just recursion over pair multiplicities.  The
socle values below test the relations against mathematics from outside
the paper.  At the end, the argparse parser the CLI once used is the
reference for its command-line reading.
"""

import argparse
import json
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from math import comb, factorial


def _mono_of(counts):
    agg = {}
    for a, m in counts:
        agg[a] = agg.get(a, 0) + m
    return tuple(sorted(agg.items()))


def oracle_exp_cell(c, A, D):
    """Monomial map of the (x^A, u^D) coefficient of the exponential."""
    pairs = [
        (a, j)
        for a in range(1, A + 1)
        for j in range(0, min(a, D) + 1)
        if c.get(a, j) != 0
    ]
    out = {}

    def rec(idx, rx, ru, coeff, counts):
        if rx == 0 and ru == 0:
            mono = _mono_of(counts)
            out[mono] = out.get(mono, Fraction(0)) + coeff
            return
        if idx == len(pairs) or rx == 0:
            return
        a, j = pairs[idx]
        rec(idx + 1, rx, ru, coeff, counts)
        m = 0
        while True:
            m += 1
            if a * m > rx or j * m > ru:
                break
            cc = coeff * (-c.get(a, j)) ** m / factorial(m)
            rec(idx + 1, rx - a * m, ru - j * m, cc, counts + [(a, m)])

    rec(0, A, D, Fraction(1), [])
    return {m: v for m, v in out.items() if v}


def _mono_mul_gen(mono, gen, scale):
    d = dict(mono)
    if gen >= 1:
        d[gen] = d.get(gen, 0) + 1
    return tuple(sorted(d.items())), scale


def oracle_extract(g, d, b, q, c, general=False):
    """Monomial map of the (g, d, b) relation.

    b=0 uses the plain exponential, unless ``general`` asks for the b=0
    instance of the b >= 1 formula, whose lead kappa_{-1} = 0 drops out.
    """
    if b == 0 and not general:
        return oracle_exp_cell(c, g + 1 - 2 * d, d)
    A = g + 2 - 2 * d
    total = {}

    def add(mono, v):
        total[mono] = total.get(mono, Fraction(0)) + v

    lead_scale = Fraction(2 * g - 2) if b == 1 else Fraction(1)
    if b >= 1:  # at b = 0 the lead kappa_{b-1} is kappa_{-1} = 0
        for mono, v in oracle_exp_cell(c, A, d).items():
            if b == 1:
                add(mono, v * lead_scale)
            else:
                m2, vv = _mono_mul_gen(mono, b - 1, v)
                add(m2, vv)
    for a2 in range(0, A):
        for j in range(0, min(a2, d - 1) + 1):
            qv = q.get(a2, j)
            if not qv:
                continue
            gen = a2 + b
            for mono, v in oracle_exp_cell(c, A - a2 - 1, d - j - 1).items():
                if gen == 0:
                    add(mono, v * Fraction(-2 * qv) * (2 * g - 2))
                else:
                    m2, vv = _mono_mul_gen(mono, gen, v * Fraction(-2 * qv))
                    add(m2, vv)
    return {m: v for m, v in total.items() if v}


def oracle_psi_extract(g, d, q, c):
    """Monomial map of the pointed-curve (psi) relation of (g, d): the
    (x^n, u^d) coefficient, n = g+2-2d, of the exponential times
    1 - 2 sum_a psi^(a+1) x^(a+1) sum_j q[a][j] u^(j+1).  Psi is index 0."""
    A = g + 2 - 2 * d
    total = dict(oracle_exp_cell(c, A, d))
    for a2 in range(0, A):
        for j in range(0, min(a2, d - 1) + 1):
            qv = q.get(a2, j)
            if not qv:
                continue
            for mono, v in oracle_exp_cell(c, A - a2 - 1, d - j - 1).items():
                m2 = ((0, a2 + 1),) + mono
                total[m2] = total.get(m2, Fraction(0)) + v * Fraction(-2 * qv)
    return {m: v for m, v in total.items() if v}


def oracle_diagonal(g, b, a, c):
    """Monomial map of the diagonal relation: the t^a coefficient of
    exp(-sum_j c[j][j] kappa_j t^j), times for b >= 1 the factor
    kappa_{b-1} t^(b-1) - 2 kappa_b t^b - 12 sum_j j c[j][j] kappa_{j+b} t^(j+b).

    The exponential's t^i coefficient is the (x^i, u^0) cell of
    ``oracle_exp_cell`` for a table whose row k holds c[k][k] at j = 0 alone.
    """

    class Diagonal:
        @staticmethod
        def get(k, j):
            return c.get(k, k) if j == 0 else Fraction(0)

    if b == 0:
        return oracle_exp_cell(Diagonal, a, 0)
    factor = {b - 1: Fraction(1), b: Fraction(-2)}  # index -> coefficient of kappa_index
    for j in range(1, a - b + 1):
        factor[j + b] = -12 * j * c.get(j, j)
    total = {}
    for idx, f in factor.items():
        for mono, v in oracle_exp_cell(Diagonal, a - idx, 0).items():
            if idx == 0:  # kappa_0 is the scalar 2g-2
                m2, vv = mono, v * f * (2 * g - 2)
            else:
                m2, vv = _mono_mul_gen(mono, idx, v * f)
            total[m2] = total.get(m2, Fraction(0)) + vv
    return {m: v for m, v in total.items() if v}


def partition_monomials(n):
    """Every kappa monomial of weighted degree n, one per partition of n,
    as a tuple of (index, exponent) pairs sorted by index."""
    out = []

    def rec(remaining, max_part, parts):
        if remaining == 0:
            out.append(tuple((k, parts.count(k)) for k in sorted(set(parts))))
            return
        for part in range(min(max_part, remaining), 0, -1):
            rec(remaining - part, part, parts + [part])

    rec(n, n, [])
    return out


# ------------------------------------------------------- Faber's socle values
#
# R^{g-2}(M_g) is one-dimensional, so every kappa monomial of weighted
# degree g-2 is a rational multiple of kappa_{g-2}.  The multiples come from
# mathematics outside the paper: Faber's proportionality (arXiv
# math/9711218) at the leaves, and the peel of one kappa class at a time
# (Kaufmann-Manin-Zagier, arXiv alg-geom/9512012) between them.


def _double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _faber_leaf(g, a):
    """<pi_* prod_j psi_j^(a_j+1)> for a_j >= 1 with sum a_j = g-2:
    (2g-3+n)! (2g-1)!! / ((2g-1)! prod_j (2a_j+1)!!)."""
    den = factorial(2 * g - 1)
    for aj in a:
        den *= _double_factorial(2 * aj + 1)
    return Fraction(factorial(2 * g - 3 + len(a)) * _double_factorial(2 * g - 1), den)


@lru_cache(maxsize=None)
def _peel(g, ks, a):
    """<prod_{k in ks} kappa_k * P(a)>, for sorted tuples ks and a, where
    P(a) = pi_* prod_j psi_j^(a_j+1): peels the largest kappa_b off by
    kappa_b P(a) = P(a + (b,)) - sum_j P(a with a_j -> a_j + b)."""
    if not ks:
        return _faber_leaf(g, a)
    b, rest = ks[-1], ks[:-1]
    total = _peel(g, rest, tuple(sorted(a + (b,))))
    for j in range(len(a)):
        total -= _peel(g, rest, tuple(sorted(a[:j] + (a[j] + b,) + a[j + 1:])))
    return total


def socle_value(g, kappas):
    """<prod kappa_k for k in kappas> in units of <kappa_{g-2}>, for a
    multiset of indices k >= 1 of weighted degree g-2."""
    if sum(kappas) != g - 2 or min(kappas, default=1) < 1:
        raise ValueError(f"need indices >= 1 of total g-2 = {g - 2}, got {kappas}")
    return _peel(g, tuple(sorted(kappas)), ())


def ref_staircase(windows):
    """Row limits through the (n, d) windows, by definition: row i holds the
    u-exponents up to J(i) = max{d : (n, d) in windows, n >= i}."""
    return [
        max(d for n, d in windows if n >= i)
        for i in range(max(n for n, _ in windows) + 1)
    ]


# --------------------------------------------------------------- reference ring
#
# Plain {monomial: Fraction} polynomials for differential tests of the
# packed KappaPoly kernel.  A monomial is a tuple of (index, exponent)
# pairs sorted by index, the form the library's .terms view reads back.
# Every operation is the schoolbook one, written out again here.


def ref_clean(p):
    return {m: Fraction(v) for m, v in p.items() if v}


def ref_mono_mul(m1, m2):
    d = dict(m1)
    for idx, e in m2:
        d[idx] = d.get(idx, 0) + e
    return tuple(sorted(d.items()))


def ref_add(p, q):
    out = dict(p)
    for m, v in q.items():
        out[m] = out.get(m, Fraction(0)) + v
    return ref_clean(out)


def ref_scale(p, r):
    return ref_clean({m: v * r for m, v in p.items()})


def ref_mul(p, q):
    out = {}
    for m1, v1 in p.items():
        for m2, v2 in q.items():
            m = ref_mono_mul(m1, m2)
            out[m] = out.get(m, Fraction(0)) + v1 * v2
    return ref_clean(out)


def ref_pow(p, e):
    out = {(): Fraction(1)}
    for _ in range(e):
        out = ref_mul(out, p)
    return out


def ref_substitute(p, mapping):
    """Replace each mapped generator index by its polynomial."""
    out = {}
    for m, v in p.items():
        kept = tuple((idx, e) for idx, e in m if idx not in mapping)
        piece = {kept: v}
        for idx, e in m:
            if idx in mapping:
                piece = ref_mul(piece, ref_pow(mapping[idx], e))
        out = ref_add(out, piece)
    return out


def ref_terms_json(p):
    """Canonical JSON array text of a reference polynomial, through json.dumps:
    its terms in mono_cmp order, each {"monomial": {index: exponent}, "coeff"}.
    """
    return json.dumps(
        [
            {"monomial": {str(idx): e for idx, e in m}, "coeff": str(p[m])}
            for m in sorted(p, key=cmp_to_key(mono_cmp))
        ],
        separators=(",", ":"),
    )


def mono_weight(m):
    return sum((idx if idx >= 1 else 1) * e for idx, e in m)


def weights(poly):
    """The set of weighted degrees of a polynomial's terms: {a} when it is
    homogeneous of degree a, empty for zero."""
    return {mono_weight(m) for m in poly.terms}


def leading_term(poly):
    """(monomial, coefficient) of a nonzero polynomial's first term in
    canonical order."""
    mono = min(poly.terms, key=cmp_to_key(mono_cmp))
    return mono, poly.terms[mono]


def mono_cmp(m1, m2):
    """Canonical order: graded, then lexicographic by exponent vector."""
    w1, w2 = mono_weight(m1), mono_weight(m2)
    if w1 != w2:
        return -1 if w1 < w2 else 1
    d1, d2 = dict(m1), dict(m2)
    for idx in sorted(set(d1) | set(d2)):
        e1, e2 = d1.get(idx, 0), d2.get(idx, 0)
        if e1 != e2:
            return -1 if e1 > e2 else 1
    return 0


# ------------------------------------------------------------ series references
#
# Schoolbook list/dict-of-Fraction products, the unpaired q convolution,
# the original O(n^3) ODE recurrence and the ODE residual term by term,
# for differential tests of the integer products in tautrel.series and
# the paired solve and integer residual in tautrel.coeffs.  Nothing here
# calls tautrel.


def ref_uni_mul(a, b):
    """Product of two coefficient lists of equal length, truncated to it."""
    n = len(a)
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return out


def ref_bi_mul(a, b, orders):
    """Product of two {(i, j): Fraction} maps, truncated to orders; no zeros."""
    n1, n2 = orders
    out = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            if i1 + i2 <= n1 and j1 + j2 <= n2:
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + v1 * v2
    return {k: v for k, v in out.items() if v}


def ref_bernoulli(n):
    """B_0..B_n from sum_{k<=m} C(m+1, k) B_k = 0, so B_1 = -1/2."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def ref_solve_series_ode(n_x, n_w):
    """alpha[k][j] of x*w*F_ww = w*F_w**2 + (1-x)*F_w - 1, as nested lists.

    Every product F_l*F_{d-l}, l = 1..d-1, is formed with weight
    C(d-1,l)*l, and the geometric factor 1/(1-d*x) is a dense product.
    """
    bern = ref_bernoulli(n_x)
    slices = [[Fraction(0)] * 2 + [-bern[a] / (a * (a - 1)) for a in range(2, n_x + 1)]]
    for d in range(1, n_w + 1):
        rhs = [Fraction(1 if d == 1 else 0)] + [Fraction(0)] * n_x
        for l in range(1, d):
            weight = comb(d - 1, l) * l
            prod = ref_uni_mul(slices[l], slices[d - l])
            rhs = [r - weight * p for r, p in zip(rhs, prod)]
        geom = [Fraction(d) ** m for m in range(n_x + 1)]
        slices.append(ref_uni_mul(rhs, geom))
    return [[slices[j][k] / factorial(j) for j in range(n_w + 1)] for k in range(n_x + 1)]


def ref_q_rows(k_max):
    """Rows of the q triangle, summing the self-convolution over every m."""
    rows = [[1]]
    for k in range(1, k_max + 1):
        kk = k - 1
        conv_row = [0] * (kk + 1)
        for m in range(kk + 1):
            for i, x in enumerate(rows[m]):
                for j, y in enumerate(rows[kk - m]):
                    conv_row[i + j] += x * y
        prev = rows[kk]
        row = []
        for j in range(k + 1):
            val = conv_row[j - 1] if j >= 1 else 0
            if j >= 1:
                val += (2 * k + 4 * j - 2) * prev[j - 1]
            if j <= kk:
                val += (j + 1) * prev[j]
            row.append(val)
        rows.append(row)
    return tuple(tuple(r) for r in rows)


def ref_c_rows(q_rows):
    """Rows of the c triangle (row k - 1 holds c[k][0..k]) from the q rows.

    Solves q[k][j] = (2k+4j)*c[k][j] + (j+1)*c[k][j+1] downward from
    c[k][k+1] = 0, one Fraction operation at a time.
    """
    rows = []
    for k in range(1, len(q_rows)):
        row = [Fraction(0)] * (k + 2)
        for j in range(k, -1, -1):
            row[j] = (q_rows[k][j] - (j + 1) * row[j + 1]) / (2 * k + 4 * j)
        rows.append(tuple(row[: k + 1]))
    return tuple(rows)


def _ref_half_power_sum(terms, rows, s, sign, n_x, n_w):
    """Add sign * sum_{1<=k<n_x} sum_{j<=k} x^(k+1) rows[k][j] (-w)^j
    (1+4w)^(-j-k/2-s) to terms, one coefficient at a time."""
    for k in range(1, n_x):
        for j in range(min(k, n_w) + 1):
            for m in range(n_w - j + 1):
                e = -j - Fraction(k, 2) - s
                v = sign * rows[k][j] * (-1) ** j * _binomial_series_coeff(e, m) * 4**m
                terms[(k + 1, j + m)] = terms.get((k + 1, j + m), Fraction(0)) + v


def ref_closed_form(c_rows, n_x, n_w):
    """{(i, j): nonzero coefficient} of the closed form of the ODE solution.

    F(0,w) + (x/4)*ln(1+4w) - sum x^(k+1) c[k][j] (-w)^j (1+4w)^(-j-k/2),
    F(0,w) the antiderivative of (-1+sqrt(1+4w))/(2w); c_rows as
    ``ref_c_rows`` returns them.
    """
    terms = {}
    for j in range(1, n_w + 1):
        # [w^(j-1)] (-1+sqrt(1+4w))/(2w), integrated once
        terms[(0, j)] = _binomial_series_coeff(Fraction(1, 2), j) * 4**j / 2 / j
    if n_x >= 1:
        for m in range(1, n_w + 1):
            terms[(1, m)] = Fraction((-4) ** m, -4 * m)
    rows = [None] + [list(r) for r in c_rows]
    _ref_half_power_sum(terms, rows, 0, -1, n_x, n_w)
    return {k: v for k, v in terms.items() if v}


def ref_w_deriv_closed(q_rows, n_x, n_w):
    """{(i, j): nonzero coefficient} of the closed form of F_w.

    (-1+sqrt(1+4w))/(2w) + x/(1+4w)
        + sum x^(k+1) q[k][j] (-w)^j (1+4w)^(-j-k/2-1)
    """
    terms = {}
    for j in range(n_w + 1):
        terms[(0, j)] = _binomial_series_coeff(Fraction(1, 2), j + 1) * 4 ** (j + 1) / 2
    if n_x >= 1:
        for m in range(n_w + 1):
            terms[(1, m)] = _binomial_series_coeff(Fraction(-1), m) * 4**m
    _ref_half_power_sum(terms, q_rows, 1, 1, n_x, n_w)
    return {k: v for k, v in terms.items() if v}


def ref_ode_residual(f, orders):
    """{(i, j): nonzero coefficient} of x*w*F_ww - w*F_w**2 - (1-x)*F_w + 1.

    F is a {(i, j): Fraction} map through orders (n_x, n_w); the residual
    is taken through (n_x, n_w - 1), each term written out on its own.
    """
    n_x, n_w = orders
    window = (n_x, n_w - 1)
    fw = {(i, j - 1): j * v for (i, j), v in f.items() if j >= 1}
    fww = {(i, j - 1): j * v for (i, j), v in fw.items() if j >= 1}
    out = {}

    def add(i, j, v):
        if i <= n_x and j <= n_w - 1:
            out[(i, j)] = out.get((i, j), Fraction(0)) + v

    for (i, j), v in fww.items():  # x*w*F_ww
        add(i + 1, j + 1, v)
    for (i, j), v in ref_bi_mul(fw, fw, window).items():  # -w*F_w**2
        add(i, j + 1, -v)
    for (i, j), v in fw.items():  # -(1-x)*F_w
        add(i, j, -v)
        add(i + 1, j, v)
    add(0, 0, Fraction(1))
    return {k: v for k, v in out.items() if v}


# ------------------------------------------------------------ test-only helpers
#
# Series helpers that only the tests use.  They take a tautrel BiSeries
# as their argument but import nothing from tautrel.


def bi_exp(s):
    """exp of a BiSeries with zero constant term, by summed powers."""
    if s.coeffs.get((0, 0)):
        raise ValueError("exp requires zero constant term")
    n1, n2 = s.orders
    result = power = {(0, 0): Fraction(1)}
    fact = 1
    for n in range(1, n1 + n2 + 1):
        power = ref_bi_mul(power, s.coeffs, s.orders)
        if not power:
            break
        fact *= n
        result = ref_add(result, {k: v / fact for k, v in power.items()})
    return type(s)(s.vars, s.orders, result)


def _binomial_series_coeff(e, m):
    """Coefficient of v^m in (1 + v)^e, for any rational exponent e."""
    out = Fraction(1)
    for i in range(m):
        out = out * (e - i) / (i + 1)
    return out


def coeff_via_change_of_vars(p, a, d):
    """Extract the (a, d) coefficient of a BiSeries through substituted variables.

    Substitute w = -u/(1+4u) and x = y*(1+4u)^(-1/2) into p(x, w), multiply
    by (1+4u)^((a+2d-2)/2), take the coefficient of y^a u^d, and flip the
    sign by (-1)^d.  The result equals the directly extracted coefficient
    of x^a w^d; computing it this way exercises the substitution route.
    """
    n1, n2 = p.orders
    if a > n1 or d > n2:
        raise ValueError(f"series truncated below ({a}, {d})")
    # Only x-degree a survives extraction at y^a; each monomial x^a w^j maps
    # to y^a (-1)^j u^j (1+4u)^(-a/2 - j); with the prefactor the u-part is
    # (1+4u)^(d - 1 - j).
    total = Fraction(0)
    for j in range(0, d + 1):
        v = p.coeffs.get((a, j))
        if not v:
            continue
        m = d - j
        total += v * (-1) ** j * _binomial_series_coeff(d - 1 - j, m) * 4**m
    return total * (-1) ** d


# ---------------------------------------------------------------------------
# the CLI's argparse parser and its range checks, as the CLI had them


def _ref_build_parser():
    parser = argparse.ArgumentParser(
        prog="tautrel",
        description="Exact kappa-class relation toolkit: tables, checks, extraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="emit a coefficient table")
    p.add_argument("--table", required=True, choices=("q", "c", "alpha", "p", "bernoulli"))
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--cache-dir", default=None)

    p = sub.add_parser("verify", help="run an exact verification suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=("identities", "ode", "genfunc", "crosscheck", "all"),
    )
    p.add_argument("--order", type=int, required=True)

    p = sub.add_parser("relation", help="extract one relation as canonical JSON")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--psi", action="store_true")

    p = sub.add_parser("faber", help="solve for the high kappa classes")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--rewrite", action="store_true")

    p = sub.add_parser("scan", help="nonvanishing scan of the fallback coefficients")
    p.add_argument("--max-a", type=int, required=True)
    return parser


_REF_LEAST_ORDER = {"identities": 1, "ode": 2, "genfunc": 1, "crosscheck": 2, "all": 2}


def _ref_validate(parser, args):
    if args.command == "coeffs":
        if args.max_k < (1 if args.table in ("c", "alpha") else 0):
            parser.error(f"--max-k {args.max_k} out of range for table {args.table}")
    elif args.command == "verify":
        if args.order < _REF_LEAST_ORDER[args.suite]:
            parser.error(f"--order {args.order} out of range for suite {args.suite}")
    elif args.command == "relation":
        if args.g < 2 or args.d < 2 or args.b < 0:
            parser.error("need --g >= 2, --d >= 2, --b >= 0")
        if args.psi and args.b:
            parser.error("--b does not apply to --psi relations")
    elif args.command == "faber":
        if args.g < 2:
            parser.error("need --g >= 2")
    elif args.command == "scan":
        if args.max_a < 1:
            parser.error("--max-a must be >= 1")


def ref_parse_args(argv):
    """The attributes the argparse CLI read from ``argv``; exits as it did."""
    parser = _ref_build_parser()
    args = parser.parse_args(argv)
    _ref_validate(parser, args)
    return vars(args)
