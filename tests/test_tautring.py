from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautrel import (
    CTable,
    KappaPoly,
    QTable,
    build_c_table,
    build_q_table,
    cross_pipeline_cells,
    extract_diagonal_relation,
    extract_psi_relation,
    extract_relation,
    extract_relation_from_ode,
    faber_choose,
    faber_solve,
    kappa_exponential,
    relation_json,
    relation_window,
    solve_series_ode,
)
from tautrel import tautring
from tautrel.tautring import (
    MAX_OPERAND_EXPONENT,
    _staircase,
    ode_exponential,
    ode_genus_exponential,
)

from oracles import oracle_diagonal, oracle_extract, ref_staircase


def poly_of(terms):
    return KappaPoly({m: F(v) for m, v in terms.items()})


# ------------------------------------------------------------- polynomial ring

def test_kappa_poly_algebra():
    k1 = KappaPoly.gen(1)
    k2 = KappaPoly.gen(2)
    p = k1 * k1 + k2.scale(F(-3))
    assert p.coeff(((1, 2),)) == 1
    assert p.gen_coeff(2) == -3
    assert p.homogeneous_degree() == 2
    assert (p - p).is_zero()
    assert (k1 * k2).coeff(((1, 1), (2, 1))) == 1


def test_kappa_poly_inhomogeneous_detection():
    p = KappaPoly.gen(1) + KappaPoly.gen(2)
    with pytest.raises(ValueError):
        p.homogeneous_degree()
    assert KappaPoly().homogeneous_degree() is None


def test_kappa_poly_substitute():
    k1, k2, k3 = KappaPoly.gen(1), KappaPoly.gen(2), KappaPoly.gen(3)
    expr = k3 + k2 * k2
    sub = expr.substitute({2: k1 * k1.scale(F(1, 2)), 3: k1 * k1 * k1})
    assert sub == k1 * k1 * k1 + (k1 * k1 * k1 * k1).scale(F(1, 4))
    # psi (index 0) counts weight 1 per power
    assert KappaPoly.gen(0, exponent=3).homogeneous_degree() == 3


def test_kappa_poly_max_gen():
    assert KappaPoly.scalar(F(5)).max_gen() == -1
    assert (KappaPoly.gen(4) * KappaPoly.gen(2)).max_gen() == 4


# -------------------------------------------------------------- exponential

def test_kappa_exponential_cells(c20):
    e = kappa_exponential(c20, [(2, 2)])
    assert e.coeff(0, 0) == KappaPoly.scalar(F(1))
    assert e.coeff(1, 1) == poly_of({((1, 1),): F(-5, 6)})
    assert e.coeff(2, 2) == poly_of({((1, 2),): F(25, 72), ((2, 1),): F(-5)})


def test_kappa_exponential_undersized_table():
    c = build_c_table(build_q_table(3))
    with pytest.raises(ValueError):
        kappa_exponential(c, [(5, 3)])


def faber_windows(g):
    """The (n, d) cells faber_solve reads at genus g."""
    choices = [faber_choose(g, a) for a in range(g // 3 + 1, g - 1)]
    return [(relation_window(g, ch.d, ch.b), ch.d) for ch in choices]


def assert_staircase_matches_rectangle(c, windows):
    stair = kappa_exponential(c, windows)
    rect = kappa_exponential(c, [(max(n for n, _ in windows), max(d for _, d in windows))])
    for n, d in windows:
        assert stair.covers(n, d), (n, d)
    covered = [(i, j) for i, j in rect.cells if stair.covers(i, j)]
    assert covered and all(stair.coeff(i, j) == rect.coeff(i, j) for i, j in covered)
    assert sorted(stair.cells) == sorted(covered)
    return stair, rect


def test_staircase_cells_equal_the_rectangle(c60):
    for g in range(12, 25):
        stair, rect = assert_staircase_matches_rectangle(c60, faber_windows(g))
        assert len(stair.cells) < len(rect.cells), g
    windows = [(n, d) for _, d, _, n in cross_pipeline_cells(14)]
    stair, rect = assert_staircase_matches_rectangle(c60, windows)
    assert len(stair.cells) < len(rect.cells)


def test_staircase_size_is_pinned(c60):
    # the rectangle over the same windows has 144 cells
    assert len(kappa_exponential(c60, faber_windows(23)).cells) == 114


def test_staircase_row_limits(c20):
    e = kappa_exponential(c20, [(8, 2), (2, 4), (5, 3)])
    assert e.limits == (4, 4, 4, 3, 3, 3, 2, 2, 2)
    assert e.covers(2, 4) and e.covers(5, 3) and e.covers(8, 2)
    assert not e.covers(3, 4) and not e.covers(9, 0) and not e.covers(0, -1)
    for i, j in [(3, 4), (6, 3), (8, 3), (9, 0), (-1, 0)]:
        with pytest.raises(ValueError, match="outside the row limits"):
            e.coeff(i, j)
    with pytest.raises(ValueError):
        kappa_exponential(c20, [])
    with pytest.raises(ValueError):
        kappa_exponential(c20, [(3, -1)])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=8))
def test_staircase_is_the_definition(windows):
    assert _staircase(windows) == ref_staircase(windows)


def test_staircase_refuses_empty_and_negative_windows():
    with pytest.raises(ValueError, match="at least one"):
        _staircase([])
    for windows in ([(3, -1)], [(-1, 2)], [(2, 2), (0, -3)]):
        with pytest.raises(ValueError, match="negative window"):
            _staircase(windows)


def test_both_routes_build_the_same_staircase(c20):
    alpha = solve_series_ode(10, 6)
    for windows in ([(8, 2), (2, 4), (5, 3)], [(6, 2), (2, 4)], [(3, 0)], [(0, 5)]):
        limits = kappa_exponential(c20, windows).limits
        assert limits == ode_exponential(alpha, windows).limits, windows
        assert list(limits) == ref_staircase(windows), windows


# ---------------------------------------------------------- main extraction

def test_relation_golden_values(q20, c20):
    r = extract_relation(5, 2, 0, q20, c20)
    assert r.poly == poly_of({((1, 2),): F(25, 72), ((2, 1),): F(-5)})
    assert (r.degree, r.poly.homogeneous_degree()) == (2, 2)

    r = extract_relation(4, 2, 1, q20, c20)
    assert r.poly == poly_of({((1, 2),): F(15, 4), ((2, 1),): F(-40)})

    r = extract_relation(4, 2, 2, q20, c20)
    assert r.poly == poly_of(
        {((1, 3),): F(25, 72), ((1, 1), (2, 1)): F(-10, 3), ((3, 1),): F(-10)}
    )

    r = extract_relation(4, 2, 0, q20, c20)
    assert r.poly.is_zero()


def test_relation_matches_bruteforce_oracle(q20, c20):
    for (g, d, b) in [(5, 2, 0), (4, 2, 1), (4, 2, 2), (4, 2, 0), (7, 2, 1),
                      (8, 3, 2), (9, 2, 3), (10, 3, 0), (11, 4, 2)]:
        r = extract_relation(g, d, b, q20, c20)
        assert r.poly.terms == oracle_extract(g, d, b, q20, c20), (g, d, b)


def test_relation_homogeneity_grid(q20, c20):
    shared = kappa_exponential(c20, [(12, 7)])
    for g in range(2, 13):
        for d in range(2, (g + 2) // 2 + 1):
            for b in range(0, 4):
                try:
                    relation_window(g, d, b)
                except ValueError:
                    continue
                r = extract_relation(g, d, b, q20, c20, exp_series=shared)
                if not r.poly.is_zero():
                    assert r.poly.homogeneous_degree() == g + 1 + b - 2 * d


def test_relation_window():
    assert relation_window(5, 2) == 2
    assert relation_window(5, 2, 1) == 3
    assert relation_window(5, 2, psi=True) == 3
    assert relation_window(4, 3, 2) == 0
    with pytest.raises(ValueError, match="out of range"):
        relation_window(4, 3)
    for g, d, b in [(1, 2, 0), (4, 1, 0), (4, 2, -1)]:
        with pytest.raises(ValueError, match="need"):
            relation_window(g, d, b)


def test_relation_range_errors(q20, c20):
    with pytest.raises(ValueError):
        extract_relation(1, 2, 0, q20, c20)
    with pytest.raises(ValueError):
        extract_relation(4, 1, 0, q20, c20)
    with pytest.raises(ValueError, match="out of range"):
        extract_relation(4, 4, 0, q20, c20)


def test_relation_shared_exponential_too_small(q20, c20):
    shared = kappa_exponential(c20, [(2, 2)])
    with pytest.raises(ValueError):
        extract_relation(9, 2, 0, q20, c20, exp_series=shared)


def test_relation_shared_staircase_not_covering(q20, c20):
    # (11, 4, 0) reads (x^4, u^4): inside the bounding rectangle (8, 4),
    # above the staircase, whose row 4 stops at u^3
    shared = kappa_exponential(c20, [(8, 2), (2, 4), (5, 3)])
    assert relation_window(11, 4) == 4
    with pytest.raises(ValueError, match="does not cover"):
        extract_relation(11, 4, 0, q20, c20, exp_series=shared)
    covered = extract_relation(9, 2, 1, q20, c20, exp_series=shared)  # (x^7, u^2)
    assert covered == extract_relation(9, 2, 1, q20, c20)


def test_general_b0_is_proportional(q20, c20):
    # the b=0 instance of the general formula (enumerated by the oracle) vs
    # the plain exponential form; the observed ratio is recorded, not
    # asserted against any formula
    observed = []
    for (g, d) in [(5, 2), (7, 3), (8, 2), (11, 3)]:
        simple = extract_relation(g, d, 0, q20, c20)
        general = KappaPoly(oracle_extract(g, d, 0, q20, c20, general=True))
        if simple.poly.is_zero():
            assert general.is_zero()
            continue
        mono, lead = simple.poly.sorted_terms()[0]
        ratio = general.coeff(mono) / lead
        assert ratio != 0
        assert general == simple.poly.scale(ratio), (g, d)
        observed.append(((g, d), ratio))
    assert observed  # at least one nonzero instance compared


# ------------------------------------------------------------- psi relation

def test_psi_relation_values(q20, c20):
    r = extract_psi_relation(4, 2, q20, c20)
    assert r.poly.coeff(((0, 2),)) == -10  # -2*q[1][1]
    assert r.poly.homogeneous_degree() == 4 + 2 - 2 * 2

    assert extract_psi_relation(4, 3, q20, c20).poly.is_zero()

    r = extract_psi_relation(6, 2, q20, c20)
    assert r.poly.coeff(((0, 4),)) == -2 * q20.get(3, 1)


def test_psi_relation_range_error(q20, c20):
    with pytest.raises(ValueError):
        extract_psi_relation(4, 4, q20, c20)


# ------------------------------------------------------- (t, w) pipeline

def test_ode_pipeline_matches_with_sign(q20, c20):
    alpha = solve_series_ode(9, 5)
    for (g, d, b) in [(5, 2, 0), (4, 2, 1), (4, 2, 0), (6, 2, 1), (7, 3, 2),
                      (9, 2, 0), (8, 3, 1), (9, 4, 2)]:
        r1 = extract_relation(g, d, b, q20, c20)
        r2 = extract_relation_from_ode(g, d, b, alpha)
        assert r2.poly == r1.poly.scale(F((-1) ** d)), (g, d, b)


def test_ode_pipeline_undersized_alpha():
    alpha = solve_series_ode(3, 3)
    with pytest.raises(ValueError):
        extract_relation_from_ode(9, 2, 0, alpha)


def test_shared_ode_series_equals_per_cell_extraction():
    # one base exponential for the whole grid, its genus factor once per genus
    cells = cross_pipeline_cells(14)
    alpha = solve_series_ode(max(n for *_, n in cells) + 1, max(d for _, d, _, _ in cells))
    base = ode_exponential(alpha, [(n, d) for _, d, _, n in cells])
    for g in sorted({g for g, *_ in cells}):
        mine = [(d, b, n) for g2, d, b, n in cells if g2 == g]
        series = ode_genus_exponential(base, alpha, g, [(n, d) for d, _, n in mine])
        assert series.genus == g
        for d, b, _ in mine:
            shared = extract_relation_from_ode(g, d, b, alpha, ode_series=series)
            assert shared == extract_relation_from_ode(g, d, b, alpha), (g, d, b)


def test_shared_ode_series_refusals():
    alpha = solve_series_ode(9, 5)
    windows = [(6, 2), (2, 4)]
    base = ode_exponential(alpha, windows)
    assert base.limits == (4, 4, 4, 2, 2, 2, 2) and base.genus is None
    series = ode_genus_exponential(base, alpha, 8, windows)
    # (8, 2, 1) reads (t^6, w^2), on the staircase
    assert relation_window(8, 2, 1) == 6
    assert extract_relation_from_ode(8, 2, 1, alpha, ode_series=series) == (
        extract_relation_from_ode(8, 2, 1, alpha)
    )
    # (8, 3, 1) reads (t^4, w^3): inside the bounding rectangle, above row 4's w^2
    assert relation_window(8, 3, 1) == 4
    with pytest.raises(ValueError, match="does not cover"):
        extract_relation_from_ode(8, 3, 1, alpha, ode_series=series)
    # (7, 2, 2) reads (t^5, w^2), covered, but the series holds genus 8's factor
    with pytest.raises(ValueError, match="genus"):
        extract_relation_from_ode(7, 2, 2, alpha, ode_series=series)
    with pytest.raises(ValueError, match="genus"):
        extract_relation_from_ode(8, 2, 1, alpha, ode_series=base)
    # the factor goes on once, and only on cells the base holds
    with pytest.raises(ValueError, match="already carries"):
        ode_genus_exponential(series, alpha, 8, windows)
    with pytest.raises(ValueError, match="does not cover"):
        ode_genus_exponential(base, alpha, 8, [(7, 2)])
    with pytest.raises(ValueError):
        ode_exponential(alpha, [])


# ------------------------------------------------------- diagonal relations

def test_diagonal_relation_values(c20):
    r = extract_diagonal_relation(5, 0, 2, c20)
    assert r.poly == poly_of({((1, 2),): F(25, 72), ((2, 1),): F(-5)})
    r = extract_diagonal_relation(2, 0, 1, c20)
    assert r.poly == poly_of({((1, 1),): F(-5, 6)})
    # g=3 admits a=2 through the g/3+1 branch
    assert not extract_diagonal_relation(3, 0, 2, c20).poly.is_zero()


def test_diagonal_relation_matches_the_oracle(c20):
    nonzero = 0
    for g, b, a in [(5, 0, 2), (9, 0, 4), (11, 0, 4), (5, 1, 3), (7, 1, 3),
                    (7, 2, 4), (8, 2, 5), (10, 3, 6)]:
        want = oracle_diagonal(g, b, a, c20)
        assert extract_diagonal_relation(g, b, a, c20).poly.terms == want, (g, b, a)
        nonzero += b > 0 and bool(want)
    assert nonzero >= 3


def test_diagonal_relation_admissibility(c20):
    with pytest.raises(ValueError, match="inadmissible"):
        extract_diagonal_relation(4, 0, 2, c20)
    with pytest.raises(ValueError, match="inadmissible"):
        extract_diagonal_relation(5, 1, 2, c20)


def test_diagonal_relation_b_positive_homogeneous(c20):
    # a = (g-1)/3 + b and a = (g+1)/3 + b branches
    for (g, b, a) in [(7, 1, 3), (5, 1, 3), (7, 2, 4), (10, 3, 6), (8, 2, 5)]:
        r = extract_diagonal_relation(g, b, a, c20)
        if not r.poly.is_zero():
            assert r.poly.homogeneous_degree() == a, (g, b, a)


def test_diagonal_matches_main_pipeline_when_aligned(q20, c20):
    # 3d = g+1 makes the diagonal b=0 relation a scalar multiple of the
    # main extraction at (g, d, 0)
    for g in (5, 8, 11):
        d = (g + 1) // 3
        main = extract_relation(g, d, 0, q20, c20)
        diag = extract_diagonal_relation(g, 0, d, c20)
        assert not main.poly.is_zero()
        mono, lead = main.poly.sorted_terms()[0]
        ratio = diag.poly.coeff(mono) / lead
        assert ratio != 0 and diag.poly == main.poly.scale(ratio), g


# -------------------------------------------------- structure and coefficients

def test_leading_coefficient_laws_small(q20, c20):
    for (g, d, b) in [(5, 2, 0), (4, 2, 1), (4, 2, 2), (8, 3, 2), (9, 2, 3)]:
        r = extract_relation(g, d, b, q20, c20)
        a = g + 1 + b - 2 * d
        if b == 0:
            want = -c20.get(a, d)
        elif b == 1:
            want = -((2 * g - 2) * c20.get(a, d) + 2 * q20.get(a - 1, d - 1))
        else:
            want = F(-2 * q20.get(a - b, d - 1))
        assert r.poly.gen_coeff(a) == want, (g, d, b)


def test_no_low_monomials_for_large_b(q20, c20):
    # b >= 3 relations contain no monomial using only kappa_1..kappa_{b-2}
    shared = kappa_exponential(c20, [(12, 7)])
    found = 0
    for g in range(6, 13):
        for d in range(2, (g + 2) // 2 + 1):
            for b in range(3, 6):
                try:
                    relation_window(g, d, b)
                except ValueError:
                    continue
                r = extract_relation(g, d, b, q20, c20, exp_series=shared)
                if r.poly.is_zero():
                    continue
                found += 1
                for mono, _ in r.poly.terms.items():
                    assert any(idx > b - 2 for idx, _e in mono), (g, d, b, mono)
    assert found > 5


# ------------------------------------------------ kernel operand exponents

def _kappa_1_only_tables(n):
    """q zero and c zero past its real a = 1 row (c[1][0] = 1/12, c[1][1] = 5/6).

    Each exponential cell (i, j) is then one multiple of kappa_1^i, so the
    extraction of a window n near 128 runs at once.
    """
    q = QTable(n, tuple((0,) * (k + 1) for k in range(n + 1)))
    rows = ((F(1, 12), F(5, 6)),) + tuple((F(0),) * (k + 1) for k in range(2, n + 1))
    return q, CTable(n, rows)


@pytest.mark.parametrize(
    "b, psi, last",
    [
        (0, False, MAX_OPERAND_EXPONENT + 1),  # operands reach kappa_1^(n-1)
        (1, False, MAX_OPERAND_EXPONENT),  # the cell kappa_1^n times the second factor
        (3, False, MAX_OPERAND_EXPONENT),
        (0, True, MAX_OPERAND_EXPONENT),
    ],
)
def test_largest_window_the_kernel_multiplies(monkeypatch, b, psi, last):
    # relation_window refuses a window n past `last`; with its bound lifted
    # by one, the kernel itself shows that `last` runs and `last + 1` overflows
    q, c = _kappa_1_only_tables(last + 1)
    d = 2
    for n in (last, last + 1):
        g = n + 2 * d - (1 if b == 0 and not psi else 2)

        def run():
            return extract_psi_relation(g, d, q, c) if psi else extract_relation(g, d, b, q, c)

        if n == last:
            assert relation_window(g, d, b, psi) == n
            assert not run().poly.is_zero()
        else:
            with pytest.raises(ValueError, match="in a product operand outside"):
                relation_window(g, d, b, psi)
            monkeypatch.setattr(tautring, "MAX_OPERAND_EXPONENT", MAX_OPERAND_EXPONENT + 1)
            assert relation_window(g, d, b, psi) == n
            with pytest.raises(OverflowError):
                run()


@pytest.mark.parametrize(
    "call",
    [
        lambda q, c: extract_relation(10, 2, 0, q, c),  # kappa_1^6 in the recurrence
        lambda q, c: extract_psi_relation(8, 2, q, c),  # psi^6 times the second factor
        lambda q, c: faber_solve(8, q, c),  # the solved kappa_6 holds kappa_1^6
    ],
    ids=["relation", "psi", "faber"],
)
def test_library_calls_refuse_past_the_operand_exponent(q20, c20, monkeypatch, call):
    def no_product(*args, **kwargs):
        raise AssertionError("a kernel product ran before the refusal")

    monkeypatch.setattr(tautring, "MAX_OPERAND_EXPONENT", 5)
    monkeypatch.setattr(tautring, "_sum_of_products", no_product)
    with pytest.raises(ValueError, match=r"exponent 6 in a product operand outside 0\.\.5"):
        call(q20, c20)


def test_library_calls_refuse_past_the_generator_index(monkeypatch):
    monkeypatch.setattr(tautring, "MAX_INDEX", 5)
    assert relation_window(8, 2) == 5 and faber_choose(7, 5).a == 5
    with pytest.raises(ValueError, match=r"generator index 6 outside 0\.\.5"):
        relation_window(9, 2)  # degree 6
    with pytest.raises(ValueError, match=r"generator index 6 outside 0\.\.5"):
        relation_window(6, 2, 3)  # degree 6 at window n = 4
    with pytest.raises(ValueError, match=r"generator index 6 outside 0\.\.5"):
        faber_choose(8, 6)


# -------------------------------------------------------------- serialization

def test_relation_json_golden(q20, c20):
    r = extract_relation(5, 2, 0, q20, c20)
    assert relation_json(r) == (
        '{"g":5,"d":2,"b":0,"degree":2,"terms":'
        '[{"monomial":{"1":2},"coeff":"25/72"},{"monomial":{"2":1},"coeff":"-5"}]}'
    )
    r = extract_relation(4, 2, 0, q20, c20)
    assert relation_json(r) == '{"g":4,"d":2,"b":0,"degree":1,"terms":[]}'
    p = extract_psi_relation(4, 2, q20, c20)
    s = relation_json(p)
    assert '"psi":true' in s and '{"monomial":{"0":2},"coeff":"-10"}' in s


def test_relation_json_is_byte_stable(q20, c20):
    a = relation_json(extract_relation(9, 2, 3, q20, c20))
    b = relation_json(extract_relation(9, 2, 3, q20, c20))
    assert a == b
