import re
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
    extract_relations,
    extract_relations_from_ode,
    faber_choose,
    faber_solve,
    kappa_exponential,
    relation_json,
    relation_window,
    solve_series_ode,
)
from tautrel import tautring
from tautrel.tautring import MAX_OPERAND_EXPONENT, _staircase

from oracles import (
    leading_term,
    oracle_diagonal,
    oracle_extract,
    oracle_psi_extract,
    ref_staircase,
    weights,
)


def poly_of(terms):
    return KappaPoly({m: F(v) for m, v in terms.items()})


# ------------------------------------------------------------- polynomial ring

def test_kappa_poly_algebra():
    k1 = KappaPoly.gen(1)
    k2 = KappaPoly.gen(2)
    p = k1 * k1 + k2.scale(F(-3))
    assert p.coeff(((1, 2),)) == 1
    assert p.gen_coeff(2) == -3
    assert weights(p) == {2}
    assert (p - p).is_zero()
    assert (k1 * k2).coeff(((1, 1), (2, 1))) == 1


def test_kappa_poly_substitute():
    k1, k2, k3 = KappaPoly.gen(1), KappaPoly.gen(2), KappaPoly.gen(3)
    expr = k3 + k2 * k2
    sub = expr.substitute({2: k1 * k1.scale(F(1, 2)), 3: k1 * k1 * k1})
    assert sub == k1 * k1 * k1 + (k1 * k1 * k1 * k1).scale(F(1, 4))
    # psi (index 0) counts weight 1 per power
    assert weights(KappaPoly.gen(0, exponent=3)) == {3}


def test_kappa_poly_max_gen():
    assert KappaPoly.scalar(F(5)).max_gen() == -1
    assert (KappaPoly.gen(4) * KappaPoly.gen(2)).max_gen() == 4


# -------------------------------------------------------------- exponential

def test_kappa_exponential_cells(c20):
    e = kappa_exponential(c20, [(2, 2)])
    assert e.limits == (2, 2, 2)
    assert e.cells[(0, 0)] == KappaPoly.scalar(F(1))
    assert e.cells[(1, 1)] == poly_of({((1, 1),): F(-5, 6)})
    assert e.cells[(2, 2)] == poly_of({((1, 2),): F(25, 72), ((2, 1),): F(-5)})
    # zero cells are not stored: u^j past x^i holds no term
    assert (0, 1) not in e.cells and (1, 2) not in e.cells


def test_kappa_exponential_undersized_table():
    c = build_c_table(build_q_table(3))
    with pytest.raises(ValueError):
        kappa_exponential(c, [(5, 3)])


def faber_windows(g):
    """The (n, d) cells faber_solve reads at genus g."""
    choices = [faber_choose(g, a) for a in range(g // 3 + 1, g - 1)]
    return [(relation_window(g, ch.d, ch.b), ch.d) for ch in choices]


def covers(series, i, j):
    return 0 <= i < len(series.limits) and 0 <= j <= series.limits[i]


def assert_staircase_matches_rectangle(c, windows):
    stair = kappa_exponential(c, windows)
    rect = kappa_exponential(c, [(max(n for n, _ in windows), max(d for _, d in windows))])
    for n, d in windows:
        assert covers(stair, n, d), (n, d)
    covered = {(i, j): p for (i, j), p in rect.cells.items() if covers(stair, i, j)}
    assert covered and stair.cells == covered
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
    # (2, 4) is empty: no term has a u power past its x power
    assert {(5, 3), (8, 2)} <= e.cells.keys() and (2, 4) not in e.cells
    # (4, 4) is nonzero in the rectangle but above the staircase
    assert all(covers(e, i, j) for i, j in e.cells) and (4, 4) not in e.cells
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
    for windows in ([(8, 2), (2, 4), (5, 3)], [(6, 2), (2, 4)], [(3, 0)], [(0, 5)]):
        limits = kappa_exponential(c20, windows).limits
        assert list(limits) == ref_staircase(windows), windows
    # the ODE batch builds its exponential on the same staircase: with windows
    # (6, 2) and (2, 4), rows 0..6 and w^4 at most, it takes alpha of exactly
    # (7, 4) and refuses one row or one column less
    cells = [(9, 2, 0), (8, 4, 1)]
    assert [(relation_window(g, d, b), d) for g, d, b in cells] == [(6, 2), (2, 4)]
    assert kappa_exponential(c20, [(6, 2), (2, 4)]).limits == (4, 4, 4, 2, 2, 2, 2)
    exact = extract_relations_from_ode(cells, solve_series_ode(7, 4))
    assert exact == extract_relations_from_ode(cells, solve_series_ode(8, 5))
    assert not exact[0].poly.is_zero()
    for orders in ((6, 4), (7, 3)):
        with pytest.raises(ValueError, match=re.escape(f"sized {orders}, need (7, 4)")):
            extract_relations_from_ode(cells, solve_series_ode(*orders))


# ---------------------------------------------------------- main extraction

def test_relation_golden_values(q20, c20):
    r = extract_relation(5, 2, 0, q20, c20)
    assert r.poly == poly_of({((1, 2),): F(25, 72), ((2, 1),): F(-5)})
    assert r.degree == 2 and weights(r.poly) == {2}

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


def relation_cells(g_max, b_max, g_min=2, b_min=0):
    """Every (g, d, b) in the ranges that has a relation window."""
    cells = []
    for g in range(g_min, g_max + 1):
        for d in range(2, (g + 2) // 2 + 1):
            for b in range(b_min, b_max + 1):
                try:
                    relation_window(g, d, b)
                except ValueError:
                    continue
                cells.append((g, d, b))
    return cells


def test_relation_homogeneity_grid(q20, c20):
    for r in extract_relations(relation_cells(12, 3), q20, c20):
        if not r.poly.is_zero():
            assert weights(r.poly) == {r.degree} == {r.g + 1 + r.b - 2 * r.d}


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
        mono, lead = leading_term(simple.poly)
        ratio = general.coeff(mono) / lead
        assert ratio != 0
        assert general == simple.poly.scale(ratio), (g, d)
        observed.append(((g, d), ratio))
    assert observed  # at least one nonzero instance compared


# ------------------------------------------------------------- psi relation

def test_psi_relation_values(q20, c20):
    r = extract_psi_relation(4, 2, q20, c20)
    assert r.poly.coeff(((0, 2),)) == -10  # -2*q[1][1]
    assert weights(r.poly) == {4 + 2 - 2 * 2}

    assert extract_psi_relation(4, 3, q20, c20).poly.is_zero()

    r = extract_psi_relation(6, 2, q20, c20)
    assert r.poly.coeff(((0, 4),)) == -2 * q20.get(3, 1)


def test_psi_relation_matches_bruteforce_oracle(q20, c20):
    cells = 0
    for g in range(2, 13):
        for d in range(2, (g + 2) // 2 + 1):
            r = extract_psi_relation(g, d, q20, c20)
            assert r.poly.terms == oracle_psi_extract(g, d, q20, c20), (g, d)
            cells += 1
    assert cells == 36


def test_one_window_read_equals_the_shared_read(q20, c20):
    # alone a relation is read from E0 (G F2); in a batch, from the cells
    # sum_k E0_k G(i-k, j) of one exponential on the staircase of all windows
    cells = relation_cells(16, 4)
    batch = extract_relations(cells, q20, c20)
    assert batch == [extract_relation(*cell, q20, c20) for cell in cells]
    assert sum(not r.poly.is_zero() for r in batch) > 150
    assert extract_relations([], q20, c20) == []


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
    # one base exponential for the whole grid, its genus factor once per
    # genus; cells of several genera interleave or run backwards, and come
    # back in order
    grid = cross_pipeline_cells(14)
    cells = [(g, d, b) for g, d, b, _ in grid]
    alpha = solve_series_ode(max(n for *_, n in grid) + 1, max(d for _, d, _, _ in grid))
    single = {cell: extract_relation_from_ode(*cell, alpha) for cell in cells}
    for order in (cells[::2] + cells[1::2], cells[::-1]):
        assert extract_relations_from_ode(order, alpha) == [single[cell] for cell in order]
    assert extract_relations_from_ode([], alpha) == []


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
            assert weights(r.poly) == {a}, (g, b, a)


def test_diagonal_matches_main_pipeline_when_aligned(q20, c20):
    # 3d = g+1 makes the diagonal b=0 relation a scalar multiple of the
    # main extraction at (g, d, 0)
    for g in (5, 8, 11):
        d = (g + 1) // 3
        main = extract_relation(g, d, 0, q20, c20)
        diag = extract_diagonal_relation(g, 0, d, c20)
        assert not main.poly.is_zero()
        mono, lead = leading_term(main.poly)
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
    found = 0
    for r in extract_relations(relation_cells(12, 5, g_min=6, b_min=3), q20, c20):
        if r.poly.is_zero():
            continue
        found += 1
        for mono in r.poly.terms:
            assert any(idx > r.b - 2 for idx, _e in mono), (r.g, r.d, r.b, mono)
    assert found > 5


# ------------------------------------------------ kernel operand exponents

def _kappa_1_only_tables(n):
    """c zero past its real a = 1 row (c[1][0] = 1/12, c[1][1] = 5/6), and
    q one at j = 1 and zero elsewhere.

    Each exponential cell (i, j) is then one multiple of kappa_1^i, and
    each second factor has one entry per row, so the extraction of a
    window n near 128 runs at once.  The psi second factor then holds
    psi^n, at (x^n, u^2).
    """
    q = QTable(n, tuple(tuple(int(j == 1) for j in range(k + 1)) for k in range(n + 1)))
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
    # by one, the kernel itself shows that `last` runs and `last + 1`
    # overflows.  The read that meets the bound: for b = 0 the E0
    # recurrence, in either read; for psi the psi^n entry of the second
    # factor; for b >= 1 the batch read, which multiplies the cell
    # (x^n, u^d), holding kappa_1^n, by the second factor (the one-window
    # read multiplies only E0 rows below n).
    _assert_largest_window(monkeypatch, b, psi, last, lambda n: 2)


def test_largest_diagonal_window_the_kernel_multiplies(monkeypatch):
    # b = 0 with d = n (3d = g + 1): G(i, j) = 0 for j > i, and the cell
    # G(n, n), a multiple of kappa_1^n, is multiplied by E0_0 in either
    # read, so the bound is one lower than for d < n: (g=380, d=127) runs,
    # and (g=383, d=128) is refused rather than overflowing.
    _assert_largest_window(monkeypatch, 0, False, MAX_OPERAND_EXPONENT, lambda n: n)


def _assert_largest_window(monkeypatch, b, psi, last, d_of):
    q, c = _kappa_1_only_tables(last + 1)
    for n in (last, last + 1):
        d = d_of(n)
        g = n + 2 * d - (1 if b == 0 and not psi else 2)
        if psi:
            reads = [lambda: extract_psi_relation(g, d, q, c)]
        else:
            reads = [
                lambda: extract_relations([(g, d, b)], q, c)[0],
                lambda: extract_relation(g, d, b, q, c),
            ]
        if n == last:
            assert relation_window(g, d, b, psi) == n
            first, *others = [read() for read in reads]
            assert not first.poly.is_zero()
            assert others == [first] * len(others)
        else:
            with pytest.raises(ValueError, match="in a product operand outside"):
                relation_window(g, d, b, psi)
            monkeypatch.setattr(tautring, "MAX_OPERAND_EXPONENT", MAX_OPERAND_EXPONENT + 1)
            assert relation_window(g, d, b, psi) == n
            with pytest.raises(OverflowError):
                reads[0]()


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
