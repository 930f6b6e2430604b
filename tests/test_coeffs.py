import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from tautrel import (
    BiSeries,
    CTable,
    QTable,
    bernoulli_table,
    build_c_table,
    build_q_table,
    diag_ode_residual,
    expand_closed_form,
    expand_w_deriv_closed,
    genfunc_check,
    ode_check_failures,
    ode_residual,
    p_series,
    q_functional_equation_residual,
    remark_identity_failures,
    solve_series_ode,
    verify_coeff_identities,
)
from tautrel import coeffs

from oracles import (
    ref_c_rows,
    ref_closed_form,
    ref_ode_residual,
    ref_q_rows,
    ref_solve_series_ode,
    ref_w_deriv_closed,
)

GOLDEN = Path(__file__).parent / "golden"


# ------------------------------------------------------------------ q table

def test_q_table_hand_values():
    q = build_q_table(3)
    assert q.get(0, 0) == 1
    assert q.get(1, 0) == 1 and q.get(1, 1) == 5
    assert (q.get(2, 0), q.get(2, 1), q.get(2, 2)) == (1, 18, 60)
    assert (q.get(3, 0), q.get(3, 1), q.get(3, 2), q.get(3, 3)) == (1, 47, 442, 1105)


def test_q_table_matches_unpaired_convolution(q60):
    # row k sums its self-convolution at kk = k - 1: odd and even kk alike
    assert q60.rows == ref_q_rows(60)


def test_q_table_outside_triangle_and_sizing():
    q = build_q_table(2)
    assert q.get(1, 2) == 0
    assert q.get(-1, 0) == 0
    assert q.get(2, -1) == 0
    with pytest.raises(ValueError):
        q.get(3, 0)
    with pytest.raises(ValueError):
        build_q_table(-1)


def test_q_table_positivity_and_subdiagonal_ratio(q60):
    for k in range(61):
        for j in range(k + 1):
            assert q60.get(k, j) > 0
    for k in range(1, 61):
        assert 10 * q60.get(k, k - 1) == (k + 1) * q60.get(k, k)


# ------------------------------------------------------------------ c table

def test_c_table_hand_values():
    c = build_c_table(build_q_table(3))
    assert c.get(1, 1) == F(5, 6) and c.get(1, 0) == F(1, 12)
    assert (c.get(2, 0), c.get(2, 1), c.get(2, 2)) == (0, 1, 5)
    assert c.get(3, 3) == F(1105, 18)
    assert c.get(3, 2) == F(221, 12)
    assert c.get(3, 1) == F(61, 60)
    assert c.get(3, 0) == F(-1, 360)


def test_c_table_vanishes_above_diagonal():
    c = build_c_table(build_q_table(4))
    assert c.get(1, 2) == 0 and c.get(3, 7) == 0
    with pytest.raises(ValueError):
        c.get(0, 0)
    with pytest.raises(ValueError):
        c.get(5, 0)


def test_c_table_matches_fraction_descent(q60, c60):
    assert c60.rows == ref_c_rows(q60.rows)


def test_c_column_zero_is_bernoulli(q20, c20):
    bern = bernoulli_table(21)
    for k in range(1, 21):
        assert c20.get(k, 0) == bern[k + 1] / (k * (k + 1))


# ---------------------------------------------------------------- alpha table

def test_alpha_initial_slice_and_known_columns():
    a = solve_series_ode(8, 6)
    bern = bernoulli_table(8)
    assert a.coeff(0, 0) == 0 and a.coeff(1, 0) == 0
    for k in range(2, 9):
        assert a.coeff(k, 0) == -bern[k] / (k * (k - 1))
    assert a.coeff(2, 0) == F(-1, 12)
    # x^0 column: signed Catalan over j, alpha[0][j+1] = (-1)^j C_j/(j+1)
    assert [a.coeff(0, j) for j in range(1, 5)] == [F(1), F(-1, 2), F(2, 3), F(-5, 4)]
    # x^1 column: (1/4)(-1)^(j-1) 4^j / j
    assert a.coeff(1, 1) == 1 and a.coeff(1, 2) == -2 and a.coeff(1, 3) == F(16, 3)
    # w^1 column is constant 1
    assert all(a.coeff(k, 1) == 1 for k in range(9))


@pytest.mark.parametrize("orders", [(1, 1), (1, 4), (4, 1), (15, 8), (8, 15), (24, 24)])
def test_alpha_matches_unpaired_recurrence(orders):
    a = solve_series_ode(*orders)
    n_x, n_w = orders
    rows = [[a.coeff(k, j) for j in range(n_w + 1)] for k in range(n_x + 1)]
    assert rows == ref_solve_series_ode(*orders)


def test_alpha_defining_equation_residual():
    a = solve_series_ode(8, 8)
    assert ode_residual(a).is_zero()


SOLVED_ORDERS = [(2, 2), (3, 2), (1, 3), (8, 8), (15, 8), (8, 15), (24, 24), (40, 40)]


@pytest.mark.parametrize("orders", SOLVED_ORDERS)
def test_ode_residual_matches_reference_on_solutions(orders):
    a = solve_series_ode(*orders)
    assert ode_residual(a).coeffs == ref_ode_residual(a.coeffs, orders) == {}


@pytest.mark.parametrize("orders", SOLVED_ORDERS[:-1])
def test_ode_residual_matches_reference_on_one_wrong_entry(orders):
    a = solve_series_ode(*orders)
    rng = random.Random(100 * orders[0] + orders[1])
    for _ in range(3):
        key = (rng.randint(0, orders[0]), rng.randint(0, orders[1]))
        wrong = {**a.coeffs, key: a.coeff(*key) + F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 7))}
        residual = ode_residual(BiSeries(a.vars, a.orders, wrong)).coeffs
        assert residual == ref_ode_residual(wrong, orders), key
        # F(x, 0) enters only through w-derivatives
        assert (residual == {}) == (key[1] == 0), key


def test_alpha_requires_positive_orders():
    with pytest.raises(ValueError):
        solve_series_ode(0, 4)


# ------------------------------------------------------------- closed forms

def test_w_deriv_closed_spot_values(q20):
    s = expand_w_deriv_closed(q20, 6, 6)
    assert s.coeff(0, 0) == 1
    assert s.coeff(1, 0) == 1


def test_closed_form_spot_values(c20):
    s = expand_closed_form(c20, 6, 6)
    assert s.coeff(2, 0) == F(-1, 12)
    assert s.coeff(1, 1) == 1


def test_closed_forms_match_ode_solution(q20, c20):
    a = solve_series_ode(10, 9)
    assert expand_closed_form(c20, 10, 9) == a
    a_w = {(i, j - 1): j * v for (i, j), v in a.coeffs.items() if j}
    assert expand_w_deriv_closed(q20, 10, 8).coeffs == a_w


@pytest.mark.parametrize("orders", [(12, 12), (12, 5), (5, 12), (2, 1), (1, 3)])
def test_closed_forms_match_binomial_oracle(q20, c20, orders):
    assert expand_closed_form(c20, *orders).coeffs == ref_closed_form(c20.rows, *orders)
    assert expand_w_deriv_closed(q20, *orders).coeffs == ref_w_deriv_closed(q20.rows, *orders)


def test_closed_forms_demand_big_enough_tables():
    q = build_q_table(3)
    c = build_c_table(q)
    with pytest.raises(ValueError):
        expand_w_deriv_closed(q, 5, 5)
    with pytest.raises(ValueError):
        expand_closed_form(c, 5, 5)


def test_w_deriv_closed_golden_dump():
    q = build_q_table(8)
    expected = (GOLDEN / "w_deriv_closed_4_4.txt").read_text().rstrip("\n")
    assert expand_w_deriv_closed(q, 4, 4).dump() == expected


# ----------------------------------------------------------------- p series

def test_p_series_values():
    p = p_series(3)
    assert p.coeff(0) == 1
    assert p.coeff(1) == F(5, 6)
    assert p.coeff(2) == F(385, 72)
    assert p.coeff(3) == F(85085, 1296)


def test_p_series_recurrence():
    p = p_series(20)
    for k in range(20):
        assert 6 * (k + 1) * p.coeff(k + 1) == (6 * k + 1) * (6 * k + 5) * p.coeff(k)


# ----------------------------------------------------------- residual checks

def test_q_functional_equation(q20):
    assert q_functional_equation_residual(q20, 8, 8).is_zero()


def _bumped(q, k, j):
    rows = [list(r) for r in q.rows]
    rows[k][j] += 1
    return QTable(q.k_max, tuple(tuple(r) for r in rows))


@pytest.mark.parametrize("k, j", [(5, 2), (12, 0), (12, 12)])
def test_q_functional_equation_sees_one_wrong_entry(q20, k, j):
    assert not q_functional_equation_residual(_bumped(q20, k, j), 12, 12).is_zero()


def test_diag_ode(q20):
    assert diag_ode_residual(q20, 20).is_zero()


@pytest.mark.parametrize("k", [12, 13])
def test_diag_ode_sees_one_wrong_diagonal_entry(q20, k):
    assert not diag_ode_residual(_bumped(q20, k, k), 20).is_zero()


def test_diagonal_checks_refuse_order_zero():
    q = build_q_table(1)
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        diag_ode_residual(q, 0)
    with pytest.raises(ValueError, match="k_max must be >= 1"):
        genfunc_check(q, build_c_table(q), 0)


def test_remark_identity(q20):
    assert remark_identity_failures(q20, bernoulli_table(21), 20) == []


# ------------------------------------------------------------ identity suite

def test_verify_identities_small():
    q = build_q_table(2)
    summary, failures = verify_coeff_identities(q, build_c_table(q), 2)
    assert failures == []
    assert summary == "19 exact checks to k=2"


def test_verify_identities_medium(q20, c20):
    summary, failures = verify_coeff_identities(q20, c20, 12)
    assert failures == [], failures[:3]
    assert summary == "154 exact checks to k=12"


def test_verify_identities_see_a_wrong_row_above_twelve():
    # row 20 changes only at u-degrees 1 and 2, and keeps its Bernoulli-sum
    # identity; the functional equation through u^12 still reaches row 20
    q = build_q_table(24)
    rows = [list(r) for r in q.rows]
    rows[20][1] += 1
    rows[20][2] += 24
    wrong = QTable(q.k_max, tuple(tuple(r) for r in rows))
    assert remark_identity_failures(wrong, bernoulli_table(25), 24) == []
    summary, failures = verify_coeff_identities(wrong, build_c_table(wrong), 24)
    assert summary == "448 exact checks to k=24"
    assert failures == ["bivariate_functional_equation: nonzero residual through (24, 12)"]


def _with_entry(q, k, j, value):
    rows = [list(r) for r in q.rows]
    rows[k][j] = value
    return q._replace(rows=tuple(tuple(r) for r in rows))


def test_verify_identities_see_a_nonpositive_q_entry():
    q = build_q_table(6)
    wrong = _with_entry(q, 4, 2, 0)
    failures = verify_coeff_identities(wrong, build_c_table(q), 6)[1]
    assert "q_positive at k=4, j=2: got 0" in failures


def test_verify_identities_see_a_wrong_bernoulli_sum():
    # q[5][3] sits off the diagonal and the subdiagonal, and c is built
    # from the right table: the Bernoulli-sum identity at k=5 sees it
    q = build_q_table(6)
    wrong = _with_entry(q, 5, 3, q.get(5, 3) + 1)
    failures = verify_coeff_identities(wrong, build_c_table(q), 6)[1]
    remark = [f for f in failures if f.startswith("bernoulli_remark")]
    assert len(remark) == 1 and remark[0].startswith("bernoulli_remark at k=5: expected 1/1260, got ")


def test_verify_identities_see_a_wrong_diagonal_q_entry():
    # exp of the c diagonal is still P(z); the Riccati equation of D(z) is not met
    q = build_q_table(6)
    wrong = _with_entry(q, 4, 4, q.get(4, 4) + 1)
    failures = verify_coeff_identities(wrong, build_c_table(q), 6)[1]
    assert "diag_functional_equation: nonzero residual through z^6" in failures
    assert not any(f.startswith("diag_exponential") for f in failures)


def test_verify_identities_rejects_bad_order(q20, c20):
    with pytest.raises(ValueError):
        verify_coeff_identities(q20, c20, 0)


def test_ode_check_failures_catch_wrong_tables():
    q = build_q_table(7)
    c = build_c_table(q)
    assert ode_check_failures(q, c, 8) == ("alpha vs closed-form: match through (8,8)", [])
    rows = [list(r) for r in c.rows]
    rows[2][1] += 1  # c[3][1]
    wrong_c = CTable(c.k_max, tuple(tuple(r) for r in rows))
    assert ode_check_failures(q, wrong_c, 8)[1] == ["closed form differs from the solved series"]
    rows = [list(r) for r in q.rows]
    rows[3][1] += 1  # q[3][1]
    wrong_q = QTable(q.k_max, tuple(tuple(r) for r in rows))
    assert ode_check_failures(wrong_q, c, 8)[1] == ["derivative closed form differs"]


def test_ode_check_failures_catch_one_wrong_alpha_entry(monkeypatch):
    q = build_q_table(7)
    c = build_c_table(q)
    good = solve_series_ode(8, 8)

    def failures_with_wrong(key):
        v = good.coeff(*key)
        wrong = BiSeries(good.vars, good.orders, {**good.coeffs, key: v + F(1, v.denominator)})
        monkeypatch.setattr(coeffs, "solve_series_ode", lambda n_x, n_w: wrong)
        return ode_check_failures(q, c, 8)[1]

    failures = failures_with_wrong((3, 2))
    assert "nonzero residual in the defining equation" in failures
    assert "closed form differs from the solved series" in failures
    # the residual and F_w read no w^0 coefficient: only the closed form sees it
    assert failures_with_wrong((4, 0)) == ["closed form differs from the solved series"]
