"""Acceptance battery: every check is exact (tolerance = equality).

Each criterion prints one PASS line when it holds; any mismatch fails
the corresponding assert with a counterexample.  Stated runtime ceilings
are asserted where given.
"""

import time
from fractions import Fraction as F

from tautrel import (
    bernoulli_table,
    cross_pipeline_cells,
    cross_pipeline_check,
    diag_ode_residual,
    extract_diagonal_relation,
    extract_relation,
    extract_relations,
    faber_solve,
    genfunc_check,
    ode_check_failures,
    ode_residual,
    p_series,
    q_functional_equation_residual,
    relation_window,
    remark_identity_failures,
    scan_nonvanishing,
    solve_series_ode,
    verify_coeff_identities,
)

from oracles import leading_term, oracle_extract, weights


def test_criterion_1_coefficient_identities(q60, c60):
    t0 = time.time()
    for k in range(61):
        for j in range(k + 1):
            assert isinstance(q60.get(k, j), int), (k, j)
    summary, failures = verify_coeff_identities(q60, c60, 60)
    assert failures == []
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: coefficient identities, {summary} ({elapsed:.2f}s)")


def test_criterion_2_diagonal_generating_function(q60, c60):
    summary, failures = genfunc_check(q60, c60, 60)
    assert failures == []
    p = p_series(60)
    assert p.coeff(1) == F(5, 6)
    assert p.coeff(2) == F(385, 72)
    assert p.coeff(3) == F(85085, 1296)
    assert summary == "diagonal series matched; p_1 = 5/6, p_2 = 385/72, p_3 = 85085/1296"
    print("ACCEPTANCE 2 PASS: exp of diagonal series equals the factorial-ratio series to order 60")


def test_criterion_3_ode_vs_closed_forms(q60, c60):
    t0 = time.time()
    _, failures = ode_check_failures(q60, c60, 24)
    assert failures == []
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 3 PASS: ODE solution equals both closed forms at (24,24) ({elapsed:.2f}s)")


def test_criterion_4_series_residuals(q60):
    alpha = solve_series_ode(24, 24)
    assert ode_residual(alpha).is_zero()
    assert q_functional_equation_residual(q60, 20, 20).is_zero()
    assert diag_ode_residual(q60, 60).is_zero()
    print("ACCEPTANCE 4 PASS: all three functional-equation residuals vanish identically")


def test_criterion_5_relation_golden_values(q60, c60):
    expected = {
        (5, 2, 0): {((1, 2),): F(25, 72), ((2, 1),): F(-5)},
        (4, 2, 1): {((1, 2),): F(15, 4), ((2, 1),): F(-40)},
        (4, 2, 2): {((1, 3),): F(25, 72), ((1, 1), (2, 1)): F(-10, 3), ((3, 1),): F(-10)},
        (4, 2, 0): {},
    }
    for (g, d, b), want in expected.items():
        got = extract_relation(g, d, b, q60, c60)
        assert got.poly.terms == want, (g, d, b)
        assert oracle_extract(g, d, b, q60, c60) == want, (g, d, b)
    print("ACCEPTANCE 5 PASS: golden relations match the brute-force enumeration oracle")


def test_criterion_6_leading_coefficient_laws(q60, c60):
    grid = []
    for g in range(2, 17):
        for d in range(2, (g + 2) // 2 + 1):
            for b in range(0, 6):
                try:
                    relation_window(g, d, b)
                except ValueError:
                    continue
                if g + 1 + b - 2 * d >= 1:
                    grid.append((g, d, b))
    cells = 0
    for rel in extract_relations(grid, q60, c60):
        g, d, b, a = rel.g, rel.d, rel.b, rel.degree
        lead = rel.poly.gen_coeff(a)
        if b == 0:
            want = -c60.get(a, d)
        elif b == 1:
            want = -((2 * g - 2) * c60.get(a, d) + 2 * q60.get(a - 1, d - 1))
        else:
            want = F(-2 * q60.get(a - b, d - 1))
        assert lead == want, (g, d, b)
        cells += 1
    assert cells > 300
    print(f"ACCEPTANCE 6 PASS: leading-coefficient laws hold on {cells} cells (g <= 16, b <= 5)")


def test_criterion_7_cross_pipeline_proportionality(q60, c60):
    _, failures = cross_pipeline_check(q60, c60, 14)
    assert failures == []
    cells = len(cross_pipeline_cells(14))
    assert cells > 200
    print(f"ACCEPTANCE 7 PASS: both pipelines proportional with ratio (-1)^d on {cells} cells (g <= 14)")


def test_criterion_8_faber_procedure(q60, c60):
    t0 = time.time()
    for g in range(2, 25):
        m = g // 3
        exprs = faber_solve(g, q60, c60)  # checks each reduction at its point internally
        assert [e.a for e in exprs] == list(range(m + 1, g - 1))
        for e in exprs:
            assert e.rhs.max_gen() <= m, (g, e.a)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"ACCEPTANCE 8 PASS: generation procedure solves every g in 2..24 ({elapsed:.2f}s)")


def test_criterion_9_scan_reproduction(q60, c60):
    t0 = time.time()
    rep = scan_nonvanishing(60, q60, c60)
    assert rep.failures == []
    assert rep.checked >= 2 * 60 * 61 // 2
    elapsed = time.time() - t0
    assert elapsed < 600.0
    print(f"ACCEPTANCE 9 PASS: nonvanishing scan to a = 60 reports zero failures ({elapsed:.2f}s)")


def test_criterion_10_diagonal_consistency(q60, c60):
    aligned = 0
    for g in range(2, 21):
        if (g + 1) % 3:
            continue
        d = (g + 1) // 3
        if d < 2:
            continue
        main = extract_relation(g, d, 0, q60, c60)
        diag = extract_diagonal_relation(g, 0, d, c60)
        assert not main.poly.is_zero() and not diag.poly.is_zero(), g
        mono, lead = leading_term(main.poly)
        ratio = diag.poly.coeff(mono) / lead
        assert ratio != 0 and diag.poly == main.poly.scale(ratio), g
        aligned += 1
    assert aligned == 6  # g = 5, 8, 11, 14, 17, 20 (g=2 has d=1, skipped)
    homogeneous = 0
    for g in range(2, 21):
        for b in range(1, 5):
            for a_times_3 in (g - 1 + 3 * b, g + 1 + 3 * b):
                if a_times_3 % 3:
                    continue
                a = a_times_3 // 3
                if a < 1 or a > 20:
                    continue
                rel = extract_diagonal_relation(g, b, a, c60)
                if not rel.poly.is_zero():
                    assert weights(rel.poly) == {a}, (g, b, a)
                    homogeneous += 1
    assert homogeneous > 20
    print(
        f"ACCEPTANCE 10 PASS: diagonal relations proportional on {aligned} aligned genera,"
        f" homogeneous at {homogeneous} admissible cells"
    )


def test_criterion_11_bernoulli_sum_identity(q60):
    bern = bernoulli_table(41)
    assert remark_identity_failures(q60, bern, 40) == []
    print("ACCEPTANCE 11 PASS: Bernoulli-sum identity exact through order 40")
