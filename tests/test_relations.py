from fractions import Fraction as F

import pytest

from tautrel import (
    BiSeries,
    CTable,
    FaberConsistencyError,
    KappaPoly,
    cross_pipeline_cells,
    cross_pipeline_check,
    extract_relations,
    faber_choose,
    faber_solve,
    independence_report,
    rank_exact,
    relation_window,
    scan_nonvanishing,
)
from tautrel import relations
from tautrel.cli import main

from oracles import partition_monomials, socle_value, weights


# --------------------------------------------------------------- faber_choose

def test_faber_choose_examples():
    ch = faber_choose(10, 6)
    assert (ch.d, ch.b, ch.case_tag) == (4, 3, "b_large")
    ch = faber_choose(5, 2)
    assert (ch.d, ch.b, ch.case_tag) == (2, 0, "b0")
    ch = faber_choose(4, 2)
    assert (ch.d, ch.b, ch.case_tag) == (2, 1, "b1")


def test_faber_choose_gap_falls_back():
    # 3a >= g+5 but the b>=2 interval holds no integer; parity picks b=1
    ch = faber_choose(12, 6)
    assert (ch.d, ch.b, ch.case_tag) == (4, 1, "b1")


def test_faber_choose_consistency_and_range():
    # every genus the kernel accepts: faber --g 130 is refused
    for g in range(2, 130):
        for a in range(g // 3 + 1, g - 1):
            ch = faber_choose(g, a)
            assert ch.a == g + 1 + ch.b - 2 * ch.d
            assert ch.d >= 2 and ch.b >= 0
            relation_window(g, ch.d, ch.b)
            if ch.case_tag == "b_large":
                assert ch.b >= 2
                assert ch.a - ch.b >= ch.d - 1  # integer leading coefficient exists
    with pytest.raises(ValueError):
        faber_choose(5, 4)
    with pytest.raises(ValueError):
        faber_choose(5, 1)


# ---------------------------------------------------------------- faber_solve

def test_faber_solve_small_genera(q20, c20):
    assert faber_solve(2, q20, c20) == []
    assert faber_solve(3, q20, c20) == []

    exprs = faber_solve(4, q20, c20)
    assert len(exprs) == 1 and exprs[0].a == 2
    assert exprs[0].rhs == KappaPoly({((1, 2),): F(3, 32)})

    exprs = faber_solve(5, q20, c20)
    assert [e.a for e in exprs] == [2, 3]
    assert exprs[0].rhs == KappaPoly({((1, 2),): F(5, 72)})
    assert exprs[1].rhs == KappaPoly({((1, 3),): F(1, 288)})


def test_faber_solve_raw_vs_rewritten(q20, c20):
    raw = faber_solve(8, q20, c20, rewrite=False)
    red = faber_solve(8, q20, c20, rewrite=True)
    m = 8 // 3
    for e_raw, e_red in zip(raw, red):
        assert e_raw.a == e_red.a
        assert e_raw.rhs.max_gen() < e_raw.a
        assert e_red.rhs.max_gen() <= m
        # rewriting the raw form with the later entries reproduces the reduced one
        mapping = {e.a: e.rhs for e in red if e.a < e_raw.a}
        assert e_raw.rhs.substitute(mapping) == e_red.rhs


def test_faber_solve_expression_count(q20, c20):
    for g in range(2, 13):
        exprs = faber_solve(g, q20, c20)
        lo, hi = g // 3 + 1, g - 2
        assert len(exprs) == max(0, hi - lo + 1)
        assert [e.a for e in exprs] == list(range(lo, hi + 1))


def test_faber_solve_homogeneity(q20, c20):
    for e in faber_solve(11, q20, c20):
        assert weights(e.rhs) <= {e.a}


# --------------------------------------------------------------------- scan

def test_scan_small(q20, c20):
    rep = scan_nonvanishing(2, q20, c20)
    assert rep.ok
    assert c20.get(2, 2) == 5 and c20.get(2, 1) == 1
    rep = scan_nonvanishing(1, q20, c20)
    assert rep.ok and c20.get(1, 1) == F(5, 6)


def test_scan_reports_remark_formula_mismatches(q20, c20):
    rep = scan_nonvanishing(4, q20, c20)
    assert rep.ok
    # the published alternative formula flips the sign of the 4d term, so it
    # disagrees at every cell where c[a][d] != 0 and d > 0
    assert len(rep.remark_formula_mismatches) == 10
    entry = rep.remark_formula_mismatches[0]
    assert set(entry) == {"a", "d", "g", "b", "extraction", "remark_formula"}


def test_scan_sample_extractions_lie_on_grid(q20, c20):
    rep = scan_nonvanishing(6, q20, c20)
    assert rep.ok
    # 2 table checks per cell plus one sample extraction per (a>=2, d in [2, a])
    cells = 6 * 7 // 2
    samples = sum(a - 1 for a in range(2, 7))
    assert rep.checked == 2 * cells + samples


def _with_c_entry(c, k, j, value):
    rows = [list(r) for r in c.rows]
    rows[k - 1][j] = value
    return c._replace(rows=tuple(tuple(r) for r in rows))


def test_scan_reports_a_vanishing_b0_coefficient(q20, c20):
    # (a, d) = (5, 2) lies in the sample: its extraction reads the same c
    rep = scan_nonvanishing(8, q20, _with_c_entry(c20, 5, 2, F(0)))
    assert rep.failures == [{"a": 5, "d": 2, "g": 8, "b": 0, "value": "0"}]


def test_scan_reports_a_vanishing_b1_coefficient(q20, c20):
    # (2g-2) c[10][3] + 2 q[9][2] = 0 at g = 14, outside the a <= 8 sample
    wrong = _with_c_entry(c20, 10, 3, F(-q20.get(9, 2), 13))
    rep = scan_nonvanishing(10, q20, wrong)
    assert rep.failures == [{"a": 10, "d": 3, "g": 14, "b": 1, "value": "0"}]


def test_scan_reports_a_wrong_sample_extraction(q20, c20, monkeypatch, capsys):
    real = relations.extract_relations

    def one_wrong(cells, q, c):
        # the first sampled cell is (a, d) = (2, 2), in genus 4
        first, *rest = real(cells, q, c)
        wrong = {**first.poly.terms, ((2, 1),): first.poly.gen_coeff(2) + 1}
        return [first._replace(poly=KappaPoly(wrong)), *rest]

    monkeypatch.setattr(relations, "extract_relations", one_wrong)
    rep = scan_nonvanishing(8, q20, c20)
    right = real([(4, 2, 1)], q20, c20)[0].poly.gen_coeff(2)
    assert rep.failures == [
        {"a": 2, "d": 2, "g": 4, "b": 1, "value": str(right + 1),
         "kind": "sample_extraction_mismatch"}
    ]
    assert main(["scan", "--max-a", "8"]) == 1
    assert '"kind":"sample_extraction_mismatch"' in capsys.readouterr().out


def test_scan_validates_input(q20, c20):
    with pytest.raises(ValueError):
        scan_nonvanishing(0, q20, c20)
    with pytest.raises(ValueError):
        scan_nonvanishing(30, q20, c20)


def test_scan_report_json_shape(q20, c20):
    obj = scan_nonvanishing(3, q20, c20)._asdict()
    assert list(obj) == ["checked", "failures", "remark_formula_mismatches"]
    assert obj["failures"] == []


# ------------------------------------------------------------- independence

def test_independence_examples(q20, c20):
    rep = independence_report(4, 3, q20, c20)
    assert [(p["d"], p["b"], p["nonzero"]) for p in rep.pairs] == [
        (2, 2, True),
        (3, 4, False),
    ]
    assert rep.n_nonzero == 1 and rep.rank == 1

    rep = independence_report(5, 2, q20, c20)
    assert rep.n_nonzero == 1 and rep.rank == 1
    assert rep.pairs[0]["d"] == 2 and rep.pairs[0]["b"] == 0

    # the (d=5, b=2) extraction is identically zero here (its leading
    # coefficient is q[2][4] = 0 and the exponential cells die), so the
    # only nonzero degree-4 relation in genus 11 comes from (d=4, b=0)
    rep = independence_report(11, 4, q20, c20)
    assert [(p["d"], p["b"]) for p in rep.pairs] == [(4, 0), (5, 2), (6, 4)]
    assert rep.n_nonzero == 1 and rep.rank == 1


def test_independence_rank_matches_nonzero_count(q20, c20):
    for g in range(4, 13):
        for a in range(1, g - 1):
            rep = independence_report(g, a, q20, c20)
            assert rep.rank == rep.n_nonzero, (g, a)


def test_independence_finds_rank_two(q20, c20):
    # both (d=4, b=0) and (d=5, b=2) survive in genus 14, degree 7,
    # and they are independent
    rep = independence_report(14, 7, q20, c20)
    assert [(p["d"], p["b"]) for p in rep.pairs if p["nonzero"]] == [(4, 0), (5, 2)]
    assert rep.n_nonzero == 2 and rep.rank == 2


def test_independence_rank_matches_rank_over_every_monomial(q20, c20):
    # a monomial that no relation holds is a zero column, so ranking over
    # the monomials the relations hold gives the rank over all partitions
    for g in range(3, 17):
        reports = [independence_report(g, a, q20, c20) for a in range(1, g)]
        cells = [(g, p["d"], p["b"]) for rep in reports for p in rep.pairs if p["nonzero"]]
        by_cell = {(r.d, r.b): r.poly for r in extract_relations(cells, q20, c20)}
        for rep in reports:
            polys = [by_cell[(p["d"], p["b"])] for p in rep.pairs if p["nonzero"]]
            basis = partition_monomials(rep.a)
            rows = [[poly.coeff(m) for m in basis] for poly in polys]
            assert rep.rank == rank_exact(rows), (g, rep.a)


# ------------------------------------------------------------ exact linalg

def test_rank_exact_basic():
    rows = [
        [F(1), F(2), F(3)],
        [F(2), F(4), F(6)],
        [F(0), F(1), F(1)],
    ]
    assert rank_exact(rows) == 2
    assert rank_exact([[F(0), F(0)]]) == 0
    assert rank_exact([]) == 0
    rows = [
        [F(1, 3), F(1, 7)],
        [F(1, 2), F(1, 5)],
    ]
    assert rank_exact(rows) == 2


def test_rank_exact_matches_structured_case():
    # rank of a 3x3 Vandermonde-ish fraction matrix is full
    rows = [[F(1, i + j + 1) for j in range(3)] for i in range(3)]
    assert rank_exact(rows) == 3


# ------------------------------------------------------------- failure path

# one-line faults in the kernel calls faber_solve makes, each of which must
# end in its own FaberConsistencyError
_FABER_FAULTS = {
    "zero leading coefficient": ("gen_coeff", lambda orig: lambda self, i: F(0)),
    "reduction left a high generator": ("without_gen", lambda orig: lambda self, i: self),
    "relation nonzero at the check point": (
        "gen_coeff", lambda orig: lambda self, i: 2 * orig(self, i)
    ),
}


@pytest.mark.parametrize("message", list(_FABER_FAULTS))
def test_faber_solve_raises_on_each_fault(q20, c20, monkeypatch, message):
    name, fault = _FABER_FAULTS[message]
    monkeypatch.setattr(KappaPoly, name, fault(getattr(KappaPoly, name)))
    with pytest.raises(FaberConsistencyError, match=message):
        faber_solve(12, q20, c20)


def test_faber_solve_sees_a_fault_substitute_repeats(q20, c20, monkeypatch):
    # substitute drops every kappa_1^e term, e >= 6, each time it runs, so a
    # second reduction through it would repeat the fault and agree; the
    # point check evaluates the relation without substitute
    orig = KappaPoly.substitute

    def dropping(self, mapping):
        terms = orig(self, mapping).terms.items()
        return KappaPoly({m: v for m, v in terms if len(m) != 1 or m[0][0] != 1 or m[0][1] < 6})

    monkeypatch.setattr(KappaPoly, "substitute", dropping)
    with pytest.raises(FaberConsistencyError, match=r"check point \(g=12, a=6, d=4, b=1\): "):
        faber_solve(12, q20, c20)


def test_faber_cli_exits_1_on_a_consistency_failure(monkeypatch, capsys):
    name, fault = _FABER_FAULTS["zero leading coefficient"]
    monkeypatch.setattr(KappaPoly, name, fault(getattr(KappaPoly, name)))
    assert main(["faber", "--g", "12"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: zero leading coefficient")


# ------------------------------------------ faber against Faber's socle values

def _pairing(g, expr):
    """<(kappa_a - rhs) kappa_1^(g-2-a)> in units of <kappa_{g-2}>: zero when
    kappa_a = rhs holds in the tautological ring."""
    pad = (1,) * (g - 2 - expr.a)
    total = socle_value(g, (expr.a, *pad))
    for mono, v in expr.rhs.terms.items():
        total -= v * socle_value(g, tuple(i for i, e in mono for _ in range(e)) + pad)
    return total


def test_socle_values_by_hand():
    assert socle_value(4, (1, 1)) == F(32, 3)
    assert socle_value(5, (1, 2)) == 20
    assert socle_value(5, (1, 1, 1)) == 288


def test_faber_expressions_pair_to_zero(q20, c20):
    for g in range(4, 19):
        for expr in faber_solve(g, q20, c20):
            assert _pairing(g, expr) == 0, (g, expr.a)


def test_faber_solve_passes_a_wrong_c_entry_the_pairing_sees(q20, c20):
    # A known gap: faber_solve's point check tests the reduction against the
    # relation it solves, so a wrong c entry, which changes the relation and
    # every expression with it, raises nothing.  Faber's socle pairing sees it.
    rows = [list(r) for r in c20.rows]
    rows[1][1] += F(1, 1000)  # c[2][1]
    wrong = CTable(c20.k_max, tuple(tuple(r) for r in rows))
    exprs = faber_solve(12, q20, wrong)
    assert len(exprs) == 6
    assert all(_pairing(12, e) != 0 for e in exprs)


# ------------------------------------------------------ cross-pipeline check

def test_cross_pipeline_check_catches_one_wrong_c_entry(q20, c20):
    assert cross_pipeline_check(q20, c20, 8) == ("both extraction pipelines proportional", [])
    assert len(cross_pipeline_cells(8)) > 40
    # c[2][1] off by one reaches the exponential route only: the ODE route
    # solves its own alpha table
    rows = [list(r) for r in c20.rows]
    rows[1][1] += 1
    wrong = CTable(c20.k_max, tuple(tuple(r) for r in rows))
    _, failures = cross_pipeline_check(q20, wrong, 8)
    assert failures == ["(g=5, d=2, b=1) pipelines disagree"]


@pytest.mark.parametrize(
    "k, j, cell",
    [
        (3, 2, "(g=4, d=2, b=1)"),  # the genus-free exponential and the second factor
        (1, 1, "(g=2, d=2, b=1)"),  # the genus factor exp((2g-2) sum_j alpha[1][j] w^j)
    ],
)
def test_cross_pipeline_check_catches_one_wrong_alpha_entry(q20, c20, monkeypatch, k, j, cell):
    # alpha[k][j] off by one reaches the ODE route only
    from tautrel import coeffs

    solve = coeffs.solve_series_ode

    def wrong_solve(n_x, n_w):
        alpha = solve(n_x, n_w)
        return BiSeries(alpha.vars, alpha.orders, {**alpha.coeffs, (k, j): alpha.coeff(k, j) + 1})

    # cross_pipeline_check imports the solver from coeffs when it runs
    monkeypatch.setattr(coeffs, "solve_series_ode", wrong_solve)
    _, failures = cross_pipeline_check(q20, c20, 8)
    assert failures == [f"{cell} pipelines disagree"]


def test_cross_pipeline_check_rejects_order_below_2(q20, c20):
    with pytest.raises(ValueError):
        cross_pipeline_check(q20, c20, 1)
