"""Faults injected layer by layer, and which checks see them.

Each fault monkeypatches one function that a table build, extraction or
``faber_solve`` runs.  Some wrap the function; the one-line faults swap
in a copy compiled from its source with one line changed.

- Tables: the q builder forms each off-diagonal pair of its
  self-convolution once.  The identities, ODE, genfunc and crosscheck
  suites fail.  ``q_functional_equation_residual`` is the one check blind
  to it when its own products share the fault, since it forms Q**2 with
  the helper the builder used; the identities suite still fails on its
  other identities.
- Exponential: ``tautring._exp_factors`` with one E0 or G cell doubled,
  or with the E0 weight, the G weight or the G divisor one too large at
  one place.
- Extraction: the second factor, the batch's cells, the cell convolution,
  the relation window and substitution.

The crosscheck sees every table, exponential and extraction fault but
the substitution's, since it never substitutes.  ``faber_solve`` sees only
the window and substitution faults.  Its point check reads the relation
it solved, so a wrong relation passes it, and the other rows are strict
xfails until ROADMAP item 1.

Known gaps, each pinned by a test below:

- ``_one_window``, the single read behind every ``relation`` op: no
  run-time check reads it, so a wrong single read passes the crosscheck
  and ``faber_solve``; only the batch read differs.
- ``terms_json``: the CLI prints what it writes with exit 0, and only the
  tests' own ``ref_terms_json`` checks it.
"""

import __future__
import inspect
import re
import textwrap
from fractions import Fraction as F

import pytest

from tautrel import coeffs, relations, tables, tautring
from tautrel.cli import main
from tautrel.coeffs import (
    genfunc_check,
    ode_check_failures,
    q_functional_equation_residual,
    verify_coeff_identities,
)
from tautrel.relations import FaberConsistencyError, cross_pipeline_check, faber_solve
from tautrel.tautring import (
    KappaPoly,
    extract_psi_relation,
    extract_relation,
    extract_relations,
)

# strict, and only for "DID NOT RAISE": a fault that made faber_solve fail
# some other way would not count as this expected failure
_ITEM_1 = pytest.mark.xfail(
    strict=True,
    raises=pytest.fail.Exception,
    reason="ROADMAP item 1: faber_solve has no check independent of the exponential",
)


def _one_line_fault(func, old, new):
    """A copy of ``func`` compiled from its source in its own module's
    namespace, with the one occurrence of ``old`` replaced by ``new``."""
    src = textwrap.dedent(inspect.getsource(func))
    assert src.count(old) == 1, old
    code = compile(
        src.replace(old, new),
        inspect.getsourcefile(func),
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace = {}
    exec(code, func.__globals__, namespace)
    return namespace[func.__name__]


# ----------------------------------------------------------- table layer

def _pairs_once():
    """``_add_symmetric_products`` forming each off-diagonal pair once:
    weight 1 where m != i - m, not 2."""
    return _one_line_fault(tables._add_symmetric_products, " * (1 if 2 * m == i else 2)", "")


def _tables_with_pairs_once():
    """q and c to k = 20, built with ``_pairs_once`` patched in ``tables`` only."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tables, "_add_symmetric_products", _pairs_once())
        q = tables.build_q_table(20)
    return q, tables.build_c_table(q)


def test_checks_on_pairs_formed_once_in_the_q_table():
    q, c = _tables_with_pairs_once()
    failures = verify_coeff_identities(q, c, 20)[1]
    assert failures[0] == "diag_sixty at k=2: expected 55, got 235/4"
    assert "bivariate_functional_equation: nonzero residual through (20, 12)" in failures
    assert ode_check_failures(q, c, 20)[1] == [
        "closed form differs from the solved series",
        "derivative closed form differs",
    ]
    assert genfunc_check(q, c, 20)[1] == [
        "diag_exponential: exp of the c diagonal is not P(z) through z^20",
        "diag_functional_equation: nonzero residual through z^20",
    ]
    assert cross_pipeline_check(q, c, 14)[1] == ["(g=4, d=2, b=1) pipelines disagree"]


def test_functional_equation_shares_the_q_builders_products(monkeypatch):
    # the one check blind to this fault: with the helper patched where the
    # residual reads it too, Q**2 carries the builder's own error
    q, c = _tables_with_pairs_once()
    monkeypatch.setattr(coeffs, "_add_symmetric_products", _pairs_once())
    assert q_functional_equation_residual(q, 20, 12).is_zero()
    failures = verify_coeff_identities(q, c, 20)[1]
    assert failures[0] == "diag_sixty at k=2: expected 55, got 235/4"
    assert not any(f.startswith("bivariate_functional_equation") for f in failures)


# all 10 of faber_solve's expressions at g = 18 are wrong, and it raises nothing
@_ITEM_1
def test_faber_solve_on_pairs_formed_once_in_the_q_table():
    q, c = _tables_with_pairs_once()
    with pytest.raises(FaberConsistencyError):
        faber_solve(18, q, c)


# ----------------------------------------------------- exponential layer

# (factor, cell doubled, the crosscheck's first mismatch)
FAULTS = [
    ("E0", (7, 0), "(g=9, d=2, b=1) pipelines disagree"),
    ("G", (5, 2), "(g=7, d=2, b=1) pipelines disagree"),
]


@pytest.fixture(params=FAULTS, ids=[f"{name}-{i}-{j}" for name, (i, j), _ in FAULTS])
def fault(request, monkeypatch):
    name, cell, mismatch = request.param
    exp_factors = tautring._exp_factors

    def doubled(coeff, limits):
        e0, g = exp_factors(coeff, limits)
        factor = e0 if name == "E0" else g
        if cell in factor:
            factor[cell] = factor[cell].scale(2)
        return e0, g

    monkeypatch.setattr(tautring, "_exp_factors", doubled)
    return mismatch


def test_crosscheck_sees_a_doubled_exponential_cell(fault, q20, c20):
    assert cross_pipeline_check(q20, c20, 14)[1] == [fault]


# at g = 18 faber_solve returns its 10 expressions, 4 of them wrong under
# the E0 fault and 6 under the G fault, and raises nothing
@_ITEM_1
def test_faber_solve_sees_a_doubled_exponential_cell(fault, q20, c20):
    with pytest.raises(FaberConsistencyError):
        faber_solve(18, q20, c20)


# (the line's text, its faulty text, the first crosscheck cell whose
# exponential-route relation changes, the crosscheck's first mismatch).
# Both routes build their exponential through _exp_factors, so the first
# mismatch can come from the ODE route's relation.  At g = 18 faber_solve
# returns 4, 6 and 10 wrong expressions, and raises nothing.
EXP_FACTORS_FAULTS = {
    # the E0 recurrence's weight m at m = 3, i = 7
    "E0-weight-3-7": (
        "(s, e0[(i - m, 0)], m)",
        "(s, e0[(i - m, 0)], m + ((m, i) == (3, 7)))",
        (11, 2, 1),
        (9, 2, 1),
    ),
    # the G recurrence's weight l at cell (5, 2)
    "G-weight-5-2": (
        "(s, g[(i - m, j - l)], l)",
        "(s, g[(i - m, j - l)], l + ((i, j) == (5, 2)))",
        (7, 2, 1),
        (7, 2, 1),
    ),
    # the G recurrence's divisor j at j = 3
    "G-divisor-3": (
        "_sum_of_products(pairs, div=j)",
        "_sum_of_products(pairs, div=j + (j == 3))",
        (7, 3, 1),
        (5, 3, 1),
    ),
}


def _inject_exp_factors_fault(monkeypatch, old, new):
    monkeypatch.setattr(
        tautring, "_exp_factors", _one_line_fault(tautring._exp_factors, old, new)
    )


@pytest.mark.parametrize(
    "old, new, changed, mismatch", EXP_FACTORS_FAULTS.values(), ids=EXP_FACTORS_FAULTS
)
def test_crosscheck_on_an_exp_factors_fault(old, new, changed, mismatch, monkeypatch, q20, c20):
    right = extract_relations([changed], q20, c20)
    _inject_exp_factors_fault(monkeypatch, old, new)
    # the fault fires: one relation of the exponential route changes
    assert extract_relations([changed], q20, c20) != right
    g, d, b = mismatch
    assert cross_pipeline_check(q20, c20, 14)[1] == [f"(g={g}, d={d}, b={b}) pipelines disagree"]


@_ITEM_1
@pytest.mark.parametrize(
    "old, new", [fault[:2] for fault in EXP_FACTORS_FAULTS.values()], ids=EXP_FACTORS_FAULTS
)
def test_faber_solve_on_an_exp_factors_fault(old, new, monkeypatch, q20, c20):
    _inject_exp_factors_fault(monkeypatch, old, new)
    with pytest.raises(FaberConsistencyError):
        faber_solve(18, q20, c20)


# ------------------------------------------------------ extraction layer


def _second_factor_cell_5_3(monkeypatch):
    # the kappa routes' F2 cell (5, 3) reads -3*q[4][2], not -2*q[4][2]
    second_factor = tautring._second_factor

    def scaled(*args):
        f2 = second_factor(*args)
        if (5, 3) in f2:
            f2[(5, 3)] = f2[(5, 3)].scale(F(3, 2))
        return f2

    monkeypatch.setattr(tautring, "_second_factor", scaled)


def _exp_cells_drop_9_3(monkeypatch):
    exp_cells = tautring._exp_cells

    def dropped(coeff, limits):
        cells = exp_cells(coeff, limits)
        cells.pop((9, 3), None)
        return cells

    monkeypatch.setattr(tautring, "_exp_cells", dropped)


def _convolve_cell_twice_3_1(monkeypatch):
    convolve_cell = tautring._convolve_cell

    def twice(cells, f2, i, j):
        if (3, 1) in f2:
            f2 = {**f2, (3, 1): f2[(3, 1)].scale(2)}
        return convolve_cell(cells, f2, i, j)

    monkeypatch.setattr(tautring, "_convolve_cell", twice)


def _relation_window_b2(monkeypatch):
    # both bindings, so the crosscheck's grid reads the same wrong n
    relation_window = tautring.relation_window

    def moved(g, d, b=0, psi=False):
        n = relation_window(g, d, b, psi)
        return n + 1 if b == 2 and g >= 8 else n

    monkeypatch.setattr(tautring, "relation_window", moved)
    monkeypatch.setattr(relations, "relation_window", moved)


def _substitute_drops_a_term(monkeypatch):
    substitute = KappaPoly.substitute

    def dropping(self, mapping):
        terms = dict(substitute(self, mapping).terms)
        if len(terms) > 1:
            del terms[next(iter(terms))]
        return KappaPoly(terms)

    monkeypatch.setattr(KappaPoly, "substitute", dropping)


# (fault, the crosscheck's first mismatch or None, faber_solve(18)'s error or
# None); at g = 18 the second factor and convolution faults each make 9 of
# faber_solve's 10 expressions wrong, and the dropped cell 4
EXTRACTION_FAULTS = {
    "second_factor-5-3": (_second_factor_cell_5_3, "(g=9, d=3, b=1) pipelines disagree", None),
    "exp_cells-drop-9-3": (_exp_cells_drop_9_3, "(g=13, d=3, b=1) pipelines disagree", None),
    "convolve_cell-twice-3-1": (
        _convolve_cell_twice_3_1, "(g=5, d=2, b=1) pipelines disagree", None
    ),
    "relation_window-b2": (
        _relation_window_b2,
        "(g=8, d=2, b=2) pipelines disagree",
        "zero leading coefficient at (g=18, a=9, d=6, b=2)",
    ),
    "substitute-drop": (
        _substitute_drops_a_term,
        None,
        "relation nonzero at the check point (g=18, a=7, d=6, b=0)",
    ),
}


@pytest.mark.parametrize(
    "inject, mismatch",
    [
        pytest.param(inject, mismatch, id=name)
        for name, (inject, mismatch, _) in EXTRACTION_FAULTS.items()
    ],
)
def test_crosscheck_on_an_extraction_fault(inject, mismatch, monkeypatch, q20, c20):
    inject(monkeypatch)
    assert cross_pipeline_check(q20, c20, 14)[1] == ([mismatch] if mismatch else [])


@pytest.mark.parametrize(
    "inject, error",
    [
        pytest.param(inject, error, id=name, marks=() if error else _ITEM_1)
        for name, (inject, _, error) in EXTRACTION_FAULTS.items()
    ],
)
def test_faber_solve_on_an_extraction_fault(inject, error, monkeypatch, q20, c20):
    inject(monkeypatch)
    with pytest.raises(FaberConsistencyError, match=error and re.escape(error)):
        faber_solve(18, q20, c20)


# -------------------------------------------------------------- known gaps

def test_a_wrong_single_read_passes_every_run_time_check(monkeypatch, q20, c20):
    # A known gap: every relation op prints one single read, through
    # _one_window, and no run-time check reads that route.  Doubled at
    # n = 5, the (7, 2, 1) and psi (7, 2) reads change and the first then
    # differs from the batch read, yet the crosscheck and faber_solve pass.
    right = extract_relation(7, 2, 1, q20, c20), extract_psi_relation(7, 2, q20, c20)
    one_window = tautring._one_window

    def doubled(coeff, f2, n, d):
        poly = one_window(coeff, f2, n, d)
        return poly.scale(2) if n == 5 else poly

    monkeypatch.setattr(tautring, "_one_window", doubled)
    wrong = extract_relation(7, 2, 1, q20, c20), extract_psi_relation(7, 2, q20, c20)
    assert wrong[0] != right[0] and wrong[1] != right[1]
    assert wrong[0] != extract_relations([(7, 2, 1)], q20, c20)[0]
    assert cross_pipeline_check(q20, c20, 14)[1] == []
    assert len(faber_solve(18, q20, c20)) == 10


def test_a_json_writer_dropping_a_term_exits_0(monkeypatch, capsys):
    # A known gap: terms_json writes what faber and relation print, and no
    # run-time check reads it back.  Dropping its last term changes both
    # outputs, and both still exit 0.
    commands = (["faber", "--g", "8", "--rewrite"], ["relation", "--g", "8", "--d", "2"])
    right = []
    for argv in commands:
        assert main(argv) == 0
        right.append(capsys.readouterr().out)
    dropping = _one_line_fault(tautring.terms_json, "','.join(parts)", "','.join(parts[:-1])")
    monkeypatch.setattr(tautring, "terms_json", dropping)
    for argv, out in zip(commands, right):
        assert main(argv) == 0
        assert capsys.readouterr().out != out
