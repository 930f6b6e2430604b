"""Faults injected into the exponential and extraction layers, and which checks see them.

Each fault monkeypatches one function that extraction or ``faber_solve``
runs, so the relations read through it are wrong while the tables stay
right.  The first two double one cell that ``tautring._exp_factors``
returns.  The extraction-layer rows hit the second factor, the batch's
cells, the cell convolution, the relation window and substitution.

- The crosscheck sees every fault but the substitution's, since it never
  substitutes.
- ``faber_solve`` sees only the window and substitution faults.  Its point
  check reads the relation it solved, so a wrong relation passes it, and
  the other rows are strict xfails until ROADMAP item 1.

Known gap: ``terms_json`` is checked only against the tests' own
``ref_terms_json``; no fault row here reaches it.
"""

import re
from fractions import Fraction as F

import pytest

from tautrel import relations, tautring
from tautrel.relations import FaberConsistencyError, cross_pipeline_check, faber_solve
from tautrel.tautring import KappaPoly

# strict, and only for "DID NOT RAISE": a fault that made faber_solve fail
# some other way would not count as this expected failure
_ITEM_1 = pytest.mark.xfail(
    strict=True,
    raises=pytest.fail.Exception,
    reason="ROADMAP item 1: faber_solve has no check independent of the exponential",
)

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
