"""Faults injected into the kappa exponential, and which checks see them.

Each fault doubles one cell that ``tautring._exp_factors`` returns, so
every relation read through that cell is wrong while the tables stay
right.  The crosscheck sees both faults; ``faber_solve`` does not yet.
"""

import pytest

from tautrel import tautring
from tautrel.relations import FaberConsistencyError, cross_pipeline_check, faber_solve

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


# faber_solve's point check reads the relation it solved, so a wrong
# relation passes it: at g = 18 it returns its 10 expressions, 4 of them
# wrong under the E0 fault and 6 under the G fault, and raises nothing
@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: faber_solve has no check independent of the exponential",
)
def test_faber_solve_sees_a_doubled_exponential_cell(fault, q20, c20):
    with pytest.raises(FaberConsistencyError):
        faber_solve(18, q20, c20)
