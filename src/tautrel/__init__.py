"""Exact-arithmetic toolkit for polynomial relations among kappa classes."""

from .exact import BernoulliTable, Rational, bernoulli_table, binomial
from .series import (
    BiSeries,
    UniSeries,
    binomial_series_coeffs,
    binomial_unit_pow,
    coeff_via_change_of_vars,
)
from .coeffs import (
    AlphaTable,
    CTable,
    IdentityReport,
    QTable,
    build_c_table,
    build_q_table,
    diag_ode_residual,
    expand_closed_form,
    expand_w_deriv_closed,
    ode_check_failures,
    ode_residual,
    p_series,
    q_functional_equation_residual,
    remark_identity_failures,
    solve_series_ode,
    verify_coeff_identities,
)
from .tautring import (
    DiagonalRelation,
    KappaPoly,
    PolySeries,
    PsiRelation,
    TautRelation,
    extract_diagonal_relation,
    extract_psi_relation,
    extract_relation,
    extract_relation_from_ode,
    kappa_exponential,
    relation_json,
    relation_window,
)
from .relations import (
    FaberChoice,
    FaberConsistencyError,
    GeneratorExpression,
    IndependenceReport,
    ScanReport,
    cross_pipeline_check,
    faber_choose,
    faber_solve,
    independence_report,
    rank_exact,
    scan_nonvanishing,
    weighted_monomials,
)

__version__ = "0.1.0"
