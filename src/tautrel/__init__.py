"""Exact-arithmetic toolkit for polynomial relations among kappa classes.

Submodules load on first use: ``import tautrel`` imports none of them,
and ``tautrel.X`` or ``from tautrel import X`` imports the one module
that defines ``X`` (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it; the one list of public
# names, from which each submodule reads its __all__
_EXPORTS = {
    "bernoulli_table": "exact",
    **dict.fromkeys(("BiSeries", "UniSeries", "binomial_series_coeffs"), "series"),
    **dict.fromkeys(("CTable", "QTable", "build_c_table", "build_q_table"), "tables"),
    **dict.fromkeys(
        (
            "diag_ode_residual",
            "expand_closed_form",
            "expand_w_deriv_closed",
            "genfunc_check",
            "ode_check_failures",
            "ode_residual",
            "p_series",
            "q_functional_equation_residual",
            "remark_identity_failures",
            "solve_series_ode",
            "verify_coeff_identities",
        ),
        "coeffs",
    ),
    **dict.fromkeys(
        (
            "DiagonalRelation",
            "KappaPoly",
            "MAX_INDEX",
            "MAX_OPERAND_EXPONENT",
            "PolySeries",
            "PsiRelation",
            "TautRelation",
            "extract_diagonal_relation",
            "extract_psi_relation",
            "extract_relation",
            "extract_relation_from_ode",
            "extract_relations",
            "extract_relations_from_ode",
            "kappa_exponential",
            "relation_json",
            "relation_window",
            "terms_json",
        ),
        "tautring",
    ),
    **dict.fromkeys(
        (
            "FaberChoice",
            "FaberConsistencyError",
            "GeneratorExpression",
            "IndependenceReport",
            "ScanReport",
            "cross_pipeline_cells",
            "cross_pipeline_check",
            "faber_choose",
            "faber_solve",
            "independence_report",
            "rank_exact",
            "scan_nonvanishing",
        ),
        "relations",
    ),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():  # a submodule not imported yet
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
