"""The package namespace, the record types, and what each CLI call loads."""

import functools
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tautrel
from tautrel import (
    build_c_table,
    build_q_table,
    extract_diagonal_relation,
    extract_psi_relation,
    extract_relation,
    faber_choose,
    faber_solve,
    independence_report,
    scan_nonvanishing,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
BENCH = ROOT / "bench"

# Runs one CLI call in a fresh interpreter, then prints the names of all
# loaded modules, space-separated, as the last stdout line.  It imports
# nothing beyond sys itself, so the guards can tell whether a call loads json.
_PROBE = """
import sys
import tautrel.cli
try:
    code = tautrel.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print()
print(" ".join(sorted(sys.modules)))
sys.exit(code)
"""

# Runs one CLI call as ``python -m tautrel.cli`` does, then prints whether
# anything imported the module a second time, as ``tautrel.cli``.
_RUN_AS_MAIN = """
import runpy, sys
try:
    runpy.run_module("tautrel.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print()
print("tautrel.cli" in sys.modules)
sys.exit(code)
"""


def _python(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


@functools.lru_cache(maxsize=None)
def _bare_modules():
    return frozenset(_python("-c", "import sys; print(' '.join(sorted(sys.modules)))").stdout.split())


def loaded_by(*argv):
    """Exit code of one CLI call, and the modules it loaded beyond a bare interpreter."""
    proc = _python("-c", _PROBE, *argv)
    after = proc.stdout.splitlines()[-1]
    return proc.returncode, set(after.split()) - _bare_modules()


# the command line is read without argparse, whose import and first use
# (gettext, and locale through it) cost a fresh process about 7 ms
_PARSER_MODULES = {"argparse", "gettext", "locale"}


def tautrel_modules(mods):
    return {m for m in mods if m == "tautrel" or m.startswith("tautrel.")}


# ---------------------------------------------------------------- start-up


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["relation", "--g", "1", "--d", "2"], 2),
        (["coeffs", "--table", "q", "--max-k", "-1"], 2),
        (["verify", "--suite", "nope", "--order", "3"], 2),
        (["relation", "--help"], 0),
        # one usage error of each kind
        ([], 2),
        (["nope"], 2),
        (["relation", "--g", "8"], 2),
        (["relation", "--g"], 2),
        (["relation", "--g", "8", "--d", "2", "--bogus"], 2),
        (["relation", "--g", "x", "--d", "2"], 2),
        (["faber", "--g", "8", "--rewrite=1"], 2),
        (["scan", "--max-a", "5", "extra"], 2),
        (["coeffs", "--table", "q", "--max-k", "3", "--cache-dir", "--format"], 2),
    ],
)
def test_help_and_usage_errors_load_no_library_module(argv, code):
    rc, mods = loaded_by(*argv)
    assert rc == code
    assert tautrel_modules(mods) == {"tautrel", "tautrel.cli"}
    assert not ({"json"} | _PARSER_MODULES) & mods


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--table", "p", "--max-k", "4", "--format", "json"],
        ["verify", "--suite", "all", "--order", "4"],
        ["relation", "--g", "8", "--d", "2"],
        ["faber", "--g", "8", "--rewrite"],
        ["scan", "--max-a", "5"],
    ],
)
def test_no_command_loads_the_argparse_modules(argv):
    rc, mods = loaded_by(*argv)
    assert rc == 0
    assert not _PARSER_MODULES & mods


def test_relation_loads_neither_relations_nor_dataclasses():
    for form in (["--b", "1"], ["--psi"]):
        rc, mods = loaded_by("relation", "--g", "8", "--d", "2", *form)
        assert rc == 0
        assert tautrel_modules(mods) == {
            "tautrel", "tautrel.cli", "tautrel.tables", "tautrel.tautring"
        }, form
        assert not {"json", "dataclasses"} & mods, form


def test_faber_adds_only_relations():
    rc, mods = loaded_by("faber", "--g", "8", "--rewrite")
    assert rc == 0
    assert tautrel_modules(mods) == {
        "tautrel", "tautrel.cli", "tautrel.tables", "tautrel.tautring", "tautrel.relations"
    }


@pytest.mark.parametrize("suite", ["identities", "ode", "genfunc"])
def test_table_suites_load_neither_tautring_nor_relations(suite):
    rc, mods = loaded_by("verify", "--suite", suite, "--order", "4")
    assert rc == 0
    assert "tautrel.coeffs" in mods
    assert not {"tautrel.tautring", "tautrel.relations"} & mods


def test_crosscheck_loads_relations():
    rc, mods = loaded_by("verify", "--suite", "crosscheck", "--order", "4")
    assert rc == 0
    assert "tautrel.relations" in mods


def test_series_is_a_leaf_module():
    # series reads only the package's name map: imported first, in a fresh
    # interpreter, it loads no other tautrel module
    proc = _python("-c", "import sys, tautrel.series; print(' '.join(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert tautrel_modules(proc.stdout.split()) == {"tautrel", "tautrel.series"}


def test_coeffs_q_does_not_load_tautring():
    for table in ("q", "c"):
        rc, mods = loaded_by("coeffs", "--table", table, "--max-k", "4")
        assert rc == 0
        assert "tautrel.tables" in mods
        assert not {"tautrel.tautring", "tautrel.series"} & mods, table


def test_cache_hit_loads_only_the_table_writer(tmp_path):
    # a hit prints the cached lines, so it skips the table code, the series
    # and Fraction arithmetic that a fresh process would otherwise import
    cache = ("--cache-dir", str(tmp_path))
    assert loaded_by("coeffs", "--table", "c", "--max-k", "60", *cache)[0] == 0
    rc, mods = loaded_by("coeffs", "--table", "c", "--max-k", "30", *cache)
    assert rc == 0
    assert tautrel_modules(mods) == {"tautrel", "tautrel.cli", "tautrel.tableio"}
    assert "fractions" not in mods


@pytest.mark.parametrize("table", ["q", "p"])
def test_coeffs_json_loads_no_json(table):
    # the table writer spells its JSON out itself
    rc, mods = loaded_by("coeffs", "--table", table, "--max-k", "4", "--format", "json")
    assert rc == 0
    assert "json" not in mods


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--table", "p", "--max-k", "4", "--cache-dir", "CACHE"],
        ["relation", "--g", "8", "--d", "2"],
        ["faber", "--g", "8", "--rewrite"],
    ],
)
def test_no_module_imports_the_cli(argv, tmp_path):
    # Under ``python -m tautrel.cli`` the running module is __main__; an
    # import of tautrel.cli from the library would compile and run it again.
    argv = [str(tmp_path) if a == "CACHE" else a for a in argv]
    proc = _python("-c", _RUN_AS_MAIN, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_every_trace_target_binds_a_function():
    # bench/tracer.py wraps these by module and name; a name that moved
    # without a re-import would read as an absent layer in the benchmark
    spec = importlib.util.spec_from_file_location("tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for _, modname, qualname, _ in tracer.TARGETS:
        owner = importlib.import_module(modname)
        *path, attr = qualname.split(".")
        for name in path:
            owner = getattr(owner, name)
        assert inspect.isfunction(vars(owner).get(attr)), f"{modname}.{qualname}"


def test_every_trace_counter_counts_a_real_result(q20, c20):
    # bench/tracer.py counts terms, cells and bytes off these results; a
    # counter that no longer reads them would only warn "count skipped"
    spec = importlib.util.spec_from_file_location("tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    k1, k2 = tautrel.KappaPoly.gen(1), tautrel.KappaPoly.gen(2)
    poly = k1 * k2 + k2
    rel = extract_relation(5, 2, 0, q20, c20)
    calls = {
        "KappaPoly.substitute": ((poly, {2: k1 * k1}), poly.substitute({2: k1 * k1})),
        "KappaPoly.__mul__": ((poly, k1), poly * k1),
        "KappaPoly.__add__": ((poly, k1), poly + k1),
        "kappa_exponential": ((c20, [(4, 2)]), tautrel.kappa_exponential(c20, [(4, 2)])),
        "relation_json": ((rel,), tautrel.relation_json(rel)),
    }
    counted = [(qualname, counter) for _, _, qualname, counter in tracer.TARGETS if counter]
    assert sorted(qualname for qualname, _ in counted) == sorted(calls)
    for qualname, counter in counted:
        counts = dict.fromkeys(tracer.COUNT_NAMES, 0)
        args, result = calls[qualname]
        counter(counts, args, {}, result)
        written = {name: v for name, v in counts.items() if v}
        assert written and min(written.values()) > 0, (qualname, counts)


# --------------------------------------------------------------- namespace


def test_every_export_is_its_submodule_object():
    assert tautrel.__all__
    listed = dir(tautrel)
    for name in tautrel.__all__:
        home = importlib.import_module(f"tautrel.{tautrel._EXPORTS[name]}")
        assert getattr(tautrel, name) is getattr(home, name), name
        assert name in listed, name


@pytest.mark.parametrize("mod", ["exact", "series", "tables", "coeffs", "tautring", "relations"])
def test_each_submodule_all_is_what_the_package_maps_to_it(mod):
    # each __all__ is read from the package map, so the check that can fail
    # is the map itself: every name it gives to a module is defined there,
    # not only imported (coeffs imports build_q_table, tables defines it)
    module = importlib.import_module(f"tautrel.{mod}")
    listed = [name for name, home in tautrel._EXPORTS.items() if home == mod]
    assert listed and module.__all__ == listed
    for name in listed:
        value = vars(module).get(name)
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == f"tautrel.{mod}", name
        else:
            assert name in vars(module), name


def test_submodules_resolve_as_attributes():
    for mod in ("exact", "series", "tables", "coeffs", "tautring", "relations"):
        assert getattr(tautrel, mod) is importlib.import_module(f"tautrel.{mod}")


@pytest.mark.parametrize("name", ["no_such_name", "coeff_via_change_of_vars"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError):
        getattr(tautrel, name)
    assert name not in tautrel.__all__


# ---------------------------------------------------------- input refusals


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda q, c: tautrel.p_series(-1), "k_max must be >= 0"),
        (
            lambda q, c: tautrel.ode_residual(tautrel.solve_series_ode(3, 1)),
            "need w-order >= 2 to form the residual",
        ),
        (
            lambda q, c: tautrel.q_functional_equation_residual(q, 21, 3),
            "q table sized 20, need 21",
        ),
        (lambda q, c: tautrel.diag_ode_residual(q, 21), "q table sized 20, need 21"),
        (lambda q, c: faber_choose(1, 1), "need g >= 2"),
        (lambda q, c: faber_solve(1, q, c), "need g >= 2"),
        (lambda q, c: independence_report(1, 1, q, c), "need g >= 2 and a >= 1"),
        (lambda q, c: build_c_table(build_q_table(0)), "need q table with k_max >= 1"),
        (lambda q, c: tautrel.UniSeries("z", -1, []), "order must be >= 0"),
        (lambda q, c: tautrel.UniSeries("z", 2, [1]), "need 3 coefficients, got 1"),
        (
            lambda q, c: tautrel.UniSeries.from_terms("z", 2, {3: 1}),
            "exponent 3 outside truncation order 2",
        ),
        (lambda q, c: tautrel.BiSeries(("x", "w"), (-1, 0), {}), "orders must be >= 0"),
        (lambda q, c: tautrel.KappaPoly.gen(-1), "generator index must be >= 0 and exponent >= 1"),
        (lambda q, c: extract_diagonal_relation(1, 0, 1, c), "need g >= 2, b >= 0, a >= 1"),
    ],
    ids=[
        "p_series", "ode_residual", "q_functional_equation_residual", "diag_ode_residual",
        "faber_choose", "faber_solve", "independence_report", "build_c_table",
        "UniSeries_order", "UniSeries_length", "UniSeries_from_terms", "BiSeries",
        "KappaPoly_gen", "extract_diagonal_relation",
    ],
)
def test_public_calls_refuse_bad_input(call, message, q20, c20):
    with pytest.raises(ValueError) as exc:
        call(q20, c20)
    assert str(exc.value) == message


def test_c_table_reads_zero_below_the_triangle(c20):
    assert c20.get(3, -1) == 0


# ----------------------------------------------------------------- records


def _records():
    q = build_q_table(8)
    c = build_c_table(q)
    return [
        q,
        c,
        extract_relation(6, 2, 1, q, c),
        extract_psi_relation(5, 2, q, c),
        extract_diagonal_relation(5, 1, 3, c),
        faber_choose(10, 4),
        faber_solve(8, q, c)[0],
        scan_nonvanishing(3, q, c),
        independence_report(8, 3, q, c),
    ]


def test_records_compare_by_value_and_reject_assignment():
    for first, second in zip(_records(), _records()):
        assert first is not second
        assert first == second, type(first).__name__
        field = first._fields[0]
        with pytest.raises(AttributeError):
            setattr(first, field, 0)
        assert first == second


def test_reports_do_not_share_lists():
    # the reports' list fields are mutable, so each call builds its own
    q = build_q_table(8)
    c = build_c_table(q)
    first, second = scan_nonvanishing(3, q, c), scan_nonvanishing(3, q, c)
    assert first.failures is not second.failures
    assert first.remark_formula_mismatches is not second.remark_formula_mismatches
    first.failures.append({"a": 1})
    assert second.failures == []
    first, second = independence_report(8, 3, q, c), independence_report(8, 3, q, c)
    assert first.pairs is not second.pairs
    first.pairs.append({"d": 2, "b": 0, "nonzero": True})
    assert second.pairs != first.pairs
