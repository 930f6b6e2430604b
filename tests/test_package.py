"""The package namespace, the record types, and what each CLI call loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tautrel
from tautrel import (
    IndependenceReport,
    ScanReport,
    build_c_table,
    build_q_table,
    extract_diagonal_relation,
    extract_psi_relation,
    extract_relation,
    faber_choose,
    faber_solve,
    solve_series_ode,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs one CLI call in a fresh interpreter, then prints the names of all
# loaded modules as the last stdout line.
_PROBE = """
import json, sys
import tautrel.cli
try:
    code = tautrel.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print()
print(json.dumps(sorted(sys.modules)))
sys.exit(code)
"""


def _python(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def loaded_by(*argv):
    """Exit code of one CLI call, and the modules it loaded beyond a bare interpreter."""
    bare = _python("-c", "import json, sys; print(json.dumps(sorted(sys.modules)))")
    proc = _python("-c", _PROBE, *argv)
    after = proc.stdout.splitlines()[-1]
    return proc.returncode, set(json.loads(after)) - set(json.loads(bare.stdout))


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
    ],
)
def test_help_and_usage_errors_load_no_library_module(argv, code):
    rc, mods = loaded_by(*argv)
    assert rc == code
    assert tautrel_modules(mods) == {"tautrel", "tautrel.cli"}


def test_relation_loads_neither_relations_nor_dataclasses():
    rc, mods = loaded_by("relation", "--g", "8", "--d", "2")
    assert rc == 0
    assert "tautrel.tautring" in mods
    assert "tautrel.relations" not in mods
    assert "dataclasses" not in mods


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


def test_coeffs_q_does_not_load_tautring():
    rc, mods = loaded_by("coeffs", "--table", "q", "--max-k", "4")
    assert rc == 0
    assert "tautrel.coeffs" in mods
    assert "tautrel.tautring" not in mods


# --------------------------------------------------------------- namespace


def test_every_export_is_its_submodule_object():
    assert tautrel.__all__
    listed = dir(tautrel)
    for name in tautrel.__all__:
        home = importlib.import_module(f"tautrel.{tautrel._EXPORTS[name]}")
        assert getattr(tautrel, name) is getattr(home, name), name
        assert name in listed, name


@pytest.mark.parametrize("mod", ["exact", "series", "coeffs", "tautring", "relations"])
def test_each_submodule_all_is_what_the_package_maps_to_it(mod):
    listed = {name for name, home in tautrel._EXPORTS.items() if home == mod}
    assert set(importlib.import_module(f"tautrel.{mod}").__all__) == listed


def test_submodules_resolve_as_attributes():
    for mod in ("exact", "series", "coeffs", "tautring", "relations"):
        assert getattr(tautrel, mod) is importlib.import_module(f"tautrel.{mod}")


@pytest.mark.parametrize("name", ["no_such_name", "coeff_via_change_of_vars"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError):
        getattr(tautrel, name)
    assert name not in tautrel.__all__


# ----------------------------------------------------------------- records


def _records():
    q = build_q_table(8)
    c = build_c_table(q)
    return [
        q,
        c,
        solve_series_ode(3, 3),
        extract_relation(6, 2, 1, q, c),
        extract_psi_relation(5, 2, q, c),
        extract_diagonal_relation(5, 1, 3, c),
        faber_choose(10, 4),
        faber_solve(8, q, c)[0],
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
    a, b = ScanReport(5), ScanReport(5)
    a.failures.append({"a": 1})
    a.remark_formula_mismatches.append({"a": 1})
    assert b.failures == [] and b.remark_formula_mismatches == []
    c, d = IndependenceReport(8, 3), IndependenceReport(8, 3)
    c.pairs.append({"d": 2, "b": 0, "nonzero": True})
    assert d.pairs == []
