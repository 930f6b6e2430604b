import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautrel.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_readme_examples_print_what_they_show(capsys):
    # each "$ tautrel ..." line of the README, against the line after it
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    examples = [(line, lines[i + 1]) for i, line in enumerate(lines) if line.startswith("$ tautrel ")]
    assert len(examples) >= 2
    for command, shown in examples:
        code, out = run(capsys, *command.split()[2:])
        assert (code, out) == (0, shown + "\n"), command


def test_coeffs_q_csv(capsys):
    code, out = run(capsys, "coeffs", "--table", "q", "--max-k", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "k,j,value",
        "0,0,1",
        "1,0,1",
        "1,1,5",
        "2,0,1",
        "2,1,18",
        "2,2,60",
    ]


def test_coeffs_c_values(capsys):
    code, out = run(capsys, "coeffs", "--table", "c", "--max-k", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["1,0,1/12", "1,1,5/6"]


def test_coeffs_json_shape(capsys):
    code, out = run(capsys, "coeffs", "--table", "p", "--max-k", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["table"] == "p" and obj["k_max"] == 3
    assert obj["entries"][3] == [3, "85085/1296"]


def test_coeffs_bernoulli(capsys):
    code, out = run(capsys, "coeffs", "--table", "bernoulli", "--max-k", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["0,1", "1,-1/2", "2,1/6", "3,0", "4,-1/30"]


def test_coeffs_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--table", "q", "--max-k", "-1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--table", "nope", "--max-k", "3"])
    assert exc.value.code == 2


def test_cache_round_trip(tmp_path, capsys):
    args = ("coeffs", "--table", "q", "--max-k", "6", "--format", "csv",
            "--cache-dir", str(tmp_path))
    code, cold = run(capsys, *args)
    assert code == 0
    assert (tmp_path / "q-6.csv").exists()
    code, warm = run(capsys, *args)
    assert code == 0
    assert warm == cold


def test_cache_serves_smaller_requests(tmp_path, capsys):
    big = ("coeffs", "--table", "c", "--max-k", "8", "--format", "csv",
           "--cache-dir", str(tmp_path))
    run(capsys, *big)
    code, cached = run(
        capsys, "coeffs", "--table", "c", "--max-k", "3", "--format", "csv",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    code, cold = run(capsys, "coeffs", "--table", "c", "--max-k", "3", "--format", "csv")
    assert cached == cold
    # no new, smaller cache file was written
    assert not (tmp_path / "c-3.csv").exists()


def test_truncated_cache_is_recomputed_not_served(tmp_path, capsys):
    args = ("coeffs", "--table", "q", "--max-k", "10", "--format", "csv",
            "--cache-dir", str(tmp_path))
    _, cold = run(capsys, *args)
    path = tmp_path / "q-10.csv"
    path.write_bytes(path.read_bytes()[:200])
    code = main(list(args))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == cold  # not 5,5,82 and a table cut off at row 5
    assert "corrupt" in captured.err
    # the table was rewritten whole: the next run reads it back silently
    code = main(list(args))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, cold, "")
    assert [p.name for p in tmp_path.iterdir()] == ["q-10.csv"]


def _cli_output(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), k_max=st.integers(0, 10), truncate=st.booleans())
def test_damaged_cache_never_prints_wrong_bytes(data, k_max, truncate):
    with tempfile.TemporaryDirectory() as tmp:
        _cli_output("coeffs", "--table", "q", "--max-k", "10", "--cache-dir", tmp)
        path = Path(tmp) / "q-10.csv"
        raw = bytearray(path.read_bytes())
        pos = data.draw(st.integers(0, len(raw) - 1), label="pos")
        if truncate:
            raw = raw[:pos]
        else:
            raw[pos] = data.draw(
                st.integers(0, 255).filter(lambda b: b != raw[pos]), label="byte"
            )
        path.write_bytes(bytes(raw))
        request = ("coeffs", "--table", "q", "--max-k", str(k_max), "--format", "csv")
        code, out = _cli_output(*request, "--cache-dir", tmp)
        assert code != 0 or out == _cli_output(*request)[1]


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TAUTREL_CACHE_DIR", str(tmp_path))
    code, _ = run(capsys, "coeffs", "--table", "p", "--max-k", "4")
    assert code == 0
    assert (tmp_path / "p-4.csv").exists()


def test_relation_golden(capsys):
    code, out = run(capsys, "relation", "--g", "5", "--d", "2", "--b", "0")
    assert code == 0
    assert out.rstrip() == (
        '{"g":5,"d":2,"b":0,"degree":2,"terms":'
        '[{"monomial":{"1":2},"coeff":"25/72"},{"monomial":{"2":1},"coeff":"-5"}]}'
    )


def test_relation_degenerate_zero(capsys):
    code, out = run(capsys, "relation", "--g", "4", "--d", "2", "--b", "0")
    assert code == 0
    assert '"terms":[]' in out


def test_relation_psi(capsys):
    code, out = run(capsys, "relation", "--g", "4", "--d", "2", "--psi")
    assert code == 0
    assert '{"monomial":{"0":2},"coeff":"-10"}' in out
    assert '"psi":true' in out


def test_relation_psi_rejects_b():
    with pytest.raises(SystemExit) as exc:
        main(["relation", "--g", "5", "--d", "2", "--b", "3", "--psi"])
    assert exc.value.code == 2


def test_relation_out_of_range(capsys):
    code = main(["relation", "--g", "4", "--d", "4", "--b", "0"])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["relation", "--g", "1", "--d", "2", "--b", "0"])
    assert exc.value.code == 2
    # generator kappa_{a+b} past the packed-monomial index limit
    code = main(["relation", "--g", "10", "--d", "2", "--b", "1100"])
    assert code == 2 and "outside 0..1023" in capsys.readouterr().err


def _fresh_cli(argv):
    """``python -m tautrel.cli`` in a fresh process, so a request that is not
    refused fails at the timeout instead of running on."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-m", "tautrel.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["relation", "--g", "1030", "--d", "2"],
        ["relation", "--g", "1030", "--d", "2", "--psi"],
        ["faber", "--g", "1026"],
        ["faber", "--g", "1100"],
    ],
)
def test_requests_past_the_generator_range_exit_2_at_once(argv):
    # refused before the size-1000 tables are built, which takes minutes
    start = time.perf_counter()
    proc = _fresh_cli(argv)
    assert proc.returncode == 2 and time.perf_counter() - start < 5
    assert proc.stdout == "" and "outside 0..1023" in proc.stderr


def test_generator_range_guard_boundary(capsys, monkeypatch):
    from tautrel import tautring

    monkeypatch.setattr(tautring, "MAX_INDEX", 5)
    assert main(["relation", "--g", "8", "--d", "2"]) == 0  # degree 5
    assert main(["relation", "--g", "9", "--d", "2"]) == 2  # degree 6
    assert main(["faber", "--g", "7"]) == 0  # solves up to kappa_5
    assert main(["faber", "--g", "8"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["relation", "--g", "140", "--d", "2", "--psi"],
        ["relation", "--g", "130", "--d", "2", "--psi"],  # n = 128
        ["relation", "--g", "130", "--d", "2", "--b", "1"],  # n = 128
        ["relation", "--g", "132", "--d", "2"],  # b = 0: n = 129
        ["faber", "--g", "130"],  # solves kappa_128, which holds kappa_1^128
        ["faber", "--g", "300"],  # refused before its tables are built
    ],
)
def test_requests_past_the_operand_exponent_exit_2_at_once(argv):
    # The kernel could only end such a run in OverflowError, after an
    # exponential too large to build.
    proc = _fresh_cli(argv)
    assert proc.returncode == 2
    assert proc.stdout == "" and "outside 0..127" in proc.stderr


def test_operand_exponent_guard_boundary(capsys, monkeypatch):
    from tautrel import tautring

    monkeypatch.setattr(tautring, "MAX_OPERAND_EXPONENT", 5)
    assert main(["relation", "--g", "9", "--d", "2"]) == 0  # b = 0, n = 6
    assert main(["relation", "--g", "10", "--d", "2"]) == 2  # n = 7
    assert main(["relation", "--g", "7", "--d", "2", "--b", "1"]) == 0  # n = 5
    assert main(["relation", "--g", "8", "--d", "2", "--b", "1"]) == 2  # n = 6
    assert main(["relation", "--g", "7", "--d", "2", "--psi"]) == 0  # n = 5
    assert main(["relation", "--g", "8", "--d", "2", "--psi"]) == 2  # n = 6
    assert main(["faber", "--g", "7"]) == 0  # solves up to kappa_5
    assert main(["faber", "--g", "8"]) == 2  # kappa_6 holds kappa_1^6


def test_faber_outputs(capsys):
    code, out = run(capsys, "faber", "--g", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["expressions"][0] == {
        "a": 2,
        "rhs": [{"monomial": {"1": 2}, "coeff": "5/72"}],
    }

    code, out = run(capsys, "faber", "--g", "2")
    assert code == 0
    assert json.loads(out)["expressions"] == []


def test_faber_rewrite_flag(capsys):
    code, out = run(capsys, "faber", "--g", "8", "--rewrite")
    assert code == 0
    obj = json.loads(out)
    assert obj["rewrite"] is True
    for entry in obj["expressions"]:
        for term in entry["rhs"]:
            assert all(int(k) <= 8 // 3 for k in term["monomial"])


def test_scan_exit_codes(capsys):
    code, out = run(capsys, "scan", "--max-a", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["failures"] == []
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--max-a", "0"])
    assert exc.value.code == 2


def test_verify_suites(capsys):
    code, out = run(capsys, "verify", "--suite", "identities", "--order", "8")
    assert code == 0 and out.startswith("PASS identities")
    code, out = run(capsys, "verify", "--suite", "ode", "--order", "6")
    assert code == 0 and "match through (6,6)" in out
    code, out = run(capsys, "verify", "--suite", "genfunc", "--order", "3")
    assert code == 0 and "p_3 = 85085/1296" in out
    code, out = run(capsys, "verify", "--suite", "crosscheck", "--order", "6")
    assert code == 0
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "identities", "--order", "0"])


def test_verify_all_output_is_pinned(capsys):
    code, out = run(capsys, "verify", "--suite", "all", "--order", "8")
    assert code == 0
    assert out == (
        "PASS identities: 88 exact checks to k=8\n"
        "PASS ode: alpha vs closed-form: match through (8,8)\n"
        "PASS genfunc: diagonal series matched; p_1 = 5/6, p_2 = 385/72, p_3 = 85085/1296\n"
        "PASS crosscheck: both extraction pipelines proportional\n"
    )


@pytest.mark.parametrize("suite", ["identities", "ode", "genfunc", "crosscheck", "all"])
def test_verify_fails_on_one_wrong_c_entry(capsys, monkeypatch, suite):
    from tautrel import tables

    build = tables.build_c_table

    def wrong_c(q):
        c = build(q)
        rows = [list(r) for r in c.rows]
        rows[1][2] += 1  # c[2][2]
        return tables.CTable(c.k_max, tuple(tuple(r) for r in rows))

    # verify builds its tables through tautrel.tables
    monkeypatch.setattr(tables, "build_c_table", wrong_c)
    code, out = run(capsys, "verify", "--suite", suite, "--order", "8")
    assert code == 1
    ran = ["identities", "ode", "genfunc", "crosscheck"] if suite == "all" else [suite]
    # every line is a FAIL line, and every suite that ran printed one
    assert {line.split(":")[0] for line in out.splitlines()} == {f"FAIL {s}" for s in ran}, out


def test_orders_too_small_for_the_table_exit_2():
    # the ode and crosscheck suites need an order of 2; the alpha table 1
    for argv in (
        ["verify", "--suite", "ode", "--order", "1"],
        ["verify", "--suite", "crosscheck", "--order", "1"],
        ["verify", "--suite", "all", "--order", "1"],
        ["coeffs", "--table", "alpha", "--max-k", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_outputs_byte_stable(capsys):
    _, a = run(capsys, "relation", "--g", "9", "--d", "2", "--b", "3")
    _, b = run(capsys, "relation", "--g", "9", "--d", "2", "--b", "3")
    assert a == b


def test_closed_stdout_exits_1_without_traceback():
    # `tautrel faber --g 18 --rewrite | head -c 50`: the reader is gone
    # before the output is written
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tautrel.cli", "faber", "--g", "12", "--rewrite"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
