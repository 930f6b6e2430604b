import contextlib
import hashlib
import importlib.util
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

from oracles import ref_parse_args
from tautrel import cli
from tautrel.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


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
    assert (tmp_path / "q.csv").exists()
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
    assert [p.name for p in tmp_path.iterdir()] == ["c.csv"]


def test_truncated_cache_is_recomputed_not_served(tmp_path, capsys):
    args = ("coeffs", "--table", "q", "--max-k", "10", "--format", "csv",
            "--cache-dir", str(tmp_path))
    _, cold = run(capsys, *args)
    path = tmp_path / "q.csv"
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
    assert [p.name for p in tmp_path.iterdir()] == ["q.csv"]


_Q10 = ("coeffs", "--table", "q", "--max-k", "10")


def test_cache_of_another_version_is_a_silent_miss(tmp_path, capsys):
    _, cold = run(capsys, *_Q10)
    run(capsys, *_Q10, "--cache-dir", str(tmp_path))
    path = tmp_path / "q.csv"
    written = path.read_bytes()
    meta, _, body = written.partition(b"\n")
    assert b" version=2 " in meta
    path.write_bytes(meta.replace(b" version=2 ", b" version=1 ") + b"\n" + body)
    code = main([*_Q10, "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, cold, "")
    assert path.read_bytes() == written


def test_cache_file_of_the_old_per_size_layout_is_ignored(tmp_path, capsys):
    # a q-10.csv is neither read nor removed, even when it holds a valid table
    _, cold = run(capsys, *_Q10)
    run(capsys, *_Q10, "--cache-dir", str(tmp_path))
    old = tmp_path / "q-10.csv"
    (tmp_path / "q.csv").rename(old)
    written = old.read_bytes()
    code = main([*_Q10, "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, cold, "")
    # a miss, so q.csv was written
    assert sorted(p.name for p in tmp_path.iterdir()) == ["q-10.csv", "q.csv"]
    assert old.read_bytes() == written


def _cache_size(path):
    meta = path.read_bytes().partition(b"\n")[0].decode().split()
    return int(meta[2].removeprefix("k_max="))


def test_stale_cache_file_is_replaced_then_serves_smaller_requests(tmp_path, capsys):
    path = tmp_path / "q.csv"
    run(capsys, "coeffs", "--table", "q", "--max-k", "20", "--cache-dir", str(tmp_path))
    meta, _, body = path.read_bytes().partition(b"\n")
    path.write_bytes(meta.replace(b" version=2 ", b" version=1 ") + b"\n" + body)
    # the first request replaces the stale table with its own, silently
    _, cold = run(capsys, *_Q10)
    code = main([*_Q10, "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, cold, "")
    assert _cache_size(path) == 10 and b" version=2 " in path.read_bytes()
    # a later, smaller request is served from that table with no write
    written, inode = path.read_bytes(), path.stat().st_ino
    q8 = ("coeffs", "--table", "q", "--max-k", "8")
    _, cold = run(capsys, *q8)
    code = main([*q8, "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, cold, "")
    assert (path.read_bytes(), path.stat().st_ino) == (written, inode)
    assert [p.name for p in tmp_path.iterdir()] == ["q.csv"]


def test_larger_request_grows_the_one_cache_file(tmp_path, capsys):
    for k_max in (12, 14, 12):
        argv = ("coeffs", "--table", "c", "--max-k", str(k_max), "--format", "csv")
        _, cold = run(capsys, *argv)
        code, cached = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert (code, cached) == (0, cold)
    assert [p.name for p in tmp_path.iterdir()] == ["c.csv"]
    assert _cache_size(tmp_path / "c.csv") == 14


def test_cache_size_raised_in_the_metadata_is_not_served(tmp_path, capsys):
    # the size a file claims must be its last row's: a q table at 10 whose
    # metadata says 12 would otherwise serve a request at 12 without row 12
    run(capsys, *_Q10, "--cache-dir", str(tmp_path))
    path = tmp_path / "q.csv"
    path.write_bytes(path.read_bytes().replace(b" k_max=10 ", b" k_max=12 ", 1))
    q12 = ("coeffs", "--table", "q", "--max-k", "12")
    _, cold = run(capsys, *q12)
    code = main([*q12, "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (0, cold)
    assert "corrupt" in captured.err
    assert _cache_size(path) == 12


def test_unreadable_cache_exits_2(tmp_path, capsys):
    (tmp_path / "q.csv").mkdir()
    code = main([*_Q10, "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: cache unreadable")


def test_cache_dir_that_is_a_file_exits_2(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.write_text("")
    code = main([*_Q10, "--cache-dir", str(cache)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: cache unwritable")


def test_failed_rename_exits_2_and_leaves_no_temporary_file(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(f"cannot rename {src}")

    monkeypatch.setattr(os, "replace", refuse)
    code = main([*_Q10, "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: cache unwritable")
    assert list(tmp_path.iterdir()) == []


def _cli_output(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), k_max=st.integers(0, 12), truncate=st.booleans())
def test_damaged_cache_never_prints_wrong_bytes(data, k_max, truncate):
    with tempfile.TemporaryDirectory() as tmp:
        _cli_output("coeffs", "--table", "q", "--max-k", "10", "--cache-dir", tmp)
        path = Path(tmp) / "q.csv"
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


def test_cache_env_var_is_ignored(tmp_path, capsys, monkeypatch):
    # only --cache-dir names the cache
    monkeypatch.setenv("TAUTREL_CACHE_DIR", str(tmp_path))
    code, out = run(capsys, "coeffs", "--table", "q", "--max-k", "5")
    assert code == 0 and out
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize(
    "argv, err",
    [
        ("relation --g 4 --d 4", "relation out of range for (g=4, d=4, b=0)"),
        ("relation --g 10 --d 2 --b 1100", "generator index 1107 outside 0..1023"),
        ("relation --g 383 --d 128", "exponent 128 in a product operand outside 0..127"),
        ("relation --g 1030 --d 2 --psi", "generator index 1028 outside 0..1023"),
        ("faber --g 1026", "generator index 1024 outside 0..1023"),
        ("faber --g 130", "exponent 128 in a product operand outside 0..127"),
    ],
)
def test_library_refusals_exit_2_with_one_error_line(capsys, argv, err):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {err}\n")


def test_value_error_past_validation_exits_2(capsys, monkeypatch):
    # main, not the handler, turns a library ValueError into exit 2
    import tautrel.relations

    def refuse(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(tautrel.relations, "faber_solve", refuse)
    code = main(["faber", "--g", "8"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: boom\n")


def _fresh_cli(argv, **env):
    """``python -m tautrel.cli`` in a fresh process, with ``env`` added to the
    environment, so a request that is not refused fails at the timeout
    instead of running on."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"), **env)
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


# the numerator of p[200] has 789 digits, past the least int<->str digit
# cap Python allows
_PAST_THE_CAP = ["coeffs", "--table", "p", "--max-k", "200"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_coeffs_print_whole_past_the_digit_cap(fmt):
    argv = [*_PAST_THE_CAP, "--format", fmt]
    capped = _fresh_cli(argv, PYTHONINTMAXSTRDIGITS="640")
    lifted = _fresh_cli(argv, PYTHONINTMAXSTRDIGITS="0")
    assert (capped.returncode, capped.stderr) == (0, "")
    assert lifted.returncode == 0 and capped.stdout == lifted.stdout


def test_cache_round_trip_past_the_digit_cap(tmp_path):
    argv = [*_PAST_THE_CAP, "--format", "csv"]
    lifted = _fresh_cli(argv, PYTHONINTMAXSTRDIGITS="0")
    cached = [*argv, "--cache-dir", str(tmp_path)]
    cold = _fresh_cli(cached, PYTHONINTMAXSTRDIGITS="640")
    warm = _fresh_cli(cached, PYTHONINTMAXSTRDIGITS="640")
    assert [p.name for p in tmp_path.iterdir()] == ["p.csv"]
    for proc in (cold, warm):
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, lifted.stdout, "")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit cap")
def test_digit_cap_is_lifted_for_the_call_only(capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out = run(capsys, *_PAST_THE_CAP)
        assert code == 0 and len(json.loads(out)["entries"][-1][1]) > 640
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(before)


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
    # the ode and crosscheck suites need an order of 2; genfunc and the
    # alpha table 1
    for argv in (
        ["verify", "--suite", "genfunc", "--order", "0"],
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
    # the reader closes the pipe before `faber --g 12` writes a byte
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


def test_reader_gone_mid_stream_exits_1_without_traceback():
    # `tautrel faber --g 24 --rewrite | head -c 50`: the reader takes the
    # start of the document, which is far longer than a pipe holds, and goes
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tautrel.cli", "faber", "--g", "24", "--rewrite"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = proc.stdout.read(50)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    # the start of the g = 24 document that test_faber_bytes_past_the_benchmark_genera pins
    assert head == b'{"g":24,"rewrite":true,"expressions":[{"a":9,"rhs"'


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_matches_reference(refs, op, code, out):
    ref = refs[" ".join(op)]
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (ref["rc"], ref["sha256"]), op


def test_relation_ops_match_the_benchmark_references(capsys):
    # every relation and psi op of the benchmark domains, run in-process:
    # stdout sha256 and exit code as recorded in bench/refs.json
    ops = _bench_module("ops")
    refs = json.loads((BENCH / "refs.json").read_text())
    checked = 0
    for op in ops.relation_domain() + ops.psi_domain():
        _assert_matches_reference(refs, op, *run(capsys, *op[1:]))
        checked += 1
    assert checked == 390


@pytest.mark.parametrize(
    "kind, count",
    [
        ("faber", 6),
        ("crosscheck", 7),
        ("scan", 11),
        ("independence", 74),
        ("coeffs", 100),
        ("verify", 29),
    ],
)
def test_batch_ops_match_the_benchmark_references(capsys, tmp_path, kind, count):
    # every op of the benchmark domains but the relation and psi ops, run
    # in-process: stdout sha256 and exit code as in bench/refs.json.  The
    # coeffs ops share one table cache, as the ops of a benchmark pass do,
    # so each table is computed, written, and served to the smaller requests
    ops = _bench_module("ops")
    refs = json.loads((BENCH / "refs.json").read_text())
    run_independence = _bench_module("independence_op").run
    domain = getattr(ops, f"{kind}_domain")()
    for op in domain:
        if op[0] == "independence":
            code = run_independence(list(op[1:]))
            out = capsys.readouterr().out
        else:
            cache = ("--cache-dir", str(tmp_path)) if kind == "coeffs" else ()
            code, out = run(capsys, *op[1:], *cache)
        _assert_matches_reference(refs, op, code, out)
    assert len(domain) == count


@pytest.mark.parametrize(
    "g, sha256",
    [
        (24, "b5c50e650cc6d07f8f89d1e90da1718170ea285f60c1c743df1c3693711ccd91"),
        (27, "0c89a2285e7c2eec596168aede76ca4a3224e58d507a9100ee6f958a333b3f4f"),
    ],
)
def test_faber_bytes_past_the_benchmark_genera(capsys, g, sha256):
    # bench/refs.json pins faber through g = 23 only; these digests come
    # from the cached-power substitute, before the peel
    code, out = run(capsys, "faber", "--g", str(g), "--rewrite")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, sha256)


# ----------------------------------------------------------- the parser

_R = ["relation", "--g", "8", "--d", "2"]
_C = ["coeffs", "--table", "q", "--max-k", "3"]

# argvs the parser accepts: the = form, unique prefixes, any order, the
# last of a repeated option, negative numbers as values, and ints as int()
# reads them
_ACCEPTED = [
    ["relation", "--g=8", "--d=2"],
    _R + ["--b", "-0"],
    _C + ["--format=csv"],
    _C + ["--cache-dir=x"],
    _C + ["--cache-dir="],
    _C + ["--cache-dir", "-1"],
    _C + ["--cache-dir", "-.5"],
    _C + ["--cache-dir", "-x y"],
    ["coeffs", "--t", "q", "--m", "5", "--c", "x"],
    ["coeffs", "--tab", "p", "--max", "5", "--f", "csv"],
    ["scan", "--max", "5"],
    ["scan", "--m=5"],
    ["faber", "--g", "8", "--r"],
    _R + ["--ps"],
    ["verify", "--s", "all", "--o", "4"],
    ["relation", "--d", "2", "--g", "8"],
    ["faber", "--rewrite", "--g", "8"],
    _R + ["--g", "9"],
    _R + ["--b", "1", "--b", "2"],
    _R + ["--psi", "--psi"],
    _C + ["--format", "csv", "--format", "json"],
    ["relation", "--g", " 8", "--d", "+2"],
    ["relation", "--g", "1_0", "--d", "2"],
    ["relation", "--g", "\u0668", "--d", "2"],
]

# help at the top level and after a command, before any later error
_HELP = [
    ["--help"],
    ["-h"],
    ["--he"],
    ["relation", "--help"],
    ["relation", "-h"],
    _R + ["--h"],
    ["--bogus", "relation", "--help"],
    ["relation", "--bogus", "--help"],
    ["relation", "--help", "--g", "x"],
]

# argvs that exit 2, one or more per kind of failure
_MALFORMED = [
    [],  # no command
    ["--bogus"],
    ["nope"],  # unknown command
    ["rel", "--g", "8", "--d", "2"],
    ["5", "relation"],
    [""],
    ["-", "relation"],
    ["relation", "--g", "8"],  # missing option
    ["relation"],
    ["coeffs"],
    ["relation", "-g", "8", "--d", "2"],
    ["relation", "--G", "8", "--d", "2"],
    ["relation", "--g"],  # missing value
    _R + ["--b"],
    ["relation", "--g", "--d", "2"],
    _C + ["--cache-dir", "--format"],  # a value that looks like an option
    _C + ["--cache-dir", "-x"],
    _C + ["--cache-dir", "--"],
    _C + ["--cache-dir", "-5."],
    ["relation", "--g", "-1_0", "--d", "2"],
    _R + ["--b", "-1e3"],
    _R + ["--bogus"],  # unknown option
    _R + ["--bogus=3"],
    _R + ["--bogus", "3"],
    _R + ["---b", "3"],
    _R + ["--B", "1"],
    ["--bogus", "relation", "--g", "8", "--d", "2"],
    ["relation", "--g", "x", "--d", "2"],  # bad int
    _R + ["--b", "1.5"],
    _R + ["--b", "-1.5"],
    _R + ["--b", "- 1"],
    ["relation", "--g", "8", "--g", "x", "--d", "2"],
    ["coeffs", "--table", "z", "--max-k", "3"],  # bad choice
    _C + ["--format", "xml"],
    ["verify", "--suite", "nope", "--order", "3"],
    ["coeffs", "--table=", "--max-k", "3"],
    _R + ["--psi=1"],  # a flag given =value
    _R + ["--psi="],
    ["faber", "--g", "8", "--rewrite=yes"],
    ["--help=1"],
    _R + ["--he=1"],
    _R + ["x"],  # a stray positional
    _R + ["-"],
    _R + [""],
    ["relation", "x", "--g", "8", "--d", "2"],
    ["scan", "--max-a", "5", "extra"],
    _R + ["--"],  # everything from -- on is positional
    ["relation", "--", "--g", "8", "--d", "2"],
    ["relation", "--g", "--", "8", "--d", "2"],
    _R + ["--", "--help"],
    ["relation", "--g", "x", "--help"],  # an error before --help
    ["relation", "--g", "--help"],
    ["--=x", "--help"],
    ["relation", "--g=8", "--d=2", "--b=-1"],  # read, then refused by the range checks
    _R + ["--b", "-1"],
    ["verify", "--suite", "all", "--order", "2", "--order", "1"],
    ["coeffs", "--table", "q", "--max-k", "-1"],
    ["coeffs", "--table", "alpha", "--max-k", "0"],
    ["verify", "--suite", "ode", "--order", "1"],
    ["relation", "--g", "5", "--d", "2", "--b", "3", "--psi"],
    ["faber", "--g", "1"],
    ["scan", "--max-a", "0"],
]


def _new_parse(argv):
    args = cli._parse(argv)
    cli._validate(args)
    attrs = dict(vars(args))
    assert attrs.pop("func") is cli._COMMANDS[args.command][0]
    return attrs


def _outcome(parse, argv, capsys):
    """The attributes read from ``argv``, or the exit code, with stdout and stderr."""
    try:
        result = parse(list(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def _assert_parses_as_argparse_did(argv, capsys):
    ref = _outcome(ref_parse_args, argv, capsys)[0]
    new, out, err = _outcome(_new_parse, argv, capsys)
    assert new == ref, argv
    if new == 2:
        lines = err.splitlines()
        assert out == "" and len(lines) == 2, argv
        assert lines[0].startswith("usage: tautrel ") and lines[1].startswith("tautrel"), argv
        assert ": error: " in lines[1], argv
    elif new == 0:
        assert out.startswith("usage: tautrel ") and err == "", argv
    return new


def test_parser_reads_every_benchmark_argv_as_argparse_did(capsys):
    refs = json.loads((BENCH / "refs.json").read_text())
    argvs = [key.split()[1:] for key in refs if key.startswith("cli ")]
    assert len(argvs) == 543
    for argv in argvs:
        assert isinstance(_assert_parses_as_argparse_did(argv, capsys), dict), argv


@pytest.mark.parametrize(
    "argv, expect",
    [(argv, "read") for argv in _ACCEPTED]
    + [(argv, 0) for argv in _HELP]
    + [(argv, 2) for argv in _MALFORMED],
    ids=lambda value: " ".join(value) or "(none)" if isinstance(value, list) else None,
)
def test_parser_reads_each_form_as_argparse_did(argv, expect, capsys):
    result = _assert_parses_as_argparse_did(argv, capsys)
    assert isinstance(result, dict) if expect == "read" else result == expect


def test_help_lists_every_command_and_option(capsys):
    code, out, _ = _outcome(main, ["--help"], capsys)
    assert code == 0
    for name, (_, line, _) in cli._COMMANDS.items():
        assert f"  {name}" in out and line in out
    for name, (_, line, options) in cli._COMMANDS.items():
        code, out, _ = _outcome(main, [name, "--help"], capsys)
        assert code == 0 and line in out
        assert all(opt in out.splitlines()[0] for opt in options)
