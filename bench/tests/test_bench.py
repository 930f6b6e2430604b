"""Tests of the benchmark itself: op generation, output checks and tracing.

Run from the root of a checkout:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys

import pytest

import ops
import tracer
from runner import ROOT, check, op_argv, run_process, tautrel_env

REFS = json.loads((ROOT / "bench" / "refs.json").read_text())
SEEDS = range(25)


@pytest.mark.parametrize("workload", sorted(ops.WORKLOADS))
def test_same_seed_same_ops(workload):
    assert ops.op_list(workload, 7, REFS) == ops.op_list(workload, 7, REFS)
    lists = {tuple(ops.op_list(workload, s, REFS)) for s in SEEDS}
    assert len(lists) > 1


@pytest.mark.parametrize("workload", sorted(ops.WORKLOADS))
def test_ops_stay_in_domain(workload):
    domain = {op for _, dom, _ in ops.WORKLOADS[workload] for op in dom()}
    sizes = {len(ops.op_list(workload, s, REFS)) for s in SEEDS}
    assert len(sizes) == 1
    anchor = ops.memory_anchor(workload, REFS)
    for s in SEEDS:
        keys = [ops.ref_key(op) for op in ops.op_list(workload, s, REFS)]
        assert keys.count(anchor) == 1
        for op in ops.op_list(workload, s, REFS):
            base = tuple(ops.ref_key(op).split(" "))
            assert base in domain
            assert ops.ref_key(op) in REFS
            if "--cache-dir" in op:
                assert op[1] == "coeffs" and op[-2:] == ("--cache-dir", ops.CACHE)


@pytest.mark.parametrize("workload", sorted(ops.WORKLOADS))
def test_op_list_cost_is_steady_across_seeds(workload):
    totals = [
        sum(REFS[ops.ref_key(op)]["cost_s"] for op in ops.op_list(workload, s, REFS))
        for s in SEEDS
    ]
    assert max(totals) / min(totals) < 1.25


def test_relation_windows_nonnegative():
    for op in ops.relation_domain():
        g, d, b = int(op[3]), int(op[5]), int(op[7])
        assert 8 <= g <= 30 and 2 <= d <= max(2, g // 4) and 0 <= b <= 3
        assert ((g + 1 - 2 * d) if b == 0 else (g + 2 - 2 * d)) >= 0


def test_every_domain_op_has_a_reference():
    keys = {ops.ref_key(op) for op in ops.all_domain_ops()}
    assert keys == set(REFS)


def test_one_changed_stdout_byte_is_caught():
    op = ("cli", "coeffs", "--table", "bernoulli", "--max-k", "20", "--format", "csv")
    rc, out, *_ = run_process(op_argv(op), tautrel_env(), 60)
    ref = REFS[ops.ref_key(op)]
    assert check(ref, rc, out) is None
    for i in (0, len(out) // 2, len(out) - 1):
        bad = out[:i] + bytes([out[i] ^ 1]) + out[i + 1 :]
        assert check(ref, rc, bad) is not None
    assert check(ref, 1, out) is not None


def _traced(op, path):
    rc, out, *_ = run_process(op_argv(op, trace_out=path), tautrel_env(), 120)
    assert check(REFS[ops.ref_key(op)], rc, out) is None
    data = json.loads(path.read_text())
    return data["counts"], {k: v[0] for k, v in data["spans"].items()}, data["absent"]


def test_two_traced_runs_give_identical_counts(tmp_path):
    sample = [
        ("cli", "relation", "--g", "14", "--d", "3", "--b", "2"),
        ("cli", "relation", "--g", "12", "--d", "2", "--psi"),
        ("cli", "verify", "--suite", "crosscheck", "--order", "8"),
        ("independence", "12", "10"),
        ("cli", "faber", "--g", "18", "--rewrite"),
        ("cli", "scan", "--max-a", "10"),
    ]
    seen = {}
    for op in sample:
        seen[op[1]] = _traced(op, tmp_path / "a.json")
        assert seen[op[1]] == _traced(op, tmp_path / "b.json")
        assert seen[op[1]][2] == []
    counts, calls, _ = seen["faber"]
    assert calls["tautring.substitute"] > 0 and counts["tautring.mul.term_pairs"] > 0


def _bindings():
    """Every attribute of every tautrel module and class, by identity."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "tautrel" or name.startswith("tautrel."):
            for attr, value in vars(mod).items():
                seen[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("tautrel"):
                    for cattr, cvalue in vars(value).items():
                        seen[(name, attr, cattr)] = cvalue
    return seen


def test_wrappers_restore_originals():
    import tautrel.cli  # noqa: F401  (cli is not imported by the package)
    from tautrel import relations, tautring

    before = _bindings()
    t = tracer.Tracer()
    t.install()
    assert t.absent == []
    assert relations.kappa_exponential is not before[("tautrel.relations", "kappa_exponential")]
    assert relations.kappa_exponential is tautring.kappa_exponential
    assert tautring.KappaPoly.__mul__ is not before[("tautrel.tautring", "KappaPoly", "__mul__")]
    t.uninstall()
    assert _bindings() == before


def test_spans_give_self_time_and_counts():
    from tautrel import coeffs, relations

    t = tracer.Tracer()
    t.install()
    try:
        q = coeffs.build_q_table(12)
        c = coeffs.build_c_table(q)
        relations.faber_solve(12, q, c)
    finally:
        t.uninstall()
    snap = t.snapshot()
    calls, total, self_s = snap["spans"]["relations.faber_solve"]
    assert calls == 1 and 0 < self_s < total
    assert snap["spans"]["tautring.kappa_exponential"][0] == 1
    assert snap["counts"]["tautring.kappa_exponential.cells"] > 0
    assert snap["counts"]["tautring.coeff_bits_max"] > 0
    # sums made inside substitute are counted but stay in its self time
    assert snap["counts"]["tautring.add.calls"] > snap["spans"]["tautring.add"][0]


def test_missing_target_is_absent_not_fatal(capsys):
    targets = tracer.TARGETS + [("tautring.gone", "tautrel.tautring", "no_such_function", None)]
    t = tracer.Tracer(targets)
    t.install()
    t.uninstall()
    assert t.absent == ["tautrel.tautring.no_such_function"]
    assert "tautring.gone" not in t.snapshot()["spans"]
    assert "no_such_function" in capsys.readouterr().err
