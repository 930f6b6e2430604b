"""The snapshot script's reading of bench/run.py output, and the launcher it uses.

No test here runs the benchmark: the bench lines are canned copies of a
real run's last two lines, so a change to their format fails here loudly.
"""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

spec = importlib.util.spec_from_file_location("bench_snapshot", TOOLS / "bench_snapshot.py")
snapshot = importlib.util.module_from_spec(spec)
spec.loader.exec_module(snapshot)

HOST = '"nproc": 2, "cpu_model": "Intel(R) Xeon(R) Processor", "python": "3.11.7", "commit": "efad8b7"'
UNTRACED = "\n".join([
    "workload faber_deep  seed 1  trace 0  6 ops per pass  12 ops run",
    "  wall_s                                          0.756881 s      2 passes",
    '{"meta": {"workload": "faber_deep", "seed": 1, "trace": false, ' + HOST + ', '
    '"ops_per_pass": 6, "ops_run": 12, "samples": {"wall_s": "2 passes", "op_p50_s": "12 ops", '
    '"setup_s": "12 processes", "peak_rss_mb": "12 ops"}, "fail_frac": 0.0, "measured": '
    '{"wall_s": 0.674, "op_p50_s": 0.106, "setup_s": 0.050}, "probe_s": 0.089, '
    '"probe_samples": 18, "speed_factor": 1.1228, "notes": []}}',
    '{"correct": true, "attempted": 12, "failed": 0, "metrics": {"wall_s": {"value": 0.7568, '
    '"unit": "s"}, "op_p50_s": {"value": 0.1194, "unit": "s"}, "setup_s": {"value": 0.0564, '
    '"unit": "s"}, "peak_rss_mb": {"value": 22.527, "unit": "MB"}}}',
])
TRACED = "\n".join([
    "workload tables_verify  seed 1  trace 1  70 ops per pass  140 ops run",
    '{"meta": {"workload": "tables_verify", "seed": 1, "trace": true, ' + HOST + ', '
    '"ops_per_pass": 70, "ops_run": 140, "samples": {"traced passes": 1, "untraced passes": 1}, '
    '"fail_frac": 0.0, "notes": []}}',
    '{"correct": true, "attempted": 140, "failed": 0, "metrics": {"tautring.substitute.self_s": '
    '{"value": 0.0, "unit": "s"}, "coeffs.build_q_table.self_s": {"value": 0.3791, "unit": "s"}, '
    '"tautring.mul.term_pairs": {"value": 0, "unit": "count"}, "tautring.kappa_exponential.cells": '
    '{"value": 225, "unit": "count"}, "cli.cache.hit_ratio": {"value": 0.4615, "unit": "ratio"}}}',
])


def test_untraced_run_keeps_the_four_end_to_end_metrics():
    rec = snapshot.parse_run(UNTRACED)
    assert rec == {
        "workload": "faber_deep", "seed": 1, "trace": False, "commit": "efad8b7",
        "host": {"nproc": 2, "cpu_model": "Intel(R) Xeon(R) Processor", "python": "3.11.7"},
        "speed_factor": 1.1228, "ops_per_pass": 6, "ops_run": 12,
        "samples": {"wall_s": "2 passes", "op_p50_s": "12 ops", "setup_s": "12 processes",
                    "peak_rss_mb": "12 ops"},
        "failed": 0,
        "metrics": {"wall_s": 0.7568, "op_p50_s": 0.1194, "setup_s": 0.0564, "peak_rss_mb": 22.527},
    }


def test_traced_run_keeps_the_layers_that_read_nonzero():
    rec = snapshot.parse_run(TRACED)
    assert rec["trace"] is True and rec["speed_factor"] is None
    assert (rec["ops_per_pass"], rec["ops_run"]) == (70, 140)
    assert rec["metrics"] == {
        "coeffs.build_q_table.self_s": 0.3791,
        "tautring.kappa_exponential.cells": 225,
        "cli.cache.hit_ratio": 0.4615,
    }


def test_launcher_reports_exit_code_stdout_and_peak_rss():
    argv = [sys.executable, "-c", "import sys; sys.stdout.write('x' * 100000); sys.exit(3)"]
    line = subprocess.run([sys.executable, "-S", str(TOOLS / "launch.py"), *argv],
                          capture_output=True, text=True, check=True).stdout
    rec = snapshot.parse_launch(line)
    assert (rec["exit"], rec["stdout_bytes"]) == (3, 100000)
    assert rec["sha256"] == hashlib.sha256(b"x" * 100000).hexdigest()
    assert rec["peak_rss_kib"] > 0 and rec["wall_s"] > 0
