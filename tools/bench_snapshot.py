"""Write a BENCH_<pr>.json snapshot of this checkout's speed and memory.

    python3 tools/bench_snapshot.py BENCH_<pr>.json

It runs ``bench/run.py`` on each workload at seeds 1..3 untraced, and once
traced, and keeps the last two stdout lines of each run: the ``meta`` line
and the result line.  Then it runs the CLI command set in fresh processes,
round-robin, each under ``tools/launch.py``, and records the best and median
wall time, the stdout sha256 and the child's peak RSS.  It only reads what
those print, and it edits nothing under ``bench/``.  It takes about ten
minutes on a 2-core host.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("faber_deep", "relation_grid", "tables_verify")
SEEDS = (1, 2, 3)
SECONDS = 40
END_TO_END = ("wall_s", "op_p50_s", "setup_s", "peak_rss_mb")
CLI_REPEATS = 5
CLI_SET = (
    "coeffs --table q --max-k 60 --format csv",
    "coeffs --table alpha --max-k 24",
    "verify --suite all --order 24",
    "verify --suite crosscheck --order 14",
    "scan --max-a 60",
    "relation --g 30 --d 3 --b 2",
    "relation --g 20 --d 2 --psi",
    "faber --g 24 --rewrite",
    "faber --g 27 --rewrite",
    "faber --g 30 --rewrite",
    "faber --g 33 --rewrite",
)


def parse_run(stdout: str) -> dict:
    """One ``bench/run.py`` run, read from its last two stdout lines.

    An untraced run keeps the four end-to-end metrics; a traced run keeps
    the per-layer metrics that read nonzero.
    """
    *_, meta_line, result_line = stdout.strip().splitlines()
    meta = json.loads(meta_line)["meta"]
    result = json.loads(result_line)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if meta["trace"]:
        metrics = {name: v for name, v in metrics.items() if v}
    else:
        metrics = {name: metrics[name] for name in END_TO_END}
    return {
        "workload": meta["workload"],
        "seed": meta["seed"],
        "trace": meta["trace"],
        "commit": meta["commit"],
        "host": {key: meta[key] for key in ("nproc", "cpu_model", "python")},
        "speed_factor": meta.get("speed_factor"),
        "ops_per_pass": meta["ops_per_pass"],
        "ops_run": meta["ops_run"],
        "samples": meta["samples"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def parse_launch(line: str) -> dict:
    """One ``tools/launch.py`` report line."""
    code, size, sha256, kib, wall = line.split()
    return {"exit": int(code), "stdout_bytes": int(size), "sha256": sha256,
            "peak_rss_kib": int(kib), "wall_s": float(wall)}


def bench_run(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    print(" ".join(argv[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1 still prints a result, with its failed ops
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return parse_run(proc.stdout)


def cli_rows() -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    launch = [sys.executable, "-S", str(ROOT / "tools" / "launch.py"), sys.executable, "-m", "tautrel.cli"]
    runs: dict[str, list[dict]] = {command: [] for command in CLI_SET}
    for _ in range(CLI_REPEATS):
        for command in CLI_SET:
            out = subprocess.run([*launch, *command.split()], env=env, capture_output=True,
                                 text=True, check=True).stdout
            runs[command].append(parse_launch(out))
    rows = []
    for command, samples in runs.items():
        outputs = {(s["exit"], s["stdout_bytes"], s["sha256"]) for s in samples}
        if len(outputs) != 1:
            raise SystemExit(f"{command}: stdout differs between runs")
        (code, size, sha256), = outputs
        walls = [s["wall_s"] for s in samples]
        rows.append({"command": command, "exit": code, "stdout_bytes": size, "sha256": sha256,
                     "best_s": min(walls), "median_s": median(walls),
                     "peak_rss_kib": max(s["peak_rss_kib"] for s in samples)})
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    runs = [bench_run(w, seed, 0) for seed in SEEDS for w in WORKLOADS]
    runs += [bench_run(w, SEEDS[0], 1) for w in WORKLOADS]
    snapshot = {
        "bench_seconds": SECONDS,
        "runs": runs,
        "cli": {"repeats": CLI_REPEATS, "launcher": "python -S tools/launch.py", "rows": cli_rows()},
    }
    Path(argv[0]).write_text(json.dumps(snapshot, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
