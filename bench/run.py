"""tautrel benchmark: fresh-process CLI workloads with byte-checked outputs.

Usage (from the root of a checkout):

    python3 bench/run.py --workload faber_deep|relation_grid|tables_verify \\
        --seed N --seconds S --trace 0|1

One client runs one op at a time (closed loop), each op as a fresh
``python -m tautrel.cli ...`` process (or the benchmark's own
independence op), so no memo survives between ops.  The seed fixes
the op list of a pass; passes repeat the list while ``--seconds`` allow,
and at least one runs.  Every op's exit code and stdout sha256 must
match ``refs.json``; the run exits 1 when any op differs.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes whose ops run under the tracer and reports
the per-layer metrics.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import ops as oplists
from runner import (
    BENCH,
    PROBE_ARGV,
    PROBE_REF_S,
    ROOT,
    OpTimeout,
    check,
    op_argv,
    run_process,
    tautrel_env,
)
from tracer import COUNT_NAMES, TABLE_BUILDERS

SAMPLE_POINTS_PER_PASS = 8  # points in a pass where set-up and probe samples are taken
PROBES_PER_POINT = 3
RUN_LIMIT_S = 170.0  # every op is stopped in time for the run to end within 180 s

SELF_LAYERS = (
    "tautring.substitute",
    "tautring.mul",
    "tautring.add",
    "tautring.kappa_exponential",
    "tautring.extract",
    "tautring.json",
    "relations.faber_solve",
    "relations.independence_report",
    "relations.rank_exact",
    "relations.scan_nonvanishing",
    "coeffs.build_q_table",
    "coeffs.build_c_table",
    "coeffs.solve_series_ode",
    "coeffs.verify_coeff_identities",
    "coeffs.closed_forms",
    "coeffs.ode_residual",
    "series.UniSeries.mul",
    "series.UniSeries.exp",
    "series.BiSeries.mul",
    "exact.bernoulli_table",
    "cli.main",
)
CALL_LAYERS = ("tautring.substitute", "tautring.extract", "series.BiSeries.mul")
COUNT_LAYER = {
    "tautring.substitute.terms_out": "tautring.substitute",
    "tautring.coeff_bits_max": "tautring.substitute",
    "tautring.mul.term_pairs": "tautring.mul",
    "tautring.add.calls": "tautring.add",
    "tautring.kappa_exponential.cells": "tautring.kappa_exponential",
    "tautring.kappa_exponential.terms": "tautring.kappa_exponential",
    "tautring.json.bytes": "tautring.json",
}
COUNT_UNIT = {"tautring.json.bytes": "B", "tautring.coeff_bits_max": "bit"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# passes

class Run:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.start = perf_counter()
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.env = tautrel_env()
        self.refs = load_refs()
        try:
            self.ops = oplists.op_list(workload, seed, self.refs)
        except KeyError as exc:
            raise BenchError(f"op without a reference: {exc}") from exc
        self.tmp_root = ROOT / ".bench_tmp"
        self.tmp_root.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=self.tmp_root))
        self.attempted = 0
        self.failures: list[str] = []
        self.op_walls: list[float] = []
        self.setup_walls: list[float] = []
        self.probe_walls: list[float] = []

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp_root.rmdir()
        except OSError:
            pass

    def remaining(self) -> float:
        return RUN_LIMIT_S - (perf_counter() - self.start)

    def run_op(self, argv: list[str], what: str) -> tuple[int, bytes, float, float]:
        timeout = self.remaining()
        if timeout <= 1:
            raise OpTimeout(f"no time left for {what}")
        rc, out, err, wall, rss_mb = run_process(argv, self.env, timeout)
        if rc != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-1:]
            if tail:
                print(f"note: {what} exited {rc}: {tail[0]}", file=sys.stderr)
        return rc, out, wall, rss_mb

    def setup_sample(self) -> float:
        """Start, import tautrel and exit with no work."""
        rc, _, wall, _ = self.run_op([sys.executable, "-m", "tautrel.cli", "--help"], "tautrel.cli --help")
        if rc != 0:
            raise BenchError("python -m tautrel.cli --help failed; is src/tautrel present?")
        return wall

    def one_pass(self, traced: bool = False, sample: bool = False) -> tuple[float, float, list[dict]]:
        """Run the op list once: (sum of op walls, elapsed seconds, per-op records).

        With ``sample``, a set-up sample and a few probe samples are taken
        before every few ops, so samples and ops see the same mix of host
        speeds.  The pass wall is the sum of op walls, which leaves the
        samples out.
        """
        pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=self.tmp))
        cache_dir = pass_dir / "cache"
        sample_every = max(1, len(self.ops) // SAMPLE_POINTS_PER_PASS)
        records = []
        t0 = perf_counter()
        for i, op in enumerate(self.ops):
            if sample and i % sample_every == 0:
                self.setup_walls.append(self.setup_sample())
                for _ in range(PROBES_PER_POINT):
                    self.probe_walls.append(self.run_op(PROBE_ARGV, "probe")[2])
            trace_out = pass_dir / f"trace-{i}.json" if traced else None
            key = oplists.ref_key(op)
            rc, out, wall, rss_mb = self.run_op(op_argv(op, cache_dir, trace_out), key)
            self.attempted += 1
            problem = check(self.refs[key], rc, out)
            if problem:
                self.failures.append(f"{' '.join(op)}: {problem}")
            rec = {"op": op, "wall": wall, "rss_mb": rss_mb, "stdout_bytes": len(out)}
            if traced:
                rec["trace"] = json.loads(trace_out.read_text()) if trace_out.exists() else None
            records.append(rec)
        elapsed = perf_counter() - t0
        shutil.rmtree(pass_dir, ignore_errors=True)
        return sum(r["wall"] for r in records), elapsed, records

    def fits(self, loop_start: float, next_pass: float) -> bool:
        """Whether a pass of this length started now still ends within --seconds."""
        return perf_counter() - loop_start + next_pass <= self.seconds


def load_refs() -> dict:
    path = BENCH / "refs.json"
    if not (ROOT / "src" / "tautrel" / "cli.py").is_file():
        raise BenchError(f"no tautrel sources under {ROOT / 'src'}")
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# metrics

def tail_percentile(samples: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            cut = quantiles(samples, n=1000, method="inclusive")
            return f"p{p:g}", cut[round(p * 10) - 1]
    return None


def end_to_end(run: Run) -> tuple[dict, dict, dict]:
    """Timings at the reference host speed, their sample counts, and raw values.

    Each timing is scaled by speed_factor = PROBE_REF_S / (median probe
    wall of this run).  Host speed drifts for minutes at a time; the probe
    and the ops drift together, so the scaled timings hold steady where
    the measured ones do not.
    """
    run.setup_sample()  # warm-up: the first start may compile bytecode
    loop_start = perf_counter()
    passes, elapsed, rss = [], [], []
    while True:
        wall, took, records = run.one_pass(sample=True)
        passes.append(wall)
        elapsed.append(took)
        run.op_walls += [r["wall"] for r in records]
        rss += [r["rss_mb"] for r in records]
        if not run.fits(loop_start, median(elapsed)):
            break
    measured = {
        "wall_s": median(passes),
        "op_p50_s": median(run.op_walls),
        "setup_s": median(run.setup_walls),
    }
    factor = PROBE_REF_S / median(run.probe_walls)
    metrics = {name: (value * factor, "s") for name, value in measured.items()}
    metrics["peak_rss_mb"] = (max(rss), "MB")
    samples = {
        "wall_s": f"{len(passes)} passes",
        "op_p50_s": f"{len(run.op_walls)} ops",
        "setup_s": f"{len(run.setup_walls)} processes",
        "peak_rss_mb": f"{len(rss)} ops",
    }
    speed = {
        "measured": measured,
        "probe_s": median(run.probe_walls),
        "probe_samples": len(run.probe_walls),
        "speed_factor": factor,
    }
    return metrics, samples, speed


def _pass_layers(records: list[dict]) -> dict:
    """Sum the traces of one traced pass: layer spans, counts and cache hits."""
    traces = [r["trace"] for r in records]
    if any(t is None for t in traces):
        raise BenchError("a traced op wrote no trace")
    spans: dict[str, list] = {}
    counts = dict.fromkeys(COUNT_NAMES, 0)
    lookups = hits = 0
    for rec, t in zip(records, traces):
        for layer, (calls, total, self_s) in t["spans"].items():
            acc = spans.setdefault(layer, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for name, v in t["counts"].items():
            counts[name] = max(counts[name], v) if name == "tautring.coeff_bits_max" else counts[name] + v
        if "--cache-dir" in rec["op"]:
            lookups += 1
            hits += not any(t["spans"].get(b, [0])[0] for b in TABLE_BUILDERS)
    return {
        "spans": spans,
        "counts": counts,
        "lookups": lookups,
        "hits": hits,
        "in_process_s": sum(t["in_process_s"] for t in traces),
        "stdout_bytes": sum(r["stdout_bytes"] for r in records if r["op"][0] == "cli"),
        "absent": sorted({a for t in traces for a in t["absent"]}),
        "warnings": sorted({w for t in traces for w in t["warnings"]}),
    }


def per_layer(run: Run) -> tuple[dict, dict, list[str]]:
    run.setup_sample()  # warm-up: the first start may compile bytecode
    loop_start = perf_counter()
    plain, traced = [], []
    while True:
        wall, took, _ = run.one_pass()
        plain.append(wall)
        wall, took_traced, records = run.one_pass(traced=True)
        traced.append((wall, _pass_layers(records)))
        if not run.fits(loop_start, took + took_traced):
            break
    layers = [lay for _, lay in traced]
    first = layers[0]
    notes = first["absent"] + first["warnings"]
    present = set(first["spans"])
    count_view = [(lay["counts"], {k: v[0] for k, v in lay["spans"].items()}, lay["hits"]) for lay in layers]
    if any(view != count_view[0] for view in count_view[1:]):
        notes.append("counts differ between traced passes of one seed")

    metrics: dict[str, tuple[float, str]] = {}
    for layer in SELF_LAYERS:
        if layer in present:
            metrics[f"{layer}.self_s"] = (median([lay["spans"][layer][2] for lay in layers]), "s")
    for layer in CALL_LAYERS:
        if layer in present:
            metrics[f"{layer}.calls"] = (first["spans"][layer][0], "count")
    for name, layer in COUNT_LAYER.items():
        if layer in present:
            metrics[name] = (first["counts"][name], COUNT_UNIT.get(name, "count"))
    metrics["cli.stdout_bytes"] = (first["stdout_bytes"], "B")
    metrics["cli.cache.lookups"] = (first["lookups"], "count")
    if all(b in present for b in TABLE_BUILDERS):
        ratio = first["hits"] / first["lookups"] if first["lookups"] else 0.0
        metrics["cli.cache.hit_ratio"] = (ratio, "ratio")
    in_process = [lay["in_process_s"] for lay in layers]
    metrics["trace.in_process_s"] = (median(in_process), "s")
    shares = [
        sum(v[2] for k, v in lay["spans"].items() if k.startswith("tautring.")) / lay["in_process_s"]
        for lay in layers
    ]
    metrics["tautring.self_share"] = (median(shares), "ratio")
    metrics["trace.overhead_ratio"] = (median([w for w, _ in traced]) / median(plain), "ratio")
    samples = {"traced passes": len(traced), "untraced passes": len(plain)}
    return metrics, samples, notes


# ---------------------------------------------------------------------------
# run metadata

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(run: Run, trace: bool, samples: dict) -> dict:
    return {
        "workload": run.workload,
        "seed": run.seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "commit": _commit(),
        "ops_per_pass": len(run.ops),
        "ops_run": run.attempted,
        "samples": samples,
    }


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(oplists.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A stopped run still kills its op process and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        run = Run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    notes: list[str] = []
    speed: dict = {}
    try:
        if args.trace:
            metrics, samples, notes = per_layer(run)
        else:
            metrics, samples, speed = end_to_end(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OpTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()

    failed = len(run.failures)
    for line in run.failures[:5]:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"workload {run.workload}  seed {run.seed}  trace {args.trace}  "
          f"{len(run.ops)} ops per pass  {run.attempted} ops run")
    for name, (value, unit) in metrics.items():
        raw = speed.get("measured", {}).get(name)
        as_measured = f"  (measured {raw:.6g} {unit})" if raw is not None else ""
        print(f"  {name:40s} {value:14.6g} {unit:6s} {samples.get(name, '')}{as_measured}")
    if speed:
        print(f"  speed_factor {speed['speed_factor']:.4f} = {PROBE_REF_S} s / median probe "
              f"{speed['probe_s']:.6g} s over {speed['probe_samples']} probes")
    print(f"  {'fail_frac':40s} {failed / run.attempted:14.6g} ratio  {failed}/{run.attempted} ops")
    if not args.trace:
        tail = tail_percentile(run.op_walls)
        if tail:
            print(f"  op_{tail[0]}_s (not gated){'':21s} {tail[1]:14.6g} s      {len(run.op_walls)} ops")
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    meta = metadata(run, bool(args.trace), samples)
    meta["fail_frac"] = failed / run.attempted
    meta.update(speed)
    meta["notes"] = notes
    print(json.dumps({"meta": meta}))
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
