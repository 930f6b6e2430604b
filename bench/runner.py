"""Start op processes the way a user or script starts tautrel, and check them.

Every op runs as a fresh interpreter with the checkout's ``src`` on
PYTHONPATH, because the package is not installed.  Its wall time runs
from process start to exit, and its peak RSS is the kernel's max RSS of
that process alone; its stdout is compared by sha256 with the
reference recorded at the commit that defined the benchmark.
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from ops import CACHE

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def tautrel_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("TAUTREL_CACHE_DIR", None)
    return env


def op_argv(op: tuple[str, ...], cache_dir: Path | None = None, trace_out: Path | None = None) -> list[str]:
    kind, args = op[0], [str(cache_dir) if a == CACHE else a for a in op[1:]]
    if trace_out is not None:
        return [sys.executable, str(BENCH / "traced_op.py"), str(trace_out), kind, *args]
    if kind == "cli":
        return [sys.executable, "-m", "tautrel.cli", *args]
    if kind == "independence":
        return [sys.executable, str(BENCH / "independence_op.py"), *args]
    raise ValueError(f"unknown op kind {kind!r}")


class OpTimeout(RuntimeError):
    pass


def run_process(argv: list[str], env: dict[str, str], timeout: float) -> tuple[int, bytes, bytes, float, float]:
    """(exit code, stdout, stderr, wall seconds, max RSS in MiB) of one process.

    The process is reaped with wait4 so its own peak RSS is known; it is
    killed and reaped if it outlives ``timeout`` or the caller is stopped.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -signal.SIGKILL and wall >= timeout:
        raise OpTimeout(f"{' '.join(argv[1:])} did not finish in {timeout:.0f} s")
    return proc.returncode, out, err[0], wall, usage.ru_maxrss / 1024


# A process that starts the interpreter and imports stdlib modules like
# those the CLI imports, but no tautrel.  Its wall time tracks the host's
# speed, which drifts by tens of percent for minutes at a time on a shared
# machine, and no change to tautrel can move it.
PROBE_ARGV = [
    sys.executable,
    "-c",
    "import argparse, dataclasses, decimal, email.message, fractions, http.client, json, pathlib, statistics, typing",
]
# Median probe wall time, rounded, on the 2-core Xeon host the benchmark
# was defined on: scaled timings read as seconds at that host's speed.
PROBE_REF_S = 0.1


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(ref: dict, rc: int, stdout: bytes) -> str | None:
    """None when the op matched its reference, else what differed."""
    if rc != ref["rc"]:
        return f"exit code {rc}, expected {ref['rc']}"
    if digest(stdout) != ref["sha256"]:
        return f"stdout sha256 differs ({len(stdout)} bytes, expected {ref['bytes']})"
    return None
