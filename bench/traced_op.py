"""Run one op in-process under the tracer, in its own fresh process.

Usage: python bench/traced_op.py OUT_JSON KIND ARG...   (src on PYTHONPATH)

KIND is ``cli`` (ARG... is a tautrel command line) or ``independence``
(ARG... is ``G A``).  The op's stdout is passed through unchanged so the
runner checks it against the reference, and its exit code is returned.
The aggregated spans and counts, plus the op's in-process wall time, go
to OUT_JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from time import perf_counter

from tracer import Tracer


def _entry(kind: str):
    if kind == "cli":
        import tautrel.cli

        # looked up at call time, after the tracer has wrapped it
        return lambda args: tautrel.cli.main(args)
    if kind == "independence":
        from independence_op import run

        return run
    raise SystemExit(f"unknown op kind {kind!r}")


def main(argv: list[str]) -> int:
    out_path, kind, args = argv[0], argv[1], argv[2:]
    entry = _entry(kind)
    tracer = Tracer()
    tracer.install()
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = entry(args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        in_process_s = perf_counter() - t0
        tracer.uninstall()
    data = tracer.snapshot()
    data["in_process_s"] = in_process_s
    with open(out_path, "w") as fh:
        json.dump(data, fh)
    sys.stdout.write(buf.getvalue())
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
