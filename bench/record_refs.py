"""Record the reference output of every op any workload can emit.

Usage: python3 bench/record_refs.py   (from the root of a checkout)

Runs each op of every domain twice as a fresh process and writes
bench/refs.json: exit code, stdout sha256 and size, and the faster of the
two wall times (``cost_s``, used to cut domains into cost strata) and
the larger peak RSS (``rss_mb``, used to pick each workload's memory
anchor).
Both runs must print the same bytes.  Each coeffs op also runs with a
fresh --cache-dir, cold then warm, and both must print the reference
bytes, and so must every smaller request served from a cache that holds
the largest table of its kind.  Run it only at a commit whose outputs are known good: the
benchmark fails every op whose output later differs.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from ops import CACHE, all_domain_ops, ref_key
from runner import BENCH, ROOT, digest, op_argv, run_process, tautrel_env

TIMEOUT_S = 600


def record(op: tuple[str, ...], env: dict[str, str], scratch) -> dict:
    runs = [run_process(op_argv(op), env, TIMEOUT_S) for _ in range(2)]
    (rc, out, err, _, _), (rc2, out2, _, _, _) = runs
    if (rc, out) != (rc2, out2):
        raise SystemExit(f"nondeterministic op: {ref_key(op)}")
    if rc != 0:
        print(f"note: {ref_key(op)} exits {rc}: {err.decode()[-200:]}", file=sys.stderr)
    if op[1] == "coeffs":
        cache_dir = tempfile.mkdtemp(dir=scratch)
        cached = op + ("--cache-dir", CACHE)
        for _ in ("cold", "warm"):
            rc3, out3, *_ = run_process(op_argv(cached, cache_dir=cache_dir), env, TIMEOUT_S)
            if (rc3, out3) != (rc, out):
                raise SystemExit(f"cache changes the output of {ref_key(op)}")
        shutil.rmtree(cache_dir)
    return {
        "rc": rc,
        "sha256": digest(out),
        "bytes": len(out),
        "cost_s": round(min(r[3] for r in runs), 4),
        "rss_mb": round(max(r[4] for r in runs), 1),
    }


def check_cross_size(refs: dict, env: dict[str, str], scratch) -> None:
    """A cache filled by the largest table of a kind serves every smaller one."""
    coeffs_ops = [op for op in all_domain_ops() if op[1] == "coeffs"]
    for table in sorted({op[3] for op in coeffs_ops}):
        ops = sorted((op for op in coeffs_ops if op[3] == table), key=lambda op: -int(op[5]))
        cache_dir = tempfile.mkdtemp(dir=scratch)
        for op in ops:
            rc, out, *_ = run_process(op_argv(op + ("--cache-dir", CACHE), cache_dir=cache_dir), env, TIMEOUT_S)
            ref = refs[ref_key(op)]
            if rc != ref["rc"] or digest(out) != ref["sha256"]:
                raise SystemExit(f"a larger cached table changes the output of {ref_key(op)}")
        shutil.rmtree(cache_dir)


def main() -> int:
    env = tautrel_env()
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    refs = {}
    ops = all_domain_ops()
    try:
        for i, op in enumerate(ops, 1):
            refs[ref_key(op)] = record(op, env, scratch)
            print(f"[{i}/{len(ops)}] {ref_key(op)} {refs[ref_key(op)]['cost_s']} s", flush=True)
        check_cross_size(refs, env, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = [f"  {json.dumps(k)}: {json.dumps(refs[k], sort_keys=True)}" for k in sorted(refs)]
    (BENCH / "refs.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
