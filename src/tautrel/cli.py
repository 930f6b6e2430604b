"""Command-line front end with canonical JSON/CSV output and a table cache.

Exit codes: 0 success, 1 a mathematical check failed, 2 usage error.
The coefficient-table cache lives under --cache-dir (or TAUTREL_CACHE_DIR);
a cached table built at a larger size serves any smaller request with
byte-identical output.  Each cache file records the row count and sha256
of its body; a file that fails that check is recomputed, never served.

Each subcommand imports the library modules it runs, so ``--help`` and
usage errors load none of them and ``relation`` never loads ``relations``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

CACHE_VERSION = 2
_TABLE_KINDS = ("q", "c", "alpha", "p", "bernoulli")

# verify suite -> (least --order, name of its check in the tautrel namespace).
# A check maps (q, c, order) to (summary, failure messages); the name
# resolves on first use, so only the suites that run load their module.
VERIFY_SUITES = {
    "identities": (1, "verify_coeff_identities"),
    "ode": (2, "ode_check_failures"),
    "genfunc": (1, "genfunc_check"),
    "crosscheck": (2, "cross_pipeline_check"),
}


def _suites(name: str) -> list[str]:
    """The suites that ``verify --suite name`` runs, in table order."""
    return list(VERIFY_SUITES) if name == "all" else [name]


def _json_line(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------------------
# table materialization: rows of (k, j, value) or (k, value) strings

def _table_rows(kind: str, k_max: int) -> list[tuple]:
    if kind == "bernoulli":
        from .exact import bernoulli_table

        b = bernoulli_table(k_max)
        return [(k, str(b[k])) for k in range(k_max + 1)]
    from . import coeffs as co

    if kind == "q":
        q = co.build_q_table(k_max)
        return [(k, j, str(q.get(k, j))) for k in range(k_max + 1) for j in range(k + 1)]
    if kind == "c":
        c = co.build_c_table(co.build_q_table(k_max))
        return [(k, j, str(c.get(k, j))) for k in range(1, k_max + 1) for j in range(k + 1)]
    if kind == "alpha":
        a = co.solve_series_ode(k_max, k_max)
        return [
            (k, j, str(a.get(k, j)))
            for k in range(k_max + 1)
            for j in range(k_max + 1)
        ]
    if kind == "p":
        p = co.p_series(k_max)
        return [(k, str(p.coeff(k))) for k in range(k_max + 1)]
    raise ValueError(f"unknown table kind {kind!r}")


def _rows_to_csv(kind: str, rows: list[tuple]) -> str:
    header = "k,value" if kind in ("p", "bernoulli") else "k,j,value"
    return "\n".join([header] + [",".join(str(x) for x in r) for r in rows])


def _rows_to_json(kind: str, k_max: int, rows: list[tuple]) -> str:
    return _json_line(
        {"table": kind, "k_max": k_max, "entries": [list(r) for r in rows]}
    )


# ---------------------------------------------------------------------------
# disk cache: the CSV dump itself behind one metadata line

def _cache_path(cache_dir: Path, kind: str, k_max: int) -> Path:
    return cache_dir / f"{kind}-{k_max}.csv"


def _cache_meta(kind: str, k_max: int, body: bytes) -> bytes:
    """Metadata line that pins the body: its row count and its sha256."""
    # Imported here, not at the top: hashlib loads OpenSSL, about 3 MB of
    # resident memory that commands without a cache would pay for nothing.
    import hashlib

    rows = body.count(b"\n") - 1  # lines after the header
    digest = hashlib.sha256(body).hexdigest()
    return (
        f"# kind={kind} k_max={k_max} version={CACHE_VERSION}"
        f" rows={rows} sha256={digest}\n"
    ).encode()


def _cache_save(cache_dir: Path, kind: str, k_max: int, rows: list[tuple]) -> None:
    """Write the table beside its final name, then rename it into place.

    The rename is atomic, so a reader sees the old file or the whole new
    one, never a partial write.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    body = (_rows_to_csv(kind, rows) + "\n").encode()
    path = _cache_path(cache_dir, kind, k_max)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(_cache_meta(kind, k_max, body) + body)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def _cache_load(cache_dir: Path, kind: str, k_max: int) -> list[tuple] | None:
    """Smallest cached table of this kind with k_max >= requested, truncated.

    A file of another version is a silent miss.  A file whose metadata
    line does not match its name and body (kind, k_max, row count and
    sha256) is corrupt: it is removed with a warning on stderr and counts
    as a miss, so the caller recomputes and rewrites the table.
    """
    if not cache_dir.is_dir():
        return None
    best: tuple[int, Path] | None = None
    for path in cache_dir.glob(f"{kind}-*.csv"):
        try:
            cached_max = int(path.stem.split("-", 1)[1])
        except ValueError:
            continue
        if cached_max >= k_max and (best is None or cached_max < best[0]):
            best = (cached_max, path)
    if best is None:
        return None
    cached_max, path = best
    meta, _, body = path.read_bytes().partition(b"\n")
    if f"version={CACHE_VERSION}".encode() not in meta.split(b" "):
        return None
    if meta + b"\n" != _cache_meta(kind, cached_max, body):
        print(f"warning: cache file {path} is corrupt; recomputing", file=sys.stderr)
        with contextlib.suppress(OSError):
            path.unlink()
        return None
    rows: list[tuple] = []
    for line in body.decode().splitlines()[1:]:  # skip the header
        parts = line.split(",")
        if len(parts) == 3:
            k, j, v = int(parts[0]), int(parts[1]), parts[2]
            if k <= k_max and j <= k_max:
                rows.append((k, j, v))
        elif len(parts) == 2:
            k, v = int(parts[0]), parts[1]
            if k <= k_max:
                rows.append((k, v))
    return rows


# ---------------------------------------------------------------------------
# subcommands

def _cmd_coeffs(args) -> int:
    cache_dir = args.cache_dir or os.environ.get("TAUTREL_CACHE_DIR")
    rows = None
    if cache_dir:
        try:
            rows = _cache_load(Path(cache_dir), args.table, args.max_k)
        except OSError as exc:
            print(f"error: cache unreadable: {exc}", file=sys.stderr)
            return 2
    if rows is None:
        rows = _table_rows(args.table, args.max_k)
        if cache_dir:
            try:
                _cache_save(Path(cache_dir), args.table, args.max_k, rows)
            except OSError as exc:
                print(f"error: cache unwritable: {exc}", file=sys.stderr)
                return 2
    if args.format == "csv":
        print(_rows_to_csv(args.table, rows))
    else:
        print(_rows_to_json(args.table, args.max_k, rows))
    return 0


def _cmd_verify(args) -> int:
    from . import coeffs as co

    package = sys.modules[__package__]
    q = co.build_q_table(args.order)
    c = co.build_c_table(q)
    failed = False
    for suite in _suites(args.suite):
        summary, failures = getattr(package, VERIFY_SUITES[suite][1])(q, c, args.order)
        for msg in failures:
            print(f"FAIL {suite}: {msg}")
        if not failures:
            print(f"PASS {suite}: {summary}")
        failed = failed or bool(failures)
    return 1 if failed else 0


def _cmd_relation(args) -> int:
    from . import coeffs as co
    from . import tautring as tr

    try:
        n = tr.relation_window(args.g, args.d, args.b, args.psi)
        top = n if args.psi else args.g + 1 + args.b - 2 * args.d  # the relation's degree
        if top > tr.MAX_INDEX:  # no generator index of a relation exceeds its degree
            raise ValueError(f"generator index {top} outside 0..{tr.MAX_INDEX}")
        # The largest exponent a kernel product meets: kappa_1^(n-1) in the
        # exponential's recurrence, and with a second factor the cell itself
        # (kappa_1^n, and psi^n for psi) as an operand of the last product.
        operand = n - 1 if args.b == 0 and not args.psi else n
        if operand > tr.MAX_OPERAND_EXPONENT:
            raise ValueError(
                f"exponent {operand} in a product operand outside 0..{tr.MAX_OPERAND_EXPONENT}"
            )
        q = co.build_q_table(max(n, 1))
        c = co.build_c_table(q)
        if args.psi:
            out = tr.extract_psi_relation(args.g, args.d, q, c)
        else:
            out = tr.extract_relation(args.g, args.d, args.b, q, c)
    except ValueError as exc:  # out of range, or past the kernel's index or exponent range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(tr.relation_json(out))
    return 0


def _cmd_faber(args) -> int:
    from . import coeffs as co
    from . import relations as rel
    from . import tautring as tr

    if args.g - 2 > tr.MAX_INDEX:  # faber solves for kappa_{g-2} last
        print(f"error: generator index {args.g - 2} outside 0..{tr.MAX_INDEX}", file=sys.stderr)
        return 2
    # Each solved kappa_a holds a kappa_1^a term, and substitute passes every
    # term of its operand through the kernel, so the last, a = g-2, must fit.
    if args.g - 2 > tr.MAX_OPERAND_EXPONENT:
        print(
            f"error: exponent {args.g - 2} in a product operand"
            f" outside 0..{tr.MAX_OPERAND_EXPONENT}",
            file=sys.stderr,
        )
        return 2
    q = co.build_q_table(max(args.g, 1))
    c = co.build_c_table(q)
    try:
        exprs = rel.faber_solve(args.g, q, c, rewrite=args.rewrite)
    except rel.FaberConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rewrite = "true" if args.rewrite else "false"
    body = ",".join(f'{{"a":{e.a},"rhs":{tr.terms_json(e.rhs)}}}' for e in exprs)
    print(f'{{"g":{args.g},"rewrite":{rewrite},"expressions":[{body}]}}')
    return 0


def _cmd_scan(args) -> int:
    from . import coeffs as co
    from . import relations as rel

    q = co.build_q_table(args.max_a)
    c = co.build_c_table(q)
    report = rel.scan_nonvanishing(args.max_a, q, c)
    print(_json_line(report.to_obj()))
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tautrel",
        description="Exact kappa-class relation toolkit: tables, checks, extraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="emit a coefficient table")
    p.add_argument("--table", required=True, choices=_TABLE_KINDS)
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("verify", help="run an exact verification suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=(*VERIFY_SUITES, "all"),
    )
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("relation", help="extract one relation as canonical JSON")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--psi", action="store_true")
    p.set_defaults(func=_cmd_relation)

    p = sub.add_parser("faber", help="solve for the high kappa classes")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--rewrite", action="store_true")
    p.set_defaults(func=_cmd_faber)

    p = sub.add_parser("scan", help="nonvanishing scan of the fallback coefficients")
    p.add_argument("--max-a", type=int, required=True)
    p.set_defaults(func=_cmd_scan)
    return parser


def _validate(parser: argparse.ArgumentParser, args) -> None:
    if args.command == "coeffs":
        if args.max_k < (1 if args.table in ("c", "alpha") else 0):
            parser.error(f"--max-k {args.max_k} out of range for table {args.table}")
    elif args.command == "verify":
        if args.order < max(VERIFY_SUITES[suite][0] for suite in _suites(args.suite)):
            parser.error(f"--order {args.order} out of range for suite {args.suite}")
    elif args.command == "relation":
        if args.g < 2 or args.d < 2 or args.b < 0:
            parser.error("need --g >= 2, --d >= 2, --b >= 0")
        if args.psi and args.b:
            parser.error("--b does not apply to --psi relations")
    elif args.command == "faber":
        if args.g < 2:
            parser.error("need --g >= 2")
    elif args.command == "scan":
        if args.max_a < 1:
            parser.error("--max-a must be >= 1")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`tautrel ... | head`): exit 1 quietly, and
        # point stdout at devnull so the flush at interpreter exit is silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
