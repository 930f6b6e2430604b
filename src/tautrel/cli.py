"""Command-line front end: the parser and one handler per subcommand.

Exit codes: 0 success, 1 a mathematical check failed, 2 usage error.

Each handler imports only the modules it runs, since a fresh process
compiles what it imports: ``--help`` and usage errors load no library
module, ``relation`` loads ``tables`` and ``tautring``, ``faber`` and
``scan`` add ``relations``, and only ``coeffs`` loads ``tableio``, the
table writers and the ``--cache-dir`` cache.  No module imports this
one, so ``python -m tautrel.cli`` executes it once.
"""

from __future__ import annotations

import argparse
import os
import sys

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


# ---------------------------------------------------------------------------
# subcommands

def _cmd_coeffs(args) -> int:
    from .tableio import emit_table

    cache_dir = args.cache_dir or os.environ.get("TAUTREL_CACHE_DIR")
    return emit_table(args.table, args.max_k, args.format, cache_dir)


def _cmd_verify(args) -> int:
    from . import tables

    package = sys.modules[__package__]
    q = tables.build_q_table(args.order)
    c = tables.build_c_table(q)
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
    from . import tables
    from . import tautring as tr

    try:
        n = tr.relation_window(args.g, args.d, args.b, args.psi)
        q = tables.build_q_table(max(n, 1))
        c = tables.build_c_table(q)
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
    from . import relations as rel
    from . import tables
    from . import tautring as tr

    if args.g - 2 > args.g // 3:  # faber solves for kappa_{g-2} last
        try:
            rel.faber_choose(args.g, args.g - 2)
        except ValueError as exc:  # past the kernel's index or exponent range
            print(f"error: {exc}", file=sys.stderr)
            return 2
    q = tables.build_q_table(max(args.g, 1))
    c = tables.build_c_table(q)
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
    import json

    from . import relations as rel
    from . import tables

    q = tables.build_q_table(args.max_a)
    c = tables.build_c_table(q)
    report = rel.scan_nonvanishing(args.max_a, q, c)
    print(json.dumps(report._asdict(), separators=(",", ":")))
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
    # exact values print and parse whole: lift the int<->str digit cap for this call
    cap = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    try:
        if cap is not None:
            sys.set_int_max_str_digits(0)
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`tautrel ... | head`): exit 1 quietly, and
        # point stdout at devnull so the flush at interpreter exit is silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)
    return code


if __name__ == "__main__":
    sys.exit(main())
