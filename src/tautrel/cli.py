"""Command-line front end: a table-driven parser and one handler per subcommand.

Exit codes: 0 success, 1 a mathematical check failed, 2 usage error.

A fresh process compiles what it imports, so the parser imports nothing
(argparse cost a process about 7 ms) and each handler only what it runs:
``--help`` and usage errors load no library module, ``relation`` loads
``tables`` and ``tautring``, ``faber`` and ``scan`` add ``relations``,
and only ``coeffs`` loads ``tableio``, the table writers and the cache.
No module imports this one, so ``python -m tautrel.cli`` runs it once.
"""

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

    return emit_table(args.table, args.max_k, args.format, args.cache_dir)


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
# command -> (handler, help line, {option: (kind, default)}); a kind is int, str,
# a tuple of choices or bool (a flag), and a default of ... marks a required option
_COMMANDS = {
    "coeffs": (_cmd_coeffs, "emit a coefficient table", {
        "--table": (_TABLE_KINDS, ...), "--max-k": (int, ...),
        "--format": (("json", "csv"), "json"), "--cache-dir": (str, None)}),
    "verify": (_cmd_verify, "run an exact verification suite",
               {"--suite": ((*VERIFY_SUITES, "all"), ...), "--order": (int, ...)}),
    "relation": (_cmd_relation, "extract one relation as canonical JSON",
                 {"--g": (int, ...), "--d": (int, ...), "--b": (int, 0), "--psi": (bool, False)}),
    "faber": (_cmd_faber, "solve for the high kappa classes",
              {"--g": (int, ...), "--rewrite": (bool, False)}),
    "scan": (_cmd_scan, "nonvanishing scan of the fallback coefficients", {"--max-a": (int, ...)}),
}


class _Args:
    """A command line read: ``command``, ``func`` and one attribute per option."""


def _usage(command: str | None = None) -> str:
    if command is None:
        return "usage: tautrel [-h] {" + ",".join(_COMMANDS) + "} ..."
    words = [f"usage: tautrel {command} [-h]"]
    for opt, (kind, default) in _COMMANDS[command][2].items():
        metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else opt[2:].upper()
        word = opt if kind is bool else f"{opt} {metavar.replace('-', '_')}"
        words.append(word if default is ... else f"[{word}]")
    return " ".join(words)


def _error(message: str, command: str | None = None) -> None:
    prog = " ".join(filter(None, ("tautrel", command)))
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _option(token: str, options: dict) -> tuple | None:
    """argparse's reading of ``token``: the option it names, whole or by a unique
    prefix, its kind and its ``=value`` (all None if unknown); or None for a value."""
    name, eq, value = token.partition("=")
    hits = ["--help"] if name == "-h" else [o for o in options if o.startswith(name)]
    if len(hits) == 1 and (name == "-h" or name[:2] == "--"):
        return hits[0], options[hits[0]][0], value if eq else None
    # a value has no leading "-", or is a negative number or holds a space
    number = token[1:].replace(".", "", 1).isdecimal() and token[-1] != "."
    if token[:1] != "-" or token == "-" or token != "--" and (number or " " in token):
        return None
    return None, None, None


def _parse(argv: list[str]) -> _Args:
    """The options in ``argv`` as argparse reads them, or its exit: 0 after help, 2 on error."""
    command, options, given, strays, i = None, {"--help": (bool, False)}, {}, [], 0
    while i < len(argv) and argv[i] != "--":
        token, i = argv[i], i + 1
        read = _option(token, options)
        if read is None and command is None:
            if token not in _COMMANDS:
                _error(f"argument command: choose from {', '.join(_COMMANDS)}")
            command, options = token, {**options, **_COMMANDS[token][2]}
            continue
        opt, kind, value = read or (None, None, None)
        if opt is None:
            strays.append(token)
            continue
        if kind is bool and value is not None:
            _error(f"argument {opt}: ignored explicit argument {value!r}", command)
        if opt == "--help":
            rows = [f"  {name:<10}{line}" for name, (_, line, _) in _COMMANDS.items()]
            print("\n".join([_usage(command), "", *([_COMMANDS[command][1]] if command else rows)]))
            raise SystemExit(0)
        if kind is not bool and value is None:
            if i == len(argv) or _option(argv[i], options):
                _error(f"argument {opt}: expected one argument", command)
            value, i = argv[i], i + 1
        if isinstance(kind, tuple) and value not in kind:
            _error(f"argument {opt}: {value!r} is not one of {', '.join(kind)}", command)
        try:
            given[opt] = True if kind is bool else int(value) if kind is int else value
        except ValueError:
            _error(f"argument {opt}: invalid int value: {value!r}", command)
    missing = [opt for opt, (_, default) in options.items() if default is ... and opt not in given]
    if missing or not command:
        _error("missing " + ", ".join(missing or ["command"]), command)
    if strays or i < len(argv):
        _error(f"unrecognized arguments: {' '.join(strays + argv[i:])}")
    args = _Args()
    for opt, (_, default) in _COMMANDS[command][2].items():
        setattr(args, opt[2:].replace("-", "_"), given.get(opt, default))
    args.command, args.func = command, _COMMANDS[command][0]
    return args


def _validate(args) -> None:
    if args.command == "coeffs":
        if args.max_k < (1 if args.table in ("c", "alpha") else 0):
            _error(f"--max-k {args.max_k} out of range for table {args.table}")
    elif args.command == "verify":
        if args.order < max(VERIFY_SUITES[suite][0] for suite in _suites(args.suite)):
            _error(f"--order {args.order} out of range for suite {args.suite}")
    elif args.command == "relation":
        if args.g < 2 or args.d < 2 or args.b < 0:
            _error("need --g >= 2, --d >= 2, --b >= 0")
        if args.psi and args.b:
            _error("--b does not apply to --psi relations")
    elif args.command == "faber":
        if args.g < 2:
            _error("need --g >= 2")
    elif args.command == "scan":
        if args.max_a < 1:
            _error("--max-a must be >= 1")


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    _validate(args)
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
