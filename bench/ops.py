"""Op domains and the seeded op lists of the three workloads.

An op is a tuple of strings.  Its first element names the process that
runs it: ``"cli"`` for ``python -m tautrel.cli <rest>`` and
``"independence"`` for ``python bench/independence_op.py <g> <a>``.  A
coeffs op that uses the table cache carries ``--cache-dir CACHE``; the
runner replaces ``CACHE`` with a directory that is fresh for each pass.

Every domain is finite, and ``refs.json`` holds the reference exit code,
stdout sha256 and cost of each op in it.  A workload's op list takes one
op from each cost stratum of each kind: the kind's domain is sorted by
reference cost and cut into runs of ``k`` ops, and the seed picks one op
from each run.  Seeds therefore vary which ops run and in what order,
while the total work of a list stays within a few percent across seeds.
Each list also holds, outside the strata, the domain op with the largest
reference RSS.
"""

from __future__ import annotations

import random

CACHE = "CACHE"


def _cli(*args) -> tuple[str, ...]:
    return ("cli",) + tuple(str(a) for a in args)


def faber_domain() -> list[tuple[str, ...]]:
    # g >= 24 is left out: one op alone takes 7-8.5 s.
    return [_cli("faber", "--g", g, "--rewrite") for g in range(18, 24)]


def _relation_pairs():
    for g in range(8, 31):
        for d in range(2, max(2, g // 4) + 1):
            yield g, d


def relation_domain() -> list[tuple[str, ...]]:
    out = []
    for g, d in _relation_pairs():
        for b in range(4):
            x_exp = (g + 1 - 2 * d) if b == 0 else (g + 2 - 2 * d)
            if x_exp >= 0:
                out.append(_cli("relation", "--g", g, "--d", d, "--b", b))
    return out


def psi_domain() -> list[tuple[str, ...]]:
    return [_cli("relation", "--g", g, "--d", d, "--psi") for g, d in _relation_pairs()]


def crosscheck_domain() -> list[tuple[str, ...]]:
    # The only CLI route into extract_relation_from_ode.
    return [_cli("verify", "--suite", "crosscheck", "--order", n) for n in range(8, 15)]


def independence_domain() -> list[tuple[str, ...]]:
    # The only route into rank_exact; g <= 20 keeps each op near 1 s or less.
    return [
        ("independence", str(g), str(a))
        for g in range(10, 21)
        for a in range(g // 2 + 1, g)
    ]


_TABLE_SIZES = {
    "q": range(10, 61, 5),
    "c": range(10, 61, 5),
    "alpha": range(6, 25, 2),
    "p": range(20, 101, 10),
    "bernoulli": range(20, 101, 10),
}


def coeffs_domain() -> list[tuple[str, ...]]:
    return [
        _cli("coeffs", "--table", kind, "--max-k", n, "--format", fmt)
        for kind, sizes in _TABLE_SIZES.items()
        for n in sizes
        for fmt in ("json", "csv")
    ]


def verify_domain() -> list[tuple[str, ...]]:
    orders = {
        "identities": range(8, 25, 2),
        "ode": range(8, 25, 2),
        "genfunc": range(10, 61, 5),
    }
    return [
        _cli("verify", "--suite", suite, "--order", n)
        for suite, ns in orders.items()
        for n in ns
    ]


def scan_domain() -> list[tuple[str, ...]]:
    return [_cli("scan", "--max-a", n) for n in range(10, 61, 5)]


# workload -> [(kind, domain, stratum size k)]
WORKLOADS = {
    "faber_deep": [("faber", faber_domain, 1)],
    "relation_grid": [
        ("relation", relation_domain, 10),
        ("psi", psi_domain, 10),
        ("crosscheck", crosscheck_domain, 3),
        ("independence", independence_domain, 8),
    ],
    "tables_verify": [
        ("coeffs", coeffs_domain, 2),
        ("verify", verify_domain, 2),
        ("scan", scan_domain, 3),
    ],
}


def all_domain_ops() -> list[tuple[str, ...]]:
    """Every op any generator can emit, without cache flags, each once."""
    seen: dict[tuple[str, ...], None] = {}
    for kinds in WORKLOADS.values():
        for _kind, domain, _k in kinds:
            for op in domain():
                seen.setdefault(op, None)
    return list(seen)


def ref_key(op: tuple[str, ...]) -> str:
    """Reference key of an op: the cache flag does not change stdout."""
    parts = list(op)
    if "--cache-dir" in parts:
        i = parts.index("--cache-dir")
        del parts[i : i + 2]
    return " ".join(parts)


def op_list(workload: str, seed: int, refs: dict[str, dict]) -> list[tuple[str, ...]]:
    """The seeded op list of one pass of ``workload``.

    Raises KeyError when an op of the domain has no reference.
    """
    rng = random.Random(f"{workload}:{seed}")
    anchor = memory_anchor(workload, refs)
    ops = [tuple(anchor.split(" "))]
    for kind, domain, k in WORKLOADS[workload]:
        ranked = sorted(
            (op for op in domain() if ref_key(op) != anchor),
            key=lambda op: (refs[ref_key(op)]["cost_s"], op),
        )
        for i in range(0, len(ranked), k):
            op = rng.choice(ranked[i : i + k])
            if kind == "coeffs" and rng.random() < 0.5:
                op = op + ("--cache-dir", CACHE)
            ops.append(op)
    rng.shuffle(ops)
    return ops


def memory_anchor(workload: str, refs: dict[str, dict]) -> str:
    """Reference key of the workload's op with the largest reference RSS.

    Every pass runs it, so peak_rss_mb reads the same worst case whatever
    the seed picks from the strata.
    """
    keys = [ref_key(op) for _, domain, _ in WORKLOADS[workload] for op in domain()]
    return max(keys, key=lambda key: (refs[key]["rss_mb"], key))
