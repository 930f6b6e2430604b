"""Independence op: rank all relations of one weighted degree in one genus.

Usage: python bench/independence_op.py G A   (with src on PYTHONPATH)

Prints the independence report as one line of canonical JSON and exits 0
when the nonzero relations are independent, 1 otherwise.  Library calls
go through module attributes so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import sys


def run(args: list[str]) -> int:
    from tautrel import coeffs, relations

    g, a = int(args[0]), int(args[1])
    q = coeffs.build_q_table(g)
    c = coeffs.build_c_table(q)
    rep = relations.independence_report(g, a, q, c)
    obj = {"g": rep.g, "a": rep.a, "pairs": rep.pairs, "n_nonzero": rep.n_nonzero, "rank": rep.rank}
    print(json.dumps(obj, separators=(",", ":")))
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
