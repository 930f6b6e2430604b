"""In-process spans around tautrel's public functions, from outside the package.

``Tracer.install()`` wraps each function named in ``TARGETS`` at every
site that binds it: the defining module, every tautrel module that
imported it by name, and the class for methods.  Each wrapper records a
span on a stack; a span's self time is its duration minus the time
covered by its child spans, and the wrappers' own bookkeeping is charged
to no layer.  Polynomial products and sums made by ``substitute`` are its
inner loop and stay in its self time (see ``INLINE``).  Spans are aggregated in memory by layer name (calls, total
and self seconds) plus the counts below, and written out once at the end
of the op.  ``uninstall()`` puts every original object back.

A target that no longer exists is skipped with a warning and listed in
``absent``; its metrics are then reported as absent, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
from time import perf_counter


def _count_substitute(counts, args, kwargs, result):
    counts["tautring.substitute.terms_out"] += len(result.terms)
    bits = counts["tautring.coeff_bits_max"]
    for v in result.terms.values():
        bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    counts["tautring.coeff_bits_max"] = bits


def _count_mul(counts, args, kwargs, result):
    counts["tautring.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _count_add(counts, args, kwargs, result):
    counts["tautring.add.calls"] += 1


def _count_exponential(counts, args, kwargs, result):
    counts["tautring.kappa_exponential.cells"] += len(result.cells)
    counts["tautring.kappa_exponential.terms"] += sum(len(p.terms) for p in result.cells.values())


def _count_json(counts, args, kwargs, result):
    counts["tautring.json.bytes"] += len(result.encode())


# (layer name, module, qualified name, counter or None)
TARGETS = [
    ("tautring.substitute", "tautrel.tautring", "KappaPoly.substitute", _count_substitute),
    ("tautring.mul", "tautrel.tautring", "KappaPoly.__mul__", _count_mul),
    ("tautring.add", "tautrel.tautring", "KappaPoly.__add__", _count_add),
    ("tautring.kappa_exponential", "tautrel.tautring", "kappa_exponential", _count_exponential),
    ("tautring.extract", "tautrel.tautring", "extract_relation", None),
    ("tautring.extract", "tautrel.tautring", "extract_psi_relation", None),
    ("tautring.extract", "tautrel.tautring", "extract_relation_from_ode", None),
    ("tautring.json", "tautrel.tautring", "relation_json", _count_json),
    ("tautring.json", "tautrel.tautring", "terms_json", None),
    ("relations.faber_solve", "tautrel.relations", "faber_solve", None),
    ("relations.independence_report", "tautrel.relations", "independence_report", None),
    ("relations.rank_exact", "tautrel.relations", "rank_exact", None),
    ("relations.scan_nonvanishing", "tautrel.relations", "scan_nonvanishing", None),
    ("coeffs.build_q_table", "tautrel.coeffs", "build_q_table", None),
    ("coeffs.build_c_table", "tautrel.coeffs", "build_c_table", None),
    ("coeffs.solve_series_ode", "tautrel.coeffs", "solve_series_ode", None),
    ("coeffs.p_series", "tautrel.coeffs", "p_series", None),
    ("coeffs.verify_coeff_identities", "tautrel.coeffs", "verify_coeff_identities", None),
    ("coeffs.closed_forms", "tautrel.coeffs", "expand_closed_form", None),
    ("coeffs.closed_forms", "tautrel.coeffs", "expand_w_deriv_closed", None),
    ("coeffs.ode_residual", "tautrel.coeffs", "ode_residual", None),
    ("series.UniSeries.mul", "tautrel.series", "UniSeries.__mul__", None),
    ("series.UniSeries.exp", "tautrel.series", "UniSeries.exp", None),
    ("series.BiSeries.mul", "tautrel.series", "BiSeries.__mul__", None),
    ("exact.bernoulli_table", "tautrel.exact", "bernoulli_table", None),
    ("cli.main", "tautrel.cli", "main", None),
]

# Calls of these layers made directly by the named layer are its inner loop:
# they stay in that layer's self time and open no span, but are still counted.
INLINE = {"tautring.mul": "tautring.substitute", "tautring.add": "tautring.substitute"}

# A coeffs op that calls none of these served its table from the cache.
TABLE_BUILDERS = (
    "coeffs.build_q_table",
    "coeffs.build_c_table",
    "coeffs.solve_series_ode",
    "coeffs.p_series",
    "exact.bernoulli_table",
)


def _import_package(name: str = "tautrel") -> list:
    """The package and every submodule that imports, so all bindings are seen."""
    pkg = importlib.import_module(name)
    mods = [pkg]
    for info in pkgutil.walk_packages(pkg.__path__, name + "."):
        try:
            mods.append(importlib.import_module(info.name))
        except ImportError as exc:
            print(f"warning: cannot import {info.name}: {exc}", file=sys.stderr)
    return mods


COUNT_NAMES = (
    "tautring.substitute.terms_out",
    "tautring.coeff_bits_max",
    "tautring.mul.term_pairs",
    "tautring.add.calls",
    "tautring.kappa_exponential.cells",
    "tautring.kappa_exponential.terms",
    "tautring.json.bytes",
)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: dict[str, list] = {}  # layer -> [calls, total_s, self_s]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.absent: list[str] = []
        self.warnings: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, fn, counter):
        spans = self.spans.setdefault(layer, [0, 0.0, 0.0])
        stack = self._stack
        counts = self.counts
        warnings = self.warnings
        inline_in = INLINE.get(layer)

        def count(args, kwargs, result):
            try:
                counter(counts, args, kwargs, result)
            except (AttributeError, TypeError) as exc:
                warnings.append(f"{layer}: count skipped ({exc})")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inline_in is not None and stack and stack[-1][1] == inline_in:
                result = fn(*args, **kwargs)
                if counter is not None:
                    t_c = perf_counter()
                    count(args, kwargs, result)
                    stack[-1][0] += perf_counter() - t_c
                return result
            t_in = perf_counter()
            frame = [0.0, layer]  # seconds covered by child spans, layer
            stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[0] += 1
                spans[1] += t1 - t0
                spans[2] += (t1 - t0) - frame[0]
                if ok and counter is not None:
                    count(args, kwargs, result)
                if stack:
                    stack[-1][0] += perf_counter() - t_in
            return result

        return wrapper

    def install(self) -> None:
        modules = _import_package()
        for layer, modname, qualname, counter in self.targets:
            mod = sys.modules.get(modname)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = vars(owner).get(attr) if owner is not None else None
            if not inspect.isfunction(orig):
                self.absent.append(f"{modname}.{qualname}")
                continue
            wrapped = self._wrap(layer, orig, counter)
            if owner_name:
                self._patch(owner, attr, wrapped)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, name, wrapped)
        for name in self.absent:
            print(f"warning: trace target {name} not found; its metrics are absent", file=sys.stderr)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
            "absent": list(self.absent),
            "warnings": sorted(set(self.warnings)),
        }

