"""Spans around monospec's public functions, kept in memory for the traced run.

The package is instrumented from outside: each function listed in `SPANS` is
replaced, in every loaded `monospec.*` module that binds it, by a wrapper that
records a span (name, start, end, parent span, item id).  A layer's self time
is its spans' durations minus the parts their child spans cover.

Layer counts are computed from each call's arguments and result only, never
from the package's internals, so they repeat exactly for a seed and keep their
meaning when an algorithm behind the call changes.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def _arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _brute(args, kwargs, spec):
    return {"spectrum.brute_subsets": 2 ** (_arg(args, kwargs).size - 1),
            "spectrum.brute_primes": len(spec.points)}


VERIFY_SUITES = ("three_routes", "theta", "alpha_suite", "naturality", "grillet",
                 "power_submonoid", "duals", "limits", "adjoints", "module_invariants")

#: (module, function, self-time metric, counts from (args, kwargs, result))
SPANS = [
    ("cli", "main", "cli.self_s", None),
    ("core", "parse_monoid_table", "core.parse_monoid_table_s",
     lambda a, k, M: {"core.validate_triples": M.size ** 3}),
    ("spectrum", "primes_bruteforce", "spectrum.primes_bruteforce_s", _brute),
    ("spectrum", "homs_to_I", "spectrum.homs_to_I_s",
     lambda a, k, homs: {"spectrum.hom_count": len(homs)}),
    ("spectrum", "spec_monoid", "spectrum.spec_monoid_s", None),
    ("spectrum", "spec_presentation", "spectrum.spec_presentation_s", None),
    ("congruence", "sl_reflection", "congruence.sl_reflection_s",
     lambda a, k, r: {"congruence.merges": _arg(a, k).size - r[0].size}),
    ("presentation", "parse_presentation", "presentation.parse_presentation_s", None),
    ("presentation", "free_semilattice", "presentation.free_semilattice_s",
     lambda a, k, F: {"presentation.free_cells": F.size ** 2}),
    ("presentation", "sl_of_presentation", "presentation.sl_of_presentation_s",
     lambda a, k, r: {"presentation.reflection_size": r[0].size,
                      "congruence.merges": 2 ** len(_arg(a, k).generators) - r[0].size}),
    ("limits", "subsemilattices", "limits.subsemilattices_s", None),
    ("limits", "profinite_system", "limits.profinite_system_s",
     lambda a, k, r: {"limits.stages": len(r[0]), "limits.relations": len(r[1].relations)}),
    ("limits", "inverse_limit", "limits.inverse_limit_s", None),
    ("limits", "profinite_check", "limits.profinite_check_s", None),
    ("limits", "zg_check", "limits.zg_check_s", None),
    ("topology", "theta_homeo_check", "topology.theta_homeo_check_s", None),
    ("topology", "alpha_opens_check", "topology.alpha_opens_check_s", None),
] + [("verify", f"check_{suite}", f"verify.{suite}_s", None) for suite in VERIFY_SUITES]

#: Per-layer counts, by metric name; `spectrum.brute_yield` is derived.
COUNTS = ("core.validate_triples", "spectrum.brute_subsets", "spectrum.hom_count",
          "congruence.merges", "presentation.free_cells", "presentation.reflection_size",
          "limits.stages", "limits.relations")


class Tracer:
    """Span recorder; `install` wraps the functions, `uninstall` restores them."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.item = -1
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.uncounted: set[str] = set()
        self._patches: list = []

    def install(self) -> None:
        modules = {name: m for name, m in list(sys.modules.items())
                   if name == "monospec" or name.startswith("monospec.")}
        self.missing = []
        for module, function, metric, count in SPANS:
            name = f"{module}.{function}"
            original = getattr(modules.get(f"monospec.{module}"), function, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, count)
            for m in modules.values():
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.item)
            if count is not None:
                try:
                    found = count(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, StopIteration):
                    # the function's signature or result changed shape
                    self.uncounted.add(name)
                else:
                    for key, value in found.items():
                        self.counts[key] = self.counts.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self time per span name over spans[first:], which must be closed."""
        spans = self.spans[first:]
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= first:
                covered[parent - first] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), child in zip(spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - child
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: [name, start, end, parent, item]."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def layer_metrics(self_times: dict[str, float], counts: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric with its unit; absent spans and counts read 0."""
    out = {metric: (self_times.get(f"{module}.{function}", 0.0), "s")
           for module, function, metric, _ in SPANS}
    for name in COUNTS:
        out[name] = (counts.get(name, 0), "count")
    subsets = counts.get("spectrum.brute_subsets", 0)
    out["spectrum.brute_yield"] = (counts.get("spectrum.brute_primes", 0) / subsets if subsets else 0.0,
                                   "ratio")
    return out
