"""One fresh process of the monospec benchmark.

    python3 perfbench/child.py MANIFEST RESULT [--setup-only] [--trace]

Imports monospec from the manifest's source tree, runs the warm-up items
(together: the set-up time), then runs the manifest's pass of items in a
closed loop: one caller, each item started only when the previous one has
returned, passes repeated while another one fits in the time given (and at
least MIN_PASSES times).  A `speed.Sampler` runs throughout, so every
latency comes with the host's speed while it was measured.  With `--trace`,
untraced and traced passes alternate, so the traced run also measures its own
overhead.  Writes its measurements to RESULT as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, sleep

from spans import Tracer
from speed import SAMPLE_S, Sampler
from workloads import check_output

#: Untraced passes in every run, whatever the time given.
MIN_PASSES = 3

def load(item: dict, monospec):
    """(run, verdict) for one manifest item: run() makes the timed call through
    the public entry point, verdict(result) is None or the reason it is wrong."""
    cli, limits = monospec["cli"], monospec["limits"]
    if item["kind"] == "cli":
        argv, check = item["argv"], item["check"]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            return rc, out.getvalue()

        return run, lambda result: check_output(check, *result)
    M = monospec["core"].validate_monoid(item["table"], identity=item["identity"], names=item["names"])
    if item["kind"] == "profinite":
        L = monospec["semilattice"].from_monoid(M)
        run = lambda: limits.profinite_check(L)
    else:
        chain = [[M.names.index(name) for name in stage] for stage in item["chain"]]
        run = lambda: limits.zg_check(M, chain)
    return run, lambda verdict: None if verdict is True else f"{item['kind']} verdict {verdict!r}"


def run_pass(items, sampler: Sampler, tracer=None, first_id=0):
    """Latency of every item (less the sampler's time), its (start, end)
    interval, and the failures, of one pass over `items`; a tracer tags the
    spans of item i with first_id + i."""
    latencies, intervals, failures = [], [], []
    for i, (run, verdict) in enumerate(items):
        if tracer is not None:
            tracer.item = first_id + i
        spent = sampler.spent
        start = perf_counter()
        try:
            result = run()
        except Exception as e:  # an item that crashes is a failed item, not a dead run
            result, reason = None, f"{type(e).__name__}: {e}"
        else:
            reason = None
        end = perf_counter()
        latencies.append(end - start - (sampler.spent - spent))
        intervals.append((start, end))
        if reason is None:
            reason = verdict(result)
        if reason is not None:
            failures.append(f"item {i}: {reason}")
    return latencies, intervals, failures


def run_warmup(items) -> list[str]:
    """Failures of the warm-up items, run once each, untimed."""
    failures = []
    for i, (run, verdict) in enumerate(items):
        try:
            reason = verdict(run())
        except Exception as e:
            reason = f"{type(e).__name__}: {e}"
        if reason is not None:
            failures.append(f"warm-up item {i}: {reason}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest")
    parser.add_argument("result")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    manifest = json.loads(Path(args.manifest).read_text())
    src = Path(manifest["src"])

    with Sampler() as sampler:
        spent = sampler.spent
        start = perf_counter()
        sys.path.insert(0, str(src))
        monospec = {name: importlib.import_module(f"monospec.{name}")
                    for name in ("cli", "limits", "core", "semilattice")}
        if Path(monospec["cli"].__file__).resolve().parent != (src / "monospec").resolve():
            raise SystemExit(f"monospec imported from {monospec['cli'].__file__}, not from {src}")
        warm_failures = run_warmup([load(item, monospec) for item in manifest["warmup"]])
        end = perf_counter()
        setup_s = end - start - (sampler.spent - spent)
        sleep(2 * SAMPLE_S)  # for the probes after the set-up
        result = {"setup_s": setup_s, "setup_probe_s": sampler.around(start, end)}
        if not args.setup_only:
            result.update(measure(manifest, monospec, sampler, args.trace))
            result["failures"] = warm_failures + result["failures"]
            result["failed"] += len(warm_failures)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.result).write_text(json.dumps(result))
    return 0


def measure(manifest: dict, monospec, sampler: Sampler, trace: bool) -> dict:
    """Latencies of every pass; with `trace`, untraced and traced passes
    alternate and the traced ones also give self times and counts."""
    items = [load(item, monospec) for item in manifest["items"]]
    tracer = Tracer() if trace else None
    plain, traced, failures = [], [], []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        if tracer is not None and len(traced) < len(plain):
            first = len(tracer.spans)
            tracer.counts = {}
            tracer.install()
            latencies, intervals, fails = run_pass(items, sampler, tracer, len(traced) * len(items))
            tracer.uninstall()
            traced.append({"latencies": latencies, "intervals": intervals,
                           "self_times": tracer.self_times(first), "counts": tracer.counts})
        else:
            latencies, intervals, fails = run_pass(items, sampler)
            plain.append({"latencies": latencies, "intervals": intervals})
        failures += fails
        enough = len(plain) >= MIN_PASSES and (tracer is None or len(traced) >= MIN_PASSES - 1)
        now = perf_counter()
        if enough and 2 * now - start - pass_start > manifest["seconds"]:
            break
    sleep(2 * SAMPLE_S)  # for the probes after the last item
    for p in plain + traced:
        p["probes"] = [sampler.around(start, end) for start, end in p.pop("intervals")]
    out = {"passes": plain, "attempted": len(items) * (len(plain) + len(traced)),
           "failed": len(failures), "failures": failures[:10]}
    if tracer is not None:
        tracer.dump(manifest["spans_path"])
        out.update(traced=traced, missing=tracer.missing, uncounted=sorted(tracer.uncounted),
                   spans=len(tracer.spans))
    return out


if __name__ == "__main__":
    sys.exit(main())
