"""The monospec benchmark: one workload, one seed, every metric from one command.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The benchmark generates its inputs from the
seed (perfbench/workloads.py), runs them through monospec's public entry
points in a fresh process (perfbench/child.py) and checks every output against
an oracle that does not use monospec.  It prints each metric with its unit,
then, as its last line, one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a separate traced run with `--trace 1`.

Exit codes: 0 all outputs correct, 1 some item failed its oracle (the result
line is still printed), 2 no monospec source tree or a process that did not
finish (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from spans import layer_metrics
from speed import REF_PROBE_S, scale
from workloads import WORKLOADS, build

DEFAULT_SEED = 1
#: Fresh processes whose import-plus-warm-up times give `setup_s`.
SETUP_PROBES = 15
CHILD_TIMEOUT_S = 120
PROBE_TIMEOUT_S = 3

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def child(manifest: Path, *flags: str, timeout: float) -> dict:
    result = manifest.with_name("result.json")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(HERE / "child.py"), str(manifest), str(result), *flags],
                   cwd=ROOT, env=env, check=True, timeout=timeout)
    return json.loads(result.read_text())


def item_latencies(passes: list[dict]) -> list[float]:
    """Each item's median scaled latency over the passes of one run."""
    return [statistics.median(times)
            for times in zip(*(map(scale, p["latencies"], p["probes"]) for p in passes))]


def end_to_end(result: dict, setups: list[dict]) -> dict[str, tuple[float, str]]:
    latencies = item_latencies(result["passes"])
    return {
        "setup_s": (statistics.median(scale(s["setup_s"], s["setup_probe_s"]) for s in setups), "s"),
        "wall_s": (sum(latencies), "s"),
        "item_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "item_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024, "MB"),
    }


def per_layer(result: dict) -> dict[str, tuple[float, str]]:
    traced = result["traced"]
    names = {name for p in traced for name in p["self_times"]}
    # a traced pass's self times are scaled by the pass's median probe time
    probe_s = [statistics.median(p["probes"]) for p in traced]
    self_times = {name: statistics.median(scale(p["self_times"].get(name, 0.0), s)
                                          for p, s in zip(traced, probe_s))
                  for name in names}
    metrics = layer_metrics(self_times, traced[0]["counts"])
    overhead = sum(item_latencies(traced)) - sum(item_latencies(result["passes"]))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="monospec benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "monospec" / "__init__.py").is_file():
        print(f"error: no monospec source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        items, warmup = build(args.workload, args.seed, Path(tmp))
        manifest = Path(tmp) / "manifest.json"
        manifest.write_text(json.dumps({
            "src": str(ROOT / "src"), "items": items, "warmup": warmup, "seconds": args.seconds,
            "spans_path": str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl"),
        }))
        try:
            if args.trace:
                result = child(manifest, "--trace", timeout=CHILD_TIMEOUT_S)
            else:
                result = child(manifest, timeout=CHILD_TIMEOUT_S)
                setups = [child(manifest, "--setup-only", timeout=PROBE_TIMEOUT_S)
                          for _ in range(SETUP_PROBES)]
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
            print(f"error: benchmark process failed: {e}", file=sys.stderr)
            return 2

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}, closed loop with one caller, "
          f"{len(items)} items per pass")
    print("untraced pass times, as measured (s): "
          + " ".join(f"{sum(p['latencies']):.4f}" for p in result["passes"]))
    print("median probe time per pass (ms): "
          + " ".join(f"{statistics.median(p['probes']) * 1e3:.4f}" for p in result["passes"]))
    if args.trace:
        metrics = per_layer(result)
        print(f"traced run: {len(result['traced'])} traced passes, {result['spans']} spans; "
              f"self times are medians over traced passes; counts are per pass, computed "
              f"from call inputs and outputs; overhead is traced minus untraced wall_s")
        for name in result["missing"]:
            print(f"missing span: {name} (not in this tree; its metrics read 0)")
        for name in result["uncounted"]:
            print(f"uncounted span: {name} (its arguments or result changed shape)")
    else:
        metrics = end_to_end(result, setups)
        print(f"times at the reference speed (probe {REF_PROBE_S * 1e3} ms); item latency: "
              f"median over {len(result['passes'])} passes; {len(items)} items; setup_s: median "
              f"of {SETUP_PROBES} fresh processes, as measured "
              + " ".join(f"{s['setup_s']:.4f}" for s in setups))
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6f} {unit}")
    print(f"{'failed_ratio':<36} {failed / attempted:>16.6f} ({failed} of {attempted} items)")
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
