"""Run every workload once and print its numbers as one table.

    python3 perfbench/report.py [--seed 7] [--trace]

Run from the root of a checkout.  Prints wall_s, fail_ratio, peak_rss_mb
and setup_s per workload with units and the output-check verdict.  With
``--trace`` it also makes the traced run and prints each workload's
dominant self-time layer, the layer its rationale names, and the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# the layer each workload's rationale says should dominate its self time
DOMINANT = {"ball-p2": "graphs", "newton-z2": "energy", "escape-mc": "walks",
            "finite-graphs": "energy"}


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        sys.exit(f"{workload}: benchmark failed\n{proc.stderr}")
    *_, info, result = proc.stdout.splitlines()
    return json.loads(info)["run_info"], json.loads(result)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    header = (f"{'workload':<14} {'wall_s':>9} {'fail_ratio':>10} {'peak_rss_mb':>11} "
              f"{'setup_s':>8}  checks")
    print(header)
    print(f"{'':<14} {'s':>9} {'ratio':>10} {'MB':>11} {'s':>8}")
    layers = []
    for name in names:
        info, result = run(name, args.seed, seconds, 0)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        verdict = "ok" if result["correct"] else f"FAILED {result['failed']}/{result['attempted']}"
        print(f"{name:<14} {m['wall_s']:>9.3f} {info['fail_ratio']:>10.4f} "
              f"{m['peak_rss_mb']:>11.1f} {m['setup_s']:>8.3f}  {verdict}", flush=True)
        if args.trace:
            layers.append((name, *run(name, args.seed, seconds, 1)))
    if layers:
        print(f"\n{'workload':<14} {'dominant':<13} {'expected':<13} "
              f"{'share':>6} {'overhead':>9}  checks")
        for name, info, result in layers:
            self_s = info["layer_self_s"]
            top = info["dominant_layer"]
            share = self_s[top] / sum(self_s.values())
            overhead = result["metrics"]["trace.overhead_ratio"]["value"]
            verdict = "ok" if result["correct"] else "FAILED"
            print(f"{name:<14} {top:<13} {DOMINANT[name]:<13} {share:>6.2f} "
                  f"{overhead:>9.3f}  {verdict}")
        print("\nself seconds per layer (median over traced repetitions):")
        for name, info, _ in layers:
            print(f"  {name}: " + ", ".join(f"{k}={v:.3f}"
                                            for k, v in sorted(info["layer_self_s"].items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
