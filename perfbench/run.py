"""vtres benchmark: whole CLI workloads timed end to end, layers traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ball-p2 --seed 7 --seconds 20 --trace 0

Each repetition runs the workload's op list in a fresh worker interpreter
(``worker.py``), one at a time, with BLAS threads capped at the CPUs this
process may use.  Repetitions start while fewer than ``--seconds`` have
passed, so a run lasts about that long, rounded up to a whole repetition
(see OVERRUN).  Every repetition's outputs are checked against oracles
computed before the first one starts.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: ``wall_s``
is the mean op-list time over the repetitions, ``peak_rss_mb`` the median
over repetitions, and ``setup_s`` the median of SETUP_SAMPLES fresh
imports, made in two rows, one before the repetitions and one after them.
Both times are given at reference host speed, as ``speed.py`` sampled it
while the work ran; ``run_info`` holds the raw ones.
``--trace 1`` runs untraced and traced repetitions in back-to-back pairs,
at least TRACE_PAIRS of them, and reports the per-layer metrics: medians
over the traced repetitions, and the tracing overhead as the median of the
pairs' traced/untraced ratios.  The last line of stdout is the result
object; the line before it records the machine and the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
BLAS_CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 8
HARD_LIMIT_S = 170.0
# a run may overrun --seconds to finish a whole repetition, but starts none
# that the previous one says would end after OVERRUN times --seconds
OVERRUN = 1.5
# a --trace 1 run makes at least TRACE_PAIRS untraced/traced pairs, however
# long, but starts no pair that the previous one says would end after
# TRACE_LIMIT_S
TRACE_PAIRS = 3
TRACE_LIMIT_S = 140.0


class BenchError(Exception):
    pass


def _worker_env(nproc: int) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("VTRES_")}
    env.update({cap: str(nproc) for cap in BLAS_CAPS})
    return env


def _spawn(root: str, env: dict, deadline: float, *argv: str) -> dict:
    t0 = time.monotonic()
    if deadline - t0 <= 0:
        raise BenchError("run exceeded its time limit")
    try:
        proc = subprocess.run([sys.executable, WORKER, "--root", root, *argv],
                              env=env, capture_output=True, text=True,
                              timeout=deadline - t0)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker exceeded the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["raw_setup_s"] = record["ready"] - t0
    # at reference host speed, as the worker sampled it while importing
    record["setup_s"] = (record["raw_setup_s"] - record["setup_sampled_s"]) \
        * record["setup_factor"]
    return record


def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for fn in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, fn)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def machine_record(root: str, nproc: int, env: dict, seed: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {cap: env[cap] for cap in BLAS_CAPS},
        "workload_seed": seed,
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "vtres", "cli.py")):
        print(f"no vtres sources under {root}/src; run from a checkout's root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    nproc = len(os.sched_getaffinity(0))
    env = _worker_env(nproc)
    info = {"workload": args.workload, "machine": machine_record(root, nproc, env, args.seed)}
    oracle = workloads.oracles(args.workload)
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    reps, problems = [], []

    def repetition(traced: bool) -> None:
        out = os.path.join(work, f"rep{len(reps)}")
        rep = _spawn(root, env, deadline, "--workload", args.workload,
                     "--seed", str(args.seed), "--out", out,
                     *(["--trace"] if traced else []))
        rep["traced"] = traced
        for op in rep["ops"]:
            found = workloads.check(args.workload, op["name"], op, oracle, args.seed)
            op["ok"] = not found
            problems.extend(f"rep {len(reps)} {op['name']}: {p}" for p in found)
        if rep.get("missing_hooks"):
            problems.append(f"rep {len(reps)}: tracer could not hook "
                            + ", ".join(rep["missing_hooks"]))
        shutil.rmtree(out, ignore_errors=True)
        reps.append(rep)

    try:
        # set-up is sampled apart from the heavy repetitions, half before
        # and half after them, so the samples span the run's host speeds
        setup_recs = [_spawn(root, env, deadline, "--setup-only")
                      for _ in range(SETUP_SAMPLES // 2)]
        t_measure = time.monotonic()
        while True:
            t_rep = time.monotonic()
            if args.trace:
                # untraced and traced repetitions back to back, the order
                # alternating, so each pair sees the same host speed
                for traced in (False, True) if len(reps) % 4 == 0 else (True, False):
                    repetition(traced)
            else:
                repetition(False)
            now = time.monotonic()
            elapsed, last = now - t_measure, now - t_rep
            if args.trace:
                if len(reps) >= 2 * TRACE_PAIRS and elapsed >= args.seconds:
                    break
                if now + last > start + TRACE_LIMIT_S:
                    break
            elif elapsed >= args.seconds or elapsed + last > OVERRUN * args.seconds:
                break
        setup_recs += [_spawn(root, env, deadline, "--setup-only")
                       for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = os.path.dirname(work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    ops = [op for r in reps for op in r["ops"]]
    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    # an op fails, for fail_ratio, when it exits non-zero or its check fails;
    # `failed` counts only ops whose outcome is wrong (see README.md)
    fail_ratio = sum(op["rc"] != 0 or not op["ok"] for op in ops) / attempted
    plain = [r for r in reps if not r["traced"]]
    values = {
        "wall_s": statistics.fmean(r["wall_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in setup_recs),
    }
    info.update({
        "reps": len(plain), "rep_wall_s": [r["wall_s"] for r in plain],
        "rep_raw_wall_s": [r["raw_wall_s"] for r in plain],
        "setup_samples_s": [r["setup_s"] for r in setup_recs],
        "raw_setup_samples_s": [r["raw_setup_s"] for r in setup_recs],
        "fail_ratio": fail_ratio,
        "op_exit_codes": {op["name"]: op["rc"] for op in reps[0]["ops"]},
        "problems": problems[:20],
    })
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        for name in {m["name"] for m in bench["per_layer"]}:
            values[name] = statistics.median(r["layers"].get(name, 0.0) for r in traced)
        values["import.vtres.s"] = statistics.median(r["import_s"] for r in setup_recs)
        values["fail_ratio"] = fail_ratio
        pairs = [reps[i:i + 2] for i in range(0, len(reps), 2)]
        values["trace.overhead_ratio"] = statistics.median(
            sum(r["wall_s"] for r in pair if r["traced"])
            / sum(r["wall_s"] for r in pair if not r["traced"]) for pair in pairs) - 1.0
        layer_s = {layer: statistics.median(r["layer_self_s"].get(layer, 0.0)
                                            for r in traced)
                   for layer in traced[0]["layer_self_s"]}
        info["traced_reps"] = len(traced)
        info["missing_hooks"] = sorted({h for r in traced for h in r["missing_hooks"]})
        info["layer_self_s"] = layer_s
        info["dominant_layer"] = max(layer_s, key=layer_s.get)
    for p in problems[:20]:
        print(p, file=sys.stderr)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in bench[section]}
    print(json.dumps({"run_info": info}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
