"""One repetition of a workload, in a fresh interpreter.

Imports vtres from ``<root>/src``, runs the workload's op list in-process
through ``vtres.cli.main`` (what a user types, minus interpreter start) and
prints one JSON line: per-op exit codes and captured stderr, the op list's
time, raw and at reference host speed (``speed.py``), the peak resident set
and, with ``--trace``, the layer numbers.  With ``--setup-only`` it stops
once vtres is imported, and reports the host speed while it imported.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import speed


def main() -> int:
    # sampled from the first line, so set-up can be put at reference speed
    sampler = speed.Sampler()
    sampler.start()
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    t0 = time.perf_counter()
    import vtres.cli
    import_s = time.perf_counter() - t0
    # CLOCK_MONOTONIC is shared by all processes, so the parent can subtract
    # its own spawn time from this stamp
    ready = time.monotonic()
    record = {"ready": ready, "import_s": import_s,
              "setup_sampled_s": sampler.spent(), "setup_factor": sampler.factor()}
    if args.setup_only:
        sampler.stop()
        print(json.dumps(record))
        return 0

    import tracer as tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    results = []
    sampler.restart()
    t_begin = time.perf_counter()
    for name, argv in workloads.ops(args.workload, args.seed):
        out = os.path.join(args.out, name)
        stdout, stderr = io.StringIO(), io.StringIO()
        span = tracer.span("cli") if tracer else contextlib.nullcontext()
        rc = crash = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                with span:
                    rc = vtres.cli.main([*argv, "--out", out])
            except Exception as exc:  # an op that crashes is a result, not a benchmark error
                crash = f"{type(exc).__name__}: {exc}"
        results.append({"name": name, "rc": rc, "crash": crash, "out": out,
                        "stderr": stderr.getvalue()})
    wall = time.perf_counter() - t_begin
    sampler.stop()
    record["raw_wall_s"] = wall
    record["wall_s"] = sampler.normalise(wall)
    record["ops"] = results
    # ru_maxrss is in KiB on Linux
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        record["layers"] = tracing.layer_metrics(tracer)
        record["layer_self_s"] = tracing.layer_self_times(tracer)
        record["missing_hooks"] = tracer.missing
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
