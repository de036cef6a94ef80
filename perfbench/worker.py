"""One workload in one fresh interpreter; run.py starts it and reads its lines.

Modes:
  setup  set up, print READY, exit (a set-up time sample);
  run    set up, print READY, then run whole passes until --seconds are
         used (at least one pass), print RESULT <json>;
  once   set up, print READY, run each op exactly once, print RESULT <json>
         (the untraced reference of a traced run);
  trace  install the tracer, then as ``once``, write the spans to --spans
         and add the per-layer metrics to the result.

The cli workload runs each invocation as a subprocess in ``run`` mode and
in-process (``sullivan.cli.main``) in ``once`` and ``trace`` modes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def run_pass(workload, p):
    ops = []
    start = time.perf_counter()
    for name, op in workload.pass_ops(p):
        t0 = time.perf_counter()
        try:
            verdict = op()
        except Exception as exc:  # a failed op is counted, never fatal
            verdict = workloads.BREACH
            print(f"op {name} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        ops.append((name, time.perf_counter() - t0, verdict))
    return time.perf_counter() - start, ops


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "run", "once", "trace"])
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    traced = None
    if args.mode == "trace":
        import tracer

        traced = tracer.install()
    in_process = args.mode in ("once", "trace")
    workload = workloads.setup(args.workload, args.seed, in_process_cli=in_process)
    # CLOCK_MONOTONIC is system-wide on Linux, so run.py can subtract its
    # own spawn time from this stamp
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.mode == "setup":
        return 0

    # "run" fills the window with whole passes (at least one); the other
    # modes make exactly one cycle through all ops, so counts repeat
    cycle = len(workload.ops) // workload.pass_size
    passes, ops = [], []
    window_start = time.perf_counter()
    while True:
        wall, pass_ops = run_pass(workload, len(passes))
        passes.append(wall)
        ops.extend(pass_ops)
        if args.mode == "run":
            if time.perf_counter() - window_start + wall > args.seconds:
                break
        elif len(passes) == cycle:
            break

    children = args.workload == "cli" and not in_process
    usage = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    result = {
        "passes": passes,
        "ops": ops,
        "latencies": passes if workload.pass_is_op else [t for _, t, _ in ops],
        "peak_rss_kb": resource.getrusage(usage).ru_maxrss,
    }
    if traced is not None:
        result["layers"] = tracer.layer_metrics(traced)
        if args.spans:
            traced.write(args.spans)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
