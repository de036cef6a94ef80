"""Benchmark of the sullivan engine: four workloads, end-to-end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py                      # all workloads, end-to-end
    python3 perfbench/run.py --trace 1            # all workloads, per layer
    python3 perfbench/run.py --workload hori --seed 20140901 --seconds 28 --trace 0

With --workload, the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are the human
report.  Every measurement runs in fresh interpreters started by this
script (see worker.py); README.md in this directory explains the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
DEADLINE_S = 170  # a run must end within 180 s
OUT_DIR = ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


class BenchError(RuntimeError):
    pass


def layer_unit(name):
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def reference_ms():
    """Median time of a fixed pure-Python loop: how fast the machine runs
    now.  Hosts shared with other tenants vary by tens of percent."""
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (
        f"machine: nproc {os.cpu_count()}, python {platform.python_version()}, "
        f"cpu {cpu}, loadavg {load}, reference loop {reference_ms():.1f} ms"
    )


class Runner:
    """Starts workers from the checkout root and enforces the run deadline."""

    def __init__(self):
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = workloads.cli_env()
        self.env["PYTHONHASHSEED"] = "0"

    def _remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("deadline exceeded")
        return left

    def run(self, cmd):
        """Run cmd to completion; return (stdout, seconds from spawn)."""
        t0 = time.monotonic()
        # a session of its own, so that a timeout also ends the CLI
        # subprocesses the worker started
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=self.env, text=True, start_new_session=True
        )
        try:
            out, _ = proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"timed out: {' '.join(cmd)}") from None
        if proc.returncode != 0:
            raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}")
        return out, t0

    def worker(self, name, seed, mode, seconds=0.0, spans=None):
        """Returns (set-up seconds, result dict or None)."""
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", name, "--seed", str(seed), "--mode", mode,
            "--seconds", str(seconds),
        ]
        if spans:
            cmd += ["--spans", spans]
        out, t0 = self.run(cmd)
        ready = result = None
        for line in out.splitlines():
            if line.startswith("READY "):
                ready = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        if ready is None or (mode != "setup" and result is None):
            raise BenchError(f"worker {name}/{mode} printed no result")
        return ready - t0, result

    def python_c(self, code):
        _, t0 = self.run([sys.executable, "-c", code])
        return time.monotonic() - t0


def percentile(values, q):
    """Inclusive linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def verdicts(ops):
    failed = sum(1 for _, _, v in ops if v != workloads.OK)
    correct = not any(v == workloads.WRONG for _, _, v in ops)
    return correct, failed


def end_to_end(runner, name, seed, seconds):
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(runner.worker(name, seed, "setup")[0])
    setup, result = runner.worker(name, seed, "run", seconds)
    setups.append(setup)
    lat = result["latencies"]
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        # median pass: robust to the host's bursts of slowness
        "wall_s": (statistics.median(result["passes"]), len(result["passes"])),
        "op_p50_ms": (percentile(lat, 50) * 1e3, len(lat)),
        "op_p90_ms": (percentile(lat, 90) * 1e3, len(lat)),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, 1),
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, (v, _) in values.items()}
    counts = {k: n for k, (_, n) in values.items()}
    return result["ops"], metrics, counts


IMPORT_METRICS = {
    "cli.import_s": "import sullivan.cli",
    "superminkowski.import_s": "import sullivan.superminkowski",
}


def import_times(runner):
    """Median fresh-interpreter import cost of a module, minus a bare start."""
    codes = {"bare": "pass", **IMPORT_METRICS}
    samples = {k: [] for k in codes}
    for _ in range(IMPORT_SAMPLES):
        for k, code in codes.items():
            samples[k].append(runner.python_c(code))
    bare = statistics.median(samples.pop("bare"))
    return {k: statistics.median(v) - bare for k, v in samples.items()}


def per_layer(runner, name, seed):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{name}-{seed}.json")
    _, plain = runner.worker(name, seed, "once")
    _, traced = runner.worker(name, seed, "trace", spans=spans)
    layers = dict(traced["layers"])
    layers.update(import_times(runner))
    base = sum(plain["passes"])
    layers["trace.overhead_frac"] = (sum(traced["passes"]) - base) / base
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
    counts = {k: 1 for k in metrics}
    return plain["ops"] + traced["ops"], metrics, counts, spans


def report(name, seed, seconds, trace):
    runner = Runner()
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}")
    print(machine())
    if trace:
        ops, metrics, counts, spans = per_layer(runner, name, seed)
        print(f"spans: {spans}")
    else:
        ops, metrics, counts = end_to_end(runner, name, seed, seconds)
    correct, failed = verdicts(ops)
    for key, m in metrics.items():
        print(f"  {key:40s} {m['value']:>14.6g} {m['unit']:6s} (n={counts[key]})")
    print(f"  {'failed_frac':40s} {failed / len(ops):>14.6g} ratio  ({failed}/{len(ops)} ops)")
    for op, _, v in ops:
        if v != workloads.OK:
            print(f"  failed op: {op} ({v})")
    print(f"correct: {'yes' if correct else 'no'}")
    return {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "sullivan", "__init__.py")):
        print("error: run from the root of a sullivan checkout (src/sullivan is missing)",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    try:
        results = [report(n, args.seed, args.seconds, args.trace) for n in names]
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.workload:
        print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
