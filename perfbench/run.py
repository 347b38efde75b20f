"""Closed-loop benchmark of the tribent verifier.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root.  One process runs one workload: it imports
the package from src/, builds its inputs from the seed, warms the per-n
caches with one untimed instance of every shape (so of every n), then
verifies one instance at a time, with no worker threads, until --seconds
have passed, checking every verdict it times.  Timings are corrected for
the host's speed, read by a probe kernel timed every 20 ms (see
hostspeed.py).  With --trace 1 it then repeats the same instances with
spans around each layer's public functions and reports per-layer self
times and work counts instead.  `--workload all` runs each workload in a
child process of its own, so peak RSS belongs to that workload alone.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 1 when any
verdict is missed and 2 when the sources are not there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOAD_NAMES = ("sweep-small", "verify-dense", "structure-large")
SETUP_REPEATS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import tribent; print(time.perf_counter() - t)")


def fresh_import_s():
    """Import time of the package in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def attempt(wl, inst):
    """Time one verdict and check it; returns (start, end, miss or None)."""
    start = time.perf_counter()
    try:
        result = wl.run(inst)
    except Exception as exc:  # a raising instance is a miss, not a crash
        return start, time.perf_counter(), f"{inst.shape}: raised {exc!r}"
    end = time.perf_counter()
    return start, end, wl.check(inst, result)


def measure(wl, instances, seconds, limit=None, tracer=None):
    """Verify instances in order, cycling, until `limit` are done or, at a
    round boundary, the next round is predicted to end past `seconds`.
    Returns the (start, end) of each verdict and the misses."""
    round_size = wl.round_size(instances)
    spans, misses = [], []
    start = round_start = time.perf_counter()
    i = 0
    while True:
        if limit is not None:
            if i == limit:
                break
        elif i and i % round_size == 0:
            now = time.perf_counter()
            if 2 * now - round_start - start > seconds:
                break
            round_start = now
        if tracer is not None:
            tracer.instance = i
        t0, t1, miss = attempt(wl, instances[i % len(instances)])
        spans.append((t0, t1))
        if miss:
            misses.append(miss)
        i += 1
    return spans, misses


def run_workload(name, seed, seconds, trace):
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads
    import_s = statistics.median(
        [time.perf_counter() - t0] + [fresh_import_s() for _ in range(SETUP_REPEATS - 1)])

    wl = workloads.WORKLOADS[name]
    with hostspeed.Probe() as probe:
        gen_s = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            instances = wl.build(seed)
            gen_s.append((t, time.perf_counter()))
        warm_start = time.perf_counter()
        warmed = set()
        for inst in instances:
            if inst.shape not in warmed:
                warmed.add(inst.shape)
                attempt(wl, inst)
        warm = (warm_start, time.perf_counter())
        spans, misses = measure(wl, instances, seconds)
    gen_s = statistics.median(probe.correct(*span)[1] for span in gen_s)
    warm_s = probe.correct(*warm)[1]
    setup_s = import_s + gen_s + warm_s
    print(f"setup: import {import_s:.3f} s (wall, median of {SETUP_REPEATS}), inputs "
          f"{gen_s:.3f} s (median of {SETUP_REPEATS}), warm-up {warm_s:.3f} s; "
          f"inputs and warm-up host-corrected")

    net, latencies = zip(*(probe.correct(*span) for span in spans))
    count = len(latencies)
    metrics = {
        "instances_per_s": (count / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p95_s": (p95(latencies), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    wall = spans[-1][1] - spans[0][0]
    print(f"{name} seed {seed}: {count} instances in {wall:.2f} s "
          f"({len(instances)} per pass), latency samples {count}, "
          f"failed_ratio {len(misses) / count:.4f}")
    print(f"wall time net of probes: {count / sum(net):.4g} instances/s, "
          f"p50 {statistics.median(net):.4g} s, p95 {p95(net):.4g} s; host speed "
          f"{hostspeed.NOMINAL_S / statistics.median(probe.durations):.3f} x nominal "
          f"({len(probe.durations)} probes)")

    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        instances = wl.build(seed)
        traced, traced_misses = measure(wl, instances, seconds, count, tracer)
        misses += traced_misses
        metrics = {k: (v, _layer_unit(k))
                   for k, v in tracer.layer_metrics(count, len(instances)).items()}
        metrics["trace.overhead_s"] = (
            (sum(t1 - t0 for t0, t1 in traced) - sum(net)) / count, "s")
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{name}-seed{seed}.jsonl")
        tracer.write(path)
        print(f"{len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
        count *= 2

    for miss in misses:
        print(f"MISS {miss}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:34s} {value:14.6g} {unit}")
    return {
        "correct": not misses,
        "attempted": count,
        "failed": len(misses),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def p95(samples):
    """95th percentile, inclusive method; the sample itself when alone."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=20, method="inclusive")[-1]


def _layer_unit(key):
    if key.endswith("_bytes_computed"):
        return "bytes"
    if key.endswith((".s", "_s")):
        return "s"
    return "count"


def run_all(args):
    """Each workload in its own child process; one table of every metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode and proc.returncode != 1 or not lines:
            return proc.returncode or 2
        code = code or proc.returncode
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tribent", "__init__.py")):
        print(f"perfbench: no tribent sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
