"""Per-stage wall time and peak RSS of one verdict at each n, each in a fresh
process, written as one column of a BENCH_<date>.json file.

For each n in DIMS, 6..16, a child interpreter builds the seeded glue
instance that `run_search(n - 2, 1, 1, 0)` draws (plus side, m = n - 2,
s = 1, seed 0) and runs one run_pipeline on it.  The stage functions that
tribent.pipeline calls are wrapped, as perfbench/tracing.py wraps them, and
timed with perf_counter: establish (f's transform, the span, the dual's
sign per coset and the hypotheses), select (defining_set_for), code
(build_code) and classifier (WeightClassifier.check_all); build times
gmmf_build.  A stage function the measured tree's pipeline does not have is
not wrapped, so one tool measures the trees before and after a stage is
dropped.  Beside each time, <stage>_faults counts the minor page faults
(ru_minflt) the stage took.  First calls pay their cache fills and their
first touch of every page, as a one-off CLI run does; the same instance is
then verified a second time, and warm_s and warm_faults record that warm
verdict, as a process that verifies many instances sees each one.  The
warm verdict also reads a warm table of interned subspaces: its span
returns the first verdict's V, whose perp and tables (core.Subspace's
cached properties) were built then, so warm_s does not count them.  A row
records the report's verdict, passed (of both runs) and failed_stage,
import_rss_mb (ru_maxrss once the package is imported) and ru_maxrss.
One cold verdict moved by up to 2.7x between processes on a shared
2-vCPU host, so the verdict child runs RUNS times per n, each in its own
process, and the row is the run with the least establish_s + code_s; it
is passed only if every run passed.

A second fresh child runs the forced path: run_pipeline with force_set on
the sum of n squares.  That function is weakly regular, so its type side
is all of F_3^n, and the type side's label (C when n % 4 is 0 or 1, D
otherwise; digit 0) gives a code with r = n, the largest peak per point
a run reaches.  forced_rss_mb is its ru_maxrss: the growth over
import_rss_mb, over 3^n, is the figure core.PEAK_BYTES_PER_POINT is
fitted to.  It runs apart, once per n, because after a verdict the heap
the allocator keeps would count too.

    python3 tools/trajectory.py --column change --out BENCH_2026-10-19.json
    python3 tools/trajectory.py --column parent --src ../parent/src \\
        --out BENCH_2026-10-19.json

Each run adds or replaces its column in the file, so one file holds a
parent and a change side by side.  The tool is no test and no benchmark
gate; it only records where the time and memory go.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIMS = range(6, 17)
RUNS = 3  # verdict children per n, of which the fastest is kept

CHILD = r"""
import json, random, resource, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from tribent import codes, pipeline
from tribent.analysis import BentType
from tribent.constructions import gmmf_build
from tribent.search import random_instance, random_subspace

def rss_mb():
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)

import_rss_mb = rss_mb()
n = int(sys.argv[2])
rng = random.Random(0)  # the draws of run_search(n - 2, 1, 1, 0)
u = random_subspace(rng, 1, 0)
j0 = rng.randrange(3)
spec = random_instance(rng, n - 2, 1, BentType.PLUS, u, j0)
times, faults = {}, {}

def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

def timed(name, fn):
    def run(*args, **kwargs):
        start, first = time.perf_counter(), minflt()
        out = fn(*args, **kwargs)
        times[name] = time.perf_counter() - start
        faults[name] = minflt() - first
        return out
    return run

for name, attr in (("establish", "establish"), ("select", "defining_set_for"),
                   ("code", "build_code")):
    if hasattr(pipeline, attr):
        setattr(pipeline, attr, timed(name, getattr(pipeline, attr)))
codes.WeightClassifier.check_all = timed("classifier", codes.WeightClassifier.check_all)

f = timed("build", gmmf_build)(spec)
rep = pipeline.run_pipeline(f)
stages = {k: (round(v, 5), faults[k]) for k, v in times.items()}
start, first = time.perf_counter(), minflt()
warm = pipeline.run_pipeline(f)
warm_s, warm_faults = round(time.perf_counter() - start, 5), minflt() - first
row = {"n": n, "passed": rep.passed and warm.passed, "failed_stage": rep.failed_stage}
for k, (s, c) in stages.items():
    row.update({f"{k}_s": s, f"{k}_faults": c})
row.update(warm_s=warm_s, warm_faults=warm_faults, import_rss_mb=import_rss_mb,
           ru_maxrss_mb=rss_mb())
row["numpy"] = np.__version__
print(json.dumps(row))
"""

FORCED_CHILD = r"""
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from tribent.constructions import QuadraticForm, quadratic_function
from tribent.pipeline import run_pipeline

n = int(sys.argv[2])
label = ("C" if n % 4 < 2 else "D") + "0"
rep = run_pipeline(quadratic_function(QuadraticForm((1,) * n)), force_set=label)
assert rep.code is not None and rep.code.dimension == n, rep.notes
rss_mb = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
print(json.dumps({"forced_set": label, "forced_rss_mb": rss_mb}))
"""


def run_child(child: str, src: str, n: int) -> dict:
    proc = subprocess.run([sys.executable, "-c", child, src, str(n)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def measure(src: str, n: int) -> dict:
    runs = [run_child(CHILD, src, n) for _ in range(RUNS)]
    row = min(runs, key=lambda run: run.get("establish_s", 0) + run.get("code_s", 0))
    row["passed"] = all(run["passed"] for run in runs)
    row.update(run_child(FORCED_CHILD, src, n))
    return row


def source_commit(src: str) -> str:
    proc = subprocess.run(["git", "-C", src, "describe", "--always", "--dirty=-modified"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--column", required=True,
                        help="the column name, e.g. parent or change")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the source tree to measure (default: this checkout's)")
    parser.add_argument("--out", required=True, help="the BENCH_<date>.json file")
    args = parser.parse_args(argv)

    rows = []
    for n in DIMS:
        row = measure(os.path.abspath(args.src), n)
        print(json.dumps(row), file=sys.stderr)
        rows.append(row)
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["instance"] = ("glue, plus side, m = n - 2, s = 1, seed 0; per n, the verdict "
                       f"with the least establish_s + code_s of {RUNS} fresh processes, "
                       "and the forced path in one more")
    numpy = {row.pop("numpy") for row in rows}
    doc.setdefault("columns", {})[args.column] = {
        "commit": source_commit(args.src),
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": ", ".join(sorted(numpy))},
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0 if all(row["passed"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
