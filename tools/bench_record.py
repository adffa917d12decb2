"""Record the benchmark of every workload as BENCH_<pr>.json, the median of three runs.

    python tools/bench_record.py --pr 31 --seed 41

Each workload that BENCHMARK.json declares runs ``RUNS`` times as
``perfbench/run.py --workload W --seed S --seconds <run_seconds> --trace 0``,
each run in a fresh interpreter; the runs go in rounds, every workload once
per round, so a slow spell of the host falls on all of them alike.  The
record keeps, per workload, each end-to-end metric of the runs' last output
lines as the median with the least and greatest run, the ``host_speed`` and
``wall_s`` of each run's saved result file, whether every run was correct,
the ops one run attempts, the ops that failed over all runs, and the runs'
problems; beside them the git revision, the seed and the python, numpy and
scipy versions the runs used.  The exit code is 1 when any run is incorrect
or failed an op, and the record is still written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# runs per workload; the record keeps their median
RUNS = 3


def _git_revision() -> str:
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                         text=True, check=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return rev + ("-dirty" if dirty.strip() else "")


def run_workload(name: str, seed: int, seconds: float) -> dict:
    """One untraced run of a workload in a fresh process: its entry, before ``combine``."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    path = os.path.join(ROOT, "perfbench", "out", f"{name}-seed{seed}-trace0.json")
    if os.path.exists(path):
        os.remove(path)  # a run that stops early must not leave an older file to be read
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not os.path.exists(path):
        raise RuntimeError(f"{name}: no result (exit {proc.returncode})\n{proc.stderr}")
    last = json.loads(lines[-1])
    with open(path, encoding="utf-8") as fh:
        saved = json.load(fh)
    return {
        "metrics": last["metrics"],
        "host_speed": saved["metrics"]["host_speed"][0],
        "wall_s": saved["metrics"]["wall_s"][0],
        "correct": last["correct"],
        "attempted": last["attempted"],
        "failed": last["failed"],
        "problems": saved["problems"],
    }


def combine(runs: list) -> dict:
    """One workload's record entry from its runs' entries: each metric's median, min and max."""
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        metrics[name] = {"value": statistics.median(values), "min": min(values),
                         "max": max(values), "unit": first["unit"]}
    return {
        "metrics": metrics,
        "runs": len(runs),
        "host_speed": [run["host_speed"] for run in runs],
        "wall_s": [run["wall_s"] for run in runs],
        "correct": all(run["correct"] for run in runs),
        "attempted": runs[0]["attempted"],
        "failed": sum(run["failed"] for run in runs),
        "problems": [p for run in runs for p in run["problems"]],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="number in the file name")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [spec["name"] for spec in bench["workloads"]]
    runs = {name: [] for name in names}
    for round_ in range(RUNS):
        for name in names:
            entry = run_workload(name, args.seed, seconds)
            runs[name].append(entry)
            print(f"run {round_ + 1}/{RUNS} {name}: correct {entry['correct']}, "
                  f"{entry['failed']}/{entry['attempted']} failed, "
                  f"unit_ms_p50 {entry['metrics']['unit_ms_p50']['value']:.4g} ms", flush=True)
    workloads = {name: combine(runs[name]) for name in names}
    # every run uses this interpreter, so its versions are the runs' versions
    versions = {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__}
    record = {"revision": _git_revision(), "seed": args.seed, "seconds": seconds,
              **versions, "workloads": workloads}
    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    ok = all(w["correct"] and not w["failed"] for w in workloads.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
