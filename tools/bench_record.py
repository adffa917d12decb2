"""Record one benchmark run of every workload as BENCH_<pr>.json.

    python tools/bench_record.py --pr 28 --seed 41

Each workload that BENCHMARK.json declares runs as
``perfbench/run.py --workload W --seed S --seconds <run_seconds> --trace 0``
in a fresh interpreter.  The record keeps, per workload, the end-to-end
metrics of the run's last output line, the ``host_speed`` and ``wall_s`` of
its saved result file, and whether it was correct, with how many ops
attempted and failed; beside them the git revision, the seed and the
python, numpy and scipy versions the runs used.  The exit code is 1 when
any run is incorrect or failed an op, and the record is still written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git_revision() -> str:
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                         text=True, check=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return rev + ("-dirty" if dirty.strip() else "")


def run_workload(name: str, seed: int, seconds: float) -> dict:
    """One untraced run of a workload in a fresh process: its record entry."""
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="number in the file name")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = {}
    for spec in bench["workloads"]:
        workloads[spec["name"]] = entry = run_workload(spec["name"], args.seed, seconds)
        print(f"{spec['name']}: correct {entry['correct']}, "
              f"{entry['failed']}/{entry['attempted']} failed, "
              f"unit_ms_p50 {entry['metrics']['unit_ms_p50']['value']:.4g} ms", flush=True)
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
