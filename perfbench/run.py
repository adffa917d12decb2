"""stablegarch benchmark: one workload per fresh process, or all four.

Run from the repository root::

    python3 perfbench/run.py --workload study --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 0 --seconds 30        # every workload

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics of the untraced run.  With ``--trace 1`` the process first
runs the same workload untraced in a child process, then traced in itself, and
reports the per-layer metrics plus the tracing overhead (traced ``ops_s``
minus untraced ``ops_s``).  Without ``--workload`` each workload runs this
way in its own process and a summary of all of them is printed.  Details and
spans go to ``perfbench/out/``.  The exit code is non-zero when an output
check fails or the package cannot be imported.

Every time in the end-to-end metrics is scaled to a reference host speed
(see ``hostspeed``): a reference kernel is timed ten times a second during
the run, and each op's wall time is multiplied by the host's mean speed over
it.  On a shared host the raw wall time of the same run drifts by a third;
the scaled times stay within a few per cent.  ``wall_s`` and ``host_speed``
are printed beside them.  The per-layer times of a traced run are raw.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("study", "desk_fit", "var_desk", "garch_paths")
SETUP_REPEATS = 3
# one thread of work: BLAS and OpenMP pools are pinned to a single thread
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# End-to-end metrics reported on every workload; BENCHMARK.json lists the
# same.  unit_ms_p50 is time per unit of the workload's work: the median over
# the ops of each op kind, combined over the kinds (see _unit_figures).  In
# the iterative ops the unit is one step of the iteration: an objective
# evaluation of a stable fit (study, desk_fit) or a Lyapunov estimate of the
# frontier bisection (garch_paths).  How many steps an op needs swings
# twofold between seeds while the cost of one stays put, so per-op latency
# cannot be steady across seeds in a run of this length; the per-op figures
# (rep_s_p50, fit_s, ...) are still printed and saved.  For var_desk the
# unit is an asset, and for garch_paths' simulate ops the path.  The total
# time per unit, unit_ms_mean, is printed but not bounded: about one desk fit
# in thirty falls back to per-point quadrature and takes three times as long
# per evaluation, which moves a run's total by half.
E2E = {"setup_s": "s", "unit_ms_p50": "ms", "peak_rss_mb": "MB"}
# appended to the per-layer metrics of a traced run
OVERHEAD_UNITS = {"trace.overhead_s": "s", "trace.overhead_share": "ratio"}


def _pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)


def _environment(sg, inputs: dict) -> dict:
    import numpy
    import scipy
    ops_by_kind = {}
    for kind, _ in inputs["ops"]:
        ops_by_kind[kind] = ops_by_kind.get(kind, 0) + 1
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "stablegarch": sg.__version__,
            "nproc": os.cpu_count(), "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "ops": ops_by_kind, "setup_path_redraws": inputs.get("redraws", 0),
            "process": "fresh process per workload run",
            "engine_cache": "cold at the first timed op; nothing warmed up"}


def _units(tracer, workload) -> int:
    return sum(tracer.calls[name] for name in workload.units)


def _run_ops(sg, workload, inputs, tracer) -> list:
    from workloads import OpRecord
    records = []
    for kind, spec in inputs["ops"]:
        n0 = _units(tracer, workload)
        t0 = time.perf_counter()
        try:
            rec = workload.run_op(sg, inputs, kind, spec)
        except sg.StableGarchError as exc:
            rec = OpRecord(kind, 0.0, failed=True, error=type(exc).__name__)
        t1 = time.perf_counter()
        rec.wall_s, rec.interval = t1 - t0, (t0, t1)
        rec.units = _units(tracer, workload) - n0
        records.append(rec)
        if hasattr(workload, "verify_op") and not rec.failed:
            tracer.paused = True
            rec.problems += workload.verify_op(sg, rec)
            tracer.paused = False
    return records


def _unit_figures(records):
    """Per-stratum unit figures and their geometric means over the strata.

    The strata are the op kinds.  In each, unit_ms_p50 is the median over its
    ops of the op's time per unit and unit_ms_mean its total time per unit;
    an op with no counted units is one unit.  The strata weigh the same: their
    units differ in size, so a weight that followed each run's split of the
    time would move the combined figure by itself.
    """
    strata = {}
    for r in records:
        strata.setdefault(r.kind, []).append(r)
    rows = {}
    for key, recs in strata.items():
        units = sum(r.units or 1 for r in recs)
        rows[key] = {"units": units,
                     "unit_ms_p50": 1e3 * statistics.median(r.seconds / (r.units or 1)
                                                            for r in recs),
                     "unit_ms_mean": 1e3 * sum(r.seconds for r in recs) / units}

    def combined(key):
        return math.exp(statistics.fmean(math.log(row[key]) for row in rows.values()))
    return combined("unit_ms_p50"), combined("unit_ms_mean"), rows


def _import_seconds(repeats: int) -> list:
    """Wall times of ``import stablegarch``, each in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import stablegarch; print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src")],
                              stdout=subprocess.PIPE, text=True, check=True)
        times.append(float(proc.stdout))
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up and run one workload in this process; full result dict.

    Set-up is repeated SETUP_REPEATS times: the import of the package, once
    here and the rest in fresh interpreters, and the input generation.
    setup_s is the median import plus the median input generation.  The host
    speed is sampled in this process from the first input generation to the
    last op, and the time of each generation and each op is scaled by the
    samples taken during it.  The imports happen before sampling starts and
    are scaled by the run's mean speed.  An import's time swings up to
    twofold from one run to the next, and no probe follows that: over 73
    imports its log correlated at most 0.34 with the reference kernel, a
    256 MB memory stream, random reads, or a fresh interpreter importing
    stdlib modules.  The run's speed still follows the slower drift that
    moves the median over many runs.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import stablegarch as sg
    import_wall = [time.perf_counter() - t0] + _import_seconds(SETUP_REPEATS - 1)

    sys.path.insert(0, HERE)
    from hostspeed import Sampler
    sampler = Sampler().start()
    try:
        from tracing import Tracer
        from workloads import WORKLOADS
        workload = WORKLOADS[name]
        setups = []
        for _ in range(SETUP_REPEATS):
            t1 = time.perf_counter()
            inputs = workload.make_inputs(sg, seed, seconds)
            setups.append((t1, time.perf_counter()))

        tracer = Tracer(spans=trace).install()
        t_run = time.perf_counter()
        records = _run_ops(sg, workload, inputs, tracer)
        wall_s = time.perf_counter() - t_run
        tracer.uninstall()
    finally:
        sampler.stop()
    if workload.units and not _units(tracer, workload):
        raise RuntimeError(f"{name}: no unit of work was counted; the boundary the "
                           "benchmark counts is no longer called")
    imports = [s * sampler.speed(-math.inf, math.inf) for s in import_wall]
    setups = [sampler.scaled(t0, t1) for t0, t1 in setups]
    for r in records:
        r.seconds = sampler.scaled(*r.interval)
    unit_p50, unit_mean, strata = _unit_figures(records)

    problems = [p for r in records for p in r.problems]
    problems += workload.check(records)
    metrics = {
        "setup_s": (statistics.median(imports) + statistics.median(setups), "s"),
        "unit_ms_p50": (unit_p50, "ms"),
        "unit_ms_mean": (unit_mean, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "wall_s": (wall_s, "s"),
        "ops_s": (sum(r.seconds for r in records), "s"),
        "host_speed": (sampler.speed(t_run, t_run + wall_s), "ratio"),
        "kernel_samples": (len(sampler.starts), "count"),
        "units": (sum(row["units"] for row in strata.values()), "count"),
        "fail_share": (sum(r.failed or r.flagged for r in records) / len(records), "fraction"),
    }
    metrics.update(workload.metrics(records))
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": not problems, "problems": problems,
        "attempted": len(records), "failed": sum(r.failed for r in records),
        "flagged": sum(r.flagged for r in records),
        "errors": sorted({r.error for r in records if r.error}),
        "metrics": metrics, "strata": strata, "import_runs_s": imports,
        "import_wall_s": import_wall,
        "setup_runs_s": setups,
        "env": _environment(sg, inputs),
        "kernel_samples": {"start": [t - t_run for t in sampler.starts],
                           "seconds": sampler.durations},
        "ops": [{"kind": r.kind, "seconds": r.seconds, "wall_s": r.wall_s, "units": r.units,
                 "interval": [r.interval[0] - t_run, r.interval[1] - t_run],
                 "failed": r.failed, "flagged": r.flagged, "error": r.error} for r in records],
    }
    if trace:
        from tracing import layer_metrics
        result["layers"] = layer_metrics(tracer)
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"{name}-seed{seed}-spans.json"))
    return result


def _child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh interpreter and load its result file."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    path = _result_path(name, seed, trace)
    if os.path.exists(path):
        os.remove(path)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    sys.stderr.write(proc.stderr)
    if not os.path.exists(path):
        raise RuntimeError(f"{name}: child run wrote no result (exit {proc.returncode})")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _result_path(name: str, seed: int, trace: int) -> str:
    return os.path.join(OUT, f"{name}-seed{seed}-trace{trace}.json")


def _save(result: dict):
    os.makedirs(OUT, exist_ok=True)
    with open(_result_path(result["workload"], result["seed"], result["trace"]), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=float)


def _print_table(title: str, metrics: dict):
    print(title)
    for key, (value, unit) in metrics.items():
        print(f"  {key:36s} {value:>16.6g} {unit}")


def _line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed),
                       "metrics": {k: {"value": float(v), "unit": u}
                                   for k, (v, u) in metrics.items()}})


def traced_run(name: str, seed: int, seconds: float) -> dict:
    """Untraced child for the end-to-end numbers, then a traced pass here."""
    untraced = _child(name, seed, seconds, 0)
    traced = run_workload(name, seed, seconds, trace=True)
    overhead = traced["metrics"]["ops_s"][0] - untraced["metrics"]["ops_s"][0]
    traced["layers"]["trace.overhead_s"] = (overhead, "s")
    traced["layers"]["trace.overhead_share"] = (overhead / untraced["metrics"]["ops_s"][0],
                                                "ratio")
    traced["untraced"] = {k: untraced[k] for k in ("metrics", "strata", "correct", "problems",
                                                  "attempted", "failed", "flagged")}
    traced["correct"] = traced["correct"] and untraced["correct"]
    traced["problems"] = untraced["problems"] + traced["problems"]
    return traced


def report(result: dict) -> bool:
    name = result["workload"]
    print(f"workload {name}: seed {result['seed']}, {result['attempted']} ops "
          f"{result['env']['ops']}, failed {result['failed']}, flagged {result['flagged']} "
          f"{result['errors']}")
    print("environment " + json.dumps(result["env"]))
    metrics = result["untraced"]["metrics"] if "untraced" in result else result["metrics"]
    _print_table("end-to-end (untraced run)", metrics)
    strata = result["untraced"]["strata"] if "untraced" in result else result["strata"]
    for key, row in strata.items():
        print(f"  stratum {key}: {row['units']} units, "
              f"p50 {row['unit_ms_p50']:.4g} ms, mean {row['unit_ms_mean']:.4g} ms")
    if "layers" in result:
        from tracing import MOVES
        _print_table("per-layer (traced run)", result["layers"])
        print("per-layer metric -> end-to-end figure it should move")
        for names, target in MOVES:
            print(f"  {names} -> {target}")
    for p in result["problems"]:
        print("CHECK FAILED: " + p)
    return result["correct"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _pin_threads()
    if not os.path.isdir(os.path.join(ROOT, "src", "stablegarch")):
        print(f"stablegarch sources not found under {ROOT}/src", file=sys.stderr)
        return 2

    if args.workload == "all":
        ok, attempted, failed, summary = True, 0, 0, {}
        for name in WORKLOAD_NAMES:
            result = _child(name, args.seed, args.seconds, 1)
            ok = report(result) and ok
            attempted += result["untraced"]["attempted"]
            failed += result["untraced"]["failed"]
            for key, val in result["untraced"]["metrics"].items():
                summary[f"{name}.{key}"] = val
            summary[f"{name}.trace.overhead_s"] = result["layers"]["trace.overhead_s"]
        print(_line(ok, attempted, failed, summary))
        return 0 if ok else 1

    if args.trace:
        result = traced_run(args.workload, args.seed, args.seconds)
        metrics = result["layers"]
    else:
        result = run_workload(args.workload, args.seed, args.seconds, trace=False)
        metrics = {k: result["metrics"][k] for k in E2E}
    _save(result)
    ok = report(result)
    attempted = result["untraced"]["attempted"] if args.trace else result["attempted"]
    failed = result["untraced"]["failed"] if args.trace else result["failed"]
    print(_line(ok, attempted, failed, metrics))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
