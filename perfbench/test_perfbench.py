"""Self-tests of the benchmark: metric names and units, the failure exit, and
output checks that reject deliberately wrong results.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, OpRecord  # noqa: E402

import stablegarch as sg  # noqa: E402


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_benchmark_json_matches_the_code():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E
    layers = {k: unit for k, (_, unit) in tracing.layer_metrics(tracing.Tracer()).items()}
    layers.update(run.OVERHEAD_UNITS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(trace):
    # the smallest var_desk list: 100 assets
    proc = _run("--workload", "var_desk", "--seed", "3", "--seconds", "0",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] == 100 and line["failed"] == 0
    wanted = _bench()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if trace:
        assert line["metrics"]["engine.builds"]["value"] >= 100
        assert line["metrics"]["stability.lyapunov_calls"]["value"] == 0
    else:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_exits_non_zero_without_the_package():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in ("run.py", "workloads.py", "tracing.py", "hostspeed.py"):
        shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    proc = _run("--workload", "study", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_var_check_rejects_a_perturbed_quantile():
    w = WORKLOADS["var_desk"]
    inputs = w.make_inputs(sg, seed=5, seconds=0)
    kind, spec = inputs["ops"][0]
    rec = w.run_op(sg, inputs, kind, spec)
    assert w.verify_op(sg, rec) == []
    assert w.check([rec]) == []
    rec.payload["quantile"] *= 1.001
    assert w.verify_op(sg, rec)


def test_var_check_rejects_a_hit_count_outside_the_band():
    rec = OpRecord("asset", 0.05, payload={"hits": [(0.01, 40, 400), (0.05, 20, 400)]})
    problems = WORKLOADS["var_desk"].check([rec])
    assert len(problems) == 1 and "p=0.01" in problems[0]


def _reps(alpha):
    return [OpRecord(kind, 3.0, payload={"alpha": alpha, "objective": 1.0, "converged": True})
            for kind in ("rep_K10", "rep_Kinf", "rep_K10", "rep_Kinf")]


@pytest.mark.parametrize("a_star, ok", [(1.545, True), (1.70, False)])
def test_frontier_check_uses_the_closed_form(a_star, ok):
    rec = OpRecord("frontier_point", 0.3,
                   payload={"alpha": 1.6, "b": 0.0, "a_star": a_star, "stderr": 0.01})
    assert (WORKLOADS["garch_paths"].check([rec]) == []) == ok


def test_study_check_rejects_a_biased_alpha():
    assert WORKLOADS["study"].check(_reps(1.2))
    assert WORKLOADS["study"].check(_reps(1.58)) == []


def test_desk_check_rejects_a_missing_information_matrix():
    rec = OpRecord("fit", 15.0, payload={"params": [0.01, 0.04, 0.7, 1.7, 0.3, 0.0],
                                         "objective": 1.2, "J_n": None})
    assert WORKLOADS["desk_fit"].check([rec])
    rec.payload["J_n"] = [[1.0, 0.0], [0.0, 1.0]]
    assert WORKLOADS["desk_fit"].check([rec]) == []


def test_an_unresolved_boundary_stops_the_run(monkeypatch):
    monkeypatch.setattr(tracing, "BOUNDARIES",
                        tracing.BOUNDARIES + [("stablegarch.risk", "no_such_layer", "risk.x", None)])
    with pytest.raises(RuntimeError, match="no_such_layer"):
        tracing.Tracer().install()
    # the boundaries patched before the failure are restored
    assert not hasattr(sg.risk.var_forecast, "__wrapped__")


@pytest.mark.parametrize("spans", [False, True])
def test_the_qmle_warm_start_stays_out_of_the_optimizer_counts(spans):
    rng = np.random.default_rng(11)
    theta = sg.garch.GarchParams(0.01, a=(0.05,), b=(0.8,))
    eps, _ = sg.garch.simulate(theta, sg.stable.StableParams(1.9, 0.0), 300, seed=rng)
    fit = sg.estimate.fit
    bounds = sg.estimate.BoundsConfig([-5.0, -5.0], [5.0, 5.0])
    tracer = tracing.Tracer(spans=spans).install()
    try:
        fit.fit_gaussian_qmle(eps)
        fit.minimize_bounded(lambda x: (float(x @ x), 2.0 * x), np.array([1.0, -2.0]), bounds)
    finally:
        tracer.uninstall()
    assert tracer.calls["fit.qmle"] == 1
    assert tracer.calls["optim.minimize_bounded"] == 1
    assert tracer.calls["fit.objective"] >= 1
    if spans:
        m = tracing.layer_metrics(tracer)
        assert m["optim.starts"][0] == 1 and m["optim.converged_share"][0] == 1.0
        assert m["optim.evals_per_start"][0] == tracer.calls["fit.objective"]


def test_a_stretch_is_scaled_by_the_host_speed_over_it():
    sampler = hostspeed.Sampler()
    # a host at half the reference speed for the first second, then at it
    sampler.starts = [0.1 * i for i in range(20)]
    sampler.durations = [2e-3 * hostspeed.REF_MS] * 10 + [1e-3 * hostspeed.REF_MS] * 10
    assert sampler.speed(0.0, 0.95) == pytest.approx(0.5)
    assert sampler.speed(1.0, 1.9) == pytest.approx(1.0)
    assert sampler.own_time(0.0, 0.95) == pytest.approx(10 * 2e-3 * hostspeed.REF_MS)
    assert sampler.scaled(0.0, 0.95) == pytest.approx(0.5 * (0.95 - 0.02 * hostspeed.REF_MS))
    # a stretch with fewer samples than NEAREST borrows the nearest ones
    assert sampler.speed(0.42, 0.43) == pytest.approx(0.5)


def test_the_sampler_runs_only_while_started():
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler().start()
    try:
        t_end = time.perf_counter() + 0.6
        while time.perf_counter() < t_end:
            sum(range(1000))
    finally:
        sampler.stop()
    taken = len(sampler.starts)
    assert taken >= 3 and all(d > 0 for d in sampler.durations)
    time.sleep(0.3)
    assert len(sampler.starts) == taken
    assert signal.getsignal(signal.SIGALRM) == before
