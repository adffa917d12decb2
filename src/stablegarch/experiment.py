"""Simulation study: accuracy of the stable pseudo-MLE under summed-Student
innovations, summarized as RMSE ratios against the exact-stable reference."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .data import ReturnSeries
from .domain_attraction import MAX_FAILURE_SHARE, USABLE_GRAD, SummedInnovationSpec
from .domain_attraction import calibrate_jK, summed_innovations
from .errors import CalibrationError, ExplosionError, NonFiniteLikelihood, NotConverged
from .estimate import fit_stable_mle, param_names
from .garch.params import GarchParams
from .garch.recursion import simulate
from .stable import FIT_ACCURACY, DensityAccuracy, StableParams

_BURN_IN = 300  # simulated steps discarded before each replication's sample


@dataclass
class ExperimentConfig:
    """Inputs of the summed-innovation estimation study."""

    theta0: GarchParams = GarchParams(0.01, a=(0.02,), b=(0.7,))
    alpha: float = 1.6
    k_list: tuple = (10, 1000, math.inf)
    n: int = 1000
    reps: int = 100
    seed: int = 0
    calibration_samples: int = 1000
    calibration_reps: int = 40
    accuracy: DensityAccuracy = FIT_ACCURACY
    cache_path: str | None = None

    def __post_init__(self):
        if self.reps < 2:
            raise ValueError("reps must be at least 2")
        if self.n < 100:
            raise ValueError("n must be at least 100")
        if not (1.0 < self.alpha < 2.0):
            raise ValueError("alpha must lie in (1, 2)")
        if math.inf not in self.k_list:
            raise ValueError("k_list must hold inf, the reference of every Q ratio")


@dataclass
class ExperimentResult:
    """Per-K estimates, RMSEs and the ratio statistic against K = inf."""

    config: ExperimentConfig
    names: list
    jk: dict
    estimates: dict          # K -> (reps_ok, dim) array
    failures: dict           # K -> count
    rmse: dict               # K -> (dim,) root-mean-squared errors
    mse: dict                # K -> (dim,) mean squared errors
    q_rmse: dict = field(default_factory=dict)
    q_mse: dict = field(default_factory=dict)

    def finalize(self):
        ref_key = math.inf
        for k in self.rmse:
            self.q_rmse[k] = self.rmse[ref_key] / self.rmse[k]
            self.q_mse[k] = self.mse[ref_key] / self.mse[k]
        return self

    def write_csv(self, path, convention: str = "rmse"):
        """Table with one row per parameter, one column of Q per K."""
        q = self.q_rmse if convention == "rmse" else self.q_mse
        ks = sorted(q, key=lambda v: (math.isinf(v), v))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["parameter"] + [_k_label(k) for k in ks])
            for i, name in enumerate(self.names):
                w.writerow([name] + [f"{q[k][i]:.6g}" for k in ks])

    def write_details_csv(self, path):
        """Long format with both error conventions and calibration scales."""
        ks = sorted(self.rmse, key=lambda v: (math.isinf(v), v))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["K", "jK", "reps_ok", "failures", "parameter",
                        "rmse", "mse", "q_rmse", "q_mse"])
            for k in ks:
                for i, name in enumerate(self.names):
                    w.writerow([_k_label(k), f"{self.jk[k]:.8g}",
                                self.estimates[k].shape[0], self.failures[k],
                                name, f"{self.rmse[k][i]:.6g}",
                                f"{self.mse[k][i]:.6g}",
                                f"{self.q_rmse[k][i]:.6g}",
                                f"{self.q_mse[k][i]:.6g}"])


def _k_label(k) -> str:
    return "inf" if math.isinf(k) else str(int(k))


def run_experiment(config: ExperimentConfig, log=None) -> ExperimentResult:
    """Calibrate, simulate and fit for every K; summarize RMSE ratios.

    The protocol per K: calibrate the scale divisor jK, simulate ``reps``
    samples of the model driven by the rescaled summed innovations, estimate
    each by stable pseudo-MLE, and form componentwise RMSEs against the data
    generating parameters.  Q is the RMSE of the exact-stable reference case
    (K = inf) over the RMSE at K.  An unconverged fit whose gradient is
    below ``USABLE_GRAD`` counts.  A replication whose simulated variance
    overflows to a non-finite value or whose fit fails is dropped, and any K
    losing more than ``MAX_FAILURE_SHARE`` of its replications aborts the run.
    """
    tau0 = np.concatenate([config.theta0.as_array(), [config.alpha, 0.0, 0.0]])
    names = param_names(config.theta0.order)
    seeds = np.random.SeedSequence(config.seed)
    result = ExperimentResult(config=config, names=names, jk={}, estimates={},
                              failures={}, rmse={}, mse={})
    psi_dummy = StableParams(config.alpha, 0.0)
    for k in config.k_list:
        jk = calibrate_jK(config.alpha, k, config.calibration_samples,
                          config.calibration_reps,
                          seed=np.random.default_rng(seeds.spawn(1)[0]).integers(2 ** 31),
                          cache_path=config.cache_path)
        spec = SummedInnovationSpec(alpha=config.alpha, K=k, jK=jk)
        rows = []
        failures = 0
        rep_seeds = np.random.SeedSequence((config.seed, 17, int(1e6 if math.isinf(k) else k))).spawn(config.reps)
        for rep in range(config.reps):
            rng = np.random.default_rng(rep_seeds[rep])
            eta = summed_innovations(spec, config.n + _BURN_IN, rng)
            try:
                eps, _ = simulate(config.theta0, psi_dummy, config.n,
                                  burn_in=_BURN_IN, seed=0, innovations=eta)
                fit = fit_stable_mle(eps, acc=config.accuracy,
                                     order=config.theta0.order, n_starts=1, seed=rep,
                                     compute_information=False)
                rows.append(fit.tau_hat.as_array())
            except NotConverged as exc:
                # a near-converged point still informs the RMSE
                if exc.result is not None and exc.result.grad_norm < USABLE_GRAD:
                    rows.append(exc.result.tau_hat.as_array())
                else:
                    failures += 1
            except (NonFiniteLikelihood, ExplosionError, ValueError):
                failures += 1
            if log is not None and (rep + 1) % 20 == 0:
                log(f"K={_k_label(k)}: {rep + 1}/{config.reps} replications")
        if failures > MAX_FAILURE_SHARE * config.reps:
            raise CalibrationError(
                f"{failures}/{config.reps} fits failed for K={_k_label(k)}")
        est = np.array(rows)
        result.jk[k] = jk
        result.estimates[k] = est
        result.failures[k] = failures
        err2 = (est - tau0[None, :]) ** 2
        result.mse[k] = err2.mean(axis=0)
        result.rmse[k] = np.sqrt(err2.mean(axis=0))
    return result.finalize()
