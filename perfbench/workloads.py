"""The four benchmark workloads: inputs from a seed, a fixed op list, checks.

Every workload is a closed loop with one thread of work: an op starts when
the previous one has returned.  Inputs are generated from the benchmark seed
during set-up; the library only ever receives those generated inputs.  The op
count of each workload is ``--seconds`` times a fixed per-workload rate, so
the op list is fixed for a given (seed, seconds) pair and both commits of a
comparison run identical work.  On a 2-CPU x86 container at 30 seconds a
run takes about 35 s for study, 35-55 s for desk_fit, 15 s for var_desk and
22 s for garch_paths, set-up included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# run_experiment's paper design and the desk/risk/frontier settings
THETA0 = (0.01, 0.02, 0.7)
STUDY_ALPHA = 1.6
STUDY_N, STUDY_BURN_IN = 1000, 300
CALIB_SAMPLES, CALIB_K = 1000, 10
DESK_THETA, DESK_ALPHA, DESK_BETA = (0.01, 0.04, 0.7), 1.7, 0.3
DESK_N, DESK_BURN_IN = 1000, 500
VAR_HISTORY, VAR_OUTSAMPLE, VAR_BURN_IN = 200, 400, 100
VAR_LEVELS = (0.01, 0.05)
FRONTIER_ALPHAS, FRONTIER_BS = (1.6, 2.0), (0.0, 0.6)
SIM_N, SIM_BURN_IN = 10 ** 5, 500
EULER_GAMMA = 0.5772156649015329

# A NotConverged fit whose gradient is this small is still an estimate:
# run_experiment keeps it, so the op is flagged rather than failed.  An op
# fails when it raises a package error (see run._run_ops).
USABLE_GRAD = 1e-2


@dataclass
class OpRecord:
    kind: str
    # the op's time at the reference host speed (see hostspeed); its wall
    # time and (start, end) on the perf_counter clock are kept beside it
    seconds: float
    wall_s: float = 0.0
    interval: tuple = (0.0, 0.0)
    failed: bool = False
    flagged: bool = False
    error: str = ""
    payload: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    # the op's units of work: calls of the workload's unit boundaries (see
    # run._units); zero when the workload has none
    units: int = 0


def _count(seconds: float, ops_per_s: float, minimum: int) -> int:
    return max(minimum, int(round(seconds * ops_per_s)))


def _simulate(sg, theta, psi, n, burn_in, rng):
    """(returns, redraws): a simulated path, redrawn while it trips the guard.

    simulate raises ExplosionError once sigma^2 passes 1e12 * omega, which
    also happens on stationary models when alpha is near 1.2: one squared
    innovation can reach 1e9.  Such a path is an input the benchmark cannot
    use, so it draws the next one and reports how many it skipped.
    """
    for redraws in range(100):
        try:
            eps, _ = sg.garch.simulate(theta, psi, n, burn_in=burn_in, seed=rng)
            return eps, redraws
        except sg.ExplosionError:
            continue
    raise RuntimeError(f"no path below the explosion guard in 100 draws for {theta}, {psi}")


def _fit(sg, call):
    """(fit, flagged); a NotConverged fit with an unusable estimate re-raises."""
    try:
        return call(), False
    except sg.NotConverged as exc:
        if exc.result is None or not exc.result.grad_norm < USABLE_GRAD:
            raise
        return exc.result, True


# -- study ---------------------------------------------------------------------

class Study:
    name = "study"
    units = ("fit.objective", "domain_attraction.objective")
    why = ("the paper's replication loop: summed-Student draws, simulate, single-start "
           "stable MLE at FIT_ACCURACY with heavy engine-cache reuse, plus calibration fits")
    # six replications in a 30 s run, half of them at K = 10
    reps_per_s = 6 / 30

    def make_inputs(self, sg, seed: int, seconds: float) -> dict:
        reps = _count(seconds, self.reps_per_s, 2)
        da = sg.domain_attraction
        jk = da.gclt_constants(da.student_gclt_spec(STUDY_ALPHA)).a
        ops = [("calib_fit", {"rng": np.random.SeedSequence((seed, 23, i))}) for i in range(2)]
        # replications alternate K = 10 and K = inf with run_experiment's
        # seeding; the op kinds are the strata of the unit figures
        for rep in range(reps):
            k = CALIB_K if rep % 2 == 0 else math.inf
            ss = np.random.SeedSequence((seed, 17, int(1e6 if math.isinf(k) else k), rep))
            ops.append((f"rep_K{k}", {"K": k, "rep": rep, "rng": ss}))
        return {"jk": jk, "ops": ops}

    def run_op(self, sg, inputs: dict, kind: str, spec: dict) -> OpRecord:
        da = sg.domain_attraction
        rng = np.random.default_rng(spec["rng"])
        if kind == "calib_fit":
            x = da.summed_innovations(
                da.SummedInnovationSpec(alpha=STUDY_ALPHA, K=CALIB_K, jK=1.0), CALIB_SAMPLES, rng)
            psi, converged = da.fit_stable_iid(x)
            return OpRecord(kind, 0.0, flagged=not converged,
                            payload={"alpha": psi.alpha, "gamma": psi.gamma,
                                     "converged": bool(converged)})
        spec_k = da.SummedInnovationSpec(alpha=STUDY_ALPHA, K=spec["K"], jK=inputs["jk"])
        eta = da.summed_innovations(spec_k, STUDY_N + STUDY_BURN_IN, rng)
        theta0 = sg.garch.GarchParams(THETA0[0], a=(THETA0[1],), b=(THETA0[2],))
        eps, _ = sg.garch.simulate(theta0, sg.stable.StableParams(STUDY_ALPHA, 0.0), STUDY_N,
                                   burn_in=STUDY_BURN_IN, seed=0, innovations=eta)
        fit, flagged = _fit(sg, lambda: sg.estimate.fit_stable_mle(
            eps, n_starts=1, seed=spec["rep"], compute_information=False))
        return OpRecord(kind, 0.0, flagged=flagged, payload={
            "alpha": fit.tau_hat.alpha, "objective": fit.neg_loglik, "converged": fit.converged})

    def check(self, records: list[OpRecord]) -> list[str]:
        bad = []
        reps = [r for r in records if r.kind.startswith("rep") and not r.failed]
        if not reps:
            return ["study: no replication produced an estimate"]
        med_all = float(np.median([r.payload["alpha"] for r in reps]))
        inf_reps = [r.payload["alpha"] for r in reps if r.kind == "rep_Kinf"]
        # K = 10 sums sit far from their stable limit and bias alpha-hat down
        if abs(med_all - STUDY_ALPHA) > 0.3:
            bad.append(f"study: median alpha-hat {med_all:.3f} not near {STUDY_ALPHA}")
        if inf_reps and abs(float(np.median(inf_reps)) - STUDY_ALPHA) > 0.15:
            bad.append(f"study: K=inf median alpha-hat {np.median(inf_reps):.3f} "
                       f"not near {STUDY_ALPHA}")
        for r in reps:
            if r.payload["converged"] and not np.isfinite(r.payload["objective"]):
                bad.append("study: converged fit with non-finite objective")
        for r in records:
            if r.kind != "calib_fit" or r.failed:
                continue
            if not (1.0 < r.payload["alpha"] < 2.0 and 0.0 < r.payload["gamma"] < np.inf):
                bad.append(f"study: calibration fit out of range {r.payload}")
        return bad

    def metrics(self, records: list[OpRecord]) -> dict:
        reps = [r.seconds for r in records if r.kind.startswith("rep")]
        calib = [r.seconds for r in records if r.kind == "calib_fit"]
        return {"rep_s_p50": (float(np.median(reps)), "s"),
                "calib_fit_s_p50": (float(np.median(calib)), "s")}


# -- desk_fit ------------------------------------------------------------------

class DeskFit:
    name = "desk_fit"
    units = ("fit.objective", "domain_attraction.objective")
    why = ("the CLI fit default on an n=1000 skewed series: 5 starts with Gaussian-QMLE "
           "warm start and ppf starts, then J_n standard errors")
    # one fit's path through (alpha, beta) sets what its evaluations cost, and
    # a few fits fall back to per-point quadrature, so a run takes the median
    # over three series
    fits_per_s = 1 / 10

    def make_inputs(self, sg, seed: int, seconds: float) -> dict:
        theta = sg.garch.GarchParams(DESK_THETA[0], a=(DESK_THETA[1],), b=(DESK_THETA[2],))
        psi = sg.stable.StableParams(DESK_ALPHA, DESK_BETA)
        ops, redraws = [], 0
        for i in range(_count(seconds, self.fits_per_s, 1)):
            rng = np.random.default_rng(np.random.SeedSequence((seed, 31, i)))
            eps, skipped = _simulate(sg, theta, psi, DESK_N, DESK_BURN_IN, rng)
            redraws += skipped
            ops.append(("fit", {"eps": eps}))
        return {"ops": ops, "redraws": redraws}

    def run_op(self, sg, inputs: dict, kind: str, spec: dict) -> OpRecord:
        # the CLI's defaults: order (1, 1), seed 0, 5 starts, information on
        fit, flagged = _fit(sg, lambda: sg.estimate.fit_stable_mle(spec["eps"], seed=0,
                                                                  n_starts=5))
        return OpRecord(kind, 0.0, flagged=flagged, payload={
            "params": fit.param_array().tolist(), "objective": fit.neg_loglik,
            "J_n": None if fit.J_n is None else np.asarray(fit.J_n).tolist()})

    def check(self, records: list[OpRecord]) -> list[str]:
        bad = []
        for r in records:
            if r.failed:
                continue
            alpha = r.payload["params"][3]
            if not np.isfinite(r.payload["objective"]):
                bad.append("desk_fit: non-finite objective")
            if abs(alpha - DESK_ALPHA) > 0.2:
                bad.append(f"desk_fit: alpha-hat {alpha:.3f} not near {DESK_ALPHA}")
            jn = r.payload["J_n"]
            if jn is None or not np.all(np.isfinite(jn)):
                bad.append("desk_fit: information matrix missing or non-finite")
        return bad

    def metrics(self, records: list[OpRecord]) -> dict:
        return {"fit_s": (float(np.median([r.seconds for r in records])), "s")}


# -- var_desk ------------------------------------------------------------------

class VarDesk:
    name = "var_desk"
    units = ()
    why = ("per-asset VaR and backtests at DEFAULT_ACCURACY on a cold engine each: "
           "FFT table, cdf and ppf work with no likelihood or optimizer")
    # at least 100 assets, so that 10 lie beyond the p90
    assets_per_s = 4.0

    def make_inputs(self, sg, seed: int, seconds: float) -> dict:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 41)))
        ops, redraws = [], 0
        for _ in range(_count(seconds, self.assets_per_s, 100)):
            alpha, beta = rng.uniform(1.2, 1.95), rng.uniform(-0.5, 0.5)
            mu = rng.uniform(-0.05, 0.05)
            # a in [0.01, 0.035] and b in [0.4, 0.7] keep the top Lyapunov
            # exponent below -0.05 down to alpha = 1.2
            theta = sg.garch.GarchParams(float(np.exp(rng.uniform(np.log(0.005), np.log(0.05)))),
                                         a=(rng.uniform(0.01, 0.035),), b=(rng.uniform(0.4, 0.7),))
            tau = sg.estimate.ModelParams(theta, alpha, beta, mu)
            eps, skipped = _simulate(sg, theta, tau.psi, VAR_HISTORY + VAR_OUTSAMPLE,
                                     VAR_BURN_IN, rng)
            redraws += skipped
            fit = sg.estimate.FitResult(tau_hat=tau, neg_loglik=float("nan"), J_n=None,
                                        std_errors=None, iterations=0, converged=True,
                                        constraint_active=None, method="stable",
                                        n_obs=VAR_HISTORY)
            ops.append(("asset", {"fit": fit, "history": eps.slice(0, VAR_HISTORY),
                                  "outsample": eps.slice(VAR_HISTORY, len(eps))}))
        return {"ops": ops, "redraws": redraws}

    def run_op(self, sg, inputs: dict, kind: str, spec: dict) -> OpRecord:
        fit = spec["fit"]
        forecast = sg.risk.var_forecast(fit, spec["history"], VAR_LEVELS[0])
        reports = [sg.risk.backtest(fit, spec["outsample"], p) for p in VAR_LEVELS]
        return OpRecord(kind, 0.0, payload={
            "tau": fit.tau_hat, "quantile": forecast.var_value / forecast.sigma,
            "p": forecast.p, "hits": [(r.p, r.hits, r.total) for r in reports]})

    def verify_op(self, sg, record: OpRecord) -> list[str]:
        """cdf(quantile(p)) against the certified bound, on the engine just used."""
        tau, q, p = record.payload["tau"], record.payload["quantile"], record.payload["p"]
        eng = sg.stable.engine.get_engine(tau.psi, sg.stable.DEFAULT_ACCURACY)
        val, err = eng.cdf_with_err(np.array([q - tau.mu]))
        # brentq stops at xtol=1e-12 on x, worth at most f * 1e-12 in probability
        if abs(float(val[0]) - p) > float(err[0]) + 1e-10:
            return [f"var_desk: cdf(quantile({p})) = {float(val[0]):.3e} outside "
                    f"the certified bound {float(err[0]):.1e} for {tau.psi}"]
        return []

    def check(self, records: list[OpRecord]) -> list[str]:
        from scipy import stats
        bad = []
        for r in records:
            for p, hits, total in r.payload.get("hits", ()):
                # each asset's returns come from its own model; a two-sided
                # 1e-6 band keeps false alarms negligible over many runs
                lo, hi = stats.binom.interval(1.0 - 1e-6, total, p)
                if not lo <= hits <= hi:
                    bad.append(f"var_desk: {hits}/{total} hits at p={p} outside "
                               f"[{lo:.0f}, {hi:.0f}]")
        return bad

    def metrics(self, records: list[OpRecord]) -> dict:
        t = np.array([r.seconds for r in records])
        return {"var_s_p50": (float(np.median(t)), "s"),
                "var_s_p90": (float(np.quantile(t, 0.9)), "s")}


# -- garch_paths ---------------------------------------------------------------

class GarchPaths:
    name = "garch_paths"
    units = ("stability.lyapunov",)
    why = ("the CLI frontier and simulate commands: Lyapunov bisection and the Python "
           "recursion loop, with no density engine, so engine changes must leave it flat")
    # six rounds in a 30 s run; a round is the four frontier points and one
    # simulated path, about 3 s
    rounds_per_s = 6 / 30

    def make_inputs(self, sg, seed: int, seconds: float) -> dict:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 53)))
        ops = []
        for _ in range(_count(seconds, self.rounds_per_s, 1)):
            for alpha in FRONTIER_ALPHAS:
                for b in FRONTIER_BS:
                    ops.append(("frontier_point", {"alpha": alpha, "b": b,
                                                   "seed": int(rng.integers(2 ** 31))}))
            ops.append(("simulate", {"seed": int(rng.integers(2 ** 31))}))
        return {"ops": ops}

    def run_op(self, sg, inputs: dict, kind: str, spec: dict) -> OpRecord:
        if kind == "frontier_point":
            (pt,) = sg.garch.stationarity_frontier(spec["alpha"], [spec["b"]], seed=spec["seed"])
            return OpRecord(kind, 0.0, payload={"alpha": pt.alpha, "b": pt.b,
                                                "a_star": pt.a_star, "stderr": pt.stderr})
        theta0 = sg.garch.GarchParams(THETA0[0], a=(THETA0[1],), b=(THETA0[2],))
        eps, vol = sg.garch.simulate(theta0, sg.stable.StableParams(STUDY_ALPHA, 0.0), SIM_N,
                                     burn_in=SIM_BURN_IN, seed=spec["seed"])
        return OpRecord(kind, 0.0, payload={
            "steps": SIM_N + SIM_BURN_IN,
            "finite": bool(np.isfinite(eps.values).all() and np.isfinite(vol.sigma2).all())})

    def check(self, records: list[OpRecord]) -> list[str]:
        bad = []
        for r in records:
            pl = r.payload
            if r.failed:
                continue
            if r.kind == "simulate" and not pl["finite"]:
                bad.append("garch_paths: simulated path not finite")
            if r.kind == "frontier_point" and pl["b"] == 0.0:
                # ARCH(1): gamma(a) = log a + E log eta^2, so the root is
                # a* = exp(-E log eta^2) = exp(2 gamma_E (1 - 1/alpha)), and the
                # stopping rule |gamma| <= 2 se puts a* within 2 se in log scale
                closed = math.exp(2.0 * EULER_GAMMA * (1.0 - 1.0 / pl["alpha"]))
                if abs(math.log(pl["a_star"] / closed)) > 6.0 * pl["stderr"]:
                    bad.append(f"garch_paths: a*(b=0) = {pl['a_star']:.4f} at alpha="
                               f"{pl['alpha']} vs closed form {closed:.4f} "
                               f"(se {pl['stderr']:.4f})")
            if r.kind == "frontier_point" and not 0.0 < pl["a_star"] < 10.0:
                bad.append(f"garch_paths: a* = {pl['a_star']} out of range")
        return bad

    def metrics(self, records: list[OpRecord]) -> dict:
        pts = [r.seconds for r in records if r.kind == "frontier_point"]
        sims = [r for r in records if r.kind == "simulate" and not r.failed]
        steps = sum(r.payload["steps"] for r in sims)
        return {"frontier_point_s_p50": (float(np.median(pts)), "s"),
                "sim_steps_per_s": (steps / sum(r.seconds for r in sims), "steps/s")}


WORKLOADS = {w.name: w for w in (Study(), DeskFit(), VarDesk(), GarchPaths())}
