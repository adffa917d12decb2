"""Generalized-CLT utilities: limit constants, summed-Student innovations,
scale calibration for identifiability, and density-convergence diagnostics."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from .errors import CalibrationError
from .stable import FIT_ACCURACY, StableParams, get_engine
from .stable import log_density_terms
from .stable import density as stable_density
from .stable import sample as stable_sample
from .estimate.optim import BoundedResult, minimize_bounded
from .estimate.params import BoundsConfig

# Share of fits in a calibration, or of replications per K in a study, that
# may fail before the whole run is abandoned.
MAX_FAILURE_SHARE = 0.2
# A fit flagged unconverged whose transformed gradient is below this still
# counts in a calibration or a study: at FIT_ACCURACY the line search often
# stops ABNORMAL at the optimum, above the gradient tolerance, because the
# objective's value is rough at that scale where its gradient is not.
USABLE_GRAD = 1e-2


@dataclass(frozen=True)
class GcltSpec:
    """Tail description P[X > x] ~ K1 x^-alpha, P[X < -x] ~ K2 x^-alpha."""

    alpha: float
    K1: float
    K2: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0) or self.alpha == 1.0:
            raise ValueError("alpha must lie in (0, 2) excluding 1")
        if self.K1 <= 0.0 or self.K2 <= 0.0:
            raise ValueError("tail constants must be positive")


class GcltConstants(NamedTuple):
    beta: float
    a: float


def gclt_constants(spec: GcltSpec) -> GcltConstants:
    """Normalization constants of the stable limit of normalized i.i.d. sums.

    With m the centering (the mean when alpha > 1, zero when alpha < 1),
    sum_{t<=n} (X_t - m) / (a n^(1/alpha)) converges to the stable law
    S(alpha, beta, beta*tan(alpha*pi/2), 1).
    """
    al = spec.alpha
    if al < 1.0:
        m_alpha = -special.gamma(1.0 - al) / al
    else:
        m_alpha = special.gamma(2.0 - al) / (al * (al - 1.0))
    beta = (spec.K1 - spec.K2) / (spec.K1 + spec.K2)
    a = (-al * m_alpha * (spec.K1 + spec.K2) * math.cos(al * math.pi / 2.0)) ** (1.0 / al)
    return GcltConstants(beta=beta, a=float(a))


def gclt_limit_params(spec: GcltSpec) -> StableParams:
    """Stable law of the n^(-1/alpha)-normalized sum without the 1/a rescale."""
    c = gclt_constants(spec)
    tau = c.beta * math.tan(spec.alpha * math.pi / 2.0)
    return StableParams(spec.alpha, c.beta, mu=c.a * tau, gamma=c.a)


def student_tail_constant(alpha: float) -> float:
    """K with P[t_alpha > x] ~ K x^-alpha, from the t-density tail."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    num = special.gamma((alpha + 1.0) / 2.0) * alpha ** (alpha / 2.0 - 1.0)
    return float(num / (math.sqrt(math.pi) * special.gamma(alpha / 2.0)))


def student_gclt_spec(alpha: float) -> GcltSpec:
    k = student_tail_constant(alpha)
    return GcltSpec(alpha=alpha, K1=k, K2=k)


@dataclass(frozen=True)
class SummedInnovationSpec:
    """Summed-Student innovation: (1/(jK * K^(1/alpha))) * sum of K t_alpha draws.

    K = math.inf draws directly from the calibrated stable limit.
    """

    alpha: float
    K: float  # positive integer or math.inf
    jK: float = 1.0

    def __post_init__(self):
        if not (1.0 < self.alpha < 2.0):
            raise ValueError("alpha must lie in (1, 2)")
        if not (self.K == math.inf or (float(self.K).is_integer() and self.K >= 1)):
            raise ValueError("K must be a positive integer or math.inf")
        if not self.jK > 0.0:
            raise ValueError("jK must be positive")


def summed_innovations(spec: SummedInnovationSpec, n: int, seed=0) -> np.ndarray:
    """Draw n summed-Student innovations; deterministic per seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if spec.K == math.inf:
        limit = gclt_limit_params(student_gclt_spec(spec.alpha))
        return stable_sample(limit, n, rng) / spec.jK
    k = int(spec.K)
    out = np.empty(n)
    norm = spec.jK * k ** (1.0 / spec.alpha)
    # chunk so K * n draws never exhaust memory
    chunk = max(1, int(4e6 // max(k, 1)))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        draws = rng.standard_t(spec.alpha, size=(hi - lo, k))
        out[lo:hi] = draws.sum(axis=1) / norm
    return out


_IID_PSI_STARTS = [(1.7, 0.0), (1.4, 0.0)]


def fit_stable_iid(x: np.ndarray) -> tuple[StableParams, bool]:
    """Four-parameter maximum likelihood for an i.i.d. stable sample.

    Returns the fitted parameters and a convergence flag.  Uses the same
    bounded quasi-Newton stack as the GARCH fits at ``FIT_ACCURACY``, with
    the scale searched on a log axis.
    """
    res = _fit_stable_iid(x)
    return StableParams(*res.x), res.converged


def _fit_stable_iid(x: np.ndarray) -> BoundedResult:
    """``fit_stable_iid``'s best optimizer result over its starts."""
    x = np.asarray(x, dtype=float)
    bounds = BoundsConfig(np.array([0.4, -0.99, -10.0, 1e-3]),
                          np.array([1.99, 0.99, 10.0, 1e3]))

    def fun_grad(par):
        al, be, mu, ga = par
        z = (x - mu) / ga
        logf, slope, d_shape = log_density_terms(z, al, be, FIT_ACCURACY)
        nll = float(np.log(ga) - np.mean(logf))
        # location and scale enter through z: analytic chain rule
        g = np.concatenate([-d_shape.mean(axis=0),
                            [np.mean(slope) / ga, (1.0 + np.mean(z * slope)) / ga]])
        return nll, g

    iqr = float(np.subtract(*np.percentile(x, [75, 25])))
    med = float(np.median(x))
    best = None
    for a0, b0 in _IID_PSI_STARTS:
        eng = get_engine(StableParams(a0, b0), FIT_ACCURACY)
        iqr0 = eng.ppf(0.75) - eng.ppf(0.25)
        x0 = np.array([a0, b0, med, max(iqr / iqr0, 1e-3)])
        res = minimize_bounded(fun_grad, x0, bounds)
        key = (0 if res.converged else 1, res.fun)
        if best is None or key < best[0]:
            best = (key, res)
    return best[1]


def calibrate_jK(alpha: float, K, samples: int = 1000, reps: int = 100,
                 seed=0, cache_path=None) -> float:
    """Scale divisor making the summed-Student innovation unit-identified.

    For each replication, draws ``samples`` values of K^(-1/alpha) * sum of K
    Student draws and fits a four-parameter stable law; the calibrated jK is
    the average fitted scale, which realizes the convention that the closest
    stable law to the innovation has unit scale.  A fit counts when it
    converged or its gradient is below ``USABLE_GRAD``, as in
    ``run_experiment``.  Results are cached in a JSON sidecar keyed by every
    input.
    """
    if reps < 10:
        raise ValueError("reps must be at least 10")
    # an integral seed is keyed as a plain int: numpy 2 prints np.int64(7)
    # where numpy 1.x prints 7, and the sidecar must hit under both
    seed_key = int(seed) if isinstance(seed, (int, np.integer)) else seed
    key = f"alpha={alpha!r},K={K!r},samples={samples},reps={reps},seed={seed_key!r}"
    cache = {}
    if cache_path is not None and os.path.exists(cache_path):
        with open(cache_path, encoding="utf-8") as fh:
            cache = json.load(fh)
        if key in cache:
            return float(cache[key])
    if K == math.inf:
        value = gclt_constants(student_gclt_spec(alpha)).a
    else:
        rng = np.random.default_rng(seed)
        base = SummedInnovationSpec(alpha=alpha, K=K, jK=1.0)
        gammas = []
        failures = 0
        for rep in range(reps):
            x = summed_innovations(base, samples, rng)
            try:
                res = _fit_stable_iid(x)
            except ValueError:
                res = None
            if res is None or not (res.converged or res.grad_norm < USABLE_GRAD):
                failures += 1
                continue
            gammas.append(res.x[3])
        if failures > MAX_FAILURE_SHARE * reps:
            raise CalibrationError(
                f"{failures}/{reps} stable fits failed during calibration")
        value = float(np.mean(gammas))
    if cache_path is not None:
        cache[key] = value
        with open(cache_path, "w", encoding="utf-8") as fh:
            json.dump(cache, fh, indent=2, sort_keys=True)
    return value


def density_sup_distance(sample: np.ndarray, psi: StableParams, delta: float = 0.0) -> float:
    """Weighted sup distance between a kernel estimate and the stable density.

    sup over the central 99.9% sample range of (1 + |x|)^delta * |f_n - f|,
    with a Gaussian kernel whose bandwidth follows a Silverman rule on the
    interquartile range (variance-based rules collapse under heavy tails),
    on 2048 bins, against the density at ``FIT_ACCURACY``.
    delta = 0 is the plain sup-norm diagnostic; delta may not exceed alpha.
    """
    if not (0.0 <= delta <= psi.alpha):
        raise ValueError("delta must lie in [0, alpha]")
    x = np.asarray(sample, dtype=float)
    n = x.size
    iqr = float(np.subtract(*np.percentile(x, [75, 25])))
    h = 0.9 * (iqr / 1.34) * n ** (-0.2)
    lo, hi = np.percentile(x, [0.05, 99.95])
    pad = 4.0 * h
    edges = np.linspace(lo - pad, hi + pad, 2048 + 1)
    counts, _ = np.histogram(x, bins=edges)
    width = edges[1] - edges[0]
    centers = 0.5 * (edges[1:] + edges[:-1])
    # smooth the binned counts with the Gaussian kernel
    half = int(np.ceil(5.0 * h / width))
    kx = np.arange(-half, half + 1) * width
    kernel = np.exp(-0.5 * (kx / h) ** 2)
    kernel /= kernel.sum()
    dens = np.convolve(counts / (n * width), kernel, mode="same")
    inside = (centers >= lo) & (centers <= hi)
    ref = stable_density(centers[inside], psi, FIT_ACCURACY)
    w = (1.0 + np.abs(centers[inside])) ** delta
    return float(np.max(w * np.abs(dens[inside] - ref)))
