"""GARCH(p, q) volatility recursion and simulation."""

from __future__ import annotations

import math

import numpy as np

from ..data import ReturnSeries
from ..errors import ExplosionError
from ..stable import StableParams
from ..stable import sample as stable_sample
from .params import GarchParams, VolatilityPath


def _presample_value(eps2: np.ndarray) -> float:
    """Presample squared returns and variances: the in-sample mean of eps**2."""
    return float(np.mean(eps2))


def volatility_path(eps: ReturnSeries, theta: GarchParams) -> VolatilityPath:
    """Conditional variances sigma2_1..sigma2_n given observed returns.

    Presample squared returns and variances are both set to the in-sample
    mean of eps**2; the influence of that choice decays geometrically.
    """
    from scipy import signal

    e2 = eps.values ** 2
    n = e2.size
    p, q = len(theta.b), len(theta.a)
    pre = _presample_value(e2)
    buf_e2 = np.concatenate([np.full(q, pre), e2])
    # forcing c_t = omega + sum_i a_i eps2_{t-i}; the b-lags form a linear
    # recursion solved by a lag filter with presample variances as state
    c = np.full(n, theta.omega)
    for i, ai in enumerate(theta.a, start=1):
        if ai != 0.0:
            c += ai * buf_e2[q - i:q - i + n]
    if p == 0:
        return VolatilityPath(c)
    ar = np.concatenate([[1.0], -np.asarray(theta.b, dtype=float)])
    zi = signal.lfiltic([1.0], ar, np.full(p, pre), np.empty(0))
    sig2, _ = signal.lfilter([1.0], ar, c, zi=zi)
    return VolatilityPath(sig2)


def one_step_variance(eps: ReturnSeries, theta: GarchParams) -> float:
    """Forecast variance for the next observation after the series end."""
    path = volatility_path(eps, theta)
    e2 = eps.values ** 2
    p, q = len(theta.b), len(theta.a)
    pre = _presample_value(e2)
    acc = theta.omega
    for i, ai in enumerate(theta.a, start=1):
        acc += ai * (e2[-i] if i <= e2.size else pre)
    for j, bj in enumerate(theta.b, start=1):
        acc += bj * (path.sigma2[-j] if j <= path.sigma2.size else pre)
    return float(acc)


def simulate(theta: GarchParams, psi: StableParams, n: int, burn_in: int = 500,
             seed=0, innovations: np.ndarray | None = None
             ) -> tuple[ReturnSeries, VolatilityPath]:
    """Simulate the model eps_t = sigma_t * eta_t with the GARCH(p, q) recursion.

    Innovations are stable draws from psi unless an explicit array of length
    n + burn_in is injected (used for summed-innovation experiments).  The
    first burn_in steps are discarded.  Raises ExplosionError once the
    variance overflows to a non-finite value.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    total = n + burn_in
    if innovations is None:
        eta = stable_sample(psi, total, seed)
    else:
        eta = np.asarray(innovations, dtype=float)
        if eta.size < total:
            raise ValueError(f"need {total} innovations, got {eta.size}")
    omega, a, b = theta.omega, theta.a, theta.b
    start = omega / max(1.0 - sum(a) - sum(b), 0.05)
    # lags as Python floats, most recent first
    e2 = [start] * len(a)
    s2 = [start] * len(b)
    eps_out = np.empty(total)
    sig2_out = np.empty(total)
    for t, z in enumerate(eta[:total].tolist()):
        var = omega
        for ai, x in zip(a, e2):
            var += ai * x
        for bj, x in zip(b, s2):
            var += bj * x
        if not math.isfinite(var):
            raise ExplosionError(f"sigma^2 overflowed to {var} at step {t}", t=t, sigma2=var)
        e = math.sqrt(var) * z
        eps_out[t] = e
        sig2_out[t] = var
        e2.insert(0, e * e)
        e2.pop()
        s2.insert(0, var)
        s2.pop()
    return (ReturnSeries(eps_out[burn_in:]),
            VolatilityPath(sig2_out[burn_in:]))
