"""Strict-stationarity tooling: companion matrices, Lyapunov exponents, frontier."""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import optimize

from ..stable import StableParams
from ..stable import sample as stable_sample
from .params import GarchParams

_RENORM_EVERY = 10


class LyapunovEstimate(NamedTuple):
    estimate: float
    stderr: float


class FrontierPoint(NamedTuple):
    """Root a_star of the GARCH(1,1) Lyapunov exponent at (alpha, b); stderr is the se of a*."""

    alpha: float
    b: float
    a_star: float
    stderr: float


def _companion_split(theta: GarchParams):
    """(C0, C1) with companion matrix A(eta) = C0 + eta^2 * C1, for vectorized products.

    A(eta) is the matrix of the squared-process vector recursion.  The state
    stacks (eps2_t..eps2_{t-q+1}, sigma2_t..sigma2_{t-p+1}); the top row
    carries a_i*eta^2, b_j*eta^2, the row below the squared-return block
    carries a_i, b_j, and shifted identities fill the lag blocks.
    """
    p, q = len(theta.b), len(theta.a)
    d = p + q
    c0 = np.zeros((d, d))
    c1 = np.zeros((d, d))
    top = np.concatenate([theta.a, theta.b])
    c1[0, :] = top
    for i in range(1, q):
        c0[i, i - 1] = 1.0
    if p >= 1:
        c0[q, :] = top
        for j in range(1, p):
            c0[q + j, q + j - 1] = 1.0
    return c0, c1


def _matrix_norm_l1(m: np.ndarray) -> np.ndarray:
    """Sum of absolute entries, over the trailing two axes."""
    return np.abs(m).sum(axis=(-2, -1))


def _squared_draws(psi: StableParams, horizon: int, replications: int, seed) -> np.ndarray:
    """eta_t^2 of the standardized law, one spawned stream per replication (row).

    The draws are read-only.  An integer seed names its draws, so the last
    integer-seeded set is kept and every estimate on the same (law, horizon,
    replications, seed) reuses it: a frontier call draws once, for all its
    estimates and every b.  Any other seed (None: fresh entropy) draws anew
    on each call.
    """
    draw = _kept_draws if isinstance(seed, int) else _draw_squared
    return draw(psi.standardized(), horizon, replications, seed)


def _draw_squared(psi: StableParams, horizon: int, replications: int, seed) -> np.ndarray:
    seeds = np.random.SeedSequence(seed).spawn(replications)
    eta2 = np.empty((replications, horizon))
    for r, s in enumerate(seeds):
        np.square(stable_sample(psi, horizon, np.random.default_rng(s)), out=eta2[r])
    eta2.flags.writeable = False
    return eta2


_kept_draws = lru_cache(maxsize=1)(_draw_squared)


def lyapunov_exponent(theta: GarchParams, psi: StableParams, horizon: int = 4000,
                      replications: int = 24, seed=0) -> LyapunovEstimate:
    """Monte-Carlo top Lyapunov exponent of the companion-matrix products.

    Each replication averages over an independent innovation stream of
    ``horizon`` draws; the standard error is that of the mean over the
    replications.  For GARCH(1,1) A(eta) = (eta^2, 1)^T (a, b) has rank one,
    so the exponent is exactly E log(b + a eta^2) (Nelson 1990) and the
    estimate is the sample mean of log(b + a eta^2).  Other orders accumulate
    log || A_t ... A_1 ||, rescaling the running product to unit norm every
    few steps so heavy-tailed draws cannot overflow it.  The exponent does not
    depend on omega (the companion matrix contains no level term).  An
    integer ``seed`` reuses the draws of the last call with the same law,
    horizon, replications and seed; ``seed=None`` draws anew on every call.
    """
    if horizon < 10 ** 3:
        raise ValueError("horizon must be at least 1000")
    if replications < 2:
        raise ValueError("need at least 2 replications")
    eta2 = _squared_draws(psi, horizon, replications, seed)
    if len(theta.a) == len(theta.b) == 1:
        x = theta.a[0] * eta2  # one buffer for a eta^2, b + a eta^2 and its log
        x += theta.b[0]
        per_rep = np.log(x, out=x).mean(axis=1)
    else:
        c0, c1 = _companion_split(theta)
        prod = np.broadcast_to(np.eye(c0.shape[0]), (replications,) + c0.shape).copy()
        acc = np.zeros(replications)
        for t in range(horizon):
            prod = c0 @ prod + eta2[:, t, None, None] * (c1 @ prod)
            if (t + 1) % _RENORM_EVERY == 0:
                norm = _matrix_norm_l1(prod)
                acc += np.log(norm)
                prod /= norm[:, None, None]
        per_rep = (acc + np.log(_matrix_norm_l1(prod))) / horizon
    return LyapunovEstimate(float(per_rep.mean()),
                            float(per_rep.std(ddof=1) / np.sqrt(replications)))


def stationarity_frontier(alpha: float, b_grid, horizon: int = 4000,
                          replications: int = 24, seed=0) -> list[FrontierPoint]:
    """Frontier a*(b) of GARCH(1,1) where the top Lyapunov exponent crosses zero.

    Every estimate reuses the same innovation draws (common random numbers),
    so gamma-hat(a) = mean log(b + a eta^2) is smooth and strictly increasing
    in a, and a* is its root, found by ``brentq`` after doubling the upper
    end of the bracket from 0.5.  ``stderr`` is the se of a*, by the delta
    method: se(gamma-hat) / mean(eta^2 / (b + a* eta^2)) on the same draws.
    The draws do not depend on b: they are taken once per call and shared
    by every estimate and every b of the grid.
    """
    psi = StableParams(alpha, 0.0)
    seed = np.random.SeedSequence(seed).entropy  # None: new draws per call, not per estimate
    out = []
    for b in np.atleast_1d(np.asarray(b_grid, dtype=float)):
        def gamma_at(a_val: float) -> LyapunovEstimate:
            theta = GarchParams(omega=1.0, a=(a_val,), b=(b,))
            return lyapunov_exponent(theta, psi, horizon, replications, seed)

        lo, hi = 1e-8, 0.5
        while gamma_at(hi).estimate <= 0.0:
            lo, hi = hi, 2.0 * hi
        a_star = optimize.brentq(lambda a_val: gamma_at(a_val).estimate, lo, hi)
        eta2 = _squared_draws(psi, horizon, replications, seed)
        slope = float(np.mean(eta2 / (b + a_star * eta2)))
        out.append(FrontierPoint(alpha, float(b), a_star, gamma_at(a_star).stderr / slope))
    return out
