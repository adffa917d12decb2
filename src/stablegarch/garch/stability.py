"""Strict-stationarity tooling: companion matrices, Lyapunov exponents, frontier."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..stable import StableParams
from ..stable import sample as stable_sample
from .params import GarchParams

_RENORM_EVERY = 10


class LyapunovEstimate(NamedTuple):
    estimate: float
    stderr: float


class FrontierPoint(NamedTuple):
    alpha: float
    b: float
    a_star: float
    stderr: float


def companion_matrix(theta: GarchParams, eta: float) -> np.ndarray:
    """Companion matrix A(eta) of the squared-process vector recursion.

    The state stacks (eps2_t..eps2_{t-q+1}, sigma2_t..sigma2_{t-p+1}); the
    top row carries a_i*eta^2, b_j*eta^2, the row below the squared-return
    block carries a_i, b_j, and shifted identities fill the lag blocks.
    """
    c0, c1 = _companion_split(theta)
    return c0 + eta ** 2 * c1


def _companion_split(theta: GarchParams):
    """A(eta) = C0 + eta^2 * C1 for vectorized products."""
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


def matrix_norm_l1(m: np.ndarray) -> np.ndarray:
    """Sum of absolute entries, over the trailing two axes."""
    return np.abs(m).sum(axis=(-2, -1))


def lyapunov_exponent(theta: GarchParams, psi: StableParams, horizon: int = 4000,
                      replications: int = 24, seed=0) -> LyapunovEstimate:
    """Monte-Carlo top Lyapunov exponent of the companion-matrix products.

    Each replication accumulates log || A_t ... A_1 || along an independent
    innovation stream, rescaling the running product to unit norm every few
    steps so heavy-tailed draws cannot overflow it.  The exponent does not
    depend on omega (the companion matrix contains no level term).
    """
    if horizon < 10 ** 3:
        raise ValueError("horizon must be at least 1000")
    if replications < 2:
        raise ValueError("need at least 2 replications")
    c0, c1 = _companion_split(theta)
    d = c0.shape[0]
    seeds = np.random.SeedSequence(seed).spawn(replications)
    eta2 = np.empty((replications, horizon))
    for r, s in enumerate(seeds):
        eta2[r] = stable_sample(psi.standardized(), horizon,
                                np.random.default_rng(s)) ** 2
    prod = np.broadcast_to(np.eye(d), (replications, d, d)).copy()
    acc = np.zeros(replications)
    for t in range(horizon):
        prod = c0 @ prod + eta2[:, t, None, None] * (c1 @ prod)
        if (t + 1) % _RENORM_EVERY == 0:
            norm = matrix_norm_l1(prod)
            acc += np.log(norm)
            prod /= norm[:, None, None]
    norm = matrix_norm_l1(prod)
    acc += np.log(norm)
    per_rep = acc / horizon
    return LyapunovEstimate(float(per_rep.mean()),
                            float(per_rep.std(ddof=1) / np.sqrt(replications)))


def stationarity_frontier(alpha: float, b_grid, horizon: int = 4000,
                          replications: int = 24, seed=0) -> list[FrontierPoint]:
    """Frontier a*(b) where the top Lyapunov exponent crosses zero.

    For each b the ARCH coefficient is bisected; the same innovation seed is
    reused across bisection steps (common random numbers) and the search
    stops once |gamma| falls within twice its Monte-Carlo standard error.
    """
    psi = StableParams(alpha, 0.0)
    out = []
    for b in np.atleast_1d(np.asarray(b_grid, dtype=float)):
        def gamma_at(a_val: float) -> LyapunovEstimate:
            theta = GarchParams(omega=1.0, a=(a_val,), b=(b,) if b > 0 else (0.0,))
            return lyapunov_exponent(theta, psi, horizon, replications, seed)

        lo, hi = 1e-8, 0.5
        g_hi = gamma_at(hi)
        while g_hi.estimate <= 0.0 and hi < 1e6:
            lo, hi = hi, hi * 2.0
            g_hi = gamma_at(hi)
        est = None
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            g = gamma_at(mid)
            if abs(g.estimate) <= 2.0 * g.stderr or (hi - lo) < 1e-4 * max(hi, 1.0):
                est = (mid, g.stderr)
                break
            if g.estimate > 0.0:
                hi = mid
            else:
                lo = mid
        if est is None:
            mid = 0.5 * (lo + hi)
            est = (mid, gamma_at(mid).stderr)
        out.append(FrontierPoint(alpha, float(b), est[0], est[1]))
    return out
