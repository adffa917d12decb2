"""GARCH(p, q) volatility recursion and simulation."""

from __future__ import annotations

from itertools import zip_longest

import numpy as np
from scipy.linalg import lapack

from ..data import ReturnSeries
from ..errors import ExplosionError
from ..stable import StableParams
from ..stable import sample as stable_sample
from .params import GarchParams, VolatilityPath


def _presample_value(eps2: np.ndarray) -> float:
    """Presample squared returns and variances: the mean of the eps**2 a path runs on."""
    return float(np.mean(eps2))


def _lag_filter(lags, force: np.ndarray) -> np.ndarray:
    """Solve y_t = force_t + sum_k lags[k-1] y_{t-k} down each column, from rest,
    as a unit lower-triangular band system with -lags[k-1] on subdiagonal k.

    ``lags`` has shape (m,), one coefficient per lag, or (m, n) with
    ``lags[k-1, j]`` the coefficient of y_j in the equation of row j + k.
    The band is allocated Fortran-ordered, so f2py hands it to ``dtbtrs`` as
    it is; a C-ordered band is copied to Fortran order on every call, which
    took about as long as the solve itself on a (2, 100500) band.  A
    Fortran-contiguous ``force``, as every caller here builds, is solved in
    place and overwritten; any other is copied first.
    """
    lags = np.asarray(lags, dtype=float)
    # row 0 is the unit diagonal, which dtbtrs with diag="U" never reads
    band = np.empty((lags.shape[0] + 1, force.shape[0]), order="F")
    np.negative(lags if lags.ndim == 2 else lags[:, None], out=band[1:])
    return lapack.dtbtrs(band, force, uplo="L", diag="U", overwrite_b=True)[0]


def _presample_response(e2: np.ndarray, theta: GarchParams):
    """(A, B) with sigma2_t = A_t + B_t * s for t = 1..n+1, s the presample value.

    The recursion is linear in s, the value of every presample squared return
    and variance; row t uses the squared returns before t only.  Presample
    variances enter B's forcing, so the filter starts from rest.
    """
    n = e2.size
    force = np.zeros((n + 1, 2), order="F")
    force[:, 0] = theta.omega
    for i, ai in enumerate(theta.a, start=1):
        force[:, 0] += ai * np.concatenate([np.zeros(i), e2])[:n + 1]
        force[:i, 1] += ai
    for j, bj in enumerate(theta.b, start=1):
        force[:j, 1] += bj
    resp = _lag_filter(theta.b, force)
    return resp[:, 0], resp[:, 1]


def volatility_path(eps: ReturnSeries, theta: GarchParams) -> VolatilityPath:
    """Conditional variances sigma2_1..sigma2_n and forecasts sigma2_2..sigma2_{n+1}.

    ``sigma2`` sets the presample squared returns and variances to the
    in-sample mean of eps**2; its influence decays geometrically.  A
    forecast of sigma2_t uses the returns before t only: it is the path of
    eps_1..eps_{t-1}, from the mean of their squares, carried one step on.
    """
    e2 = eps.values ** 2
    base, slope = _presample_response(e2, theta)
    prefix_means = np.cumsum(e2) / np.arange(1, e2.size + 1)
    return VolatilityPath(base[:-1] + slope[:-1] * _presample_value(e2),
                          forecast=base[1:] + slope[1:] * prefix_means)


def variance_derivatives(eps: ReturnSeries, theta: GarchParams):
    """Volatility path sigma2 and d(sigma2_t)/d(theta), shape (n, dim).

    Each derivative obeys the same autoregression in the b-lags as sigma2
    itself, with forcing 1 (omega), lagged squared returns (a_i) or lagged
    variances (b_j); presample values are treated as constants.
    """
    e2 = eps.values ** 2
    n, pre = e2.size, _presample_value(e2)
    sig2 = volatility_path(eps, theta).sigma2
    lagged = [(x, k) for x, n_lags in ((e2, len(theta.a)), (sig2, len(theta.b)))
              for k in range(1, n_lags + 1)]
    # one Fortran-ordered forcing column per parameter, which LAPACK solves in place
    force = np.empty((n, 1 + len(lagged)), order="F")
    force[:, 0] = 1.0
    for col, (x, k) in zip(force.T[1:], lagged):
        col[:k] = pre
        col[k:] = x[:max(n - k, 0)]
    return sig2, _lag_filter(theta.b, force)


def simulate(theta: GarchParams, psi: StableParams, n: int, burn_in: int = 500,
             seed=0, innovations: np.ndarray | None = None
             ) -> tuple[ReturnSeries, VolatilityPath]:
    """Simulate the model eps_t = sigma_t * eta_t with the GARCH(p, q) recursion.

    Innovations are stable draws from psi unless an explicit array of at
    least n + burn_in finite values is injected (used for summed-innovation
    experiments); a non-finite one raises ValueError.  The first burn_in
    steps are discarded.  Every presample squared return and variance is
    omega / (1 - sum(a) - sum(b)), the denominator floored at 0.05.

    The whole variance path is one ``_lag_filter`` band solve, lag k's
    coefficient in column j being a_k * eta_j**2 + b_k.  The lag rows are
    written in place from one eta**2, and the band and forcing reach LAPACK
    in Fortran order, so f2py copies neither.  Forward
    substitution makes it prefix-consistent: on the same innovations a path
    of t steps is the first t steps of a longer one.  If any variance is
    non-finite, ExplosionError reports the first such step ``t``, counted
    from the first burn-in step, and its value ``sigma2``.  The last bits
    of a path depend on the LAPACK build, as ``volatility_path``'s do.
    Where every variance is finite but a return sigma_t * eta_t overflows,
    ExplosionError reports that step and its finite variance the same way.
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
        eta = eta[:total]
        if not np.isfinite(eta).all():
            bad = int(np.flatnonzero(~np.isfinite(eta))[0])
            raise ValueError(f"innovation {bad} is {eta[bad]}, not finite")
    omega, a, b = theta.omega, theta.a, theta.b
    start = omega / max(1.0 - sum(a) - sum(b), 0.05)
    # sigma2_t = omega + sum_k (a_k eta_{t-k}**2 + b_k) sigma2_{t-k}.  Each
    # lag row is written in place from eta**2, which the last row holds
    # until its own turn; only the real a_k meet eta**2, so a padded zero
    # never multiplies an inf
    lags = np.empty((max(len(a), len(b)), total))
    with np.errstate(over="ignore", invalid="ignore"):
        eta2 = np.multiply(eta, eta, out=lags[-1])
        for k, row in enumerate(lags):
            if k < len(a):
                np.multiply(eta2, a[k], out=row)
            else:
                row.fill(0.0)
            if k < len(b):
                row += b[k]
    # lag k reaches the presample, where every eps**2 and sigma2 is start,
    # from rows 0..k-1
    force = np.full(total, omega)
    for k, (ak, bk) in enumerate(zip_longest(a, b, fillvalue=0.0), start=1):
        force[:k] += (ak + bk) * start
    sig2 = _lag_filter(lags, force)
    if not np.isfinite(sig2).all():
        t = int(np.flatnonzero(~np.isfinite(sig2))[0])
        var = float(sig2[t])
        raise ExplosionError(f"sigma^2 overflowed to {var} at step {t}", t=t, sigma2=var)
    sig2 = sig2[burn_in:]
    eps = np.sqrt(sig2)
    with np.errstate(over="ignore"):
        eps *= eta[burn_in:]
    if not np.isfinite(eps).all():
        i = int(np.flatnonzero(~np.isfinite(eps))[0])
        var = float(sig2[i])
        raise ExplosionError(f"the return sigma * eta overflowed at step {burn_in + i} "
                             f"(sigma^2 = {var})", t=burn_in + i, sigma2=var)
    return ReturnSeries(eps), VolatilityPath(sig2)
