"""Stable maximum-likelihood and Gaussian quasi-maximum-likelihood fitting."""

from __future__ import annotations

import numpy as np

from ..data import ReturnSeries
from ..errors import NonFiniteLikelihood, NotConverged
from ..garch.params import GarchOrder, GarchParams
from ..stable import FIT_ACCURACY, DensityAccuracy, StableParams, get_engine
from .likelihood import (
    gaussian_criterion_and_grad,
    likelihood_and_score,
    variance_derivatives,
)
from .information import compute_Jn, std_errors_from_information
from .optim import minimize_bounded
from .params import BoundsConfig, FitResult, ModelParams

_MIN_OBS_PER_DIM = 50
_PSI_START_GRID = [(1.85, 0.0), (1.55, 0.0), (1.25, 0.0), (1.75, 0.35), (1.75, -0.35)]


def fit_stable_mle(eps: ReturnSeries, bounds: BoundsConfig | None = None,
                   start: ModelParams | None = None,
                   acc: DensityAccuracy = FIT_ACCURACY,
                   order: GarchOrder = GarchOrder(1, 1),
                   n_starts: int = 5, seed: int = 0,
                   init_rule: str = "mean-squared",
                   compute_information: bool = True) -> FitResult:
    """Minimize the stable likelihood over the bounded parameter box.

    Runs a small multi-start: the GARCH block is warm-started from a Gaussian
    QML fit rescaled to unit stable scale, combined with a grid of stable
    shape starts (the seed only jitters that grid, the data path is fully
    deterministic).  Returns the best converged local minimum; raises
    NotConverged carrying the best attempt if none meets the gradient
    criterion, NonFiniteLikelihood if the objective is non-finite everywhere.
    """
    if start is not None:
        order = start.order
    if bounds is None:
        bounds = BoundsConfig.default(order)
    n_free = int(bounds.free.sum())
    if len(eps) < _MIN_OBS_PER_DIM * max(n_free, 1):
        raise ValueError(
            f"need at least {_MIN_OBS_PER_DIM * n_free} observations "
            f"for {n_free} free parameters, got {len(eps)}")

    starts = _build_starts(eps, bounds, order, start, n_starts, seed, init_rule)

    def fun_grad(tau_arr):
        tau = ModelParams.from_array(tau_arr, order)
        return likelihood_and_score(eps, tau, acc, init_rule)

    res, total_iter = _best_start(fun_grad, starts, bounds)
    if res is None:
        raise NonFiniteLikelihood(
            "likelihood was non-finite at every start; check the data scale")
    tau_hat = ModelParams.from_array(res.x, order)
    active = _active_constraints(res.x, bounds)
    j_n = std = None
    message = res.message
    if compute_information:
        j_n = compute_Jn(eps, tau_hat, acc, init_rule)
        std, pd_ok = std_errors_from_information(j_n, len(eps))
        if not pd_ok:
            message += "; J_n not positive definite; standard errors are NaN"
        alpha_idx = order.p + order.q + 1
        if active[alpha_idx] and res.x[alpha_idx] >= bounds.upper[alpha_idx] - 1e-9:
            # at the Gaussian edge the asymmetry is not identified
            std = std.copy()
            std[alpha_idx + 1] = np.nan
    fit = FitResult(tau_hat=tau_hat, neg_loglik=res.fun, J_n=j_n, std_errors=std,
                    iterations=total_iter, converged=res.converged,
                    constraint_active=active, method="stable", n_obs=len(eps),
                    grad_norm=res.grad_norm, message=message)
    if not res.converged:
        raise NotConverged(
            f"gradient norm {res.grad_norm:.2e} above tolerance", result=fit)
    return fit


def _best_start(fun_grad, starts, bounds: BoundsConfig):
    """Optimize from each start; (best finite result or None, total iterations).

    Converged results rank first, then by objective and gradient norm.
    """
    best = best_key = None
    total_iter = 0
    for x0 in starts:
        res = minimize_bounded(fun_grad, x0, bounds)
        total_iter += res.iterations
        if not np.isfinite(res.fun) or res.fun >= 1e11:
            continue
        key = (0 if res.converged else 1, res.fun, res.grad_norm)
        if best is None or key < best_key:
            best, best_key = res, key
    return best, total_iter


def _active_constraints(x, bounds: BoundsConfig) -> np.ndarray:
    width = np.where(bounds.free, bounds.upper - bounds.lower, 1.0)
    tol = 1e-4 * width
    return ((x - bounds.lower <= tol) | (bounds.upper - x <= tol)) & bounds.free


def _build_starts(eps, bounds, order, start, n_starts, seed, init_rule):
    starts = []
    if start is not None:
        starts.append(start.as_array())
    # warm start: Gaussian QML on winsorized returns (extremes of an
    # infinite-variance series otherwise dominate the ARCH coefficients),
    # then rescale the level block to the unit stable scale
    cap = float(np.quantile(np.abs(eps.values), 0.99))
    clipped = ReturnSeries(np.clip(eps.values, -cap, cap))
    try:
        g_fit = fit_gaussian_qmle(clipped, bounds.theta_only(order), order=order)
        theta_g = g_fit.tau_hat.theta
    except (NotConverged, NonFiniteLikelihood):
        v = float(np.median(eps.values ** 2)) * 2.2
        theta_g = GarchParams(max(v * 0.25, 1e-6), a=(0.05,) * order.q,
                              b=tuple(0.75 / max(order.p, 1) for _ in range(order.p)))
    # keep the start inside the plausible stationarity region
    th_g = theta_g.as_array()
    th_g[1:order.q + 1] = np.minimum(th_g[1:order.q + 1], 0.3)
    th_g[order.q + 1:] = np.minimum(th_g[order.q + 1:], 0.95 / max(order.p, 1))
    theta_g = GarchParams.from_array(th_g, order)
    from ..garch.recursion import volatility_path
    resid = eps.values / volatility_path(eps, theta_g, init_rule).sigma
    iqr_data = float(np.subtract(*np.percentile(resid, [75, 25])))
    med = float(np.median(resid))
    rng = np.random.default_rng(seed)
    grid = _PSI_START_GRID[: max(n_starts - len(starts), 0)]
    for a0, b0 in grid:
        a_j = float(np.clip(a0 + rng.uniform(-0.02, 0.02),
                            bounds.lower[order.p + order.q + 1] + 0.01,
                            bounds.upper[order.p + order.q + 1] - 0.005))
        eng = get_engine(StableParams(round(a_j, 3), 0.0), FIT_ACCURACY)
        iqr0 = eng.ppf(0.75) - eng.ppf(0.25)
        scale = max(iqr_data / iqr0, 1e-4)
        th = theta_g.as_array().copy()
        # sigma must shrink by the residual-to-unit-stable ratio, so the
        # level block scales by its square
        th[: order.q + 1] = th[: order.q + 1] * scale ** 2
        x0 = np.concatenate([th, [a_j, b0, med / scale]])
        starts.append(bounds.clip_inside(x0))
    return starts


def fit_gaussian_qmle(eps: ReturnSeries, bounds: BoundsConfig | None = None,
                      start: GarchParams | None = None,
                      order: GarchOrder = GarchOrder(1, 1),
                      init_rule: str = "mean-squared") -> FitResult:
    """Gaussian quasi-maximum likelihood for the GARCH block only.

    Minimizes the average of log(sigma2_t) + eps_t^2/sigma2_t.  Standard
    errors follow the sandwich form: the reported information is the
    curvature scaled by the excess-kurtosis factor of the standardized
    residuals, so that sqrt(diag(J_n^{-1})/n) is the sandwich error.
    """
    if start is not None:
        order = start.order
    if bounds is None:
        bounds = BoundsConfig.default(order).theta_only(order)
    dim = order.p + order.q + 1
    if bounds.lower.size != dim:
        bounds = BoundsConfig(bounds.lower[:dim], bounds.upper[:dim])

    def fun_grad(theta_arr):
        return gaussian_criterion_and_grad(
            eps, GarchParams.from_array(theta_arr, order), init_rule)

    v = float(np.mean(eps.values ** 2))
    starts = []
    if start is not None:
        starts.append(start.as_array())
    for a0, b0 in [(0.05, 0.9), (0.1, 0.7), (0.05, 0.0)]:
        aa = (a0,) * order.q
        bb = (b0 / max(order.p, 1),) * order.p
        om = max(v * (1.0 - sum(aa) - sum(bb)), 1e-8)
        starts.append(np.concatenate([[om], aa, bb]))

    res, total_iter = _best_start(fun_grad, starts, bounds)
    if res is None:
        raise NonFiniteLikelihood("Gaussian criterion non-finite at every start")
    theta_hat = GarchParams.from_array(res.x, order)
    sig2, grads = variance_derivatives(eps, theta_hat, init_rule)
    eta2 = eps.values ** 2 / sig2
    kappa = float(np.mean(eta2 ** 2) / np.mean(eta2) ** 2)
    phi = grads / sig2[:, None]
    curvature = phi.T @ phi / phi.shape[0]
    j_n = curvature / max(kappa - 1.0, 1e-8)
    std, _ = std_errors_from_information(j_n, len(eps))
    # a criterion flat along a whole manifold (a constant series) has a zero
    # gradient there but no identified minimum
    n_free = int(bounds.free.sum())
    rank = int(np.linalg.matrix_rank(phi[:, bounds.free]))
    converged, message = res.converged, res.message
    reason = f"gradient norm {res.grad_norm:.2e} above tolerance"
    if rank < n_free:
        converged = False
        message = reason = (f"flat Gaussian criterion: variance derivatives have "
                            f"rank {rank} of {n_free} free coordinates")
    tau_hat = ModelParams(theta_hat, 2.0, 0.0, 0.0)
    fit = FitResult(tau_hat=tau_hat, neg_loglik=res.fun, J_n=j_n, std_errors=std,
                    iterations=total_iter, converged=converged,
                    constraint_active=_active_constraints(res.x, bounds),
                    method="gaussian", n_obs=len(eps), grad_norm=res.grad_norm,
                    message=message)
    if not converged:
        raise NotConverged(reason, result=fit)
    return fit
