"""Information-matrix estimators and standard errors."""

from __future__ import annotations

import numpy as np

from ..data import ReturnSeries
from ..stable import FIT_ACCURACY, DensityAccuracy
from .likelihood import loglik_terms, score_full
from .params import ModelParams


def compute_Jn(eps: ReturnSeries, tau_hat: ModelParams,
               acc: DensityAccuracy = FIT_ACCURACY,
               init_rule: str = "mean-squared",
               rel_step: float = 1e-3) -> np.ndarray:
    """Averaged second-derivative matrix of the per-observation likelihood.

    Central finite differences of the semi-analytic gradient, symmetrized as
    (H + H')/2.  Consistent for the asymptotic information at the estimate.
    """
    tau0 = tau_hat.as_array()
    order = tau_hat.order
    dim = tau0.size
    n_theta = order.p + order.q + 1
    steps = rel_step * np.maximum(np.abs(tau0), 0.01)
    # stay inside the natural domain: positive omega, nonnegative lags,
    # alpha below 2, asymmetry inside (-1, 1)
    dom_lo = np.concatenate([np.full(n_theta, 1e-12),
                             [0.05, -0.9999, -np.inf]])
    b_cap = (1.0 - 1e-5) / max(order.p, 1)
    dom_hi = np.concatenate([[np.inf], np.full(order.q, np.inf),
                             np.full(order.p, b_cap), [1.999, 0.9999, np.inf]])
    cols = np.empty((dim, dim))
    for j in range(dim):
        hi = tau0.copy()
        lo = tau0.copy()
        hi[j] = min(tau0[j] + steps[j], dom_hi[j])
        lo[j] = max(tau0[j] - steps[j], dom_lo[j])
        if hi[j] - lo[j] <= 0:
            cols[:, j] = 0.0
            continue
        g_hi = score_full(eps, ModelParams.from_array(hi, order), acc, init_rule)
        g_lo = score_full(eps, ModelParams.from_array(lo, order), acc, init_rule)
        cols[:, j] = (g_hi - g_lo) / (hi[j] - lo[j])
    return 0.5 * (cols + cols.T)


def outer_product_information(eps: ReturnSeries, tau_hat: ModelParams,
                              acc: DensityAccuracy = FIT_ACCURACY,
                              init_rule: str = "mean-squared") -> np.ndarray:
    """Outer-product estimator (1/n) sum of per-observation score outer products."""
    s = loglik_terms(eps, tau_hat, acc, init_rule)[1]
    return s.T @ s / s.shape[0]


def std_errors_from_information(j_n: np.ndarray, n: int):
    """Standard errors sqrt(diag(J_n^{-1})/n); (None-flag, NaNs) if not PD.

    Returns (std_errors, positive_definite).  When any eigenvalue is at or
    below zero the errors are suppressed (NaN) since the curvature does not
    identify a proper covariance in those directions.
    """
    eig = np.linalg.eigvalsh(j_n)
    if eig.min() <= 0.0:
        return np.full(j_n.shape[0], np.nan), False
    cov = np.linalg.inv(j_n) / n
    return np.sqrt(np.diag(cov)), True
