"""Stable GARCH likelihood: one per-observation kernel and its means.

Observation t contributes

    l_t = 0.5 * log(sigma2_t) - log f(eta_t - mu; alpha, beta),
    eta_t = eps_t / sigma_t,

with sigma2_t from ``garch.recursion``, started from the in-sample mean of
eps**2, and f the stable density with unit scale.  (A VaR forecast instead
uses only the returns before t: the first row of ``risk.var_series`` is NaN
and a backtest of n returns counts n - 1.)  ``loglik_terms`` returns every
l_t together with its score row d(l_t)/d(tau):

* theta block: 0.5 * phi_t * Z_t, with phi_t = (d sigma2_t / d theta) / sigma2_t
  and Z_t = 1 + eta_t * f'/f;
* (alpha, beta): -d(log f)/d(alpha, beta), by ``stable.log_density_terms``
  from the engine's certified shape partials of f;
* mu: f'/f.

``likelihood_and_score`` (the optimizer's objective) and ``score_full`` are
column means of these rows.  ``neg_log_likelihood`` is the value-only mean
of l_t: it needs no variance derivatives and no shape partials, and score
tests difference it as their oracle.
"""

from __future__ import annotations

import numpy as np

from ..data import ReturnSeries
from ..garch.params import GarchParams
from ..garch.recursion import variance_derivatives, volatility_path
from ..stable import FIT_ACCURACY, DensityAccuracy, StableParams, get_engine
from ..stable import log_density_terms
from .params import ModelParams


def neg_log_likelihood(eps: ReturnSeries, tau: ModelParams,
                       acc: DensityAccuracy = FIT_ACCURACY) -> float:
    """Average negative log-likelihood of the stable GARCH model, the mean of l_t."""
    sig2 = volatility_path(eps, tau.theta).sigma2
    eta = eps.values / np.sqrt(sig2)
    eng = get_engine(StableParams(tau.alpha, tau.beta), acc)
    return float(np.mean(0.5 * np.log(sig2) - eng.logpdf(eta - tau.mu)))


def loglik_terms(eps: ReturnSeries, tau: ModelParams,
                 acc: DensityAccuracy = FIT_ACCURACY):
    """Per-observation negative log-likelihood l_t and score rows d(l_t)/d(tau).

    Returns (l_t of shape (n,), rows of shape (n, dim)), with the columns in
    the order of ``tau.as_array()``.
    """
    sig2, grads = variance_derivatives(eps, tau.theta)
    eta = eps.values / np.sqrt(sig2)
    logf, slope, d_shape = log_density_terms(eta - tau.mu, tau.alpha, tau.beta, acc)
    z = 1.0 + eta * slope
    rows = np.hstack([0.5 * (grads / sig2[:, None]) * z[:, None],
                      -d_shape, slope[:, None]])
    return 0.5 * np.log(sig2) - logf, rows


def score_full(eps: ReturnSeries, tau: ModelParams,
               acc: DensityAccuracy = FIT_ACCURACY) -> np.ndarray:
    """Gradient of the average likelihood in all of tau."""
    return loglik_terms(eps, tau, acc)[1].mean(axis=0)


def likelihood_and_score(eps: ReturnSeries, tau: ModelParams,
                         acc: DensityAccuracy = FIT_ACCURACY):
    """Objective and full gradient, (neg_log_likelihood, score_full), in one pass.

    This is the hot path of the optimizer.
    """
    l_t, rows = loglik_terms(eps, tau, acc)
    return float(np.mean(l_t)), rows.mean(axis=0)


def gaussian_criterion_and_grad(eps: ReturnSeries, theta: GarchParams):
    """Gaussian QML objective, mean of log(sigma2_t) + eps_t^2/sigma2_t, and its gradient."""
    sig2, grads = variance_derivatives(eps, theta)
    e2 = eps.values ** 2
    w = (1.0 - e2 / sig2) / sig2
    return float(np.mean(np.log(sig2) + e2 / sig2)), (grads * w[:, None]).mean(axis=0)
