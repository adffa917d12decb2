"""Value-at-Risk forecasting and out-of-sample hit-frequency backtesting.

The VaR of eps_t is sigma_t times the p-quantile of the fitted innovation
law, with sigma_t from the GARCH recursion on returns through t - 1 and the
stable quantile certified at ``DEFAULT_ACCURACY``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .data import ReturnSeries
from .estimate.params import FitResult
from .garch.recursion import one_step_variance, volatility_path
from .stable import quantile


@dataclass(frozen=True)
class VarForecast:
    """One-step VaR: the conditional p-quantile of the next return."""

    t: int
    var_value: float
    sigma: float
    p: float

    def __post_init__(self):
        if not (0.0 < self.p < 1.0):
            raise ValueError("p must lie strictly between 0 and 1")


@dataclass(frozen=True)
class BacktestReport:
    """Hit count of realized returns at or below their VaR forecasts."""

    p: float
    hits: int
    total: int
    hit_frequency: float
    method: str

    def to_dict(self) -> dict:
        return {"p": self.p, "hits": self.hits, "total": self.total,
                "hit_frequency": self.hit_frequency, "method": self.method}


def innovation_quantile(fit: FitResult, p: float) -> float:
    """p-quantile of the fitted innovation law (stable, or unit-variance normal)."""
    if fit.method == "gaussian":
        return float(stats.norm.ppf(p))
    return float(quantile(p, fit.tau_hat.psi))


def var_forecast(fit: FitResult, history: ReturnSeries, p: float,
                 horizon_index: int | None = None) -> VarForecast:
    """VaR for the observation at ``horizon_index`` given returns before it.

    The volatility for time t is produced by the recursion from returns
    through t - 1 (the information set of the forecast); by default
    horizon_index = len(history), the first out-of-sample step.
    """
    n = len(history)
    t = n + 1 if horizon_index is None else int(horizon_index)
    if not (2 <= t <= n + 1):
        raise ValueError("horizon_index must lie in [2, len(history) + 1]")
    sub = history if t == n + 1 else history.slice(0, t - 1)
    sig = float(np.sqrt(one_step_variance(sub, fit.tau_hat.theta)))
    q = innovation_quantile(fit, p)
    return VarForecast(t=t, var_value=sig * q, sigma=sig, p=p)


def var_series(fit: FitResult, outsample: ReturnSeries, p: float):
    """Rolling one-step VaR over a sample with frozen parameters.

    Returns (var_values, sigmas, hits): the recursion is updated with each
    realized return, the innovation quantile stays fixed, and a hit is a
    realized return at or below its forecast.
    """
    sig = volatility_path(outsample, fit.tau_hat.theta).sigma
    q = innovation_quantile(fit, p)
    var_vals = sig * q
    hits = outsample.values <= var_vals
    return var_vals, sig, hits


def backtest(fit: FitResult, outsample: ReturnSeries, p: float) -> BacktestReport:
    """Hit frequency of the rolling VaR over a disjoint out-of-sample window."""
    _, _, hits = var_series(fit, outsample, p)
    n = len(outsample)
    return BacktestReport(p=p, hits=int(hits.sum()), total=n,
                          hit_frequency=float(hits.mean()), method=fit.method)
