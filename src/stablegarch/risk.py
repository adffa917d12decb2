"""Value-at-Risk forecasting and out-of-sample hit-frequency backtesting.

The VaR of eps_t is sigma_t times the p-quantile of the fitted innovation
law (stable quantiles certified at ``DEFAULT_ACCURACY``, normal ones by
``scipy.special.ndtri``), with sigma_t the GARCH forecast from the returns
before t only.  The first return has none before it: its row of
``var_series`` (and of the CLI's var CSV) is NaN, and a backtest of n
returns has ``total`` = n - 1.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy import special

from .data import ReturnSeries
from .estimate.params import FitResult
from .garch.recursion import volatility_path
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

    @classmethod
    def from_hits(cls, p: float, hits: np.ndarray, method: str) -> "BacktestReport":
        """Report on a ``var_series`` hit column, whose first row has no forecast."""
        total = len(hits) - 1
        if total < 1:
            raise ValueError("a backtest needs at least two returns; the first has no forecast")
        count = int(hits.sum())
        return cls(p=p, hits=count, total=total, hit_frequency=count / total, method=method)

    def to_dict(self) -> dict:
        return asdict(self)


def innovation_quantile(fit: FitResult, p: float) -> float:
    """p-quantile of the fitted innovation law (stable, or unit-variance normal by ndtri)."""
    if fit.method == "gaussian":
        return float(special.ndtri(p))
    return float(quantile(p, fit.tau_hat.psi))


def var_forecast(fit: FitResult, history: ReturnSeries, p: float,
                 horizon_index: int | None = None) -> VarForecast:
    """VaR for the observation at ``horizon_index`` given returns before it.

    The volatility for time t comes from the recursion on returns 1..t-1
    only (the information set of the forecast); by default
    horizon_index = len(history) + 1, the first step past the history.
    """
    n = len(history)
    t = n + 1 if horizon_index is None else int(horizon_index)
    if not (2 <= t <= n + 1):
        raise ValueError("horizon_index must lie in [2, len(history) + 1]")
    sig = float(np.sqrt(volatility_path(history, fit.tau_hat.theta).forecast[t - 2]))
    q = innovation_quantile(fit, p)
    return VarForecast(t=t, var_value=sig * q, sigma=sig, p=p)


def var_series(fit: FitResult, outsample: ReturnSeries, p: float):
    """Rolling one-step VaR over a sample with frozen parameters.

    Returns (var_values, sigmas, hits): the innovation quantile stays fixed,
    and a hit is a realized return at or below its forecast.  Row 1 has no
    forecast: its VaR and sigma are NaN and it is not a hit.
    """
    sig = np.sqrt(np.append(np.nan, volatility_path(outsample, fit.tau_hat.theta).forecast[:-1]))
    q = innovation_quantile(fit, p)
    var_vals = sig * q
    hits = outsample.values <= var_vals
    return var_vals, sig, hits


def backtest(fit: FitResult, outsample: ReturnSeries, p: float) -> BacktestReport:
    """Hit frequency of the rolling VaR over a disjoint out-of-sample window."""
    return BacktestReport.from_hits(p, var_series(fit, outsample, p)[2], fit.method)
