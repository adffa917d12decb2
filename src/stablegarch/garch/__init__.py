"""GARCH(p, q) recursion, simulation and strict-stationarity tooling."""

from .params import GarchOrder, GarchParams, VolatilityPath
from .recursion import simulate, volatility_path
from .stability import (
    FrontierPoint,
    LyapunovEstimate,
    lyapunov_exponent,
    stationarity_frontier,
)

__all__ = [
    "GarchOrder", "GarchParams", "VolatilityPath",
    "volatility_path", "simulate",
    "lyapunov_exponent", "stationarity_frontier",
    "LyapunovEstimate", "FrontierPoint",
]
