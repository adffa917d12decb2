"""Box-constrained quasi-Newton minimization through logistic transforms."""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
from scipy import optimize

from .params import BoundsConfig

_GRAD_TOL = 1e-5
_BIG = 1e12
_LOG_RATIO = 1e3  # ranges wider than this (relative) are searched on log scale


class BoundedResult(NamedTuple):
    x: np.ndarray
    fun: float
    grad_norm: float
    iterations: int
    converged: bool
    message: str


def _logistic(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z), with the exponent clamped below exp's overflow at 709.8.

    Where nothing is clamped the value is the plain formula's, bit for bit;
    where it is, the logistic has saturated to within 1e-304 anyway.
    """
    return 1.0 / (1.0 + np.exp(np.minimum(-z, 700.0)))


class _BoxTransform:
    """Logistic map onto each box side, on a log axis for wide positive ranges.

    A parameter like the variance level spans many decades; squashing it
    linearly makes the search direction degenerate near small values, so such
    coordinates are transformed as logistic-in-log instead.
    """

    def __init__(self, bounds: BoundsConfig):
        self.lo = bounds.lower
        self.hi = bounds.upper
        self.free = bounds.free
        self.log_scale = (self.free & (self.lo > 0.0)
                          & (self.hi / np.maximum(self.lo, 1e-300) > _LOG_RATIO))
        self.a = np.where(self.log_scale, np.log(np.maximum(self.lo, 1e-300)), self.lo)
        self.b = np.where(self.log_scale, np.log(np.maximum(self.hi, 1e-300)), self.hi)

    def to_z(self, x: np.ndarray) -> np.ndarray:
        t = np.where(self.log_scale, np.log(np.maximum(x, 1e-300)), x)
        u = (t[self.free] - self.a[self.free]) / (self.b[self.free] - self.a[self.free])
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        return np.log(u / (1.0 - u))

    def to_x(self, z: np.ndarray) -> np.ndarray:
        x = np.where(self.free, 0.0, self.lo)
        s = _logistic(z)
        t = self.a[self.free] + (self.b[self.free] - self.a[self.free]) * s
        x[self.free] = np.where(self.log_scale[self.free], np.exp(t), t)
        return x

    def chain(self, z: np.ndarray, x: np.ndarray) -> np.ndarray:
        """d x_free / d z."""
        s = _logistic(z)
        inner = (self.b[self.free] - self.a[self.free]) * s * (1.0 - s)
        return np.where(self.log_scale[self.free], inner * x[self.free], inner)


def minimize_bounded(fun_grad: Callable[[np.ndarray], tuple],
                     x0: np.ndarray, bounds: BoundsConfig) -> BoundedResult:
    """Minimize over a box by a quasi-Newton search in transformed coordinates.

    ``fun_grad(x)`` returns the objective and its gradient in the original
    coordinates; coordinates with equal bounds stay frozen at their value.
    Convergence requires the gradient norm in the transformed coordinates to
    reach 1e-5.
    """
    tr = _BoxTransform(bounds)
    x0 = bounds.clip_inside(np.asarray(x0, dtype=float))
    z0 = tr.to_z(x0)

    def wrapped(z):
        x = tr.to_x(z)
        f, g = fun_grad(x)
        if not np.isfinite(f):
            return _BIG, np.zeros_like(z)
        gz = np.asarray(g)[tr.free] * tr.chain(z, x)
        return f, gz

    res = optimize.minimize(wrapped, z0, jac=True, method="L-BFGS-B",
                            options={"maxiter": 300, "ftol": 1e-12,
                                     "gtol": _GRAD_TOL * 0.3})
    total_nit = int(res.nit)
    # a stalled line search sometimes quits just above the tolerance;
    # restarting with a fresh Hessian approximation usually finishes the job
    for _ in range(2):
        gnorm = float(np.max(np.abs(res.jac))) if res.jac is not None else np.inf
        if not np.isfinite(res.fun) or gnorm <= _GRAD_TOL:
            break
        res2 = optimize.minimize(wrapped, res.x, jac=True, method="L-BFGS-B",
                                 options={"maxiter": 60, "ftol": 1e-13,
                                          "gtol": _GRAD_TOL * 0.3})
        total_nit += int(res2.nit)
        if res2.fun > res.fun + 1e-12 or res2.nit == 0:
            break
        res = res2
    x_hat = tr.to_x(res.x)
    gnorm = float(np.max(np.abs(res.jac))) if res.jac is not None else np.inf
    # the _BIG sentinel of a non-finite objective has a zero gradient
    converged = bool(res.fun < _BIG) and gnorm <= _GRAD_TOL
    return BoundedResult(x=x_hat, fun=float(res.fun), grad_norm=gnorm,
                         iterations=total_nit, converged=converged,
                         message=str(res.message))
