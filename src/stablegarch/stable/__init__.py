"""Alpha-stable distributions: density, derivatives, CDF, quantiles, sampling.

Evaluation strategy follows the structure of the stable family itself: two
series expansions (a tail expansion in inverse powers and a Taylor expansion
around the skewness shift point) cover most of the line with certified
truncation bounds; an FFT inversion of the characteristic function with
explicit aliasing removal covers the remaining central window; adaptive
quadrature of the inversion integral serves only the points no table
certifies.  The engine's finishing order is documented in ``engine``.

The same strategies give the shape partials d f/d alpha and d f/d beta at
fixed x: the series term by term, the tables and quadrature by inverting phi
times d(log phi).  ``log_density_terms`` turns them into the score of log f
in the shape parameters with one engine; the likelihood, the i.i.d. stable
fit and ``log_density_grad`` all call it.
"""

from __future__ import annotations

import numpy as np

from .chf import char_fn
from .engine import StandardDensity, get_engine
from .params import DEFAULT_ACCURACY, FIT_ACCURACY, DensityAccuracy, StableParams
from .sample import sample

__all__ = [
    "StableParams", "DensityAccuracy", "DEFAULT_ACCURACY", "FIT_ACCURACY",
    "char_fn", "density", "density_dx", "log_density_terms", "log_density_grad",
    "cdf", "quantile",
    "sample", "get_engine", "StandardDensity",
]


def _as_points(x):
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def density(x, psi: StableParams, acc: DensityAccuracy = DEFAULT_ACCURACY):
    """Stable density f(x, psi), certified to acc.abs_tol.

    Standardizes through f(x, psi) = f((x - mu)/gamma, alpha, beta, 0, 1) / gamma
    and dispatches between the series expansions, the FFT table and the
    quadrature fallback.  Raises AccuracyNotReached if nothing certifies.
    """
    pts, scalar = _as_points(x)
    eng = get_engine(psi, acc)
    vals = eng.pdf((pts - psi.mu) / psi.gamma) / psi.gamma
    return float(vals[0]) if scalar else vals


def density_dx(x, psi: StableParams, acc: DensityAccuracy = DEFAULT_ACCURACY):
    """Partial derivative of the stable density with respect to x."""
    pts, scalar = _as_points(x)
    eng = get_engine(psi, acc)
    vals = eng.dpdf((pts - psi.mu) / psi.gamma) / psi.gamma ** 2
    return float(vals[0]) if scalar else vals


def cdf(x, psi: StableParams, acc: DensityAccuracy = DEFAULT_ACCURACY):
    """Distribution function F(x, psi) in [0, 1]."""
    pts, scalar = _as_points(x)
    eng = get_engine(psi, acc)
    vals = eng.cdf((pts - psi.mu) / psi.gamma)
    return float(vals[0]) if scalar else vals


def quantile(p, psi: StableParams, acc: DensityAccuracy = DEFAULT_ACCURACY):
    """Quantile function: x with |cdf(x, psi) - p| within the accuracy budget."""
    pts, scalar = _as_points(p)
    eng = get_engine(psi, acc)
    vals = np.array([psi.mu + psi.gamma * eng.ppf(float(q)) for q in pts])
    return float(vals[0]) if scalar else vals


def log_density_terms(x: np.ndarray, alpha: float, beta: float,
                      acc: DensityAccuracy = FIT_ACCURACY):
    """log f, f'/f and d(log f)/d(alpha, beta) of the unit-scale stable law at x.

    The density is floored at 1e-300 before logs and ratios.  The shape
    derivatives are the engine's certified partials d f/d(alpha, beta) over
    f, all from the one engine of (alpha, beta); at the alpha = 2 and
    |beta| = 1 edges they are one-sided.  Returns arrays of shapes (n,), (n,)
    and (n, 2).
    """
    eng = get_engine(StableParams(alpha, beta), acc)
    f, _ = eng.pdf_with_err(x)
    f = np.maximum(f, 1e-300)
    slope = eng.dpdf_with_err(x)
    d_shape = np.empty((f.size, 2))
    for col, wrt in enumerate(("alpha", "beta")):
        d_shape[:, col] = eng.partial_with_err(x, wrt, slope)[0] / f
    return np.log(f), slope[0] / f, d_shape


def log_density_grad(x, psi: StableParams, acc: DensityAccuracy = DEFAULT_ACCURACY):
    """Gradient of log f at x: components (alpha, beta, mu, x).

    The shape components come from ``log_density_terms`` at the standardized
    point z = (x - mu)/gamma; the mu and x components are -(f'/f)/gamma and
    (f'/f)/gamma.  Returns shape (4,) for scalar x, else (n, 4).
    """
    pts, scalar = _as_points(x)
    _, slope, d_shape = log_density_terms((pts - psi.mu) / psi.gamma,
                                          psi.alpha, psi.beta, acc)
    d_x = slope / psi.gamma
    out = np.column_stack([d_shape, -d_x, d_x])
    return out[0] if scalar else out
