"""Alpha-stable distributions: density, derivatives, CDF, quantiles, sampling.

Evaluation strategy follows the structure of the stable family itself: two
series expansions (a tail expansion in inverse powers and a Taylor expansion
around the skewness shift point) cover most of the line with certified
truncation bounds; the trapezoid rule of the Fourier inversion, with
explicit aliasing removal, covers the remaining points: summed at them when
they are few, else through an FFT table of the central window; adaptive
quadrature of the inversion integral serves only the points neither
certifies.  The engine's finishing order is documented in ``engine``.

The same strategies give the shape partials d f/d alpha and d f/d beta at
fixed x: the series term by term, the Fourier rules and quadrature by
inverting phi times d(log phi).  ``log_density_terms`` turns them into the score of log f
in the shape parameters with one engine call for all four; the likelihood
and the i.i.d. stable fit both call it.
"""

from __future__ import annotations

import numpy as np

from .chf import char_fn
from .engine import StandardDensity, _as_points, get_engine
from .params import DEFAULT_ACCURACY, FIT_ACCURACY, DensityAccuracy, StableParams
from .sample import sample

__all__ = [
    "StableParams", "DensityAccuracy", "DEFAULT_ACCURACY", "FIT_ACCURACY",
    "char_fn", "density", "log_density_terms", "cdf", "quantile",
    "sample", "get_engine", "StandardDensity",
]


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


def cdf(x, psi: StableParams, acc: DensityAccuracy = DEFAULT_ACCURACY):
    """Distribution function F(x, psi) in [0, 1]."""
    pts, scalar = _as_points(x)
    eng = get_engine(psi, acc)
    vals = eng.cdf((pts - psi.mu) / psi.gamma)
    return float(vals[0]) if scalar else vals


def quantile(p, psi: StableParams, acc: DensityAccuracy = DEFAULT_ACCURACY):
    """Quantile function: the root of cdf(x, psi) = p.

    The standardized cdf takes, at each point, the first of three pieces
    that certifies it: the tail series' mass, the centre series' integral of
    the density from the shift point (where F is known in closed form), and
    the anchored spline of the Fourier table.  Each p is inverted on the
    piece that holds its root (see ``StandardDensity.ppf``): Newton's method
    on the tail's log mass or on the centre's cdf, else Brent's method in
    one knot cell of the spline (or Newton beyond its anchors), so
    cdf(quantile(p)) is p to 1e-12 and only a root no series certifies
    builds a table.  The engine keeps the levels it solved, so a repeated p
    is not solved again.  Raises AccuracyNotReached where no series
    certifies the root and the spline's certified error exceeds ``cdf_tol``,
    max(256 abs_tol, 2e-5) (near alpha = 1 with beta != 0, for one).
    """
    pts, scalar = _as_points(p)
    eng = get_engine(psi, acc)
    vals = np.array([psi.mu + psi.gamma * eng.ppf(float(q)) for q in pts])
    return float(vals[0]) if scalar else vals


def log_density_terms(x: np.ndarray, alpha: float, beta: float,
                      acc: DensityAccuracy = FIT_ACCURACY):
    """log f, f'/f and d(log f)/d(alpha, beta) of the unit-scale stable law at x.

    The density is floored at 1e-300 before logs and ratios.  The shape
    derivatives are the engine's certified partials d f/d(alpha, beta) over
    f, from one call to the engine of (alpha, beta); at the alpha = 2 and
    |beta| = 1 edges they are one-sided.  Returns arrays of shapes (n,), (n,)
    and (n, 2).
    """
    eng = get_engine(StableParams(alpha, beta), acc)
    f, slope, d_alpha, d_beta = eng.evaluate(x, ("pdf", "dpdf", "dalpha", "dbeta"))[:, 0]
    f = np.maximum(f, 1e-300)
    return np.log(f), slope / f, np.column_stack([d_alpha, d_beta]) / f[:, None]
