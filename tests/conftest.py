"""Shared oracles and helpers for the test suite.

The quadrature oracle inverts the characteristic function directly with
QUADPACK's oscillatory rules; it shares no code with the package's density
engine and is the adjudicator for every [DERIVED] density value.
"""

import numpy as np
import pytest
from scipy import integrate

# Absolute accuracy claimed for the inversion oracles below.  Each asks
# QUADPACK for 1e-13 absolute or 1e-11 relative on a real and an imaginary
# part of values below 10 in modulus, and cuts the integral where the rest
# is below about 1e-12; 1e-10 leaves a tenfold margin.
ORACLE_ATOL = 1e-10


def stable_chf(t, alpha, beta, mu=0.0, gamma=1.0):
    """Characteristic function, written independently of the package."""
    t = np.asarray(t, dtype=float)
    if alpha == 1.0:
        gt = gamma * t
        agt = np.abs(gt)
        with np.errstate(divide="ignore", invalid="ignore"):
            lg = np.where(agt > 0, np.log(agt), 0.0)
        return np.exp(-agt + 1j * (mu * t - beta * gt * (2.0 / np.pi) * lg))
    at = np.abs(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        pw = np.where(at > 0, at ** (alpha - 1.0), 0.0)
    skew = beta * np.tan(np.pi * alpha / 2.0) * gamma ** alpha
    return np.exp(-np.abs(gamma * t) ** alpha + 1j * (skew * t * (pw - 1.0) + mu * t))


def quad_density_oracle(x, alpha, beta, order=0):
    """Adaptive-quadrature Fourier inversion of the standardized density.

    ``order`` = 1 inverts (-it) phi instead, the density's x-derivative.
    """
    t_hi = max(40.0, np.log(1e16) ** (1.0 / alpha))

    def re_phi(t):
        return ((-1j * t) ** order * stable_chf(t, alpha, beta)).real

    def im_phi(t):
        return ((-1j * t) ** order * stable_chf(t, alpha, beta)).imag

    a1, _ = integrate.quad(re_phi, 0, t_hi, weight="cos", wvar=x,
                           limit=900, epsabs=1e-13, epsrel=1e-11)
    a2, _ = integrate.quad(im_phi, 0, t_hi, weight="sin", wvar=x,
                           limit=900, epsabs=1e-13, epsrel=1e-11)
    return (a1 + a2) / np.pi


def _stable_chf_shape_factor(t, alpha, beta, wrt):
    """d(log phi)/d(alpha or beta), written independently of the package.

    For alpha != 1 the exponent is -|t|^alpha + i beta tan(pi alpha/2) t
    (|t|^(alpha-1) - 1); at alpha = 1 it is -|t| - i beta (2/pi) t log|t|,
    whose alpha-derivative is the alpha -> 1 limit -|t| log|t| - i beta t
    log(|t|)^2 / pi.
    """
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        lg = np.where(at > 0, np.log(at), 0.0)
    if alpha == 1.0:
        if wrt == "beta":
            return -1j * (2.0 / np.pi) * t * lg
        return -at * lg - 1j * beta * t * lg ** 2 / np.pi
    tan = np.tan(np.pi * alpha / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        pw = np.where(at > 0, at ** (alpha - 1.0), 0.0)
    if wrt == "beta":
        return 1j * tan * t * (pw - 1.0)
    dtan = (np.pi / 2.0) / np.cos(np.pi * alpha / 2.0) ** 2
    return -(at ** alpha) * lg + 1j * beta * t * (dtan * (pw - 1.0) + tan * pw * lg)


def quad_shape_derivative_oracle(x, alpha, beta, wrt):
    """Adaptive-quadrature inversion of d phi/d alpha or d phi/d beta at x.

    This is the partial of the standardized density in alpha or beta at
    fixed x, the quantity the engine certifies.
    """
    t_hi = max(40.0, 1.3 * np.log(1e18) ** (1.0 / alpha))

    def g(t):
        return stable_chf(t, alpha, beta) * _stable_chf_shape_factor(t, alpha, beta, wrt)

    a1, _ = integrate.quad(lambda t: g(t).real, 0, t_hi, weight="cos", wvar=x,
                           limit=900, epsabs=1e-13, epsrel=1e-11)
    a2, _ = integrate.quad(lambda t: g(t).imag, 0, t_hi, weight="sin", wvar=x,
                           limit=900, epsabs=1e-13, epsrel=1e-11)
    return (a1 + a2) / np.pi


def quad_cdf_oracle(x, alpha, beta):
    """Gil-Pelaez inversion for the distribution function.

    QUADPACK integrates over [0, 1], [1, t_hi] (t_hi as for the density
    oracle) at 1e-14 absolute or 1e-12 relative, and over [t_hi, inf),
    where |phi| < 1e-16, at its defaults.  One pass over [0, inf) at the
    defaults (1.5e-8) returned F(-3.05) of S(1.9, -0.3) 1.16e-9 low, and at
    1e-13 it returned F(119.7) of S(0.8, 0.3) 1.0e-9 low, where this split
    and the integrated density oracle agree to 1e-11.
    """
    def integrand(t):
        ph = stable_chf(t, alpha, beta)
        return (ph.imag * np.cos(t * x) - ph.real * np.sin(t * x)) / t

    t_hi = max(40.0, np.log(1e16) ** (1.0 / alpha))
    v = sum(integrate.quad(integrand, lo, hi, limit=2000, epsabs=1e-14, epsrel=1e-12)[0]
            for lo, hi in ((0.0, 1.0), (1.0, t_hi)))
    v += integrate.quad(integrand, t_hi, np.inf, limit=800)[0]
    return 0.5 - v / np.pi


def ks_distance(sorted_sample, cdf_values):
    n = len(sorted_sample)
    up = np.max(cdf_values - np.arange(n) / n)
    dn = np.max(np.arange(1, n + 1) / n - cdf_values)
    return max(up, dn)


@pytest.fixture(autouse=True)
def _silence_integration_warnings():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        yield
