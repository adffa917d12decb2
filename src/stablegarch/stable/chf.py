"""Characteristic function of the stable family."""

from __future__ import annotations

import numpy as np

from .params import StableParams


def char_fn(t, psi: StableParams):
    """Characteristic function phi(t) of S(alpha, beta, mu, gamma).

    Uses the continuous parameterization: for alpha != 1,

        phi(t) = exp{ -|gamma t|^alpha
                      + i beta gamma^alpha tan(alpha pi / 2) t (|t|^(alpha-1) - 1)
                      + i mu t },

    and for alpha == 1 (taken at exact equality only)

        phi(t) = exp{ -|gamma t| - i beta gamma t (2/pi) log|gamma t| + i mu t }.

    Accepts scalars or arrays; |phi(t)| = exp(-|gamma t|^alpha) in all cases.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    a, b, mu, g = psi.alpha, psi.beta, psi.mu, psi.gamma
    if a == 1.0:
        gt = g * t_arr
        agt = np.abs(gt)
        with np.errstate(divide="ignore", invalid="ignore"):
            lg = np.where(agt > 0.0, np.log(agt), 0.0)
        out = np.exp(-agt + 1j * (mu * t_arr - b * gt * (2.0 / np.pi) * lg))
    else:
        at = np.abs(t_arr)
        with np.errstate(divide="ignore", invalid="ignore"):
            pw = np.where(at > 0.0, at ** (a - 1.0), 0.0)
        skew = b * np.tan(np.pi * a / 2.0) * g ** a
        out = np.exp(-np.abs(g * t_arr) ** a + 1j * (skew * t_arr * (pw - 1.0) + mu * t_arr))
    return complex(out[0]) if scalar else out


def dlog_char_fn(t, alpha: float, beta: float, wrt: str):
    """Partial d(log phi)/d(alpha) or d(log phi)/d(beta) of S(alpha, beta, 0, 1).

    With L = log|t| and tan = tan(alpha pi / 2), for alpha != 1

        d/d beta  = i t tan expm1((alpha-1) L),
        d/d alpha = -|t|^alpha L
                    + i beta t [ (pi/2) sec^2 expm1((alpha-1) L)
                                 + tan e^((alpha-1) L) L ],

    and at alpha == 1 exactly (the limits of the above)

        d/d beta  = -i (2/pi) t L,
        d/d alpha = -|t| L - i beta t L^2 / pi.

    ``expm1`` keeps tan * (|t|^(alpha-1) - 1) free of cancellation as alpha
    approaches 1.  Since d phi = phi * d(log phi), the density's shape partials
    at fixed x are Fourier inversions of phi times these factors.  Each
    vanishes at t = 0.
    """
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    lg = np.log(np.where(at > 0.0, at, 1.0))
    if alpha == 1.0:
        if wrt == "beta":
            return -1j * (2.0 / np.pi) * t * lg
        return -at * lg - 1j * beta * t * lg * lg / np.pi
    tan = np.tan(np.pi * alpha / 2.0)
    em1 = np.expm1((alpha - 1.0) * lg)
    if wrt == "beta":
        return 1j * t * tan * em1
    sec2 = 1.0 + tan * tan
    return (-np.exp(alpha * lg) * lg
            + 1j * beta * t * ((np.pi / 2.0) * sec2 * em1 + tan * (em1 + 1.0) * lg))
