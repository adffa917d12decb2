"""Fourier inversion of the stable characteristic function.

Provides a gridded FFT inversion with spline interpolation for the central
region, plus a per-point adaptive-quadrature fallback.  Both report certified
absolute error bounds.

The FFT error decomposes into (i) truncation of the characteristic function
beyond the sampled window, (ii) aliasing, i.e. folded-in density tails at
period 2*pi/dt, and (iii) spline interpolation error.  Aliasing is removed
explicitly: the near folds are evaluated with the certified tail series and
the remaining folds are summed in closed form through a Hurwitz zeta on the
leading tail term, so heavy tails do not contaminate the central values.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, interpolate, special

from .chf import char_fn
from .params import StableParams
from .series import TailSeriesSide, tail_constant

_NEAR_FOLDS = 4


def _truncation_error(alpha: float, t_cut: float, order: int = 0) -> float:
    """(1/pi) * integral_{t_cut}^inf t^order exp(-t^alpha) dt."""
    s = (order + 1.0) / alpha
    return float(special.gammaincc(s, t_cut ** alpha) * special.gamma(s) / (alpha * np.pi))


def _choose_t_cut(alpha: float, tol: float, order: int = 0) -> float:
    t = 4.0
    while _truncation_error(alpha, t, order) > tol and t < 1e7:
        t *= 1.25
    return t


def _deriv_bound(alpha: float, order: int) -> float:
    """Global bound on |d^order f / dx^order| from moments of |phi|."""
    return float(special.gamma((order + 1.0) / alpha) / (alpha * np.pi))


def _transform(t, psi: StableParams, order: int):
    """Fourier transform (-it)^order * phi(t) of the order-th x-derivative."""
    ph = char_fn(t, psi)
    return ph * (-1j * t) if order else ph


class FourierTable:
    """FFT-inverted density (or its x-derivative) on a central window."""

    def __init__(self, alpha: float, beta: float, x_keep: float,
                 n_grid: int, abs_tol: float, halfwidth: float = 0.0,
                 deriv: bool = False,
                 tail_sides: tuple[TailSeriesSide, TailSeriesSide] | None = None):
        self.alpha = alpha
        self.beta = beta
        self.deriv = deriv
        order = 1 if deriv else 0

        t_cut = _choose_t_cut(alpha, abs_tol / 8.0, order)
        f_interp = _deriv_bound(alpha, order + 4)
        dx_target = (abs_tol / 4.0 * 384.0 / 5.0 / f_interp) ** 0.25
        t_pad = max(t_cut, np.pi / dx_target)
        if halfwidth > 0.0:
            t_pad = max(t_pad, halfwidth)
        dt = 2.0 * t_pad / n_grid
        t = (np.arange(n_grid) - n_grid // 2) * dt
        ph = _transform(t, StableParams(alpha, beta, 0.0, 1.0), order)
        vals = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(ph))).real * dt / (2.0 * np.pi)
        dx = 2.0 * np.pi / (n_grid * dt)
        x_max = np.pi / dt
        x_keep = min(x_keep, 0.45 * x_max)
        half = max(8, int(x_keep / dx))
        sl = slice(n_grid // 2 - half, n_grid // 2 + half + 1)
        xg = (np.arange(n_grid) - n_grid // 2)[sl] * dx
        fg = vals[sl].copy()

        alias_err = self._subtract_aliasing(xg, fg, x_max, abs_tol, tail_sides)

        trunc = _truncation_error(alpha, t_pad, order)
        interp = (5.0 / 384.0) * f_interp * dx ** 4
        self.err = trunc + interp + alias_err
        if not (np.isfinite(self.err) and np.all(np.isfinite(fg))):
            # overflowing aliasing folds: a table that certifies nothing
            self.err = np.inf
            fg = np.zeros_like(fg)
        self.x_lo = float(xg[0])
        self.x_hi = float(xg[-1])
        self._spline = interpolate.CubicSpline(xg, fg)

    def _subtract_aliasing(self, xg, fg, x_max, abs_tol, tail_sides) -> float:
        alpha, beta = self.alpha, self.beta
        period = 2.0 * x_max
        if alpha == 2.0:
            return _truncation_error(2.0, period / 4.0)  # Gaussian folds, effectively zero
        if alpha == 1.0 and beta != 0.0:
            return self._subtract_aliasing_cauchy_skew(xg, fg, period)
        if tail_sides is None:
            raise ValueError("tail series required for aliasing correction")
        right, left = tail_sides
        # each series term summed over all folds is a Hurwitz zeta, so the
        # whole correction is exact up to the first omitted series term
        q_r = 1.0 + (xg + right.tau) / period
        q_l = 1.0 + (left.tau - xg) / period
        v_r, e_r = right.fold_sum(q_r, period, deriv=self.deriv)
        v_l, e_l = left.fold_sum(q_l, period, deriv=self.deriv)
        if self.deriv:
            v_l = -v_l
        fg -= v_r + v_l
        return e_r + e_l

    def _subtract_aliasing_cauchy_skew(self, xg, fg, period) -> float:
        """alpha = 1 with skew: no series available, leading-order folds only."""
        kr = tail_constant(1.0, self.beta, +1)
        kl = tail_constant(1.0, self.beta, -1)
        if self.deriv:
            # folds are O(period^-3); bound without subtracting
            return 4.0 * (kr + kl) * special.zeta(3.0, 1.0) * period ** (-3.0)
        q_r = 1.0 + xg / period
        q_l = 1.0 - xg / period
        corr = period ** (-2.0) * (kr * special.zeta(2.0, q_r) + kl * special.zeta(2.0, q_l))
        fg -= corr
        # the alpha = 1 tail law carries slowly decaying log corrections
        rel_slack = 8.0 * math.log(period) / period
        return float(np.max(corr)) * rel_slack

    def __call__(self, x):
        return self._spline(x)

    def covers(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (x >= self.x_lo) & (x <= self.x_hi)

    def antiderivative(self):
        return self._spline.antiderivative()


def quad_pdf_point(x: float, alpha: float, beta: float, deriv: bool = False):
    """Adaptive-quadrature inversion at a single point; returns (value, err).

    The density's order-th derivative is (1/pi) int_0^inf Re[g(t) e^{-itx}] dt
    with g the transform of ``_transform``; splitting e^{-itx} into cos/sin
    weights lets the QUADPACK oscillatory rules handle large |x|.
    """
    psi = StableParams(alpha, beta, 0.0, 1.0)
    order = 1 if deriv else 0
    t_cut = _choose_t_cut(alpha, 1e-14, order)

    def re_g(t):
        return _transform(t, psi, order).real

    def im_g(t):
        return _transform(t, psi, order).imag

    a1, e1 = integrate.quad(re_g, 0.0, t_cut, weight="cos", wvar=x,
                            limit=800, epsabs=1e-13, epsrel=1e-11)
    a2, e2 = integrate.quad(im_g, 0.0, t_cut, weight="sin", wvar=x,
                            limit=800, epsabs=1e-13, epsrel=1e-11)
    val = (a1 + a2) / np.pi
    err = (e1 + e2) / np.pi + _truncation_error(alpha, t_cut, order)
    return val, 4.0 * err
