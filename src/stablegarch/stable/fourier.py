"""Fourier inversion of the stable characteristic function.

Provides a gridded FFT inversion with spline interpolation for the central
region, plus a per-point adaptive-quadrature fallback.  Both report certified
absolute error bounds.  Both invert the transform of one quantity: the
density ("pdf"), its x-derivative ("dpdf"), or a shape partial at fixed x
("dalpha", "dbeta"), whose transform is phi times d(log phi) from
``chf.dlog_char_fn``.

The FFT error decomposes into (i) truncation of the characteristic function
beyond the sampled window, (ii) aliasing, i.e. folded-in density tails at
period 2*pi/dt, and (iii) spline interpolation error.  Aliasing is removed
explicitly: each of the first ``series._NEAR_FOLDS`` tail-series terms is
summed over all folds in closed form as a Hurwitz zeta, and the next term's
fold sum bounds the rest, so heavy tails do not contaminate the central
values.  The shape-partial tables remove their folds the same way, from the
tail series' own partials.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, interpolate, special

from .chf import char_fn, dlog_char_fn
from .params import StableParams
from .series import TailSeriesSide, log_zeta, tail_constant

_ORDER = {"pdf": 0, "dpdf": 1}


def _truncation_error(alpha: float, t_cut: float, order: int = 0) -> float:
    """(1/pi) * integral_{t_cut}^inf t^order exp(-t^alpha) dt."""
    s = (order + 1.0) / alpha
    return float(special.gammaincc(s, t_cut ** alpha) * special.gamma(s) / (alpha * np.pi))


def _deriv_bound(alpha: float, order: int) -> float:
    """Global bound on |d^order f / dx^order| from moments of |phi|."""
    return float(special.gamma((order + 1.0) / alpha) / (alpha * np.pi))


def _transform(t, psi: StableParams, quantity: str):
    """Fourier transform of the quantity: phi, -it phi, or phi d(log phi)."""
    ph = char_fn(t, psi)
    if quantity == "pdf":
        return ph
    if quantity == "dpdf":
        return ph * (-1j * t)
    return ph * dlog_char_fn(t, psi.alpha, psi.beta, quantity[1:])


def _partial_tails(alpha: float, beta: float, quantity: str):
    """Grid s, tails (2/pi) int_s^inf |g| and moment (2/pi) int_0^inf s^4 |g|.

    g is the quantity's transform.  The shape partials have no closed-form
    moments, so the modulus exp(-s^alpha) |d(log phi)| is integrated by the
    trapezoid rule on a logarithmic grid (400 nodes over s in
    [1e-9, 1.05 * 745^(1/alpha)]); the factor 2 over the 1/pi of the
    inversion is the margin for the rule's error (against adaptive quadrature
    it overstates the tails by at most 5% and matches the moment to 1e-4, for
    alpha from 0.45 to 1.99).
    """
    s = np.geomspace(1e-9, 1.05 * 745.0 ** (1.0 / alpha), 400)
    g = np.abs(_transform(s, StableParams(alpha, beta), quantity)) * s  # d log s
    seg = 0.5 * (g[1:] + g[:-1]) * np.diff(np.log(s))
    tail = np.append(np.cumsum(seg[::-1])[::-1], 0.0) * 2.0 / np.pi
    g4 = g * s ** 4
    m4 = float(np.sum(0.5 * (g4[1:] + g4[:-1]) * np.diff(np.log(s)))) * 2.0 / np.pi
    return s, tail, m4


def _bounds(alpha: float, beta: float, quantity: str):
    """(truncation error at t, bound on the 4th x-derivative) for the quantity.

    The truncation error is (1/pi) int_t^inf |g|; the x-derivative bound is
    (1/pi) int_0^inf s^4 |g|.  Closed forms for the density and its slope,
    numerical moments for the shape partials.
    """
    if quantity in _ORDER:
        order = _ORDER[quantity]
        return (lambda t: _truncation_error(alpha, t, order)), _deriv_bound(alpha, order + 4)
    s, tail, m4 = _partial_tails(alpha, beta, quantity)
    return (lambda t: float(np.interp(t, s, tail, left=tail[0], right=0.0))), m4


def _choose_t_cut(trunc, tol: float) -> float:
    t = 4.0
    while trunc(t) > tol and t < 1e7:
        t *= 1.25
    return t


class FourierTable:
    """FFT-inverted quantity (density, slope or shape partial) on a window.

    ``window`` = (x_from, x_to) is the interval the table must cover; it is
    cut to 0.45 of the inversion's half-period and widened to 17 nodes.
    """

    def __init__(self, alpha: float, beta: float, window: tuple[float, float],
                 n_grid: int, abs_tol: float, quantity: str = "pdf",
                 tail_sides: tuple[TailSeriesSide, TailSeriesSide] | None = None):
        self.alpha = alpha
        self.beta = beta
        self.quantity = quantity

        trunc_at, f_interp = _bounds(alpha, beta, quantity)
        t_cut = _choose_t_cut(trunc_at, abs_tol / 8.0)
        dx_target = (abs_tol / 4.0 * 384.0 / 5.0 / f_interp) ** 0.25
        t_pad = max(t_cut, np.pi / dx_target)
        # The node spacing dx = pi / t_pad does not depend on the grid size,
        # which sets only the aliasing period.  A shape-partial table spans
        # only the few points sent to it, so the smallest grid whose window
        # is reached serves if its folds certify; else, and for the density
        # and slope tables over the whole central window, the full grid.
        sizes = [n_grid]
        if quantity not in _ORDER:
            reach = max(abs(window[0]), abs(window[1]), 1.0)
            n_fit = 2 ** max(10, math.ceil(math.log2(2.0 * t_pad * reach / (0.45 * np.pi))))
            sizes = sorted({min(n_fit, n_grid), n_grid})
        for n in sizes:
            xg, fg, alias_err = self._invert(t_pad, n, window, abs_tol, tail_sides)
            if alias_err <= abs_tol / 8.0:
                break
        dx = np.pi / t_pad

        trunc = trunc_at(t_pad)
        interp = (5.0 / 384.0) * f_interp * dx ** 4
        self.err = trunc + interp + alias_err
        if not (np.isfinite(self.err) and np.all(np.isfinite(fg))):
            # overflowing aliasing folds: a table that certifies nothing
            self.err = np.inf
            fg = np.zeros_like(fg)
        self.x_lo = float(xg[0])
        self.x_hi = float(xg[-1])
        self._spline = interpolate.CubicSpline(xg, fg)

    def _invert(self, t_pad, n_grid, window, abs_tol, tail_sides):
        """FFT inversion on n_grid nodes over [-t_pad, t_pad], folds removed.

        Returns the window's nodes, values and the aliasing error bound.
        """
        dt = 2.0 * t_pad / n_grid
        t = (np.arange(n_grid) - n_grid // 2) * dt
        ph = _transform(t, StableParams(self.alpha, self.beta, 0.0, 1.0), self.quantity)
        vals = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(ph))).real * dt / (2.0 * np.pi)
        dx = 2.0 * np.pi / (n_grid * dt)
        x_max = np.pi / dt
        cap = int(0.45 * x_max / dx)
        i_lo = max(-cap, math.ceil(window[0] / dx))
        i_hi = min(cap, math.floor(window[1] / dx))
        if i_hi - i_lo < 16:
            mid = (i_lo + i_hi) // 2
            i_lo, i_hi = mid - 8, mid + 8
        xg = np.arange(i_lo, i_hi + 1) * dx
        fg = vals[n_grid // 2 + i_lo:n_grid // 2 + i_hi + 1].copy()
        alias_err = self._subtract_aliasing(xg, fg, x_max, abs_tol, tail_sides)
        return xg, fg, alias_err

    def _subtract_aliasing(self, xg, fg, x_max, abs_tol, tail_sides) -> float:
        alpha, beta, quantity = self.alpha, self.beta, self.quantity
        period = 2.0 * x_max
        if alpha == 2.0 and quantity in _ORDER:
            return _truncation_error(2.0, period / 4.0)  # Gaussian folds, effectively zero
        if alpha == 1.0 and (beta != 0.0 or quantity == "dbeta"):
            return self._subtract_aliasing_alpha_one(xg, fg, period)
        if tail_sides is None:
            raise ValueError("tail series required for aliasing correction")
        right, left = tail_sides
        # each series term summed over all folds is a Hurwitz zeta, so the
        # whole correction is exact up to the first omitted series term
        q_r = 1.0 + (xg + right.tau) / period
        q_l = 1.0 + (left.tau - xg) / period
        v_r, e_r = right.fold_sum(q_r, period, quantity)
        v_l, e_l = left.fold_sum(q_l, period, quantity)
        if quantity in ("dpdf", "dbeta"):
            v_l = -v_l  # the left side runs in -x with beta mirrored
        fg -= v_r + v_l
        return e_r + e_l

    def _subtract_aliasing_alpha_one(self, xg, fg, period) -> float:
        """alpha = 1 with no usable series: leading-order folds only.

        The tails are K |x|^-2 with K = (1 +- beta)/pi, the alpha = 1 value of
        Gamma(alpha+1) (1 +- beta) sin(alpha pi/2) / pi.  So d/d beta of the
        leading term is +-|x|^-2 / pi, and d/d alpha is
        (K (1 - euler_gamma) - K log|x|) |x|^-2.  The series in beta has no
        alpha = 1 form (its shift tau has a pole there), so the beta table
        takes this path at beta = 0 too.
        """
        quantity = self.quantity
        kr = tail_constant(1.0, self.beta, +1)
        kl = tail_constant(1.0, self.beta, -1)
        if quantity == "dpdf":
            # folds are O(period^-3); bound without subtracting
            return 4.0 * (kr + kl) * special.zeta(3.0, 1.0) * period ** (-3.0)
        q_r = 1.0 + xg / period
        q_l = 1.0 - xg / period
        z_r, z_l = special.zeta(2.0, q_r), special.zeta(2.0, q_l)
        em_err = 0.0
        if quantity == "pdf":
            corr = kr * z_r + kl * z_l
        elif quantity == "dbeta":
            corr = (z_r - z_l) / np.pi
        else:
            two = np.array([[2.0]])
            (lz_r,), (e_r,) = log_zeta(two, q_r)
            (lz_l,), (e_l,) = log_zeta(two, q_l)
            lead = 1.0 - np.euler_gamma - math.log(period)
            corr = kr * (lead * z_r - lz_r) + kl * (lead * z_l - lz_l)
            em_err = float(np.max(kr * e_r + kl * e_l)) * period ** (-2.0)
        corr = corr * period ** (-2.0)
        fg -= corr
        # the alpha = 1 tail law carries slowly decaying log corrections
        rel_slack = 8.0 * math.log(period) / period
        return float(np.max(np.abs(corr))) * rel_slack + em_err

    def __call__(self, x):
        return self._spline(x)

    def covers(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (x >= self.x_lo) & (x <= self.x_hi)

    def antiderivative(self):
        return self._spline.antiderivative()


def quad_pdf_point(x: float, alpha: float, beta: float, quantity: str = "pdf"):
    """Adaptive-quadrature inversion at a single point; returns (value, err).

    The quantity is (1/pi) int_0^inf Re[g(t) e^{-itx}] dt with g the
    transform of ``_transform``; splitting e^{-itx} into cos/sin weights lets
    the QUADPACK oscillatory rules handle large |x|.
    """
    psi = StableParams(alpha, beta, 0.0, 1.0)
    trunc_at, _ = _bounds(alpha, beta, quantity)
    t_cut = _choose_t_cut(trunc_at, 1e-14)

    def re_g(t):
        return _transform(t, psi, quantity).real

    def im_g(t):
        return _transform(t, psi, quantity).imag

    a1, e1 = integrate.quad(re_g, 0.0, t_cut, weight="cos", wvar=x,
                            limit=800, epsabs=1e-13, epsrel=1e-11)
    a2, e2 = integrate.quad(im_g, 0.0, t_cut, weight="sin", wvar=x,
                            limit=800, epsabs=1e-13, epsrel=1e-11)
    val = (a1 + a2) / np.pi
    err = (e1 + e2) / np.pi + trunc_at(t_cut)
    return val, 4.0 * err
