"""Fourier inversion of the stable characteristic function.

Provides a gridded FFT inversion with spline interpolation for the central
region, the same trapezoid rule summed at a few points (``point_sums``), and
a per-point adaptive-quadrature fallback.  All report certified absolute
error bounds.  All invert the transform of one quantity: the density
("pdf"), its x-derivative ("dpdf"), or a shape partial at fixed x ("dalpha",
"dbeta"), whose transform is phi times d(log phi) from
``chf.dlog_char_fn``.

The FFT error decomposes into (i) truncation of the characteristic function
beyond the sampled window, (ii) aliasing, i.e. folded-in density tails at
period 2*pi/dt, and (iii) spline interpolation error; a point sum has (i),
(ii) and rounding.  Both remove the aliasing by one routine,
``_subtract_folds``, through ``TailSeriesSide.fold_sum``: each of the first
``series._NEAR_FOLDS`` terms of the tabulated quantity's own tail series is
summed over all folds as a Hurwitz zeta (and its s-derivative, for a term
with a log slope), and the next term's fold sum bounds the rest, so heavy
tails do not contaminate the central values.  Without tail series
(alpha = 1) the folds are removed to leading order only.  Both paths take
their zeta sums from ``series.hurwitz_zeta``, one Euler-Maclaurin kernel
whose bounds are charged to the fold bound; a lattice offset at or below
zero (the shift tau beyond the period, near alpha = 1) gives NaN there, and
the table then certifies nothing.

The node spacing is set by the truncation and interpolation bounds alone;
the grid size sets only the aliasing period.  So every table is inverted on
the smallest FFT that reaches its window and whose fold bound certifies,
doubling up to the accuracy's ``fft_grid_size``; point sums climb the same
ladder from their own truncation point, and find the folds before any sum.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, interpolate, special

from .chf import char_fn, dlog_char_fn
from .params import StableParams
from .series import ODD_QUANTITIES, TailSeriesSide, hurwitz_zeta, tail_constant

_ORDER = {"pdf": 0, "dpdf": 1}
_EPS = np.finfo(float).eps


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


def _first_rung(t_pad: float, reach: float, n_grid: int) -> int:
    """Least node count, a power of two from 1024 up to ``n_grid``, whose
    rule on [-t_pad, t_pad] has 0.45 of its half-period beyond ``reach``."""
    return min(2 ** max(10, math.ceil(math.log2(2.0 * t_pad * reach / (0.45 * np.pi)))), n_grid)


def _subtract_folds(alpha: float, beta: float, quantity: str, x, vals, period: float,
                    tail_sides) -> float:
    """Remove the aliasing folds of ``period`` from ``vals`` at x, in place; their bound.

    A trapezoid rule of node spacing 2 pi / period returns at x the quantity
    plus its folds, its values at x + j * period for every j != 0 (Poisson
    summation).  Each side's folds are a lattice sum of its tail series.
    """
    if alpha == 2.0 and quantity in _ORDER:
        return _truncation_error(2.0, period / 4.0)  # Gaussian folds, effectively zero
    if alpha == 1.0 and (beta != 0.0 or quantity == "dbeta"):
        return _subtract_folds_alpha_one(beta, quantity, x, vals, period)
    if tail_sides is None:
        raise ValueError("tail series required for aliasing correction")
    right, left = tail_sides
    # each series term summed over all folds is a Hurwitz zeta, so the
    # whole correction is exact up to the first omitted series term
    q_r = 1.0 + (x + right.tau) / period
    q_l = 1.0 + (left.tau - x) / period
    v_r, e_r = right.fold_sum(q_r, period, quantity)
    v_l, e_l = left.fold_sum(q_l, period, quantity)
    if quantity in ODD_QUANTITIES:
        v_l = -v_l  # the left side runs in -x with beta mirrored
    vals -= v_r + v_l
    return e_r + e_l


def _subtract_folds_alpha_one(beta: float, quantity: str, x, vals, period: float) -> float:
    """alpha = 1 with no usable series: leading-order folds only.

    The tails are K |x|^-2 with K = (1 +- beta)/pi, the alpha = 1 value of
    Gamma(alpha+1) (1 +- beta) sin(alpha pi/2) / pi.  So d/d beta of the
    leading term is +-|x|^-2 / pi, and d/d alpha is
    (K (1 - euler_gamma) - K log|x|) |x|^-2.  The series in beta has no
    alpha = 1 form (its shift tau has a pole there), so the beta partial
    takes this path at beta = 0 too.
    """
    kr = tail_constant(1.0, beta, +1)
    kl = tail_constant(1.0, beta, -1)
    if quantity == "dpdf":
        # folds are O(period^-3); bound without subtracting
        return 4.0 * (kr + kl) * special.zeta(3.0, 1.0) * period ** (-3.0)
    two = np.array([[2.0]])
    (z_r,), (ze_r,), (lz_r,), (lze_r,) = hurwitz_zeta(two, 1.0 + x / period)
    (z_l,), (ze_l,), (lz_l,), (lze_l,) = hurwitz_zeta(two, 1.0 - x / period)
    # corr and each side's modulus, before the factor period^-2
    if quantity == "pdf":
        corr = mag = kr * z_r + kl * z_l
        kernel_err = kr * ze_r + kl * ze_l
    elif quantity == "dbeta":
        # at beta = 0 the partial is odd and the sides mirror each other, so
        # their later terms cancel as their leading ones do
        corr = (z_r - z_l) / np.pi
        mag = corr if beta == 0.0 else (z_r + z_l) / np.pi
        kernel_err = (ze_r + ze_l) / np.pi
    else:
        lead = 1.0 - np.euler_gamma - math.log(period)
        r, l = kr * (lead * z_r - lz_r), kl * (lead * z_l - lz_l)
        corr, mag = r + l, np.abs(r) + np.abs(l)
        kernel_err = kr * (abs(lead) * ze_r + lze_r) + kl * (abs(lead) * ze_l + lze_l)
    vals -= corr * period ** (-2.0)
    # the alpha = 1 tail law carries slowly decaying log corrections on each
    # side, which at beta != 0 need not cancel where the two sides' folds do
    rel_slack = 8.0 * math.log(period) / period
    return float(np.max(np.abs(mag * period ** (-2.0))) * rel_slack
                 + np.max(kernel_err) * period ** (-2.0))


class FourierTable:
    """FFT-inverted quantity (density, slope or shape partial) on a window.

    ``window`` = (x_from, x_to) is the interval the table must cover; it is
    widened to 17 nodes.  ``n_grid`` is the largest FFT size: the inversion
    runs on the smallest power of two (at least 1024) whose 0.45 half-period
    reaches the window, doubled until the aliasing folds certify, and
    ``n_nodes`` records the size used.  At ``n_grid`` the window is cut to
    0.45 of the half-period.
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
        # which sets only the aliasing period.  So the inversion starts on the
        # smallest grid whose window is reached and doubles it until the folds
        # certify; n_grid is the last rung, whose result stands either way.
        n = _first_rung(t_pad, max(abs(window[0]), abs(window[1]), 1.0), n_grid)
        while True:
            xg, fg, alias_err = self._invert(t_pad, n, window, tail_sides)
            if alias_err <= abs_tol / 8.0 or n >= n_grid:
                break
            n *= 2
        self.n_nodes = n
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

    def _invert(self, t_pad, n_grid, window, tail_sides):
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
        alias_err = _subtract_folds(self.alpha, self.beta, self.quantity, xg, fg, 2.0 * x_max,
                                    tail_sides)
        return xg, fg, alias_err

    def __call__(self, x):
        return self._spline(x)

    def covers(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (x >= self.x_lo) & (x <= self.x_hi)

    def antiderivative(self):
        return self._spline.antiderivative()


# Complex phases, 16 bytes each, that ``point_sums`` holds at once
_SUM_BLOCK = 2 ** 15


def point_sums(x, alpha: float, beta: float, quantity: str, n_grid: int, abs_tol: float,
               tail_sides: tuple[TailSeriesSide, TailSeriesSide] | None = None):
    """The quantity at the points x by a table's own trapezoid rule; (values, errs).

    The rule is the one a ``FourierTable`` inverts with, summed at the points
    themselves: no FFT and no spline.  Since the quantity is real, the nodes
    t_j = j dt, j = 0 .. n/2, on [0, t_cut] serve.  By Poisson summation the
    rule's value at x is the quantity plus its folds at period 2 pi / dt, up
    to the truncation beyond t_cut.  So the certificate is a table's without
    its interpolation term: ``trunc_at(t_cut)`` at the table's t_cut, the
    fold bound of ``_subtract_folds`` over these points, and a rounding term
    for each point.  n starts on the table's first rung for t_pad = t_cut
    and doubles, up to ``n_grid``, until the fold bound is at most
    abs_tol / 8; the folds, which need no sum, are found first.
    """
    x = np.asarray(x, dtype=float)
    trunc_at, _ = _bounds(alpha, beta, quantity)
    t_cut = _choose_t_cut(trunc_at, abs_tol / 8.0)
    n = _first_rung(t_cut, max(float(np.max(np.abs(x))), 1.0), n_grid)
    while True:
        vals = np.zeros(x.size)
        alias_err = _subtract_folds(alpha, beta, quantity, x, vals, np.pi * n / t_cut, tail_sides)
        if alias_err <= abs_tol / 8.0 or n >= n_grid:
            break
        n *= 2
    dt = 2.0 * t_cut / n
    # node j = a * b_n + b, b < b_n: e^(-i t_j x) is e^(-i a b_n dt x) times
    # e^(-i b dt x), so a point takes a_n + b_n exponentials, not n/2 + 1
    b_n = math.isqrt(n // 2) + 1
    a_n = -(-(n // 2 + 1) // b_n)
    g = np.zeros(a_n * b_n, dtype=complex)
    t = np.arange(n // 2 + 1) * dt
    # weights dt / pi, half at t = 0, which pairs with no node at -t
    g[:t.size] = _transform(t, StableParams(alpha, beta, 0.0, 1.0), quantity) * (dt / np.pi)
    g[0] *= 0.5
    step = max(1, _SUM_BLOCK // (a_n + b_n))
    for lo in range(0, x.size, step):
        xc = x[lo:lo + step]
        inner = np.exp(-1j * np.multiply.outer(xc, np.arange(b_n) * dt)) @ g.reshape(a_n, b_n).T
        outer = np.exp(-1j * np.multiply.outer(xc, np.arange(a_n) * (b_n * dt)))
        vals[lo:lo + step] += np.einsum("pa,pa->p", outer, inner).real
    # each of the two phases to a relative eps, cos and sin, their product
    # and the sums of at most n/2 + 1 terms, each of modulus at most |g_j|
    rounding = 8.0 * _EPS * (2.0 * t_cut * np.abs(x) + t.size + 8.0) * float(np.sum(np.abs(g)))
    err = trunc_at(t_cut) + alias_err + rounding
    bad = ~(np.isfinite(err) & np.isfinite(vals))
    if bad.any():
        # overflowing aliasing folds certify nothing, as in a table
        vals[bad], err[bad] = 0.0, np.inf
    return vals, err


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
