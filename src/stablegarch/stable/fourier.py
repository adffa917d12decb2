"""Fourier inversion of the stable characteristic function.

Provides a gridded FFT inversion with spline interpolation for the central
region, the same trapezoid rule summed at a few points (``point_sums``, for
several quantities in one call, each at its own points), and a per-point
adaptive-quadrature fallback.  All report certified absolute
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
the grid size sets only the aliasing period.  So both rules find their FFT
size from the folds alone, before any transform, by one ladder (``_climb``):
from the smallest power of two that reaches the points, doubling up to the
accuracy's ``fft_grid_size`` until the fold bound certifies.  A table then
inverts once, on the size found; point sums sum each quantity on its own
rung.  The slope and the shape partials of one point-sum call share a
truncation point, and with it the ladder's fold kernels, one phi on the
nodes and one block of phases; each stops on its own rung, so it sums the
nodes it would alone.  The shape partials' numerical tail tables are built
once per law, both from one grid.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import integrate, interpolate, special

from .chf import char_fn, dlog_char_fn
from .params import StableParams
from .series import ODD_QUANTITIES, PARTIALS, TailSeriesSide, hurwitz_zeta, tail_constant

_ORDER = {"pdf": 0, "dpdf": 1}
_EPS = np.finfo(float).eps


def _truncation_error(alpha: float, t_cut: float, order: int = 0) -> float:
    """(1/pi) * integral_{t_cut}^inf t^order exp(-t^alpha) dt."""
    s = (order + 1.0) / alpha
    return float(special.gammaincc(s, t_cut ** alpha) * special.gamma(s) / (alpha * np.pi))


def _deriv_bound(alpha: float, order: int) -> float:
    """Global bound on |d^order f / dx^order| from moments of |phi|."""
    return float(special.gamma((order + 1.0) / alpha) / (alpha * np.pi))


def _transforms(t, psi: StableParams, quantities):
    """Fourier transforms of the quantities from one phi: phi, -it phi, or phi d(log phi)."""
    ph = char_fn(t, psi)
    return [ph if q == "pdf" else ph * (-1j * t) if q == "dpdf"
            else ph * dlog_char_fn(t, psi.alpha, psi.beta, q[1:]) for q in quantities]


@lru_cache(maxsize=64)
def _partial_tails(alpha: float, beta: float):
    """{partial: (grid s, tails (2/pi) int_s^inf |g|, moment (2/pi) int_0^inf s^4 |g|)}.

    g is the partial's transform.  The shape partials have no closed-form
    moments, so the modulus exp(-s^alpha) |d(log phi)| is integrated by the
    trapezoid rule on a logarithmic grid (400 nodes over s in
    [1e-9, 1.05 * 745^(1/alpha)]); the factor 2 over the 1/pi of the
    inversion is the margin for the rule's error (against adaptive quadrature
    it overstates the tails by at most 5% and matches the moment to 1e-4, for
    alpha from 0.45 to 1.99).  Both partials come from one grid and one phi,
    cached for as many laws as engines are kept, so an engine's point sums,
    its partial tables and their widened rebuilds all read one table.
    """
    s = np.geomspace(1e-9, 1.05 * 745.0 ** (1.0 / alpha), 400)
    dlog = np.diff(np.log(s))
    out = {}
    for quantity, transform in zip(PARTIALS, _transforms(s, StableParams(alpha, beta), PARTIALS)):
        g = np.abs(transform) * s  # d log s
        seg = 0.5 * (g[1:] + g[:-1]) * dlog
        tail = np.append(np.cumsum(seg[::-1])[::-1], 0.0) * 2.0 / np.pi
        g4 = g * s ** 4
        m4 = float(np.sum(0.5 * (g4[1:] + g4[:-1]) * dlog)) * 2.0 / np.pi
        out[quantity] = s, tail, m4
    return out


def _bounds(alpha: float, beta: float, quantity: str):
    """(truncation error at t, bound on the 4th x-derivative) for the quantity.

    The truncation error is (1/pi) int_t^inf |g|; the x-derivative bound is
    (1/pi) int_0^inf s^4 |g|.  Closed forms for the density and its slope,
    numerical moments for the shape partials.
    """
    if quantity in _ORDER:
        order = _ORDER[quantity]
        return (lambda t: _truncation_error(alpha, t, order)), _deriv_bound(alpha, order + 4)
    s, tail, m4 = _partial_tails(alpha, beta)[quantity]
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


def _climb(alpha: float, beta: float, quantities, x, own, first, t: float, n_grid: int,
           abs_tol: float, tail_sides):
    """(rungs, folds, fold bounds) of the quantities on the Fourier rules' one ladder.

    The rule on [-t, t] with n nodes has folds of period pi n / t.  Quantity
    i starts on rung ``first[i]`` and doubles n, up to ``n_grid``, until its
    fold bound over its points (its row of ``own``, default all of x) is at
    most abs_tol / 8: one ``_subtract_folds`` call per rung, before any
    transform.  A row of ``folds`` is the quantity less its rule's sum.
    The stop is on the fold bound alone, so S(0.8, 0.3) climbs one rung more
    than its total error needs; stopping on the total error would move every
    certificate's split between truncation, folds and interpolation.
    """
    folds = np.zeros((len(quantities), x.size))
    bounds = np.empty(len(quantities))
    rungs = [0] * len(quantities)
    n = min(first)
    while not all(rungs):
        climbing = [i for i, rung in enumerate(rungs) if not rung and first[i] <= n]
        if climbing:
            got = np.zeros((len(climbing), x.size))
            found = _subtract_folds(alpha, beta, [quantities[i] for i in climbing], x, got,
                                    np.pi * n / t, tail_sides,
                                    None if own is None else own[climbing])
            for row, i in enumerate(climbing):
                if found[row] <= abs_tol / 8.0 or n >= n_grid:
                    folds[i], bounds[i], rungs[i] = got[row], found[row], n
        n *= 2
    return np.array(rungs), folds, bounds


def _subtract_folds(alpha: float, beta: float, quantities, x, vals, period: float,
                    tail_sides, own=None):
    """Remove the aliasing folds of ``period`` from ``vals`` at x, in place; their bounds.

    ``vals`` holds one row per quantity, and one bound per quantity is
    returned, over its row of ``own`` (boolean, default every point), where
    its folds are removed.  A trapezoid rule of node spacing 2 pi / period
    returns at x the quantity plus its folds, its values at x + j * period
    for every j != 0 (Poisson summation).  Each side's folds are a lattice
    sum of its tail series, one ``fold_sum`` per side for every quantity
    that has them.
    """
    bounds = np.empty(len(quantities))
    series = []
    for i, quantity in enumerate(quantities):
        if alpha == 2.0 and quantity in _ORDER:
            bounds[i] = _truncation_error(2.0, period / 4.0)  # Gaussian folds, effectively zero
        elif alpha == 1.0 and (beta != 0.0 or quantity == "dbeta"):
            cols = slice(None) if own is None else own[i]
            row = vals[i, cols]
            bounds[i] = _subtract_folds_alpha_one(beta, quantity, x[cols], row, period)
            vals[i, cols] = row
        else:
            series.append(i)
    if series:
        if tail_sides is None:
            raise ValueError("tail series required for aliasing correction")
        right, left = tail_sides
        qs = tuple(quantities[i] for i in series)
        rows = None if own is None else own[series]
        # each series term summed over all folds is a Hurwitz zeta, so the
        # whole correction is exact up to the first omitted series term
        v_r, e_r = right.fold_sum(1.0 + (x + right.tau) / period, period, qs, rows)
        v_l, e_l = left.fold_sum(1.0 + (left.tau - x) / period, period, qs, rows)
        # the left side runs in -x with beta mirrored
        flip = np.array([[-1.0] if q in ODD_QUANTITIES else [1.0] for q in qs])
        if len(series) == len(quantities):
            vals -= v_r + flip * v_l
            bounds[:] = e_r + e_l
        else:
            vals[series] -= v_r + flip * v_l
            bounds[series] = e_r + e_l
    return bounds


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
    widened to 17 nodes.  The node spacing pi / t_pad does not depend on the
    FFT size, so ``_climb`` finds the size from the aliasing folds at the
    window's nodes alone: the smallest power of two (at least 1024) whose
    0.45 half-period reaches the window, doubled up to ``n_grid`` until the
    folds certify.  The table inverts once, on that size (``n_nodes``).
    Only a first size of ``n_grid`` cuts the window to 0.45 of its
    half-period.
    """

    def __init__(self, alpha: float, beta: float, window: tuple[float, float],
                 n_grid: int, abs_tol: float, quantity: str = "pdf",
                 tail_sides: tuple[TailSeriesSide, TailSeriesSide] | None = None):
        trunc_at, f_interp = _bounds(alpha, beta, quantity)
        t_cut = _choose_t_cut(trunc_at, abs_tol / 8.0)
        dx_target = (abs_tol / 4.0 * 384.0 / 5.0 / f_interp) ** 0.25
        t_pad = max(t_cut, np.pi / dx_target)
        dx = np.pi / t_pad
        first = _first_rung(t_pad, max(abs(window[0]), abs(window[1]), 1.0), n_grid)
        cap = int(0.45 * (first // 2))
        i_lo = max(-cap, math.ceil(window[0] / dx))
        i_hi = min(cap, math.floor(window[1] / dx))
        if i_hi - i_lo < 16:
            mid = (i_lo + i_hi) // 2
            i_lo, i_hi = mid - 8, mid + 8
        xg = np.arange(i_lo, i_hi + 1) * dx
        (n,), folds, (alias_err,) = _climb(alpha, beta, (quantity,), xg, None, [first], t_pad,
                                           n_grid, abs_tol, tail_sides)
        self.n_nodes = n = int(n)
        dt = 2.0 * t_pad / n
        t = (np.arange(n) - n // 2) * dt
        (ph,) = _transforms(t, StableParams(alpha, beta, 0.0, 1.0), (quantity,))
        vals = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(ph))).real * dt / (2.0 * np.pi)
        fg = vals[n // 2 + i_lo:n // 2 + i_hi + 1] + folds[0]

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

    def __call__(self, x):
        return self._spline(x)

    def covers(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (x >= self.x_lo) & (x <= self.x_hi)

    def antiderivative(self):
        return self._spline.antiderivative()


# Complex phases, 16 bytes each, that ``point_sums`` holds at once
_SUM_BLOCK = 2 ** 15


def point_sums(points, alpha: float, beta: float, quantities, n_grid: int, abs_tol: float,
               tail_sides: tuple[TailSeriesSide, TailSeriesSide] | None = None):
    """Each quantity at its own points by a table's trapezoid rule; [(values, errs)].

    ``points`` holds one array of points per quantity.  The rule is the one
    a ``FourierTable`` inverts with, summed at the points themselves: no FFT
    and no spline.  Since each quantity is real, the nodes t_j = j dt,
    j = 0 .. n/2, on [0, t_cut] serve.  By Poisson summation the rule's
    value at x is the quantity plus its folds at period 2 pi / dt, up to the
    truncation beyond t_cut.  So a quantity's certificate is a table's
    without its interpolation term: ``trunc_at(t_cut)``, the fold bound of
    ``_subtract_folds`` over its points, and a rounding term for each point.
    The density sums to its table's t_cut; the slope and the two shape
    partials, which a likelihood evaluation sums together, to the largest of
    their three tables' t_cut, so they share one rule (``_shared_rule``)
    and each sums the same nodes whichever others share the call.
    """
    shared = ("dpdf",) + PARTIALS  # the slope and the partials: the largest of their three
    needed = tuple(quantities) + (shared if set(quantities) - {"pdf"} else ())
    truncs = {q: _bounds(alpha, beta, q)[0] for q in dict.fromkeys(needed)}
    own = {q: _choose_t_cut(trunc, abs_tol / 8.0) for q, trunc in truncs.items()}
    cuts = [own[q] if q == "pdf" else max(own[p] for p in shared) for q in quantities]
    out = [None] * len(quantities)
    for t_cut in dict.fromkeys(cuts):
        rows = [i for i, cut in enumerate(cuts) if cut == t_cut]
        sums = _shared_rule([np.asarray(points[i], dtype=float) for i in rows], alpha, beta,
                            [quantities[i] for i in rows], [truncs[quantities[i]] for i in rows],
                            t_cut, n_grid, abs_tol, tail_sides)
        for i, got in zip(rows, sums):
            out[i] = got
    return out


def _shared_rule(points, alpha, beta, quantities, truncs, t_cut, n_grid, abs_tol, tail_sides):
    """[(values, errs)] of ``point_sums`` for quantities that share ``t_cut``.

    Each quantity finds its rung by ``_climb`` from the table's first rung
    for t_pad = t_cut and its own points.  The nodes of a rung are every
    other node of the next, so one phi on the last rung's nodes serves every
    rung, and the quantities of a rung share one block of phases.
    """
    if len(points) == 1:
        x, where, own = points[0], [slice(None)], None
    else:
        x, where = np.unique(np.concatenate(points), return_inverse=True)
        where = np.split(where, np.cumsum([p.size for p in points])[:-1])
        own = np.zeros((len(points), x.size), bool)
        for row, cols in zip(own, where):
            row[cols] = True
    first = [_first_rung(t_cut, max(float(np.max(np.abs(p))), 1.0), n_grid) for p in points]
    rungs, vals, alias_err = _climb(alpha, beta, quantities, x, own, first, t_cut, n_grid,
                                    abs_tol, tail_sides)
    top = int(rungs.max())
    t_top = np.arange(top // 2 + 1) * (2.0 * t_cut / top)
    transforms = _transforms(t_top, StableParams(alpha, beta, 0.0, 1.0), quantities)
    rounding = np.empty((len(points), x.size))
    for n in np.unique(rungs):
        rows = np.flatnonzero(rungs == n)
        cols = np.arange(x.size) if own is None else np.flatnonzero(own[rows].any(axis=0))
        dt = 2.0 * t_cut / n
        # node j = a * b_n + b, b < b_n: e^(-i t_j x) is e^(-i a b_n dt x) times
        # e^(-i b dt x), so a point takes a_n + b_n exponentials, not n/2 + 1
        b_n = math.isqrt(n // 2) + 1
        a_n = -(-(n // 2 + 1) // b_n)
        g = np.zeros((rows.size, a_n * b_n), dtype=complex)
        size = n // 2 + 1
        # weights dt / pi, half at t = 0, which pairs with no node at -t
        for weights, i in zip(g, rows):
            weights[:size] = transforms[i][::top // n] * (dt / np.pi)
        g[:, 0] *= 0.5
        blocks = g.reshape(-1, b_n).T  # (b_n, rows * a_n)
        step = max(1, _SUM_BLOCK // (a_n + b_n))
        for lo in range(0, cols.size, step):
            sl = cols[lo:lo + step]
            inner = np.exp(-1j * np.multiply.outer(x[sl], np.arange(b_n) * dt)) @ blocks
            outer = np.exp(-1j * np.multiply.outer(x[sl], np.arange(a_n) * (b_n * dt)))
            vals[np.ix_(rows, sl)] += np.einsum("pa,pqa->qp", outer,
                                                inner.reshape(sl.size, -1, a_n)).real
        # each of the two phases to a relative eps, cos and sin, their product
        # and the sums of at most n/2 + 1 terms, each of modulus at most |g_j|
        rounding[rows] = (8.0 * _EPS * (2.0 * t_cut * np.abs(x) + size + 8.0)
                          * np.sum(np.abs(g), axis=1)[:, None])
    err = np.array([trunc(t_cut) for trunc in truncs])[:, None] + alias_err[:, None] + rounding
    out = []
    for val, e, cols in zip(vals, err, where):
        val, e = val[cols], e[cols]
        bad = ~(np.isfinite(e) & np.isfinite(val))
        if bad.any():
            # overflowing aliasing folds certify nothing, as in a table
            val[bad], e[bad] = 0.0, np.inf
        out.append((val, e))
    return out


def quad_pdf_point(x: float, alpha: float, beta: float, quantity: str = "pdf"):
    """Adaptive-quadrature inversion at a single point; returns (value, err).

    The quantity is (1/pi) int_0^inf Re[g(t) e^{-itx}] dt with g the
    transform of ``_transforms``; splitting e^{-itx} into cos/sin weights lets
    the QUADPACK oscillatory rules handle large |x|.
    """
    psi = StableParams(alpha, beta, 0.0, 1.0)
    trunc_at, _ = _bounds(alpha, beta, quantity)
    t_cut = _choose_t_cut(trunc_at, 1e-14)

    def re_g(t):
        return _transforms(t, psi, (quantity,))[0].real

    def im_g(t):
        return _transforms(t, psi, (quantity,))[0].imag

    a1, e1 = integrate.quad(re_g, 0.0, t_cut, weight="cos", wvar=x,
                            limit=800, epsabs=1e-13, epsrel=1e-11)
    a2, e2 = integrate.quad(im_g, 0.0, t_cut, weight="sin", wvar=x,
                            limit=800, epsabs=1e-13, epsrel=1e-11)
    val = (a1 + a2) / np.pi
    err = (e1 + e2) / np.pi + trunc_at(t_cut)
    return val, 4.0 * err
