"""Certified evaluation engine for the standardized stable density.

A ``StandardDensity`` instance owns the series expansions, the lazily built
Fourier tables, and the CDF machinery for one (alpha, beta) pair.  It
evaluates four quantities at fixed x: the density ("pdf"), its slope
("dpdf") and the shape partials d f/d alpha ("dalpha") and d f/d beta
("dbeta").  Every strategy reports a certified absolute error; each point of
each quantity is finished by the first strategy in one fixed order that
certifies the requested tolerance (series, Fourier table, then per-point
adaptive quadrature for the points no table certifies; see
``_eval_signless``).

Engines are cached per (alpha, beta, accuracy); all evaluations on them are
read-only after construction apart from lazy table attachment (a
shape-partial table is replaced by a wider one when points fall outside it).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import interpolate, optimize

from ..errors import AccuracyNotReached
from .fourier import FourierTable, quad_pdf_point
from .params import DensityAccuracy, StableParams
from .series import CenterSeries, TailSeriesSide, skew_shift, tail_constant

_CHUNK = 16384
_PROBE_RADII = np.geomspace(0.02, 800.0, 140)
_PDF_FLOOR = 1e-300
# quantities odd in x at beta = 0, where evaluation runs on |x|
_ODD = ("dpdf", "dbeta")
# the shape partials, whose tables span only the points sent to them
_PARTIALS = ("dalpha", "dbeta")


class StandardDensity:
    """Density of S(alpha, beta, 0, 1) with certified absolute accuracy."""

    def __init__(self, alpha: float, beta: float, acc: DensityAccuracy):
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.acc = acc
        self.tol = acc.abs_tol
        self.tau = skew_shift(alpha, beta)
        kmax = acc.max_series_terms

        self.has_tail_series = not (alpha == 1.0 and beta != 0.0)
        self.right = TailSeriesSide(alpha, beta, kmax) if self.has_tail_series else None
        self.left = TailSeriesSide(alpha, -beta, kmax) if self.has_tail_series else None
        self.center = None
        if alpha > 1.0 or (alpha == 1.0 and beta == 0.0):
            self.center = CenterSeries(alpha, beta, kmax)
        # d tau/d(alpha, beta) for the shift term of the series partials (the
        # series run in y = x + tau); with no series, tables and quadrature
        # work at fixed x and need none
        series = self.center or self.right
        self._dtau = series.dtau if series is not None else {}

        self._tables: dict[str, FourierTable] = {}  # by quantity
        self._cdf_state = None
        self._onsets: dict[str, float] = {}

    # -- probes -----------------------------------------------------------

    @property
    def x_keep(self) -> float:
        """Halfwidth of the Fourier window; beyond it the series certify."""
        if not self.has_tail_series:
            return 64.0
        pads = [6.0]
        for kind in ("pdf", "sf"):
            onset = self._onset(kind)
            if np.isfinite(onset):
                pads.append(onset + abs(self.tau) + 1.0)
        return float(np.clip(max(pads), 6.0, 64.0))

    def _onset(self, kind: str) -> float:
        if kind not in self._onsets:
            self._onsets[kind] = self._probe_onset(kind) if self.has_tail_series else np.inf
        return self._onsets[kind]

    def _probe_onset(self, kind: str) -> float:
        """Smallest radius from which both tail sides certify the tolerance."""
        onset = 0.0
        for side in (self.right, self.left):
            fn = getattr(side, kind)
            _, err = fn(_PROBE_RADII, self.tol)
            ok = err <= self.tol
            if not ok.any():
                return np.inf
            idx = len(ok) - 1
            while idx > 0 and ok[idx - 1]:
                idx -= 1
            onset = max(onset, _PROBE_RADII[idx])
        return onset

    # Series term cap of the cheap first pass.  Both thresholds of the
    # finishing order are measured (2-CPU machine): without this pass a
    # likelihood call took 30.3 ms against 12.4 ms (median); without the
    # early table for more than 2048 points, a locked-dynamics i.i.d. Cauchy
    # fit at n = 10^4 took 87 s against 13.5 s.
    _STAGE1 = 40

    # -- lazy tables ------------------------------------------------------

    def _fft_table(self, quantity: str = "pdf", points=None) -> FourierTable:
        """Fourier table of one quantity, built on first use.

        The density and slope tables span [-x_keep, x_keep].  A shape-partial
        table spans the ``points`` sent to it, widened by 1 and cut to
        [-64, 64], and is rebuilt over the union when later points fall
        outside: the partial series stop certifying at their own onsets, and
        probing those would cost more than the table.  So a point served by
        a partial table may take its value from a wider table on a later
        call; both values lie within the certified error.  Every table is
        inverted on the smallest FFT that reaches its window and certifies
        its folds, at most ``acc.fft_grid_size`` nodes (see ``FourierTable``).
        """
        table = self._tables.get(quantity)
        if quantity not in _PARTIALS:
            window = (-self.x_keep, self.x_keep)
        else:
            lo = max(float(np.min(points)) - 1.0, -64.0)
            hi = min(float(np.max(points)) + 1.0, 64.0)
            if table is None or lo + 1.0 < table.x_lo or hi - 1.0 > table.x_hi:
                if table is not None:
                    lo, hi = min(lo, table.x_lo), max(hi, table.x_hi)
                table = None
                window = (lo, hi)
        if table is None:
            sides = (self.right, self.left) if self.has_tail_series else None
            table = FourierTable(self.alpha, self.beta, window, self.acc.fft_grid_size,
                                 self.tol, quantity=quantity, tail_sides=sides)
            self._tables[quantity] = table
        return table

    # -- pointwise evaluation ---------------------------------------------

    def _series(self, series, arg, quantity: str, kcap, left: bool = False):
        """(value, err) of one quantity at fixed x from one series.

        The series run in y = x + tau, and the tail's left side in r = -y
        with beta mirrored, so d/dx and d/d beta change sign there.  For a
        shape partial this is the series' own partial at fixed y, certified
        to half the tolerance; ``_eval_strategies`` adds the shift term.
        """
        sgn = -1.0 if left else 1.0
        if quantity == "pdf":
            return series.pdf(arg, self.tol, kcap)
        if quantity == "dpdf":
            v, e = series.dpdf(arg, self.tol, kcap)
            return sgn * v, e
        v, e = series.partial(arg, self.tol / 2.0, kcap, quantity)
        return (sgn * v if quantity == "dbeta" else v), e

    def _eval_strategies(self, x: np.ndarray, quantity: str, kcap=None, shift=None):
        """Best certified (value, err) per point across series strategies.

        Staged: a cheap low-term pass certifies the bulk of typical inputs,
        the full term budget is spent only on the points that remain.  For a
        shape partial, ``shift`` = (value, err) of the shift term
        tau_q * f'(x): at fixed x the partial is the series' partial at fixed
        y = x + tau plus that term, and its error counts against the
        tolerance, so a large tau_q (alpha near 1 with skew) leaves the point
        to the table.
        """
        val = np.zeros_like(x)
        err = np.full_like(x, np.inf)
        if quantity == "dbeta" and self.alpha == 1.0:
            return val, err  # tau = beta tan(alpha pi/2) has a pole at alpha = 1
        s_val, s_err = shift if shift is not None else (0.0, 0.0)
        target = self.tol - s_err
        y = x + self.tau
        ay = np.abs(y)
        tail_gate = ay >= (0.4 if self.alpha <= 1.0 else 1.2)
        center_gate = ay <= 80.0
        if self.has_tail_series:
            pos = y > 0.0
            for side_pos, side in ((True, self.right), (False, self.left)):
                m = (pos == side_pos) & tail_gate & (err > target)
                if not m.any():
                    continue
                v, e = self._series(side, ay[m], quantity, kcap, left=not side_pos)
                better = e < err[m]
                idx = np.flatnonzero(m)[better]
                val[idx], err[idx] = v[better], e[better]
        if self.center is not None:
            m = center_gate & (err > target)
            if m.any():
                v, e = self._series(self.center, y[m], quantity, kcap)
                better = e < err[m]
                idx = np.flatnonzero(m)[better]
                val[idx], err[idx] = v[better], e[better]
        return val + s_val, err + s_err

    def _apply_fft(self, x, val, err, table: FourierTable):
        m = (err > self.tol) & table.covers(x) & (table.err < err)
        if m.any():
            val[m] = table(x[m])
            err[m] = table.err

    def _eval(self, x, quantity: str, slope=None):
        """Certified (value, err) of one quantity, in chunks.

        A shape partial needs f'(x) for its shift term: ``slope`` = (f', err)
        at x if the caller has it, else it is evaluated here.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        val = np.empty_like(x)
        err = np.empty_like(x)
        dtau = self._dtau.get(quantity, 0.0)
        if dtau != 0.0 and slope is None:
            slope = self._eval(x, "dpdf")
        # at beta = 0 evaluate on |x| so symmetry holds exactly (the Fourier
        # grid is not symmetric about zero) and flip the odd quantities
        mirror = self.beta == 0.0
        for lo in range(0, x.size, _CHUNK):
            sl = slice(lo, lo + _CHUNK)
            shift = None
            if dtau != 0.0:
                fp = slope[0][sl] * np.sign(x[sl]) if mirror else slope[0][sl]
                shift = (dtau * fp, abs(dtau) * slope[1][sl])
            val[sl], err[sl] = self._eval_signless(np.abs(x[sl]) if mirror else x[sl],
                                                   quantity, shift)
            if mirror and quantity in _ODD:
                val[sl] *= np.sign(x[sl])
        return val, err

    def _eval_signless(self, x: np.ndarray, quantity: str, shift=None):
        """Certified (value, err) by the one finishing order.

        Each point not yet certified goes, in turn, to: the series capped at
        ``_STAGE1`` terms; the Fourier table, if it is already built or more
        than 2048 points remain; the full series budget; the table, built on
        first need; quadrature, for the points the table does not certify.
        The shape partials take the same order with their own tables, except
        that a partial table already built is not consulted before the full
        series, so a point the series certify gets the series value whatever
        was evaluated before (the fused likelihood path and its parts agree
        to 1e-12).  For f and f' that holds only until their table is built.
        """
        val, err = self._eval_strategies(x, quantity, self._STAGE1, shift)
        need = err > self.tol
        table = None if quantity in _PARTIALS else self._tables.get(quantity)
        if need.any() and (table is not None or int(need.sum()) > 2048):
            self._apply_fft(x, val, err, table or self._fft_table(quantity, x[need]))
            need = err > self.tol
        if need.any():
            m = np.flatnonzero(need)
            sub = None if shift is None else (shift[0][m], shift[1][m])
            v, e = self._eval_strategies(x[m], quantity, None, sub)
            better = e < err[m]
            val[m[better]], err[m[better]] = v[better], e[better]
            need = err > self.tol
        if need.any():
            self._apply_fft(x, val, err, self._fft_table(quantity, x[need]))
            need = err > self.tol
        for i in np.flatnonzero(need):
            v, e = quad_pdf_point(float(x[i]), self.alpha, self.beta, quantity)
            if e < err[i]:
                val[i], err[i] = v, e
        return val, err

    def pdf_with_err(self, x):
        """Density values and certified absolute error bounds, vectorized."""
        val, err = self._eval(x, "pdf")
        return np.maximum(val, 0.0, out=val), err

    def pdf(self, x):
        v, e = self.pdf_with_err(x)
        self._check(e)
        return v

    def dpdf_with_err(self, x):
        """Derivative values and certified absolute error bounds, vectorized."""
        return self._eval(x, "dpdf")

    def dpdf(self, x):
        v, e = self.dpdf_with_err(x)
        self._check(e)
        return v

    def partial_with_err(self, x, wrt: str, slope=None):
        """Shape partial d f/d alpha (wrt="alpha") or d f/d beta at fixed x.

        Values and certified absolute error bounds, vectorized.  At alpha = 2
        and |beta| = 1 these are the one-sided partials.  ``slope``, the
        (value, err) pair of ``dpdf_with_err(x)``, saves evaluating f' again.
        """
        if wrt not in ("alpha", "beta"):
            raise ValueError(f"wrt must be 'alpha' or 'beta', got {wrt!r}")
        return self._eval(x, "d" + wrt, slope)

    def logpdf(self, x):
        """log f with a floor guarding underflow in extreme tails."""
        v, _ = self.pdf_with_err(x)
        return np.log(np.maximum(v, _PDF_FLOOR))

    def _check(self, err):
        worst = float(np.max(err)) if err.size else 0.0
        if worst > self.tol:
            raise AccuracyNotReached(
                f"no strategy certified abs_tol={self.tol:g} for "
                f"alpha={self.alpha}, beta={self.beta} (worst bound {worst:g})",
                worst_error=worst)

    # -- distribution function --------------------------------------------

    def _build_cdf(self):
        if self._cdf_state is not None:
            return self._cdf_state
        tau = self.tau
        if self.has_tail_series:
            onset = self._onset("sf")
            a_r = max(2.0, onset - tau + 0.25)
            a_l = min(-2.0, -(onset + tau) - 0.25)
            f_al = self._sf_left(np.array([a_l]))[0][0]
            sf_ar, sf_err = self._sf_right(np.array([a_r]))
            sf_ar, sf_err = sf_ar[0], sf_err[0]
        else:
            a_r = self.x_keep - 1.0
            a_l = -a_r
            self._tail_grids = (self._build_tail_grid(a_r, +1),
                                self._build_tail_grid(-a_l, -1))
            sf_ar = float(self._tail_grids[0](np.log(a_r)))
            f_al = float(self._tail_grids[1](np.log(-a_l)))
            sf_err = 1e-6
        table = self._fft_table()
        if not np.isfinite(table.err):
            # no certified central mass: ppf would bracket a zero spline
            raise AccuracyNotReached(
                f"no Fourier table certified the cdf for alpha={self.alpha}, "
                f"beta={self.beta}", worst_error=float(table.err))
        anti = table.antiderivative()
        mass_int = float(anti(a_r) - anti(a_l))
        mismatch = abs(f_al + mass_int + sf_ar - 1.0)
        err = mismatch + sf_err + table.err * (a_r - a_l)
        self._cdf_state = dict(a_l=a_l, a_r=a_r, f_al=f_al, anti=anti,
                               sf_ar=sf_ar, err=err)
        return self._cdf_state

    def _build_tail_grid(self, r_from: float, side: int):
        """Quadrature-backed upper-tail mass on a log grid (no-series case)."""
        r_far = 1e6
        radii = np.geomspace(r_from * 0.98, r_far, 140)
        beta = self.beta if side > 0 else -self.beta
        pdf_vals = np.array([quad_pdf_point(r, self.alpha, beta)[0] for r in radii])
        # integrate f dr = f*r dlog(r) inward from the far end
        u = np.log(radii)
        g = pdf_vals * radii
        seg = 0.5 * (g[1:] + g[:-1]) * np.diff(u)
        sf = np.concatenate([[0.0], np.cumsum(seg[::-1])])[::-1]
        sf += tail_constant(self.alpha, beta, +1) / self.alpha * r_far ** (-self.alpha)
        return interpolate.PchipInterpolator(u, sf, extrapolate=True)

    def _eval_tail_grid(self, r, side: int):
        grid = self._tail_grids[0 if side > 0 else 1]
        r = np.maximum(np.asarray(r, dtype=float), 1e-12)
        out = grid(np.log(np.minimum(r, 1e6)))
        beyond = r > 1e6
        if beyond.any():
            beta = self.beta if side > 0 else -self.beta
            out[beyond] = (tail_constant(self.alpha, beta, +1) / self.alpha
                           * r[beyond] ** (-self.alpha))
        return np.clip(out, 0.0, 1.0)

    def _sf_right(self, x):
        """P[X > x] for x on the right of the shift point, via the series."""
        return self.right.sf(x + self.tau, self.tol)

    def _sf_left(self, x):
        """P[X <= x] for x on the far left: mirror-side upper tail."""
        return self.left.sf(-x - self.tau, self.tol)

    def cdf_with_err(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        st = self._build_cdf()
        val = np.empty_like(x)
        err = np.full_like(x, st["err"])
        mid = (x >= st["a_l"]) & (x <= st["a_r"])
        lo = x < st["a_l"]
        hi = x > st["a_r"]
        if mid.any():
            val[mid] = st["f_al"] + (st["anti"](x[mid]) - st["anti"](st["a_l"]))
        if lo.any():
            if self.has_tail_series:
                v, e = self._sf_left(x[lo])
                val[lo] = v
                err[lo] = e
            else:
                val[lo] = self._eval_tail_grid(-x[lo], side=-1)
                err[lo] = 1e-6
        if hi.any():
            if self.has_tail_series:
                v, e = self._sf_right(x[hi])
                val[hi] = 1.0 - v
                err[hi] = e
            else:
                val[hi] = 1.0 - self._eval_tail_grid(x[hi], side=+1)
                err[hi] = 1e-6
        return np.clip(val, 0.0, 1.0), err

    def cdf(self, x):
        v, e = self.cdf_with_err(x)
        # the certified cdf bound aggregates anchor closure, table error over
        # the central window and the mass-balance mismatch, so it is looser
        # than the pointwise density tolerance
        if float(np.max(e)) > max(256.0 * self.tol, 2e-5):
            raise AccuracyNotReached("cdf accuracy not certified",
                                     worst_error=float(np.max(e)))
        return v

    def ppf(self, p: float) -> float:
        """Quantile by bracketing plus Brent refinement on the CDF."""
        if not (0.0 < p < 1.0):
            raise ValueError("p must lie strictly between 0 and 1")
        st = self._build_cdf()

        def f(x):
            return float(self.cdf_with_err(np.array([x]))[0][0] - p)

        lo, hi = st["a_l"], st["a_r"]
        f_lo, f_hi = f(lo), f(hi)
        width = max(hi - lo, 1.0)
        while f_lo > 0.0:
            hi, f_hi = lo, f_lo
            lo -= width
            width *= 2.0
            f_lo = f(lo)
            if width > 1e12:
                return lo
        while f_hi < 0.0:
            lo, f_lo = hi, f_hi
            hi += width
            width *= 2.0
            f_hi = f(hi)
            if width > 1e12:
                return hi
        return float(optimize.brentq(f, lo, hi, xtol=1e-12, rtol=1e-15, maxiter=200))


@lru_cache(maxsize=64)
def _engine(alpha: float, beta: float, acc: DensityAccuracy) -> StandardDensity:
    return StandardDensity(alpha, beta, acc)


def get_engine(psi: StableParams, acc: DensityAccuracy) -> StandardDensity:
    """Cached standardized engine for psi's shape parameters."""
    return _engine(float(psi.alpha), float(psi.beta), acc)
