"""Certified evaluation engine for the standardized stable density.

A ``StandardDensity`` instance owns the series expansions, the lazily built
Fourier tables, and the CDF machinery for one (alpha, beta) pair.  It
evaluates any set of four quantities at fixed x: the density ("pdf"), its
slope ("dpdf") and the shape partials d f/d alpha ("dalpha") and d f/d beta
("dbeta").  Every strategy reports a certified absolute error; each point of
each quantity is finished by the first step of one fixed order that
certifies the requested tolerance: series passes shared by the quantities
asked for together, the tail's two sides in one pass (the left side is the
right's mirror, with the same envelopes and certificates); then one Fourier
point-sum call for the few points left of every quantity with no table yet,
else the Fourier table; then per-point adaptive quadrature for the points
neither certifies (see ``_eval_signless``).  Each series step takes only the
points within its reach: the radii, read from the series' own certificates,
beyond which (tail) or inside which (centre) a pass of its term cap can
certify the tolerance at all.

The distribution function has a finishing order of its own: each point
takes the tail series' mass of its side where that certifies the tolerance,
else F(-tau), in closed form, plus the centre series' integral of f where
that certifies (and its terms stay small enough that the sum's rounding
cannot defeat an inversion), or F(-tau) alone at the shift point itself,
else the anchored spline, the f table's integral between the tail masses
at two anchors, built on first need.  ``ppf`` inverts that same function,
by Newton's method on whichever series holds the root, so a quantile the
series certify probes no tail onset and builds no table; the level F(-tau)
is -tau with no search.

Engines are cached per (alpha, beta, accuracy); all evaluations on them are
read-only after construction apart from lazy table attachment (a
shape-partial table is replaced by a wider one when points fall outside it).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np
from scipy import integrate, interpolate, optimize

from ..errors import AccuracyNotReached
from .fourier import FourierTable, point_sums, quad_pdf_point
from .params import DensityAccuracy, StableParams
from .series import (ODD_QUANTITIES, PARTIALS, CenterSeries, TailSeriesSide, log_radius,
                     skew_shift, tail_constant)

_CHUNK = 16384
_PROBE_RADII = np.geomspace(0.02, 800.0, 140)
_LOG_PROBE_RADII = np.log(_PROBE_RADII)
# the quantities whose tail onsets set the Fourier window and the cdf anchors
_ONSET_KINDS = ("pdf", "sf")
# probe radii a tail onset's first pass evaluates, from its proven bound up
_SCAN_FIRST = 2
_PDF_FLOOR = 1e-300
_EPS = np.finfo(float).eps
# log r beyond which a tail quantile is not sought
_LOG_R_MAX = 690.0
# |x| that bounds x_keep, the partial tables and the points sent to point sums
_WINDOW_CAP = 64.0
_QUANTITIES = ("pdf", "dpdf") + PARTIALS  # f' before partials


def _as_points(x):
    """(points as a 1-d array, whether x was a scalar); a NaN point is a ValueError."""
    arr = np.asarray(x, dtype=float)
    pts = np.atleast_1d(arr)
    nan = np.flatnonzero(np.isnan(pts))
    if nan.size:
        raise ValueError(f"point {int(nan[0])} is NaN")
    return pts, arr.ndim == 0


def _keep_better(state, idx, new):
    """At the points ``idx`` of ``state``, take ``new`` = (values, errs) where its err is less."""
    val, err = new
    better = err < state[1][idx]
    state[0][idx[better]], state[1][idx[better]] = val[better], err[better]


def _pick(raw, target):
    """(value, err): the tail's where it meets ``target``, else the better of tail and centre."""
    take = (raw[1] > target) & (raw[3] < raw[1])
    return np.array([np.where(take, raw[2], raw[0]), np.where(take, raw[3], raw[1])])


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
        self.left = self.right.mirror if self.has_tail_series else None
        # the tail sides whose series remove the Fourier rules' folds
        self._sides = (self.right, self.left) if self.has_tail_series else None
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
        self._quantiles: dict[float, float] = {}  # solved p -> x, see ppf
        self._centre_grids: dict[int, tuple] = {}  # by side, see _centre_ppf
        # F at the shift point x = -tau (Nolan 1997, Thm 1), where the centre series starts
        self._f_shift = 0.5 - math.atan(self.tau) / (self.alpha * math.pi)
        # the certified cdf bound aggregates anchor closure, table error over
        # the central window and the mass-balance mismatch, so it is looser
        # than the pointwise density tolerance
        self.cdf_tol = max(256.0 * self.tol, 2e-5)

    # -- probes -----------------------------------------------------------

    @property
    def x_keep(self) -> float:
        """Halfwidth of the Fourier window; beyond it the series certify.

        The window reaches one past the tail onset of the density and of the
        tail mass (see ``_probe_onsets``), shifted by |tau|, within [6, 64].
        """
        if not self.has_tail_series:
            return _WINDOW_CAP
        pads = [6.0]
        for kind in _ONSET_KINDS:
            onset = self._onset(kind)
            if np.isfinite(onset):
                pads.append(onset + abs(self.tau) + 1.0)
        return float(np.clip(max(pads), 6.0, _WINDOW_CAP))

    def _onset(self, kind: str) -> float:
        if not self._onsets:
            self._onsets = self._probe_onsets()
        return self._onsets[kind]

    def _probe_onsets(self) -> dict[str, float]:
        """{kind: smallest probe radius from which both tail sides certify it}.

        For "pdf" and "sf", np.inf where a side certifies at no radius of
        ``_PROBE_RADII``.  A side certifies a kind at a radius where
        ``TailSeriesSide.evaluate`` reports err <= tol.  That holds from one
        radius on (monotone in r on all 7,400 rows of alpha 0.3 to 1.98 by
        beta -1 to 1, both sides, kinds and accuracies), so the onset is the
        first radius that certifies, and the scan for it starts at the proven
        bound below which none can.  Each pass sums the term budget of a pass
        over all the radii, because a convergent pass charges roundoff by its
        budget: so a radius certifies here as it would in that pass.  The
        two sides' errors are the same (the left is the right's mirror, with
        the same envelopes), so one side is scanned.  See ``_side_onsets``.
        """
        return self._side_onsets(self.right)

    def _side_onsets(self, side: TailSeriesSide) -> dict[str, float]:
        """{kind: first probe radius at which ``side`` certifies it, np.inf if none}.

        No probe radius below ``certifies_from`` certifies, so each kind scans
        up from the first radius at or past it (the onset on 3,602 of the
        3,604 rows with a tail series of 37 alphas by 25 betas on the ranges
        above, and the next radius on the rest).  For the kinds
        that share a term budget, one pass evaluates the first
        ``_SCAN_FIRST`` radii of each kind's scan, and a kind that none of
        them certifies takes every radius past them in a second pass.
        """
        n, tol = _PROBE_RADII.size, self.tol
        budgets = {kind: side.term_budget(kind, tol, _LOG_PROBE_RADII) for kind in _ONSET_KINDS}
        first = dict.fromkeys(_ONSET_KINDS, np.inf)
        for kcap in dict.fromkeys(budgets.values()):
            start = {kind: int(np.searchsorted(_LOG_PROBE_RADII,
                                               side.certifies_from(kind, tol, kcap)))
                     for kind in _ONSET_KINDS if budgets[kind] == kcap}
            for lo, hi in ((0, _SCAN_FIRST), (_SCAN_FIRST, n)):
                scans = {kind: np.arange(s + lo, min(s + hi, n))
                         for kind, s in start.items() if first[kind] == np.inf}
                if not scans:
                    break
                idx = np.unique(np.concatenate(list(scans.values())))
                err = side.evaluate(_PROBE_RADII[idx], list(scans), (tol,) * len(scans), kcap)[1]
                for (kind, scan), row in zip(scans.items(), err):
                    ok = scan[row[np.searchsorted(idx, scan)] <= tol]
                    if ok.size:
                        first[kind] = _PROBE_RADII[ok[0]]
        return first

    # Series term cap of the cheap first pass.  Both thresholds of the
    # finishing order are measured (2-CPU machine): without this pass a
    # likelihood call of the study model (n = 1000, S(1.6, 0) innovations,
    # 60 calls at alpha in [1.5, 1.7] on cold engines) took 17.5 ms against
    # 7.2 ms (median); without the early table for more than 2048 points, a
    # locked-dynamics i.i.d. Cauchy fit at n = 10^4 took 87 s against 13.5 s.
    _STAGE1 = 40
    # Most points a quantity with no table yet sends to Fourier point sums
    # rather than to a new table.  Measured (2-CPU machine) for f' and
    # d f/d alpha at points in |x| <= 6.5: at 256 points the sums took
    # 1.1-1.8 ms against 1.0-1.8 ms for a table at alpha 1.3 to 1.95
    # (FIT_ACCURACY), and 0.7-6.8 ms against 2.3-44 ms at alpha 0.6 to 1;
    # at 64 points, 0.3-3.7 ms against 1.0-42 ms.
    _POINT_SUMS = 256

    # -- lazy tables ------------------------------------------------------

    def _fft_table(self, quantity: str = "pdf", points=None) -> FourierTable:
        """Fourier table of one quantity, built on first use.

        The finishing order sends points here for a quantity that has a
        table already or more than ``_POINT_SUMS`` points left at |x| <= 64,
        and the points beyond 64; ``point_sums`` serves the rest.
        The density and slope tables span [-x_keep, x_keep].  A shape-partial
        table spans the ``points`` sent to it, widened by 1 and cut to
        [-64, 64], and is rebuilt over the union when later points fall
        outside: the partial series stop certifying at their own onsets, and
        probing those would cost more than the table.  So a point served by
        a partial table may take its value from a wider table on a later
        call; both values lie within the certified error.  Every table finds
        its FFT size from its folds alone, the smallest that reaches its
        window and certifies them, at most ``acc.fft_grid_size`` nodes, and
        inverts once, on that size (see ``FourierTable``).
        """
        table = self._tables.get(quantity)
        if quantity not in PARTIALS:
            window = (-self.x_keep, self.x_keep)
        else:
            lo = max(float(np.min(points)) - 1.0, -_WINDOW_CAP)
            hi = min(float(np.max(points)) + 1.0, _WINDOW_CAP)
            if table is None or lo + 1.0 < table.x_lo or hi - 1.0 > table.x_hi:
                if table is not None:
                    lo, hi = min(lo, table.x_lo), max(hi, table.x_hi)
                table = None
                window = (lo, hi)
        if table is None:
            table = FourierTable(self.alpha, self.beta, window, self.acc.fft_grid_size,
                                 self.tol, quantity=quantity, tail_sides=self._sides)
            self._tables[quantity] = table
        return table

    # -- pointwise evaluation ---------------------------------------------

    def _series_pass(self, y, quantities, kcap, need=None, target=None):
        """{quantity: rows (tail value, err, centre value, err)} at y = x + tau.

        One pass per piece: the tail on the points some quantity ``need``s
        (default all), both sides in one ``TailSeriesSide.evaluate`` (the
        left as the right's mirror, at y < 0), the centre where a quantity's
        tail error misses its ``target`` (default: everywhere).  Each piece
        takes only the points within its reach for ``kcap`` terms: the tail
        those at or beyond ``TailSeriesSide.certifies_from``, the same for
        both sides, and at stage 1 the centre those inside
        ``CenterSeries.certifies_within``; no pass of that cap certifies the
        tolerance elsewhere.  A tail pass with no cap sums, on each side, the
        term budget of every point of that side it would take without its
        reach, so each point it evaluates sums the same terms either way.
        Partials are the series' own at fixed y, to half the tolerance, and
        are gated at the whole of it, which the engine accepts once the shift
        term is added; d f/d beta has none at alpha = 1, a pole of
        tau = beta tan(alpha pi/2).
        """
        raw = np.zeros((len(quantities), 4, y.size))
        raw[:, 1] = raw[:, 3] = np.inf
        need = np.ones(raw[:, 0].shape, bool) if need is None else need.copy()
        if "dbeta" in quantities and self.alpha == 1.0:
            need[quantities.index("dbeta")] = False
        tols = [self.tol / 2.0 if q in PARTIALS else self.tol for q in quantities]
        ay = np.abs(y)
        logy = log_radius(y)
        if self.has_tail_series:
            tail = self.right
            fed = need & (ay >= (0.4 if self.alpha <= 1.0 else 1.2))
            reach = [tail.certifies_from(q, self.tol, kcap) for q in quantities]
            gate = fed & (logy >= np.array(reach)[:, None])
            m = gate.any(axis=0)
            if m.any():
                budgets = None
                if not kcap:
                    left = y < 0.0
                    budgets = [(tail.term_budget(q, tol, logy[row & ~left]),
                                tail.term_budget(q, tol, logy[row & left]))
                               for q, tol, row in zip(quantities, tols, fed)]
                raw[:, 0, m], raw[:, 1, m] = tail.evaluate(y[m], quantities, tols, kcap,
                                                           gate[:, m], budgets)
        if self.center is not None:
            gate = need & (ay <= 80.0) & (raw[:, 1] > (-np.inf if target is None else target))
            if kcap:
                reach = [self.center.certifies_within(q, self.tol, kcap) for q in quantities]
                gate &= logy <= np.array(reach)[:, None]
            m = gate.any(axis=0)
            if m.any():
                v, e = self.center.evaluate(y[m], quantities, tols, kcap, gate[:, m])
                raw[:, 2, m], raw[:, 3, m] = v, e
        return dict(zip(quantities, raw))

    def _apply_fft(self, x, val, err, table: FourierTable):
        m = (err > self.tol) & table.covers(x) & (table.err < err)
        if m.any():
            val[m] = table(x[m])
            err[m] = table.err

    def _eval_signless(self, x: np.ndarray, quantities):
        """Certified {quantity: (value, err)} by the one finishing order.

        Each point of each quantity not yet certified goes, in turn, to: the
        series capped at ``_STAGE1`` terms; the Fourier table, if it is
        already built or more than 2048 points remain; the full series
        budget; then Fourier point sums (``point_sums``: a table's trapezoid
        rule and certificate, less its interpolation term), one call for
        every quantity that has no table and at most ``_POINT_SUMS`` points
        at |x| <= 64 left, each at those points; then the table, built on
        first need, for the points left at |x| > 64 or of a quantity with a
        table or more points; quadrature, for the points these leave
        uncertified.  A series stage is one pass per piece for all
        quantities, and each piece takes only the points within its reach
        (see ``_series_pass``).  A partial table already built is not
        consulted before the full series, so a point the series certify gets
        the series value whatever was evaluated before; for f and f' that
        holds only until their table is built.  A partial at fixed x adds the
        shift term tau_q * f'(x), which needs the finished f', so partials
        finish last: their need of the full series and early table is judged
        on f' after stage 1, their need of point sums on f' after the full
        series, and where f' moves after that, their series values are
        taken again with the finished f' before any table.
        """
        wanted = set(quantities)
        if any(self._dtau.get(q, 0.0) for q in wanted):
            wanted.add("dpdf")
        qs = tuple(q for q in _QUANTITIES if q in wanted)
        y = x + self.tau
        first = self._series_pass(y, qs, self._STAGE1)
        state, shift, early = {}, {}, {}
        for q in qs:
            shift[q], state[q] = self._start(x, q, first[q], state, early)
        need = np.array([state[q][1] > self.tol for q in qs])
        target = self.tol - np.array([shift[q][1] for q in qs])
        full = self._series_pass(y, qs, None, need, target)
        for q in qs:
            if q in PARTIALS:  # again, with f' after the full series
                shift[q], state[q] = self._start(x, q, first[q], state, early)
            self._take_series(full[q], state[q], shift[q])
        # the points where f' moves after the full series
        moved = np.flatnonzero(state["dpdf"][1] > self.tol) if "dpdf" in state else ()
        summed = self._point_sums(x, qs, state)
        for q in qs:
            val, err = state[q]
            if q in PARTIALS and self._dtau.get(q, 0.0) and len(moved):
                # f' is finished: the series values with its shift term, where they certify
                fprime = {"dpdf": tuple(part[moved] for part in state["dpdf"])}
                sh, again = self._start(x[moved], q, first[q][:, moved], fprime, {q: None})
                self._take_series(full[q][:, moved], again, sh)
                take = (again[1] <= self.tol) | (again[1] < err[moved])
                val[moved[take]], err[moved[take]] = again[0][take], again[1][take]
            need = err > self.tol
            if q in summed:
                need &= ~summed[q]
            if need.any():
                self._apply_fft(x, val, err, self._fft_table(q, x[need]))
            left = np.flatnonzero(err > self.tol)
            if left.size:
                got = [quad_pdf_point(float(x[i]), self.alpha, self.beta, q) for i in left]
                _keep_better(state[q], left, np.transpose(got))
        return state

    def _take_series(self, raw, state, shift):
        """Give the uncertified points of ``state`` the full series' value plus ``shift``.

        A point takes it where its error is smaller.
        """
        m = np.flatnonzero(state[1] > self.tol)
        _keep_better(state, m, _pick(raw[:, m], self.tol - shift[1][m]) + shift[:, m])

    def _point_sums(self, x, qs, state):
        """{quantity: its points} served by one ``point_sums`` call, at most, for all of ``qs``.

        A quantity takes point sums at its uncertified points at |x| <= 64
        when it has no table and 1 to ``_POINT_SUMS`` of them; the call sums
        every such quantity at its own points, and each takes the values
        where they are better.
        """
        reach = np.abs(x) <= _WINDOW_CAP
        summed = {}
        for q in qs:
            near = (state[q][1] > self.tol) & reach
            if q not in self._tables and 0 < np.count_nonzero(near) <= self._POINT_SUMS:
                summed[q] = near
        if summed:
            sums = point_sums([x[near] for near in summed.values()], self.alpha, self.beta,
                              tuple(summed), self.acc.fft_grid_size, self.tol, self._sides)
            for (q, near), got in zip(summed.items(), sums):
                _keep_better(state[q], np.flatnonzero(near), got)
        return summed

    def _start(self, x, q, raw, state, early):
        """Shift term tau_q * f' and (value, err) after stage 1 and early table (kept)."""
        dtau = self._dtau.get(q, 0.0)
        shift = np.array([[dtau], [abs(dtau)]]) * state["dpdf"] if dtau else np.zeros((2, x.size))
        val, err = _pick(raw, self.tol - shift[1]) + shift
        if q not in early:
            table = None if q in PARTIALS else self._tables.get(q)
            need = err > self.tol
            if need.any() and (table is not None or int(need.sum()) > 2048):
                table = table or self._fft_table(q, x[need])
            early[q] = table
        if early[q] is not None:
            self._apply_fft(x, val, err, early[q])
        return shift, (val, err)

    def evaluate(self, x, quantities):
        """(value, err) of each of ``quantities`` at x, in one finishing order.

        Any of "pdf", "dpdf", "dalpha" and "dbeta"; returns an array of shape
        (len(quantities), 2, points).  At alpha = 2 and |beta| = 1 the shape
        partials are one-sided.  A NaN point is a ValueError.
        """
        unknown = set(quantities).difference(_QUANTITIES)
        if unknown:
            raise ValueError(f"unknown quantities {sorted(unknown)}; use one of {_QUANTITIES}")
        x = _as_points(x)[0]
        out = np.empty((len(quantities), 2, x.size))
        # at beta = 0 evaluate on |x| so symmetry holds exactly (the Fourier
        # grid is not symmetric about zero) and flip the odd quantities
        mirror = self.beta == 0.0
        for lo in range(0, x.size, _CHUNK):
            sl = slice(lo, lo + _CHUNK)
            got = self._eval_signless(np.abs(x[sl]) if mirror else x[sl], quantities)
            for i, q in enumerate(quantities):
                out[i, :, sl] = got[q]
                if mirror and q in ODD_QUANTITIES:
                    out[i, 0, sl] *= np.sign(x[sl])
        return out

    def pdf_with_err(self, x):
        """Density values and certified absolute error bounds, vectorized."""
        val, err = self.evaluate(x, ("pdf",))[0]
        return np.maximum(val, 0.0, out=val), err

    def pdf(self, x):
        v, e = self.pdf_with_err(x)
        self._check(e)
        return v

    def dpdf_with_err(self, x):
        """Derivative values and certified absolute error bounds, vectorized."""
        return tuple(self.evaluate(x, ("dpdf",))[0])

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

    def _series_cdf(self, x, density: bool = False, tail: bool = True, centre: bool = True):
        """(mass, err, f, piece) at x from the series alone, in the cdf's finishing order.

        ``mass`` is the probability on the point's side of the shift point
        x = -tau: P[X <= x] where y = x + tau < 0, else P[X > x].  Each
        point takes the first piece that certifies ``tol`` there: the tail
        series' "sf" of its side (piece 0), both sides in one pass; then
        F(-tau) plus the centre series' "cdf" (piece 1), F(-tau) being
        1/2 - arctan(tau) / (alpha pi) (Nolan 1997, Thm 1), which alone
        serves the shift point y = 0 where no series does (alpha <= 1).  A
        point that none certifies has piece -1, mass NaN and err inf.  Each
        piece takes only the points within its reach (``_cdf_reach``) and
        sums the term budget of a pass over all of it, so a point's value
        does not depend on the other points of the call.  With ``density``,
        ``f`` is the density from the same pass (NaN at a shift point no
        series serves), else None; ``tail`` or ``centre`` False leaves that
        piece out.  A call whose points one pass certifies returns that
        pass's rows as they are.
        """
        y = x + self.tau
        logy = log_radius(y)
        (floor, tail_budget), (reach, centre_budget) = self._cdf_reach
        todo = x == x  # no NaN point is in any piece
        mass = None  # the outputs, made once a piece leaves a point uncertified
        for k, series, quantity, budget, wanted in ((0, self.right, "sf", tail_budget, tail),
                                                    (1, self.center, "cdf", centre_budget, centre)):
            if not wanted:
                continue
            m = todo & (logy >= floor if k == 0 else logy <= reach)  # within the piece's reach
            if not m.any():
                continue
            every = mass is None and m.all()
            ym = y if every else y[m]
            qs = (quantity, "pdf")[:1 + density]
            got = series.evaluate(ym, qs, (self.tol,) * len(qs), budgets=[budget] * len(qs))
            val, e = got[0, 0], got[1, 0]
            if k:  # F(-tau) plus the centre's integral, charged F(-tau)'s rounding
                e += 4.0 * _EPS
                val = self._f_shift + val
                val = np.where(ym < 0.0, val, 1.0 - val)
            ok = e <= self.tol
            if every and ok.all():
                return val, e, got[0, 1] if density else None, np.full(x.size, k)
            if mass is None:
                mass, err, f, piece = self._cdf_unserved(x.size, density)
            idx = np.flatnonzero(m)[ok]
            mass[idx], err[idx], piece[idx] = val[ok], e[ok], k
            todo[idx] = False
            if density:
                f[idx] = got[0, 1, ok]
        if mass is None:
            mass, err, f, piece = self._cdf_unserved(x.size, density)
        if centre and self.has_tail_series:
            at = todo & (y == 0.0)  # the shift point: F(-tau), the upper mass 1 - F(-tau)
            mass[at], err[at], piece[at] = 1.0 - self._f_shift, 4.0 * _EPS, 1
        return mass, err, f, piece

    @staticmethod
    def _cdf_unserved(n, density):
        """(mass, err, f, piece) of ``_series_cdf`` at n points before any piece certifies one."""
        return (np.full(n, np.nan), np.full(n, np.inf), np.full(n, np.nan) if density else None,
                np.full(n, -1))

    @cached_property
    def _cdf_reach(self):
        """((floor, budget), (reach, budget)) of the tail's and the centre's cdf passes.

        The tail's "sf" certifies no point at log |y| below its floor
        (``certifies_from`` for a pass with no term cap).  The centre's
        "cdf" is taken up to the least of ``certifies_within`` and the
        radius inside which every term is at most ``_CDF_TERM_CAP``
        (``CenterSeries.terms_within``): beyond it the sum's rounding
        (measured at 10 to 70 eps times its largest term) would move F
        between neighbouring floats by more than ``_ROOT_GAP``, and no
        quantile could invert it to that.  A piece's budget, for its quantity
        and for "pdf" alike, is its quantity's for a pass over its whole
        reach (per side, in ``evaluate``'s form: both tail sides alike); None
        where there is no piece.
        """
        tail, centre = (np.inf, None), (-np.inf, None)
        if self.has_tail_series:
            floor = self.right.certifies_from("sf", self.tol, None)
            nk = self.right.term_budget("sf", self.tol, [floor, _LOG_R_MAX])
            tail = floor, (nk, nk)
        if self.center is not None:
            reach = min(self.center.certifies_within("cdf", self.tol, None),
                        self.center.terms_within("cdf", _CDF_TERM_CAP))
            centre = reach, (self.center.term_budget("cdf", self.tol, [reach]),)
        return tail, centre

    def _cdf_value(self, x, mass):
        """F(x) from the mass on x's side of the shift point (see ``_series_cdf``)."""
        return np.where(x + self.tau < 0.0, mass, 1.0 - mass)

    def _build_cdf(self):
        """The anchored spline: tail masses at anchors a_l < a_r, the f table's integral between.

        The anchors sit just past the tail onset of "sf".  Its certified
        error aggregates the anchors' closure, the table's error over the
        window and the mismatch of the two masses with the integral.
        """
        if self._cdf_state is not None:
            return self._cdf_state
        if self.has_tail_series:
            onset = self._onset("sf")
            a_r = max(2.0, onset - self.tau + 0.25)
            a_l = min(-2.0, -(onset + self.tau) - 0.25)
        else:
            a_r = self.x_keep - 1.0
            a_l = -a_r
            self._tail_grids = {side: self._build_tail_grid(a_r, side) for side in (+1, -1)}
        (f_al,), _ = self._tail_mass(np.array([a_l]), -1)
        (sf_ar,), (sf_err,) = self._tail_mass(np.array([a_r]), +1)
        table = self._fft_table()
        if not np.isfinite(table.err):
            # no certified central mass: ppf would bracket a zero spline
            raise AccuracyNotReached(
                f"no Fourier table certified the cdf for alpha={self.alpha}, "
                f"beta={self.beta}", worst_error=float(table.err))
        anti = table.antiderivative()
        anti_al = float(anti(a_l))
        # the central cdf at the spline's knots inside the anchors, for ppf
        knots = np.concatenate([[a_l], anti.x[(anti.x > a_l) & (anti.x < a_r)], [a_r]])
        knot_cdf = f_al + (anti(knots) - anti_al)
        mismatch = abs(knot_cdf[-1] + sf_ar - 1.0)
        err = mismatch + sf_err + table.err * (a_r - a_l)
        self._cdf_state = dict(a_l=a_l, a_r=a_r, f_al=f_al, anti=anti, anti_al=anti_al, err=err,
                               knots=knots, knot_cdf=knot_cdf)
        return self._cdf_state

    def _build_tail_grid(self, r_from: float, side: int):
        """Quadrature-backed upper-tail mass on a log grid (no-series case)."""
        r_far = 1e6
        radii = np.geomspace(r_from * 0.98, r_far, 140)
        beta = side * self.beta
        pdf_vals = np.array([quad_pdf_point(r, self.alpha, beta)[0] for r in radii])
        # integrate f dr = f*r dlog(r) inward from the far end, by Simpson's
        # rule (the trapezoid rule missed S(1, 0.5) at 63.5 by 3.2e-6)
        u = np.log(radii)
        sf = integrate.cumulative_simpson((pdf_vals * radii)[::-1], x=-u[::-1], initial=0.0)[::-1]
        sf += tail_constant(self.alpha, beta, +1) / self.alpha * r_far ** (-self.alpha)
        return interpolate.PchipInterpolator(u, sf, extrapolate=True)

    def _tail_mass(self, x, side: int, slope: bool = False):
        """(P[X > x], err) at side = +1, (P[X <= x], err) at side = -1, beyond the anchors.

        The side's tail series of the upper mass at r = side * (x + tau), or
        without series (alpha = 1, beta != 0) the quadrature grid in r =
        side * x, closed by the leading term beyond 1e6 and charged 1e-6.
        With ``slope``, the third entry is d log(mass)/d log r: -r f / mass
        from the same series pass, or the grid's PCHIP derivative (-alpha
        beyond 1e6).
        """
        if self.has_tail_series:
            series = self.right if side > 0 else self.left
            r = side * (x + self.tau)
            if not slope:
                return series.evaluate(r, ("sf",), (self.tol,))[:, 0]
            (mass, f), (err, _) = series.evaluate(r, ("sf", "pdf"), (self.tol, self.tol))
            with np.errstate(divide="ignore", invalid="ignore"):
                return mass, err, -r * f / mass
        r = side * x
        closure = tail_constant(self.alpha, side * self.beta, +1) / self.alpha * r ** (-self.alpha)
        grid, u = self._tail_grids[side], np.log(np.minimum(r, 1e6))
        mass = np.clip(np.where(r > 1e6, closure, grid(u)), 0.0, 1.0)
        if not slope:
            return mass, np.full(r.shape, 1e-6)
        with np.errstate(divide="ignore", invalid="ignore"):
            dlog = np.where(r > 1e6, -self.alpha, grid(u, 1) / mass)
        return mass, np.full(r.shape, 1e-6), dlog

    def _spline_cdf(self, x):
        """(F, err) of the anchored spline: tail masses beyond the anchors, the integral between."""
        st = self._build_cdf()
        val = np.full_like(x, np.nan)  # a NaN point is in no piece
        err = np.full_like(x, st["err"])
        mid = (x >= st["a_l"]) & (x <= st["a_r"])
        lo = x < st["a_l"]
        hi = x > st["a_r"]
        if mid.any():
            val[mid] = self._central_cdf(x[mid])
        if lo.any():
            val[lo], err[lo] = self._tail_mass(x[lo], -1)
        if hi.any():
            sf, err[hi] = self._tail_mass(x[hi], +1)
            val[hi] = 1.0 - sf
        return val, err

    def _central_cdf(self, x):
        """The cdf on [a_l, a_r]: the left anchor's mass plus the f spline's integral."""
        st = self._build_cdf()
        return st["f_al"] + (st["anti"](x) - st["anti_al"])

    def cdf_with_err(self, x):
        """(F(x), certified err) at each point, by the cdf's finishing order.

        A point takes the first of: the tail series' mass of its side where
        that certifies ``tol``, F(-tau) plus the centre series' integral of
        f where that does, F(-tau) at the shift point (``_series_cdf``), else
        the anchored spline (``_spline_cdf``), built on first need, with the
        spline's own certificate.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        mass, err, _, piece = self._series_cdf(x)
        val = self._cdf_value(x, mass)
        rest = piece < 0
        if rest.any():
            val[rest], err[rest] = self._spline_cdf(x[rest])
        return np.clip(val, 0.0, 1.0), err

    def cdf(self, x):
        v, e = self.cdf_with_err(x)
        if float(np.max(e)) > self.cdf_tol:
            raise AccuracyNotReached("cdf accuracy not certified",
                                     worst_error=float(np.max(e)))
        return v

    def ppf(self, p: float) -> float:
        """Quantile: the root of cdf(x) = p in the piece of ``cdf_with_err`` that holds it.

        The level F(-tau) is the shift point -tau, in closed form, for a law
        with a tail series.  Other levels try the pieces in the cdf's
        finishing order.  On the side of
        the shift point that holds p (p < F(-tau) or not), Newton's method
        runs on the tail series' log mass (``_tail_ppf``), then on the
        centre series' cdf (``_centre_ppf``), and a root counts only at a
        point where its series is the piece ``cdf_with_err`` takes.  Else
        the anchored spline is inverted (``_spline_ppf``): Brent's method in
        one of its knot cells, or the same tail Newton on its masses beyond
        the anchors.  Only that last route builds a Fourier table, and it
        raises AccuracyNotReached where the spline's certified error exceeds
        ``cdf_tol``, the bound ``cdf`` holds: there the root says nothing.
        The engine keeps the first ``_QUANTILES_KEPT`` levels it solves, so
        a repeated p costs a lookup and returns the same float.
        """
        if not (0.0 < p < 1.0):
            raise ValueError("p must lie strictly between 0 and 1")
        x = self._quantiles.get(p)
        if x is None:
            x = self._solve_ppf(p)
            if len(self._quantiles) < self._QUANTILES_KEPT:
                self._quantiles[p] = x
        return x

    # distinct quantile levels an engine keeps
    _QUANTILES_KEPT = 32

    def _solve_ppf(self, p: float) -> float:
        """One quantile by the pieces in order: tail series, centre series, anchored spline.

        The tail is skipped where the centre's first pass already brackets
        the root short of the tail's floor, where the tail certifies nothing.
        """
        if p == self._f_shift and self.has_tail_series:
            return 0.0 - self.tau  # the shift point, F known in closed form (+0 at tau = 0)
        side = -1 if p < self._f_shift else +1
        floor = self._cdf_reach[0][0]
        tail = self.has_tail_series
        if self.center is not None:
            t, _, cdf, _, ok = self._centre_grid(side)
            below = np.flatnonzero(ok & (side * (p - cdf) < 0.0))
            tail &= not (below.size and math.log(t[below[0]]) < floor)
        x = None
        if tail:
            x = self._tail_ppf(p if side < 0 else 1.0 - p, side, floor, certified=True)
        if x is None and self.center is not None:
            x = self._centre_ppf(p, side)
        return self._spline_ppf(p) if x is None else x

    def _spline_ppf(self, p: float) -> float:
        """The root of the anchored spline's cdf, beyond its anchors or in one of its knot cells."""
        st = self._build_cdf()
        if st["err"] > self.cdf_tol:
            raise AccuracyNotReached(
                f"no certified cdf to invert for alpha={self.alpha}, beta={self.beta}",
                worst_error=float(st["err"]))
        knots, knot_cdf = st["knots"], st["knot_cdf"]
        shift = self.tau if self.has_tail_series else 0.0
        for side, beyond, mass, anchor in ((-1, p < knot_cdf[0], p, st["a_l"]),
                                           (+1, p > knot_cdf[-1], 1.0 - p, st["a_r"])):
            if beyond:
                x = self._tail_ppf(mass, side, math.log(side * (anchor + shift)), certified=False)
                if x is None:
                    raise AccuracyNotReached(
                        f"no tail quantile at mass {mass:g} for alpha={self.alpha}, "
                        f"beta={self.beta}", worst_error=float(st["err"]))
                return x
        # the running maximum keeps the cells in order if rounding breaks it:
        # then knot_cdf[i - 1] < p <= knot_cdf[i] (or p = knot_cdf[0])
        i = max(int(np.searchsorted(np.maximum.accumulate(knot_cdf), p)), 1)
        return float(optimize.brentq(lambda x: float(self._central_cdf(x)) - p, knots[i - 1],
                                     knots[i], xtol=1e-12, rtol=1e-15, maxiter=200))

    def _tail_ppf(self, mass: float, side: int, floor: float, certified: bool):
        """x on ``side`` whose tail mass is ``mass``, or None where none is found.

        Newton's method (``_outward_root``) on g = log(tail mass / mass)
        against u = log r, r = side * (x + tau), where g is near linear (the
        tail is near a power of r).  The start is the tail series' leading
        term, mass = K r^-alpha / alpha with K = ``tail_constant``: one pass
        over ``floor`` and the log radii ``_TAIL_GRID`` from u0 - 1, or from
        the floor if that is higher, cut at 690, brackets the root.  With ``certified`` the masses are the tail piece of
        ``_series_cdf``, ``floor`` its reach, and a point it does not
        certify ends the search.  Else they are ``_tail_mass``, the
        spline's, from its anchor at ``floor``; where the mass there is
        already below ``mass`` the cdf steps over p at the anchor, which is
        returned.
        """
        shift = self.tau if self.has_tail_series else 0.0
        if self.has_tail_series:  # tail_constant, read off the side's own series
            k = (self.right if side > 0 else self.left).constant
        else:
            k = tail_constant(self.alpha, side * self.beta, +1)
        u0 = math.log(k / (self.alpha * mass)) / self.alpha if k > 0.0 else floor
        logmass = math.log(mass)

        def gap(u, density=True):
            x = side * np.exp(u) - shift
            if certified:
                m, _, f, piece = self._series_cdf(x, density, centre=False)
                ok = piece == 0
                with np.errstate(divide="ignore", invalid="ignore"):
                    slope = -np.abs(x + shift) * f / m if density else None
            else:
                (m, _, slope), ok = self._tail_mass(x, side, slope=True), np.ones(x.size, bool)
            with np.errstate(divide="ignore"):
                g = np.log(np.maximum(m, 0.0)) - logmass
            return x, g, slope, ok

        # the sorted distinct radii: the grid up to its first point at the cap, after the floor
        u = np.minimum(max(u0 - 1.0, floor) + _TAIL_GRID, _LOG_R_MAX)
        u = u[:int(np.searchsorted(u, _LOG_R_MAX)) + 1]
        if floor < u[0]:
            u = np.concatenate(([floor], u))
        grid = gap(u)
        if not certified and grid[1][0] <= 0.0:
            return float(grid[0][0])  # the cdf steps over p at the anchor
        return _outward_root(gap, (u, *grid), _LOG_R_MAX)

    def _centre_grid(self, side: int):
        """(t, x, F, -f, certified) of one centre pass over ``_CENTRE_GRID`` points y = side * t.

        t spans [0, R], R the centre cdf's reach (``_cdf_reach``); kept per
        side, as every quantile on that side starts from it.
        """
        grid = self._centre_grids.get(side)
        if grid is None:
            t = np.linspace(0.0, math.exp(self._cdf_reach[1][0]), _CENTRE_GRID)
            x = side * t - self.tau
            mass, _, f, piece = self._series_cdf(x, density=True, tail=False)
            grid = self._centre_grids[side] = t, x, self._cdf_value(x, mass), -f, piece > 0
        return grid

    def _centre_ppf(self, p: float, side: int):
        """x on ``side`` of the shift point where the series' cdf is p, or None.

        Newton's method (``_outward_root``) on g = side * (p - F) against
        t = side * y = |y|, started from the side's centre pass
        (``_centre_grid``).  Each step evaluates ``_series_cdf`` with both
        pieces, so the root is the value ``cdf_with_err`` returns there.
        """
        def gap(t, density=True):
            x = side * t - self.tau
            mass, _, f, piece = self._series_cdf(x, density)
            return x, side * (p - self._cdf_value(x, mass)), -f if density else None, piece >= 0

        t, x, cdf, slope, ok = self._centre_grid(side)
        return _outward_root(gap, (t, x, side * (p - cdf), slope, ok), math.inf)


# log radii of a tail quantile's first pass, from one below the leading term's
_TAIL_GRID = np.linspace(0.0, 2.0, 17)
# points of a side's centre pass, over [0, R]
_CENTRE_GRID = 49
# Newton steps of a quantile before it gives up
_ROOT_STEPS = 60
# |g| at which a quantile's Newton search stops: the centre's F within it of
# p, the tail mass within it relatively, so cdf(ppf(p)) == p to 1e-12
_ROOT_GAP = 5e-13
# largest term of the centre's "cdf" where the cdf takes it (see
# StandardDensity._cdf_reach): its rounding stays near _ROOT_GAP
_CDF_TERM_CAP = 32.0


class _HermiteModel:
    """The Hermite interpolant of values and slopes at a few grid points, in Newton form.

    Each node is taken twice (value and slope), so n nodes give a
    polynomial of degree 2n - 1; ``lo`` and ``hi`` are the outer nodes.
    """

    def __init__(self, ts, gs, ss):
        z = [float(v) for v in ts for _ in (0, 1)]
        d = [float(v) for v in gs for _ in (0, 1)]
        coef = [d[0]]
        for lag in range(1, len(z)):  # divided differences of order lag, in place from the top
            for k in range(len(z) - 1, lag - 1, -1):
                if lag == 1 and k % 2:  # a node taken twice: its slope
                    d[k] = float(ss[k // 2])
                else:
                    d[k] = (d[k] - d[k - 1]) / (z[k] - z[k - lag])
            coef.append(d[lag])
        self.z, self.coef, self.lo, self.hi = z, coef, z[0], z[-1]

    def __call__(self, t):
        """(value, slope) at t, in Python floats (the same doubles numpy's scalars would give)."""
        t, val, der = float(t), self.coef[-1], 0.0
        for zk, ck in zip(self.z[-2::-1], self.coef[-2::-1]):
            der = der * (t - zk) + val
            val = val * (t - zk) + ck
        return val, der

    def root(self, lo, hi):
        """Its root in [lo, hi], where it falls through zero, by Newton kept in the cell."""
        lo, hi = float(lo), float(hi)
        t = lo
        for _ in range(60):
            val, der = self(t)
            if val > 0.0:
                lo = t
            else:
                hi = t
            nxt = t - val / der if der < 0.0 else math.nan
            if not lo <= nxt <= hi:
                nxt = 0.5 * (lo + hi)
            if abs(nxt - t) <= 4.0 * _EPS * max(abs(t), 1.0):
                return nxt
            t = nxt
        return t


def _hermite_model(grid, run, needed):
    """The ``_HermiteModel`` of the certified grid points of ``run`` with finite slopes, or None.

    None unless every point of ``needed`` is among them.
    """
    t, _, g, slope, ok = grid
    nodes = [k for k in run if 0 <= k < t.size and ok[k] and math.isfinite(slope[k])]
    if not set(needed).issubset(nodes):
        return None
    return _HermiteModel(t[nodes], g[nodes], slope[nodes])


def _outward_root(evaluate, grid, top):
    """The evaluated x where g, falling in t, crosses zero; None where no certified root is found.

    ``evaluate(t, density)`` gives (x, g, dg/dt or None without
    ``density``, certified) at the points t, and ``grid`` is (t, x, g,
    dg/dt, certified) of one pass over increasing t.  A certified grid
    point with g = 0 is the root.  The last certified grid point above zero
    and the first certified one past it below zero bracket the root; the
    Hermite interpolant of the values and slopes of the certified run of
    grid points around that cell (up to one more each side) gives the
    start, and its slope serves each step inside the run, whose points are
    then evaluated without the density.  With none below, the start is a
    Newton step from the last point above.  With none above, the root can
    only lie between the first certified point, if it is below zero and not
    the grid's first, and the point before: the start is the root there of
    the interpolant of the first certified points, or a Newton step from the
    first, and the steps must stay in that cell until a point above is
    found.  Newton's method then evaluates one point per step: a step that
    leaves the bracket bisects it, or with no upper end yet moves one unit
    further than the last point above lies from the grid's first, and t
    stays at most ``top``.  It stops at a certified point whose |g| <= ``_ROOT_GAP``
    or whose Newton step is within rounding of t, and returns that point's
    x.  It gives up at a point not certified, at ``top`` with g still above
    zero, or after ``_ROOT_STEPS`` steps.
    """
    t, xs, g, slope, ok = grid
    zero = np.flatnonzero(ok & (g == 0.0))
    if zero.size:
        return float(xs[zero[0]])
    above = np.flatnonzero(ok & (g > 0.0))
    i = above[-1] if above.size else -1
    below = np.flatnonzero(ok[i + 1:] & (g[i + 1:] < 0.0))
    j = i + 1 + below[0] if below.size else None
    model, above = None, i >= 0
    if above and j is not None:
        lo, hi = t[i], t[j]
        model = _hermite_model(grid, (i - 1, i, j, j + 1) if j == i + 1 else (i, j), (i, j))
        nxt = model.root(lo, hi) if model else lo + (hi - lo) * g[i] / (g[i] - g[j])
    elif above:
        lo, hi = t[i], math.inf
        nxt = lo - g[i] / slope[i] if slope[i] < 0.0 else math.nan
    elif j is not None and j > 0:  # the root may lie just before the first certified point
        lo, hi = t[j - 1], t[j]
        outer = _hermite_model(grid, (j, j + 1, j + 2), (j, j + 1))
        if outer and outer(lo)[0] > 0.0:  # taken one cell inward
            nxt = outer.root(lo, hi)
        else:
            nxt = hi - g[j] / slope[j] if slope[j] < 0.0 else math.nan
    else:
        return None
    for _ in range(_ROOT_STEPS):
        if not lo < nxt < hi:
            if not above:  # no certified point above: only a Newton step goes on
                return None
            nxt = 0.5 * (lo + hi) if hi < math.inf else lo + 1.0 + (lo - t[0])
        nxt = min(nxt, top)
        modelled = model is not None and model.lo <= nxt <= model.hi
        (x,), (gk,), sk, (okk,) = evaluate(np.array([nxt]), not modelled)
        if not okk:
            return None
        sk = model(nxt)[1] if modelled else sk[0]
        step = -gk / sk if sk < 0.0 else math.nan
        if abs(gk) <= _ROOT_GAP or abs(step) <= 4.0 * _EPS * abs(nxt):
            return float(x)
        if gk > 0.0:
            if nxt >= top:
                return None
            lo, above = nxt, True
        else:
            hi = nxt
        nxt += step
    return None


@lru_cache(maxsize=64)
def _engine(alpha: float, beta: float, acc: DensityAccuracy) -> StandardDensity:
    return StandardDensity(alpha, beta, acc)


def get_engine(psi: StableParams, acc: DensityAccuracy) -> StandardDensity:
    """Cached standardized engine for psi's shape parameters."""
    return _engine(float(psi.alpha), float(psi.beta), acc)
