"""Series expansions of the standardized stable density.

Two expansions are used, both written in the shifted variable y = x + tau
with tau = beta * tan(alpha*pi/2):

* a tail expansion in inverse powers |y|^(-k*alpha-1), convergent for
  alpha <= 1 and asymptotic (truncated at the minimal-magnitude term) for
  alpha > 1; it is valid as printed on the side y > 0, the other side is
  obtained from the parity f(x, alpha, beta) = f(-x, alpha, -beta): the
  side's ``mirror``, the series at -beta, whose coefficients differ only in
  their signs, so the two sides share every envelope and certificate;
* a Taylor expansion in powers y^k around the shift point, convergent for
  alpha > 1 (and for alpha = 1, beta = 0 inside |y| < 1).

Every evaluation returns the value together with a certified absolute error
bound combining the truncation remainder and an estimate of the cancellation
roundoff; callers dispatch on the bound.  The coefficients were validated
against adaptive quadrature of the Fourier inversion integral, which fixed
the cross-side phase rule and a missing (1 + tau^2)^(-(k+1)/(2*alpha))
modulus factor in the Taylor coefficients.

Both expansions also give the shape partials d/d(alpha) and d/d(beta) at
fixed y, term by term: each term is a coefficient times a power of the
argument, and the coefficient's partials bring in digamma factors, the
log(1 + tau^2) modulus and arctan(tau) phase factors, and (tail) a -k*log(r)
factor from the power.  The partials are certified like the values, with
envelopes scaled by the magnitudes of the factors on the sine and cosine
parts.  The engine adds the shift term tau_q * f'(x) that moving y = x + tau
brings.

Each series term is stated once, as a quantity's ``_spec``: a log factor and
a sign per term, a power offset, and (tail partial in alpha) a log|y| slope.
One evaluator, ``_Expansion.evaluate``, serves both expansions.  A pass
builds one power matrix, exp(log coefficient_k + step * k * log|z|) over
the norm for its terms and points (``_power_matrix``), and every quantity
asked for reads its terms off it: a weight row (sign times factors)
contracted column by column, with the centre's odd powers signed at y < 0
by weight rows with those signs, its f' term k read off row k - 1 and its
cdf term k off row k times y, the tail's offset a power of r per point,
and the alpha partial's log r slope a second row times log r.  A tail pass
takes both sides, the mirror's points as y < 0: one matrix and one
certificate, each side's columns contracted with its own sign rows, and
each side's term budget its own points' need; a pass with every point on
the mirror's side is the mirror's own pass.  A pass with no cap sums an
asymptotic quantity to no row past the least envelope of its farthest
point (``_least_cut``).  A convergent certificate starts at the first
term whose envelope is small enough and whose ratio bound contracts; for
each term that holds on one side of one radius (``_cut``), so the first
such term of every point is one search on the running maximum of those
radii.  A pass accepts a term cap, so dispatchers can run a cheap first
pass and re-evaluate only the points that failed to certify.  From the
same radii each expansion states the radius beyond which (tail,
``certifies_from``) or inside which (centre, ``certifies_within``) a pass
of a given cap can certify a tolerance at all.  The tail's ``fold_sum``, which removes aliasing folds
from the Fourier rules, sums the same specs over a lattice, for several
quantities at once: each term's lattice sum is a Hurwitz zeta from one
``hurwitz_zeta`` call on the union of their rows, which returns zeta and
-d zeta/d s with their bounds from one direct sum and an Euler-Maclaurin
tail.

What depends on the series and a quantity alone is kept on the series,
so that a pass pays for its points and not for its set-up: per quantity
(``_plan``), the spec, its layout, its sign rows over every term (as
columns), the centre's sign rows flipped for y < 0 and the contraction
radii of a log r slope, and (``_magnitudes``, shared by a tail side and
its mirror) the envelope rows that ``np.exp`` gives; per (quantity, tol),
the running maxima of the per-term radii (``_cut``); per (quantity, tol,
cap), the reach bounds.  Each entry is a pure function of its key, and a
pass reads the first m entries of a cached row, a view whose entries are
the ones it would compute for itself (every entry is a function of its own
term), and forms its value rows as the same products of sign and
magnitude, so every value and error is the same, bit for bit, on a fresh
series and on one that has served other passes.  No power matrix and no
per-point array is kept.
"""

from __future__ import annotations

import copy
import math
from functools import cached_property

import numpy as np
from scipy import special

_EPS = np.finfo(float).eps
# Remainder safety multipliers, calibrated against the quadrature oracle.
_ASYM_SAFETY = 8.0
_ROUNDOFF_SAFETY = 8.0
_RATIO_CAP = 0.95
_LOG_RATIO_CAP = float(np.log(_RATIO_CAP))
# Tail-series terms that FFT aliasing removal sums over all folds.
_NEAR_FOLDS = 4
# Lattice terms ``hurwitz_zeta`` sums directly before its Euler-Maclaurin
# tail, and that tail's corrections B_2j / (2j)! for B2, B4, B6 and B8.
_ZETA_DIRECT = 8
_LATTICE = np.arange(_ZETA_DIRECT + 1.0)[:, None]
_EM_CORRECTIONS = np.array([1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0])
# Power matrix entries are clipped to exp(+-600): flooring only loosens a
# bound, and a weight down to e^-100 times an entry stays out of the
# subnormal range, where arithmetic takes a path many times slower.
_LOG_FLOOR = -600.0
# A power matrix column whose largest term is below exp(_LOG_LIFT) is held
# relative to it, so the floor costs it no term within exp(_LOG_FLOOR -
# _LOG_LIFT) of its largest, and far tail masses keep their digits.
_LOG_LIFT = -300.0
# Margin, in log radius, by which a reach bound is widened so that rounding
# in the envelopes cannot certify a point the bound leaves out.
_REACH_SLACK = 1e-9
# Quantities odd under the parity f(x, alpha, beta) = f(-x, alpha, -beta):
# the slope and the beta partial flip sign between the two tail sides.
ODD_QUANTITIES = ("dpdf", "dbeta")
# the shape partials d f/d alpha and d f/d beta
PARTIALS = ("dalpha", "dbeta")


def skew_shift(alpha: float, beta: float) -> float:
    """Shift tau = beta * tan(alpha*pi/2); 0 at beta = 0 regardless of alpha."""
    if beta == 0.0:
        return 0.0
    return beta * np.tan(np.pi * alpha / 2.0)


def shift_partials(alpha: float, beta: float) -> dict:
    """d tau/d alpha and d tau/d beta of tau = beta tan(alpha pi/2), by quantity."""
    return {"dalpha": beta * (np.pi / 2.0) / np.cos(np.pi * alpha / 2.0) ** 2,
            "dbeta": np.tan(np.pi * alpha / 2.0)}


def log_radius(z):
    """log|z|, with -745 (below log of the least subnormal) at z = 0."""
    az = np.abs(z)
    positive = az > 0.0
    if positive.all():
        return np.log(az)
    return np.where(positive, np.log(np.where(positive, az, 1.0)), -745.0)


def _contract(rows, powers):
    """sum_k rows[k, n] * powers[k, n] for each column n, accumulated term by term.

    ``rows`` holds one weight row per column, or a single column of weights
    that every column shares.  einsum runs the columns as its inner loop, so
    every column takes the same operations in the same order whatever
    columns share the call, and a point's value does not depend on the batch
    it is evaluated in, nor on whether its weights are shared.  A lone
    column would be reduced in another order, so it is accumulated here.
    No BLAS product is used: gemv rounds a column by its neighbours.
    """
    if powers.shape[1] == 1:
        return np.cumsum(rows[:, 0] * powers[:, 0])[-1:]
    if rows.shape[1] == 1:
        return np.einsum("k,kn->n", rows[:, 0], powers)
    return np.einsum("kn,kn->n", rows, powers)


def _certified_sum(signed, rows, env, logz, found, q, nterms):
    """Truncated sum of a convergent series with a certified error, per column.

    Term k of column n is rows[0][k, n] * signed[k, n], plus rows[1][k, n]
    * signed[k, n] * logz_n where ``rows`` = (row, slope) has a second entry
    (each of one column shared by all, or one per column), and ``env`` (k,
    points) holds the terms' envelopes.  The first ``nterms`` terms are
    summed (one count, or one per column, whose rows past it weigh -0.0)
    and the rest bounded geometrically from the last one by the ratio
    bound q < 1 of the first term below tol/_ASYM_SAFETY whose ratio
    contracts; a column where no term before the cap is such (``found``
    False) certifies nothing.  Summing past the point where the tolerance
    is met costs nothing, keeps the value from jumping when the parameters
    move that point, and leaves f' an error well below the tolerance: the
    shape partials' shift term tau_q * f' carries |tau_q| times that error,
    and with stops at the first certifying term it rarely certified (the
    i.i.d. Cauchy fit of the test suite, alpha near 1, took 379 s against
    23 s on a 2-CPU machine).  Roundoff is charged on the largest envelope
    summed, times the number of terms (at least 8).  Returns (value,
    remainder + roundoff); ``env`` is overwritten.
    """
    last = env[-1]
    if isinstance(nterms, np.ndarray):  # one count per column: the rows past it are none
        last = env[nterms - 1, np.arange(env.shape[1])]
        env[np.arange(env.shape[0])[:, None] >= nterms] = 0.0
    remainder = np.where(found, last * q / (1.0 - q) + last, np.inf)
    maxenv = env.max(axis=0)
    value = _contract(rows[0], signed)
    if len(rows) > 1:
        value += logz * _contract(rows[1], signed)
    roundoff = _ROUNDOFF_SAFETY * _EPS * maxenv * np.maximum(nterms, 8)
    return value, remainder + roundoff


def _truncated_sum(signed, rows, env, logz, kstop):
    """Asymptotic series summed to its least envelope with a certified error, per column.

    Term k of column n is rows[0][k, n] * signed[k, n], plus rows[1][k, n]
    * signed[k, n] * logz_n where ``rows`` = (row, slope) has a second entry
    (each of one column shared by all, or one per column), and ``env`` (k,
    points) holds the terms' envelopes.  Each column is summed term by term
    up to its ``kstop`` (optimal truncation), as ``_contract`` sums, and
    charged _ASYM_SAFETY times the envelope there, plus the roundoff of
    ``_certified_sum`` on the largest envelope summed times the number of
    terms (at least 8).  Returns (value, remainder + roundoff); ``env`` is
    overwritten.
    """
    last = int(kstop.max()) + 1  # no row past the last cut is read
    env, signed = env[:last], signed[:last]
    cut = kstop, np.arange(env.shape[1])
    remainder = _ASYM_SAFETY * env[cut]
    maxenv = np.maximum.accumulate(env, axis=0, out=env)[cut]
    terms = rows[0][:last] * signed
    value = terms.cumsum(axis=0, out=terms)[cut]
    if len(rows) > 1:
        value += logz * (rows[1][:last] * signed).cumsum(axis=0)[cut]
    roundoff = _ROUNDOFF_SAFETY * _EPS * maxenv * np.maximum(kstop + 1, 8)
    return value, remainder + roundoff


def _env_reach(logc, power, limit):
    """Per term, the greatest v with logc + power * v <= log(limit).

    An envelope with no positive power of e^v holds the limit everywhere
    (+inf) or nowhere (-inf).
    """
    loglimit = math.log(limit)
    if power[0] > 0.0:  # the powers grow with k: all positive
        return (loglimit - logc) / power
    everywhere = np.where(logc <= loglimit, np.inf, -np.inf)
    return np.divide(loglimit - logc, power, out=everywhere, where=power > 0.0)


def _contraction(logterm, log_slope_growth=None):
    """Per-term log ratio bound for convergent series: suffix max of the diffs.

    ``logterm`` holds the log envelope factors per term; entry k of the result
    bounds log(env_{j+1}/env_j) for every j >= k inside the array, so the
    geometric remainder bound holds even where the factors are not monotone.
    """
    d = logterm[1:] - logterm[:-1]
    if log_slope_growth is not None:
        d = d + log_slope_growth
    d = np.maximum.accumulate(d[::-1])[::-1]
    return np.append(d, np.inf)


def hurwitz_zeta(s, q):
    """zeta(s, q) = sum_{n >= 0} (q + n)^(-s) and Z(s, q) = -d zeta/d s, with bounds.

    Z sums log(q + n) (q + n)^(-s).  One direct sum over the first
    ``_ZETA_DIRECT`` lattice terms serves both; the rest is Euler-Maclaurin
    from a = q + _ZETA_DIRECT with the B2 to B8 corrections.  The summand's
    n-th derivative is v^(-s-n) C_n for zeta and v^(-s-n) (C_n log v + D_n)
    for Z, with C_0 = 1, D_0 = 0, C_{n+1} = -(s+n) C_n and
    D_{n+1} = -(s+n) D_n + C_n.  The remainder is at most |B8| / 8! times
    the integral of the 8th derivative's modulus over [a, inf), in closed
    form; each bound adds the direct sum's rounding, which grows with
    |s log v| through the powers.  Both remainders and zeta fall in q, so
    each bound is taken at the least q and holds for every point.  ``s``
    (each > 1) has shape (m, 1) and ``q`` shape (points,); returns (zeta,
    zeta bound, Z, Z bound), the values of shape (m, points) and NaN where
    q <= 0, the bounds of shape (m, 1) and NaN if any q <= 0.
    """
    q = np.asarray(q, dtype=float)
    ok = q > 0.0
    if not ok.all():
        q = np.where(ok, q, 1.0)
    logv = np.log(q + _LATTICE)
    w = np.exp(-s[:, :, None] * logv[:-1])
    a, la = q + _ZETA_DIRECT, logv[-1]
    # C_n = prod_{i<n} -(s+i) and D_n = -C_n sum_{i<n} 1/(s+i), n = 1 .. 2J
    n_em = _EM_CORRECTIONS.size
    step = -(s + np.arange(2 * n_em))
    c = np.cumprod(step, axis=1)
    d = c * np.cumsum(1.0 / step, axis=1)
    # both tails over a^(-s) are coefficients times the powers (a, 1, a^-1,
    # a^-3, ...): the integral, half the first term, and the corrections
    # -B_2j/(2j)! h^(2j-1)(a) with h^(n)(a) = a^(-s-n) (C_n la + D_n)
    coef = np.empty((2, s.shape[0], n_em + 2))
    coef[:, :, 0] = 1.0 / (s[:, 0] - 1.0) ** np.array([[1.0], [2.0]])
    coef[:, :, 1] = [[0.5], [0.0]]
    coef[0, :, 2:], coef[1, :, 2:] = -_EM_CORRECTIONS * c[:, 0::2], -_EM_CORRECTIONS * d[:, 0::2]
    powers = np.empty((n_em + 2, a.size))
    powers[0], powers[1], powers[2] = a, 1.0, 1.0 / a
    for j in range(3, n_em + 2):
        powers[j] = powers[j - 1] * powers[2] ** 2
    e, f = coef @ powers
    pw = np.exp(-s * la)  # a^(-s)
    zeta = w.sum(axis=1) + pw * e
    z = np.einsum("mnp,np->mp", w, logv[:-1]) + pw * (la * e + f)
    # at the least q: int_a^inf v^(-M-1) (C log v + D) dv = a^(-M) (C (la/M + 1/M^2) + D/M)
    i = np.argmin(q)
    M = s + 2.0 * n_em - 1.0
    rem = abs(_EM_CORRECTIONS[-1]) * np.exp(-M * la[i])
    cM, dM = np.abs(c[:, -1:]) / M, np.abs(d[:, -1:]) / M
    # rounding: log v to a relative eps moves v^(-s) by eps |s log v|, and
    # |Z| sums at most max |log v| times zeta's terms
    maxlog = max(abs(float(logv[0, i])), float(np.max(la)))
    rounding = _ROUNDOFF_SAFETY * _EPS * (_ZETA_DIRECT + s * maxlog) * zeta[:, i:i + 1]
    zeta_err = rem * cM + rounding
    z_err = rem * (cM * (la[i] + 1.0 / M) + dM) + maxlog * rounding
    if not ok.all():
        zeta, z = np.where(ok, zeta, np.nan), np.where(ok, z, np.nan)
        zeta_err, z_err = np.full_like(zeta_err, np.nan), np.full_like(z_err, np.nan)
    return zeta, zeta_err, z, z_err


class _Expansion:
    """A series in powers of |z|, several quantities evaluated in one pass.

    A subclass states its mathematics: ``_logcoef`` (log |coefficient| of
    term k), ``_degree`` (the power of e^v in a quantity's term k, where
    v = sign(step) * log|z|), its step ``_step`` in k, ``_spec``,
    ``_layout`` and ``_budget``; the norm divides every term.  It keeps
    ``_specs``, ``_plans`` and their envelope rows ``_magnitudes`` by
    quantity, ``_cuts`` by (quantity, tol) and ``_reach`` by (quantity,
    tol, cap), each entry a pure function of its key (see the module
    docstring); a tail side's mirror shares the caches of envelopes,
    magnitudes and radii and keeps its own specs and plans, which hold its
    signs.
    """

    def __init__(self, alpha: float, beta: float, kmax: int, k0: int, norm: float):
        self.alpha = alpha
        self.beta = beta
        self.kmax = kmax
        self.tau = skew_shift(alpha, beta)
        self.dtau = shift_partials(alpha, beta)
        self._k = np.arange(k0, kmax + 1, dtype=float)
        self._norm = norm
        self._lognorm = math.log(norm)
        self._floor = math.exp(_LOG_FLOOR) / norm  # a floored power matrix entry
        self._specs = {}
        self._plans = {}  # sign rows of every term, by quantity, see _plan
        self._magnitudes = {}  # their envelope rows, by quantity, shared with a mirror
        self._cuts = {}  # running maxima of per-term radii by (quantity, tol), see _cut
        self._reach = {}  # log radii by (quantity, tol, kcap), see certifies_from/within

    def _power_matrix(self, v, rows):
        """(matrix, lift): exp(logcoef_k + |step| * k * v - lift) / norm for the first ``rows`` terms.

        That is exp(logcoef_k + step * k * log|z|) / norm at v = sign(step)
        * log|z|, times e^-lift per column: the one matrix of a pass, which
        every quantity reads off with its weights (``_weights``); at the
        centre the density's terms are its entries times their signs.  The
        coefficient stays inside the exponential (the bare powers overflow)
        and the exponent is clipped to +-600, so that a weight down to e^-100
        times an entry stays out of the subnormal range, where arithmetic is
        many times slower; flooring only loosens an envelope.  ``lift``
        (None where no column needs one) raises a column whose largest
        exponent is below _LOG_LIFT to it.
        """
        # the k = 0 entry is the bare coefficient even at z = 0 (0 * log 0 = 0)
        logpow = np.multiply.outer(self._matrix_degree[:rows], v)
        logpow += self._logcoef[:rows, None]
        lift = None
        if logpow[0].min() < _LOG_LIFT:  # else no column's largest is below it
            lift = np.minimum(logpow.max(axis=0) - _LOG_LIFT, 0.0)
            logpow -= lift
        np.maximum(logpow, _LOG_FLOOR, out=logpow)
        np.minimum(logpow, -_LOG_FLOOR, out=logpow)
        powers = np.exp(logpow, out=logpow)
        powers /= self._norm
        return powers, lift

    @cached_property
    def _matrix_degree(self):
        """The power of e^v in each row of the power matrix, for every term."""
        return self._degree(self._k, 0.0)

    def _plan(self, quantity: str):
        """A quantity's rows for a pass, cached: (spec, shift, power, signs, env rows, signed, contracts).

        ``shift`` and ``power`` are its ``_layout``: term k reads row k -
        ``shift`` of the power matrix.  Its value rows are the ``signs``
        (the spec's sign and, with a log|z| slope, slope sign per term)
        times the first envelope row, the magnitudes; the envelope rows are
        the magnitudes and, with a slope, the slope's magnitudes times them,
        to be taken times |log|z||.  Each is a column over every term it
        reads, and a pass of m rows reads the first m entries (``_values``),
        each a function of its own term alone.  The envelope rows depend on
        no sign, so a tail side shares them with its mirror.  ``signed``
        (centre) is the sign row with the odd rows flipped, read at y < 0,
        where the power matrix row k is |y|^k and y^k carries (-1)^k;
        ``contracts`` (a log r slope on a convergent series) holds the
        greatest v at which each term's ratio bound contracts.
        """
        plan = self._plans.get(quantity)
        if plan is None:
            spec = self._spec(quantity)
            extra, _, sign, slope, ratio = spec
            shift, power = self._layout(spec[1])
            env = self._magnitudes.get(quantity)
            if env is None:
                log_mag = extra[shift:]
                if shift:  # the coefficient of term k over that of the row it reads
                    log_mag = log_mag + (self._logcoef[shift:] - self._logcoef[:-shift])
                mag = np.exp(log_mag)
                env = [mag] if slope is None else [mag, slope[1][shift:] * mag]
                env = self._magnitudes[quantity] = [row[:, None] for row in env]
            signs = [sign[shift:, None]] + ([] if slope is None else [slope[0][shift:, None]])
            signed = contracts = None
            if self._parity:
                signed = np.where(np.arange(signs[0].shape[0])[:, None] % 2 == 1, -signs[0],
                                  signs[0])
            if ratio is not None and slope is not None:
                contracts = ((_LOG_RATIO_CAP - ratio[:-1]) / abs(self._step))[:, None]
            plan = self._plans[quantity] = spec, shift, power, signs, env, signed, contracts
        return plan

    @staticmethod
    def _values(signs, env, m):
        """The value rows of a quantity's first m matrix rows: its sign rows times magnitudes."""
        return [row[:m] * env[0][:m] for row in signs]

    def _cut(self, quantity: str, tol: float):
        """Running maximum over terms of the greatest v = sign(step) * log|z| at which each can start a certificate.

        Term k's envelope is at most tol/_ASYM_SAFETY from the
        ``_env_reach`` of its log coefficient and its power of e^v on; a
        convergent series (with a ratio bound) needs its ratio bound to
        contract as well, below the smaller of the two radii.  Entry k is
        the greatest radius of terms 0 to k: the first certifying term of a
        point is one search on it, and the reach bounds read it off.  Cached.
        """
        running = self._cuts.get((quantity, tol))
        if running is None:
            extra, off, _, _, ratio = self._spec(quantity)
            logc = self._logcoef + extra - self._lognorm
            radii = _env_reach(logc, self._degree(self._k, off), tol / _ASYM_SAFETY)
            if ratio is not None:
                radii = np.minimum(radii, (_LOG_RATIO_CAP - ratio) / abs(self._step))
            running = self._cuts[quantity, tol] = np.maximum.accumulate(radii)
        return running

    def _log_reach(self, quantity: str, tol: float, kcap: int | None) -> float:
        """The greatest v = sign(step) * log|z| at which a pass of ``kcap`` terms certifies ``tol``.

        ``_certified_sum`` charges at least _ASYM_SAFETY times one envelope
        (the least, or the first that certifies), so some term must be
        within its ``_cut`` radius; a convergent pass cannot certify at the
        cap, and it also charges _ROUNDOFF_SAFETY * eps * max(terms, 8) times
        its largest envelope, so every envelope must be at most tol over
        that.  A pass with no cap (``kcap`` None) sums a budget that can be
        shorter than kmax, so there that condition is left out.
        """
        extra, off, _, _, ratio = self._spec(quantity)
        nk = self._k[:kcap].size
        convergent = ratio is not None
        reach = float(self._cut(quantity, tol)[nk - 1 - convergent])
        if convergent and kcap is not None:
            logc = self._logcoef[:nk] + extra[:nk] - self._lognorm
            limit = tol / (_ROUNDOFF_SAFETY * _EPS * max(nk, 8))
            every = _env_reach(logc, self._degree(self._k[:nk], off), limit)
            reach = min(reach, float(np.min(every)))
        return reach

    def _mirrored(self, z):
        """Columns evaluated with another side's sign rows: None for a series in y."""
        return None

    def term_budget(self, quantity: str, tol: float, logz) -> int:
        """Terms a pass with no cap sums for ``quantity`` over the radii e^logz."""
        return self._budget(self._spec(quantity), tol, None, np.asarray(logz, dtype=float))

    def evaluate(self, z, quantities, tols, kcap=None, need=None, budgets=None):
        """(values, errors), each of shape (len(quantities), points), at z.

        The quantities share log|z| and one power matrix (``_power_matrix``),
        which each reads off with its own weights (see ``_sum``), and each
        is certified to its entry of ``tols``.  A tail series also takes
        z < 0, its mirror's side at r = -z (``TailSeriesSide.mirror``), so
        both sides share the matrix and the certificate; a pass with every
        point there is the mirror's own pass at r = -z.  Without ``kcap``
        each term budget is cut, per side, to what the slowest of the
        quantity's ``need`` points (a boolean row each, default all) on that
        side can use, or taken from ``budgets`` (per quantity, the budgets
        of the points z >= 0 and z < 0); a quantity with no point on a side
        is skipped there.
        """
        z = np.asarray(z, dtype=float)
        mirrored = self._mirrored(z)
        if mirrored is None or not mirrored.all():
            return self._pass(z, mirrored, quantities, tols, kcap, need, budgets)
        out = self.mirror._pass(-z, None, quantities, tols, kcap, need, None if budgets is None
                                else [(neg, pos) for pos, neg in budgets])
        for i, q in enumerate(quantities):
            if q in ODD_QUANTITIES:  # d/dz = -d/dr, and d/d beta of the mirror's -beta
                out[0, i] = -out[0, i]
        return out

    def _pass(self, z, mirrored, quantities, tols, kcap, need, budgets):
        """``evaluate`` at points z of which those ``mirrored`` (None if none) are the mirror's."""
        logz = log_radius(z)
        plans = [self._plan(q) for q in quantities]
        rows = need if need is not None else [None] * len(quantities)
        nks, tops = [], []
        for i, (plan, tol, row) in enumerate(zip(plans, tols, rows)):
            if mirrored is None:  # one side: one budget
                on = logz if row is None else logz[row]
                nk = (self._budget(plan[0], tol, kcap, on) if budgets is None
                      else budgets[i][0] if on.size else 0)
                nks.append(nk)
                tops.append(nk)
                continue
            # each side's points: this side's, and the mirror's at z < 0
            if row is None:
                row = np.ones(z.size, bool)
            sides = [row & ~mirrored, row & mirrored]
            if budgets is None:
                per = [self._budget(plan[0], tol, kcap, logz[on]) for on in sides]
            else:
                per = [nk if on.any() else 0 for nk, on in zip(budgets[i], sides)]
            if per[0] != per[1]:  # one count per column
                per = [np.where(mirrored, per[1], per[0])]
            nks.append(per[0])
            tops.append(int(per[0].max()) if isinstance(per[0], np.ndarray) else per[0])
        out = np.zeros((2, len(quantities), z.size))
        out[1] = np.inf
        negative = None  # the columns y < 0 of a centre pass, or True for all of them
        if self._parity:
            negative = z < 0.0
            negative = None if not negative.any() else True if negative.all() else negative
        used = [top - plan[1] for top, plan in zip(tops, plans) if top]
        if used:
            v = logz if self._step > 0.0 else -logz
            powers, lift = self._power_matrix(v, max(used))
            env = None
            for i, (q, plan, tol, nk, top) in enumerate(zip(quantities, plans, tols, nks, tops)):
                if not top:
                    continue
                if plan[0][4] is None:  # asymptotic
                    out[:, i] = self._least_sum(q, plan, nk, top, powers, lift, logz, mirrored)
                    continue
                env = np.empty_like(powers) if env is None else env
                out[:, i] = self._sum(q, plan, tol, nk, top, powers, lift, logz, v, env,
                                      mirrored, negative)
            for i, nk in enumerate(nks):
                if isinstance(nk, np.ndarray):  # a side with no point of it certifies nothing
                    out[:, i, nk == 0] = [[0.0], [np.inf]]
        for i, (q, plan) in enumerate(zip(quantities, plans)):
            if mirrored is not None and q in ODD_QUANTITIES:  # d/dz = -d/dr, d/d beta of -beta
                out[0, i] = np.where(mirrored, -out[0, i], out[0, i])
            if negative is not None and plan[2] % 2:  # the centre's |y|^off of an odd offset
                out[0, i] = -out[0, i] if negative is True else np.where(negative, -out[0, i],
                                                                         out[0, i])
        return out

    @staticmethod
    def _scale(power, lift, logz):
        """|z|^power times the power matrix's ``lift`` (None for none) per point.

        A power of 0 scales by exp(+-0) = 1, exactly.
        """
        logscale = power * logz
        return np.exp(np.minimum(logscale if lift is None else logscale + lift, -_LOG_FLOOR))

    @staticmethod
    def _finish(value, err, scale):
        """(value, err) scaled, if ``scale``; a value that is not finite certifies nothing."""
        if scale is not None:  # an overflow is a term too large to certify anything
            with np.errstate(over="ignore"):
                value, err = value * scale, err * scale
        finite = np.isfinite(value)
        if not finite.all():
            value, err = np.where(finite, value, 0.0), np.where(finite, err, np.inf)
        return value, err

    def _least_sum(self, quantity, plan, nk, m, powers, lift, logz, mirrored):
        """(value, err) of an asymptotic quantity off a pass's power matrix.

        Its weight rows (``_plan``; the mirror's in ``mirrored`` columns)
        give its values, and its envelope rows its envelopes, on the first
        ``m`` rows of ``powers`` (``nk`` per column where the two sides of a
        tail pass sum different budgets), scaled by |z|^power and the
        matrix's ``lift`` per point.  Each column stops at its least
        envelope, one whose power is floored counting as zero (it is a
        bound, not a value), and is summed there (``_truncated_sum``).
        """
        _, _, power, signs, env_rows = plan[:5]
        powers = powers[:m]
        rows = self._values(signs, env_rows, m)
        if mirrored is not None:
            other = self._values(self.mirror._plan(quantity)[3], env_rows, m)
            rows = [np.where(mirrored, o, row) for row, o in zip(rows, other)]
        env = env_rows[0][:m] * powers
        if len(env_rows) > 1:  # a log r slope
            env += np.abs(logz) * (env_rows[1][:m] * powers)
        least = np.where(powers > self._floor, env, 0.0)
        if isinstance(nk, np.ndarray):  # the rows past each column's own budget
            least[np.arange(m)[:, None] >= np.maximum(nk, 1)] = np.inf
        value, err = _truncated_sum(powers, rows, env, logz, least.argmin(axis=0))
        scale = None if lift is None and not power else self._scale(power, lift, logz)
        return self._finish(value, err, scale)

    def _sum(self, quantity, plan, tol, nk, nkmax, powers, lift, logz, v, env, mirrored,
             negative):
        """(value, err) of a convergent quantity's first ``nk`` terms off a pass's power matrix.

        ``nk`` is one count, or one per column (at most ``nkmax``) where the
        two sides of a tail pass sum different budgets.  Its weight rows
        (``_plan``; the mirror's in ``mirrored`` columns) give the values,
        contracted column by column with ``powers``, and the envelopes, in
        one weighted pass over ``powers`` into ``env``, and are scaled by
        |z|^power and the matrix's ``lift`` per point.  At y < 0 a centre
        pass reads the signed rows instead (``negative`` True where every
        point is there, else the columns that are): a pass across the shift
        point contracts them too, and each column takes its own sum.  A sign
        on a weight rather than on its matrix entry gives the same product,
        as a product by -1 is exact, and no matrix is copied.  The sum
        certifies from the first term within its ``_cut`` radius: one
        search per point, except for a log r slope, which moves each
        envelope, so those are tested one by one.
        """
        spec, shift, power, signs, env_rows, signed, contracts = plan
        ratio = spec[4]
        m = nkmax - shift
        value_rows = self._values(signs, env_rows, m)
        if mirrored is not None:
            other = self._values(self.mirror._plan(quantity)[3], env_rows, m)
            value_rows = [np.where(mirrored, o, row) for row, o in zip(value_rows, other)]
        if negative is not None:  # the centre's y^k at y < 0: odd rows signed
            signed = self._values([signed], env_rows, m)[0]
            if negative is True:
                value_rows = [signed]
        beyond = None
        if isinstance(nk, np.ndarray):  # the rows past each column's own budget
            nk = np.maximum(nk, 1)
            beyond = np.arange(m)[:, None] >= nk
        powers, env = powers[:m], np.multiply(env_rows[0][:m], powers[:m], out=env[:m])
        if len(env_rows) > 1:
            env += np.abs(logz) * (env_rows[1][:m] * powers)
        scale = None if lift is None and not power else self._scale(power, lift, logz)
        if contracts is not None:
            ok = (env[:-1] * (1.0 if scale is None else scale) <= tol / _ASYM_SAFETY) & (
                v <= contracts[:nkmax - 1])
            if beyond is not None:
                ok &= ~beyond[1:]
            first = np.where(ok.any(axis=0), ok.argmax(axis=0), nk - 1)
        else:
            first = np.searchsorted(self._cut(quantity, tol)[:nkmax - 1], v)
            if beyond is not None:
                first = np.minimum(first, nk - 1)
        q = np.exp(np.minimum(np.maximum(ratio[first] + self._step * logz, _LOG_FLOOR),
                              _LOG_RATIO_CAP))
        if beyond is not None:
            value_rows = [np.where(beyond, -0.0, row) for row in value_rows]
        value, err = _certified_sum(powers, value_rows, env, logz, first < nk - 1, q, nk)
        if isinstance(negative, np.ndarray):  # a centre sum, _contract's
            value = np.where(negative, _contract(signed, powers), value)
        return self._finish(value, err, scale)


class TailSeriesSide(_Expansion):
    """Tail expansion for one side, in r = y > 0: term k carries r**(-(alpha*k + off)).

    Its ``mirror`` is the other side, the series at -beta.  The two share
    every envelope, so each certificate, reach and budget of one is the
    other's, and differ only in their sign rows; ``evaluate`` takes the
    mirror's points as z < 0.
    """

    def __init__(self, alpha: float, beta: float, kmax: int):
        super().__init__(alpha, beta, kmax, 1, np.pi)
        k, tau = self._k, self.tau
        self._step = -alpha
        self._parity = False  # the side is evaluated at r > 0
        # log of |k-th coefficient| without the r-power, and its sign pattern
        self._logcoef = (
            special.gammaln(k * alpha + 1.0)
            - special.gammaln(k + 1.0)
            + 0.5 * k * np.log1p(tau * tau)
        )
        self._sink = self._sines()
        # (extra, off, slope magnitudes, ratio) by quantity, and the shape
        # partials' magnitudes: none depends on the sign of beta
        self._envelopes = {}

    def _sines(self):
        """Per term, (-1)^(k+1) sin(k phi) with phi = arctan(tau) + alpha pi / 2."""
        k = self._k
        return np.sin(k * (np.arctan(self.tau) + self.alpha * np.pi / 2.0)) * (-1.0) ** (k + 1)

    @cached_property
    def mirror(self) -> TailSeriesSide:
        """The other side: this series at -beta, holding only its own sign rows.

        tau and d tau/d alpha change sign with beta, and with them the sign
        rows; the coefficients' moduli, every envelope, and so every
        ``_cut``, reach bound and term budget, depend on tau^2 and |beta|
        alone, and the two sides share them and their caches.  The mirror
        holds no reference back, so an engine's sides form no cycle and are
        freed as soon as the engine is.
        """
        other = copy.copy(self)  # shares every array and cache but the sign rows'
        other.beta = -self.beta
        other.tau = skew_shift(self.alpha, other.beta)
        other.dtau = shift_partials(self.alpha, other.beta)
        other._sink = other._sines()
        other._specs, other._plans = {}, {}
        return other

    @property
    def constant(self) -> float:
        """K with f ~ K r^(-alpha-1) as r -> infinity on this side: its first term's coefficient."""
        return float(np.exp(self._logcoef[0]) * self._sink[0] / np.pi)

    def _mirrored(self, z):
        """The columns z < 0, on the mirror's side, or None if there are none."""
        mirrored = z < 0.0
        return mirrored if mirrored.any() else None

    def _degree(self, k, off):
        """The power of 1/r in term k."""
        return self.alpha * k + off

    def _layout(self, off):
        """Term k reads row k of the power matrix, times r^(-off)."""
        return 0, -off

    def _spec(self, quantity: str):
        """(extra, off, sign, slope, ratio) of one quantity's terms, cached.

        The quantities are "pdf", "dpdf" (d/dr), "sf" (the upper tail mass)
        and the partials "dalpha" and "dbeta" of this side's own beta at
        fixed r.  Term k is sign_k * env_k, |sign_k| <= 1, with envelope
        env_k = coef_k * exp(extra_k) * r**(-(alpha*k + off)) / pi.
        ``slope`` = (s_k, m_k), |s_k| <= m_k, adds s_k * env_k * log(r) to the
        term and m_k * env_k * |log(r)| to its envelope; ``ratio`` bounds
        envelope ratios (alpha <= 1).  All but the signs sign_k and s_k are
        shared with the mirror.
        """
        if quantity not in self._specs:
            signs = self._shape_signs() if quantity in PARTIALS else {
                quantity: (-self._sink if quantity == "dpdf" else self._sink, None)}
            for q, (sign, slope_sign) in signs.items():
                extra, off, slope_mag, ratio = self._envelope(q)
                slope = None if slope_mag is None else (slope_sign, slope_mag)
                self._specs[q] = (extra, off, sign, slope, ratio)
        return self._specs[quantity]

    def _envelope(self, quantity: str):
        """(extra, off, slope magnitudes or None, ratio) of a quantity's terms, cached, shared."""
        if quantity not in self._envelopes:
            k, slope = self._k, None
            if quantity == "pdf":
                off, extra = 1.0, np.zeros(k.shape)
            elif quantity == "dpdf":
                off, extra = 2.0, np.log(k * self.alpha + 1.0)
            elif quantity == "sf":
                off, extra = 0.0, -np.log(k * self.alpha)
            else:
                _, a_mag, b_mag = self._shape_mags()
                off, extra = 1.0, np.log(a_mag if quantity == "dalpha" else b_mag)
                slope = k / a_mag if quantity == "dalpha" else None
            ratio = None
            if self.alpha <= 1.0:
                # (1 + m_{k+1}|log r|) / (1 + m_k |log r|) <= max(1, m_{k+1}/m_k)
                growth = None if slope is None else np.maximum(0.0, np.diff(np.log(slope)))
                ratio = _contraction(self._logcoef + extra, growth)
            self._envelopes[quantity] = (extra, off, slope, ratio)
        return self._envelopes[quantity]

    def _budget(self, spec, tol, kcap, logr):
        """Terms a quantity sums at the points ``logr``: 0 if there are none.

        With no cap, the budget is cut to what the slowest point can use,
        and an asymptotic series to just past the least envelope of the
        farthest point (``_least_cut``): no point's sum stops beyond it.
        """
        extra, off, _, slope, ratio = spec
        nk = self.kmax if kcap is None else min(kcap, self.kmax)
        if kcap is None and logr.size:
            # slice the term budget to what the slowest point can ever use
            worst = float(logr.min())
            probe = self._logcoef[:nk] - self._degree(self._k[:nk], off) * worst + extra[:nk]
            if slope is not None:
                probe = probe + np.log1p(slope[1][:nk] * abs(worst))
            done = probe <= np.log(tol / (_ASYM_SAFETY * 10.0) * np.pi + 1e-300)
            first = int(np.argmax(done)) if done.any() else -1
            if first >= 0:
                nk = min(nk, max(first + 2, 8))
            if ratio is None and first < 6:  # else the slowest point's least envelope is past nk
                nk = self._least_cut(spec, float(logr.max()), nk)
        return nk if logr.size else 0

    def _least_cut(self, spec, far, nk):
        """Terms of an asymptotic quantity's first ``nk`` that a sum out to log r = ``far`` can use.

        Each point stops at its least envelope, or at an earlier floored
        power matrix entry.  Neither moves in when r grows, and a floored
        entry lies at or before the least entry of its column (the floor
        is a level of the entries' logs): so every point's stop lies at or
        before the later of the two at the farthest point, and one row past
        it covers rounding in these logs.
        """
        extra, _, _, slope, _ = spec
        logpow = self._logcoef[:nk] - self._matrix_degree[:nk] * far
        logenv = logpow + extra[:nk]
        if slope is not None:
            logenv = logenv + np.log1p(slope[1][:nk] * abs(far))
        return min(nk, max(int(logenv.argmin()), int(logpow.argmin())) + 2)

    def certifies_from(self, quantity: str, tol: float, kcap: int | None) -> float:
        """A log radius below which no pass of ``kcap`` terms certifies ``tol``, cached.

        Read off the per-term radii of ``_cut``, without summing (see
        ``_log_reach``); a log slope only raises an envelope, so it is left
        out.  Each envelope falls in r, so each condition is a least log r.
        """
        key = (quantity, tol, kcap)
        if key not in self._reach:
            self._reach[key] = -self._log_reach(quantity, tol, kcap) - _REACH_SLACK
        return self._reach[key]

    def fold_sum(self, q0, period, quantities, own=None):
        """Sums of the quantities' series over the lattice r_j = (q0 + j) * period, j >= 0.

        Used to remove aliasing folds from Fourier inversions.  Each of the
        first ``_NEAR_FOLDS`` terms of a quantity's ``_spec``, summed over
        the lattice, is a Hurwitz zeta at s = alpha*k + off, plus
        Z(s, q) = -d zeta/d s where the term has a log r slope; all come
        from one ``hurwitz_zeta`` call on the union of the rows of s of the
        quantities and of their shift terms, stacked by offset in the order
        first met (so one quantity's rows are stacked as they always were).
        A shape partial is taken at fixed x, where the lattice points
        x + tau + j * period move with tau: that adds d tau/d q times the f'
        folds.  Returns (values, errors), one row and one error per quantity,
        where the error bounds, over the quantity's row of ``own`` (boolean,
        default every point), the first omitted term's lattice sum and the
        kernel's bounds on zeta and Z (which hold at every point of the
        call); it is NaN where some q0 <= 0.
        """
        q0 = np.asarray(q0, dtype=float)
        n = min(_NEAR_FOLDS, self.kmax - 1) + 1  # the last term only bounds the rest
        logp = np.log(period)
        weights = [{q: 1.0, **({"dpdf": self.dtau[q]} if q in self.dtau else {})}
                   for q in quantities]
        specs = {p: self._spec(p) for own_weights in weights for p in own_weights}
        offs = list(dict.fromkeys(spec[1] for spec in specs.values()))
        ss = [self._k[:n, None] * self.alpha + off for off in offs]
        kernel = hurwitz_zeta(np.vstack(ss), q0)
        parts = {}  # each part's sum, and its bound at each point, once
        for p, (extra, off, sign, slope, _) in specs.items():
            i = offs.index(off)
            amag = np.exp(self._logcoef[:n, None] + extra[:n, None] - ss[i] * logp) / np.pi
            zeta, zeta_err, lz, lz_err = (a[i * n:(i + 1) * n] for a in kernel)
            mag = amag * zeta
            terms = sign[:n, None] * mag
            err = amag * zeta_err
            if slope is not None:
                logsum = logp * zeta + lz  # sum of log(r_j) (q0 + j)^(-s)
                terms = terms + amag * slope[0][:n, None] * logsum
                mag = mag + amag * slope[1][:n, None] * np.abs(logsum)
                err = err + amag * slope[1][:n, None] * (abs(logp) * zeta_err + lz_err)
            parts[p] = terms[:-1].sum(axis=0), mag[-1] + err.sum(axis=0)
        values, bounds = np.empty((len(quantities), q0.size)), np.empty(len(quantities))
        for j, own_weights in enumerate(weights):
            value = bound = 0.0
            for p, weight in own_weights.items():
                value = value + weight * parts[p][0]
                bound = bound + abs(weight) * parts[p][1]
            values[j] = value
            bounds[j] = float(np.max(bound if own is None else bound[own[j]])) * 1.5
        return values, bounds

    def _shape_mags(self):
        """(psi, a_mag, b_mag) of the alpha and beta partials, cached and shared.

        psi_k = digamma(k alpha + 1), and each partial's envelope factor
        bounds its sine and cosine parts (see ``_shape_signs``) by the moduli
        of their coefficients, which hold tau and d tau/d alpha only in
        modulus: a_mag_k = k (|psi_k| + pi/2) + |d tau/d alpha| k (|tau| + 1)
        / (1 + tau^2), and b_mag_k the same for d tau/d beta alone.
        """
        if "shape" not in self._envelopes:
            k, tau = self._k, self.tau
            d_tau_mag = k * (abs(tau) + 1.0) / (1.0 + tau * tau)
            psi = special.digamma(k * self.alpha + 1.0)
            a_mag = k * (np.abs(psi) + np.pi / 2.0) + abs(self.dtau["dalpha"]) * d_tau_mag
            b_mag = np.maximum(abs(self.dtau["dbeta"]) * d_tau_mag, 1e-300)
            self._envelopes["shape"] = psi, a_mag, b_mag
        return self._envelopes["shape"]

    def _shape_signs(self):
        """{partial: (sign, slope sign or None)} of this side's alpha and beta partials at fixed r.

        Term k is e^(L_k) r^(-k alpha - 1) / pi times (-1)^(k+1) times
        sin(k phi), phi = arctan(tau) + alpha pi / 2, and L_k carries
        gammaln(k alpha + 1) and (k/2) log(1 + tau^2).  At fixed tau,
        d/d alpha gives k psi(k alpha + 1) sin + k (pi/2) cos - k log(r) sin,
        and d/d tau gives k (tau sin + cos) / (1 + tau^2); tau moves with
        alpha and beta through ``dtau``.  Each is over its envelope factor.
        """
        k, tau = self._k, self.tau
        psi, a_mag, b_mag = self._shape_mags()
        cosk = np.cos(k * (np.arctan(tau) + self.alpha * np.pi / 2.0)) * (-1.0) ** (k + 1)
        d_tau = k * (tau * self._sink + cosk) / (1.0 + tau * tau)
        a_val = k * psi * self._sink + k * (np.pi / 2.0) * cosk + self.dtau["dalpha"] * d_tau
        return {"dalpha": (a_val / a_mag, -k * self._sink / a_mag),
                "dbeta": (self.dtau["dbeta"] * d_tau / b_mag, None)}


class CenterSeries(_Expansion):
    """Taylor expansion in y = x + tau (alpha > 1, or Cauchy): term k carries y**(k + off)."""

    def __init__(self, alpha: float, beta: float, kmax: int):
        if not (alpha > 1.0 or (alpha == 1.0 and beta == 0.0)):
            raise ValueError("center series requires alpha > 1 (or alpha = 1, beta = 0)")
        super().__init__(alpha, beta, kmax, 0, alpha * np.pi)
        k, tau = self._k, self.tau
        self._step = 1.0
        self._parity = True  # y^k changes sign with y for odd k
        self._logcoef = (
            special.gammaln((k + 1.0) / alpha)
            - special.gammaln(k + 1.0)
            - (k + 1.0) / (2.0 * alpha) * np.log1p(tau * tau)
        )
        self._cosk = np.cos((k + 1.0) / alpha * np.arctan(tau) - k * np.pi / 2.0)

    def _degree(self, k, off):
        """The power of |y| in term k."""
        return k + off

    def _layout(self, off):
        """Term k reads row k + off of the power matrix for off <= 0, else row k times |y|^off."""
        return max(int(-off), 0), max(off, 0.0)

    def _spec(self, quantity: str):
        """(extra, off, trig, None, ratio) of one quantity's terms, cached.

        The quantities are "pdf", "dpdf" (d/dy), "cdf" (the density's
        integral from the shift point, term k over k + 1), "dalpha" and
        "dbeta".  Term k is trig_k * coef_k * exp(extra_k) * y**(k + off) /
        (alpha pi), with no log slope; the ratio bound is infinite where
        k + off < 0 (extra -inf).
        """
        if quantity not in self._specs:
            k = self._k
            off, extra, trig = 0.0, np.zeros(k.shape), self._cosk
            if quantity == "dpdf":
                off, extra = -1.0, np.where(k > 0, np.log(np.where(k > 0, k, 1.0)), -np.inf)
            elif quantity == "cdf":
                off, extra = 1.0, -np.log(k + 1.0)
            elif quantity != "pdf":
                extra, trig = self._shape_coefs[quantity]
            self._specs[quantity] = (extra, off, trig, None, _contraction(self._logcoef + extra))
        return self._specs[quantity]

    def _budget(self, spec, tol, kcap, logay):
        """Terms a quantity sums at the points ``logay``: 0 if there are none."""
        nk = (self.kmax + 1) if kcap is None else min(kcap, self.kmax + 1)
        if kcap is None and logay.size:
            # a positive power offset (the cdf's y) scales every envelope by
            # |y|^off; the f' row's negative one is left out, as it always was
            far = float(logay.max())
            probe = self._logcoef[:nk] + (self._k[:nk] + max(spec[1], 0.0)) * far + spec[0][:nk]
            done = probe <= np.log(tol / (_ASYM_SAFETY * 10.0) * self.alpha * np.pi + 1e-300)
            done[:4] = False  # envelopes can start below threshold near k = 0
            if done.any():
                nk = min(nk, max(int(np.argmax(done)) + 2, 8))
        return nk if logay.size else 0

    def certifies_within(self, quantity: str, tol: float, kcap: int) -> float:
        """A log radius beyond which no pass of ``kcap`` terms certifies ``tol``, cached.

        The counterpart of ``TailSeriesSide.certifies_from``, read off the
        per-term radii of ``_cut`` (see ``_log_reach``).  An envelope with a
        positive power of |y| grows in |y| and the ratio bound contracts
        only below a radius, so each condition is a greatest log |y|; an
        envelope with no positive power holds or fails everywhere.
        """
        key = (quantity, tol, kcap)
        if key not in self._reach:
            self._reach[key] = self._log_reach(quantity, tol, kcap) + _REACH_SLACK
        return self._reach[key]

    def terms_within(self, quantity: str, cap: float) -> float:
        """The log radius inside which each term of ``quantity`` is at most ``cap``, cached.

        Each envelope grows in |y|, so each term holds it up to its own
        ``_env_reach``, and all of them up to the least of those.  A sum of
        terms up to ``cap`` rounds to a few tens of eps times ``cap``.
        """
        key = (quantity, cap)
        if key not in self._reach:
            extra, off = self._spec(quantity)[:2]
            logc = self._logcoef + extra - self._lognorm
            self._reach[key] = float(np.min(_env_reach(logc, self._degree(self._k, off), cap)))
        return self._reach[key]

    @cached_property
    def _shape_coefs(self):
        """(extra_logmag, trig) of the alpha and beta partials at fixed y.

        Term k is y^k e^(L_k) cos(c_k) / (alpha pi) with
        L_k = gammaln((k+1)/alpha) - gammaln(k+1) - (k+1)/(2 alpha) log(1+tau^2)
        and c_k = (k+1)/alpha * arctan(tau) - k pi/2.  Each partial is a
        cosine part and a sine part; ``trig`` is their sum over the envelope
        factor, the sum of the absolute values of their coefficients.
        """
        k, a, tau = self._k, self.alpha, self.tau
        u = 1.0 + tau * tau
        theta = np.arctan(tau)
        sink = np.sin((k + 1.0) / a * theta - k * np.pi / 2.0)
        psi = special.digamma((k + 1.0) / a)
        # d/d alpha at fixed tau: 1/alpha prefactor, gammaln, modulus, phase
        cos_a = -1.0 / a + (k + 1.0) / a ** 2 * (0.5 * np.log1p(tau * tau) - psi)
        sin_a = (k + 1.0) * theta / a ** 2
        # d/d tau: modulus and phase
        cos_t = -(k + 1.0) * tau / (a * u)
        sin_t = -(k + 1.0) / (a * u)
        out = {}
        for quantity, own in (("dalpha", 1.0), ("dbeta", 0.0)):
            dt = self.dtau[quantity]
            c, s_ = own * cos_a + dt * cos_t, own * sin_a + dt * sin_t
            mag = np.maximum(own * (np.abs(cos_a) + np.abs(sin_a))
                             + abs(dt) * (np.abs(cos_t) + np.abs(sin_t)), 1e-300)
            out[quantity] = (np.log(mag), (c * self._cosk + s_ * sink) / mag)
        return out


def tail_constant(alpha: float, beta: float, side: int) -> float:
    """Constant K with f(x) ~ K |x|^(-alpha-1) as x -> side * infinity.

    It is the tail series' first term, 0 at side * beta = -1.  For alpha = 1
    the expansion coefficients degenerate and the known value
    (1 + side*beta)/pi is returned instead.
    """
    if alpha == 1.0:
        return (1.0 + side * beta) / np.pi
    return TailSeriesSide(alpha, side * beta, 1).constant
