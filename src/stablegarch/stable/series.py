"""Series expansions of the standardized stable density.

Two expansions are used, both written in the shifted variable y = x + tau
with tau = beta * tan(alpha*pi/2):

* a tail expansion in inverse powers |y|^(-k*alpha-1), convergent for
  alpha <= 1 and asymptotic (truncated at the minimal-magnitude term) for
  alpha > 1; it is valid as printed on the side y > 0, the other side is
  obtained from the parity f(x, alpha, beta) = f(-x, alpha, -beta);
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

Evaluations accept a term cap so dispatchers can run a cheap first pass and
re-evaluate only the points that failed to certify.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy import special

_EPS = np.finfo(float).eps
# Remainder safety multipliers, calibrated against the quadrature oracle.
_ASYM_SAFETY = 8.0
_ROUNDOFF_SAFETY = 8.0
_RATIO_CAP = 0.95
# Tail-series terms that FFT aliasing removal sums over all folds.
_NEAR_FOLDS = 4
# Lattice terms ``log_zeta`` sums directly before its Euler-Maclaurin tail.
_ZETA_DIRECT = 10
# Envelopes are floored at exp(-700): flooring only loosens a bound, and exp
# of smaller arguments takes a subnormal path many times slower.
_LOG_FLOOR = -700.0


def skew_shift(alpha: float, beta: float) -> float:
    """Shift tau = beta * tan(alpha*pi/2); 0 at beta = 0 regardless of alpha."""
    if beta == 0.0:
        return 0.0
    return beta * np.tan(np.pi * alpha / 2.0)


def shift_partials(alpha: float, beta: float) -> dict:
    """d tau/d alpha and d tau/d beta of tau = beta tan(alpha pi/2), by quantity."""
    return {"dalpha": beta * (np.pi / 2.0) / np.cos(np.pi * alpha / 2.0) ** 2,
            "dbeta": np.tan(np.pi * alpha / 2.0)}


def _certified_sum(env, terms, tol, ratio=None, usable=True):
    """Truncated sum of a series with a certified error, per column.

    ``terms`` and their envelopes ``env`` have shape (k, points).  Without
    ``ratio`` the series is asymptotic: it is summed up to its minimal
    envelope (optimal truncation), and _ASYM_SAFETY times that envelope is
    charged.  With ``ratio`` = (a_k, b_n), where a_k + b_n bounds
    log(env_{j+1}/env_j) for every j >= k in column n, it converges: it
    certifies from the first ``usable`` term below tol/_ASYM_SAFETY whose
    ratio contracts, every given term is summed, and the rest is bounded
    geometrically from the last one; a column with no such term before the
    cap certifies nothing.  Summing past the point where the tolerance is
    met costs nothing (the terms are computed anyway), keeps the value from
    jumping when the parameters move that point, and leaves f' an error well
    below the tolerance: the shape partials' shift term tau_q * f' carries
    |tau_q| times that error, and with stops at the first certifying term
    it rarely certified (the i.i.d. Cauchy fit of the test suite, alpha
    near 1, took 379 s against 23 s on a 2-CPU machine).  Returns
    (value, remainder + roundoff).
    """
    nk = env.shape[0]
    if ratio is None:
        kstop = np.argmin(env, axis=0)
        env_stop = np.take_along_axis(env, kstop[None, :], 0)[0]
        remainder = _ASYM_SAFETY * env_stop
    else:
        log_k, log_n = ratio
        contracts = log_n[None, :] < (np.log(_RATIO_CAP) - log_k)[:, None]
        ok = (env <= tol / _ASYM_SAFETY) & contracts & usable
        ok[-1, :] = False  # cannot certify at the term cap
        found = ok.any(axis=0)
        k0 = np.argmax(ok, axis=0)
        q = np.exp(np.clip(log_k[k0] + log_n, _LOG_FLOOR, np.log(_RATIO_CAP)))
        kstop = np.full(env.shape[1], nk - 1)
        env_stop = env[-1]
        remainder = np.where(found, env_stop * q / (1.0 - q) + env_stop, np.inf)
    value = np.take_along_axis(np.cumsum(terms, axis=0), kstop[None, :], 0)[0]
    if ratio is None:
        maxenv = (env * (np.arange(nk)[:, None] <= kstop[None, :])).max(axis=0)
    else:
        maxenv = env.max(axis=0)
    roundoff = _ROUNDOFF_SAFETY * _EPS * maxenv * np.maximum(kstop + 1, 8)
    return value, remainder + roundoff


def _contraction(logterm, log_slope_growth=None):
    """Per-term log ratio bound for convergent series: suffix max of the diffs.

    ``logterm`` holds the log envelope factors per term; entry k of the result
    bounds log(env_{j+1}/env_j) for every j >= k inside the array, so the
    geometric remainder bound holds even where the factors are not monotone.
    """
    d = np.diff(logterm)
    if log_slope_growth is not None:
        d = d + log_slope_growth
    d = np.maximum.accumulate(d[::-1])[::-1]
    return np.append(d, np.inf)


def log_zeta(s, q):
    """Z(s, q) = sum_{n >= 0} log(q + n) (q + n)^(-s), i.e. -d zeta(s, q)/ds.

    The first ``_ZETA_DIRECT`` terms are summed directly and the rest by
    Euler-Maclaurin with the B2 and B4 corrections.  The remainder is at most
    (1/720) * int_a^inf |h^(4)| with h(v) = log(v) v^(-s) and
    a = q + _ZETA_DIRECT; writing h^(4) = v^(-s-4) (A log v + B) bounds that
    integral in closed form.
    ``s`` (each > 1) has shape (m, 1) and ``q`` shape (points,); returns
    (value, bound) of shape (m, points).
    """
    q = np.asarray(q, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        logv = np.log(q[None, :] + np.arange(_ZETA_DIRECT)[:, None])
        direct = np.sum(logv * np.exp(-s[:, :, None] * logv), axis=1)
        a = q + _ZETA_DIRECT
        la = np.log(a)
        # h^(n)(v) = v^(-s-n) (A_n log v + B_n), A_0 = 1, B_0 = 0
        coefs = [(1.0, 0.0)]
        for n in range(4):
            A, B = coefs[-1]
            m = s + n
            coefs.append((-m * A, -m * B + A))

        def h(n):
            A, B = coefs[n]
            return a ** (-s - n) * (A * la + B)

        integral = a ** (1.0 - s) * (la / (s - 1.0) + 1.0 / (s - 1.0) ** 2)
        value = direct + integral + h(0) / 2.0 - h(1) / 12.0 + h(3) / 720.0
        A4, B4 = coefs[4]
        m = s + 3.0
        bound = (np.abs(A4) * a ** -m * (la / m + 1.0 / m ** 2) + np.abs(B4) * a ** -m / m) / 720.0
    return value, bound


class TailSeriesSide:
    """Tail expansion coefficients for one side (argument r = y > 0)."""

    def __init__(self, alpha: float, beta: float, kmax: int):
        self.alpha = alpha
        self.beta = beta
        self.kmax = kmax
        tau = skew_shift(alpha, beta)
        self.tau = tau
        self.dtau = shift_partials(alpha, beta)
        k = np.arange(1, kmax + 1, dtype=float)
        self._k = k
        # log of |k-th coefficient| without the r-power, and its sign pattern
        self._logcoef = (
            special.gammaln(k * alpha + 1.0)
            - special.gammaln(k + 1.0)
            + 0.5 * k * np.log1p(tau * tau)
        )
        self._sink = np.sin(k * (np.arctan(tau) + alpha * np.pi / 2.0)) * (-1.0) ** (k + 1)

    def leading_constant(self) -> float:
        """Constant K in f(y) ~ K y^(-alpha-1) on this side (may be 0 at beta = -1)."""
        return float(np.exp(self._logcoef[0]) * self._sink[0] / np.pi)

    def _assemble(self, r, power_slope, power_off, extra_logmag, sign, tol, kcap,
                  slope=None):
        """Sum sign_k * env_k with certification, env_k its envelope.

        The k-th envelope is coef_k * exp(extra_logmag_k) *
        r**(-(power_slope*k + power_off)), and |sign_k| <= 1.  ``slope`` =
        (s_k, m_k) with |s_k| <= m_k adds s_k * env_k * log(r) to each term
        and m_k * env_k * |log(r)| to its envelope.
        """
        r = np.asarray(r, dtype=float)
        nk = self.kmax if kcap is None else min(kcap, self.kmax)
        logr = np.where(r > 0.0, np.log(np.where(r > 0.0, r, 1.0)), 0.0)
        if kcap is None and r.size:
            # slice the term budget to what the slowest point can ever use
            worst = float(logr.min())
            probe = (self._logcoef[:nk]
                     - (power_slope * self._k[:nk] + power_off) * worst
                     + extra_logmag[:nk])
            if slope is not None:
                probe = probe + np.log1p(slope[1][:nk] * abs(worst))
            done = probe <= np.log(tol / (_ASYM_SAFETY * 10.0) * np.pi + 1e-300)
            if done.any():
                nk = min(nk, max(int(np.argmax(done)) + 2, 8))
        k = self._k[:nk]
        logpow = -(power_slope * k + power_off)
        logmag = (self._logcoef[:nk, None] + extra_logmag[:nk, None]
                  + logpow[:, None] * logr[None, :])
        env = np.exp(np.clip(logmag, _LOG_FLOOR, 700.0)) / np.pi
        terms = env * sign[:nk, None]
        growth = None
        if slope is not None:
            s_k, m_k = slope[0][:nk, None], slope[1][:nk, None]
            terms += env * s_k * logr[None, :]
            env *= 1.0 + m_k * np.abs(logr)[None, :]
            # (1 + m_{k+1}|log r|) / (1 + m_k |log r|) <= max(1, m_{k+1}/m_k)
            growth = np.maximum(0.0, np.diff(np.log(slope[1])))
        ratio = None
        if self.alpha <= 1.0:
            # convergent mode: the contraction ratio bounds the tail
            ratio = (_contraction(self._logcoef + extra_logmag, growth)[:nk],
                     -power_slope * logr)
        value, err = _certified_sum(env, terms, tol, ratio)
        bad = ~np.isfinite(value) | (r <= 0.0)
        return np.where(bad, 0.0, value), np.where(bad, np.inf, err)

    def fold_sum(self, q0, period, quantity: str = "pdf"):
        """Sum of the series over the lattice (q0 + j) * period, j >= 0.

        Used to remove aliasing folds from FFT inversions: summing each of the
        first ``_NEAR_FOLDS`` series terms over the lattice gives a Hurwitz
        zeta in closed form.  ``quantity`` is "pdf", "dpdf" (d/dr) or a shape
        partial at fixed x, "dalpha" or "dbeta" (this side's own beta): the
        lattice points r_j = x + tau + j * period then move with tau, which
        brings d zeta/d q = -s zeta(s + 1, q), and the alpha partial's
        log(r_j) factor brings Z(s, q) = -d zeta/d s (``log_zeta``).
        Returns (value, error) where the error bounds the first omitted term's
        lattice sum and the Euler-Maclaurin remainders.
        """
        q0 = np.asarray(q0, dtype=float)[None, :]
        n = min(_NEAR_FOLDS, self.kmax - 1) + 1  # the last term only bounds the rest
        s = self._k[:n, None] * self.alpha + 1.0
        logp = np.log(period)
        base = np.exp(self._logcoef[:n, None] - s * logp) / np.pi
        sink = self._sink[:n, None]
        z0 = special.zeta(s, q0)
        em_err = 0.0
        if quantity == "pdf":
            val, mag = sink * (base * z0), base * z0
        else:
            shift = s * base * special.zeta(s + 1.0, q0) / period
            if quantity == "dpdf":
                val, mag = -sink * shift, shift
            else:
                extra, sign, slope = self._shape_coefs[quantity]
                dtau = self.dtau[quantity]
                amag = np.exp(extra[:n, None]) * base
                val = amag * sign[:n, None] * z0 - dtau * sink * shift
                mag = amag * z0 + abs(dtau) * shift
                if slope is not None:
                    lz, lz_err = log_zeta(s, q0[0])
                    logsum = logp * z0 + lz
                    val = val + amag * slope[0][:n, None] * logsum
                    mag = mag + amag * slope[1][:n, None] * np.abs(logsum)
                    em_err = np.sum(amag * slope[1][:n, None] * lz_err, axis=0)
        return val[:-1].sum(axis=0), float(np.max(mag[-1] + em_err)) * 1.5

    @cached_property
    def _shape_coefs(self):
        """(extra_logmag, sign, slope) of the alpha and beta partials at fixed r.

        Term k is e^(L_k) r^(-k alpha - 1) / pi times (-1)^(k+1) times
        sin(k phi), phi = arctan(tau) + alpha pi / 2, and L_k carries
        gammaln(k alpha + 1) and (k/2) log(1 + tau^2).  At fixed tau,
        d/d alpha gives k psi(k alpha + 1) sin + k (pi/2) cos - k log(r) sin,
        and d/d tau gives k (tau sin + cos) / (1 + tau^2); tau moves with
        alpha and beta through ``dtau``.
        """
        k, tau = self._k, self.tau
        u = 1.0 + tau * tau
        cosk = np.cos(k * (np.arctan(tau) + self.alpha * np.pi / 2.0)) * (-1.0) ** (k + 1)
        d_tau = k * (tau * self._sink + cosk) / u
        d_tau_mag = k * (abs(tau) + 1.0) / u
        psi = special.digamma(k * self.alpha + 1.0)
        ta, tb = self.dtau["dalpha"], self.dtau["dbeta"]
        a_val = k * psi * self._sink + k * (np.pi / 2.0) * cosk + ta * d_tau
        a_mag = k * (np.abs(psi) + np.pi / 2.0) + abs(ta) * d_tau_mag
        b_mag = np.maximum(abs(tb) * d_tau_mag, 1e-300)
        return {
            "dalpha": (np.log(a_mag), a_val / a_mag, (-k * self._sink / a_mag, k / a_mag)),
            "dbeta": (np.log(b_mag), tb * d_tau / b_mag, None),
        }

    def pdf(self, r, tol, kcap=None):
        """Density terms r^(-k*alpha-1); returns (value, certified abs error)."""
        extra = np.zeros(self.kmax)
        return self._assemble(r, self.alpha, 1.0, extra, self._sink, tol, kcap)

    def dpdf(self, r, tol, kcap=None):
        """Derivative d/dr of the density on this side."""
        extra = np.log(self._k * self.alpha + 1.0)
        return self._assemble(r, self.alpha, 2.0, extra, -self._sink, tol, kcap)

    def sf(self, r, tol, kcap=None):
        """Upper tail mass: integral of the density from r to infinity."""
        extra = -np.log(self._k * self.alpha)
        return self._assemble(r, self.alpha, 0.0, extra, self._sink, tol, kcap)

    def partial(self, r, tol, kcap, quantity: str):
        """"dalpha" or "dbeta" (this side's own beta) of the density at fixed r."""
        extra, sign, slope = self._shape_coefs[quantity]
        return self._assemble(r, self.alpha, 1.0, extra, sign, tol, kcap, slope)


class CenterSeries:
    """Taylor expansion of the density in y = x + tau (alpha > 1, or Cauchy)."""

    def __init__(self, alpha: float, beta: float, kmax: int):
        if not (alpha > 1.0 or (alpha == 1.0 and beta == 0.0)):
            raise ValueError("center series requires alpha > 1 (or alpha = 1, beta = 0)")
        self.alpha = alpha
        self.beta = beta
        self.kmax = kmax
        tau = skew_shift(alpha, beta)
        self.tau = tau
        self.dtau = shift_partials(alpha, beta)
        k = np.arange(0, kmax + 1, dtype=float)
        self._k = k
        self._logcoef = (
            special.gammaln((k + 1.0) / alpha)
            - special.gammaln(k + 1.0)
            - (k + 1.0) / (2.0 * alpha) * np.log1p(tau * tau)
        )
        self._cosk = np.cos((k + 1.0) / alpha * np.arctan(tau) - k * np.pi / 2.0)

    def _assemble(self, y, shift_pow, extra_logmag, trig, tol, kcap):
        y = np.asarray(y, dtype=float)
        ay = np.abs(y)
        logay = np.where(ay > 0.0, np.log(np.where(ay > 0.0, ay, 1.0)), -745.0)
        nk = (self.kmax + 1) if kcap is None else min(kcap, self.kmax + 1)
        if kcap is None and ay.size:
            worst = float(logay.max())
            probe = (self._logcoef[:nk] + self._k[:nk] * worst
                     + np.nan_to_num(extra_logmag[:nk], neginf=0.0))
            done = probe <= np.log(tol / (_ASYM_SAFETY * 10.0) * self.alpha * np.pi
                                   + 1e-300)
            done[:4] = False  # envelopes can start below threshold near k = 0
            if done.any():
                nk = min(nk, max(int(np.argmax(done)) + 2, 8))
        k = self._k[:nk]
        kp = k + shift_pow
        valid_k = kp >= 0.0
        logmag = (self._logcoef[:nk, None] + extra_logmag[:nk, None]
                  + np.where(valid_k, kp, 0.0)[:, None] * logay[None, :])
        logmag = np.where(valid_k[:, None], logmag, -np.inf)
        # y^kp sign for negative y
        neg = (y < 0.0)[None, :] & (np.mod(kp, 2.0) == 1.0)[:, None]
        sign = np.where(neg, -1.0, 1.0)
        # kp = 0 keeps the bare coefficient even at y = 0
        zero_fix = (kp == 0.0)[:, None] & (ay == 0.0)[None, :]
        logmag = np.where(zero_fix, (self._logcoef[:nk] + extra_logmag[:nk])[:, None], logmag)
        env = np.exp(np.clip(logmag, _LOG_FLOOR, 700.0)) / (self.alpha * np.pi)
        terms = env * sign * trig[:nk, None]
        ratio = (_contraction(self._logcoef + extra_logmag)[:nk], logay)
        value, err = _certified_sum(env, terms, tol, ratio, usable=valid_k[:, None])
        bad = ~np.isfinite(value)
        return np.where(bad, 0.0, value), np.where(bad, np.inf, err)

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

    def pdf(self, y, tol, kcap=None):
        """Density at shifted argument y; returns (value, certified abs error)."""
        extra = np.zeros(self.kmax + 1)
        return self._assemble(y, 0.0, extra, self._cosk, tol, kcap)

    def dpdf(self, y, tol, kcap=None):
        """Derivative d/dy of the density."""
        extra = np.where(self._k > 0, np.log(np.where(self._k > 0, self._k, 1.0)), -np.inf)
        return self._assemble(y, -1.0, extra, self._cosk, tol, kcap)

    def partial(self, y, tol, kcap, quantity: str):
        """"dalpha" or "dbeta" of the density at fixed y."""
        extra, trig = self._shape_coefs[quantity]
        return self._assemble(y, 0.0, extra, trig, tol, kcap)


def tail_constant(alpha: float, beta: float, side: int) -> float:
    """Constant K with f(x) ~ K |x|^(-alpha-1) as x -> side * infinity.

    For alpha = 1 the expansion coefficients degenerate and the known value
    (1 + side*beta)/pi is returned instead.
    """
    if alpha == 1.0:
        return (1.0 + (beta if side > 0 else -beta)) / np.pi
    b = beta if side > 0 else -beta
    return TailSeriesSide(alpha, b, 8).leading_constant()
