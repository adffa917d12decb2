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

Evaluations accept a term cap so dispatchers can run a cheap first pass and
re-evaluate only the points that failed to certify.
"""

from __future__ import annotations

import numpy as np
from scipy import special

_EPS = np.finfo(float).eps
# Remainder safety multipliers, calibrated against the quadrature oracle.
_ASYM_SAFETY = 8.0
_ROUNDOFF_SAFETY = 8.0
_RATIO_CAP = 0.95


def skew_shift(alpha: float, beta: float) -> float:
    """Shift tau = beta * tan(alpha*pi/2); 0 at beta = 0 regardless of alpha."""
    if beta == 0.0:
        return 0.0
    return beta * np.tan(np.pi * alpha / 2.0)


def _certified_sum(env, terms, tol, ratio=None, usable=True):
    """Truncated sum of a series with a certified error, per column.

    ``terms`` and their envelopes ``env`` have shape (k, points).  Without
    ``ratio`` the series is asymptotic: stop at the first envelope below
    tol/_ASYM_SAFETY, else at the minimal one, and charge _ASYM_SAFETY times
    the stopping envelope.  With ``ratio`` (env_{k+1}/env_k) it converges:
    stop at the first ``usable`` term below the threshold whose ratio
    contracts and bound the rest geometrically; a column with no such term
    before the cap certifies nothing.  Returns (value, remainder + roundoff).
    """
    tol_eff = tol / _ASYM_SAFETY

    def at(a, k):
        return np.take_along_axis(a, k[None, :], 0)[0]

    if ratio is None:
        small = env <= tol_eff
        kstop = np.where(small.any(axis=0), np.argmax(small, axis=0),
                         np.argmin(env, axis=0))
        remainder = _ASYM_SAFETY * at(env, kstop)
    else:
        ok = (env <= tol_eff) & (ratio < _RATIO_CAP) & usable
        ok[-1, :] = False  # cannot certify at the term cap
        found = ok.any(axis=0)
        kstop = np.where(found, np.argmax(ok, axis=0), env.shape[0] - 1)
        env_stop = at(env, kstop)
        q = np.minimum(at(ratio, kstop), _RATIO_CAP)
        remainder = np.where(found, env_stop * q / (1.0 - q) + env_stop, np.inf)
    value = at(np.cumsum(terms, axis=0), kstop)
    maxenv = at(np.maximum.accumulate(env, axis=0), kstop)
    roundoff = _ROUNDOFF_SAFETY * _EPS * maxenv * np.maximum(kstop + 1, 8)
    return value, remainder + roundoff


class TailSeriesSide:
    """Tail expansion coefficients for one side (argument r = y > 0)."""

    def __init__(self, alpha: float, beta: float, kmax: int):
        self.alpha = alpha
        self.beta = beta
        self.kmax = kmax
        tau = skew_shift(alpha, beta)
        self.tau = tau
        k = np.arange(1, kmax + 1, dtype=float)
        self._k = k
        # log of |k-th coefficient| without the r-power, and its sign pattern
        self._logcoef = (
            special.gammaln(k * alpha + 1.0)
            - special.gammaln(k + 1.0)
            + 0.5 * k * np.log1p(tau * tau)
        )
        self._sink = np.sin(k * (np.arctan(tau) + alpha * np.pi / 2.0)) * (-1.0) ** (k + 1)
        # envelope ratio env_{k+1}/env_k before the r-power part
        self._logratio_coef = np.diff(self._logcoef, append=np.inf)

    def leading_constant(self) -> float:
        """Constant K in f(y) ~ K y^(-alpha-1) on this side (may be 0 at beta = -1)."""
        return float(np.exp(self._logcoef[0]) * self._sink[0] / np.pi)

    def _assemble(self, r, power_slope, power_off, extra_logmag, extra_sign, tol, kcap):
        """Sum sign * exp(logmag) * sin_k with certification.

        The k-th term magnitude is coef_k * r**(-(power_slope*k + power_off)).
        """
        r = np.asarray(r, dtype=float)
        nk = self.kmax if kcap is None else min(kcap, self.kmax)
        logr = np.where(r > 0.0, np.log(np.where(r > 0.0, r, 1.0)), 0.0)
        if kcap is None and r.size:
            # slice the term budget to what the slowest point can ever use
            worst = float(logr.min())
            probe = (self._logcoef[:nk]
                     - (power_slope * self._k[:nk] + power_off) * worst
                     + (extra_logmag[:nk] if extra_logmag is not None else 0.0))
            done = probe <= np.log(tol / (_ASYM_SAFETY * 10.0) * np.pi + 1e-300)
            if done.any():
                nk = min(nk, max(int(np.argmax(done)) + 2, 8))
        k = self._k[:nk]
        logpow = -(power_slope * k + power_off)
        logmag = (self._logcoef[:nk, None] + extra_logmag[:nk, None]
                  + logpow[:, None] * logr[None, :])
        env = np.exp(np.minimum(logmag, 700.0)) / np.pi
        terms = env * (self._sink[:nk] * extra_sign)[:, None]
        ratio = None
        if self.alpha <= 1.0:
            # convergent mode: the contraction ratio bounds the tail
            ratio = np.exp(np.clip(self._logratio_coef[:nk, None]
                                   - power_slope * logr[None, :], -745.0, 700.0))
        value, err = _certified_sum(env, terms, tol, ratio)
        bad = ~np.isfinite(value) | (r <= 0.0)
        return np.where(bad, 0.0, value), np.where(bad, np.inf, err)

    def fold_sum(self, q0, period, n_terms: int = 4, deriv: bool = False):
        """Sum of the series over the lattice (q0 + j) * period, j >= 0.

        Used to remove aliasing folds from FFT inversions: summing each series
        term over the lattice gives a Hurwitz zeta in closed form.  Returns
        (value, error) where the error is the first omitted term's lattice sum.
        """
        q0 = np.asarray(q0, dtype=float)
        n_terms = min(n_terms, self.kmax - 1)
        out = np.zeros_like(q0)
        for j in range(n_terms + 1):
            expo = self._k[j] * self.alpha + (2.0 if deriv else 1.0)
            mag = np.exp(self._logcoef[j] - expo * np.log(period)) / np.pi
            if deriv:
                mag *= self._k[j] * self.alpha + 1.0
            term = mag * special.zeta(expo, q0)
            if j < n_terms:
                sgn = self._sink[j] * (-1.0 if deriv else 1.0)
                out += sgn * term
            else:
                return out, float(np.max(term)) * 1.5
        return out, np.inf

    def pdf(self, r, tol, kcap=None):
        """Density terms r^(-k*alpha-1); returns (value, certified abs error)."""
        extra = np.zeros(self.kmax)
        return self._assemble(r, self.alpha, 1.0, extra, 1.0, tol, kcap)

    def dpdf(self, r, tol, kcap=None):
        """Derivative d/dr of the density on this side."""
        extra = np.log(self._k * self.alpha + 1.0)
        return self._assemble(r, self.alpha, 2.0, extra, -1.0, tol, kcap)

    def sf(self, r, tol, kcap=None):
        """Upper tail mass: integral of the density from r to infinity."""
        extra = -np.log(self._k * self.alpha)
        return self._assemble(r, self.alpha, 0.0, extra, 1.0, tol, kcap)


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
        k = np.arange(0, kmax + 1, dtype=float)
        self._k = k
        self._logcoef = (
            special.gammaln((k + 1.0) / alpha)
            - special.gammaln(k + 1.0)
            - (k + 1.0) / (2.0 * alpha) * np.log1p(tau * tau)
        )
        self._cosk = np.cos((k + 1.0) / alpha * np.arctan(tau) - k * np.pi / 2.0)
        self._logratio_coef = np.diff(self._logcoef, append=np.inf)

    def _assemble(self, y, shift_pow, extra_logmag, tol, kcap):
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
        env = np.exp(np.minimum(logmag, 700.0)) / (self.alpha * np.pi)
        terms = env * sign * self._cosk[:nk, None]
        ratio = np.exp(np.clip(self._logratio_coef[:nk, None] + logay[None, :],
                               -745.0, 700.0))
        value, err = _certified_sum(env, terms, tol, ratio, usable=valid_k[:, None])
        bad = ~np.isfinite(value)
        return np.where(bad, 0.0, value), np.where(bad, np.inf, err)

    def pdf(self, y, tol, kcap=None):
        """Density at shifted argument y; returns (value, certified abs error)."""
        extra = np.zeros(self.kmax + 1)
        return self._assemble(y, 0.0, extra, tol, kcap)

    def dpdf(self, y, tol, kcap=None):
        """Derivative d/dy of the density."""
        extra = np.where(self._k > 0, np.log(np.where(self._k > 0, self._k, 1.0)), -np.inf)
        return self._assemble(y, -1.0, extra, tol, kcap)


def tail_constant(alpha: float, beta: float, side: int, kmax: int = 8) -> float:
    """Constant K with f(x) ~ K |x|^(-alpha-1) as x -> side * infinity.

    For alpha = 1 the expansion coefficients degenerate and the known value
    (1 + side*beta)/pi is returned instead.
    """
    if alpha == 1.0:
        return (1.0 + (beta if side > 0 else -beta)) / np.pi
    b = beta if side > 0 else -beta
    return TailSeriesSide(alpha, b, kmax).leading_constant()
