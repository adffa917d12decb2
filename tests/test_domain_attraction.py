"""Generalized-CLT constants, summed innovations and calibration tests."""

import math

import numpy as np
import pytest
from scipy import special, stats

from conftest import ks_distance
from stablegarch.domain_attraction import (
    GcltSpec,
    SummedInnovationSpec,
    calibrate_jK,
    density_sup_distance,
    fit_stable_iid,
    gclt_constants,
    gclt_limit_params,
    student_gclt_spec,
    student_tail_constant,
    summed_innovations,
)
from stablegarch.stable import StableParams, cdf, sample


class TestGcltConstants:
    def test_symmetric_tails_give_beta_zero(self):
        c = gclt_constants(GcltSpec(1.5, 0.4, 0.4))
        assert c.beta == 0.0

    def test_branches(self):
        spec = GcltSpec(0.6, 1.0, 1.0)
        c = gclt_constants(spec)
        want = (-0.6 * (-special.gamma(0.4) / 0.6) * 2.0
                * np.cos(0.3 * np.pi)) ** (1 / 0.6)
        assert c.a == pytest.approx(want, rel=1e-12)
        assert c.m_rule == "uncentered"
        c2 = gclt_constants(GcltSpec(1.5, 1.0, 1.0))
        want2 = (-1.5 * (special.gamma(0.5) / (1.5 * 0.5)) * 2.0
                 * np.cos(0.75 * np.pi)) ** (1 / 1.5)
        assert c2.a == pytest.approx(want2, rel=1e-12)
        assert c2.m_rule == "centered"

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            GcltSpec(1.0, 1.0, 1.0)

    def test_scale_continuity_across_grid(self):
        # a^alpha = pi (K1 + K2) / (2 Gamma(alpha) sin(alpha pi / 2)), which
        # diverges like (2 - alpha)^(-1/2) as alpha -> 2; a * sqrt(2 - alpha)
        # is the smooth quantity
        alphas = np.linspace(1.05, 1.95, 19)
        vals = np.array([gclt_constants(student_gclt_spec(a)).a for a in alphas])
        k = np.array([student_tail_constant(a) for a in alphas])
        closed = (np.pi * 2.0 * k / (2.0 * special.gamma(alphas)
                                     * np.sin(alphas * np.pi / 2.0))) ** (1.0 / alphas)
        np.testing.assert_allclose(vals, closed, rtol=1e-12, atol=0)
        smooth = vals * np.sqrt(2.0 - alphas)
        rel_jumps = np.abs(np.diff(smooth)) / smooth[:-1]
        assert rel_jumps.max() < 0.05

    def test_student_tail_constant_matches_numeric_tail(self):
        # oracle: the survival-function ratio limit of the t distribution
        for alpha in (1.4, 1.6, 1.9):
            k = student_tail_constant(alpha)
            for x in (200.0, 800.0):
                ratio = stats.t.sf(x, df=alpha) / (k * x ** (-alpha))
                assert ratio == pytest.approx(1.0, rel=0.02)

    def test_normalized_student_sums_match_stable_limit(self):
        # draws of sums of K Student variables, divided by a K^(1/alpha),
        # pass a KS test against S(alpha, 0, 0, 1)
        alpha = 1.5
        a = gclt_constants(student_gclt_spec(alpha)).a
        rng = np.random.default_rng(3)
        k, m = 4000, 4000
        sums = rng.standard_t(alpha, size=(m, k)).sum(axis=1)
        z = np.sort(sums / (a * k ** (1 / alpha)))
        F = cdf(z, StableParams(alpha, 0.0))
        assert ks_distance(z, F) < 1.63 / np.sqrt(m) * 1.5


class TestSummedInnovations:
    def test_k_one_is_plain_student(self):
        spec = SummedInnovationSpec(alpha=1.6, K=1, jK=1.0)
        got = summed_innovations(spec, 1000, seed=5)
        want = np.random.default_rng(5).standard_t(1.6, size=(1000, 1)).sum(axis=1)
        np.testing.assert_allclose(got, want)

    def test_deterministic(self):
        spec = SummedInnovationSpec(alpha=1.6, K=10, jK=1.2)
        np.testing.assert_allclose(summed_innovations(spec, 64, seed=1),
                                   summed_innovations(spec, 64, seed=1))

    def test_infinite_k_draws_from_limit(self):
        a = gclt_constants(student_gclt_spec(1.6)).a
        spec = SummedInnovationSpec(alpha=1.6, K=math.inf, jK=a)
        z = np.sort(summed_innovations(spec, 10 ** 5, seed=7))
        F = cdf(z, StableParams(1.6, 0.0))
        assert ks_distance(z, F) < 1.63 / np.sqrt(z.size)

    def test_convergence_in_k(self):
        # the KS distance to the stable limit shrinks as K grows
        alpha = 1.6
        a = gclt_constants(student_gclt_spec(alpha)).a
        limit = StableParams(alpha, 0.0)
        dists = {}
        for k in (10, 10 ** 4):
            spec = SummedInnovationSpec(alpha=alpha, K=k, jK=a)
            z = np.sort(summed_innovations(spec, 20000, seed=11))
            dists[k] = ks_distance(z, cdf(z, limit))
        assert dists[10 ** 4] < dists[10]


class TestIidFit:
    def test_recovers_stable_sample(self):
        psi = StableParams(1.6, 0.2, 0.3, 1.4)
        x = sample(psi, 4000, seed=13)
        est, converged = fit_stable_iid(x)
        assert converged
        assert est.alpha == pytest.approx(1.6, abs=0.1)
        assert est.beta == pytest.approx(0.2, abs=0.15)
        assert est.mu == pytest.approx(0.3, abs=0.12)
        assert est.gamma == pytest.approx(1.4, rel=0.08)


class TestCalibration:
    def test_k_one_reproducible_across_reps(self, tmp_path):
        j1 = calibrate_jK(1.6, 1, samples=800, reps=12, seed=3)
        j2 = calibrate_jK(1.6, 1, samples=800, reps=12, seed=4)
        assert j1 == pytest.approx(j2, rel=0.05)
        # a Student draw is wider than the unit stable law
        assert 1.0 < j1 < 2.0

    def test_large_k_approaches_limit_scale(self):
        a = gclt_constants(student_gclt_spec(1.6)).a
        jk = calibrate_jK(1.6, 10 ** 4, samples=1500, reps=12, seed=9)
        assert jk == pytest.approx(a, rel=0.05)

    def test_infinite_k_is_exact(self):
        a = gclt_constants(student_gclt_spec(1.6)).a
        assert calibrate_jK(1.6, math.inf, reps=10, seed=0) == pytest.approx(a)

    def test_cache_round_trip(self, tmp_path):
        cache = tmp_path / "jk.json"
        j1 = calibrate_jK(1.6, 1, samples=400, reps=10, seed=5, cache_path=str(cache))
        assert cache.exists()
        j2 = calibrate_jK(1.6, 1, samples=400, reps=10, seed=5, cache_path=str(cache))
        assert j1 == j2

    def test_requires_min_reps(self):
        with pytest.raises(ValueError):
            calibrate_jK(1.6, 1, reps=5)


class TestDensitySupDistance:
    def test_self_distance_small(self):
        psi = StableParams(1.6, 0.0)
        x = sample(psi, 3 * 10 ** 5, seed=17)
        d = density_sup_distance(x, psi, delta=0.0)
        # KDE noise floor at this sample size
        assert d < 0.01

    def test_delta_zero_is_plain_sup(self):
        psi = StableParams(1.5, 0.0)
        x = sample(psi, 20000, seed=19)
        d0 = density_sup_distance(x, psi, delta=0.0)
        dw = density_sup_distance(x, psi, delta=psi.alpha)
        assert dw >= d0 * 0.99

    def test_delta_beyond_alpha_rejected(self):
        psi = StableParams(1.5, 0.0)
        with pytest.raises(ValueError):
            density_sup_distance(np.zeros(100), psi, delta=1.8)

    def test_distance_decreases_with_k(self):
        alpha = 1.6
        limit = StableParams(alpha, 0.0)
        a = gclt_constants(student_gclt_spec(alpha)).a
        wins = 0
        for seed in range(5):
            d = {}
            for k in (10, 1000):
                spec = SummedInnovationSpec(alpha=alpha, K=k, jK=a)
                x = summed_innovations(spec, 30000, seed=100 + seed)
                d[k] = density_sup_distance(x, limit, delta=0.0)
            wins += d[1000] < d[10]
        assert wins >= 3
