"""Likelihood, score, fitting and information-matrix tests."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from stablegarch.data import ReturnSeries
from stablegarch.errors import NonFiniteLikelihood, NotConverged
from stablegarch.garch import GarchParams, simulate, volatility_path
from stablegarch.estimate import (
    BoundsConfig,
    FitResult,
    ModelParams,
    compute_Jn,
    fit_gaussian_qmle,
    fit_stable_mle,
    loglik_terms,
    neg_log_likelihood,
    outer_product_information,
    score_full,
)
from stablegarch.estimate.likelihood import likelihood_and_score
from stablegarch.stable import DensityAccuracy, StableParams, sample

THETA0 = GarchParams(0.01, a=(0.02,), b=(0.7,))
TAU0 = ModelParams(THETA0, 1.6, 0.0, 0.0)
TIGHT = DensityAccuracy(abs_tol=1e-10)


def _sim(n, seed, alpha=1.6):
    eps, _ = simulate(THETA0, StableParams(alpha, 0.0), n=n, burn_in=400, seed=seed)
    return eps


def fit_or_best(eps, **kw):
    """Fit, accepting a near-converged best point when the line search stalls."""
    try:
        return fit_stable_mle(eps, **kw)
    except NotConverged as exc:
        assert exc.result.grad_norm < 1e-3
        return exc.result


class TestNegLogLikelihood:
    def test_cauchy_iid_closed_form(self):
        # constant volatility sqrt(c) with Cauchy innovations
        c = 0.25
        rng = np.random.default_rng(5)
        eps = ReturnSeries(rng.standard_cauchy(500) * np.sqrt(c))
        tau = ModelParams(GarchParams(c, a=(0.0,), b=(0.0,)), 1.0, 0.0, 0.0)
        got = neg_log_likelihood(eps, tau, TIGHT)
        eta = eps.values / np.sqrt(c)
        want = 0.5 * np.log(c) - np.mean(np.log(1.0 / (np.pi * (1 + eta ** 2))))
        assert got == pytest.approx(want, abs=1e-9)

    def test_scale_reparameterization_anchor(self):
        # scaling the data by s moves only the level: eps -> s*eps with
        # omega -> s^2*omega leaves the standardized residuals unchanged
        # (the squared-return lags already carry s^2), so the criterion
        # shifts by exactly log s
        eps = _sim(400, 3)
        s = 2.5
        scaled = ReturnSeries(eps.values * s)
        theta_s = GarchParams(THETA0.omega * s ** 2, a=THETA0.a, b=THETA0.b)
        tau_s = ModelParams(theta_s, 1.6, 0.0, 0.0)
        base = neg_log_likelihood(eps, TAU0, TIGHT)
        moved = neg_log_likelihood(scaled, tau_s, TIGHT)
        assert moved == pytest.approx(base + np.log(s), abs=1e-9)

    def test_innovation_scale_reparameterization(self):
        # innovations of scale g are absorbed as (omega, a) -> (g^2 omega,
        # g^2 a) with b untouched, since the fit pins the scale to one
        g = 1.5
        eps, _ = simulate(THETA0, StableParams(1.6, 0.0, 0.0, g), n=4000,
                          burn_in=400, seed=47)
        fit = fit_or_best(eps, seed=0, n_starts=2)
        target = np.array([THETA0.omega * g ** 2, THETA0.a[0] * g ** 2, THETA0.b[0]])
        for e, t, se in zip(fit.param_array()[:3], target, fit.std_errors[:3]):
            assert abs(e - t) < 5 * se

    def test_true_parameters_beat_perturbations(self):
        # consistency signature at n = 1e4 across 20 seeds
        wins = 0
        perturbed = ModelParams(GarchParams(0.013, a=(0.05,), b=(0.62,)), 1.45, 0.15, 0.08)
        for seed in range(20):
            eps = _sim(10 ** 4, 100 + seed)
            if neg_log_likelihood(eps, TAU0) < neg_log_likelihood(eps, perturbed):
                wins += 1
        assert wins >= 18

    def test_fused_path_matches_parts(self):
        eps = _sim(500, 8)
        tau = ModelParams(THETA0, 1.55, 0.1, 0.02)
        f, g = likelihood_and_score(eps, tau)
        assert f == pytest.approx(neg_log_likelihood(eps, tau), abs=1e-12)
        assert_allclose(g, score_full(eps, tau), atol=1e-12)


class TestScoreTheta:
    def test_matches_fd_at_degenerate_dynamics(self):
        rng = np.random.default_rng(2)
        eps = ReturnSeries(sample(StableParams(1.5, 0.0), 400, rng) * 0.3)
        tau = ModelParams(GarchParams(0.09, a=(0.0,), b=(0.0,)), 1.5, 0.0, 0.0)
        g = score_full(eps, tau, TIGHT)[:3]
        h = 1e-6
        arr = tau.as_array()

        def nll_at(j, step):
            moved = arr.copy()
            moved[j] += step
            return neg_log_likelihood(eps, ModelParams.from_array(moved, tau.order), TIGHT)

        # omega is interior: central difference
        fd = (nll_at(0, h) - nll_at(0, -h)) / (2 * h)
        assert g[0] == pytest.approx(fd, rel=1e-4, abs=1e-7)
        # a and b sit on their lower bound 0, where negative lags are not
        # parameters: third-order forward stencil inside the parameter space
        for j in (1, 2):
            f0, f1, f2, f3 = (nll_at(j, k * h) for k in range(4))
            fd = (-11 * f0 + 18 * f1 - 9 * f2 + 2 * f3) / (6 * h)
            assert g[j] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_full_score_matches_fd_on_garch_data(self):
        eps = _sim(300, 4)
        tau = ModelParams(THETA0, 1.6, 0.1, 0.05)
        g = score_full(eps, tau, TIGHT)
        arr = tau.as_array()
        h = 1e-5
        fd = np.empty(6)
        for j in range(6):
            hi, lo = arr.copy(), arr.copy()
            hi[j] += h
            lo[j] -= h
            fd[j] = (neg_log_likelihood(eps, ModelParams.from_array(hi, tau.order), TIGHT)
                     - neg_log_likelihood(eps, ModelParams.from_array(lo, tau.order), TIGHT)) / (2 * h)
        assert_allclose(g, fd, rtol=2e-4, atol=1e-6)

    def test_mean_z_vanishes_at_truth(self):
        # E[Z_t] = 1 + E[eta f'/f] = 0 at the data-generating parameters
        eps = _sim(10 ** 5, 11)
        # the mu-column of the score rows is f'/f at the residuals
        _, rows = loglik_terms(eps, TAU0)
        eta = eps.values / np.sqrt(volatility_path(eps, THETA0).sigma2)
        z = 1.0 + eta * rows[:, -1]
        se = z.std(ddof=1) / np.sqrt(z.size)
        assert abs(z.mean()) < 3 * se

    def test_sign_flip_invariance_when_symmetric(self):
        eps = _sim(300, 6)
        flipped = ReturnSeries(-eps.values)
        g1 = score_full(eps, TAU0)[:3]
        g2 = score_full(flipped, TAU0)[:3]
        assert_allclose(g1, g2, atol=1e-13)


class TestFitStable:
    def test_recovers_simulated_parameters(self):
        eps = _sim(2000, 1)
        fit = fit_stable_mle(eps, seed=0)
        assert fit.converged
        est = fit.param_array()
        truth = TAU0.as_array()
        for name, e, t, se in zip(fit.names(), est, truth, fit.std_errors):
            assert abs(e - t) < 5 * se + 1e-9, f"{name}: {e} vs {t} (se {se})"

    def test_same_seed_is_deterministic(self):
        eps = _sim(600, 7)
        f1 = fit_or_best(eps, seed=3, n_starts=2, compute_information=False)
        f2 = fit_or_best(eps, seed=3, n_starts=2, compute_information=False)
        assert_allclose(f1.param_array(), f2.param_array(), rtol=0, atol=0)
        assert f1.iterations == f2.iterations

    def test_seed_jitters_starts_not_optimum(self):
        eps = _sim(1200, 13)
        f1 = fit_or_best(eps, seed=0, n_starts=2, compute_information=False)
        f2 = fit_or_best(eps, seed=1, n_starts=2, compute_information=False)
        # both land on the same local minimum to optimizer precision
        assert np.max(np.abs(f1.param_array() - f2.param_array())) < 5e-4
        assert f1.neg_loglik == pytest.approx(f2.neg_loglik, abs=1e-7)

    def test_iid_cauchy_with_locked_dynamics(self):
        rng = np.random.default_rng(21)
        eps = ReturnSeries(sample(StableParams(1.0, 0.0), 10 ** 4, rng))
        bounds = BoundsConfig(
            np.array([1e-8, 0.0, 0.0, 0.4, -0.99, -10.0]),
            np.array([10.0, 0.0, 0.0, 1.99, 0.99, 10.0]))  # a, b frozen at 0
        fit = fit_or_best(eps, bounds=bounds, seed=0, n_starts=3,
                          compute_information=False)
        est = fit.tau_hat
        assert est.alpha == pytest.approx(1.0, abs=0.05)
        assert est.beta == pytest.approx(0.0, abs=0.05)
        assert est.mu == pytest.approx(0.0, abs=0.05)
        assert est.theta.omega == pytest.approx(1.0, rel=0.1)

    def test_scale_equivariance_of_argmin(self):
        eps = _sim(1500, 17)
        s = 3.0
        fit1 = fit_or_best(eps, seed=0, n_starts=2, compute_information=False)
        scaled = ReturnSeries(eps.values * s)
        fit2 = fit_or_best(scaled, seed=0, n_starts=2, compute_information=False)
        m1 = fit1.param_array()
        m2 = fit2.param_array()
        mapped = m1.copy()
        mapped[0] *= s ** 2  # only the level rescales under data scaling
        assert_allclose(m2, mapped, rtol=0.05, atol=5e-3)
        # and the mapped parameters are equally likely under the scaled data
        tau_mapped = ModelParams.from_array(mapped, fit1.tau_hat.order)
        assert neg_log_likelihood(scaled, tau_mapped) == pytest.approx(
            fit2.neg_loglik, abs=1e-4)

    def test_indefinite_information_is_reported(self, monkeypatch):
        monkeypatch.setattr("stablegarch.estimate.fit.compute_Jn",
                            lambda *args, **kwargs: -np.eye(6))
        try:
            fit = fit_stable_mle(_sim(600, 7), start=TAU0, n_starts=1)
        except NotConverged as exc:
            fit = exc.result
        assert fit.message.endswith("; J_n not positive definite; standard errors are NaN")
        assert np.isnan(fit.std_errors).all()

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            fit_stable_mle(_sim(120, 5))


class TestFitGaussian:
    def test_recovers_gaussian_garch(self):
        # eta ~ N(0,1): variance-one innovations via gamma = 1/sqrt(2)
        eps, _ = simulate(THETA0, StableParams(2.0, 0.0, 0.0, np.sqrt(0.5)),
                          n=10 ** 4, burn_in=400, seed=19)
        fit = fit_gaussian_qmle(eps)
        assert fit.converged
        for e, t, se in zip(fit.param_array(), THETA0.as_array(), fit.std_errors):
            assert abs(e - t) < 4 * se

    def test_constant_series_degenerates(self):
        eps = ReturnSeries(np.full(600, 0.3))
        try:
            fit = fit_gaussian_qmle(eps)
            assert fit.constraint_active.any() or not fit.converged
        except (NotConverged, NonFiniteLikelihood):
            pass

    def test_heavy_tail_reparameterization_keeps_b(self):
        eps = _sim(2 * 10 ** 4, 23, alpha=1.8)
        try:
            fit = fit_gaussian_qmle(eps)
        except NotConverged as exc:
            fit = exc.result
        b_hat = fit.param_array()[2]
        assert b_hat == pytest.approx(0.7, abs=0.12)


class TestInformation:
    def test_jn_symmetric(self):
        eps = _sim(500, 29)
        jn = compute_Jn(eps, TAU0)
        assert_allclose(jn, jn.T, atol=1e-12)

    def test_iid_cauchy_omega_block_matches_quadrature(self):
        # Fisher information for the level of an i.i.d. Cauchy model
        omega = 0.8
        rng = np.random.default_rng(31)
        eps = ReturnSeries(sample(StableParams(1.0, 0.0), 3 * 10 ** 4, rng)
                           * np.sqrt(omega))
        tau = ModelParams(GarchParams(omega, a=(0.0,), b=(0.0,)), 1.0, 0.0, 0.0)

        def integrand(x):
            f = 1.0 / (np.pi * (1 + x * x))
            z = 1.0 + x * (-2.0 * x / (1 + x * x))
            return (0.5 * z / omega) ** 2 * f

        want, _ = integrate.quad(integrand, -np.inf, np.inf, limit=300)
        jn = compute_Jn(eps, tau)
        assert jn[0, 0] == pytest.approx(want, rel=0.08)

    def test_information_equality_smoke(self):
        eps = _sim(2 * 10 ** 4, 37)
        jn = compute_Jn(eps, TAU0)
        opg = outer_product_information(eps, TAU0)
        rel = np.linalg.norm(jn - opg, 2) / np.linalg.norm(jn, 2)
        assert rel < 0.12

    def test_fit_json_round_trip(self, tmp_path):
        eps = _sim(800, 41)
        fit = fit_or_best(eps, seed=0, n_starts=2)
        path = tmp_path / "fit.json"
        fit.to_json(path)
        back = FitResult.from_json(path)
        assert_allclose(back.param_array(), fit.param_array(), atol=1e-12)
        assert_allclose(back.J_n, fit.J_n, atol=1e-12)
        assert back.converged == fit.converged
        assert back.names() == fit.names()

    def test_initial_value_rule_negligible(self):
        eps = _sim(2000, 43)
        f1 = fit_or_best(eps, seed=0, n_starts=2, init_rule="mean-squared")
        f2 = fit_or_best(eps, seed=0, n_starts=2, init_rule="unconditional")
        gap = np.abs(f1.param_array() - f2.param_array())
        assert np.all(gap <= np.maximum(f1.std_errors, 1e-6))
