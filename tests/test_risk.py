"""VaR forecasting and backtesting tests."""

import statistics

import numpy as np
import pytest

from stablegarch.data import ReturnSeries
from stablegarch.estimate import FitResult, ModelParams
from stablegarch.garch import GarchParams, simulate
from stablegarch.risk import backtest, innovation_quantile, var_forecast, var_series
from stablegarch.stable import StableParams, quantile
from stablegarch.stable import engine
from stablegarch.stable.engine import StandardDensity

THETA0 = GarchParams(0.01, a=(0.02,), b=(0.7,))


def make_fit(theta=THETA0, alpha=1.6, beta=0.0, mu=0.0, method="stable"):
    tau = ModelParams(theta, alpha, beta, mu)
    return FitResult(tau_hat=tau, neg_loglik=0.0, J_n=None, std_errors=None,
                     iterations=0, converged=True, constraint_active=None,
                     method=method, n_obs=0)


class TestVarForecast:
    def test_symmetric_median_var_is_zero(self):
        fit = make_fit()
        eps, _ = simulate(THETA0, StableParams(1.6, 0.0), n=300, seed=1)
        fc = var_forecast(fit, eps, p=0.5)
        assert fc.var_value == pytest.approx(0.0, abs=1e-7)
        assert fc.sigma > 0

    def test_constant_volatility_model(self):
        theta = GarchParams(0.04, a=(0.0,), b=(0.0,))
        fit = make_fit(theta=theta, alpha=1.5)
        eps = ReturnSeries(np.random.default_rng(3).standard_normal(100))
        want = 0.2 * quantile(0.05, StableParams(1.5, 0.0))
        for t in (5, 50, 101):
            fc = var_forecast(fit, eps, p=0.05, horizon_index=t)
            assert fc.var_value == pytest.approx(want, rel=1e-9)

    def test_gaussian_uses_unit_variance_quantile(self):
        fit = make_fit(method="gaussian")
        for p in (1e-10, 0.01, 0.05, 0.5, 0.95):
            want = statistics.NormalDist().inv_cdf(p)
            assert innovation_quantile(fit, p) == pytest.approx(want, rel=1e-14, abs=0), p

    def test_bad_index_rejected(self):
        fit = make_fit()
        eps = ReturnSeries(np.ones(10) * 0.1)
        with pytest.raises(ValueError):
            var_forecast(fit, eps, p=0.01, horizon_index=12)


class TestNoLookAhead:
    def test_last_return_moves_no_forecast(self):
        theta = GarchParams(0.01, a=(0.03,), b=(0.6,))
        fit = make_fit(theta=theta, alpha=1.7)
        out, _ = simulate(theta, StableParams(1.7, 0.0), n=200, seed=5)
        shocked = out.values.copy()
        shocked[-1] = 50.0
        v1, s1, _ = var_series(fit, out, p=0.05)
        v2, s2, _ = var_series(fit, ReturnSeries(shocked), p=0.05)
        assert np.isnan(v1[0]) and np.isnan(s1[0])
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(s1, s2)

    def test_series_matches_forecast_at_every_date(self):
        theta = GarchParams(0.01, a=(0.05, 0.03), b=(0.5, 0.2))
        fit = make_fit(theta=theta, alpha=1.7, beta=0.3)
        out, _ = simulate(theta, StableParams(1.7, 0.3), n=120, seed=13)
        vals, _, _ = var_series(fit, out, p=0.05)
        want = [var_forecast(fit, out, p=0.05, horizon_index=t).var_value
                for t in range(2, len(out) + 1)]
        np.testing.assert_allclose(vals[1:], want, rtol=1e-12)


class TestBacktest:
    def test_hits_monotone_in_p(self):
        fit = make_fit()
        out, _ = simulate(THETA0, StableParams(1.6, 0.0), n=5000, seed=7)
        r1 = backtest(fit, out, p=0.01)
        r5 = backtest(fit, out, p=0.05)
        assert r1.hits <= r5.hits
        # the first return has no returns before it, so no forecast
        assert r1.total == r5.total == 4999

    def test_frequency_within_binomial_band_at_truth(self):
        fit = make_fit()
        out, _ = simulate(THETA0, StableParams(1.6, 0.0), n=20000, seed=9)
        for p in (0.01, 0.05):
            rep = backtest(fit, out, p=p)
            band = 2.9 * np.sqrt(p * (1 - p) / rep.total)
            assert abs(rep.hit_frequency - p) < band

    def test_scale_equivariance_of_hits(self):
        # scaling data and the level parameter together leaves hits unchanged
        fit = make_fit()
        out, _ = simulate(THETA0, StableParams(1.6, 0.0), n=2000, seed=11)
        s = 4.0
        theta_s = GarchParams(THETA0.omega * s ** 2, a=THETA0.a, b=THETA0.b)
        fit_s = make_fit(theta=theta_s)
        out_s = ReturnSeries(out.values * s)
        _, _, hits = var_series(fit, out, p=0.01)
        _, _, hits_s = var_series(fit_s, out_s, p=0.01)
        np.testing.assert_array_equal(hits, hits_s)

    def test_weak_inequality_convention(self):
        # a return exactly at the forecast counts as a hit; the first return
        # has no forecast, so even a loss far below the quantile is no hit
        theta = GarchParams(1.0, a=(0.0,), b=(0.0,))
        fit = make_fit(theta=theta, alpha=1.5)
        q = quantile(0.1, StableParams(1.5, 0.0))
        out = ReturnSeries(np.array([q - 1.0, q, q - 1e-9, q + 1e-9, 0.0]))
        _, _, hits = var_series(fit, out, p=0.1)
        assert hits.tolist() == [False, True, True, False, False]

    def test_single_return_has_nothing_to_backtest(self):
        with pytest.raises(ValueError):
            backtest(make_fit(), ReturnSeries(np.array([0.1])), p=0.05)

    def test_stable_beats_gaussian_on_heavy_tails(self):
        # fits at the truth: the stable quantile matches the innovation law,
        # the unit-variance Gaussian one underestimates the 1% tail
        fit_s = make_fit()
        fit_g = make_fit(method="gaussian")
        wins = 0
        for seed in range(6):
            out, _ = simulate(THETA0, StableParams(1.6, 0.0), n=8000, seed=40 + seed)
            rs = backtest(fit_s, out, p=0.01)
            rg = backtest(fit_g, out, p=0.01)
            wins += abs(rs.hit_frequency - 0.01) < abs(rg.hit_frequency - 0.01)
        assert wins >= 5


class TestQuantileReuse:
    """A VaR desk asset: a forecast at 0.01, then backtests at 0.01 and 0.05."""

    @staticmethod
    def _asset():
        # an engine of its own, cleared, so no earlier test solved its levels
        engine._engine.cache_clear()
        theta = GarchParams(0.01, a=(0.03,), b=(0.6,))
        fit = make_fit(theta=theta, alpha=1.617, beta=0.213)
        eps, _ = simulate(theta, StableParams(1.617, 0.213), n=400, seed=17)
        return fit, eps.slice(0, 200), eps.slice(200, 400)

    def test_one_solve_per_level(self, monkeypatch):
        fit, history, outsample = self._asset()
        solves = []
        solve = StandardDensity._solve_ppf

        def counting_solve(self, p):
            solves.append(p)
            return solve(self, p)

        monkeypatch.setattr(StandardDensity, "_solve_ppf", counting_solve)
        fc = var_forecast(fit, history, 0.01)
        backtest(fit, outsample, 0.01)
        backtest(fit, outsample, 0.05)
        assert solves == [0.01, 0.05]
        # the repeat returns the very float the forecast used
        assert fc.var_value == fc.sigma * innovation_quantile(fit, 0.01)
        assert solves == [0.01, 0.05]

    def test_only_the_gap_level_builds_a_table(self, monkeypatch):
        # the 0.05 level lies in the centre series' reach and builds nothing;
        # the 0.01 level, at |y| = 5.42, lies between that reach (4.28: past
        # it the centre's terms pass _CDF_TERM_CAP) and the tail's floor
        # (5.61), so it takes the anchored spline, once for both its uses
        fit, history, outsample = self._asset()
        calls = []
        table, probe = engine.FourierTable, StandardDensity._probe_onsets
        monkeypatch.setattr(engine, "FourierTable",
                            lambda *a, **k: calls.append("table") or table(*a, **k))
        monkeypatch.setattr(StandardDensity, "_probe_onsets",
                            lambda self: calls.append("probe") or probe(self))
        backtest(fit, outsample, 0.05)
        assert calls == []
        var_forecast(fit, history, 0.01)
        backtest(fit, outsample, 0.01)
        assert calls == ["probe", "table"]
        eng = engine.get_engine(fit.tau_hat.psi, engine.DensityAccuracy())
        x = np.array([eng.ppf(0.05), eng.ppf(0.01)])
        assert eng._series_cdf(x)[3].tolist() == [1, -1]
