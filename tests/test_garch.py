"""GARCH recursion, simulation and stationarity tests."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats

from stablegarch.data import ReturnSeries
from stablegarch.errors import ExplosionError
from stablegarch.garch import (
    GarchOrder,
    GarchParams,
    lyapunov_exponent,
    simulate,
    stationarity_frontier,
    volatility_path,
)
from stablegarch.garch.recursion import _lag_filter, variance_derivatives
from stablegarch.garch.stability import _companion_split
from stablegarch.stable import StableParams
from stablegarch.stable import sample as stable_sample

THETA0 = GarchParams(0.01, a=(0.02,), b=(0.7,))


class TestParams:
    def test_order_invariants(self):
        with pytest.raises(ValueError):
            GarchOrder(p=-1, q=1)
        with pytest.raises(ValueError):
            GarchOrder(p=1, q=0)

    def test_param_invariants(self):
        with pytest.raises(ValueError):
            GarchParams(0.0, a=(0.1,))
        with pytest.raises(ValueError):
            GarchParams(0.1, a=(-0.1,))
        with pytest.raises(ValueError):
            GarchParams(0.1, a=(0.1,), b=(1.0,))

    def test_array_round_trip(self):
        theta = GarchParams(0.3, a=(0.1, 0.05), b=(0.6,))
        back = GarchParams.from_array(theta.as_array(), theta.order)
        assert back == theta


class TestVolatilityPath:
    def test_degenerate_constant(self):
        eps = ReturnSeries(np.array([0.5, -1.0, 2.0, 0.1]))
        path = volatility_path(eps, GarchParams(0.01, a=(0.0,), b=(0.0,)))
        assert_allclose(path.sigma2, 0.01)

    def test_geometric_relaxation_on_zero_returns(self):
        eps = ReturnSeries(np.zeros(60))
        path = volatility_path(eps, THETA0)
        fixed_point = 0.01 / 0.3
        dev = path.sigma2 - fixed_point
        keep = np.abs(dev[:-1]) > 1e-7  # ratios lose precision once dev underflows
        ratios = dev[1:][keep[: len(dev) - 1]] / dev[:-1][keep[: len(dev) - 1]]
        assert ratios.size > 30
        assert_allclose(ratios, 0.7, rtol=1e-8)

    def test_floor_at_omega(self):
        rng = np.random.default_rng(1)
        eps = ReturnSeries(rng.standard_normal(200) * 0.05)
        path = volatility_path(eps, THETA0)
        assert np.all(path.sigma2 >= THETA0.omega)

    def test_matches_simulation_after_burn_in(self):
        eps, truth = simulate(THETA0, StableParams(1.8, 0.0), n=1500, burn_in=300, seed=5)
        path = volatility_path(eps, THETA0)
        rel = np.abs(path.sigma2[200:] - truth.sigma2[200:]) / truth.sigma2[200:]
        assert rel.max() < 1e-6

    def test_presample_rule_forgotten_geometrically(self):
        eps, _ = simulate(THETA0, StableParams(1.6, 0.0), n=400, burn_in=100, seed=9)
        # the same returns from t = 100 on, one path started from the
        # presample rule, the other from the state the whole series reached
        p1 = volatility_path(eps.slice(100, len(eps)), THETA0)
        p2 = volatility_path(eps, THETA0)
        gap = np.abs(p1.sigma2 - p2.sigma2[100:])
        assert gap[0] > 0
        # decay bounded by (sum b)^t up to a constant
        t = np.arange(gap.size)
        bound = gap[0] * 0.72 ** t + 1e-14
        assert np.all(gap[50:] <= bound[50:])
        assert gap[-1] < 1e-12

    def test_higher_order_round_trip(self):
        theta = GarchParams(0.05, a=(0.03, 0.02), b=(0.5, 0.2))
        eps, truth = simulate(theta, StableParams(1.9, 0.2), n=800, burn_in=200, seed=3)
        path = volatility_path(eps, theta)
        rel = np.abs(path.sigma2[300:] - truth.sigma2[300:]) / truth.sigma2[300:]
        assert rel.max() < 1e-6


class TestLagFilter:
    ORDERS = [(0, 1), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]

    @staticmethod
    def _theta(p, q):
        return GarchParams(0.02, a=(0.06, 0.04)[:q], b=(0.4, 0.25, 0.15)[:p])

    @pytest.mark.parametrize("p, q, columns", [
        *(pytest.param(p, q, False, id=f"{p}-{q}") for p, q in ORDERS),
        pytest.param(2, 2, True, id="2-2-columns"),  # one coefficient per lag and column
    ])
    def test_matches_a_float_recursion_from_rest(self, p, q, columns):
        # Cauchy-scaled forcing spans many orders of magnitude; every step
        # from the first is compared
        rng = np.random.default_rng(10 * p + q)
        theta = self._theta(p, q)
        force = np.column_stack([np.ones(1000), 0.01 * rng.standard_cauchy((1000, 2)) ** 2])
        lags = np.array(theta.b)[:, None] * (rng.uniform(0.5, 1.5, (p, 1000)) if columns
                                              else np.ones((p, 1000)))
        want = np.zeros((p + 1000, 3))
        for t in range(1000):
            # lags[j-1, s] weighs y_s in row s + j; rows before 0 are at rest
            want[p + t] = force[t] + sum(lags[j - 1, t - j] * want[p + t - j]
                                         for j in range(1, min(p, t) + 1))
        got = _lag_filter(lags if columns else theta.b, force)
        assert_allclose(got, want[p:], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("p, q", ORDERS)
    def test_volatility_path_matches_a_float_recursion(self, p, q):
        rng = np.random.default_rng(100 + 10 * p + q)
        eps = ReturnSeries(0.1 * rng.standard_cauchy(1000))
        theta = self._theta(p, q)
        e2 = eps.values ** 2
        pre = float(np.mean(e2))
        lagged_e2, sig2 = [pre] * q + e2.tolist(), [pre] * p
        for t in range(1000):
            sig2.append(theta.omega
                        + sum(ai * lagged_e2[q + t - i] for i, ai in enumerate(theta.a, start=1))
                        + sum(bj * sig2[p + t - j] for j, bj in enumerate(theta.b, start=1)))
        assert_allclose(volatility_path(eps, theta).sigma2, sig2[p:], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("p, q", ORDERS)
    def test_band_reaches_lapack_fortran_ordered(self, p, q, monkeypatch):
        # f2py copies a band or forcing that is not Fortran-contiguous before
        # LAPACK reads it; every solve hands both over as they are, solves
        # the forcing in place, and solves what a C-ordered copy of them
        # solves, bit for bit, with the unit diagonal (never set) as NaN
        from stablegarch.garch import recursion
        dtbtrs, seen = recursion.lapack.dtbtrs, []

        def recorded(band, force, **kw):
            ref_band = np.ascontiguousarray(band)
            ref_band[0] = np.nan
            ref = dtbtrs(ref_band, np.ascontiguousarray(force),
                         uplo=kw["uplo"], diag=kw["diag"])[0]
            flags = band.flags.f_contiguous, force.flags.f_contiguous
            out = dtbtrs(band, force, **kw)
            seen.append(flags + (np.shares_memory(out[0], force),))
            assert out[0].tobytes() == ref.tobytes()
            return out
        monkeypatch.setattr(recursion.lapack, "dtbtrs", recorded)
        theta = self._theta(p, q)
        eps, _ = simulate(theta, StableParams(1.7, 0.2), n=600, burn_in=100, seed=p + q)
        volatility_path(eps, theta)
        variance_derivatives(eps, theta)
        # variance_derivatives solves its path, then its derivative columns
        assert seen == [(True, True, True)] * 4


class TestVarianceDerivatives:
    @pytest.mark.parametrize("p, q", [(1, 1), (0, 1), (1, 2), (2, 1), (2, 2)])
    def test_columns_match_central_differences(self, p, q):
        # the presample is a function of the data alone, so sigma2 is a
        # smooth function of theta and differences of the path are valid
        rng = np.random.default_rng(10 * p + q)
        eps = ReturnSeries(rng.standard_t(1.7, 400) * 0.1)
        theta = GarchParams(0.02, a=(0.06, 0.04)[:q], b=(0.45, 0.25)[:p])
        _, grads = variance_derivatives(eps, theta)
        x = theta.as_array()
        for k in range(x.size):
            h = 1e-6 * x[k]
            up, dn = x.copy(), x.copy()
            up[k] += h
            dn[k] -= h
            diff = (volatility_path(eps, GarchParams.from_array(up, theta.order)).sigma2
                    - volatility_path(eps, GarchParams.from_array(dn, theta.order)).sigma2)
            assert_allclose(grads[:, k], diff / (2 * h), rtol=1e-6, atol=1e-9)


def _float_variances(theta, eta):
    """sigma2_0..sigma2_{T-1} of a simulated path, stepped over Python float lag lists."""
    start = theta.omega / max(1.0 - sum(theta.a) - sum(theta.b), 0.05)
    # lags most recent first; every presample eps**2 and sigma2 is start
    e2, s2 = [start] * len(theta.a), [start] * len(theta.b)
    out = []
    for z in eta:
        var = theta.omega
        for ai, x in zip(theta.a, e2):
            var += ai * x
        for bj, x in zip(theta.b, s2):
            var += bj * x
        out.append(var)
        e = math.sqrt(var) * z
        e2 = [e * e] + e2[:-1]
        s2 = [var] + s2[:-1]
    return out


class TestSimulate:
    def test_iid_gaussian_variance(self):
        theta = GarchParams(0.01, a=(0.0,), b=(0.0,))
        eps, _ = simulate(theta, StableParams(2.0, 0.0), n=10 ** 5, seed=2)
        assert eps.values.var() == pytest.approx(0.02, rel=0.01)

    def test_volatility_clustering_signature(self):
        eps, _ = simulate(THETA0, StableParams(1.8, 0.0), n=10 ** 4, seed=12)
        # the plain moment estimator degenerates under infinite variance, so
        # winsorize the extremes before applying the Gaussian noise band
        x = eps.values
        cap = np.quantile(np.abs(x), 0.99)
        x = np.clip(x, -cap, cap)

        def lag1_corr(v):
            v = v - v.mean()
            return float(v[1:] @ v[:-1] / (v @ v))

        assert abs(lag1_corr(np.abs(x))) > 2.0 / np.sqrt(x.size)
        # zero autocorrelation for signed returns, with the band widened
        # for conditional heteroskedasticity (robust standard error)
        c = x - x.mean()
        se = np.sqrt(np.sum(c[1:] ** 2 * c[:-1] ** 2)) / np.sum(c ** 2)
        assert abs(lag1_corr(x)) < 2.0 * se

    def test_explosion_raises(self):
        theta = GarchParams(0.01, a=(0.9,), b=(0.9,))
        psi = StableParams(1.2, 0.0)
        with pytest.raises(ExplosionError) as info:
            simulate(theta, psi, n=5000, burn_in=500, seed=1)
        exc = info.value
        assert exc.sigma2 == np.inf
        # t counts from the first burn-in step: on the same draws, a path of
        # t steps with no burn-in is finite and one more step overflows
        eta = stable_sample(psi, 5500, 1)
        _, path = simulate(theta, psi, n=exc.t, burn_in=0, innovations=eta)
        assert np.isfinite(path.sigma2).all()
        with pytest.raises(ExplosionError) as again:
            simulate(theta, psi, n=exc.t + 1, burn_in=0, innovations=eta)
        assert (again.value.t, again.value.sigma2) == (exc.t, exc.sigma2)

    def test_overflowing_return_raises(self):
        # every variance is finite (about 2.5e18), but sigma * eta at the
        # last step is about 1.6e309: a typed error names that step, with no
        # RuntimeWarning on the way
        theta = GarchParams(1e18, a=(0.1,), b=(0.5,))
        eta = np.ones(30)
        eta[-1] = 1e300
        psi = StableParams(1.6, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExplosionError) as info:
                simulate(theta, psi, n=20, burn_in=10, innovations=eta)
        # the last eta enters no variance of the path: with it at 1 the path
        # is finite and ends on the variance the error reports
        eta[-1] = 1.0
        _, path = simulate(theta, psi, n=20, burn_in=10, innovations=eta)
        assert info.value.t == 29
        assert info.value.sigma2 == path.sigma2[-1] > 1e18

    @pytest.mark.parametrize("theta, alpha", [
        *(pytest.param(TestLagFilter._theta(p, q), 1.6, id=f"{p}-{q}")
          for p, q in TestLagFilter.ORDERS),
        pytest.param(GarchParams(0.01, a=(0.9,), b=(0.9,)), 1.2, id="1-1-overflows"),
        pytest.param(GarchParams(0.02, a=(5.0,)), 1.2, id="0-1-overflows"),
    ])
    def test_simulated_variances_match_a_float_recursion(self, theta, alpha):
        # every step from the first, up to and including the first non-finite
        # variance, which must fall on the same step with the same value
        psi = StableParams(alpha, 0.0)
        eta = stable_sample(psi, 3000, 4)
        ref = np.array(_float_variances(theta, eta.tolist()))
        stop = np.flatnonzero(~np.isfinite(ref))
        n = int(stop[0]) if stop.size else ref.size
        _, path = simulate(theta, psi, n=n, burn_in=0, innovations=eta)
        assert_allclose(path.sigma2, ref[:n], rtol=1e-13, atol=0)
        if stop.size:
            with pytest.raises(ExplosionError) as info:
                simulate(theta, psi, n=ref.size, burn_in=0, innovations=eta)
            assert (info.value.t, info.value.sigma2) == (n, ref[n])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_innovation_is_a_value_error(self, bad):
        eta = np.ones(121)
        eta[120] = bad  # beyond n + burn_in: unused
        simulate(THETA0, StableParams(1.6, 0.0), n=20, burn_in=100, innovations=eta)
        eta[41] = bad
        with pytest.raises(ValueError, match="innovation 41 is"):
            simulate(THETA0, StableParams(1.6, 0.0), n=20, burn_in=100, innovations=eta)

    def test_stationary_heavy_tail_model_simulates(self):
        # gamma = E log(b + a eta^2) = -0.127 here, yet one alpha = 1.2 draw
        # lifts sigma^2 far above omega; only an overflow is an explosion
        theta = GarchParams(0.01, a=(0.034,), b=(0.667,))
        eps, path = simulate(theta, StableParams(1.2, 0.0), 1000, burn_in=500, seed=10)
        assert np.isfinite(eps.values).all()
        assert np.isfinite(path.sigma2).all()

    def test_order_2_2_lags_match_the_lag_filter(self):
        # the same recursion in another summation order: once the presample
        # state is forgotten the two paths agree to rounding
        theta = GarchParams(0.01, a=(0.05, 0.03), b=(0.5, 0.2))
        eps, truth = simulate(theta, StableParams(1.7, 0.0), n=800, burn_in=200, seed=3)
        path = volatility_path(eps, theta)
        rel = np.abs(path.sigma2[300:] - truth.sigma2[300:]) / truth.sigma2[300:]
        assert rel.max() < 1e-12

    def test_deterministic_per_seed(self):
        a1, _ = simulate(THETA0, StableParams(1.6, 0.0), n=50, seed=8)
        a2, _ = simulate(THETA0, StableParams(1.6, 0.0), n=50, seed=8)
        assert_allclose(a1.values, a2.values)

    def test_injected_innovations(self):
        eta = np.ones(120)
        eps, path = simulate(THETA0, StableParams(1.6, 0.0), n=20, burn_in=100,
                             seed=0, innovations=eta)
        # eta = 1 makes the recursion deterministic: sigma2 -> omega/(1-a-b)
        assert path.sigma2[-1] == pytest.approx(0.01 / (1 - 0.72), rel=1e-6)


def _companion(theta, eta):
    c0, c1 = _companion_split(theta)
    return c0 + eta ** 2 * c1


class TestCompanion:
    def test_garch11_layout(self):
        theta = GarchParams(0.3, a=(0.02,), b=(0.7,))
        A = _companion(theta, eta=2.0)
        assert_allclose(A, [[0.02 * 4, 0.7 * 4], [0.02, 0.7]])

    def test_eta_zero(self):
        theta = GarchParams(0.3, a=(0.1, 0.05), b=(0.6,))
        A = _companion(theta, eta=0.0)
        assert_allclose(A[0], 0.0)
        assert_allclose(A[2], [0.1, 0.05, 0.6])
        assert A[1, 0] == 1.0

    def test_expected_matrix_spectral_radius(self):
        # E[A] for Eeta^2 = 2 at theta = (., 0.02, 0.7)
        theta = GarchParams(1.0, a=(0.02,), b=(0.7,))
        EA = _companion(theta, np.sqrt(2.0))
        EA[1] = [0.02, 0.7]
        rho = max(abs(np.linalg.eigvals(EA)))
        assert rho == pytest.approx(0.74, abs=1e-12)


class TestLyapunov:
    def test_pure_garch_log_b(self):
        theta = GarchParams(1.0, a=(0.0,), b=(0.5,))
        est = lyapunov_exponent(theta, StableParams(1.5, 0.0), horizon=20000,
                                replications=8, seed=4)
        # deterministic contraction: only an O(1/horizon) remainder is random
        assert est.estimate == pytest.approx(np.log(0.5), abs=max(3 * est.stderr, 5e-4))

    def test_gaussian_stationary_point(self):
        est = lyapunov_exponent(THETA0, StableParams(2.0, 0.0), seed=6)
        assert est.estimate + 2 * est.stderr < 0.0

    def test_explosive_point(self):
        theta = GarchParams(1.0, a=(3.0,), b=(0.5,))
        est1 = lyapunov_exponent(theta, StableParams(1.0, 0.0), horizon=2000,
                                 replications=12, seed=7)
        est2 = lyapunov_exponent(theta, StableParams(1.0, 0.0), horizon=4000,
                                 replications=12, seed=7)
        assert est1.estimate - 2 * est1.stderr > 0.0
        assert est2.estimate - 2 * est2.stderr > 0.0

    def test_omega_invariance(self):
        psi = StableParams(1.5, 0.0)
        g1 = lyapunov_exponent(GarchParams(1.0, a=(0.05,), b=(0.8,)), psi,
                               horizon=1500, replications=4, seed=3)
        g2 = lyapunov_exponent(GarchParams(7.5, a=(0.05,), b=(0.8,)), psi,
                               horizon=1500, replications=4, seed=3)
        assert g1.estimate == g2.estimate

    @pytest.mark.parametrize("a_val, b_val", [(0.3, 0.6), (0.05, 0.9), (1.5, 0.0)])
    def test_rank_one_mean_matches_matrix_products(self, a_val, b_val):
        # a zero second ARCH lag leaves the model unchanged but sends it
        # through the matrix products, on the same draws
        psi = StableParams(1.6, 0.0)
        exact = lyapunov_exponent(GarchParams(1.0, a=(a_val,), b=(b_val,)), psi,
                                  horizon=4000, replications=24, seed=3)
        products = lyapunov_exponent(GarchParams(1.0, a=(a_val, 0.0), b=(b_val,)), psi,
                                     horizon=4000, replications=24, seed=3)
        assert abs(exact.estimate - products.estimate) <= 0.5 * exact.stderr

    def test_matches_scalar_recurrence_formula(self):
        # for GARCH(1,1) the exponent is E log(a eta^2 + b); quadrature oracle
        a_val, b_val = 0.4, 0.3
        density = lambda x: np.exp(-x * x / 4.0) / (2.0 * np.sqrt(np.pi))
        want, _ = integrate.quad(lambda x: np.log(a_val * x * x + b_val) * density(x),
                                 -np.inf, np.inf, limit=200)
        theta = GarchParams(1.0, a=(a_val,), b=(b_val,))
        est = lyapunov_exponent(theta, StableParams(2.0, 0.0), horizon=8000,
                                replications=48, seed=11)
        assert est.estimate == pytest.approx(want, abs=4 * est.stderr + 1e-3)


class TestFrontier:
    def test_b_near_one_forces_a_to_zero(self):
        pts = stationarity_frontier(2.0, [0.99], horizon=1500, replications=8, seed=2)
        assert pts[0].a_star < 0.06

    def test_gaussian_intercept_at_b_zero(self):
        # a* solves E log(a eta^2) = 0 for eta ~ N(0, 2)
        density = lambda x: np.exp(-x * x / 4.0) / (2.0 * np.sqrt(np.pi))
        elog, _ = integrate.quad(lambda x: np.log(x * x) * density(x),
                                 -np.inf, np.inf, limit=300)
        want = np.exp(-elog)
        pts = stationarity_frontier(2.0, [0.0], horizon=6000, replications=32, seed=5)
        assert pts[0].a_star == pytest.approx(want, rel=0.08)

    def test_nesting_in_alpha(self):
        grid = [0.2, 0.5]
        lo = stationarity_frontier(1.0, grid, horizon=2500, replications=16, seed=9)
        mid = stationarity_frontier(1.6, grid, horizon=2500, replications=16, seed=9)
        hi = stationarity_frontier(2.0, grid, horizon=2500, replications=16, seed=9)
        for plo, pmid, phi in zip(lo, mid, hi):
            assert plo.a_star < pmid.a_star < phi.a_star

    @pytest.mark.parametrize("b_val", [0.0, 0.8])
    def test_stderr_is_se_of_a_star(self, b_val):
        pts = [stationarity_frontier(1.6, [b_val], seed=s)[0] for s in range(12)]
        spread = np.std([p.a_star for p in pts], ddof=1)
        reported = np.median([p.stderr for p in pts])
        assert 0.5 * reported <= spread <= 2.0 * reported

    def test_unseeded_frontier_shares_draws(self, monkeypatch):
        # seed=None still means common random numbers within one call, so
        # brentq sees one smooth function of a and the se its draws
        from stablegarch.garch import stability
        seeds = []
        lyap = stability.lyapunov_exponent

        def recording(theta, psi, horizon, replications, seed):
            seeds.append(seed)
            return lyap(theta, psi, horizon, replications, seed)

        monkeypatch.setattr(stability, "lyapunov_exponent", recording)
        stationarity_frontier(1.6, [0.6], horizon=1000, replications=4, seed=None)
        assert len(seeds) > 2
        assert seeds[0] is not None and all(s == seeds[0] for s in seeds)

    def test_one_draw_per_frontier_call(self, monkeypatch):
        # a law, size and seed no other test uses, so nothing is kept yet
        from stablegarch.garch import stability
        draws = []
        sample = stability.stable_sample

        def counting(*args, **kw):
            draws.append(1)
            return sample(*args, **kw)

        monkeypatch.setattr(stability, "stable_sample", counting)
        pts = stationarity_frontier(1.45, [0.0, 0.5, 0.9], horizon=1100, replications=5,
                                    seed=2027)
        assert len(pts) == 3
        assert len(draws) == 5

    def test_kept_draws_are_read_only(self):
        from stablegarch.garch import stability
        eta2 = stability._squared_draws(StableParams(1.6, 0.0), 1000, 3, 21)
        assert eta2 is stability._squared_draws(StableParams(1.6, 0.0, 2.0, 3.0), 1000, 3, 21)
        assert not eta2.flags.writeable
        with pytest.raises(ValueError):
            eta2[0, 0] = 1.0

    def test_squared_draws_are_squared_samples(self):
        from stablegarch.garch import stability
        psi = StableParams(1.4, 0.2)
        eta2 = stability._draw_squared(psi, 1000, 4, 9)
        for row, s in zip(eta2, np.random.SeedSequence(9).spawn(4), strict=True):
            want = stable_sample(psi, 1000, np.random.default_rng(s)) ** 2
            assert row.tobytes() == want.tobytes()

    def test_unseeded_estimates_draw_anew(self):
        theta = GarchParams(1.0, a=(0.3,), b=(0.6,))
        psi = StableParams(1.6, 0.0)
        first = lyapunov_exponent(theta, psi, horizon=1000, replications=4, seed=None)
        second = lyapunov_exponent(theta, psi, horizon=1000, replications=4, seed=None)
        assert first.estimate != second.estimate

    def test_kept_draws_give_the_fresh_draws_frontier(self, monkeypatch):
        from stablegarch.garch import stability
        kept = stationarity_frontier(1.2, [0.3, 0.8], horizon=1000, replications=6, seed=11)
        monkeypatch.setattr(stability, "_kept_draws", stability._draw_squared)
        fresh = stationarity_frontier(1.2, [0.3, 0.8], horizon=1000, replications=6, seed=11)
        assert kept == fresh
