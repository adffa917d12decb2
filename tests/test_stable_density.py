"""Density, characteristic function and derivative checks for the stable family."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import quad_density_oracle, quad_shape_derivative_oracle
from stablegarch.errors import AccuracyNotReached
from stablegarch.stable import (
    FIT_ACCURACY,
    DensityAccuracy,
    StableParams,
    char_fn,
    density,
    density_dx,
    get_engine,
    log_density_grad,
    quantile,
)

CAUCHY = StableParams(1.0, 0.0)
GAUSS = StableParams(2.0, 0.0)


def cauchy_pdf(x):
    return 1.0 / (np.pi * (1.0 + x * x))


def gauss_pdf(x):
    # alpha = 2 with gamma = 1 is N(0, 2)
    return np.exp(-x * x / 4.0) / (2.0 * np.sqrt(np.pi))


class TestCharFn:
    def test_phi_at_zero_is_one(self):
        for psi in [CAUCHY, GAUSS, StableParams(1.4, 0.7, -0.3, 2.0)]:
            assert char_fn(0.0, psi) == pytest.approx(1.0 + 0.0j)

    def test_gaussian_case_kills_skew_term(self):
        assert char_fn(1.0, StableParams(2.0, 0.0)) == pytest.approx(np.exp(-1.0))
        # beta inert at alpha = 2
        assert char_fn(1.0, StableParams(2.0, 0.9)) == pytest.approx(np.exp(-1.0))

    def test_alpha_one_at_unit_t(self):
        # log|gamma t| = 0 at t = 1 removes the beta term
        assert char_fn(1.0, StableParams(1.0, 0.5)) == pytest.approx(np.exp(-1.0))

    def test_modulus(self):
        t = np.linspace(-8.0, 8.0, 33)
        for psi in [StableParams(0.7, 0.4, 0.5, 1.5), StableParams(1.6, -0.8, 0.0, 0.7)]:
            mod = np.abs(char_fn(t, psi))
            assert_allclose(mod, np.exp(-np.abs(psi.gamma * t) ** psi.alpha), atol=1e-14)


class TestDensityClosedForms:
    def test_cauchy_at_zero(self):
        assert density(0.0, CAUCHY) == pytest.approx(1.0 / np.pi, abs=1e-10)

    def test_gaussian_at_zero(self):
        assert density(0.0, GAUSS) == pytest.approx(1.0 / (2.0 * np.sqrt(np.pi)), abs=1e-10)

    def test_cauchy_grid(self):
        x = np.linspace(-10.0, 10.0, 200)
        assert np.max(np.abs(density(x, CAUCHY) - cauchy_pdf(x))) < 1e-8

    def test_gaussian_grid(self):
        x = np.linspace(-10.0, 10.0, 200)
        assert np.max(np.abs(density(x, GAUSS) - gauss_pdf(x))) < 1e-8

    def test_skewed_point_against_quadrature(self):
        got = density(3.0, StableParams(1.5, 0.3))
        want = quad_density_oracle(3.0, 1.5, 0.3)
        assert got == pytest.approx(want, abs=1e-8)

    def test_levy_point_against_quadrature(self):
        got = density(2.0, StableParams(0.5, 1.0))
        want = quad_density_oracle(2.0, 0.5, 1.0)
        assert got == pytest.approx(want, abs=1e-6)

    def test_scale_location_relation(self):
        # f(x, a, b, mu, g) = f((x-mu)/g, a, b, 0, 1)/g
        psi = StableParams(1.3, -0.6, 0.8, 2.5)
        x = np.array([-3.0, 0.2, 4.4])
        lhs = density(x, psi)
        rhs = density((x - psi.mu) / psi.gamma, psi.standardized()) / psi.gamma
        assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 0.7, 1.0, 1.2, 1.6, 1.9, 2.0])
@pytest.mark.parametrize("beta", [-0.8, 0.0, 0.6])
def test_density_matches_quadrature_lattice(alpha, beta):
    xs = [-9.0, -2.1, -0.4, 0.0, 0.8, 3.5, 14.0]
    got = density(np.array(xs), StableParams(alpha, beta))
    want = np.array([quad_density_oracle(x, alpha, beta) for x in xs])
    assert_allclose(got, want, atol=2e-8)


class TestDensityProperties:
    def test_parity(self):
        x = np.array([-7.0, -1.3, 0.4, 2.2, 9.0])
        for alpha in [0.7, 1.0, 1.5, 1.9]:
            for beta in [0.3, 0.9]:
                lhs = density(x, StableParams(alpha, -beta, -0.4))
                rhs = density(-x, StableParams(alpha, beta, 0.4))
                assert_allclose(lhs, rhs, atol=2e-8)

    def test_normalization_with_tail_closure(self):
        from scipy import integrate
        from stablegarch.stable.series import tail_constant
        big_x = 1.0e4
        breaks = [-big_x, -1000.0, -100.0, -30.0, -10.0, -3.0, 0.0,
                  3.0, 10.0, 30.0, 100.0, 1000.0, big_x]
        for alpha in [0.6, 1.0, 1.3, 1.7, 2.0]:
            for beta in [-0.9, 0.0, 0.9]:
                psi = StableParams(alpha, beta)
                mass = sum(integrate.quad(lambda x: density(x, psi), lo, hi,
                                          limit=200, epsabs=1e-10)[0]
                           for lo, hi in zip(breaks[:-1], breaks[1:]))
                closure = 0.0
                if alpha < 2.0:
                    closure = (tail_constant(alpha, beta, +1) / alpha
                               + tail_constant(alpha, beta, -1) / alpha) * big_x ** (-alpha)
                assert mass + closure == pytest.approx(1.0, abs=1e-4)

    def test_tail_power_law(self):
        # f(x) * x^(alpha+1) approaches a positive constant on the right
        for alpha, beta in [(0.6, 0.0), (1.3, 0.9), (1.7, -0.5)]:
            psi = StableParams(alpha, beta)
            x = np.geomspace(1e3, 1e4, 7)
            ratio = density(x, psi) * x ** (alpha + 1.0)
            assert ratio.min() > 0
            assert ratio.max() / ratio.min() < 1.05

    def test_strategy_agreement_in_overlaps(self):
        # wherever two strategies certify, their values agree to 10*abs_tol
        acc = DensityAccuracy()
        for alpha, beta in [(1.5, 0.3), (1.8, -0.6), (0.8, 0.5), (1.2, 0.0)]:
            eng = get_engine(StableParams(alpha, beta), acc)
            x = np.linspace(-30.0, 30.0, 121)
            y = x + eng.tau
            cands = []
            if eng.center is not None:
                cands.append(eng.center.pdf(y, acc.abs_tol))
            r = np.abs(y)
            tail_v = np.empty_like(x)
            tail_e = np.full_like(x, np.inf)
            pos = y > 0
            tail_v[pos], tail_e[pos] = eng.right.pdf(r[pos], acc.abs_tol)
            tail_v[~pos], tail_e[~pos] = eng.left.pdf(r[~pos], acc.abs_tol)
            cands.append((tail_v, tail_e))
            table = eng._fft_table()
            fv = table(x)
            fe = np.where(table.covers(x), table.err, np.inf)
            cands.append((fv, fe))
            for i in range(len(cands)):
                for j in range(i + 1, len(cands)):
                    vi, ei = cands[i]
                    vj, ej = cands[j]
                    both = (ei <= acc.abs_tol) & (ej <= acc.abs_tol)
                    if both.any():
                        assert np.max(np.abs(vi[both] - vj[both])) < 10.0 * acc.abs_tol

    def test_continuity_across_alpha_one(self):
        # the continuous parameterization has no jump at alpha = 1
        x = np.array([-2.0, 0.3, 1.7])
        base = density(x, StableParams(1.0, 0.5))
        gaps = [np.max(np.abs(density(x, StableParams(1.0 + eps, 0.5)) - base))
                for eps in (1e-2, 1e-3, 1e-4)]
        assert gaps[1] < gaps[0]
        assert gaps[2] < 10.0 * gaps[1] and gaps[2] < 2e-3

    def test_accuracy_not_reached_on_pathological_settings(self):
        acc = DensityAccuracy(abs_tol=1e-16, max_series_terms=10,
                              fft_grid_size=2 ** 10)
        with pytest.raises(AccuracyNotReached):
            density(0.7, StableParams(1.5, 0.2), acc)
        # the aliasing folds overflow on this grid: the table certifies nothing
        with pytest.raises(AccuracyNotReached):
            density_dx(0.7, StableParams(1.5, 0.2), acc)
        with pytest.raises(AccuracyNotReached):
            density(np.linspace(-3.0, 3.0, 20), StableParams(1.5, 0.2), acc)
        with pytest.raises(AccuracyNotReached):
            quantile(0.3, StableParams(1.5, 0.2), acc)

    def test_skewed_cauchy_served_by_table_not_quadrature(self, monkeypatch):
        from stablegarch.stable import engine
        calls = []
        quad = engine.quad_pdf_point

        def recording(*args, **kwargs):
            calls.append(args)
            return quad(*args, **kwargs)

        monkeypatch.setattr(engine, "quad_pdf_point", recording)
        engine._engine.cache_clear()  # a cold engine, as on first use
        for x in (-3.0, -0.5, 0.3, 2.0, 7.5):
            got = density(x, StableParams(1.0, 0.9))
            assert got == pytest.approx(quad_density_oracle(x, 1.0, 0.9), abs=1e-7)
        assert calls == []


class TestDensityDx:
    def test_symmetric_zero_slope_at_center(self):
        assert density_dx(0.0, CAUCHY) == pytest.approx(0.0, abs=1e-9)

    def test_cauchy_closed_form(self):
        want = -2.0 / (np.pi * 4.0)
        assert density_dx(1.0, CAUCHY) == pytest.approx(want, abs=1e-9)

    def test_matches_finite_difference(self):
        # h = 1e-5 needs a density far tighter than the FD target, otherwise
        # the difference quotient amplifies the certified jitter by 1/h
        psi = StableParams(1.7, -0.4)
        acc = DensityAccuracy(abs_tol=1e-11)
        h = 1e-5
        for x in [-4.0, 0.6, 5.0]:
            fd = (density(x + h, psi, acc) - density(x - h, psi, acc)) / (2.0 * h)
            got = density_dx(x, psi, acc)
            assert got == pytest.approx(fd, rel=1e-4, abs=1e-9)

    def test_fd_consistency_where_density_positive(self):
        h = 1e-5
        for alpha, beta in [(0.8, 0.3), (1.5, 0.0), (1.9, 0.7)]:
            psi = StableParams(alpha, beta)
            for x in [-6.0, -1.0, 0.4, 2.0, 8.0]:
                f = density(x, psi)
                if f <= 1e-12:
                    continue
                fd = (density(x + h, psi) - density(x - h, psi)) / (2.0 * h)
                assert density_dx(x, psi) == pytest.approx(fd, rel=1e-4, abs=1e-9)


class TestLogDensityGrad:
    def test_mu_component_zero_at_symmetric_center(self):
        g = log_density_grad(0.0, CAUCHY)
        assert g[2] == pytest.approx(0.0, abs=1e-6)

    def test_beta_component_matches_fd(self):
        psi = StableParams(1.5, 0.0)
        h = 1e-4
        x = 0.0
        fd = (density(x, StableParams(1.5, h)) - density(x, StableParams(1.5, -h))) / (2 * h)
        fd_log = fd / density(x, psi)
        got = log_density_grad(x, psi)[1]
        assert got == pytest.approx(fd_log, rel=1e-4, abs=1e-4)

    def test_tail_slope_law(self):
        # x * dlogf/dx -> -(alpha + 1) in the tails
        psi = StableParams(1.5, 0.0)
        g = log_density_grad(100.0, psi)
        assert g[3] * 100.0 == pytest.approx(-2.5, rel=0.05)

    def test_matches_log_density_terms(self):
        from stablegarch.stable import DEFAULT_ACCURACY, log_density_terms
        psi = StableParams(1.45, -0.3, 0.2, 1.7)
        x = np.array([-6.0, -0.8, 0.2, 1.9, 11.0])
        want = log_density_terms((x - psi.mu) / psi.gamma, psi.alpha, psi.beta,
                                 DEFAULT_ACCURACY)[2]
        np.testing.assert_array_equal(log_density_grad(x, psi)[:, :2], want)

    @pytest.mark.parametrize("alpha, beta", [(2.0, 0.0), (1.5, 1.0), (1.5, -1.0),
                                             (1.99995, 0.3)])
    def test_edge_stencils_match_one_sided_differences(self, alpha, beta):
        # alpha = 2 and |beta| = 1 take one-sided stencils; the oracle is a
        # one-sided second-order difference of log density with a wider step
        acc = DensityAccuracy(abs_tol=1e-11)
        h = 1e-3
        xs = np.array([-1.0, 0.0, 0.5, 1.5])
        psi = StableParams(alpha, beta)
        grads = log_density_grad(xs, psi)

        def log_f(**shift):
            return np.log(density(xs, StableParams(**{**_base(psi), **shift}), acc))

        for comp, (name, lo, hi) in enumerate([("alpha", 0.05, 2.0), ("beta", -1.0, 1.0)]):
            val = getattr(psi, name)
            if lo <= val - h and val + h <= hi:
                fd = (log_f(**{name: val + h}) - log_f(**{name: val - h})) / (2.0 * h)
            else:
                sgn = 1.0 if val + h > hi else -1.0
                fd = sgn * (3.0 * log_f() - 4.0 * log_f(**{name: val - sgn * h})
                            + log_f(**{name: val - 2.0 * sgn * h})) / (2.0 * h)
            assert_allclose(grads[:, comp], fd, rtol=0.0, atol=1e-3)

    def test_grad_lattice_against_fd(self):
        # every component vs central differences on a parameter/point lattice
        h = 1e-4
        checked = 0
        for alpha, beta in [(1.3, 0.2), (1.7, -0.5), (0.9, 0.4), (1.6, 0.0), (1.1, 0.8)]:
            psi = StableParams(alpha, beta, 0.1)
            xs = np.array([-8.0, -2.5, -0.7, 0.0, 0.4, 1.1, 3.0, 6.0, 12.0, 25.0])
            grads = log_density_grad(xs, psi)
            f = density(xs, psi)
            for comp, (name, lo, hi) in enumerate(
                    [("alpha", 0.05, 2.0), ("beta", -1.0, 1.0), ("mu", -9e9, 9e9)]):
                val = getattr(psi, name)
                kw_p = {name: val + h}
                kw_m = {name: val - h}
                psip = StableParams(**{**_base(psi), **kw_p})
                psim = StableParams(**{**_base(psi), **kw_m})
                fd = (density(xs, psip) - density(xs, psim)) / (2.0 * h) / f
                assert_allclose(grads[:, comp], fd, rtol=1e-3, atol=1e-4)
                checked += len(xs)
            fd_x = (density(xs + h, psi) - density(xs - h, psi)) / (2.0 * h) / f
            assert_allclose(grads[:, 3], fd_x, rtol=1e-3, atol=1e-4)
        assert checked >= 150


class TestShapePartials:
    """Engine partials d f/d alpha and d f/d beta against the quadrature oracle."""

    @staticmethod
    def _check(alpha, beta, xs, acc=DensityAccuracy()):
        from stablegarch.stable.engine import StandardDensity
        eng = StandardDensity(alpha, beta, acc)  # cold: no table yet
        for wrt in ("alpha", "beta"):
            got, err = eng.partial_with_err(xs, wrt)
            want = np.array([quad_shape_derivative_oracle(x, alpha, beta, wrt) for x in xs])
            assert np.all(err <= acc.abs_tol)
            assert_allclose(got, want, rtol=0.0, atol=2.0 * acc.abs_tol)
        return eng

    def test_series_points(self):
        eng = self._check(1.7, 0.3, np.array([-3.0, -0.5, 0.4, 1.5, 14.0]))
        assert eng._tables == {}

    def test_shift_term_at_zero_beta(self):
        # tau = 0 at beta = 0, but d tau/d beta = tan(alpha pi/2) is not
        xs = np.array([-2.0, -0.3, 0.7, 4.0])
        eng = self._check(1.6, 0.0, xs)
        assert eng._tables == {}
        assert np.max(np.abs(eng.partial_with_err(xs, "beta")[0])) > 1e-2

    @pytest.mark.parametrize("alpha, beta, xs, acc", [
        (0.9, 0.4, [-2.8, -2.6, -2.5, -2.3], DensityAccuracy()),
        (1.0, 0.5, [-0.6, -0.2, 0.0, 0.3], FIT_ACCURACY),
    ])
    def test_table_points(self, alpha, beta, xs, acc, monkeypatch):
        # centre points no series certifies: near the shift point -tau = -2.53
        # of S(0.9, 0.4), and anywhere at alpha = 1, beta != 0 (no series);
        # there the folds are removed to leading order only, which certifies
        # the fitting tolerance
        from stablegarch.stable import engine
        calls = []
        monkeypatch.setattr(engine, "quad_pdf_point",
                            lambda *a, **k: calls.append(a) or (0.0, np.inf))
        eng = self._check(alpha, beta, np.array(xs), acc)
        assert {"dalpha", "dbeta"} <= set(eng._tables)
        assert calls == []

    def test_log_density_terms_builds_one_engine(self):
        from stablegarch.stable import engine, log_density_terms
        engine._engine.cache_clear()
        log_density_terms(np.linspace(-6.0, 6.0, 50), 1.63, 0.21)
        assert engine._engine.cache_info().misses == 1


def _base(psi):
    return dict(alpha=psi.alpha, beta=psi.beta, mu=psi.mu, gamma=psi.gamma)
