"""Density, characteristic function and derivative checks for the stable family."""

from functools import lru_cache

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (ORACLE_ATOL, quad_cdf_oracle, quad_density_oracle,
                      quad_shape_derivative_oracle)
from stablegarch.errors import AccuracyNotReached
from stablegarch.stable import (
    DEFAULT_ACCURACY,
    FIT_ACCURACY,
    DensityAccuracy,
    StableParams,
    char_fn,
    density,
    get_engine,
    log_density_terms,
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
                cands.append(eng.center.evaluate(y, ("pdf",), (acc.abs_tol,))[:, 0])
            r = np.abs(y)
            tail_v = np.empty_like(x)
            tail_e = np.full_like(x, np.inf)
            pos = y > 0
            tail_v[pos], tail_e[pos] = eng.right.evaluate(r[pos], ("pdf",), (acc.abs_tol,))[:, 0]
            tail_v[~pos], tail_e[~pos] = eng.left.evaluate(r[~pos], ("pdf",), (acc.abs_tol,))[:, 0]
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
        (_,), (err,) = get_engine(StableParams(1.5, 0.2), acc).dpdf_with_err(0.7)
        assert err > acc.abs_tol
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

    def test_nan_point_named(self):
        psi = StableParams(1.6, 0.2)
        with pytest.raises(ValueError, match="point 0 is NaN"):
            density(np.nan, psi)
        with pytest.raises(ValueError, match="point 2 is NaN"):
            density([0.5, -1.0, np.nan, np.nan], psi)
        # the engine itself, which the likelihood's kernel calls directly
        with pytest.raises(ValueError, match="point 0 is NaN"):
            log_density_terms(np.array([np.nan, 0.5]), 1.6, 0.2)
        with pytest.raises(ValueError, match="point 1 is NaN"):
            get_engine(psi, DEFAULT_ACCURACY).pdf([0.5, np.nan])


class TestTableLadder:
    """f and f' tables on the smallest FFT whose folds certify."""

    @staticmethod
    def _tables(alpha, beta):
        from stablegarch.stable.engine import StandardDensity
        eng = StandardDensity(alpha, beta, DensityAccuracy())  # cold: no table yet
        tables = [eng._fft_table(q) for q in ("pdf", "dpdf")]
        for order, table in enumerate(tables):
            assert table.err <= eng.tol
            xs = np.linspace(table.x_lo, table.x_hi, 9)
            want = [quad_density_oracle(x, alpha, beta, order) for x in xs]
            assert_allclose(table(xs), want, rtol=0.0, atol=table.err)
        return eng, tables

    def test_moderate_alpha_on_small_grid(self):
        _, tables = self._tables(1.7, 0.3)
        assert max(t.n_nodes for t in tables) <= 2048

    def test_climbs_to_first_certified_size(self):
        from stablegarch.stable.fourier import FourierTable
        eng, tables = self._tables(0.8, 0.3)
        cap = DensityAccuracy().fft_grid_size
        assert [t.n_nodes for t in tables] == [16384, 16384]
        assert 16384 < cap
        # the rung below does not certify its folds: both tables share the
        # truncation and interpolation terms, so the gap between their bounds
        # is at most the smaller grid's fold bound, which must exceed tol / 8
        half = FourierTable(0.8, 0.3, (-eng.x_keep, eng.x_keep), 8192, eng.tol,
                            tail_sides=(eng.right, eng.left))
        assert half.n_nodes == 8192
        assert half.err - tables[0].err > eng.tol / 8.0

    def test_climbing_table_inverts_once(self, monkeypatch):
        # the rung comes from the folds alone, so the rungs below the one
        # kept take no transform and no FFT
        from stablegarch.stable import fourier
        from stablegarch.stable.engine import StandardDensity
        eng = StandardDensity(0.8, 0.3, DensityAccuracy())
        window = (-eng.x_keep, eng.x_keep)
        sizes, transforms = [], fourier._transforms

        def counting(t, *args):
            sizes.append(t.size)
            return transforms(t, *args)

        monkeypatch.setattr(fourier, "_transforms", counting)
        table = fourier.FourierTable(0.8, 0.3, window, eng.acc.fft_grid_size, eng.tol,
                                     tail_sides=(eng.right, eng.left))
        assert table.n_nodes == 16384
        assert sizes == [16384]

    @pytest.mark.parametrize("alpha, beta", [(1.7, 0.3), (0.8, 0.3)])
    def test_cdf_ppf_round_trip(self, alpha, beta):
        from stablegarch.stable.engine import StandardDensity
        eng = StandardDensity(alpha, beta, DensityAccuracy())
        for p in (0.01, 0.05, 0.5, 0.95, 0.99):
            x = eng.ppf(p)
            (got,), (err,) = eng.cdf_with_err(np.array([x]))
            assert got == pytest.approx(p, abs=1e-12)
            # the Gil-Pelaez oracle is itself good to about 5e-10
            assert quad_cdf_oracle(x, alpha, beta) == pytest.approx(p, abs=err + 1e-9)


def _slope(x, psi, acc=DEFAULT_ACCURACY):
    """f'(x) of a unit-scale law centred at 0, asserted certified by the engine."""
    (val,), (err,) = get_engine(psi, acc).dpdf_with_err(x)
    assert err <= acc.abs_tol
    return val


class TestDensityDx:
    def test_symmetric_zero_slope_at_center(self):
        assert _slope(0.0, CAUCHY) == pytest.approx(0.0, abs=1e-9)

    def test_cauchy_closed_form(self):
        want = -2.0 / (np.pi * 4.0)
        assert _slope(1.0, CAUCHY) == pytest.approx(want, abs=1e-9)

    def test_matches_finite_difference(self):
        # h = 1e-5 needs a density far tighter than the FD target, otherwise
        # the difference quotient amplifies the certified jitter by 1/h
        psi = StableParams(1.7, -0.4)
        acc = DensityAccuracy(abs_tol=1e-11)
        h = 1e-5
        for x in [-4.0, 0.6, 5.0]:
            fd = (density(x + h, psi, acc) - density(x - h, psi, acc)) / (2.0 * h)
            got = _slope(x, psi, acc)
            assert got == pytest.approx(fd, rel=1e-4, abs=1e-9)

    def test_fd_consistency_where_density_positive(self):
        # f' against the quadrature inversion of (-it) phi, within the
        # certified error: a difference quotient of f cannot referee here, as
        # at S(1.9, 0.7), x = -6 its rounding noise reaches 1e-4 relative
        for alpha, beta in [(0.8, 0.3), (1.5, 0.0), (1.9, 0.7)]:
            psi = StableParams(alpha, beta)
            for x in [-6.0, -1.0, 0.4, 2.0, 8.0]:
                if density(x, psi) <= 1e-12:
                    continue
                (val,), (err,) = get_engine(psi, DEFAULT_ACCURACY).dpdf_with_err(x)
                assert err <= DEFAULT_ACCURACY.abs_tol
                want = quad_density_oracle(x, alpha, beta, order=1)
                assert abs(val - want) <= err + ORACLE_ATOL, (alpha, beta, x)


def _log_grad(x, psi):
    """d log f/d(alpha, beta, mu, x) at the points x, shape (n, 4).

    The shape components are ``log_density_terms`` at z = (x - mu)/gamma;
    the mu and x components are -(f'/f)/gamma and (f'/f)/gamma.
    """
    z = (np.atleast_1d(np.asarray(x, dtype=float)) - psi.mu) / psi.gamma
    _, slope, d_shape = log_density_terms(z, psi.alpha, psi.beta, DEFAULT_ACCURACY)
    d_x = slope / psi.gamma
    return np.column_stack([d_shape, -d_x, d_x])


class TestLogDensityGrad:
    def test_mu_component_zero_at_symmetric_center(self):
        g = _log_grad(0.0, CAUCHY)
        assert g[0, 2] == pytest.approx(0.0, abs=1e-6)

    def test_beta_component_matches_fd(self):
        psi = StableParams(1.5, 0.0)
        h = 1e-4
        x = 0.0
        fd = (density(x, StableParams(1.5, h)) - density(x, StableParams(1.5, -h))) / (2 * h)
        fd_log = fd / density(x, psi)
        got = _log_grad(x, psi)[0, 1]
        assert got == pytest.approx(fd_log, rel=1e-4, abs=1e-4)

    def test_tail_slope_law(self):
        # x * dlogf/dx -> -(alpha + 1) in the tails
        psi = StableParams(1.5, 0.0)
        g = _log_grad(100.0, psi)
        assert g[0, 3] * 100.0 == pytest.approx(-2.5, rel=0.05)

    @pytest.mark.parametrize("alpha, beta", [(2.0, 0.0), (1.5, 1.0), (1.5, -1.0),
                                             (1.99995, 0.3)])
    def test_edge_stencils_match_one_sided_differences(self, alpha, beta):
        # alpha = 2 and |beta| = 1 take one-sided stencils; the oracle is a
        # one-sided second-order difference of log density with a wider step
        acc = DensityAccuracy(abs_tol=1e-11)
        h = 1e-3
        xs = np.array([-1.0, 0.0, 0.5, 1.5])
        psi = StableParams(alpha, beta)
        grads = _log_grad(xs, psi)

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
            grads = _log_grad(xs, psi)
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
            got, err = eng.evaluate(xs, ("d" + wrt,))[0]
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
        assert np.max(np.abs(eng.evaluate(xs, ("dbeta",))[0, 0])) > 1e-2

    @pytest.mark.parametrize("alpha, beta, xs, acc", [
        (0.9, 0.4, [-2.8, -2.6, -2.5, -2.3], DensityAccuracy()),
        (1.0, 0.5, [-0.6, -0.2, 0.0, 0.3], FIT_ACCURACY),
    ])
    def test_gap_points_take_point_sums(self, alpha, beta, xs, acc, monkeypatch):
        # centre points no series certifies: near the shift point -tau = -2.53
        # of S(0.9, 0.4), and anywhere at alpha = 1, beta != 0 (no series);
        # so few points take Fourier point sums, which certify with no table
        # and no quadrature (there the folds are removed to leading order)
        from stablegarch.stable import engine
        calls = []
        monkeypatch.setattr(engine, "quad_pdf_point",
                            lambda *a, **k: calls.append(a) or (0.0, np.inf))
        eng = self._check(alpha, beta, np.array(xs), acc)
        assert eng._tables == {}
        assert calls == []

    def test_many_gap_points_build_table(self, monkeypatch):
        # more points than go to point sums, near the same shift point: the
        # partial tables are built and certify them all
        from stablegarch.stable import engine
        from stablegarch.stable.engine import StandardDensity
        calls = []
        monkeypatch.setattr(engine, "quad_pdf_point",
                            lambda *a, **k: calls.append(a) or (0.0, np.inf))
        xs = np.linspace(-2.8, -2.3, StandardDensity._POINT_SUMS + 1)
        eng = StandardDensity(0.9, 0.4, DensityAccuracy())
        got = eng.evaluate(xs, ("dalpha", "dbeta"))
        assert {"dalpha", "dbeta"} <= set(eng._tables)
        assert calls == []
        assert np.all(got[:, 1] <= eng.tol)
        for row, wrt in zip(got, ("alpha", "beta")):
            for i in (0, 100, 256):
                want = quad_shape_derivative_oracle(xs[i], 0.9, 0.4, wrt)
                assert abs(row[0, i] - want) <= 2.0 * eng.tol

    def test_unknown_quantity_named(self):
        eng = get_engine(StableParams(1.6, 0.0), FIT_ACCURACY)
        with pytest.raises(ValueError, match="'dgamma'.*'pdf', 'dpdf', 'dalpha', 'dbeta'"):
            eng.evaluate(np.array([0.5]), ("pdf", "dgamma"))

    def test_log_density_terms_builds_one_engine(self):
        from stablegarch.stable import engine, log_density_terms
        engine._engine.cache_clear()
        log_density_terms(np.linspace(-6.0, 6.0, 50), 1.63, 0.21)
        assert engine._engine.cache_info().misses == 1



_FUSED_LAWS = [(a, b) for a in (0.8, 1.3, 1.7, 1.95) for b in (0.0, 0.3, -0.6)]
_FUSED_LAWS += [(1.0, 0.0), (1.0, 0.9)]  # S(1, 0.9): no series, tables and quadrature
_FUSED_X = np.array([-500.0, -40.0, -7.0, -6.0, -5.0, -2.5, -1.0, -0.3, 0.0,
                     0.3, 1.0, 2.5, 5.0, 6.0, 7.0, 40.0, 500.0])


class TestFusedPass:
    """f, f' and both partials evaluated together against one at a time."""

    @pytest.mark.parametrize("acc", [FIT_ACCURACY, DensityAccuracy()], ids=["fit", "default"])
    @pytest.mark.parametrize("alpha, beta", _FUSED_LAWS)
    def test_matches_single_quantity_paths(self, alpha, beta, acc):
        from stablegarch.stable import engine, log_density_terms
        from stablegarch.stable.engine import StandardDensity
        singles = [StandardDensity(alpha, beta, acc).pdf_with_err(_FUSED_X),
                   StandardDensity(alpha, beta, acc).dpdf_with_err(_FUSED_X),
                   StandardDensity(alpha, beta, acc).evaluate(_FUSED_X, ("dalpha",))[0],
                   StandardDensity(alpha, beta, acc).evaluate(_FUSED_X, ("dbeta",))[0]]
        fused = StandardDensity(alpha, beta, acc).evaluate(
            _FUSED_X, ("pdf", "dpdf", "dalpha", "dbeta"))
        fused[0, 0] = np.maximum(fused[0, 0], 0.0)  # as pdf_with_err clips
        for (val, err), (f_val, f_err) in zip(singles, fused):
            assert_allclose(f_val, val, rtol=0.0, atol=1e-12)
            assert np.array_equal(f_err <= acc.abs_tol, err <= acc.abs_tol)
        engine._engine.cache_clear()  # log_density_terms on a fresh engine
        logf, slope, d_shape = log_density_terms(_FUSED_X, alpha, beta, acc)
        f = np.exp(logf)
        got = [f, slope * f, d_shape[:, 0] * f, d_shape[:, 1] * f]
        for g, (val, _) in zip(got, singles):
            assert_allclose(g, val, rtol=0.0, atol=1e-12)

    def test_one_pass_per_piece_and_stage(self, monkeypatch):
        # stage 1 and the full budget: at most two passes of each series
        # piece for all four quantities of a likelihood evaluation, each on
        # one power matrix that all four quantities read; the tail is one
        # piece, both sides in one pass per stage, and an engine scans one
        # side for its tail onsets, once
        from stablegarch.stable import engine, get_engine, log_density_terms, sample
        from stablegarch.stable.engine import StandardDensity
        from stablegarch.stable.series import CenterSeries, TailSeriesSide, _Expansion
        passes, matrices, scans = [], [], []
        for cls in (CenterSeries, TailSeriesSide):
            def counting(self, arg, quantities, *args, _evaluate=cls.evaluate, **kwargs):
                passes.append((id(self), tuple(quantities)))
                return _evaluate(self, arg, quantities, *args, **kwargs)
            monkeypatch.setattr(cls, "evaluate", counting)

        def counting_matrix(self, *args, _matrix=_Expansion._power_matrix):
            matrices.append(id(self))
            return _matrix(self, *args)

        def counting_scan(self, side, _scan=StandardDensity._side_onsets):
            scans.append(id(side))
            return _scan(self, side)

        monkeypatch.setattr(_Expansion, "_power_matrix", counting_matrix)
        monkeypatch.setattr(StandardDensity, "_side_onsets", counting_scan)
        engine._engine.cache_clear()
        x = sample(StableParams(1.7, 0.3), 1000, np.random.default_rng(3))
        log_density_terms(x, 1.7, 0.3)
        eng = get_engine(StableParams(1.7, 0.3), FIT_ACCURACY)
        per_piece = {}
        for piece, quantities in passes:
            per_piece[piece] = per_piece.get(piece, 0) + 1
            assert quantities == ("pdf", "dpdf", "dalpha", "dbeta")
        assert set(per_piece) == {id(eng.right), id(eng.center)}
        assert max(per_piece.values()) <= 2
        assert len(passes) > 2  # the full budget ran too
        assert [piece for piece, _ in passes] == matrices
        assert np.isfinite(eng.x_keep)
        eng._build_cdf()
        assert scans == [id(eng.right)]


class TestFoldSums:
    """Aliasing folds are the tail series' own sums over the fold lattice."""

    @pytest.mark.parametrize("alpha, beta", [(1.7, 0.0), (1.7, 0.3), (1.95, 0.0), (1.95, 0.3)])
    def test_fold_sum_is_lattice_sum_of_series(self, alpha, beta):
        from stablegarch.stable.series import TailSeriesSide
        period, q0 = 300.0, np.array([0.9, 1.0, 1.15])
        r = ((q0[:, None] + np.arange(200_000)) * period).ravel()
        for side in (TailSeriesSide(alpha, beta, 16), TailSeriesSide(alpha, -beta, 16)):
            lattice = {q: side.evaluate(r, (q,), (1e-300,), kcap=4)[0, 0]
                       .reshape(q0.size, -1).sum(axis=1)
                       for q in ("pdf", "dpdf", "dalpha", "dbeta")}
            for q, brute in lattice.items():
                # a partial at fixed x: the lattice points move with tau
                want = brute + side.dtau.get(q, 0.0) * lattice["dpdf"]
                assert_allclose(side.fold_sum(q0, period, (q,))[0][0], want, rtol=1e-8)

    def test_zeta_kernel_within_its_bounds(self):
        from scipy import special
        from stablegarch.stable.series import hurwitz_zeta
        s = np.linspace(1.2, 12.0, 25)[:, None]
        oracle_rel = []
        # one q per call: a bound holds for every point of its call
        for q in np.geomspace(1e-3, 2.0, 40)[:, None]:
            zeta, zeta_err, z, z_err = hurwitz_zeta(s, q)
            assert np.all(np.abs(zeta - special.zeta(s, q)) <= zeta_err)
            # Z = -d zeta/ds against a Richardson-extrapolated central
            # difference of scipy's zeta; the oracle's own error is taken
            # as its gap to the same rule at twice the step plus rounding
            def central(h):
                return (special.zeta(s - h, q) - special.zeta(s + h, q)) / (2.0 * h)

            def richardson(h):
                return (4.0 * central(h) - central(2.0 * h)) / 3.0

            h = 1e-3
            oracle = richardson(h)
            oracle_err = np.abs(oracle - richardson(2.0 * h)) + 16.0 * np.finfo(float).eps * zeta / h
            assert np.all(np.abs(z - oracle) <= z_err + oracle_err)
            oracle_rel.append(oracle_err / np.abs(oracle))
        assert np.median(oracle_rel) < 1e-9  # the oracle can tell

    def test_zeta_kernel_is_nan_at_non_positive_q(self):
        # pytest turns RuntimeWarnings into errors: none may be raised
        from stablegarch.stable.series import hurwitz_zeta
        zeta, zeta_err, z, z_err = hurwitz_zeta(np.array([[2.0], [3.5]]), np.array([-0.5, 0.0, 1.0]))
        for value in (zeta, z):
            assert np.all(np.isnan(value[:, :2])) and np.all(np.isfinite(value[:, 2]))
        assert np.all(np.isnan(zeta_err)) and np.all(np.isnan(z_err))

    def test_folds_beyond_the_period_certify_nothing(self):
        # near alpha = 1 the shift tau (about 573 here) exceeds the fold
        # period of a 1024-node grid, so a lattice offset q is negative
        from stablegarch.stable.fourier import FourierTable
        from stablegarch.stable.series import TailSeriesSide
        alpha, beta = 0.999, 0.9
        sides = (TailSeriesSide(alpha, beta, 64), TailSeriesSide(alpha, -beta, 64))
        table = FourierTable(alpha, beta, (-10.0, 10.0), 1024, 1e-8, tail_sides=sides)
        assert table.err == np.inf
        assert np.all(table(np.linspace(-10.0, 10.0, 5)) == 0.0)


class TestTailMass:
    """The cdf beyond its anchors, where only the tail mass serves it."""

    @pytest.mark.parametrize("beta", [0.5, -0.9])
    def test_no_series_law_against_oracle(self, beta):
        # S(1, beta != 0) has no tail series: the mass comes from a
        # quadrature grid in log|x|, charged 1e-6
        from stablegarch.stable.engine import StandardDensity
        eng = StandardDensity(1.0, beta, DensityAccuracy())
        xs = np.array([-200.0, -63.5, 63.5, 200.0])
        got, err = eng.cdf_with_err(xs)
        st = eng._build_cdf()
        assert np.all((xs < st["a_l"]) | (xs > st["a_r"]))
        want = np.array([quad_cdf_oracle(x, 1.0, beta) for x in xs])
        # the Gil-Pelaez oracle is within 1e-7 of a 30-digit inversion here
        assert np.all(np.abs(got - want) <= err + 2e-7)


class TestTailOnset:
    """Tail onsets from the few probe radii that decide them."""

    @staticmethod
    def _full_scan(eng, kind):
        # every probe radius in one pass per side: the onset is where the
        # trailing run of certified radii starts
        from stablegarch.stable.engine import _PROBE_RADII
        onset = 0.0
        for side in (eng.right, eng.left):
            ok = side.evaluate(_PROBE_RADII, (kind,), (eng.tol,))[1, 0] <= eng.tol
            if not ok.any():
                return np.inf
            idx = len(ok) - 1
            while idx > 0 and ok[idx - 1]:
                idx -= 1
            onset = max(onset, _PROBE_RADII[idx])
        return onset

    # alpha < 1 laws whose onsets move when a pass sums only its own radii's
    # term budget, |beta| = 1, laws of the VaR desk's range, and S(0.78, 1),
    # whose sf onset at FIT_ACCURACY is the second radius past its bound on
    # both sides
    _LAWS = [(0.6, 0.4), (0.54, 0.8), (0.54, -0.8), (0.6, 1.0), (0.6, -1.0), (0.3, 0.7),
             (0.9, -1.0), (1.5, 1.0), (1.5, -1.0), (1.2, -0.5), (1.5, 0.2), (1.73, 0.45),
             (1.95, -0.3), (0.78, 1.0)]

    @pytest.mark.parametrize("alpha, beta", _LAWS)
    @pytest.mark.parametrize("acc", [DensityAccuracy(), FIT_ACCURACY], ids=["default", "fit"])
    def test_onsets_equal_full_scan(self, alpha, beta, acc):
        from stablegarch.stable.engine import StandardDensity
        eng = StandardDensity(alpha, beta, acc)
        for kind in ("pdf", "sf"):
            assert eng._onset(kind) == self._full_scan(eng, kind)

    @pytest.mark.parametrize("alpha, beta", _LAWS)
    @pytest.mark.parametrize("acc", [DensityAccuracy(), FIT_ACCURACY], ids=["default", "fit"])
    def test_onsets_equal_full_scan_without_bound(self, alpha, beta, acc, monkeypatch):
        # with no bound each scan starts at the first radius, and a kind its
        # first two radii do not certify takes the rest in the second pass
        from stablegarch.stable.series import TailSeriesSide
        monkeypatch.setattr(TailSeriesSide, "certifies_from", lambda *args: -np.inf)
        self.test_onsets_equal_full_scan(alpha, beta, acc)

    def test_cold_engine_evaluates_few_radii(self, monkeypatch):
        # a full scan passes 4 x 140 radii to the tail series; the scans from
        # the proven bounds pass two radii per kind and side here
        from stablegarch.stable.engine import StandardDensity
        from stablegarch.stable.series import TailSeriesSide
        passed, evaluate = [], TailSeriesSide.evaluate

        def counting(self, z, quantities, *args, **kwargs):
            passed.append(np.size(z) * len(quantities))
            return evaluate(self, z, quantities, *args, **kwargs)

        eng = StandardDensity(1.5, 0.2, DensityAccuracy())
        monkeypatch.setattr(TailSeriesSide, "evaluate", counting)
        eng._onset("pdf")
        eng._onset("sf")
        assert 0 < sum(passed) <= 16



_REACH_LAWS = [(a, b) for a in (0.6, 0.9, 1.0, 1.3, 1.7, 1.95) for b in (0.0, 0.3, -0.7)
               if a != 1.0 or b == 0.0]
_ALL_QUANTITIES = ("pdf", "dpdf", "dalpha", "dbeta")


class TestSeriesReach:
    """Series passes take only the points they can certify, and change no value."""

    @pytest.mark.parametrize("acc", [FIT_ACCURACY, DensityAccuracy()], ids=["fit", "default"])
    @pytest.mark.parametrize("alpha, beta", _REACH_LAWS)
    def test_gate_changes_no_value(self, alpha, beta, acc, monkeypatch):
        # every point sums the same terms with or without the reach gates:
        # the values and errors agree bit for bit
        from stablegarch.stable import sample
        from stablegarch.stable.engine import StandardDensity
        from stablegarch.stable.series import CenterSeries, TailSeriesSide
        x = np.concatenate([sample(StableParams(alpha, beta), 100, seed=7),
                            np.linspace(-12.0, 12.0, 101)])
        gated = StandardDensity(alpha, beta, acc).evaluate(x, _ALL_QUANTITIES)
        monkeypatch.setattr(TailSeriesSide, "certifies_from", lambda *args: -np.inf)
        monkeypatch.setattr(CenterSeries, "certifies_within", lambda *args: np.inf)
        ungated = StandardDensity(alpha, beta, acc).evaluate(x, _ALL_QUANTITIES)
        assert np.array_equal(gated.view(np.int64), ungated.view(np.int64))

    def test_tail_takes_few_points(self, monkeypatch):
        # without the reach gates the tail sides took 1,944 point-quantities
        # here, of which they certified almost none
        from stablegarch.stable import sample
        from stablegarch.stable.engine import StandardDensity
        from stablegarch.stable.series import TailSeriesSide
        passed, evaluate = [], TailSeriesSide.evaluate

        def counting(self, z, quantities, *args, **kwargs):
            passed.append(np.size(z) * len(quantities))
            return evaluate(self, z, quantities, *args, **kwargs)

        monkeypatch.setattr(TailSeriesSide, "evaluate", counting)
        x = sample(StableParams(1.7, 0.3), 1000, seed=11)
        StandardDensity(1.7, 0.3, FIT_ACCURACY).evaluate(x, _ALL_QUANTITIES)
        assert 0 < sum(passed) <= 100

    @pytest.mark.parametrize("acc", [FIT_ACCURACY, DensityAccuracy()], ids=["fit", "default"])
    @pytest.mark.parametrize("alpha, beta", [(0.6, 0.3), (0.9, -0.7), (1.0, 0.0), (1.3, 0.3),
                                             (1.7, -0.7), (1.95, 0.0)])
    def test_no_pass_certifies_beyond_reach(self, alpha, beta, acc):
        # a tail side just inside its radius, and the centre just outside
        # its own, report an error above the tolerance for each term cap
        from stablegarch.stable.series import CenterSeries, TailSeriesSide
        tol, kmax = acc.abs_tol, acc.max_series_terms
        below, above = np.array([0.5, 0.9, 1.0 - 1e-6]), np.array([1.0 + 1e-6, 1.1, 2.0])
        centre = CenterSeries(alpha, beta, kmax) if alpha >= 1.0 else None
        for q in _ALL_QUANTITIES:
            for side in (TailSeriesSide(alpha, beta, kmax), TailSeriesSide(alpha, -beta, kmax)):
                for kcap in (40, None):
                    r = np.exp(side.certifies_from(q, tol, kcap)) * below
                    assert np.all(side.evaluate(r, (q,), (tol,), kcap)[1, 0] > tol)
            if centre is not None:
                y = np.exp(centre.certifies_within(q, tol, 40)) * np.concatenate([above, -above])
                assert np.all(centre.evaluate(y, (q,), (tol,), 40)[1, 0] > tol)


_MIRROR_LAWS = [(a, b) for a in (0.5, 0.8, 1.0, 1.1, 1.5, 1.9) for b in (0.3, -0.7, 1.0, -1.0)]
_TAIL_QUANTITIES = ("pdf", "dpdf", "sf", "dalpha", "dbeta")


class TestTailMirror:
    """The left tail side is the right's mirror: the same envelopes, only other signs."""

    @pytest.mark.parametrize("acc", [FIT_ACCURACY, DensityAccuracy()], ids=["fit", "default"])
    @pytest.mark.parametrize("alpha, beta", _MIRROR_LAWS)
    def test_sides_certify_alike(self, alpha, beta, acc):
        # two sides built on their own, at beta and -beta: every error, reach
        # bound and onset agrees bit for bit, which is what lets the left
        # side share the right's envelopes and certificates
        from stablegarch.stable.engine import StandardDensity
        from stablegarch.stable.series import TailSeriesSide
        tol, kmax = acc.abs_tol, acc.max_series_terms
        if alpha == 1.0:
            beta = 0.0  # no tail series at alpha = 1 otherwise
        right, left = TailSeriesSide(alpha, beta, kmax), TailSeriesSide(alpha, -beta, kmax)
        r = np.geomspace(0.3, 1e4, 300)
        tols = (tol,) * len(_TAIL_QUANTITIES)
        for kcap in (40, None):
            err_r = right.evaluate(r, _TAIL_QUANTITIES, tols, kcap)[1]
            err_l = left.evaluate(r, _TAIL_QUANTITIES, tols, kcap)[1]
            assert np.array_equal(err_r.view(np.int64), err_l.view(np.int64))
            for q in _TAIL_QUANTITIES:
                assert right.certifies_from(q, tol, kcap) == left.certifies_from(q, tol, kcap)
        eng = StandardDensity(alpha, beta, acc)
        assert eng._side_onsets(right) == eng._side_onsets(left)

    @pytest.mark.parametrize("alpha, beta", [(0.6, 0.3), (0.9, -1.0), (1.3, 0.3), (1.7, -0.7),
                                             (1.95, 1.0)])
    def test_mirror_is_the_other_side(self, alpha, beta):
        # the mirror, and the right side at y < 0, give the values and errors
        # of a side built at -beta (the odd quantities with their sign flipped)
        from stablegarch.stable.series import ODD_QUANTITIES, TailSeriesSide
        acc = DensityAccuracy()
        tol, kmax = acc.abs_tol, acc.max_series_terms
        right = TailSeriesSide(alpha, beta, kmax)
        own = TailSeriesSide(alpha, -beta, kmax)
        r = np.geomspace(0.5, 3e3, 97)
        tols = (tol,) * len(_TAIL_QUANTITIES)
        flip = np.array([-1.0 if q in ODD_QUANTITIES else 1.0 for q in _TAIL_QUANTITIES])[:, None]
        for kcap in (40, None):
            want = own.evaluate(r, _TAIL_QUANTITIES, tols, kcap)
            got = right.mirror.evaluate(r, _TAIL_QUANTITIES, tols, kcap)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            y = np.concatenate([r[::2], -r[1::2]])
            budgets = [(right.term_budget(q, tol, np.log(r[::2])),
                        right.term_budget(q, tol, np.log(r[1::2]))) for q in _TAIL_QUANTITIES]
            both = right.evaluate(y, _TAIL_QUANTITIES, tols, kcap,
                                  budgets=None if kcap else budgets)
            alone = right.evaluate(r[::2], _TAIL_QUANTITIES, tols, kcap)
            npos = r[::2].size
            assert np.array_equal(both[:, :, :npos].view(np.int64), alone.view(np.int64))
            mirrored = own.evaluate(r[1::2], _TAIL_QUANTITIES, tols, kcap)
            mirrored[0] *= flip
            assert np.array_equal(both[:, :, npos:].view(np.int64), mirrored.view(np.int64))

    def test_engine_sides_form_no_cycle(self):
        # the mirror holds no reference back to its side, so a cold engine
        # of the fits is freed when dropped, with no wait for the cycle
        # collector (cycles held 11 MB more at the study's peak)
        import gc

        from stablegarch.stable.engine import StandardDensity
        gc.collect()
        gc.disable()
        try:
            eng = StandardDensity(1.6, 0.1, FIT_ACCURACY)
            eng.evaluate(np.linspace(-40.0, 40.0, 81), _ALL_QUANTITIES)
            eng._build_cdf()
            del eng
            assert gc.collect() == 0
        finally:
            gc.enable()


_CACHE_LAWS = [(a, b) for a in (0.7, 1.6, 1.9) for b in (0.0, 0.4, -0.4)]


class TestSeriesCaches:
    """A series caches what a pass reads of each quantity, and no value moves for it."""

    @pytest.mark.parametrize("alpha, beta", _CACHE_LAWS)
    def test_served_series_gives_a_fresh_series_bits(self, alpha, beta):
        # the same points on a fresh series and on one that has first served
        # other quantities, tolerances, caps, budgets and point sets: one
        # side, both sides and single points of the tail, and the centre on
        # one side and across the shift point
        from stablegarch.stable.series import CenterSeries, TailSeriesSide
        acc = DensityAccuracy()
        tol, kmax = acc.abs_tol, acc.max_series_terms
        r = np.geomspace(0.8, 300.0, 23)
        y = np.linspace(-3.0, 3.0, 25)
        pieces = [(TailSeriesSide, _TAIL_QUANTITIES,
                   [r, -r, np.concatenate([r[::2], -r[1::2]]), np.array([7.3]), np.array([-7.3])],
                   [(60, 90), (90, 60)])]
        if alpha > 1.0:
            pieces.append((CenterSeries, ("cdf",) + _ALL_QUANTITIES,
                           [y, y[y < 0.0], y[y >= 0.0], np.array([-0.7])], [(50,), (70,)]))
        for cls, quantities, sets, budgets in pieces:
            used = cls(alpha, beta, kmax)
            served = ((quantities[::-1], tol * 10.0, 40), (quantities[:2], tol / 3.0, None))
            for z in (np.array([0.9, -2.5, 40.0]), np.geomspace(1.0, 1e4, 7)):
                for qs, t, kcap in served:
                    used.evaluate(z, qs, (t,) * len(qs), kcap)
                used.evaluate(-z, quantities[1:], (tol,) * (len(quantities) - 1),
                              budgets=[budgets[1]] * (len(quantities) - 1))
            tols = (tol,) * len(quantities)
            for z in sets:
                for kcap, given in ((40, None), (None, None), (None, [budgets[0]] * len(tols))):
                    want = cls(alpha, beta, kmax).evaluate(z, quantities, tols, kcap,
                                                           budgets=given)
                    got = used.evaluate(z, quantities, tols, kcap, budgets=given)
                    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (cls, z)

    @pytest.mark.parametrize("alpha, beta", [(0.7, 0.4), (1.6, 0.0), (1.9, -0.4)])
    def test_series_cdf_row_alone_and_in_a_call(self, alpha, beta):
        # a point's (mass, err, f, piece) is its row in a 49-point call whose
        # points take the tail, the centre or the closed form at the shift
        # point, or no piece
        from stablegarch.stable.engine import StandardDensity
        eng = StandardDensity(alpha, beta, DensityAccuracy())
        x = np.linspace(-24.0, 24.0, 49) - eng.tau
        for density in (False, True):
            rows = eng._series_cdf(x, density)
            assert {0, 1} <= set(rows[3].tolist())
            for i in range(x.size):
                alone = eng._series_cdf(x[i:i + 1], density)
                for got, want in zip(alone, rows):
                    if want is not None:
                        assert np.array_equal(got.view(np.int64), want[i:i + 1].view(np.int64))


_SERIES_SUM_LAWS = [(a, b) for a in (0.6, 0.9, 1.3, 1.6, 1.95) for b in (0.0, 0.3, -0.7)]


class TestSeriesSums:
    """Series sums off the power matrix against the terms computed one by one."""

    @staticmethod
    def _reference(series, z, quantity, tol, kcap):
        """(fsum of the terms to the cut, err, roundoff part) per point, term by term.

        Each term is the exponential of its own log coefficient, factors and
        power, times its sign, with no floor; the cut and the certificate
        follow ``_truncated_sum`` and ``_certified_sum``: the least
        envelope, a floored power entry counting as zero (asymptotic), or
        the first term below tol/_ASYM_SAFETY whose ratio contracts and the
        geometric rest from the last (convergent).
        """
        import math

        from stablegarch.stable import series as S
        extra, off, sign, slope, ratio = series._spec(quantity)
        logz = S.log_radius(z)
        nk = series._budget(series._spec(quantity), tol, kcap, logz)
        k = series._k[:nk]
        sign_v = np.sign(series._step)  # the power of |z| is sign_v times the degree
        kp = sign_v * series._degree(k, off)
        out = []
        for zn, lz in zip(z, logz):
            with np.errstate(over="ignore", invalid="ignore"):
                env = np.exp(series._logcoef[:nk] + extra[:nk] + kp * lz) / series._norm
                terms = env * sign[:nk]
                if slope is not None:
                    terms = terms + env * slope[0][:nk] * lz
                    env = env * (1.0 + slope[1][:nk] * abs(lz))
            if zn < 0.0:
                terms = np.where(kp % 2 == 1, -terms, terms)
            if ratio is None:
                # the power matrix's exponents, a far column lifted by its
                # largest (its first at the far radius here)
                power_entry = series._logcoef[:nk] + series._degree(k, 0.0) * sign_v * lz
                lift = min(power_entry.max() - S._LOG_LIFT, 0.0)
                floored = power_entry - lift <= S._LOG_FLOOR
                n = int(np.argmin(np.where(floored, 0.0, env))) + 1
                remainder = S._ASYM_SAFETY * env[n - 1]
            else:
                ok = (env <= tol / S._ASYM_SAFETY) & (ratio[:nk] + series._step * lz
                                                      < np.log(S._RATIO_CAP))
                ok[-1] = False
                n, remainder = nk, np.inf
                if ok.any():
                    q = np.exp(np.clip(ratio[np.argmax(ok)] + series._step * lz,
                                       S._LOG_FLOOR, np.log(S._RATIO_CAP)))
                    remainder = env[-1] * q / (1.0 - q) + env[-1]
            roundoff = S._ROUNDOFF_SAFETY * S._EPS * env[:n].max() * max(n, 8)
            out.append((math.fsum(terms[:n]), remainder + roundoff, roundoff))
        return np.array(out).T

    @pytest.mark.parametrize("alpha, beta", _SERIES_SUM_LAWS)
    def test_matches_term_by_term(self, alpha, beta):
        from stablegarch.stable.series import CenterSeries, TailSeriesSide
        r = np.append(np.geomspace(0.3, 400.0, 37), 1e250)  # and a mass near e^-345 or below
        pieces = [(TailSeriesSide(alpha, b, acc.max_series_terms), r,
                   ("pdf", "dpdf", "sf", "dalpha", "dbeta"), acc)
                  for acc in (FIT_ACCURACY, DensityAccuracy()) for b in (beta, -beta)]
        if alpha > 1.0:
            y = np.concatenate([[0.0, 1e-300, -1e-300, -0.3, 0.05, 2.5],
                                np.linspace(-9.0, 9.0, 31)])
            pieces += [(CenterSeries(alpha, beta, acc.max_series_terms), y,
                        ("pdf", "dpdf", "dalpha", "dbeta"), acc)
                       for acc in (FIT_ACCURACY, DensityAccuracy())]
        for series, z, quantities, acc in pieces:
            tol = acc.abs_tol
            for kcap in (40, None):
                got = series.evaluate(z, quantities, (tol,) * len(quantities), kcap)
                for (value, err), quantity in zip(got.transpose(1, 0, 2), quantities):
                    want, want_err, roundoff = self._reference(series, z, quantity, tol, kcap)
                    assert np.array_equal(err <= tol, want_err <= tol), quantity
                    fin = np.isfinite(want_err)
                    # below 1e-250 the power matrix's floor e^-600 sets the envelopes
                    assert np.all(np.abs(err[fin] - want_err[fin])
                                  <= 1e-13 * np.maximum(want_err[fin], 1e-250)), quantity
                    assert np.all(np.abs(value[fin] - want[fin]) <= roundoff[fin]), quantity


_SUM_LAWS = [(a, b) for a in (0.6, 0.8, 1.0, 1.3, 1.6, 1.85, 1.95) for b in (0.0, 0.3, -0.7)]
_SUM_LAWS += [(1.0, 0.5)]  # leading-order folds only


class TestAsymptoticBudget:
    """An asymptotic tail quantity sums no row past its farthest point's least envelope."""

    @pytest.mark.parametrize("acc", [FIT_ACCURACY, DensityAccuracy()], ids=["fit", "default"])
    @pytest.mark.parametrize("alpha, beta", [(1.1, 0.3), (1.3, -0.7), (1.6, 0.0), (1.8, -0.3),
                                             (1.95, 1.0)])
    def test_cut_changes_no_value(self, alpha, beta, acc, monkeypatch):
        # every point's sum stops inside the cut, floored rows included, so
        # the values and errors are those of the uncut budget bit for bit
        from stablegarch.stable.series import TailSeriesSide
        tol, kmax = acc.abs_tol, acc.max_series_terms
        side = TailSeriesSide(alpha, beta, kmax)
        sets = [np.geomspace(1.2, 40.0, 50), np.geomspace(3.0, 1e250, 60), np.array([7.3]),
                np.array([1.2, 2.0]), np.geomspace(60.0, 1e6, 9)]
        tols = (tol,) * len(_TAIL_QUANTITIES)
        cut = [side.evaluate(r, _TAIL_QUANTITIES, tols) for r in sets]
        monkeypatch.setattr(TailSeriesSide, "_least_cut", lambda self, spec, far, nk: nk)
        for r, got in zip(sets, cut):
            want = side.evaluate(r, _TAIL_QUANTITIES, tols)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_tail_quantile_step_builds_few_rows(self, monkeypatch):
        # one Newton step of a tail quantile, S(1.8, -0.3) at r = 7.3: the
        # density stops at term 23 of 220
        from stablegarch.stable.engine import StandardDensity
        from stablegarch.stable.series import TailSeriesSide, _Expansion
        rows, matrix = [], _Expansion._power_matrix
        monkeypatch.setattr(_Expansion, "_power_matrix",
                            lambda self, v, n: rows.append(n) or matrix(self, v, n))
        eng = StandardDensity(1.8, -0.3, DensityAccuracy())
        x = np.array([7.3 - eng.tau])
        cut = eng._tail_mass(x, +1, slope=True)
        monkeypatch.setattr(TailSeriesSide, "_least_cut", lambda self, spec, far, nk: nk)
        uncut = eng._tail_mass(x, +1, slope=True)
        assert np.array_equal(np.array(cut).view(np.int64), np.array(uncut).view(np.int64))
        assert rows[1] == DensityAccuracy().max_series_terms
        assert 10 * rows[0] <= 1.5 * rows[1]


_SUM_X = np.array([-8.0, -5.5, -3.0, -1.2, -0.4, 0.0, 0.7, 2.0, 4.0, 6.5, 8.0])


@lru_cache(maxsize=None)
def _sum_oracles(alpha, beta):
    """{quantity: quadrature oracle values at _SUM_X} of one law, for both point-sum tests."""
    return {"pdf": [quad_density_oracle(x, alpha, beta, 0) for x in _SUM_X],
            "dpdf": [quad_density_oracle(x, alpha, beta, 1) for x in _SUM_X],
            "dalpha": [quad_shape_derivative_oracle(x, alpha, beta, "alpha") for x in _SUM_X],
            "dbeta": [quad_shape_derivative_oracle(x, alpha, beta, "beta") for x in _SUM_X]}


class TestPointSums:
    """Fourier point sums against the independent quadrature oracles."""

    @pytest.mark.parametrize("alpha, beta", _SUM_LAWS)
    def test_within_certificate_of_oracle(self, alpha, beta):
        from stablegarch.stable.engine import StandardDensity
        from stablegarch.stable.fourier import point_sums
        want = _sum_oracles(alpha, beta)
        for acc in (FIT_ACCURACY, DensityAccuracy()):
            sides = StandardDensity(alpha, beta, acc)._sides
            for q, oracle in want.items():
                ((val, err),) = point_sums([_SUM_X], alpha, beta, (q,), acc.fft_grid_size,
                                           acc.abs_tol, sides)
                assert np.all(err <= acc.abs_tol), (q, acc.abs_tol, err)
                assert np.all(np.abs(val - oracle) <= err + ORACLE_ATOL), (q, acc.abs_tol)

    @pytest.mark.parametrize("alpha, beta", _SUM_LAWS)
    def test_all_quantities_in_one_call(self, alpha, beta):
        # the four quantities summed together, each at its own points, each
        # within its own certificate
        from stablegarch.stable.engine import StandardDensity
        from stablegarch.stable.fourier import point_sums
        want = _sum_oracles(alpha, beta)
        own = [slice(None), slice(0, 6), slice(3, None), slice(None, None, 2)]
        for acc in (FIT_ACCURACY, DensityAccuracy()):
            sides = StandardDensity(alpha, beta, acc)._sides
            got = point_sums([_SUM_X[cols] for cols in own], alpha, beta, tuple(want),
                             acc.fft_grid_size, acc.abs_tol, sides)
            for (q, oracle), cols, (val, err) in zip(want.items(), own, got):
                assert val.shape == err.shape == _SUM_X[cols].shape
                assert np.all(err <= acc.abs_tol), (q, acc.abs_tol, err)
                assert np.all(np.abs(val - np.array(oracle)[cols]) <= err + ORACLE_ATOL), q

    def test_one_call_per_evaluate(self, monkeypatch):
        # cold engines of the study's laws: the quantities with gap points
        # take one point-sum call per evaluate, and each rung of its ladder
        # makes one fold kernel call per tail side
        from stablegarch.stable import engine, fourier, sample, series
        from stablegarch.stable.engine import StandardDensity
        calls, rungs, kernels = [], [], []
        sums, subtract, kernel = engine.point_sums, fourier._subtract_folds, series.hurwitz_zeta
        monkeypatch.setattr(engine, "point_sums", lambda *a: calls.append(a[3]) or sums(*a))
        monkeypatch.setattr(fourier, "_subtract_folds",
                            lambda *a: rungs.append(1) or subtract(*a))
        monkeypatch.setattr(series, "hurwitz_zeta", lambda *a: kernels.append(1) or kernel(*a))
        shared = 0
        for alpha, beta in [(1.45, 0.0), (1.6, 0.1), (1.7, 0.3)]:
            x = sample(StableParams(alpha, beta), 1000, seed=5)
            for a in (alpha - 0.01, alpha, alpha + 0.013):
                calls.clear(), rungs.clear(), kernels.clear()
                eng = StandardDensity(a, beta, FIT_ACCURACY)
                got = eng.evaluate(x, ("pdf", "dpdf", "dalpha", "dbeta"))
                assert np.all(got[:, 1] <= eng.tol)
                assert len(calls) <= 1
                assert len(kernels) <= 2 * len(rungs)
                shared += sum(len(quantities) > 1 for quantities in calls)
        assert shared >= 3


def _base(psi):
    return dict(alpha=psi.alpha, beta=psi.beta, mu=psi.mu, gamma=psi.gamma)
