"""CDF, quantile and sampling checks for the stable family."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import ks_distance, quad_cdf_oracle
from stablegarch.errors import AccuracyNotReached
from stablegarch.stable import (
    DEFAULT_ACCURACY,
    FIT_ACCURACY,
    StableParams,
    cdf,
    density,
    get_engine,
    quantile,
    sample,
)
from stablegarch.stable.engine import StandardDensity
from stablegarch.stable.sample import _BLOCK, _transform
from stablegarch.stable.series import TailSeriesSide, _Expansion

PSI_GRID = [StableParams(a, b) for a in (0.6, 1.0, 1.3, 1.7, 2.0)
            for b in (-0.9, 0.0, 0.9)]


class TestCdf:
    def test_symmetric_median(self):
        assert cdf(0.0, StableParams(1.5, 0.0)) == pytest.approx(0.5, abs=1e-7)

    def test_cauchy_quartile(self):
        assert cdf(1.0, StableParams(1.0, 0.0)) == pytest.approx(0.75, abs=1e-7)

    def test_monotone(self):
        x = np.linspace(-20.0, 20.0, 401)
        for psi in [StableParams(0.7, 0.5), StableParams(1.8, -0.4)]:
            F = cdf(x, psi)
            assert np.all(np.diff(F) >= -1e-12)
            assert F[0] >= 0.0 and F[-1] <= 1.0

    def test_against_monte_carlo(self):
        # sampling oracle: 1e7 draws, agreement within 3 standard errors
        psi = StableParams(1.8, 0.5)
        draws = sample(psi, 10 ** 7, seed=123)
        emp = float(np.mean(draws <= -2.0))
        got = cdf(-2.0, psi)
        se = np.sqrt(emp * (1.0 - emp) / 1e7)
        assert abs(got - emp) < 3.0 * se

    def test_location_scale(self):
        psi = StableParams(1.4, 0.3, mu=1.5, gamma=2.0)
        xs = np.array([-2.0, 1.5, 4.0])
        assert_allclose(cdf(xs, psi),
                        cdf((xs - 1.5) / 2.0, psi.standardized()), atol=1e-9)

    def test_nan_point(self):
        # the public cdf names the NaN; the engine returns NaN there, not
        # whatever its output buffer held
        psi = StableParams(1.6, 0.2)
        with pytest.raises(ValueError, match="point 0 is NaN"):
            cdf([np.nan, 0.5], psi)
        eng = StandardDensity(1.6, 0.2, DEFAULT_ACCURACY)
        want = eng.cdf(np.array([0.5]))
        for _ in range(3):
            got, _ = eng.cdf_with_err(np.array([np.nan, 0.5]))
            assert np.isnan(got[0]) and got[1] == want[0]


class TestQuantile:
    def test_symmetric_median(self):
        assert quantile(0.5, StableParams(1.6, 0.0)) == pytest.approx(0.0, abs=1e-7)

    def test_cauchy_quartile(self):
        assert quantile(0.75, StableParams(1.0, 0.0)) == pytest.approx(1.0, abs=1e-6)

    def test_round_trip_deep_tail(self):
        psi = StableParams(1.9, -0.2)
        q = quantile(0.01, psi)
        assert cdf(q, psi) == pytest.approx(0.01, abs=1e-6)

    def test_strictly_increasing(self):
        psi = StableParams(1.2, 0.6)
        ps = [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
        qs = [quantile(p, psi) for p in ps]
        assert np.all(np.diff(qs) > 0)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            quantile(0.0, StableParams(1.5, 0.0))
        with pytest.raises(ValueError):
            quantile(1.0, StableParams(1.5, 0.0))

    @pytest.mark.parametrize("alpha, p", [(1.5, 1e-20), (1.2, 1e-30)])
    def test_far_tail_round_trip(self, alpha, p):
        # far beyond any bracket of |x| <= 1e12: x near -7e12 and -3e24
        eng = StandardDensity(alpha, 0.0, DEFAULT_ACCURACY)
        (got,), _ = eng.cdf_with_err(np.array([eng.ppf(p)]))
        assert got == pytest.approx(p, rel=1e-12, abs=0.0)

    def test_far_tail_without_series_round_trips_or_refuses(self):
        # S(1, 0.5) has no tail series: beyond 1e6 its mass is the leading term
        eng = get_engine(StableParams(1.0, 0.5), DEFAULT_ACCURACY)
        try:
            x = eng.ppf(1e-14)
        except AccuracyNotReached:
            return
        (got,), _ = eng.cdf_with_err(np.array([x]))
        assert got == pytest.approx(1e-14, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha, beta", [(0.999, -0.5), (0.999, 0.3), (1.001, 0.5)])
    def test_refuses_uncertified_cdf(self, alpha, beta):
        # near alpha = 1 the shift tau puts the central window far outside
        # the f table, so the spline's certified error exceeds what cdf
        # accepts; a level is refused exactly where no series piece
        # certifies the cdf about its root, and the others invert a series
        psi = StableParams(alpha, beta)
        eng = get_engine(psi, DEFAULT_ACCURACY)
        assert eng._build_cdf()["err"] > eng.cdf_tol
        # the certified series values on a grid about the shift point, for
        # the certified cells that hold each level
        xs = np.linspace(-600.0, 600.0, 6001) - eng.tau
        mass, _, _, piece = eng._series_cdf(xs)
        cdf = eng._cdf_value(xs, mass)
        served = set()
        for p in (0.01, 0.5, 0.99):
            ok = piece >= 0
            cells = ok[:-1] & ok[1:] & (cdf[:-1] <= p) & (p <= cdf[1:])
            try:
                x = quantile(p, psi)
            except AccuracyNotReached:
                assert not cells.any(), p
                continue
            served.add(p)
            (got,), (err,) = eng.cdf_with_err(np.array([x]))
            assert eng._series_cdf(np.array([x]))[3][0] >= 0 and err <= eng.tol
            assert got == pytest.approx(p, abs=1e-12)
            assert abs(x) < 300.0  # inside the range the oracle can judge
            assert quad_cdf_oracle(x, alpha, beta) == pytest.approx(p, abs=err + 1e-9)
        assert set(eng._quantiles) == served  # a refused level is not kept

    def test_tail_and_central_quantile_passes(self, monkeypatch):
        # a tail quantile is a pass over a few radii and a few one-point
        # passes; a central one evaluates no tail series at all
        eng = StandardDensity(1.5, 0.0, DEFAULT_ACCURACY)
        passes, tail = [], []
        evaluate = _Expansion.evaluate

        def counting_evaluate(self, *args, **kwargs):
            passes.append(1)
            if isinstance(self, TailSeriesSide):
                tail.append(1)
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(_Expansion, "evaluate", counting_evaluate)
        x = eng.ppf(0.01)
        assert len(passes) <= 6
        passes.clear()
        tail.clear()
        y = eng.ppf(0.3)
        assert tail == []
        monkeypatch.undo()
        # each served by the piece that solved it, with no table built
        assert eng._series_cdf(np.array([x, y]))[3].tolist() == [0, 1]
        assert eng._tables == {} and eng._cdf_state is None


class TestSeriesCdf:
    """The cdf from the tail and centre series, and the quantiles that invert it."""

    @pytest.mark.parametrize("alpha", [1.1, 1.3, 1.6, 1.9])
    @pytest.mark.parametrize("beta", [-0.9, -0.3, 0.0, 0.5])
    def test_centre_cdf_against_oracle(self, alpha, beta):
        # F(-tau) in closed form, and F(-tau) plus the integrated centre
        # series at |y| <= 4, within the series' error plus the oracle's
        eng = StandardDensity(alpha, beta, DEFAULT_ACCURACY)
        assert eng._f_shift == pytest.approx(quad_cdf_oracle(-eng.tau, alpha, beta), abs=1e-9)
        y = np.linspace(-4.0, 4.0, 17)
        (c,), (err,) = eng.center.evaluate(y, ("cdf",), (eng.tol,))
        assert np.all(err[np.abs(y) <= 1.0] <= eng.tol)
        for yk, ck, ek in zip(y, c, err):
            if ek <= eng.tol:
                want = quad_cdf_oracle(yk - eng.tau, alpha, beta)
                assert eng._f_shift + ck == pytest.approx(want, abs=ek + 1e-9), yk

    @pytest.mark.parametrize("alpha", [1.2, 1.45, 1.7, 1.95])
    @pytest.mark.parametrize("beta", [-0.5, -0.2, 0.2, 0.5])
    def test_quantiles_round_trip_and_match_the_spline(self, alpha, beta):
        # the VaR desk's law box: cdf(ppf(p)) is p, and each quantile lies
        # within the two certificates of a Brent solve on the anchored spline
        eng = StandardDensity(alpha, beta, DEFAULT_ACCURACY)
        for p in (0.01, 0.05, 0.95, 0.99):
            x = eng.ppf(p)
            (got,), (err,) = eng.cdf_with_err(np.array([x]))
            assert got == pytest.approx(p, abs=1e-12)
            spline_err = eng._build_cdf()["err"]
            (at_x,), _ = eng._spline_cdf(np.array([x]))
            assert at_x == pytest.approx(p, abs=err + spline_err + 1e-12)
            xb = eng._spline_ppf(p)
            (at_xb,), (err_b,) = eng.cdf_with_err(np.array([xb]))
            assert at_xb == pytest.approx(p, abs=err_b + spline_err + 1e-12)

    def test_a_value_does_not_depend_on_the_batch(self):
        # each piece sums one term budget over its reach, so a point's value
        # and error are those it has alone, as a quantile's steps see it
        eng = StandardDensity(1.6, 0.3, DEFAULT_ACCURACY)
        xs = np.linspace(-12.0, 12.0, 97)
        got = np.array(eng.cdf_with_err(xs))
        alone = np.array([eng.cdf_with_err(xs[i:i + 1]) for i in range(xs.size)])[:, :, 0].T
        assert np.array_equal(got.view(np.int64), alone.view(np.int64))
        assert {0, 1} <= set(eng._series_cdf(xs)[3].tolist())

    @pytest.mark.parametrize("acc", [DEFAULT_ACCURACY, FIT_ACCURACY], ids=["default", "fit"])
    @pytest.mark.parametrize("alpha, beta", [(0.3, 0.0), (0.34, 0.0), (0.36, 0.0), (0.3, 0.4),
                                             (0.34, 0.4), (0.36, 0.4), (0.5, 0.0), (1.6, 0.4)])
    def test_shift_point_in_closed_form(self, alpha, beta, acc):
        # F(-tau) = 1/2 - arctan(tau) / (alpha pi) is known, so its quantile is
        # -tau with no search, and the cdf there is F(-tau), charged 4 eps,
        # where no series reaches the shift point (alpha < 1); the search
        # refused these levels at alpha <= 0.36 and missed -tau at 0.5
        eng = StandardDensity(alpha, beta, acc)
        assert eng.ppf(eng._f_shift) == -eng.tau
        (val,), (err,) = eng.cdf_with_err(np.array([-eng.tau]))
        assert err <= 4.0 * np.finfo(float).eps
        assert abs(val - eng._f_shift) <= err


class TestSample:
    def test_gaussian_variance(self):
        s = sample(StableParams(2.0, 0.0), 10 ** 6, seed=7)
        assert s.var() == pytest.approx(2.0, rel=0.01)

    def test_cauchy_quartile_frequency(self):
        s = sample(StableParams(1.0, 0.0), 10 ** 6, seed=11)
        assert np.mean(s <= 1.0) == pytest.approx(0.75, abs=0.002)

    def test_deterministic_per_seed(self):
        psi = StableParams(1.5, 0.5)
        assert_allclose(sample(psi, 100, seed=3), sample(psi, 100, seed=3))
        assert not np.allclose(sample(psi, 100, seed=3), sample(psi, 100, seed=4))

    def test_skewed_ks_against_cdf(self):
        psi = StableParams(1.5, 0.5)
        s = np.sort(sample(psi, 10 ** 6, seed=21))
        F = cdf(s, psi)
        assert ks_distance(s, F) < 0.002

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            sample(StableParams(1.5, 0.0), 0)

    def test_location_scale_shift(self):
        base = sample(StableParams(1.3, -0.4), 1000, seed=5)
        moved = sample(StableParams(1.3, -0.4, mu=2.0, gamma=3.0), 1000, seed=5)
        assert_allclose(moved, 2.0 + 3.0 * base, atol=1e-12)


def _cms_reference(psi, count, seed):
    """The CMS transform in its numpy sin/cos/pow form: the reference for sample."""
    rng = np.random.default_rng(seed)
    a, b = psi.alpha, psi.beta
    v = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=count)
    w = rng.exponential(1.0, size=count)
    if a == 1.0:
        half = np.pi / 2.0
        z = (1.0 / half) * ((half + b * v) * np.tan(v)
                            - b * np.log((half * w * np.cos(v)) / (half + b * v)))
        return psi.mu + psi.gamma * z
    if a == 2.0:
        z = 2.0 * np.sqrt(w) * np.sin(v)
        return psi.mu + psi.gamma * z
    tb = b * np.tan(np.pi * a / 2.0)
    b0 = np.arctan(tb) / a
    scale = (1.0 + tb * tb) ** (1.0 / (2.0 * a))
    z = (scale * np.sin(a * (v + b0)) / np.cos(v) ** (1.0 / a)
         * (np.cos(v - a * (v + b0)) / w) ** ((1.0 - a) / a))
    return psi.mu + psi.gamma * (z - tb)


EDGE_GRID = [StableParams(a, b) for a in (0.3, 0.7, 1 - 1e-9, 1.0, 1 + 1e-9, 1.3, 1.6, 1.999, 2.0)
             for b in (-1.0, -0.5, 0.0, 0.5, 1.0)]


@pytest.mark.parametrize("psi", EDGE_GRID, ids=lambda p: f"a{p.alpha}b{p.beta}")
def test_sampler_matches_sin_cos_transform(psi):
    # The tangent identities move each draw by a few ulp of the larger of
    # |x| and the shift |beta tan(pi alpha/2)| that x is a difference from;
    # at alpha = 1, whose two CMS terms cancel near x = 0, of at least 1.
    # The worst on this grid (seed 13, 20,000 draws a law) is 7.2e-15, at
    # S(0.3, 1); the bound leaves a fourfold margin.
    x = _cms_reference(psi, 20000, 13)
    y = sample(psi, 20000, 13)
    assert np.isfinite(x).all() and np.isfinite(y).all()
    shift = 1.0 if psi.alpha == 1.0 else abs(psi.beta * np.tan(np.pi * psi.alpha / 2.0))
    assert np.max(np.abs(y - x) / np.maximum(np.abs(x), shift)) < 3e-14


def _tangent_reference(psi, count, seed):
    """sample's tangent-identity transform as numpy expressions, on one unblocked pass."""
    rng = np.random.default_rng(seed)
    a, b = psi.alpha, psi.beta
    v = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=count)
    w = rng.exponential(1.0, size=count)
    t = np.tan(v)
    if a == 1.0:
        half = np.pi / 2.0
        hv = half + b * v
        z = (t * hv - b * np.log((half * w) / (hv * np.sqrt(1.0 + t * t)))) * (1.0 / half)
    elif a == 2.0:
        z = t * (2.0 * np.sqrt(w / (1.0 + t * t)))
    else:
        tb = b * np.tan(np.pi * a / 2.0)
        b0 = np.arctan(tb) / a
        scale = (1.0 + tb * tb) ** (1.0 / (2.0 * a))
        phi = a * (v + b0)
        s = np.tan(0.5 * phi)
        td = np.tan(v - phi)
        e = (np.log(1.0 + t * t) + (a - 1.0) * np.log((1.0 + td * td) * (w * w))) / (2.0 * a)
        z = (2.0 * scale) * s / (1.0 + s * s) * np.exp(e) - tb
    return z * psi.gamma + psi.mu


@pytest.mark.parametrize("psi", EDGE_GRID, ids=lambda p: f"a{p.alpha}b{p.beta}")
def test_sampler_is_the_tangent_expressions(psi):
    # the in-place transform keeps each expression's operations and order,
    # so its draws are the expressions' bit for bit, on each side of a block edge
    for m in (_BLOCK - 1, _BLOCK, 3 * _BLOCK + 5):
        assert sample(psi, m, 13).tobytes() == _tangent_reference(psi, m, 13).tobytes()


@pytest.mark.parametrize("psi", [StableParams(1.6, 0.0), StableParams(1.0, 0.7),
                                 StableParams(2.0, 0.0), StableParams(0.7, -0.5)],
                         ids=lambda p: f"a{p.alpha}b{p.beta}")
def test_sampler_blocks_are_one_transform(psi):
    # sample draws every v before any w, so a shorter draw reads other w;
    # each count at and around a block edge equals one unblocked transform
    # of the (uniform, exponential(1.0)) stream of its seed
    for m in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5):
        rng = np.random.default_rng(8)
        v = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=m)
        w = rng.exponential(1.0, size=m)
        _transform(psi, v, w)
        assert np.array_equal(sample(psi, m, 8), v)


@pytest.mark.parametrize("psi", PSI_GRID, ids=lambda p: f"a{p.alpha}b{p.beta}")
def test_sampler_ks_band_across_grid(psi):
    # 1e5 draws against the numeric cdf at the 5% KS level
    n = 10 ** 5
    s = np.sort(sample(psi, n, seed=31))
    F = cdf(s, psi)
    assert ks_distance(s, F) < 1.63 / np.sqrt(n)


def test_density_integrates_to_cdf_increments():
    from scipy import integrate
    psi = StableParams(1.6, 0.4)
    lo, hi = -1.0, 2.5
    mass, _ = integrate.quad(lambda x: density(x, psi), lo, hi, limit=200)
    assert mass == pytest.approx(cdf(hi, psi) - cdf(lo, psi), abs=1e-7)
