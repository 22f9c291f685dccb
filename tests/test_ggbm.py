"""Generalized grey Brownian motion: densities, samplers, statistics."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import erf, rgamma
from scipy.stats import kstest

from mwright import ggbm
from mwright.errors import InsufficientPaths, InvalidArgument, InvalidOrder


class TestCovariance:
    def test_brownian_case(self):
        spec = ggbm.CovSpec(1.0, 1.0, np.array([1.0, 2.0]))
        assert_allclose(ggbm.covariance_matrix(spec),
                        [[2.0, 2.0], [2.0, 4.0]], rtol=1e-14)

    def test_diagonal(self):
        spec = ggbm.CovSpec(0.5, 0.5, np.array([1.0]))
        assert_allclose(ggbm.covariance_matrix(spec)[0, 0],
                        2.2567583341910251478, rtol=1e-14)

    def test_degenerate_times_rejected_at_construction(self):
        with pytest.raises(InvalidArgument):
            ggbm.CovSpec(1.0, 1.0, np.array([1.0, 1.0]))

    def test_nan_times_rejected(self):
        with pytest.raises(InvalidArgument):
            ggbm.CovSpec(1.0, 0.5, np.array([0.5, math.nan, 1.0]))
        with pytest.raises(InvalidArgument):
            ggbm.CovSpec(1.0, 0.5, np.array([math.nan]))

    def test_parameter_validation(self):
        with pytest.raises(InvalidArgument):
            ggbm.CovSpec(2.0, 1.0, np.array([1.0]))
        with pytest.raises(InvalidArgument):
            ggbm.CovSpec(1.0, 1.2, np.array([1.0]))


class TestMarginal:
    def test_gaussian_origin(self):
        assert_allclose(ggbm.pdf_marginal(1.0, 1.0, 0.0, 1.0),
                        0.28209479177387814347, rtol=1e-14)

    def test_gaussian_off_origin(self):
        assert_allclose(ggbm.pdf_marginal(1.0, 1.0, 1.0, 1.0),
                        0.5 * 0.43939128946772239705, rtol=1e-14)

    def test_general_point(self):
        # (1/2) 2^(-0.7) M_(0.4)(0.7 * 2^(-0.7)); 60-digit series oracle
        want = 0.5 * 2.0 ** (-0.7) * 0.5652591609506913631
        assert_allclose(ggbm.pdf_marginal(1.4, 0.8, 0.7, 2.0), want,
                        rtol=1e-12)

    def test_cdf_quantile_roundtrip(self):
        for p in (0.05, 0.3, 0.5, 0.9):
            q = ggbm.marginal_quantile(1.0, 0.6, p, 2.0)
            assert ggbm.marginal_cdf(1.0, 0.6, float(q), 2.0) \
                == pytest.approx(p, abs=2e-4)


class TestNPoint:
    def test_reduces_to_marginal(self):
        for (a, b, x, t) in ((1.0, 0.5, 0.7, 1.0), (1.4, 0.8, 0.7, 2.0),
                             (0.5, 0.5, 0.0, 1.0), (1.0, 1.0, 0.3, 0.5)):
            q = ggbm.NPointQuery(ggbm.CovSpec(a, b, np.array([t])),
                                 np.array([x]))
            assert_allclose(ggbm.pdf_npoint(q),
                            ggbm.pdf_marginal(a, b, x, t), rtol=1e-7)

    def test_gaussian_two_point(self):
        # beta = 1: multivariate normal with covariance [[2,2],[2,4]]
        q = ggbm.NPointQuery(ggbm.CovSpec(1.0, 1.0, np.array([1.0, 2.0])),
                             np.array([0.0, 0.0]))
        assert_allclose(ggbm.pdf_npoint(q), 1.0 / (4.0 * math.pi),
                        rtol=1e-12)

    def test_grey_two_point_positive_and_finite(self):
        q = ggbm.NPointQuery(ggbm.CovSpec(1.0, 0.6, np.array([0.5, 1.0])),
                             np.array([0.3, -0.4]))
        v = ggbm.pdf_npoint(q)
        assert 0.0 < v < 1.0

    def test_origin_divergence_guard(self):
        q = ggbm.NPointQuery(ggbm.CovSpec(1.0, 0.6, np.array([0.5, 1.0])),
                             np.array([0.0, 0.0]))
        with pytest.raises(InvalidArgument):
            ggbm.pdf_npoint(q)

    def test_two_point_marginalizes_consistently(self):
        # integrating the second coordinate out of the 2-point law must
        # recover the 1-point marginal: pins the normalization constant
        from scipy.integrate import simpson

        spec = ggbm.CovSpec(1.0, 0.6, np.array([0.5, 1.0]))
        x1 = 0.4
        # the beta < 1 mixture has stretched-exponential tails; the domain
        # must reach well past the Gaussian-looking core
        grid = np.linspace(-10.0, 10.0, 241)
        vals = np.array([ggbm.pdf_npoint(ggbm.NPointQuery(
            spec, np.array([x1, float(x2)]))) for x2 in grid])
        got = simpson(vals, x=grid)
        want = ggbm.pdf_marginal(1.0, 0.6, x1, 0.5)
        assert_allclose(got, want, rtol=1e-5)

    def test_three_point_marginalizes_to_two_point(self):
        # verifies the n-dependence of the normalization constant past n=2
        from scipy.integrate import simpson

        spec3 = ggbm.CovSpec(1.1, 0.7, np.array([0.4, 0.8, 1.2]))
        spec2 = ggbm.CovSpec(1.1, 0.7, np.array([0.4, 0.8]))
        x1, x2 = 0.3, -0.5
        grid = np.linspace(-9.0, 9.0, 181)
        vals = np.array([ggbm.pdf_npoint(ggbm.NPointQuery(
            spec3, np.array([x1, x2, float(x3)]))) for x3 in grid])
        got = simpson(vals, x=grid)
        want = ggbm.pdf_npoint(ggbm.NPointQuery(spec2, np.array([x1, x2])))
        assert_allclose(got, want, rtol=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgument):
            ggbm.NPointQuery(ggbm.CovSpec(1.0, 1.0, np.array([1.0, 2.0])),
                             np.array([0.0]))


class TestStableSampler:
    def test_laplace_transform(self):
        rng = np.random.default_rng(8)
        s = ggbm.sample_oneside_stable(0.5, rng, 1_000_000)
        assert np.all(s > 0.0)
        for lam, want in ((1.0, math.exp(-1.0)), (4.0, math.exp(-2.0))):
            vals = np.exp(-lam * s)
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - want) < 3.0 * se

    def test_index_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidOrder):
            ggbm.sample_oneside_stable(1.0, rng)

    def test_scalar_draw(self):
        rng = np.random.default_rng(0)
        assert isinstance(ggbm.sample_oneside_stable(0.6, rng), float)


class TestMixingLambda:
    def test_delta_at_unit_order(self):
        rng = np.random.default_rng(0)
        assert ggbm.sample_mixing_lambda(1.0, rng) == 1.0
        assert np.all(ggbm.sample_mixing_lambda(1.0, rng, 5) == 1.0)

    def test_mean_is_reciprocal_gamma(self):
        rng = np.random.default_rng(9)
        lam = ggbm.sample_mixing_lambda(0.5, rng, 1_000_000)
        se = lam.std(ddof=1) / math.sqrt(len(lam))
        assert abs(lam.mean() - rgamma(1.5)) < 3.0 * se

    def test_law_matches_half_order_density(self):
        # KS against the closed-form distribution erf(x/2) of M_(1/2)
        rng = np.random.default_rng(10)
        lam = ggbm.sample_mixing_lambda(0.5, rng, 10_000)
        p = kstest(lam, lambda v: erf(np.asarray(v) / 2.0)).pvalue
        assert p > 0.01

    def test_law_matches_generic_order_density(self):
        # second order without a closed form: KS against the numerically
        # integrated distribution of M_(0.3)
        from mwright import specfun

        rng = np.random.default_rng(7777)
        lam = ggbm.sample_mixing_lambda(0.3, rng, 10_000)
        r_max = specfun.asymptotic_radius(0.3, 1e-14)
        rs = np.linspace(0.0, r_max, 4001)
        vals = specfun.m_wright_values(0.3, rs)
        cdf = np.concatenate(([0.0], np.cumsum(
            0.5 * (vals[1:] + vals[:-1]) * np.diff(rs))))
        p = kstest(lam, lambda v: np.interp(v, rs, cdf / cdf[-1])).pvalue
        assert p > 0.01


class TestSamplePaths:
    times = np.arange(1, 33) / 32.0

    def test_brownian_variance(self):
        ens = ggbm.sample_paths(ggbm.CovSpec(1.0, 1.0, self.times),
                                50_000, 11)
        v = ens.paths[:, -1]
        se = (v ** 2).std(ddof=1) / math.sqrt(len(v))
        assert abs((v ** 2).mean() - 2.0) < 3.0 * se

    def test_fbm_persistent_increments(self):
        ens = ggbm.sample_paths(ggbm.CovSpec(1.5, 1.0, self.times),
                                20_000, 12)
        d = np.diff(ens.paths, axis=1)
        corr = (d[:, :-1] * d[:, 1:]).mean()
        assert corr > 0.0

    def test_grey_variance(self):
        ens = ggbm.sample_paths(ggbm.CovSpec(0.5, 0.5, self.times),
                                50_000, 13)
        v = ens.paths[:, -1] ** 2
        se = v.std(ddof=1) / math.sqrt(len(v))
        assert abs(v.mean() - 2.0 * rgamma(1.5)) < 3.0 * se

    def test_reproducible_and_prefix_stable(self):
        spec = ggbm.CovSpec(1.2, 0.7, self.times)
        a = ggbm.sample_paths(spec, 600, 99)
        b = ggbm.sample_paths(spec, 600, 99)
        assert np.array_equal(a.paths, b.paths)
        assert np.array_equal(a.lambdas, b.lambdas)
        # the first paths do not depend on how many were requested
        c = ggbm.sample_paths(spec, 60, 99)
        assert np.array_equal(c.paths, a.paths[:60])

    def test_beta_one_bypasses_mixing(self):
        ens = ggbm.sample_paths(ggbm.CovSpec(1.0, 1.0, self.times), 50, 1)
        assert np.all(ens.lambdas == 1.0)

    def test_lambda_recorded(self):
        ens = ggbm.sample_paths(ggbm.CovSpec(1.0, 0.5, self.times), 50, 1)
        assert np.all(ens.lambdas > 0.0)
        assert len(ens.lambdas) == 50

    def test_save_roundtrip(self, tmp_path):
        spec = ggbm.CovSpec(1.0, 0.8, self.times[:4])
        ens = ggbm.sample_paths(spec, 5, 77)
        csv_path, json_path = ens.save(str(tmp_path / "ens"))
        sidecar = json.loads(open(json_path).read())
        assert sidecar["seed"] == 77
        assert sidecar["n_paths"] == 5
        assert sidecar["alpha"] == 1.0
        rows = [line for line in open(csv_path) if not line.startswith("#")]
        assert len(rows) == 5
        got = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert np.array_equal(got, ens.paths)  # 17-digit round trip


class TestEnsembleStats:
    def test_requires_enough_paths(self):
        ens = ggbm.sample_paths(
            ggbm.CovSpec(1.0, 1.0, np.array([0.5, 1.0])), 50, 3)
        with pytest.raises(InsufficientPaths):
            ggbm.ensemble_stats(ens)

    def test_report_fields_and_json(self):
        times = np.arange(1, 17) / 16.0
        ens = ggbm.sample_paths(ggbm.CovSpec(1.0, 1.0, times), 2_000, 5)
        rep = ggbm.ensemble_stats(ens)
        doc = json.loads(rep.to_json())
        assert doc["n_paths"] == 2_000
        assert len(doc["variance"]) == 16
        assert rep.chi2_cells == 20
        assert np.all(np.abs(rep.mean) < 4.0 * rep.mean_se + 1e-12)

    def test_mixture_marginal_ks(self):
        spec = ggbm.CovSpec(1.0, 0.5, np.array([1.0]))
        ens = ggbm.sample_paths(spec, 20_000, 21)
        p = kstest(ens.paths[:, 0],
                   lambda v: ggbm.marginal_cdf(1.0, 0.5, v, 1.0)).pvalue
        assert p > 0.01

    def test_variance_se_matches_fourth_power_form(self):
        times = np.arange(1, 17) / 16.0
        ens = ggbm.sample_paths(ggbm.CovSpec(0.8, 0.6, times), 5_000, 8)
        rep = ggbm.ensemble_stats(ens)
        x = ens.paths
        m4 = ((x - x.mean(axis=0)) ** 4).mean(axis=0)
        var = x.std(axis=0, ddof=1) ** 2
        want = np.sqrt(np.maximum(m4 - var * var, 0.0) / ens.n_paths)
        np.testing.assert_array_max_ulp(rep.variance_se, want, maxulp=4)
