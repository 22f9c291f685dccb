"""Generalized grey Brownian motion: densities, samplers, statistics."""

import concurrent.futures
import json
import math
import sys
import threading
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose
from pathlib import Path

from scipy.special import erf, ndtr, ndtri, rgamma
from scipy.stats import kstest

from mwright import _csv, ggbm, greens, specfun
from mwright.errors import (
    InsufficientPaths,
    InvalidArgument,
    InvalidOrder,
    NonConvergence,
    ResultOverflow,
)


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

    @pytest.mark.parametrize("alpha, beta, times", [
        (1.99, 0.5, [1.7e308]),
        (1.99, 1.0, [0.5, 1e300]),
        (1.0, 0.5, [1e308]),  # t^alpha is finite, 2 t^alpha is not
    ])
    def test_overflowing_covariance_rejected(self, alpha, beta, times):
        # RuntimeWarnings are errors here, so no overflow warning escapes
        with pytest.raises(ResultOverflow, match=f"alpha={alpha!r}"):
            ggbm.CovSpec(alpha, beta, np.array(times))

    def test_largest_finite_covariance_accepted(self):
        spec = ggbm.CovSpec(1.0, 1.0, np.array([1.0, 8e307]))
        assert np.isfinite(ggbm.covariance_matrix(spec)).all()


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

    def test_is_the_unit_coefficient_green_function(self):
        spec = greens.GreenSpec(1.4, 0.8, 1.0)
        assert ggbm.pdf_marginal(1.4, 0.8, 0.7, 2.0) \
            == greens.green_density(spec, 0.7, 2.0) \
            == float(greens.green_density_values(spec, [0.7], 2.0)[0])

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.5), (-1.0, 0.5),
                                            (3.0, 0.5), (1.0, 0.0)])
    def test_out_of_domain_orders_rejected(self, alpha, beta):
        with pytest.raises(InvalidArgument):
            ggbm.pdf_marginal(alpha, beta, 0.3, 1.0)
        with pytest.raises(InvalidArgument):
            ggbm.marginal_cdf(alpha, beta, 0.3, 2.0)
        with pytest.raises(InvalidArgument):
            ggbm.marginal_quantile(alpha, beta, 0.3, 2.0)

    def test_cdf_quantile_roundtrip(self):
        for p in (0.05, 0.3, 0.5, 0.9):
            q = ggbm.marginal_quantile(1.0, 0.6, p, 2.0)
            assert abs(ggbm.marginal_cdf(1.0, 0.6, float(q), 2.0) - p) \
                <= 1e-12 * min(p, 1.0 - p) + 1e-15


def _mass_refs():
    """{beta: (r, int_r^inf M_(beta/2))} from the 40-digit table
    (make_mass_refs.py)."""
    table = np.loadtxt(Path(__file__).parent / "data" / "mass_refs.csv",
                       delimiter=",", skiprows=2, dtype=str)
    out = {}
    for beta, r, value in table:
        out.setdefault(float(beta), []).append((float(r), float(value)))
    return {b: tuple(map(np.array, zip(*rows))) for b, rows in out.items()}


_ORDERS = st.floats(0.0, 1.0, exclude_min=True)
_ALPHAS = st.floats(0.0, 2.0, exclude_min=True)
_TIMES = st.floats(1e-3, 1e3)


class TestMarginalLaw:
    def test_mass_within_estimate_of_40_digit_references(self):
        # 20 orders beta = 0.05..1, radii from 0 to where the mass is 1e-300
        refs = _mass_refs()
        assert len(refs) == 20
        for beta, (r, ref) in refs.items():
            value, err = specfun._half_mass(0.5 * beta, r, 1e-13)
            bad = np.abs(value - ref) > err + 4.0 * np.spacing(ref)
            assert not bad.any(), (beta, r[bad], value[bad], ref[bad])
            assert ref.min() < 1e-190  # the table reaches the far tail

    def test_cdf_within_1e_12_of_references(self):
        for beta, (r, ref) in _mass_refs().items():
            for x, want in ((-r, 0.5 * ref), (r, 1.0 - 0.5 * ref)):
                got = ggbm.marginal_cdf(1.3, beta, x * 2.0 ** 0.65, 2.0)
                assert np.abs(got - want).max() <= 1e-12, beta

    def test_gaussian_order_matches_ndtr(self):
        # beta = 1: the normal law with variance 2 t^alpha
        x = np.concatenate((-np.logspace(-3, 1.6, 60), [0.0],
                            np.logspace(-3, 1.6, 60)))
        sd = math.sqrt(2.0 * 0.7 ** 1.5)
        got = ggbm.marginal_cdf(1.5, 1.0, x * sd, 0.7)
        want = ndtr(x)
        assert_allclose(got, want, rtol=1e-13, atol=1e-16)
        p = np.concatenate((np.logspace(-12, -0.5, 40),
                            1.0 - np.logspace(-12, -0.5, 40)))
        assert_allclose(ggbm.marginal_quantile(1.5, 1.0, p, 0.7),
                        sd * ndtri(p), rtol=1e-12)

    def test_far_tail_quantile(self):
        # root of int_r^inf M_(1/4) = 2e-12, by mpmath findroot on
        # Zolotarev's integral at 30 digits
        q = ggbm.marginal_quantile(1.0, 0.5, 1e-12, 1.0)
        assert q == pytest.approx(-19.663931476964985570, rel=1e-13)

    @pytest.mark.parametrize("x", [math.nan, [0.3, math.nan]])
    def test_nan_argument_rejected(self, x):
        with pytest.raises(InvalidArgument):
            ggbm.marginal_cdf(1.0, 0.5, x, 1.0)
        with pytest.raises(InvalidArgument):
            ggbm.marginal_quantile(1.0, 0.5, x, 1.0)

    def test_scalar_levels_give_python_floats(self):
        assert type(ggbm.marginal_quantile(1.0, 0.5, 0.3, 1.0)) is float
        assert type(ggbm.marginal_cdf(1.0, 0.5, 0.3, 1.0)) is float
        q = ggbm.marginal_quantile(1.0, 0.5, [[0.2, 0.5, 0.8]], 1.0)
        assert q.shape == (1, 3) and q[0, 1] == 0.0

    def test_infinite_arguments_are_exact(self):
        got = ggbm.marginal_cdf(1.0, 0.5, [-math.inf, math.inf], 1.0)
        assert got.tolist() == [0.0, 1.0]

    def test_level_that_does_not_converge_raises(self, monkeypatch):
        # a slope far too steep stalls Newton's method: the level must
        # end in NonConvergence, never in an inf or NaN quantile
        monkeypatch.setattr(specfun, "m_wright_values",
                            lambda nu, r: np.full(np.shape(r), 1e300))
        with pytest.raises(NonConvergence):
            ggbm.marginal_quantile(1.0, 0.5, 0.1, 1.0)

    @pytest.mark.parametrize("p", [1e-12, [0.5, 1e-12, 0.9]])
    def test_quantile_beyond_double_range_raises(self, p):
        # the t = 1 quantile is finite, scaled by t^(alpha/2) it is not:
        # a named error, and no overflow warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResultOverflow, match=r"p=1e-12, t=1e\+308"):
                ggbm.marginal_quantile(2.0, 0.5, p, 1e308)
        assert ggbm.marginal_quantile(2.0, 0.5, 0.5, 1e308) == 0.0

    @given(beta=_ORDERS, alpha=_ALPHAS, t=_TIMES,
           x0=st.floats(-60.0, 60.0),
           gaps=st.lists(st.floats(1e-6, 8.0), min_size=1, max_size=6))
    def test_cdf_is_a_distribution_function(self, beta, alpha, t, x0, gaps):
        x = x0 + np.concatenate(([0.0], np.cumsum(gaps)))
        f = ggbm.marginal_cdf(alpha, beta, x, t)
        assert np.all((f >= 0.0) & (f <= 1.0))
        assert np.all(np.diff(f) >= 0.0), (x, f)
        assert np.all(np.abs(ggbm.marginal_cdf(alpha, beta, -x, t) + f - 1.0)
                      <= 2.0 * np.spacing(1.0))

    @given(beta=_ORDERS, alpha=_ALPHAS, t=_TIMES,
           p=st.floats(1e-12, 1.0 - 1e-12))
    def test_quantile_inverts_cdf(self, beta, alpha, t, p):
        q = ggbm.marginal_quantile(alpha, beta, p, t)
        assert abs(ggbm.marginal_cdf(alpha, beta, q, t) - p) \
            <= 1e-12 * min(p, 1.0 - p) + 1e-15
        scale = t ** (0.5 * alpha)
        f = ggbm.marginal_cdf(alpha, beta, q + 0.5 * scale, t)
        if 1e-12 <= f <= 1.0 - 1e-12:  # and back from the CDF side
            back = ggbm.marginal_quantile(alpha, beta, f, t)
            assert abs(back - (q + 0.5 * scale)) <= 1e-9 * (scale + abs(q))


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

    def test_million_draws_hold_their_inputs_and_outputs(self, monkeypatch):
        # the uniforms, exponentials, S and log(A/W) are 8 MB each; the
        # transform adds a few block-sized temporaries per worker (two
        # workers here; the whole-array transform peaked at 48.0 MB)
        monkeypatch.setattr(ggbm, "_cpu_count", lambda: 2)
        tracemalloc.start()
        try:
            ggbm.sample_oneside_stable(0.5, np.random.default_rng(8),
                                       1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 36e6, peak


def _kanter_whole(nu, u, w):
    """Kanter's transform as one whole-array formula: S and log(A/W)."""
    y = (specfun._kanter_log_a(nu, np.pi * np.clip(u, 1e-16, 1.0 - 1e-16))
         - np.log(np.maximum(w, 1e-300)))
    with np.errstate(over="ignore"):
        return np.exp((1.0 - nu) / nu * y), y


def _kanter_log(nu, rng, m):
    """log(A(pi U)/W) of the next m uniforms and exponentials of rng, as
    sample_oneside_stable formed it before the Kanter transform was shared
    with sample_paths."""
    return _kanter_whole(nu, rng.random(m), rng.standard_exponential(m))[1]


def _kanter_reference(nu, rng, m):
    """The stable draw as sample_oneside_stable wrote it before the Kanter
    transform was shared with sample_paths."""
    return np.exp((1.0 - nu) / nu * _kanter_log(nu, rng, m))


class TestSharedKanterTransform:
    @pytest.mark.parametrize("nu", [0.05, 0.3, 0.5, 0.75, 0.99])
    def test_stable_draws_keep_their_bits(self, nu):
        got = ggbm.sample_oneside_stable(nu, np.random.default_rng(5), 5000)
        want = _kanter_reference(nu, np.random.default_rng(5), 5000)
        assert np.array_equal(got, want)
        scalar = ggbm.sample_oneside_stable(nu, np.random.default_rng(6))
        assert scalar == float(_kanter_reference(
            nu, np.random.default_rng(6), 1)[0])

    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.5, 0.75, 0.99])
    def test_mixing_draws_keep_their_bits(self, beta):
        got = ggbm.sample_mixing_lambda(beta, np.random.default_rng(7), 5000)
        want = _kanter_reference(beta, np.random.default_rng(7), 5000)
        assert np.array_equal(got, want ** (-beta))

    def test_hard_coded_draws(self):
        # the first three draws of default_rng(2026), printed before the
        # transform was shared
        rng = np.random.default_rng
        assert ggbm.sample_oneside_stable(0.5, rng(2026), 3).tolist() == [
            0.3946203641570573, 0.8901671682477065, 0.42446767276249153]
        assert ggbm.sample_mixing_lambda(0.5, rng(2026), 3).tolist() == [
            1.5918797327578411, 1.0598983445963466, 1.5348915313177105]
        assert ggbm.sample_mixing_lambda(0.3, rng(2026), 3).tolist() == [
            1.3685247299177392, 1.0659760471672133, 1.5001007450925332]


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
        # second order without a closed form: KS against the exact
        # distribution 1 - int_v^inf M_(0.3) of the mixing variable
        rng = np.random.default_rng(7777)
        lam = ggbm.sample_mixing_lambda(0.3, rng, 10_000)
        p = kstest(lam, lambda v: 1.0 - specfun._half_mass(
            0.3, np.asarray(v, dtype=float), 1e-13)[0]).pvalue
        assert p > 0.01


class TestSmallOrders:
    """Below beta of about 0.05 the stable draw S = exp((1-beta)/beta y),
    y = log(A/W), leaves the double range for small W; Lambda = S^(-beta)
    is then formed as exp(-(1-beta) y). RuntimeWarnings are errors here
    (pyproject.toml)."""

    # draws of the first batch of seed 1 whose S is inf or 0
    @pytest.mark.parametrize("beta, far", [(0.01, 3), (0.003, 480),
                                           (0.001, 2070)])
    def test_paths_finite_and_other_draws_keep_their_bits(self, beta, far):
        ens = ggbm.sample_paths(ggbm.CovSpec(1.0, beta, [1.0]),
                                ggbm._BATCH, 1)
        lam = ens.lambdas
        assert ((lam > 0.0) & (lam < np.inf)).all()
        assert np.isfinite(ens.paths).all()
        child = np.random.SeedSequence(1).spawn(1)[0]
        y = _kanter_log(beta, np.random.Generator(np.random.PCG64(child)),
                        ggbm._BATCH)
        with np.errstate(over="ignore", divide="ignore"):
            s = np.exp((1.0 - beta) / beta * y)
            former = s ** (-beta)
        kept = (s > 0.0) & (s < np.inf)
        assert (~kept).sum() == far
        assert np.array_equal(lam[kept], former[kept])
        assert np.array_equal(lam[~kept], np.exp(-(1.0 - beta) * y[~kept]))

    @pytest.mark.parametrize("beta", [0.01, 0.003, 0.001])
    def test_mixing_law(self, beta):
        # KS against 1 - int_v^inf M_beta
        lam = ggbm.sample_mixing_lambda(beta, np.random.default_rng(3),
                                        20_000)
        assert ((lam > 0.0) & (lam < np.inf)).all()
        p = kstest(lam, lambda v: 1.0 - specfun._half_mass(
            beta, np.asarray(v, dtype=float), 1e-13)[0]).pvalue
        assert p > 0.01
        # scalar draws take the same route (S = 0 raised ZeroDivisionError)
        rng = np.random.default_rng(3)
        assert all(0.0 < ggbm.sample_mixing_lambda(beta, rng) < math.inf
                   for _ in range(500))

    @pytest.mark.parametrize("beta", [0.01, 0.003, 0.001])
    def test_stable_draws_leave_the_range_quietly(self, beta):
        s = ggbm.sample_oneside_stable(beta, np.random.default_rng(2), 20_000)
        assert (s == np.inf).any()
        with np.errstate(over="ignore"):
            want = _kanter_reference(beta, np.random.default_rng(2), 20_000)
        assert np.array_equal(s, want)


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

    def test_too_many_paths_fail_before_the_spawn(self, monkeypatch):
        # 2**57 paths of 64 times exceed the address space; the spawn would
        # build 3.5e13 child streams first if it came before the arrays
        class NoSpawn:
            def __init__(self, seed):
                pass

            def spawn(self, n):
                raise AssertionError(f"spawned {n} streams before allocating")

        monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
        spec = ggbm.CovSpec(1.0, 0.5, np.arange(1, 65) / 64.0)
        with pytest.raises(ValueError, match="array is too big"):
            ggbm.sample_paths(spec, 2 ** 57, 0)


def _per_value_csv(ens) -> str:
    """The CSV text of PathEnsemble.save, one f-string per value."""
    lines = ["# ggbm ensemble; columns are sampling times\n",
             "# " + ",".join(f"{t:.17g}" for t in ens.spec.times) + "\n"]
    lines += [",".join(f"{v:.17g}" for v in row) + "\n" for row in ens.paths]
    return "".join(lines)


def _ensemble(paths):
    ncols = paths.shape[1]
    spec = ggbm.CovSpec(1.0, 0.5, np.arange(1.0, ncols + 1.0))
    return ggbm.PathEnsemble(spec, paths, 5, np.ones(len(paths)))


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                -1e-310, 1e300, -1e300, 1.7976931348623157e308]


class TestSaveFormat:
    @given(data=st.data(), rows=st.integers(0, 40), cols=st.integers(1, 6),
           chunk=st.integers(1, 9))
    def test_bytes_match_per_value_writer(self, tmp_path_factory, data,
                                          rows, cols, chunk):
        values = st.one_of(st.sampled_from(_EDGE_VALUES),
                           st.floats(allow_nan=False, allow_infinity=False))
        paths = data.draw(hnp.arrays(np.float64, (rows, cols),
                                     elements=values))
        ens = _ensemble(paths)
        prefix = str(tmp_path_factory.mktemp("save") / "ens")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_csv, "_BLOCK", chunk * cols)  # chunk rows a block
            csv_path, _ = ens.save(prefix)
        text = open(csv_path).read()
        assert text == _per_value_csv(ens)
        got = np.array([[float(v) for v in line.split(",")]
                        for line in text.splitlines()[2:]]).reshape(rows,
                                                                    cols)
        assert got.tobytes() == paths.tobytes()  # bits, so -0.0 too

    def test_partial_last_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_csv, "_BLOCK", 256 * 7)  # 256 rows a block
        rows = 2 * 256 + 37
        rng = np.random.default_rng(11)
        paths = rng.standard_normal((rows, 7)) * 10.0 ** rng.integers(
            -300, 300, (rows, 7))
        paths[5, :len(_EDGE_VALUES[:7])] = _EDGE_VALUES[:7]
        paths[-1, :] = _EDGE_VALUES[-7:]
        ens = _ensemble(paths)
        csv_path, _ = ens.save(str(tmp_path / "ens"))
        assert open(csv_path).read() == _per_value_csv(ens)


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

    def test_working_memory_is_block_sized(self):
        # numpy reports its buffers to tracemalloc: at 100 000 x 64 a full
        # (paths, times - 1) increment array alone would be 50 MB
        spec = ggbm.CovSpec(1.2, 0.6, np.arange(1, 65) / 64.0)
        ens = ggbm.sample_paths(spec, 100_000, 12)
        tracemalloc.start()
        try:
            ggbm.ensemble_stats(ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6, peak


def _batch_loop_paths(spec, n_paths, seed):
    """Reference sampler: the textbook batch loop, with fresh normal, product
    and scaled arrays for every batch, cut to n_paths at the end."""
    chol = np.linalg.cholesky(ggbm._raw_covariance(spec))
    n_batches = (n_paths + ggbm._BATCH - 1) // ggbm._BATCH
    paths, lambdas = [], []
    for child in np.random.SeedSequence(seed).spawn(n_batches):
        rng = np.random.Generator(np.random.PCG64(child))
        lam = ggbm.sample_mixing_lambda(spec.beta, rng, ggbm._BATCH)
        z = rng.standard_normal((ggbm._BATCH, len(spec.times)))
        paths.append(np.sqrt(lam)[:, None] * (z @ chol.T))
        lambdas.append(lam)
    return (np.concatenate(paths)[:n_paths],
            np.concatenate(lambdas)[:n_paths])


def _full_array_stats(e, cells=20):
    """Reference statistics: one pass over the whole (paths, times) array
    per statistic, as the formulas read."""
    x, n = e.paths, e.n_paths
    mean = x.mean(axis=0)
    sd = x.std(axis=0, ddof=1)
    var = sd * sd
    m4 = (((x - mean) ** 2) ** 2).mean(axis=0)
    out = {"mean": mean, "mean_se": sd / math.sqrt(n), "variance": var,
           "variance_se": np.sqrt(np.maximum(m4 - var * var, 0.0) / n)}
    if x.shape[1] >= 3:
        d = np.diff(x, axis=1)
        per_path = (d[:, :-1] * d[:, 1:]).mean(axis=1)
        c00 = float((d * d).mean())
        out["lag1_increment_corr"] = float(per_path.mean()) / c00
        out["lag1_increment_corr_se"] = (float(per_path.std(ddof=1))
                                         / math.sqrt(n) / c00)
    edges = ggbm.marginal_quantile(e.spec.alpha, e.spec.beta,
                                   np.arange(1, cells) / cells,
                                   float(e.spec.times[-1]))
    counts = np.histogram(x[:, -1], bins=np.concatenate(
        ([-np.inf], edges, [np.inf])))[0]
    out["chi2_stat"] = float(((counts - n / cells) ** 2 / (n / cells)).sum())
    return out


_BLOCK = ggbm._STATS_ROWS


class TestBlockedPassesMatchFullArrays:
    """sample_paths and ensemble_stats against the full-array references:
    the same bits in every field."""

    @pytest.mark.parametrize("n, m, alpha, beta, seed", [
        (100, 8, 1.0, 1.0, 1),
        (_BLOCK - 1, 64, 1.2, 0.6, 2),
        (_BLOCK, 64, 0.5, 0.5, 3),
        (_BLOCK + 1, 16, 1.5, 1.0, 4),
        (4097, 3, 1.3, 0.7, 5),
        (8192, 32, 0.7, 0.4, 6),
        (8192, 32, 1.0, 1.0, 7),
        (100_000, 64, 1.2, 0.6, 8),
    ])
    def test_same_bits(self, n, m, alpha, beta, seed):
        spec = ggbm.CovSpec(alpha, beta, np.arange(1, m + 1) / m)
        ens = ggbm.sample_paths(spec, n, seed)
        want_paths, want_lambdas = _batch_loop_paths(spec, n, seed)
        assert np.array_equal(ens.paths, want_paths)
        assert np.array_equal(ens.lambdas, want_lambdas)
        rep = ggbm.ensemble_stats(ens)
        for name, value in _full_array_stats(ens).items():
            assert np.array_equal(getattr(rep, name), value), name

    @pytest.mark.parametrize("m", [1, 2])
    def test_fewer_than_three_times(self, m):
        # one increment or none: no lag-1 correlation, and no empty means
        spec = ggbm.CovSpec(1.0, 0.5, np.arange(1, m + 1) / m)
        ens = ggbm.sample_paths(spec, 3 * _BLOCK + 7, 9)
        rep = ggbm.ensemble_stats(ens)
        for name, value in _full_array_stats(ens).items():
            assert np.array_equal(getattr(rep, name), value), name
        doc = json.loads(rep.to_json())
        assert doc["lag1_increment_corr"] is None
        assert doc["lag1_increment_corr_se"] is None

    @pytest.mark.parametrize("shape", [(100, 2), (3 * _BLOCK + 7, 3),
                                       (8192, 32), (100_000, 64)])
    def test_row_order_carry_is_the_axis0_sum(self, shape):
        # the assumption behind ensemble_stats: numpy's axis-0 reduction of
        # a C-contiguous array with two or more columns adds whole rows in
        # order, so a carried block-by-block sum has the same bits
        rng = np.random.default_rng(shape)
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        acc = np.zeros(shape[1])
        for lo in range(0, shape[0], _BLOCK):
            blk = x[lo:lo + _BLOCK].copy()
            blk[0] += acc
            np.add.reduce(blk, axis=0, out=acc)
        assert np.array_equal(acc, x.sum(axis=0))

    @pytest.mark.parametrize("shape", [(7,), (128,), (129,), (1 << 16,),
                                       ((1 << 16) + 8,), ((1 << 17) + 3,),
                                       (100_000, 63)])
    def test_streamed_sum_is_numpys(self, shape):
        # the assumption behind ensemble_stats' increment mean: numpy sums a
        # C-contiguous array in one pairwise tree over its flat values, so
        # the same values fed in uneven pieces through leaf-sized subtrees
        # have the bits of .sum() and .mean()
        rng = np.random.default_rng(shape)
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        flat = x.reshape(-1)
        streamed = ggbm._PairwiseSum(flat.size)
        lo = 0
        while lo < flat.size:
            hi = lo + int(rng.integers(1, 3 * ggbm._PAIRWISE_LEAF))
            streamed.add(flat[lo:hi])
            lo = hi
        assert streamed.total() == x.sum()
        assert streamed.total() / flat.size == x.mean()

    @pytest.mark.parametrize("times", [[1e200], [1.0, 2.0, 1e200],
                                       [1e199, 1e200, 2e200, 3e200],
                                       [1e306, 2e306, 3e306]])
    def test_overflowing_moments_match_a_scaled_ensemble(self, times):
        # past a variance of about 1e154 the fourth central powers overflow,
        # and near the double range the squares too; every field must equal
        # the full-array formulas on the paths scaled by a power of two (an
        # exact scaling), with no RuntimeWarning (errors, pyproject.toml).
        # 40 000 paths span many row blocks, and from three times on their
        # increments span two leaves of the pairwise sum
        for n in (200, 40_000):
            ens = ggbm.sample_paths(ggbm.CovSpec(1.0, 1.0, np.array(times)),
                                    n, 11)
            rep = ggbm.ensemble_stats(ens)
            x = ens.paths
            k = np.frexp(np.abs(x).max(axis=0))[1]  # one scale per column
            want = _full_array_stats(ggbm.PathEnsemble(
                ens.spec, np.ldexp(x, -k), ens.seed, ens.lambdas))
            for name, power in (("mean", 1), ("mean_se", 1),
                                ("variance", 2), ("variance_se", 2)):
                assert np.array_equal(getattr(rep, name),
                                      np.ldexp(want[name], power * k)), name
            if len(times) >= 3:
                k = np.frexp(np.abs(x).max())[1]  # one scale for increments
                want = _full_array_stats(ggbm.PathEnsemble(
                    ens.spec, np.ldexp(x, -k), ens.seed, ens.lambdas))
                assert rep.lag1_increment_corr == want["lag1_increment_corr"]
                assert (rep.lag1_increment_corr_se
                        == want["lag1_increment_corr_se"])


@pytest.fixture
def pools(monkeypatch):
    """The worker count of every pool that ggbm makes."""
    made = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return made


class TestParallelFills:
    """sample_paths with 1, 2 and 3 worker threads against the batch loop: a
    pool from 4 batches per worker and 2 workers on, the same bits always."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("n, m, beta", [
        (1, 5, 0.6),                     # one path of a whole batch
        (100, 3, 0.3),                   # one partial batch
        (8 * ggbm._BATCH - 1, 5, 0.6),   # 8 batches, the last partial
        (7 * ggbm._BATCH, 5, 0.6),       # just below the threshold
        (8 * ggbm._BATCH, 5, 0.6),       # at it
        (9 * ggbm._BATCH - 77, 3, 0.3),  # just above, partial last batch
        (12 * ggbm._BATCH, 2, 0.9),      # 3 workers with 3 CPUs
        (12 * ggbm._BATCH + 1, 4, 1.0),  # beta = 1: normals only
        (100_000, 64, 0.6),
    ])
    def test_same_bits_as_the_batch_loop(self, monkeypatch, pools, cpus, n,
                                         m, beta):
        monkeypatch.setattr(ggbm, "_cpu_count", lambda: cpus)
        spec = ggbm.CovSpec(1.2, beta, np.arange(1, m + 1) / m)
        ens = ggbm.sample_paths(spec, n, 31)
        want_paths, want_lambdas = _batch_loop_paths(spec, n, 31)
        assert ens.paths.shape == (n, m) and ens.lambdas.shape == (n,)
        assert ens.paths.flags.c_contiguous
        assert np.array_equal(ens.paths, want_paths)
        assert np.array_equal(ens.lambdas, want_lambdas)
        n_batches = -(-n // ggbm._BATCH)
        workers = min(cpus, n_batches // 4)
        assert pools == ([workers] if workers >= 2 else [])

    @pytest.mark.parametrize("cpus, n", [(2, 7 * ggbm._BATCH), (1, 100_000),
                                         (64, 8192)])
    def test_no_pool_below_the_threshold(self, monkeypatch, cpus, n):
        def refuse(*args, **kwargs):
            raise AssertionError("a pool was made")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(ggbm, "_cpu_count", lambda: cpus)
        spec = ggbm.CovSpec(1.0, 0.5, np.array([0.5, 1.0]))
        assert ggbm.sample_paths(spec, n, 3).n_paths == n

    def test_math_runs_on_the_calling_thread(self, monkeypatch, pools):
        # each batch's stream is drawn by one task on a pool thread; Lambda,
        # the product with the Cholesky factor and the scaling run on the
        # calling thread, one per batch, so one BLAS call runs at a time
        seen = []

        def spy(owner, name):
            original = getattr(owner, name)

            def call(*args, **kwargs):
                seen.append((name, threading.get_ident()))
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, call)

        spy(np.random, "PCG64")
        for name in ("matmul", "multiply"):
            spy(np, name)
        spy(ggbm, "_mixing_lambda")
        monkeypatch.setattr(ggbm, "_cpu_count", lambda: 2)
        ggbm.sample_paths(ggbm.CovSpec(1.0, 0.5, np.array([1.0])),
                          8 * ggbm._BATCH, 4)
        assert pools == [2]
        me = threading.get_ident()
        tasks = [t for name, t in seen if name == "PCG64"]
        assert len(tasks) == 8 and me not in tasks
        assert sorted(seen)[8:] == ([("_mixing_lambda", me)] * 8
                                    + [("matmul", me)] * 8
                                    + [("multiply", me)] * 8)

    def test_more_workers_than_cores(self, monkeypatch, pools):
        # 10 fill threads with a thread switch every microsecond: a draw
        # into buffers that the math still reads would change the bits
        monkeypatch.setattr(ggbm, "_cpu_count", lambda: 10)
        spec = ggbm.CovSpec(0.7, 0.4, np.array([0.5, 1.0, 2.0]))
        n = 40 * ggbm._BATCH + 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ens = ggbm.sample_paths(spec, n, 12)
        finally:
            sys.setswitchinterval(interval)
        assert pools == [10]
        want_paths, want_lambdas = _batch_loop_paths(spec, n, 12)
        assert np.array_equal(ens.paths, want_paths)
        assert np.array_equal(ens.lambdas, want_lambdas)

    @pytest.mark.parametrize("where", ["task", "caller"])
    def test_warnings_reach_the_caller(self, monkeypatch, pools, where):
        # RuntimeWarnings are errors here (pyproject.toml): one raised in a
        # batch's task on a pool thread, or in the product on the calling
        # thread, ends the call as an exception
        owner, name = ((np.random, "PCG64") if where == "task"
                       else (np, "matmul"))
        original = getattr(owner, name)
        threads = []

        def warn(*args, **kwargs):
            out = original(*args, **kwargs)
            threads.append(threading.get_ident())
            warnings.warn("from " + where, RuntimeWarning)
            return out

        monkeypatch.setattr(owner, name, warn)
        monkeypatch.setattr(ggbm, "_cpu_count", lambda: 2)
        with pytest.raises(RuntimeWarning, match="from " + where):
            ggbm.sample_paths(ggbm.CovSpec(1.0, 0.5, np.array([1.0])),
                              8 * ggbm._BATCH, 4)
        assert pools == [2]
        assert (threads[0] == threading.get_ident()) == (where == "caller")


_KB = ggbm._KANTER_BLOCK


class TestBlockedKanter:
    """_kanter in blocks, serially or on 2 and 3 threads, against one
    whole-array formula: the same bits, whatever the split."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("size", [
        4097,                # one block, an odd size
        7 * _KB,             # 7 blocks: just below the pool threshold
        7 * _KB + 1,         # 8 blocks, the last one value: at it
        12 * _KB + 5,        # above it: 3 workers with 3 CPUs
        (3, 3 * _KB + 333),  # a tuple shape, 10 blocks across its rows
    ])
    @pytest.mark.parametrize("nu", [0.01, 0.05, 0.5, 0.99])
    def test_same_bits_as_the_whole_array(self, monkeypatch, pools, cpus,
                                          size, nu):
        monkeypatch.setattr(ggbm, "_cpu_count", lambda: cpus)
        rng = np.random.default_rng(17)
        u, w = rng.random(size), rng.standard_exponential(size)
        # W at the ends of the double range: S is inf and 0 at small
        # orders, on either side of block edges and inside blocks
        flat = w.reshape(-1)
        for i in (0, _KB - 1, 3 * _KB + 7, flat.size - 2):
            if i < flat.size - 1:
                flat[i:i + 2] = 1e-300, 1e300
        s, y = ggbm._kanter(nu, u, w)
        want_s, want_y = _kanter_whole(nu, u, w)
        assert s.shape == y.shape == u.shape
        assert np.array_equal(s, want_s) and np.array_equal(y, want_y)
        if nu <= 0.05:
            assert (s == np.inf).any() and (s == 0.0).any()
        blocks = -(-flat.size // _KB)
        workers = min(cpus, blocks // 4)
        assert pools == ([workers] if workers >= 2 else [])

    def test_more_workers_than_cores(self, monkeypatch, pools):
        # 10 threads writing their blocks of S and log(A/W) with a thread
        # switch every microsecond: a block written to the wrong place, or
        # read before it is written, would change the bits
        monkeypatch.setattr(ggbm, "_cpu_count", lambda: 10)
        rng = np.random.default_rng(29)
        size = 40 * _KB + 3
        u, w = rng.random(size), rng.standard_exponential(size)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            s, y = ggbm._kanter(0.7, u, w)
        finally:
            sys.setswitchinterval(interval)
        assert pools == [10]
        want_s, want_y = _kanter_whole(0.7, u, w)
        assert np.array_equal(s, want_s) and np.array_equal(y, want_y)

    def test_samplers_take_the_blocked_transform(self, monkeypatch, pools):
        # both public samplers draw all uniforms, then all exponentials,
        # and keep the whole-array bits on a pool
        monkeypatch.setattr(ggbm, "_cpu_count", lambda: 2)
        n = 8 * _KB
        got = ggbm.sample_oneside_stable(0.3, np.random.default_rng(4), n)
        assert np.array_equal(got, _kanter_reference(
            0.3, np.random.default_rng(4), n))
        got = ggbm.sample_mixing_lambda(0.3, np.random.default_rng(4), n)
        assert np.array_equal(got, _kanter_reference(
            0.3, np.random.default_rng(4), n) ** (-0.3))
        assert pools == [2, 2]


class TestParallelStats:
    """ensemble_stats with 1 and 2 CPUs: from 8 * _BATCH paths with three
    or more times, a pool thread runs the lag-1 pass; every field keeps
    its bits."""

    @pytest.mark.parametrize("n, times, pooled", [
        (8 * ggbm._BATCH, [0.5, 1.0], False),          # no lag-1 pass
        (8 * ggbm._BATCH - 1, np.arange(1, 65) / 64.0, False),  # just below
        (8 * ggbm._BATCH, np.arange(1, 65) / 64.0, True),       # at it
        # the fourth powers of the last column overflow: its moment sums
        # are redone at a power-of-two scale; the lag-1 sums do not overflow
        (8 * ggbm._BATCH, [1.0, 2.0, 1e160], True),
        # the lag-1 correlation overflows too: redone at a scale
        (8 * ggbm._BATCH, [1e306, 2e306, 3e306], True),
    ])
    def test_same_bits_on_one_cpu_and_two(self, monkeypatch, pools, n,
                                          times, pooled):
        ens = ggbm.sample_paths(ggbm.CovSpec(1.0, 0.8, np.array(times)),
                                n, 23)
        reports = []
        for cpus in (1, 2):
            monkeypatch.setattr(ggbm, "_cpu_count", lambda: cpus)
            pools.clear()
            reports.append(ggbm.ensemble_stats(ens))
            assert pools == ([2] if pooled and cpus == 2 else [])
        one, two = (asdict(r) for r in reports)
        for name, value in one.items():
            assert np.array_equal(two[name], value), name
        if len(times) >= 3:
            assert one["lag1_increment_corr"] is not None

    def test_lag1_pass_starts_before_the_mean(self, monkeypatch, pools):
        # the lag-1 pass is made ready on the calling thread (its buffers
        # come from there) and runs on the pool thread from before the
        # column mean; the moment pass runs on the calling thread
        events = []
        lag1_pass, moment_pass = ggbm._lag1_pass, ggbm._moment_pass

        def lag1_spy(x, k=0):
            events.append(("ready", True, threading.get_ident()))
            run = lag1_pass(x, k)

            def traced():
                events.append(("run", True, threading.get_ident()))
                return run()
            return traced

        def moment_spy(x, mean, k=0):
            events.append(("run", False, threading.get_ident()))
            return moment_pass(x, mean, k)

        class Paths(np.ndarray):
            def mean(self, *args, **kwargs):
                events.append(("mean", None, threading.get_ident()))
                return np.asarray(self).mean(*args, **kwargs)

        monkeypatch.setattr(ggbm, "_cpu_count", lambda: 2)
        spec = ggbm.CovSpec(1.0, 0.5, np.arange(1, 9) / 8.0)
        ens = ggbm.sample_paths(spec, 8 * ggbm._BATCH, 2)
        want = asdict(ggbm.ensemble_stats(ens))
        ens.paths = ens.paths.view(Paths)
        monkeypatch.setattr(ggbm, "_lag1_pass", lag1_spy)
        monkeypatch.setattr(ggbm, "_moment_pass", moment_spy)
        pools.clear()
        got = asdict(ggbm.ensemble_stats(ens))
        assert pools == [2]
        me = threading.get_ident()
        on_caller = [e[:2] for e in events if e[2] == me]
        assert on_caller == [("ready", True), ("mean", None), ("run", False)]
        assert [e[:2] for e in events if e[2] != me] == [("run", True)]
        for name, value in want.items():
            assert np.array_equal(got[name], value), name

    @pytest.mark.parametrize("where", ["stats", "kanter"])
    def test_warnings_reach_the_caller(self, monkeypatch, pools, where):
        # RuntimeWarnings are errors here (pyproject.toml): one raised on a
        # pool thread, in the lag-1 pass or in a Kanter block, ends the call
        # as an exception in the caller
        owner, name = ((ggbm._PairwiseSum, "add") if where == "stats"
                       else (specfun, "_kanter_log_a"))
        original = getattr(owner, name)
        threads = []

        def warn(*args, **kwargs):
            out = original(*args, **kwargs)
            threads.append(threading.get_ident())
            warnings.warn("from " + where, RuntimeWarning)
            return out

        monkeypatch.setattr(ggbm, "_cpu_count", lambda: 2)
        if where == "stats":
            ens = ggbm.sample_paths(ggbm.CovSpec(1.0, 0.5, np.arange(1, 5)),
                                    8 * ggbm._BATCH, 4)
            pools.clear()
            monkeypatch.setattr(owner, name, warn)
            call = lambda: ggbm.ensemble_stats(ens)  # noqa: E731
        else:
            monkeypatch.setattr(owner, name, warn)
            call = lambda: ggbm.sample_oneside_stable(  # noqa: E731
                0.5, np.random.default_rng(1), 8 * _KB)
        with pytest.raises(RuntimeWarning, match="from " + where):
            call()
        assert pools == [2]
        assert threading.get_ident() not in threads

    def test_no_pool_for_the_ensemble_workload(self, monkeypatch):
        # 8192 x 32 ensembles (the benchmark's ensemble workload) and the
        # sampler's 4096-draw Kanter transforms stay serial on any machine
        def refuse(*args, **kwargs):
            raise AssertionError("a pool was made")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(ggbm, "_cpu_count", lambda: 64)
        spec = ggbm.CovSpec(1.2, 0.6, np.arange(1, 33) / 32.0)
        ens = ggbm.sample_paths(spec, 8192, 5)
        assert ggbm.ensemble_stats(ens).n_paths == 8192
        rng = np.random.default_rng(5)
        u, w = rng.random(ggbm._BATCH), rng.standard_exponential(ggbm._BATCH)
        assert np.array_equal(ggbm._kanter(0.6, u, w)[0],
                              _kanter_whole(0.6, u, w)[0])
