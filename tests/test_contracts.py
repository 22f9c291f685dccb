"""Cross-module input contracts: every entry point that takes a time, the
mended non-finite inputs, and raises that no other test reaches.

Each case expects a named ValueError subclass, with RuntimeWarnings as
errors, so that NaN or inf never comes back as a plausible number.
"""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.special import gamma, rgamma

from mwright import cli, fraccalc, ggbm, greens, oracles, quadrature, specfun
from mwright.errors import (
    DomainError,
    InvalidArgument,
    InvalidOrder,
    InvalidTime,
    NegativeArgument,
    NotPositiveDefinite,
    QuadratureFailure,
    ResultOverflow,
)
from mwright.gridfn import GridFunction

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

_GREEN = greens.GreenSpec(0.5, 0.5, 1.0)  # alpha = beta, k = 1: Fourier form
_DRIFT = greens.DriftSpec(0.5)


def _gaussian(nx=41, halfwidth=4.0):
    xs = np.linspace(-halfwidth, halfwidth, nx)
    return GridFunction(xs, np.exp(-2.0 * xs * xs) * math.sqrt(2.0 / math.pi))


# every public entry point that takes a time t, as a function of t
_TIMED = {
    "green_density": lambda t: greens.green_density(_GREEN, 1.0, t),
    "green_density_values": lambda t: greens.green_density_values(
        _GREEN, [0.0, 1.0], t),
    "variance_law": lambda t: greens.variance_law(_GREEN, t),
    "green_fourier": lambda t: greens.green_fourier(_GREEN, 1.0, t),
    "drift_green": lambda t: greens.drift_green(_DRIFT, 1.0, t),
    "drift_green_values": lambda t: greens.drift_green_values(
        _DRIFT, [-1.0, 1.0], t),
    "drift_green_stable_form": lambda t: greens.drift_green_stable_form(
        _DRIFT, 1.0, t),
    "drift_mean": lambda t: greens.drift_mean(_DRIFT, t),
    "solve_volterra": lambda t: greens.solve_volterra(
        _gaussian(), _GREEN, t, 16, 4.0),
    "marginal_cdf": lambda t: ggbm.marginal_cdf(1.0, 0.5, [0.0, 1.0], t),
    "marginal_quantile": lambda t: ggbm.marginal_quantile(1.0, 0.5, 0.25, t),
    "pdf_marginal": lambda t: ggbm.pdf_marginal(1.0, 0.5, 1.0, t),
    "m2": lambda t: oracles.m2(0.5, 1.0, t),
    "subordination_check": lambda t: oracles.subordination_check(
        0.5, 0.5, 1.0, t),
}


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", list(_TIMED))
def test_time_must_be_finite_and_positive(name, t):
    with pytest.raises(InvalidTime):
        _TIMED[name](t)


@pytest.mark.parametrize("name", list(_TIMED))
def test_a_positive_finite_time_passes_the_guard(name):
    _TIMED[name](0.5)


class TestNonFiniteInputs:
    """Inputs that used to come back as a number, a NaN profile or a
    builtins exception."""

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_npoint_displacements_must_be_finite(self, x):
        spec = ggbm.CovSpec(1.0, 0.5, [0.5, 1.0])
        with pytest.raises(InvalidArgument, match="finite"):
            ggbm.NPointQuery(spec, [x, 1.0])

    @pytest.mark.parametrize("k", [math.inf, math.nan])
    def test_diffusion_coefficient_must_be_finite(self, k):
        with pytest.raises(InvalidArgument, match="coefficient"):
            greens.GreenSpec(1.0, 0.5, k)

    @pytest.mark.parametrize("halfwidth", [math.nan, math.inf])
    def test_volterra_half_width_must_be_spanned(self, halfwidth):
        with pytest.raises(InvalidArgument, match="half-width"):
            greens.solve_volterra(_gaussian(), _GREEN, 0.5, 16, halfwidth)

    def test_volterra_initial_profile_must_be_finite(self):
        u0 = _gaussian()
        u0.ys[20] = math.nan
        with pytest.raises(InvalidArgument, match="finite"):
            greens.solve_volterra(u0, _GREEN, 0.5, 16, 4.0)

    def test_stable_form_at_infinity_is_zero_like_drift_green(self):
        assert greens.drift_green(_DRIFT, math.inf, 1.0) == 0.0
        assert greens.drift_green_stable_form(_DRIFT, math.inf, 1.0) == 0.0

    def test_stable_form_where_the_argument_of_m_overflows(self):
        # r^(-beta) = x t^(-beta) = 1e300 x 1e297 leaves the double range
        # (builtins OverflowError before); M_beta and the density are 0
        spec = greens.DriftSpec(0.99)
        assert greens.drift_green(spec, 1e300, 1e-300) == 0.0
        assert greens.drift_green_stable_form(spec, 1e300, 1e-300) == 0.0

    @pytest.mark.parametrize("beta, x", [(0.5, 1e200), (0.5, 1e159),
                                         (0.001, 3.0)])
    def test_stable_form_where_r_leaves_the_double_range(self, beta, x):
        # r = t x^(-1/beta) underflows (ZeroDivisionError) or its power
        # overflows (OverflowError) in double arithmetic; in log space the
        # two routes agree within drift_green's estimate plus the rounding
        # of the log-space prefactors, which cancel to t^(-beta)
        spec = greens.DriftSpec(beta)
        want = greens.drift_green_result(spec, x, 1.0)
        got = greens.drift_green_stable_form(spec, x, 1.0)
        logs = (1.0 + 1.0 / beta) * abs(math.log(x)) * 2.0
        rounding = 8.0 * np.finfo(float).eps * logs * abs(got)
        assert abs(got - want.value) <= want.abs_err_estimate + rounding
        assert (got > 0.0) == (want.value > 0.0)

    def test_stable_form_past_the_double_range_raises_result_overflow(self):
        # t^(-beta) M_beta(1) = 4.4e308 at beta = 0.99
        t = 10.0 ** (-308.0 / 0.99)
        with pytest.raises(ResultOverflow, match="double range"):
            greens.drift_green_stable_form(greens.DriftSpec(0.99), 1e-308, t)

    @pytest.mark.parametrize("f0", [math.nan, math.inf, -math.inf])
    def test_caputo_start_value_must_be_finite(self, f0):
        g = GridFunction(np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 11))
        with pytest.raises(InvalidArgument, match="f0"):
            fraccalc.caputo_derivative_grid(g, f0, 0.5)

    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (1.0, 1.0)])
    def test_adaptive_needs_an_increasing_interval(self, a, b):
        with pytest.raises(InvalidArgument, match="b > a"):
            quadrature.adaptive(np.cos, a, b)

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0)])
    def test_adaptive_needs_finite_limits(self, a, b):
        # (nan, nan) with three RuntimeWarnings before
        with pytest.raises(InvalidArgument, match="finite"):
            quadrature.adaptive(np.sin, a, b)

    @pytest.mark.parametrize("form", [
        lambda: specfun.m_wright_asymptotic(1.0 / 3.0, 1e300),
        lambda: specfun.m_wright_asymptotic(0.99, 1e5),
        lambda: specfun.m_wright_asymptotic(0.9, 1e40),
        lambda: specfun.m_wright_envelope(0.5)(1e200)],
        ids=["third-1e300", "0.99-1e5", "0.9-1e40", "envelope-half-1e200"])
    def test_asymptotic_form_past_the_power_range_is_zero(self, form):
        # y^(1/(1-nu)) overflowed in Python floats (builtins OverflowError);
        # the exponent is then past -1e292, so the form is 0
        assert form() == 0.0

    @pytest.mark.parametrize("integral, at", [
        (lambda f: oracles.mellin_numeric(
            lambda r: f(r, 0.5) * np.exp(-r), 1.0), "0.5"),
        (lambda f: quadrature.adaptive(
            lambda x: f(x, 0.3), 0.0, 1.0, points=[0.3]), "0.3")],
        ids=["mellin_numeric", "adaptive"])
    def test_non_finite_integrand_sample_is_named(self, integral, at):
        # a Kronrod node on the singularity gave inf (or (inf, nan)) with
        # "invalid value encountered in subtract"
        def f(x, c):
            with np.errstate(divide="ignore"):
                return np.abs(x - c) ** -0.5

        with pytest.raises(QuadratureFailure, match=rf"not finite at x={at}$"):
            integral(f)

    @pytest.mark.parametrize("scheme", ["integral", "caputo"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_grid_schemes_refuse_non_finite_samples(self, scheme, bad):
        # a NaN sample gave NaN output without a word, an inf sample
        # "invalid value encountered in subtract"
        xs = np.linspace(0.0, 1.0, 11)
        ys = xs.copy()
        ys[5] = bad
        g = GridFunction(xs, ys)
        with pytest.raises(InvalidArgument, match="finite"):
            if scheme == "integral":
                fraccalc.rl_integral_grid(g, 0.5)
            else:
                fraccalc.caputo_derivative_grid(g, 0.0, 0.5)

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    @pytest.mark.parametrize("times, xs", [([1.0], [1e160]),
                                           ([1.0, 2.0], [1e300, 1.0]),
                                           ([1.0, 2.0], [1e308, -1e308])])
    def test_npoint_density_at_huge_displacements_is_zero(self, beta, times,
                                                          xs):
        # x' gamma^(-1) x overflowed in matmul (a RuntimeWarning), and at
        # beta = 1 the last case gave NaN
        spec = ggbm.CovSpec(1.0, beta, times)
        assert ggbm.pdf_npoint(ggbm.NPointQuery(spec, xs)) == 0.0


class TestPowerRulesPastTheGammaRange:
    """Power rules whose Gamma factors or power leave the double range: NaN,
    inf or builtins OverflowError before; the ratio and the power are now
    taken in logs, and ResultOverflow is raised where the value leaves."""

    @pytest.mark.parametrize("rule, args, want", [
        # Gamma(gamma + 1) / Gamma(gamma + 1 +- mu) t^(gamma +- mu), mpmath
        ("integral", (0.5, 171.0, 1.0), 0.07630471895356532335),
        ("integral", (0.5, 300.0, 10.0), 1.823463636218718801e299),
        ("caputo", (0.5, 300.0, 10.0), 5.479508226837249996e300),
        ("derivative", (0.5, 171.0, 1.0), 13.08625930053645296)])
    def test_values_past_the_gamma_range(self, rule, args, want):
        mu, g, t = args
        got = self._RULES[rule](*args)
        # the logs carry their rounding into the value, 4.5e-13 relative
        # at gamma = 300: m_wright_moment's bound on its log route
        p = g + mu if rule == "integral" else g - mu  # Gamma(p + 1) below
        logs = (abs(math.lgamma(g + 1.0)) + abs(math.lgamma(p + 1.0))
                + abs(p * math.log(t)) + 1.0)
        assert abs(got - want) <= 4.0 * np.finfo(float).eps * logs * want

    @pytest.mark.parametrize("rule", ["integral", "derivative"])
    def test_value_past_the_double_range_raises(self, rule):
        with pytest.raises(ResultOverflow, match="t=1e"):
            self._RULES[rule](0.5, 2.0, 1e300)

    def test_factors_in_range_keep_their_bits(self):
        assert fraccalc.rl_integral_power(0.5, 1.5, 2.0) == float(
            gamma(2.5) * rgamma(3.0) * 2.0 ** 2.0)
        assert fraccalc.rl_derivative_power(0.5, 1.5, 2.0) == float(
            gamma(2.5) * rgamma(2.0) * 2.0 ** 1.0)
        # 1/Gamma's exact 0 at a pole: the derivative of t^(mu - 1)
        assert fraccalc.rl_derivative_power(2.5, 1.5, 2.0) == 0.0

    _RULES = {"integral": fraccalc.rl_integral_power,
              "derivative": fraccalc.rl_derivative_power,
              "caputo": fraccalc.caputo_power}


class TestIntegerCounts:
    """Counts that used to raise builtins TypeError or ZeroDivisionError, or
    return a NaN p-value: each is checked before any work."""

    _SPEC = ggbm.CovSpec(1.0, 0.5, [0.5, 1.0])

    def test_volterra_steps_must_be_an_integer(self, monkeypatch):
        # refused before the product-quadrature weights are built
        monkeypatch.setattr(greens, "_prod_trap_pieces", None)
        with pytest.raises(InvalidArgument, match="nt must be an integer"):
            greens.solve_volterra(_gaussian(), _GREEN, 0.5, 64.0, 4.0)

    def test_volterra_takes_a_numpy_integer(self):
        want = greens.solve_volterra(_gaussian(), _GREEN, 0.5, 16, 4.0).ys
        got = greens.solve_volterra(_gaussian(), _GREEN, 0.5, np.int64(16),
                                    4.0).ys
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n_paths, seed, name", [
        (200.0, 1, "n_paths"), (200, 1.5, "seed"), (200, -1, "seed")])
    def test_sample_paths_counts(self, monkeypatch, n_paths, seed, name):
        monkeypatch.setattr(ggbm, "_cholesky", None)
        with pytest.raises(InvalidArgument, match=name):
            ggbm.sample_paths(self._SPEC, n_paths, seed)

    @pytest.mark.parametrize("cells", [1, 0, 2.5])
    def test_chi_square_needs_two_integer_cells(self, monkeypatch, cells):
        ens = ggbm.sample_paths(self._SPEC, 200, 1)
        monkeypatch.setattr(ggbm, "_moment_pass", None)
        monkeypatch.setattr(ggbm, "_lag1_pass", None)
        with pytest.raises(InvalidArgument, match="cells"):
            ggbm.ensemble_stats(ens, cells=cells)

    def test_two_cells_give_a_p_value(self):
        rep = ggbm.ensemble_stats(ggbm.sample_paths(self._SPEC, 200, 1),
                                  cells=np.int64(2))
        assert 0.0 <= rep.chi2_pvalue <= 1.0


class TestSamplerSizes:
    """The samplers' size, checked before any draw: numpy's bare TypeError
    (2.5, True) and plain ValueError (-1), at beta = 1 too, are now
    InvalidArgument naming size."""

    _DRAWS = {
        "stable": lambda rng, size: ggbm.sample_oneside_stable(0.5, rng, size),
        "mixing": lambda rng, size: ggbm.sample_mixing_lambda(0.5, rng, size),
        "mixing at beta 1": lambda rng, size: ggbm.sample_mixing_lambda(
            1.0, rng, size),
    }

    @pytest.mark.parametrize("size", [2.5, True, -1, (2, 2.5), (3, -1),
                                      [4, False]])
    @pytest.mark.parametrize("draw", list(_DRAWS))
    def test_bad_size_is_named(self, draw, size):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidArgument, match="size"):
            self._DRAWS[draw](rng, size)
        assert rng.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize("draw", list(_DRAWS))
    def test_good_sizes_keep_their_shapes(self, draw):
        rng = np.random.default_rng(0)
        assert isinstance(self._DRAWS[draw](rng, None), float)
        for size, shape in ((0, (0,)), (np.int64(3), (3,)), ((2, 3), (2, 3)),
                            ((0, 4), (0, 4)), ([2, 1], (2, 1))):
            assert self._DRAWS[draw](rng, size).shape == shape

    def test_sample_paths_count_is_no_bool(self):
        with pytest.raises(InvalidArgument, match="n_paths"):
            ggbm.sample_paths(TestIntegerCounts._SPEC, True, 1)


class TestExtremeTimes:
    """Green and drift densities where t^(alpha/2) or t^(-beta) leaves the
    double range: 0 where the argument of M does, ResultOverflow where the
    value does, in the scalar, _values and _result forms alike."""

    _TINY = 5e-324  # the least subnormal
    _BIG = 10.0 ** (-308.0 / 0.99)  # t^(-0.99) M_0.99(1) = 4.4e308
    _FORMS = {
        "green": (greens.GreenSpec(2.0, 0.5), greens.green_density,
                  greens.green_density_values, greens.green_density_result),
        "drift": (greens.DriftSpec(0.99), greens.drift_green,
                  greens.drift_green_values, greens.drift_green_result),
    }

    @pytest.mark.parametrize("kind", ["green", "drift"])
    def test_argument_past_the_double_range_gives_zero(self, kind):
        spec, scalar, values, result = self._FORMS[kind]
        assert scalar(spec, 1.0, self._TINY) == 0.0
        assert values(spec, [1.0, 2.0], self._TINY).tolist() == [0.0, 0.0]
        assert result(spec, 1.0, self._TINY) == specfun.EvalResult(
            0.0, 0.0, specfun.METHOD_ASYMPTOTIC)

    @pytest.mark.parametrize("kind, x, t", [("green", 0.0, _TINY),
                                            ("drift", 1e-308, _BIG)])
    def test_value_past_the_double_range_raises(self, kind, x, t):
        spec, *forms = self._FORMS[kind]
        for form in forms:
            with pytest.raises(ResultOverflow, match=f"x={x}, t={t}"):
                form(spec, x, t)
        with pytest.raises(ResultOverflow, match=f"x={x}, t={t}"):
            forms[1](spec, [1.0, x], t)

    @pytest.mark.parametrize("kind, x", [("green", 1.5e-322),
                                         ("drift", 9.506e-321)])
    def test_log_route_forms_agree_bit_for_bit(self, kind, x):
        # a factor near 1e320 times an M value small enough for the
        # product to be finite; the result form takes its value from the
        # same logs as the scalar and _values forms
        spec, scalar, values, result = self._FORMS[kind]
        got = result(spec, x, self._TINY)
        assert got.value == scalar(spec, x, self._TINY) \
            == values(spec, [x], self._TINY)[0]
        assert 1e100 < got.value < math.inf
        # the argument a x, formed from logs near 737, is 1.5e-14 off at
        # the drift case, which M_0.99 (|d log M/d log r| = 47500 there)
        # turns into 7e-10: the estimate bounds that rounding
        assert 0.0 < got.abs_err_estimate < 1e-7 * got.value

    @pytest.mark.parametrize("kind, x, t", [("green", 1.0, 1e-300),
                                            ("drift", 1.0, 1e-300),
                                            ("drift", 1e-320, _TINY)])
    def test_underflowed_value_keeps_a_tiny_estimate(self, kind, x, t):
        # M underflows to 0 with its 1e-300 floor, which the factor lifted
        # to 0.5, 1e-3 and 1.2e20; the envelope in logs underflows too
        spec, _, _, result = self._FORMS[kind]
        got = result(spec, x, t)
        assert got.value == 0.0 and got.abs_err_estimate <= 1e-300

    @pytest.mark.parametrize("x, t", [(313.0, _TINY), (400.0, _TINY),
                                      (3.0, 2e-309)])
    def test_log_route_keeps_a_value_the_factor_lifts(self, x, t):
        # at r = 313 M_0.25 underflows (Y = 1000), but the factor 1/(2t)
        # = 1e323 lifts the density to about 9.4e-115: log M_0.25 comes
        # from the interpolant, which runs on past Y = 795, and agrees with
        # the stable-density quadrature at the same radius (taken in
        # logs) within both estimates; r = 3 lies below the switch, where
        # a subnormal t = 2e-309 keeps the density in range
        spec = greens.GreenSpec(2.0, 0.5)
        x *= t
        got = greens.green_density_result(spec, x, t)
        assert got.value == greens.green_density_values(spec, [x], t)[0]
        r = np.exp(np.log(x) - np.log(t))
        v, e = specfun._m_tail(0.25, np.array([r]), 0.0, scaled=True)
        log_m = math.log(v[0]) - float(specfun._saddle_exponent(0.25, r))
        want = math.exp(math.log(0.5) - math.log(t) + log_m)
        want_err = want * (e[0] / v[0] + 1e-12)  # 1e-12: the sum's rounding
        assert 0.0 < got.value < math.inf and got.method in ("series",
                                                             "asymptotic")
        assert abs(got.value - want) <= got.abs_err_estimate + want_err
        assert got.abs_err_estimate < 1e-8 * got.value

    def test_variance_past_the_double_range_raises(self):
        spec = greens.GreenSpec(2.0, 0.5)
        with pytest.raises(ResultOverflow, match="t=1e"):
            greens.variance_law(spec, 1e300)
        with pytest.raises(ResultOverflow):
            greens.variance_law(greens.GreenSpec(1.0, 0.5, 1e300), 1e300)

    @pytest.mark.parametrize("argv", [
        # t^(-beta) and 1/t past the double range: the argument of M is
        # too, so 0
        ("--function", "drift", "--beta", "0.99", "--x", "1", "--t",
         "5e-324"),
        ("--function", "green", "--alpha", "2", "--beta", "0.5", "--x", "1",
         "--t", "5e-324"),
        ("--function", "green", "--alpha", "0.6", "--beta", "0.4", "--x",
         "1.25", "--t", "0.5"),
        ("--function", "drift", "--beta", "0.3", "--x", "2", "--t", "1.5"),
        ("--function", "drift", "--beta", "0.3", "--x=-2", "--t", "1.5"),
        # a factor t^(-beta) = 4.6e42 on a subnormal M_beta
        ("--function", "drift", "--beta", "0.8540688856588833", "--x",
         "6.00098267282074e-43", "--t", "7.283525394423242e-51")])
    def test_eval_prints_standard_json(self, capsys, argv):
        # the subcommand's stdout, as a shell pipe reads it: no NaN or
        # Infinity, which json.dumps would print
        assert cli.main(["eval", *argv]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert set(doc) == {"value", "abs_err_estimate", "method"}
        if "5e-324" in argv:
            assert doc["value"] == 0.0


_FORMS = {"green": (greens.green_density, greens.green_density_values,
                    greens.green_density_result),
          "drift": (greens.drift_green, greens.drift_green_values,
                    greens.drift_green_result)}


def _radii(kind, spec, x, t):
    """The argument a|x| of M_nu in linear form (where the width or
    t^(-beta) is a normal double) and in logs."""
    log_a = (-0.5 * spec.alpha * math.log(t) if kind == "green"
             else -spec.beta * math.log(t))
    with np.errstate(divide="ignore", over="ignore"):
        radii = [float(np.exp(np.log(abs(x)) + log_a))]
        scale = (greens._green_scale(spec, t) if kind == "green"
                 else greens._drift_scale(spec, t))
        if sys.float_info.min <= scale < math.inf:
            radii.append(float(abs(x) / np.float64(scale) if kind == "green"
                               else abs(x) * np.float64(scale)))
    return radii


class TestScaledDensities:
    """Green and drift densities over the whole double range of x and t:
    one route gives the scalar, _values and _result forms."""

    @given(kind=st.sampled_from(["green", "drift"]),
           alpha=st.floats(0.0, 2.0, exclude_min=True),
           order=st.floats(0.0, 1.0, exclude_min=True),
           x=st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1e300,
                                        math.inf]),
                       st.floats(allow_nan=False)),
           t=st.floats(5e-324, 1e308))
    # a factor t^(-beta) = 4.6e42 on a subnormal M_beta: 1.9e20 x value
    @example(kind="drift", alpha=1.0, order=0.8540688856588833 / 0.99,
             x=6.00098267282074e-43, t=7.283525394423242e-51)
    @example(kind="green", alpha=2.0, order=0.5, x=239e-300, t=1e-300)
    @example(kind="green", alpha=2.0, order=1.0, x=20e-300, t=1e-300)
    @example(kind="green", alpha=1.0, order=1e-12, x=1000.0, t=5e-324)
    @example(kind="drift", alpha=1.0, order=0.5, x=-1.0, t=1.0)
    def test_forms_agree_and_estimates_are_relative(self, kind, alpha,
                                                    order, x, t):
        if kind == "green":
            spec, nu = greens.GreenSpec(alpha, order), 0.5 * order
        else:
            spec = greens.DriftSpec(0.99 * order)
            nu = spec.beta
        outs = []
        scalar, values, result = _FORMS[kind]
        for form in (lambda: scalar(spec, x, t),
                     lambda: values(spec, [x], t)[0],
                     lambda: result(spec, x, t)):
            try:
                outs.append(form())
            except ResultOverflow as exc:
                outs.append(str(exc))
        if any(isinstance(out, str) for out in outs):
            assert outs[0] == outs[1] == outs[2]
            return
        got = outs[2]
        assert (float(outs[0]).hex() == float(outs[1]).hex()
                == got.value.hex())
        if kind == "drift" and x < 0.0:
            assert got == specfun.EvalResult(0.0, 0.0, "closed_form")
        else:
            assert got.method in {specfun.m_wright(nu, r).method
                                  for r in _radii(kind, spec, x, t)}
        if sys.float_info.min <= got.value:
            assert got.abs_err_estimate <= 1e-6 * got.value
        elif got.value > 0.0:  # its rounding to the subnormal grid
            assert got.abs_err_estimate >= math.ulp(0.0)

    def test_subnormal_product_in_linear_form_has_an_estimate(self):
        # c = 0.5/t = 5e-308 times a normal M_0.25(15): c times M's
        # estimate underflows, and the product's rounding to the subnormal
        # grid is what the estimate covers; the log form agrees
        t = 1e307
        got = greens.green_density_result(greens.GreenSpec(2.0, 0.5),
                                          1.5e308, t)
        (want,), _, _ = greens._log_form(0.25, np.array([1.5e308]),
                                         math.log(0.5) - math.log(t),
                                         -math.log(t))
        assert 0.0 < got.value < sys.float_info.min
        assert got.abs_err_estimate >= math.ulp(0.0)
        assert abs(got.value - want) <= got.abs_err_estimate


def _cli(tmp, *argv, config=None):
    """A subcommand through its parser and function, without main's
    handler, so that its error propagates; config is the text of a
    --config file."""
    if config is not None:
        (tmp / "cfg.json").write_text(config)
        argv += ("--config", str(tmp / "cfg.json"))
    args = cli.build_parser().parse_args(argv)
    if args.config:
        cli._read_config(args)
    return args.fn(args)


_GRID = ("--xmin", "0", "--xmax", "1", "--step", "0.5")
_SOLVE = ("solve", "--alpha", "1", "--beta", "0.5", "--t-end", "0.1")

# raises that the rest of the suite does not reach, found by running it
# under `python -m trace --count --missing`: (error, message, call)
_UNREACHED = {
    "cli-unparsable-params": (
        DomainError, "numeric list", lambda tmp: _cli(
            tmp, "tabulate", "--function", "mwright", "--params", "0.3,abc",
            *_GRID)),
    "cli-empty-params": (
        DomainError, "empty parameter list", lambda tmp: _cli(
            tmp, "tabulate", "--function", "mwright", "--params", ",",
            *_GRID)),
    "cli-empty-grid": (
        DomainError, "empty x grid", lambda tmp: _cli(
            tmp, "tabulate", "--function", "mwright", "--params", "0.3",
            "--xmin", "1", "--xmax", "0", "--step", "0.5")),
    "cli-even-nx": (
        DomainError, "odd nx", lambda tmp: _cli(tmp, *_SOLVE, "--nx", "400")),
    "cli-config-not-an-object": (
        DomainError, "JSON object", lambda tmp: _cli(
            tmp, *_SOLVE, config='[{"nt": 20}]')),
    "ggbm-empty-times": (
        InvalidArgument, "non-empty 1-d",
        lambda tmp: ggbm.CovSpec(1.0, 0.5, [])),
    "ggbm-2d-times": (
        InvalidArgument, "non-empty 1-d",
        lambda tmp: ggbm.CovSpec(1.0, 0.5, [[0.5, 1.0]])),
    "ggbm-near-duplicate-times": (
        NotPositiveDefinite, "factorization",
        lambda tmp: ggbm.covariance_matrix(
            ggbm.CovSpec(1.9, 0.5, [1.0, 1.0 + 1e-12]))),
    "ggbm-mixing-beta": (
        InvalidOrder, "beta",
        lambda tmp: ggbm.sample_mixing_lambda(1.5, np.random.default_rng(0))),
    "ggbm-no-paths": (
        InvalidArgument, "n_paths",
        lambda tmp: ggbm.sample_paths(ggbm.CovSpec(1.0, 0.5, [1.0]), 0, 0)),
    "greens-spec-k": (
        InvalidArgument, "coefficient",
        lambda tmp: greens.GreenSpec(1.0, 0.5, 0.0)),
    "greens-drift-beta": (
        InvalidArgument, "beta", lambda tmp: greens.DriftSpec(0.0)),
    "greens-stable-form-x": (
        InvalidArgument, "x > 0",
        lambda tmp: greens.drift_green_stable_form(_DRIFT, 0.0, 1.0)),
    "oracles-m2-x": (
        InvalidArgument, "x must be >= 0",
        lambda tmp: oracles.m2(0.5, -1.0, 1.0)),
    "oracles-subordination-orders": (
        InvalidOrder, "orders",
        lambda tmp: oracles.subordination_check(0.5, 1.0, 1.0, 1.0)),
    "specfun-aux-index": (
        InvalidOrder, "auxiliary order", lambda tmp: specfun.AuxIndex(1.5)),
    "specfun-series-tol": (
        InvalidArgument, "tol", lambda tmp: specfun.wright_series(
            specfun.WrightIndex(0.5, 1.0), 1.0, 0.0)),
    "specfun-values-tol": (
        InvalidArgument, "tol",
        lambda tmp: specfun.m_wright_values(0.5, [1.0], 0.0)),
    "specfun-asymptotic-order": (
        InvalidOrder, "0 < nu < 1",
        lambda tmp: specfun.m_wright_asymptotic(1.0, 1.0)),
    "specfun-asymptotic-x": (
        NegativeArgument, "x > 0",
        lambda tmp: specfun.m_wright_asymptotic(0.5, 0.0)),
    "specfun-crossover-order": (
        InvalidOrder, "0 < nu < 1", lambda tmp: specfun.crossover_radius(1.0)),
    "specfun-f-wright-x": (
        NegativeArgument, ">= 0", lambda tmp: specfun.f_wright(0.5, -1.0)),
    "specfun-ode-step": (
        InvalidArgument, "step",
        lambda tmp: specfun.m_wright_ode_residual(2, 1.0, 0.0)),
}


@pytest.mark.parametrize("name", list(_UNREACHED))
def test_named_error(tmp_path, name):
    error, message, call = _UNREACHED[name]
    with pytest.raises(error, match=message):
        call(tmp_path)
