"""Cross-module input contracts: every entry point that takes a time, the
mended non-finite inputs, and raises that no other test reaches.

Each case expects a named ValueError subclass, with RuntimeWarnings as
errors, so that NaN or inf never comes back as a plausible number.
"""

import math

import numpy as np
import pytest

from mwright import cli, fraccalc, ggbm, greens, oracles, quadrature, specfun
from mwright.errors import (
    DomainError,
    InvalidArgument,
    InvalidOrder,
    InvalidTime,
    NegativeArgument,
    NotPositiveDefinite,
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

    @pytest.mark.parametrize("f0", [math.nan, math.inf, -math.inf])
    def test_caputo_start_value_must_be_finite(self, f0):
        g = GridFunction(np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 11))
        with pytest.raises(InvalidArgument, match="f0"):
            fraccalc.caputo_derivative_grid(g, f0, 0.5)

    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (1.0, 1.0)])
    def test_adaptive_needs_an_increasing_interval(self, a, b):
        with pytest.raises(InvalidArgument, match="b > a"):
            quadrature.adaptive(np.cos, a, b)


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
