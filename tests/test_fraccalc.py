"""Fractional-calculus operator tests: closed forms and grid schemes."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gamma, rgamma

from mwright import fraccalc, specfun
from mwright.errors import (
    InvalidArgument,
    InvalidExponent,
    NonUniformGrid,
    UnsupportedOrder,
)
from mwright.gridfn import GridFunction

SQRT_PI = math.sqrt(math.pi)


class TestPowerLaws:
    def test_integral_classical(self):
        # J^1 t at t=2 -> t^2/2
        assert fraccalc.rl_integral_power(1.0, 1.0, 2.0) == pytest.approx(2.0)

    def test_integral_identity_order_zero(self):
        assert fraccalc.rl_integral_power(0.0, 3.0, 1.7) == pytest.approx(
            1.7 ** 3, rel=1e-14)

    def test_half_integral_of_one(self):
        assert_allclose(fraccalc.rl_integral_power(0.5, 0.0, 1.0),
                        2.0 / SQRT_PI, rtol=1e-14)

    def test_half_derivative_of_sqrt(self):
        assert_allclose(fraccalc.rl_derivative_power(0.5, 0.5, 1.0),
                        SQRT_PI / 2.0, rtol=1e-14)

    def test_rl_derivative_of_constant_nonzero(self):
        assert_allclose(fraccalc.rl_derivative_power(0.5, 0.0, 1.0),
                        1.0 / SQRT_PI, rtol=1e-14)

    def test_integer_derivative_annihilates(self):
        assert fraccalc.rl_derivative_power(2.0, 1.0, 5.0) == 0.0

    def test_exponent_validation(self):
        with pytest.raises(InvalidExponent):
            fraccalc.rl_integral_power(0.5, -1.0, 1.0)

    def test_caputo_constant_is_zero(self):
        assert fraccalc.caputo_power(0.5, 0.0, 1.0) == 0.0

    def test_caputo_linear(self):
        assert_allclose(fraccalc.caputo_power(0.5, 1.0, 1.0), 2.0 / SQRT_PI,
                        rtol=1e-14)

    def test_caputo_quadratic(self):
        # Gamma(3)/Gamma(5/2) * 2^(3/2); closed-form Gamma arithmetic
        assert_allclose(fraccalc.caputo_power(0.5, 2.0, 2.0),
                        4.2553843242819485647, rtol=1e-13)

    def test_caputo_rejects_undefined_taylor_subtraction(self):
        # m = 2 and non-integer gamma <= m-1: t^0.3 has no order-1 Taylor
        # subtraction
        with pytest.raises(InvalidExponent):
            fraccalc.caputo_power(1.5, 0.3, 1.0)

    def test_frac_order_ceiling(self):
        assert fraccalc.FracOrder(0.5).m == 1
        assert fraccalc.FracOrder(1.0).m == 1
        assert fraccalc.FracOrder(1.5).m == 2


NAN, INF = math.nan, math.inf
_UNIT = GridFunction(np.linspace(0.0, 1.0, 5), np.ones(5))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call, args, error", [
    (fraccalc.rl_integral_power, (NAN, 1.0, 1.0), InvalidExponent),
    (fraccalc.rl_derivative_power, (NAN, 1.0, 1.0), InvalidExponent),
    (fraccalc.rl_integral_power, (0.5, INF, 1.0), InvalidExponent),
    (fraccalc.rl_integral_power, (INF, 1.0, 2.0), InvalidExponent),
    (fraccalc.rl_integral_power, (0.5, 1.0, INF), InvalidExponent),
    (fraccalc.rl_derivative_power, (0.5, 1.0, INF), InvalidExponent),
    (fraccalc.caputo_power, (0.5, 1.0, INF), InvalidExponent),
    (fraccalc.caputo_power, (0.5, NAN, 1.0), InvalidExponent),
    (fraccalc.caputo_power, (INF, 1.0, 1.0), InvalidExponent),
    (fraccalc.FracOrder, (INF,), InvalidExponent),
    (fraccalc.rl_integral_grid, (_UNIT, INF), InvalidExponent),
    (specfun.m_wright_asymptotic, (0.5, NAN), InvalidArgument),
])
def test_non_finite_inputs_raise(call, args, error):
    # NaN and inf fail every guard: no NaN or inf result, no RuntimeWarning
    with pytest.raises(error):
        call(*args)


class TestAlgebraicIdentities:
    def test_semigroup_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            mu, nu = rng.uniform(0.1, 1.5, 2)
            gam = rng.uniform(-0.5, 3.0)
            t = rng.uniform(0.2, 3.0)
            coef = fraccalc.rl_integral_power(nu, gam, t) / t ** (gam + nu)
            lhs = coef * fraccalc.rl_integral_power(mu, gam + nu, t)
            rhs = fraccalc.rl_integral_power(mu + nu, gam, t)
            assert_allclose(lhs, rhs, rtol=1e-12)

    def test_left_inverse_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            mu = rng.uniform(0.1, 1.9)
            gam = rng.uniform(-0.5, 3.0)
            t = rng.uniform(0.2, 3.0)
            coef = fraccalc.rl_integral_power(mu, gam, t) / t ** (gam + mu)
            back = coef * fraccalc.rl_derivative_power(mu, gam + mu, t)
            assert_allclose(back, t ** gam, rtol=1e-12)

    def test_rl_minus_caputo_gap(self):
        # for f = c + t^gamma the gap is c t^(-mu)/Gamma(1-mu)
        for (c, mu, gam, t) in ((2.0, 0.5, 1.5, 0.7), (-1.0, 0.3, 2.0, 2.0)):
            rl = (c * fraccalc.rl_derivative_power(mu, 0.0, t)
                  + fraccalc.rl_derivative_power(mu, gam, t))
            cap = fraccalc.caputo_power(mu, gam, t)
            assert_allclose(rl - cap, c * t ** (-mu) * rgamma(1.0 - mu),
                            rtol=1e-13)


class TestGridSchemes:
    def test_integral_of_one(self):
        xs = np.linspace(0.0, 1.0, 257)
        out = fraccalc.rl_integral_grid(GridFunction(xs, np.ones_like(xs)),
                                        0.5)
        exact = np.sqrt(xs) * rgamma(1.5)
        assert np.max(np.abs(out.ys - exact)) < 1e-4

    def test_order_one_is_plain_integration(self):
        xs = np.linspace(0.0, 1.0, 129)
        out = fraccalc.rl_integral_grid(GridFunction(xs, xs), 1.0)
        assert np.max(np.abs(out.ys - xs ** 2 / 2)) < 1e-10

    def test_grid_semigroup(self):
        xs = np.linspace(0.0, 1.0, 513)
        f = GridFunction(xs, xs ** 2)
        two_step = fraccalc.rl_integral_grid(
            fraccalc.rl_integral_grid(f, 0.4), 0.3)
        one_step = fraccalc.rl_integral_grid(f, 0.7)
        assert np.max(np.abs(two_step.ys - one_step.ys)) < 1e-4

    def test_caputo_of_linear(self):
        xs = np.linspace(0.0, 1.0, 257)
        out = fraccalc.caputo_derivative_grid(GridFunction(xs, xs), 0.0, 0.5)
        exact = 2.0 * np.sqrt(xs) / SQRT_PI
        assert np.max(np.abs(out.ys - exact)) < 2e-3

    def test_caputo_of_constant_vanishes(self):
        xs = np.linspace(0.0, 1.0, 65)
        out = fraccalc.caputo_derivative_grid(
            GridFunction(xs, np.full_like(xs, 4.2)), 4.2, 0.5)
        assert np.max(np.abs(out.ys)) < 1e-12

    def test_caputo_quadratic_vs_closed_form(self):
        xs = np.linspace(0.0, 1.0, 257)
        out = fraccalc.caputo_derivative_grid(GridFunction(xs, xs ** 2),
                                              0.0, 0.5)
        exact = np.array([fraccalc.caputo_power(0.5, 2.0, t) if t > 0
                          else 0.0 for t in xs])
        assert np.max(np.abs(out.ys - exact)) < 5e-3

    def test_caputo_order_restriction(self):
        xs = np.linspace(0.0, 1.0, 33)
        with pytest.raises(UnsupportedOrder):
            fraccalc.caputo_derivative_grid(GridFunction(xs, xs), 0.0, 1.2)

    def test_nonuniform_grid_rejected(self):
        xs = np.array([0.0, 0.1, 0.3, 0.35, 0.7])
        with pytest.raises(NonUniformGrid):
            fraccalc.rl_integral_grid(GridFunction(xs, xs), 0.5)

    def test_grid_must_start_at_zero(self):
        xs = np.linspace(1.0, 2.0, 33)
        with pytest.raises(NonUniformGrid):
            fraccalc.caputo_derivative_grid(GridFunction(xs, xs), 1.0, 0.5)

    @pytest.mark.parametrize("scheme,mu,expect", [("integral", 0.5, 1.9),
                                                  ("caputo", 0.45, 1.5)])
    def test_convergence_order(self, scheme, mu, expect):
        errs = []
        for n in (128, 256, 512, 1024):
            g = np.linspace(0.0, 1.0, n + 1)
            if scheme == "integral":
                got = fraccalc.rl_integral_grid(GridFunction(g, g * g), mu).ys
                ex = np.array([fraccalc.rl_integral_power(mu, 2.0, t)
                               if t > 0 else 0.0 for t in g])
            else:
                got = fraccalc.caputo_derivative_grid(
                    GridFunction(g, g * g), 0.0, mu).ys
                ex = np.array([fraccalc.caputo_power(mu, 2.0, t)
                               if t > 0 else 0.0 for t in g])
            errs.append(np.max(np.abs(got - ex)))
        slope = -np.polyfit(np.log([128, 256, 512, 1024]), np.log(errs), 1)[0]
        assert slope >= expect
