"""Adaptive Gauss-Kronrod integrator tests."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mwright import quadrature
from mwright.errors import QuadratureFailure


def test_polynomial_exact():
    # K15 integrates degree <= 22 exactly; a single panel suffices
    val, err = quadrature.kronrod_panel(lambda x: x ** 8 - 3 * x ** 2, 0.0, 2.0)
    assert_allclose(val, 2.0 ** 9 / 9 - 8.0, rtol=1e-14)


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
def test_exponential_family(a):
    val, err = quadrature.adaptive(lambda x: np.exp(-a * x), 0.0, 40.0 / a,
                                   tol=1e-12)
    assert_allclose(val, 1.0 / a, rtol=1e-11)
    assert err < 1e-11


def test_observed_order_matches_rule():
    # fixed uniform-panel estimates of int_0^48 exp(-x): halving the panel
    # width must shrink the error at the rule's nominal rate (~h^15 for
    # the embedded pair on smooth integrands)
    f = lambda x: np.exp(-np.asarray(x))
    exact = 1.0 - math.exp(-48.0)

    def err_with_panels(n):
        edges = np.linspace(0.0, 48.0, n + 1)
        total = sum(quadrature.kronrod_panel(f, a, b)[0]
                    for a, b in zip(edges[:-1], edges[1:]))
        return abs(total - exact)

    e1, e2 = err_with_panels(1), err_with_panels(2)
    assert e2 > 1e-14  # finer level still resolvable, not machine noise
    order = math.log2(e1 / e2)
    assert order > 10.0


def test_relative_tolerance_small_scale():
    # tiny integrands converge in relative terms
    scale = 1e-120
    val, err = quadrature.adaptive(lambda x: scale * np.exp(-x), 0.0, 30.0,
                                   tol=1e-300, rtol=1e-10)
    assert_allclose(val, scale, rtol=1e-9)


def test_budget_exhaustion_raises():
    # an interior algebraic singularity cannot be resolved in 8 panels
    def f(x):
        x = np.asarray(x)
        return 1.0 / np.sqrt(np.abs(x - 0.37) + 1e-300)

    with pytest.raises(QuadratureFailure):
        quadrature.adaptive(f, 0.0, 1.0, tol=1e-14, limit=8)


def test_oscillatory_panel_cap():
    # int_0^inf cos(kx) e^-x dx = 1/(1+k^2)
    k = 7.0
    val, _ = quadrature.integrate_to_inf(
        lambda x: np.cos(k * np.asarray(x)) * np.exp(-np.asarray(x)),
        0.0, tol=1e-11, tail_bound=lambda r: math.exp(-r),
        max_panel_width=math.pi / (4 * k))
    assert_allclose(val, 1.0 / (1.0 + k * k), atol=1e-10)


def test_truncation_radius():
    r = quadrature.truncation_radius(lambda x: math.exp(-x), 0.0, 1e-8)
    assert math.exp(-r) < 1e-9
    with pytest.raises(QuadratureFailure):
        quadrature.truncation_radius(lambda x: 1.0 / (1.0 + x), 0.0, 1e-8,
                                     r_max=1e6)


def test_integrate_to_inf_probes_tail_when_unspecified():
    val, _ = quadrature.integrate_to_inf(
        lambda x: np.exp(-2.0 * np.asarray(x)), 0.0, tol=1e-10)
    assert_allclose(val, 0.5, atol=1e-9)


class TestAdaptiveRows:
    rates = np.array([0.5, 1.0, 3.0, 40.0, 300.0])

    def f(self, x, rows):
        return np.exp(-self.rates[rows, None] * x)

    def test_rows_match_exact_within_estimate(self):
        pts = np.outer(1.0 / self.rates, [0.5, 1.0, 4.0])
        vals, errs = quadrature.adaptive_rows(self.f, 0.0, 10.0, pts,
                                              tol=1e-13, rtol=1e-12)
        exact = -np.expm1(-10.0 * self.rates) / self.rates
        assert np.all(np.abs(vals - exact) <= errs)
        assert np.all(errs <= np.maximum(1e-13, 1e-12 * exact))

    def test_row_result_independent_of_its_neighbours(self):
        pts = np.full((len(self.rates), 1), 0.1)
        together = quadrature.adaptive_rows(self.f, 0.0, 10.0, pts,
                                            tol=1e-12)
        for i in range(len(self.rates)):
            alone = quadrature.adaptive_rows(
                lambda x, rows: self.f(x, rows + i), 0.0, 10.0, pts[i:i + 1],
                tol=1e-12)
            assert alone[0][0] == together[0][i]
            assert alone[1][0] == together[1][i]
