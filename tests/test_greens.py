"""Green-function and Volterra-solver tests."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from mwright import greens, oracles, specfun
from mwright.errors import (
    CFLViolation,
    InvalidArgument,
    InvalidTime,
    NearSingularOrder,
    SpecMismatch,
)
from mwright.fraccalc import _prod_trap_pieces
from mwright.gridfn import GridFunction
from mwright.verification import _convolve_green
from scipy.linalg import cho_solve_banded, cholesky_banded


def _per_step_volterra(u0, spec, t_end, nt):
    """Reference march: one product with the whole history and one banded
    Cholesky solve per step, the textbook form of solve_volterra's loop."""
    dsig = t_end ** (spec.alpha / spec.beta) / nt
    p0, p1 = _prod_trap_pieces(spec.beta, nt)
    ap = p0 - p1
    coef = spec.k * dsig ** spec.beta / math.gamma(spec.beta)
    dx = u0.spacing
    nx = len(u0)
    inner = slice(1, nx - 1)
    v0 = u0.ys.copy()
    v0[0] = v0[-1] = 0.0
    c = coef * p1[1] / (dx * dx)
    m = nx - 2
    ab = np.zeros((2, m))
    ab[0, 1:] = -c
    ab[1, :] = 1.0 + 2.0 * c
    chol = cholesky_banded(ab, lower=False)

    def d2(u_inner):
        full = np.zeros(nx)
        full[inner] = u_inner
        return (full[:-2] - 2.0 * full[1:-1] + full[2:]) / (dx * dx)

    hist = np.empty((nt + 1, m))
    u = v0[inner].copy()
    hist[0] = d2(u)
    for n in range(1, nt + 1):
        w_row = np.empty(n)
        w_row[0] = ap[n]
        if n > 1:
            w_row[1:] = ap[n - 1:0:-1] + p1[n:1:-1]
        u = cho_solve_banded((chol, False),
                             v0[inner] + coef * (w_row @ hist[:n]))
        hist[n] = d2(u)
    out = np.zeros(nx)
    out[inner] = u
    return out


class TestGreenDensity:
    def test_standard_diffusion_origin(self):
        spec = greens.GreenSpec(1.0, 1.0, 1.0)
        assert_allclose(greens.green_density(spec, 0.0, 1.0),
                        0.28209479177387814347, rtol=1e-14)

    def test_standard_diffusion_off_origin(self):
        spec = greens.GreenSpec(1.0, 1.0, 1.0)
        assert_allclose(greens.green_density(spec, 2.0, 1.0),
                        0.10377687435514867584, rtol=1e-14)

    def test_stretched_gaussian(self):
        spec = greens.GreenSpec(0.5, 1.0, 1.0)
        assert_allclose(greens.green_density(spec, 0.0, 4.0),
                        0.19947114020071633897, rtol=1e-14)

    def test_grey_case_is_quarter_order_profile(self):
        spec = greens.GreenSpec(0.5, 0.5, 1.0)
        want = 0.5 * specfun.m_wright(0.25, 1.0).value
        assert_allclose(greens.green_density(spec, 1.0, 1.0), want,
                        rtol=1e-13)

    def test_symmetry_and_time_validation(self):
        spec = greens.GreenSpec(1.2, 0.8, 2.0)
        assert greens.green_density(spec, -1.3, 0.7) == greens.green_density(
            spec, 1.3, 0.7)
        with pytest.raises(InvalidTime):
            greens.green_density(spec, 0.0, 0.0)

    def test_spec_validation_and_regimes(self):
        with pytest.raises(InvalidArgument):
            greens.GreenSpec(2.5, 1.0, 1.0)
        with pytest.raises(InvalidArgument):
            greens.GreenSpec(1.0, 0.0, 1.0)
        assert greens.GreenSpec(0.5, 0.5).regime == "slow"
        assert greens.GreenSpec(1.0, 0.5).regime == "normal"
        assert greens.GreenSpec(1.5, 1.0).regime == "fast"
        assert greens.GreenSpec(1.5, 1.0).hurst == 0.75

    def test_self_similarity(self):
        spec = greens.GreenSpec(1.4, 0.6, 1.0)
        h = spec.hurst
        for x in (0.0, 0.7, 2.1):
            for t in (0.3, 2.5):
                lhs = greens.green_density(spec, x, t)
                rhs = t ** (-h) * greens.green_density(spec, x * t ** (-h),
                                                       1.0)
                assert_allclose(lhs, rhs, atol=1e-12)


class TestVarianceLaw:
    def test_normal(self):
        assert greens.variance_law(greens.GreenSpec(1.0, 1.0, 1.0), 3.0) \
            == pytest.approx(6.0, rel=1e-14)

    def test_time_fractional(self):
        assert_allclose(greens.variance_law(greens.GreenSpec(0.5, 0.5, 1.0),
                                            1.0),
                        2.2567583341910251478, rtol=1e-14)

    def test_general(self):
        # (2/Gamma(1.7)) * 2 * 2^1.5, reference Gamma arithmetic
        assert_allclose(greens.variance_law(greens.GreenSpec(1.5, 0.7, 2.0),
                                            2.0),
                        12.451272535408724406, rtol=1e-13)

    def test_matches_quadrature_second_moment(self):
        spec = greens.GreenSpec(1.2, 0.6, 1.0)
        t = 0.9
        xs_scale = math.sqrt(spec.k) * t ** spec.hurst

        m2 = oracles.mellin_numeric(
            lambda r: specfun.m_wright_values(0.3, r), 3.0, tol=1e-10,
            tail_bound=specfun.m_wright_envelope(0.3))
        got = m2 * xs_scale ** 2
        assert_allclose(got, greens.variance_law(spec, t), rtol=1e-7)


class TestFourierRoute:
    def test_requires_reduction(self):
        with pytest.raises(SpecMismatch):
            greens.green_fourier(greens.GreenSpec(1.0, 0.5, 1.0), 1.0, 1.0)
        with pytest.raises(SpecMismatch):
            greens.green_fourier(greens.GreenSpec(0.5, 0.5, 2.0), 1.0, 1.0)

    def test_normalization_at_zero_frequency(self):
        assert greens.green_fourier(greens.GreenSpec(0.7, 0.7, 1.0), 0.0,
                                    2.0) == 1.0

    def test_classical_heat_kernel(self):
        assert_allclose(greens.green_fourier(greens.GreenSpec(1.0, 1.0, 1.0),
                                             1.0, 1.0),
                        math.exp(-1.0), rtol=1e-14)

    def test_half_order(self):
        assert_allclose(greens.green_fourier(greens.GreenSpec(0.5, 0.5, 1.0),
                                             1.0, 1.0),
                        0.42758357615580700441, rtol=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_agrees_with_x_domain_route(self, beta, kappa):
        spec = greens.GreenSpec(beta, beta, 1.0)
        t = 1.0
        nu = 0.5 * beta
        s2 = greens.green_fourier(spec, kappa, t)
        s1 = 2.0 * oracles.fourier_cosine_numeric(
            lambda xv: greens.green_density_values(spec, xv, t), kappa,
            tol=1e-8,
            tail_bound=lambda r: specfun.m_wright_envelope(nu)(
                r / t ** nu) / t ** nu)
        assert abs(s1 - s2) < 1e-6


class TestDrift:
    def test_origin(self):
        assert_allclose(greens.drift_green(greens.DriftSpec(0.5), 0.0, 1.0),
                        0.56418958354775628695, rtol=1e-14)

    def test_one_sided(self):
        assert greens.drift_green(greens.DriftSpec(0.3), -1.0, 1.0) == 0.0

    def test_near_singular_rejected(self):
        with pytest.raises(NearSingularOrder):
            greens.drift_green(greens.DriftSpec(1.0), 1.0, 1.0)

    @pytest.mark.parametrize("beta,t", [(0.3, 1.0), (0.75, 2.0), (0.9, 0.5)])
    def test_values_match_scalar(self, beta, t):
        # the grid crosses x = 0 and the crossover radius of M_beta
        spec = greens.DriftSpec(beta)
        edge = 2.0 * specfun.crossover_radius(beta) * t ** beta
        xs = np.linspace(-0.25 * edge, edge, 57)
        vals = greens.drift_green_values(spec, xs, t)
        assert vals.shape == xs.shape
        for x, v in zip(xs, vals):
            assert v == greens.drift_green(spec, float(x), t)
        assert np.all(vals[xs < 0.0] == 0.0)

    def test_values_validate_like_scalar(self):
        with pytest.raises(NearSingularOrder):
            greens.drift_green_values(greens.DriftSpec(1.0), [1.0], 1.0)
        with pytest.raises(InvalidTime):
            greens.drift_green_values(greens.DriftSpec(0.5), [1.0], 0.0)
        with pytest.raises(InvalidArgument):
            greens.drift_green_values(greens.DriftSpec(0.5), [1.0, np.nan],
                                      1.0)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("x,t", [(1.0, 1.0), (4.0, 1.0), (0.5, 2.0)])
    def test_stable_form_equivalence(self, beta, x, t):
        spec = greens.DriftSpec(beta)
        a = greens.drift_green(spec, x, t)
        b = greens.drift_green_stable_form(spec, x, t)
        assert abs(a - b) <= 1e-10 * max(a, 1e-30)

    def test_mean(self):
        assert_allclose(greens.drift_mean(greens.DriftSpec(0.5), 1.0),
                        1.1283791670955125739, rtol=1e-14)

    def test_mean_matches_quadrature(self):
        beta = 0.5
        spec = greens.DriftSpec(beta)
        got = oracles.laplace_numeric(
            lambda x: np.asarray(x) * np.array(
                [greens.drift_green(spec, xi, 1.0) for xi in np.atleast_1d(x)]),
            1e-9, tol=1e-8,
            tail_bound=lambda r: r * specfun.m_wright_envelope(beta)(r))
        assert_allclose(got, greens.drift_mean(spec, 1.0), atol=1e-6)


class TestVolterra:
    def setup_method(self):
        self.xs = np.linspace(-8.0, 8.0, 401)

    def gaussian(self, std):
        ys = np.exp(-0.5 * (self.xs / std) ** 2) / (
            std * math.sqrt(2.0 * math.pi))
        return GridFunction(self.xs, ys)

    def test_empty_integral_returns_initial_data(self):
        spec = greens.GreenSpec(1.0, 1.0, 1.0)
        out = greens.solve_volterra(self.gaussian(0.5), spec, 1e-300, 16, 7.0)
        assert np.max(np.abs(out.ys[1:-1] - self.gaussian(0.5).ys[1:-1])) \
            < 1e-12

    def test_classical_heat_equation(self):
        spec = greens.GreenSpec(1.0, 1.0, 1.0)
        u0 = self.gaussian(0.2)
        got = greens.solve_volterra(u0, spec, 0.5, 64, 7.0)
        exact = _convolve_green(u0, spec, 0.5)
        l1 = np.trapezoid(np.abs(got.ys - exact), self.xs)
        assert l1 < 5e-4

    def test_time_fractional_variance_additivity(self):
        spec = greens.GreenSpec(0.5, 0.5, 1.0)
        u0 = self.gaussian(0.3)
        t_end = 0.5
        got = greens.solve_volterra(u0, spec, t_end, 128, 7.0)
        dx = self.xs[1] - self.xs[0]
        mass = got.ys.sum() * dx
        var = (self.xs ** 2 * got.ys).sum() * dx / mass
        want = 0.3 ** 2 + greens.variance_law(spec, t_end)
        assert abs(var - want) / want < 0.01

    def test_stretched_time_variance(self):
        # beta = 1, alpha != 1: plain kernel in the stretched clock
        spec = greens.GreenSpec(1.5, 1.0, 1.0)
        u0 = self.gaussian(0.3)
        t_end = 0.6
        got = greens.solve_volterra(u0, spec, t_end, 64, 7.0)
        dx = self.xs[1] - self.xs[0]
        mass = got.ys.sum() * dx
        var = (self.xs ** 2 * got.ys).sum() * dx / mass
        want = 0.3 ** 2 + greens.variance_law(spec, t_end)
        assert abs(var - want) / want < 0.01

    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.5), (1.2, 0.6),
                                            (0.8, 0.4)])
    def test_refinement_improves(self, alpha, beta):
        # covers the fully general stretched-fractional kernel, not just
        # the alpha = beta and beta = 1 reductions
        spec = greens.GreenSpec(alpha, beta, 1.0)
        errs = []
        for nx, nt in ((201, 48), (401, 96)):
            xs = np.linspace(-10.0, 10.0, nx)
            std = 5 * (xs[1] - xs[0])
            u0 = GridFunction(xs, np.exp(-0.5 * (xs / std) ** 2)
                              / (std * math.sqrt(2 * math.pi)))
            got = greens.solve_volterra(u0, spec, 0.8, nt, 9.0)
            exact = _convolve_green(u0, spec, 0.8)
            errs.append(np.trapezoid(np.abs(got.ys - exact), xs))
        assert errs[1] < 0.5 * errs[0]
        assert errs[1] < 1e-3

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (0.8, 0.4),
                                            (1.5, 0.35)])
    @pytest.mark.parametrize("nt", [16, 33, 100])
    @pytest.mark.parametrize("nx", [3, 201])
    def test_blocked_history_matches_per_step_loop(self, alpha, beta, nt,
                                                   nx):
        # 33 and 100 end in a partial block of greens.HISTORY_BLOCK = 32
        # steps; nx = 3 leaves a single interior node
        spec = greens.GreenSpec(alpha, beta, 1.0)
        xs = np.linspace(-4.0, 4.0, nx)
        u0 = GridFunction(xs, np.exp(-0.5 * (xs / 0.4) ** 2))
        got = greens.solve_volterra(u0, spec, 0.7, nt, 4.0)
        want = _per_step_volterra(u0, spec, 0.7, nt)
        assert np.max(np.abs(got.ys - want)) <= 1e-12 * np.max(np.abs(want))
        assert got.ys[0] == got.ys[-1] == 0.0

    def test_growth_guard_still_raises(self, monkeypatch):
        # a solve that returns ten times its right-hand side must trip the
        # guard on the first step
        real = greens.dpttrs
        monkeypatch.setattr(greens, "dpttrs",
                            lambda d, e, b: (10.0 * real(d, e, b)[0], 0))
        spec = greens.GreenSpec(1.0, 1.0, 1.0)
        with pytest.raises(CFLViolation, match="step 1"):
            greens.solve_volterra(self.gaussian(0.5), spec, 1e-300, 16, 7.0)

    def test_domain_validation(self):
        spec = greens.GreenSpec(1.0, 1.0, 1.0)
        with pytest.raises(InvalidArgument):
            greens.solve_volterra(self.gaussian(0.5), spec, 0.5, 64, 20.0)
        with pytest.raises(InvalidArgument):
            greens.solve_volterra(self.gaussian(0.5), spec, 0.5, 8, 7.0)
        with pytest.raises(InvalidTime):
            greens.solve_volterra(self.gaussian(0.5), spec, -1.0, 64, 7.0)

    def test_grid_without_interior_node(self, monkeypatch):
        # rejected before any work: the product-quadrature weights are
        # never built
        monkeypatch.setattr(greens, "_prod_trap_pieces", None)
        spec = greens.GreenSpec(1.0, 1.0, 1.0)
        with pytest.raises(InvalidArgument, match="interior"):
            greens.solve_volterra(GridFunction([-1.0, 1.0], [0.0, 0.0]),
                                  spec, 0.5, 16, 1.0)
