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
    ResultOverflow,
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

    def test_gaussian_far_out_is_zero(self):
        # M_(1/2) at r = 1e300, past where r * r overflows
        spec = greens.GreenSpec(1.0, 1.0, 1.0)
        assert greens.green_density(spec, 1e300, 1.0) == 0.0

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


# c M_nu(a x) where a factor c > 1 lifts an M_nu value below 1e-280 (a
# subnormal, or 0 at 250e-300) into the double range, with 40 digits of
# Zolotarev's integral at 60 digits (the series agrees to 1e-57)
_LIFTED = [
    ("drift", greens.DriftSpec(0.8540688856588833), 6.00098267282074e-43,
     7.283525394423242e-51, "3.538769534740328434999386728085048243840e-278"),
    ("green", greens.GreenSpec(2.0, 0.5), 239e-300, 1e-300,
     "2.705176450891729790503510799022382706947e-6"),
    ("green", greens.GreenSpec(2.0, 0.5), 250e-300, 1e-300,
     "4.051481947063147002581660849883105666148e-25"),
]


class TestLiftedUnderflow:
    @pytest.mark.parametrize("kind, spec, x, t, ref", _LIFTED)
    def test_result_within_its_estimate(self, kind, spec, x, t, ref):
        # the factor times M's 1e-300 floor, or its subnormal digits, gave
        # estimates 1.9e20 and 1.8e5 times the value, and 0 for 4e-25
        result = {"green": greens.green_density_result,
                  "drift": greens.drift_green_result}[kind]
        got = result(spec, x, t)
        assert abs(got.value - float(ref)) <= got.abs_err_estimate
        assert got.abs_err_estimate <= 1e-8 * got.value

    def test_stable_form_keeps_the_subnormal_digits(self):
        # M_beta(r^-beta) is subnormal here; its log from the pieces keeps
        # the digits that the log of the subnormal value lost (4e-4)
        _, spec, x, t, ref = _LIFTED[0]
        got = greens.drift_green_stable_form(spec, x, t)
        assert abs(got - float(ref)) <= 1e-9 * float(ref)


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
    @pytest.mark.parametrize("nx", [3, 201, 202, 1601])
    def test_blocked_history_matches_per_step_loop(self, alpha, beta, nt,
                                                   nx):
        # 33 and 100 end in a partial block of greens.HISTORY_BLOCK = 32
        # steps; nx = 3 leaves a single interior node, and the sine
        # transform's FFT lengths 2(nx-1) are 4, 400, 402 and 3200. At
        # nx = 1601 the gap reaches 4e-13, the reference's own rounding in
        # its stiff tridiagonal solves (the sine march is within 1e-15 of
        # a long-double nodal march there)
        spec = greens.GreenSpec(alpha, beta, 1.0)
        xs = np.linspace(-4.0, 4.0, nx)
        u0 = GridFunction(xs, np.exp(-0.5 * (xs / 0.4) ** 2))
        got = greens.solve_volterra(u0, spec, 0.7, nt, 4.0)
        want = _per_step_volterra(u0, spec, 0.7, nt)
        assert np.max(np.abs(got.ys - want)) <= 1e-12 * np.max(np.abs(want))
        assert got.ys[0] == got.ys[-1] == 0.0

    @staticmethod
    def _step_one_growth(monkeypatch, growth, nt, t_end):
        """Give every sine mode of a beta = 1, k = 1 march one eigenvalue
        that scales step 1 by growth: (1 + x ap[1]) / (1 - x w_diag) with
        x = -coef * eigenvalue; later steps grow further."""
        p0, p1 = _prod_trap_pieces(1.0, nt)
        x = (growth - 1.0) / (p0[1] - p1[1] + growth * p1[1])
        monkeypatch.setattr(greens, "_sine_eigenvalues",
                            lambda m, dx: np.full(m, -x * nt / t_end))

    def test_growth_guard_still_raises(self, monkeypatch):
        # L2 growth just past five trips the guard on the first step
        self._step_one_growth(monkeypatch, 5.1, 16, 0.5)
        spec = greens.GreenSpec(1.0, 1.0, 1.0)
        with pytest.raises(CFLViolation, match="step 1$"):
            greens.solve_volterra(self.gaussian(0.5), spec, 0.5, 16, 7.0)

    def test_growth_guard_threshold_is_five(self, monkeypatch):
        # 4.9-fold growth passes step 1; a later step trips the guard
        self._step_one_growth(monkeypatch, 4.9, 16, 0.5)
        spec = greens.GreenSpec(1.0, 1.0, 1.0)
        with pytest.raises(CFLViolation, match="step ([2-9]|1[0-6])$"):
            greens.solve_volterra(self.gaussian(0.5), spec, 0.5, 16, 7.0)

    def test_growth_guard_holds_for_a_profile_past_the_square_range(
            self, monkeypatch):
        # 2^600 times the Gaussian: its sum of squares overflows, so a guard
        # formed from it would be inf and never trip
        self._step_one_growth(monkeypatch, 5.1, 16, 0.5)
        spec = greens.GreenSpec(1.0, 1.0, 1.0)
        u0 = GridFunction(self.xs, np.ldexp(self.gaussian(0.5).ys, 600))
        with pytest.raises(CFLViolation, match="step 1$"):
            greens.solve_volterra(u0, spec, 0.5, 16, 7.0)

    @pytest.mark.parametrize("shift", [-800, -600, 600, 1000])
    def test_profile_times_a_power_of_two(self, shift):
        # the march is linear: 2^shift times the Gaussian (every value a
        # normal double) gives 2^shift times its result, bit for bit, also
        # where the profile's squares leave the double range
        spec = greens.GreenSpec(0.8, 0.4, 1.0)
        u0 = self.gaussian(0.5)
        want = greens.solve_volterra(u0, spec, 0.5, 64, 7.0).ys
        scaled = GridFunction(self.xs, np.ldexp(u0.ys, shift))
        got = greens.solve_volterra(scaled, spec, 0.5, 64, 7.0).ys
        np.testing.assert_array_equal(got, np.ldexp(want, shift))

    def test_result_past_the_double_range(self):
        # the largest double on every interior node: the sine transform's
        # round trip lifts some node past it
        xs = np.linspace(-4.0, 4.0, 81)
        ys = np.full(81, np.finfo(float).max)
        ys[0] = ys[-1] = 0.0
        spec = greens.GreenSpec(1.0, 1.0, 1.0)
        with pytest.raises(ResultOverflow, match="double range"):
            greens.solve_volterra(GridFunction(xs, ys), spec, 1e-300, 16,
                                  4.0)

    @pytest.mark.parametrize("halfwidth, t_end", [(1e-300, 0.1),
                                                   (1e-150, 1e6)])
    def test_stiffest_mode_past_the_double_range(self, halfwidth, t_end):
        # (2/dx)^2 overflows at dx = 5e-303; at dx = 5e-153 it is 1.6e305,
        # and the step's factor coef = 3.5e4 takes it past the range.
        # Either way the march would divide inf by inf
        xs = np.linspace(-halfwidth, halfwidth, 401)
        u0 = GridFunction(xs, np.exp(-0.5 * (xs / (5 * (xs[1] - xs[0]))) ** 2))
        spec = greens.GreenSpec(1.0, 0.5, 1.0)
        with np.errstate(all="raise"), pytest.raises(InvalidArgument,
                                                      match="too fine"):
            greens.solve_volterra(u0, spec, t_end, 256, halfwidth)

    def test_domain_validation(self):
        spec = greens.GreenSpec(1.0, 1.0, 1.0)
        with pytest.raises(InvalidArgument):
            greens.solve_volterra(self.gaussian(0.5), spec, 0.5, 64, 20.0)
        with pytest.raises(InvalidArgument):
            greens.solve_volterra(self.gaussian(0.5), spec, 0.5, 8, 7.0)
        with pytest.raises(InvalidTime):
            greens.solve_volterra(self.gaussian(0.5), spec, -1.0, 64, 7.0)
        # 1e20^20 is past the double range
        with pytest.raises(InvalidArgument, match="stretched time"):
            greens.solve_volterra(self.gaussian(0.5),
                                  greens.GreenSpec(2.0, 0.1),
                                  1e20, 64, 7.0)

    def test_grid_without_interior_node(self, monkeypatch):
        # rejected before any work: the product-quadrature weights are
        # never built
        monkeypatch.setattr(greens, "_prod_trap_pieces", None)
        spec = greens.GreenSpec(1.0, 1.0, 1.0)
        with pytest.raises(InvalidArgument, match="interior"):
            greens.solve_volterra(GridFunction([-1.0, 1.0], [0.0, 0.0]),
                                  spec, 0.5, 16, 1.0)


def _profile(kind, xs):
    """A Gaussian, a box, or two spikes of opposite sign on the grid xs."""
    if kind == "gaussian":
        return np.exp(-0.5 * (xs / 0.3) ** 2)
    if kind == "box":
        return np.where(np.abs(xs) <= 1.0, 1.0, 0.0)
    ys = np.zeros_like(xs)
    ys[len(xs) // 3] = 1.0
    ys[len(xs) // 2 + 7] = -2.0
    return ys


# (nx, nt, alpha, beta, t_end, kind) of solves that take the node route;
# the five at alpha = 1, beta 0.8-0.9 have the sizes, times and data of the
# first five _CLOSED_FORM_CASES
_NODE_CASES = [
    (1025, 16, 1.0, 0.9, 1e-4, "gaussian"),
    (1601, 100, 1.0, 0.1, 50.0, "box"),
    (3201, 512, 0.8, 0.99, 0.5, "spike"),
    (1601, 1024, 1.2, 0.6, 5.0, "gaussian"),
    (1025, 512, 1.0, 0.9, 0.5, "spike"),
    (3201, 100, 0.5, 0.99, 50.0, "gaussian"),
    (1601, 512, 1.0, 0.9, 1e-4, "box"),
    (1025, 1024, 0.4, 0.1, 1e-2, "spike"),
    (3201, 16, 2.0, 0.3, 50.0, "box"),
    (1025, 100, 1.0, 0.8, 50.0, "box"),  # at 0.9 the tail does not chop
    (3201, 1024, 1.0, 0.9, 0.1, "gaussian"),
]


class TestRateRoute:
    """solve_volterra's node route: the march on greens._CHEB_RATES
    Chebyshev rates, read at every sine mode, against the mode march, and
    the cases that fall back to the mode march."""

    @staticmethod
    def solve(monkeypatch, nx, nt, spec, t_end, kind="gaussian",
              halfwidth=8.0):
        """The solution by the route solve_volterra picks, and whether that
        was the node route."""
        xs = np.linspace(-halfwidth, halfwidth, nx)
        u0 = GridFunction(xs, _profile(kind, xs))
        taken = []
        route = greens._rate_route

        def spy(*args):
            taken.append(route(*args))
            return taken[-1]

        monkeypatch.setattr(greens, "_rate_route", spy)
        got = greens.solve_volterra(u0, spec, t_end, nt, halfwidth)
        monkeypatch.setattr(greens, "_rate_route", route)
        return u0, got.ys, bool(taken) and taken[0] is not None

    @staticmethod
    def mode_march(monkeypatch, u0, spec, t_end, nt, halfwidth=8.0):
        """The solution by the mode march, which then runs at any beta."""
        for name in ("_rate_route", "_crank_nicolson"):
            monkeypatch.setattr(greens, name, lambda *args: None)
        return greens.solve_volterra(u0, spec, t_end, nt, halfwidth).ys

    @pytest.mark.parametrize("nx, nt, alpha, beta, t_end, kind",
                             _NODE_CASES)
    def test_matches_the_mode_march(self, monkeypatch, nx, nt, alpha, beta,
                                    t_end, kind):
        spec = greens.GreenSpec(alpha, beta, 1.0)
        u0, got, node = self.solve(monkeypatch, nx, nt, spec, t_end, kind)
        assert node
        want = self.mode_march(monkeypatch, u0, spec, t_end, nt)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(u0.ys))
        assert got[0] == got[-1] == 0.0

    @pytest.mark.parametrize("nx, nt, alpha, beta, t_end, kind",
                             _NODE_CASES)
    def test_chopped_sum_matches_the_full_sum(self, monkeypatch, nx, nt,
                                              alpha, beta, t_end, kind):
        # Clenshaw reads the coefficients up to the last one above the
        # chop; the ones it drops bound the difference from all 257
        seen = {}
        coefficients, clenshaw = (specfun._chebyshev_coefficients,
                                  specfun._clenshaw)

        def spy_coefficients(h):
            seen["c"] = coefficients(h)
            return seen["c"]

        def spy_clenshaw(x, c):
            seen["x"], seen["kept"] = x, c
            return clenshaw(x, c)

        monkeypatch.setattr(specfun, "_chebyshev_coefficients",
                            spy_coefficients)
        monkeypatch.setattr(specfun, "_clenshaw", spy_clenshaw)
        spec = greens.GreenSpec(alpha, beta, 1.0)
        assert self.solve(monkeypatch, nx, nt, spec, t_end, kind)[2]
        c, keep = seen["c"], len(seen["kept"])
        above = np.abs(c) > greens._RATE_CHOP * np.max(np.abs(c))
        assert keep == 1 + np.flatnonzero(above)[-1] < len(c)
        assert seen["kept"] == c[:keep].tolist()
        full = clenshaw(seen["x"], c.tolist())
        got = clenshaw(seen["x"], seen["kept"])
        bound = (np.sum(np.abs(c[keep:]))
                 + 4.0 * np.finfo(float).eps * np.max(np.abs(full)))
        assert np.max(np.abs(got - full)) <= bound

    @pytest.mark.parametrize("nx, node", [(515, False), (516, True)])
    def test_needs_twice_as_many_modes_as_rates(self, monkeypatch, nx, node):
        # 513 sine modes march as they are; from 514 the node route runs
        spec = greens.GreenSpec(0.8, 0.6, 1.0)
        assert self.solve(monkeypatch, nx, 64, spec, 0.5)[2] is node

    def test_history_holds_the_rates_only(self, monkeypatch):
        # the mode march's history alone would be 513 x 3199 doubles (13 MB)
        import tracemalloc
        spec = greens.GreenSpec(0.8, 0.6, 1.0)
        xs = np.linspace(-8.0, 8.0, 3201)
        u0 = GridFunction(xs, _profile("gaussian", xs))
        greens.solve_volterra(u0, spec, 0.5, 512, 8.0)  # caches built
        tracemalloc.start()
        try:
            greens.solve_volterra(u0, spec, 0.5, 512, 8.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def _falls_back(self, monkeypatch, nx, nt, spec, t_end, halfwidth=8.0):
        u0, got, node = self.solve(monkeypatch, nx, nt, spec, t_end,
                                   halfwidth=halfwidth)
        assert not node
        np.testing.assert_array_equal(
            got, self.mode_march(monkeypatch, u0, spec, t_end, nt,
                                 halfwidth))

    def test_a_tail_that_does_not_chop_falls_back(self, monkeypatch):
        # beta = 0.99 over 512 steps to t = 50: the nodes' rounding leaves
        # the last coefficients near 1e-12 of the largest
        self._falls_back(monkeypatch, 1601, 512, greens.GreenSpec(1.0, 0.99),
                         50.0)

    def test_a_failed_growth_bound_falls_back(self, monkeypatch):
        # every |phi_n| at the nodes is at most 1, so a Lebesgue factor
        # past 5 fails the bound
        monkeypatch.setattr(greens, "_RATE_LEBESGUE", 5.5)
        self._falls_back(monkeypatch, 1025, 64, greens.GreenSpec(0.8, 0.6),
                         0.5)

    @pytest.mark.parametrize("alpha, t_end, halfwidth", [
        (2.0, 1e-200, 8.0),  # the stretched time, and each rate, is 0
        (1.0, 1e-300, 1e4),  # the slowest rate is subnormal, 1.6e-309
    ])
    def test_rates_at_or_below_the_normal_range_fall_back(
            self, monkeypatch, alpha, t_end, halfwidth):
        # beta = 0.99, since at beta = 1 the closed form takes any rate
        self._falls_back(monkeypatch, 1601, 16, greens.GreenSpec(alpha, 0.99),
                         t_end, halfwidth)

    @pytest.mark.parametrize("growth, step", [(5.1, "1"),
                                              (4.9, "([2-9]|1[0-6])")])
    def test_negative_eigenvalues_keep_the_guard(self, monkeypatch, growth,
                                                 step):
        # TestVolterra's growth cases on 1023 sine modes: the mode march
        # runs, and its guard names the step it names on 399 modes
        TestVolterra._step_one_growth(monkeypatch, growth, 16, 0.5)
        xs = np.linspace(-8.0, 8.0, 1025)
        u0 = GridFunction(xs, _profile("gaussian", xs))
        route = greens._rate_route
        calls = []
        monkeypatch.setattr(greens, "_rate_route",
                            lambda *args: calls.append(route(*args)))
        with pytest.raises(CFLViolation, match=f"step {step}$"):
            greens.solve_volterra(u0, greens.GreenSpec(1.0, 1.0), 0.5, 16,
                                  8.0)
        assert calls == [None]


# (nx, nt, alpha, beta, t_end, kind) at beta = 1, where solve_volterra takes
# each mode's Crank-Nicolson factor in closed form: the five counterparts of
# _NODE_CASES, the benchmark's coarsest grid, stretched time 1e3 (where the
# node route's tail does not chop), and rates that are all 0
_CLOSED_FORM_CASES = [
    (1025, 16, 1.0, 1.0, 1e-4, "gaussian"),
    (1025, 512, 1.0, 1.0, 0.5, "spike"),
    (1601, 512, 1.0, 1.0, 1e-4, "box"),
    (1025, 100, 1.0, 1.0, 50.0, "box"),
    (3201, 1024, 1.0, 1.0, 0.1, "gaussian"),
    (401, 128, 1.0, 1.0, 0.5, "gaussian"),
    (1601, 512, 1.0, 1.0, 1e3, "gaussian"),
    (1601, 16, 2.0, 1.0, 1e-200, "box"),
]


class TestCrankNicolson:
    """solve_volterra at beta = 1: phi_nt = ((1 - w)/(1 + w))^nt per mode,
    with neither march run."""

    @pytest.mark.parametrize("nt", [16, 17, 512, 4096])
    def test_factor_within_an_ulp_of_the_exact_power(self, nt):
        from fractions import Fraction
        w = np.append(np.logspace(-10.0, 6.0, 81), 1.0)
        got = greens._crank_nicolson(w, nt)
        for wi, phi in zip(w.tolist(), got.tolist()):
            f = Fraction(wi)
            exact = ((1 - f) / (1 + f)) ** nt
            assert abs(Fraction(phi) - exact) <= Fraction(math.ulp(1.0))
        assert got[-1] == 0.0

    @pytest.mark.parametrize("nx, nt, alpha, beta, t_end, kind",
                             _CLOSED_FORM_CASES)
    def test_matches_the_mode_march(self, monkeypatch, nx, nt, alpha, beta,
                                    t_end, kind):
        spec = greens.GreenSpec(alpha, beta, 1.0)
        xs = np.linspace(-8.0, 8.0, nx)
        u0 = GridFunction(xs, _profile(kind, xs))
        calls = []
        for name in ("_march", "_rate_route"):
            monkeypatch.setattr(greens, name,
                                lambda *args, name=name: calls.append(name))
        got = greens.solve_volterra(u0, spec, t_end, nt, 8.0).ys
        assert calls == []
        monkeypatch.undo()
        want = TestRateRoute.mode_march(monkeypatch, u0, spec, t_end, nt)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(u0.ys))
        assert got[0] == got[-1] == 0.0

    @pytest.mark.parametrize("shift", [-800, -600, 600, 1000])
    def test_profile_times_a_power_of_two(self, shift):
        # TestVolterra's check at beta = 1: 2^shift times the Gaussian gives
        # 2^shift times its result, bit for bit
        xs = np.linspace(-8.0, 8.0, 401)
        u0 = np.exp(-0.5 * (xs / 0.5) ** 2)
        spec = greens.GreenSpec(0.8, 1.0, 1.0)
        want = greens.solve_volterra(GridFunction(xs, u0), spec, 0.5, 64,
                                     7.0).ys
        got = greens.solve_volterra(GridFunction(xs, np.ldexp(u0, shift)),
                                    spec, 0.5, 64, 7.0).ys
        np.testing.assert_array_equal(got, np.ldexp(want, shift))
