"""Tests for the Wright-family scalar evaluators.

Reference values were frozen from 50+ digit series summations (mpmath) and
closed-form Gamma/erfc arithmetic; tags in comments name the oracle used.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.testing import assert_allclose

from mwright import quadrature, specfun
from mwright.errors import (
    InvalidArgument,
    InvalidMomentOrder,
    InvalidOrder,
    NearSingularOrder,
    NegativeArgument,
    NonConvergence,
    QuadratureFailure,
    ResultOverflow,
    UnsupportedQ,
)
from mwright.specfun import AuxIndex, WrightIndex

E = 2.718281828459045235
INV_SQRT_PI = 0.56418958354775628695  # 1/sqrt(pi)
M13_AT_1 = 0.39623947970650259057    # 60-digit series; equals 3^(2/3) Ai(3^(-1/3))
M14_AT_1 = 0.38333541657068353578    # 60-digit series
M14_AT_2 = 0.16125108345458585591    # 60-digit series
E_HALF_AT_1 = 0.42758357615580700441  # exp(1) * erfc(1)


class TestWrightSeries:
    def test_exponential_reduction(self):
        # W_(0,1)(z) = e^z
        res = specfun.wright_series(WrightIndex(0.0, 1.0), 1.0)
        assert_allclose(res.value, E, rtol=1e-14)
        assert res.method == "series"

    def test_origin_first_kind(self):
        res = specfun.wright_series(WrightIndex(1.0, 1.0), 0.0)
        assert res.value == 1.0

    @pytest.mark.parametrize("lam", [0.5, 1.0, -0.5])
    @pytest.mark.parametrize("mu", [0.0, -0.0, -1.0, -3.0])
    def test_origin_at_a_gamma_pole_is_exactly_zero(self, lam, mu):
        # W_(lam,mu)(0) = 1/Gamma(mu) = 0: every term is 0, so no partial
        # sum can pass the relative stopping rule
        res = specfun.wright_series(WrightIndex(lam, mu), 0.0)
        assert (res.value, res.abs_err_estimate) == (0.0, 0.0)

    @pytest.mark.parametrize("lam,mu", [(0.5, 1.0), (0.5, 0.5), (-0.5, -1.5),
                                        (1.0, -2.25), (0.0, 3.0)])
    def test_origin_off_the_poles_keeps_its_bits(self, lam, mu):
        # the stopping rule's result at z = 0: value 1/Gamma(mu), no
        # truncation, a rounding floor of 2 eps |1/Gamma(mu)|
        rg = float(specfun._rgamma(mu))
        res = specfun.wright_series(WrightIndex(lam, mu), 0.0)
        assert res.value == rg
        assert res.abs_err_estimate == 2.0 * np.finfo(float).eps * abs(rg)

    def test_zero_rows_leave_other_rows_alone(self):
        lam, mu = 0.5, np.array([0.0, 0.0, 1.0, -1.0, 0.5])
        z = np.array([0.0, 1.5, 0.0, 0.0, -2.0])
        block = specfun._sum_series(lam, mu, z, 1e-12)
        for i in range(len(z)):
            if mu[i] <= 0.0 and z[i] == 0.0:
                want = (0.0, 0.0, 0.0)
            else:
                want = [a[0] for a in specfun._sum_series(lam, mu[i], z[i],
                                                          1e-12)]
            for b, one in zip(block, want):
                np.testing.assert_array_equal(b[i], one)

    def test_second_kind_matches_gaussian_form(self):
        # W_(-1/2,1/2)(-1) = M_(1/2)(1) = exp(-1/4)/sqrt(pi)
        res = specfun.wright_series(WrightIndex(-0.5, 0.5), -1.0)
        assert_allclose(res.value, 0.43939128946772239705, rtol=1e-13)

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            WrightIndex(-1.0, 0.5)

    def test_kind_classification(self):
        assert WrightIndex(0.0, 1.0).kind == "first"
        assert WrightIndex(-0.3, 1.0).kind == "second"

    def test_nonconvergence_second_kind_large_argument(self):
        with pytest.raises(NonConvergence):
            specfun.wright_series(WrightIndex(-0.5, 0.5), -40.0)

    def test_error_estimate_below_tol(self):
        res = specfun.wright_series(WrightIndex(-0.25, 0.75), -2.0, tol=1e-10)
        assert res.abs_err_estimate <= 1e-10

    @pytest.mark.parametrize("lam,mu,z", [
        (0.5, 1.2, 2.5), (1.0, 1.0, 4.0), (0.0, 2.0, 1.0), (2.0, 0.5, 3.0),
    ])
    def test_first_kind_against_scipy(self, lam, mu, z):
        # scipy's generalized-Bessel implementation covers lam >= 0 and is
        # a fully independent evaluation route
        from scipy.special import wright_bessel

        mine = specfun.wright_series(WrightIndex(lam, mu), z).value
        assert_allclose(mine, wright_bessel(lam, mu, z), rtol=5e-14)

    @pytest.mark.parametrize("lam,mu,z,ref", [
        # 80-digit direct sums (mpmath). Each sum needs terms whose
        # 1/Gamma(lam k + mu) underflows; their sign is +1, not that of 0
        (1.0, 0.5, 4e4, 1.472949404887632296755897315682073513457e+173),
        (1.0, 1.0, 6e4, 1.037394485533216727668123144065879938572e+211),
        (1.0, 2.5, 5e4, 9.393979801673044068072593336519174610538e+188),
        (2.0, 1.0, 4e6, 3.164460274430098014884137045622137032599e+128),
    ])
    def test_first_kind_large_argument_within_estimate(self, lam, mu, z, ref):
        res = specfun.wright_series(WrightIndex(lam, mu), z)
        assert abs(res.value - ref) <= res.abs_err_estimate
        assert res.abs_err_estimate <= 1e-11 * ref

    @pytest.mark.parametrize("lam,mu,z", [
        (0.5, 1.0, 5000.0),  # the terms peak near k = 370; 680 are needed
        (0.25, 1.0, 3000.0),  # terms and sum (5.2e431) beyond the doubles
    ])
    def test_first_kind_past_the_budget_raises(self, lam, mu, z):
        with pytest.raises(NonConvergence):
            specfun.wright_series(WrightIndex(lam, mu), z)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_stop_raises_without_a_warning(self):
        # the three terms at the stop sum past the double range: the row
        # misses quietly instead of numpy's "overflow encountered in reduce"
        with pytest.raises(NonConvergence):
            specfun.wright_series(WrightIndex(-0.155, -170.5), 1.575)

    @pytest.mark.parametrize("z", [math.inf, -math.inf])
    def test_infinite_argument_rejected(self, z):
        with pytest.raises(InvalidArgument):
            specfun.wright_series(WrightIndex(0.5, 1.0), z)


class TestSeriesEngine:
    @pytest.mark.parametrize("nu", [0.3, 0.9, 0.98])
    def test_block_rows_match_single_arguments(self, nu):
        # a block sums every argument independently: the same bits as the
        # argument alone, also on rows rebuilt in log space (nu = 0.98 at
        # large r overflows 1/Gamma before the rule is met)
        zs = -np.linspace(0.0, 12.0, 49)
        block = specfun._sum_series(-nu, 1.0 - nu, zs, 1e-12)
        for i, z in enumerate(zs):
            single = specfun._sum_series(-nu, 1.0 - nu, z, 1e-12)
            for b, one in zip(block, single):
                np.testing.assert_array_equal(b[i], one[0])

    @pytest.mark.parametrize("mass", [False, True])
    def test_short_first_block_matches_full_budget(self, mass):
        # M_nu (mu = 1 - nu) and its mass W_{-nu,1} (mu = 1), past r* too:
        # the 64-term block and the 400-term stop must agree bit for bit
        rebuilt = 0
        for nu in (0.05, 0.25, 0.5, 0.75, 0.9, 0.98):
            z = -np.linspace(0.0, 1.5 * specfun.crossover_radius(nu), 200)
            mu = 1.0 if mass else 1.0 - nu
            for tol in (1e-10, 1e-14):
                full = specfun._apply_stopping_rule(
                    specfun._series_terms(-nu, mu, z), tol)
                miss = np.isnan(full[0])
                rebuilt += miss.sum()
                redo = specfun._apply_stopping_rule(
                    specfun._series_terms(-nu, mu, z[miss], rebuild=True), tol)
                for a, b in zip(full, redo):
                    a[miss] = b
                for a, b in zip(specfun._sum_series(-nu, mu, z, tol), full):
                    assert a.tobytes() == b.tobytes(), (nu, tol)
        assert rebuilt > 0

    # (lam, mu, z) rows that stop on 64 terms, on the 400-term budget,
    # after a log-space rebuild (first kind, 1/Gamma underflows), and not
    # at all (NaN: past the budget, or the F-series at z = 0)
    MIXED_ROWS = [(-0.3, 0.7, -1.0), (-0.3, 0.7, -14.0), (1.0, 0.5, 4e4),
                  (-0.4, 0.0, -2.5), (0.5, 1.0, 5000.0), (-0.5, 0.5, -40.0),
                  (-0.4, 0.0, -0.0), (-0.98, 0.02, -3.0)]

    @staticmethod
    def _assert_rows_match_scalar_calls(rows, tol):
        lam, mu, z = (np.array(c) for c in zip(*rows))
        block = specfun._sum_series(lam, mu, z, tol)
        for i, (lam_i, mu_i, z_i) in enumerate(rows):
            single = specfun._sum_series(lam_i, mu_i, z_i, tol)
            for b, one in zip(block, single):
                assert b[i].tobytes() == one.tobytes(), (rows[i], tol)

    def test_per_row_index_stages(self):
        lam, mu, z = (np.array(c) for c in zip(*self.MIXED_ROWS))
        stop = [np.isnan(specfun._apply_stopping_rule(
            specfun._series_terms(lam, mu, z, n=n), 1e-12)[0])
            for n in (64, 400)]
        value = specfun._sum_series(lam, mu, z, 1e-12)[0]
        assert not stop[0][0]                        # 64 terms
        assert stop[0][1] and not stop[1][1]         # 400 terms
        assert stop[1][2] and not np.isnan(value[2])  # rebuilt
        assert np.isnan(value[[4, 5, 7]]).all()
        assert value[6] == 0.0  # W_(-0.4,0)(-0) = 1/Gamma(0) = 0
        self._assert_rows_match_scalar_calls(self.MIXED_ROWS, 1e-12)

    @given(second=st.lists(st.tuples(st.floats(0.01, 0.99),
                                     st.sampled_from(("m", "f", "mass")),
                                     st.floats(0.0, 4.0)),
                           min_size=1, max_size=8),
           first=st.lists(st.tuples(st.floats(0.25, 2.0), st.floats(0.5, 2.5),
                                    st.floats(150.0, 4000.0)),
                          min_size=1, max_size=4),
           tol=st.sampled_from((1e-10, 1e-12, 1e-14)), data=st.data())
    def test_per_row_index_matches_scalar_calls(self, second, first, tol,
                                                data):
        # one (lam, mu) per row gives each row the bits of its own scalar
        # call: M_nu, F_nu and mass rows up to 4 r* (many miss the 64-term
        # block, some the budget) mixed with first-kind rows rebuilt in
        # log space
        mus = {"m": lambda nu: 1.0 - nu, "f": lambda nu: 0.0,
               "mass": lambda nu: 1.0}
        rows = [(-nu, mus[kind](nu), -frac * specfun.crossover_radius(nu))
                for nu, kind, frac in second] + first
        self._assert_rows_match_scalar_calls(
            data.draw(st.permutations(rows)), tol)

    def test_scalar_index_reads_the_cached_row(self, monkeypatch):
        row = specfun._coefficients(-0.3, 0.7)
        assert specfun._coefficients(-0.3, 0.7) is row
        assert not row.flags.writeable
        built, real = [], specfun._rgamma
        monkeypatch.setattr(specfun, "_rgamma",
                            lambda x: built.append(np.shape(x)) or real(x))
        specfun._sum_series(-0.3, 0.7, [-1.0, -14.0], 1e-12)
        assert built == []
        # per-row: one build per distinct (lam, mu) and pass
        specfun._sum_series(np.array([-0.3, -0.5, -0.3]), 0.7,
                            [-1.0, -1.0, -2.0], 1e-12)
        assert built == [(2, 64)]


class TestCrossoverTable:
    def test_committed_steps_are_the_scan(self):
        # the literal must be what the scan finds, bit for bit
        nus, radii = specfun._crossover_table()
        assert len(nus) == len(radii) == 99
        scanned = [specfun._scan_crossover(float(nu)) for nu in nus]
        assert np.array_equal(radii, scanned)
        for nu, r in zip(nus, radii):
            assert specfun.crossover_radius(float(nu)) == r

    def test_steps_fall_with_the_order(self):
        steps = specfun._CROSSOVER_STEPS
        assert (steps[0], steps[-1]) == (27, 6)
        assert all(a >= b for a, b in zip(steps, steps[1:]))


class TestMWright:
    def test_gaussian_point(self):
        assert_allclose(specfun.m_wright(0.5, 0.0).value, INV_SQRT_PI,
                        rtol=1e-15)

    def test_origin_value(self):
        # M_nu(0) = 1/Gamma(1-nu)
        assert_allclose(specfun.m_wright(0.25, 0.0).value,
                        0.81604893909826298108, rtol=1e-13)

    def test_exponential_limit(self):
        res = specfun.m_wright(0.0, 2.0)
        assert_allclose(res.value, math.exp(-2.0), rtol=1e-15)
        assert res.method == "limit_case"

    def test_airy_case(self):
        assert_allclose(specfun.m_wright(1.0 / 3.0, 1.0).value, M13_AT_1,
                        rtol=1e-13)

    def test_accepts_aux_index(self):
        a = specfun.m_wright(AuxIndex(0.25), 1.0).value
        b = specfun.m_wright(0.25, 1.0).value
        assert a == b

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidOrder):
            specfun.m_wright(1.0, 1.0)
        with pytest.raises(InvalidOrder):
            specfun.m_wright(-0.1, 1.0)
        with pytest.raises(NearSingularOrder):
            specfun.m_wright(0.995, 1.0)

    def test_rejects_negative_argument(self):
        with pytest.raises(NegativeArgument):
            specfun.m_wright(0.25, -1.0)

    def test_method_switch_at_crossover(self):
        rstar = specfun.crossover_radius(0.25)
        assert specfun.m_wright(0.25, 0.9 * rstar).method == "series"
        assert specfun.m_wright(0.25, 1.1 * rstar).method == "asymptotic"

    def test_deep_tail_underflows_to_zero(self):
        res = specfun.m_wright(0.9, 6.0)
        assert res.value == 0.0

    @pytest.mark.parametrize("nu", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_non_negative(self, nu):
        vals = specfun.m_wright_values(nu, np.linspace(0.0, 8.0, 81))
        assert np.all(vals >= 0.0)

    @pytest.mark.parametrize("nu", [0.05, 0.3, 0.45, 0.75, 0.9, 0.99])
    def test_values_matches_scalar(self, nu):
        # m_wright is the one-point case of m_wright_values: same bits on
        # both sides of the crossover radius
        rstar = specfun.crossover_radius(nu)
        rs = np.array([0.0, 0.5 * rstar, 0.999 * rstar,
                       np.nextafter(rstar, 0.0), rstar,
                       np.nextafter(rstar, np.inf), 1.001 * rstar,
                       2.0 * rstar])
        vals = specfun.m_wright_values(nu, rs)
        for r, v in zip(rs, vals):
            assert v == specfun.m_wright(nu, float(r)).value


    @pytest.mark.parametrize("nu", [5e-324, 1e-310])
    def test_subnormal_order_is_the_zero_order_limit(self, nu):
        # nu phi would underflow in the stable kernel of the tail route
        rs = np.array([0.5, 1.01, 3.0]) * specfun.crossover_radius(nu)
        assert np.array_equal(specfun.m_wright_values(nu, rs), np.exp(-rs))

    @given(nu=st.floats(0.0, 0.99, exclude_min=True),
           fracs=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=12))
    def test_values_match_scalar_on_both_sides(self, nu, fracs):
        # bit-identical scalar and vector routes, and M_nu >= 0, over the
        # order domain and radii up to 3 r*, next to r* included
        rstar = specfun.crossover_radius(nu)
        rs = np.array(fracs) * rstar
        rs = np.concatenate((rs, [np.nextafter(rstar, 0.0), rstar,
                                  np.nextafter(rstar, np.inf)]))
        vals = specfun.m_wright_values(nu, rs)
        assert np.all(vals >= 0.0)
        for r, v in zip(rs.tolist(), vals.tolist()):
            assert v == specfun.m_wright(nu, r).value


class TestInputContract:
    def test_nan_argument_rejected(self):
        with pytest.raises(InvalidArgument):
            specfun.m_wright(0.25, math.nan)
        with pytest.raises(InvalidArgument):
            specfun.m_wright_values(0.25, [1.0, math.nan])

    def test_nan_order_message_names_the_order(self):
        with pytest.raises(InvalidOrder, match="order") as exc:
            specfun.m_wright(math.nan, 1.0)
        assert "crossover" not in str(exc.value)

    def test_wright_series_nan_argument_rejected(self):
        # the overflow rebuild used to zero every NaN term and return 1.0
        with pytest.raises(InvalidArgument):
            specfun.wright_series(WrightIndex(0.5, 1.0), math.nan)

    def test_mittag_leffler_nan_argument_rejected(self):
        with pytest.raises(InvalidArgument):
            specfun.mittag_leffler_neg(0.5, math.nan)

    @pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 0.75])
    def test_infinite_argument_gives_the_zero_limit(self, nu):
        assert specfun.m_wright(nu, math.inf).value == 0.0
        assert specfun.m_wright_values(nu, [0.0, math.inf])[1] == 0.0

    def test_half_order_huge_argument_is_zero(self):
        # r * r overflows past about 1.3e154; exp(-r^2/4) is 0 there
        assert specfun.m_wright_values(0.5, [1e300]).tolist() == [0.0]
        res = specfun.m_wright(0.5, 1e300)
        assert (res.value, res.abs_err_estimate) == (0.0, 0.0)

    def test_f_wright_infinite_argument_gives_zero(self):
        assert specfun.f_wright(0.25, math.inf).value == 0.0


class TestEstimates:
    @pytest.mark.parametrize("nu,r", [
        (0.0, 1.0), (0.5, 1.0), (0.25, 1.0), (0.25, 12.0), (0.9, 3.0),
    ])
    def test_m_wright_fields_are_python_floats(self, nu, r):
        res = specfun.m_wright(nu, r)
        assert type(res.value) is float
        assert type(res.abs_err_estimate) is float

    @pytest.mark.parametrize("nu,s", [(0.5, 1.0), (0.1, 10.0), (1.3, 2.0)])
    def test_mittag_leffler_fields_are_python_floats(self, nu, s):
        res = specfun.mittag_leffler_neg(nu, s)
        assert type(res.value) is float
        assert type(res.abs_err_estimate) is float

    def test_mittag_leffler_asymptotic_has_rounding_floor(self):
        # the inverse-power sum carries the same 2 eps sum|term| floor as
        # the series; it used to report about 1e-183 for a value of 0.086
        res = specfun.mittag_leffler_neg(0.1, 10.0)
        assert res.method == "asymptotic"
        assert res.abs_err_estimate >= 2.0 * np.finfo(float).eps * res.value


class TestFWright:
    def test_zero_at_origin(self):
        assert specfun.f_wright(0.5, 0.0).value == 0.0

    def test_half_at_one(self):
        # (1/2) M_(1/2)(1)
        assert_allclose(specfun.f_wright(0.5, 1.0).value,
                        0.5 * 0.43939128946772239705, rtol=1e-13)

    def test_quarter_at_two(self):
        # 0.5 * M_(1/4)(2), oracle: direct series summation to 1e-14
        assert_allclose(specfun.f_wright(0.25, 2.0).value, 0.5 * M14_AT_2,
                        rtol=1e-10)

    def test_order_must_be_interior(self):
        with pytest.raises(InvalidOrder):
            specfun.f_wright(0.0, 1.0)


class TestSymmetric:
    def test_even(self):
        a = specfun.m_wright_symmetric(0.375, -2.2).value
        b = specfun.m_wright_symmetric(0.375, 2.2).value
        assert a == b

    def test_gaussian_at_minus_two(self):
        assert_allclose(specfun.m_wright_symmetric(0.5, -2.0).value,
                        0.20755374871029735167, rtol=1e-14)

    def test_origin_three_eighths(self):
        # 1/Gamma(5/8), reciprocal-Gamma reference to 1e-12
        assert_allclose(specfun.m_wright_symmetric(0.375, 0.0).value,
                        0.69709784666201406836, rtol=1e-12)


class TestMittagLeffler:
    def test_classical_exponential(self):
        res = specfun.mittag_leffler_neg(1.0, 1.0)
        assert_allclose(res.value, math.exp(-1.0), rtol=1e-15)

    def test_unit_at_zero(self):
        assert specfun.mittag_leffler_neg(0.7, 0.0).value == 1.0

    def test_half_order(self):
        # Taylor-series oracle: E_(1/2)(-1) = e * erfc(1)
        assert_allclose(specfun.mittag_leffler_neg(0.5, 1.0).value,
                        E_HALF_AT_1, rtol=1e-13)

    def test_half_order_large(self):
        assert_allclose(specfun.mittag_leffler_neg(0.5, 4.0).value,
                        0.13699945762506138989, rtol=1e-8)

    def test_zero_order_geometric(self):
        assert_allclose(specfun.mittag_leffler_neg(0.0, 0.5).value,
                        1.0 / 1.5, rtol=1e-15)
        with pytest.raises(InvalidArgument):
            specfun.mittag_leffler_neg(0.0, 1.5)

    @pytest.mark.parametrize("nu", [0.1, 0.5, 0.9, 1.0, 1.5, 1.9])
    def test_infinite_argument_is_exact_limit(self, nu):
        res = specfun.mittag_leffler_neg(nu, math.inf)
        assert (res.value, res.abs_err_estimate) == (0.0, 0.0)
        assert res.method == "closed_form"

    @pytest.mark.parametrize("nu", [2.0, 2.5])
    def test_infinite_argument_without_limit(self, nu):
        # E_2(-s) = cos(sqrt(s)) oscillates forever
        with pytest.raises(NonConvergence, match="no limit"):
            specfun.mittag_leffler_neg(nu, math.inf)

    def test_branch_switch(self):
        small = specfun.mittag_leffler_neg(0.5, 0.5)
        large = specfun.mittag_leffler_neg(0.5, 50.0)
        assert small.method == "series"
        assert large.method == "asymptotic"

    @pytest.mark.parametrize("nu", [0.25, 0.5, 0.75, 1.0])
    def test_interlacing(self, nu):
        s = np.linspace(0.0, 5.0, 21)
        vals = np.array([specfun.mittag_leffler_neg(nu, x).value for x in s])
        assert vals[0] == 1.0
        assert np.all(np.diff(vals) < 0.0)
        assert np.all(vals > 0.0)

    def test_negative_order_rejected(self):
        with pytest.raises(InvalidOrder):
            specfun.mittag_leffler_neg(-0.5, 1.0)

    @pytest.mark.parametrize("nu,s,ref", [
        (0.75, 8.0, 0.039335854041138190969),
        (0.9, 17.0, 0.0068838970025679161456),
        (0.25, 2.4, 0.26053613535290809291),
    ])
    def test_crossover_band_estimates_are_honest(self, nu, s, ref):
        # points inside the series/asymptotics band; the returned error
        # estimate must cover the realized deviation (values frozen from
        # 50-digit summation)
        res = specfun.mittag_leffler_neg(nu, s, tol=1e-12)
        assert abs(res.value - ref) <= max(2.0 * res.abs_err_estimate, 1e-13)
        assert abs(res.value - ref) / ref < 1e-5


def _ml_refs():
    """{nu: (s, value)} from the committed 40-digit table (make_ml_refs.py)."""
    table = np.loadtxt(Path(__file__).parent / "data" / "ml_refs.csv",
                       delimiter=",", skiprows=2, dtype=str)
    out = {}
    for nu, s, value in table:
        out.setdefault(float(nu), []).append((float(s), float(value)))
    return {nu: tuple(map(np.array, zip(*rows))) for nu, rows in out.items()}


class TestMittagLefflerRoutes:
    @pytest.mark.parametrize("tol", [1e-12, 1e-10, 1e-300])
    def test_within_estimate_of_40_digit_references(self, tol):
        # 50 odd-hundredth orders, s from 1e-8 to 1e6, both routes
        refs = {nu: v for nu, v in _ml_refs().items() if nu < 1.0}
        assert len(refs) == 50
        for nu, (s, ref) in refs.items():
            value, err, method = specfun._ml_array(nu, s, tol)
            bound = err + 4.0 * np.spacing(np.abs(ref))
            bad = np.abs(value - ref) > bound
            assert not bad.any(), (nu, s[bad], value[bad], ref[bad], err[bad])
            assert set(method) <= {"series", "asymptotic"}

    @pytest.mark.parametrize("tol", [1e-12, 1e-6])
    def test_taylor_estimates_cover_orders_above_one(self, tol):
        # nu = 1.1..1.9, s = 0.5..29.5 with s^(1/nu) < 60: the Taylor series
        # is the only route, and its cancellation reaches 1e-6 at (1.1, 29)
        refs = {nu: v for nu, v in _ml_refs().items() if nu > 1.0}
        assert sorted(refs) == [1.1, 1.3, 1.5, 1.7, 1.9]
        for nu, (s, ref) in refs.items():
            value, err, method = specfun._ml_array(nu, s, tol)
            bad = np.abs(value - ref) > err + 4.0 * np.spacing(np.abs(ref))
            assert not bad.any(), (nu, s[bad], value[bad], ref[bad], err[bad])
            assert set(method) == {"series"} and np.isfinite(err).all()

    @pytest.mark.parametrize("nu, s, tol", [(0.99, 6.0, 1e-10),
                                            (0.95, 6.5, 1e-10),
                                            (0.9, 6.0, 1e-8)])
    def test_taylor_kept_where_terms_overflow_after_the_stop(self, nu, s,
                                                             tol):
        # terms past the stop overflow (s^n, n < 400); the rounding floor
        # sums only the terms up to the stop, so the row stays on the
        # series instead of costing a spectral pass
        res = specfun.mittag_leffler_neg(nu, s, tol)
        assert res.method == "series" and res.abs_err_estimate <= tol
        (ref,), (ref_err,) = specfun._ml_spectral(nu, np.array([s]), 1e-14)
        assert abs(res.value - ref) <= res.abs_err_estimate + ref_err

    @pytest.mark.parametrize("nu", [0.25, 0.5, 0.9, 0.95, 1.3])
    def test_values_match_scalar_loop_across_blocks(self, nu):
        s = np.linspace(0.0, 20.0, 401)
        if nu < 1.0:
            s = np.concatenate((s, [1e-8, 1e-3, 1e2, 1e4, 1e6]))
        s = np.random.default_rng(11).permutation(s)
        results = [specfun.mittag_leffler_neg(nu, float(x)) for x in s]
        if nu < 1.0:
            spectral = sum(r.method == "asymptotic" for r in results)
            assert spectral > quadrature._ROW_BLOCK
            assert spectral < len(s)
        vals = specfun.mittag_leffler_values(nu, s.reshape(-1, 1))
        assert vals.shape == (len(s), 1)
        for r, v in zip(results, vals[:, 0]):
            assert v == r.value

    @pytest.mark.parametrize("nu", [1.0 - 1e-6, 1.0 - 1e-12, 1.0 - 2.0 ** -53])
    def test_orders_next_to_one_approach_the_exponential(self, nu):
        # the denominator's peak has width sin(nu pi) ~ pi (1 - nu); on these
        # s, |dE/dnu| < 1 at nu = 1, so E_nu(-s) = exp(-s) + O(1 - nu)
        for s in (0.5, 5.0, 20.0, 1e6):
            res = specfun.mittag_leffler_neg(nu, s)
            assert abs(res.value - math.exp(-s)) \
                <= (1.0 - nu) + res.abs_err_estimate

    @pytest.mark.parametrize("nu", [0.3, 0.7, 0.99])
    def test_huge_argument_follows_the_leading_power(self, nu):
        # E_nu(-s) = 1/(s Gamma(1 - nu)) + O(s^-2); the mass of the integral
        # lies at u < 1/s, far below the denominator's peak for nu > 1/2
        res = specfun.mittag_leffler_neg(nu, 1e300)
        assert res.value == pytest.approx(1e-300 / math.gamma(1.0 - nu),
                                          rel=1e-13)

    def test_values_validate_like_scalar(self):
        with pytest.raises(InvalidArgument):
            specfun.mittag_leffler_values(0.5, [1.0, math.nan])
        with pytest.raises(NegativeArgument):
            specfun.mittag_leffler_values(0.5, [1.0, -1.0])
        with pytest.raises(NonConvergence):
            specfun.mittag_leffler_values(1.5, [1.0, 1e4])

    @given(nu=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
           start=st.floats(0.0, 40.0),
           gaps=st.lists(st.floats(0.05, 8.0), min_size=4, max_size=4))
    def test_completely_monotone(self, nu, start, gaps):
        # (-1)^k f[s_0..s_k] >= 0 for k <= 4, within what the estimates
        # allow: f[s_0..s_k] = sum_i f(s_i) / prod_(j != i) (s_i - s_j)
        s = start + np.concatenate(([0.0], np.cumsum(gaps)))
        res = [specfun.mittag_leffler_neg(nu, float(x)) for x in s]
        f = np.array([r.value for r in res])
        slack = np.array([r.abs_err_estimate for r in res]) \
            + 4.0 * np.spacing(f)
        assert np.all((f > 0.0) & (f <= 1.0))
        for k in range(1, 5):
            for lo in range(len(s) - k):
                x = s[lo:lo + k + 1]
                w = 1.0 / np.array([np.prod(np.delete(xi - x, i))
                                    for i, xi in enumerate(x)])
                dd = (-1) ** k * np.dot(w, f[lo:lo + k + 1])
                assert dd >= -np.dot(np.abs(w), slack[lo:lo + k + 1]), (k, x)


class TestMomentsAndMellin:
    def test_second_moment_half(self):
        assert specfun.m_wright_moment(0.5, 2.0) == pytest.approx(2.0,
                                                                  rel=1e-14)

    def test_normalization_moment(self):
        assert specfun.m_wright_moment(0.33, 0.0) == 1.0

    def test_first_moment_half(self):
        assert_allclose(specfun.m_wright_moment(0.5, 1.0),
                        1.1283791670955125739, rtol=1e-14)

    def test_moment_order_validation(self):
        with pytest.raises(InvalidMomentOrder):
            specfun.m_wright_moment(0.5, -1.0)

    def test_nan_order_rejected(self):
        with pytest.raises(InvalidOrder):
            specfun.m_wright_moment(math.nan, 1.0)

    def test_ratio_in_range_past_gamma_overflow(self):
        # Gamma(201) overflows, Gamma(201)/Gamma(61) does not (40 digits)
        assert_allclose(specfun.m_wright_moment(0.3, 200.0),
                        9.477936411620799745276998721803732158075e+292,
                        rtol=1e-12)

    @pytest.mark.parametrize("nu,delta", [
        (0.3, math.inf), (0.0, math.inf), (0.5, 400.0), (0.0, 171.0)])
    def test_ratio_beyond_double_range(self, nu, delta):
        with pytest.raises(ResultOverflow):
            specfun.m_wright_moment(nu, delta)
        with pytest.raises(ResultOverflow):
            specfun.mellin_m_wright(nu, delta + 1.0)

    def test_mellin_unit(self):
        assert specfun.mellin_m_wright(0.5, 1.0) == pytest.approx(1.0)

    def test_mellin_matches_moment(self):
        assert specfun.mellin_m_wright(0.5, 3.0) == pytest.approx(
            specfun.m_wright_moment(0.5, 2.0), rel=1e-15)

    def test_mellin_quarter(self):
        # Gamma(2)/Gamma(5/4), reference Gamma evaluation to 1e-12
        assert_allclose(specfun.mellin_m_wright(0.25, 2.0),
                        1.1032626513208372574, rtol=1e-12)

    def test_mellin_needs_positive_s(self):
        with pytest.raises(InvalidArgument):
            specfun.mellin_m_wright(0.5, 0.0)


class TestSpecialCases:
    def test_gaussian_branch(self):
        assert_allclose(specfun.m_wright_special(2, 2.0).value,
                        0.20755374871029735167, rtol=1e-15)
        assert_allclose(specfun.m_wright_special(2, 0.0).value, INV_SQRT_PI,
                        rtol=1e-15)

    def test_airy_branch_origin(self):
        # 1/Gamma(2/3): only the first series' leading term survives
        assert_allclose(specfun.m_wright_special(3, 0.0).value,
                        0.73848811162164831294, rtol=1e-14)

    def test_airy_branch_negative_argument(self):
        # entire function: the series continues through z < 0
        got = specfun.m_wright_special(3, -2.0).value
        series = specfun.wright_series(
            WrightIndex(-1.0 / 3.0, 2.0 / 3.0), 2.0, tol=1e-14).value
        assert_allclose(got, series, rtol=1e-12)

    def test_unsupported_q(self):
        with pytest.raises(UnsupportedQ):
            specfun.m_wright_special(4, 1.0)

    @pytest.mark.parametrize("z,ref", [
        # 3^(2/3) Ai(z / 3^(1/3)) to 40 digits (mpmath); the two series
        # cancel to fewer and fewer digits as |z| grows
        (8.0, 6.262963256580199371269570725856406305258e-05),
        (15.0, 6.335391476806423575683400730198574897127e-11),
        (20.0, 3.395218653786931218529507609958922936165e-16),
        (-15.0, -0.5969332882081786865844050057522425200042),
        (-20.0, -0.3691832684676816503134810818639724594318),
    ])
    def test_airy_estimate_covers_the_cancellation(self, z, ref):
        res = specfun.m_wright_special(3, z)
        assert abs(res.value - ref) <= res.abs_err_estimate

    def test_airy_series_past_double_precision_raises(self):
        with pytest.raises(NonConvergence):
            specfun.m_wright_special(3, 200.0)

    @pytest.mark.parametrize("q,z", [
        (2, math.nan), (3, math.nan), (3, math.inf), (3, -math.inf)])
    def test_non_finite_argument_rejected(self, q, z):
        with pytest.raises(InvalidArgument):
            specfun.m_wright_special(q, z)

    @pytest.mark.parametrize("q,nu", [(2, 0.5), (3, 1.0 / 3.0)])
    def test_agreement_with_generic_series(self, q, nu):
        zs = np.linspace(-5.0, 5.0, 101)
        for z in zs:
            generic = specfun.wright_series(
                WrightIndex(-nu, 1.0 - nu), -z, tol=1e-14).value
            assert abs(generic - specfun.m_wright_special(q, z).value) < 1e-12


class TestOdeResidual:
    def test_q2_is_exact_relation(self):
        # first-order relation satisfied identically by the Gaussian form
        assert abs(specfun.m_wright_ode_residual(2, 1.0, 1e-4)) < 1e-6

    def test_q3(self):
        assert abs(specfun.m_wright_ode_residual(3, 0.5, 1e-3)) < 1e-5

    def test_q2_origin(self):
        assert abs(specfun.m_wright_ode_residual(2, 0.0, 1e-4)) < 1e-10

    def test_q4_small(self):
        assert abs(specfun.m_wright_ode_residual(4, 0.8, 1e-2)) < 1e-3

    def test_unsupported(self):
        with pytest.raises(UnsupportedQ):
            specfun.m_wright_ode_residual(5, 1.0, 1e-3)


class TestAsymptotics:
    def test_exact_at_half(self):
        for x in (1.0, 2.0, 5.0):
            assert_allclose(specfun.m_wright_asymptotic(0.5, x),
                            specfun.m_wright_special(2, x).value, rtol=1e-14)

    def test_envelope_bounds_tail(self):
        for nu in (0.2, 0.4, 0.6, 0.8):
            env = specfun.m_wright_envelope(nu)
            r0 = specfun.crossover_radius(nu)
            for r in np.linspace(r0, 3 * r0, 7):
                assert env(r) >= specfun.m_wright(nu, float(r)).value

    def test_gap_at_crossover(self):
        # series and refined large-argument branch agree at the switch
        for nu in (0.15, 0.35, 0.65, 0.85):
            rstar = specfun.crossover_radius(nu)
            (s,), _, _ = specfun._sum_series(-nu, 1.0 - nu, -rstar, 1e-13)
            (b,), _ = specfun._m_tail(nu, np.array([rstar]), 1e-13)
            assert abs(s - b) / b < 1e-5


def _tail_reference(nu, w):
    """M_nu(w) from the stable-density integral with the kernel evaluated
    in extended precision, integrated at a tighter tolerance."""
    ld = np.longdouble
    nu_, w_ = ld(nu), ld(w)
    c = w_ ** (1 / (1 - nu_))
    logscale = nu_ / (1 - nu_) * np.log(w_) - np.log1p(-nu_)
    pi = ld("3.14159265358979323846264338327950288")

    def f(u):
        phi = pi * np.asarray(u, dtype=ld)
        la = (nu_ * np.log(np.sin(nu_ * phi))
              + (1 - nu_) * np.log(np.sin((1 - nu_) * phi))
              - np.log(np.sin(phi))) / (1 - nu_)
        with np.errstate(over="ignore", under="ignore"):
            arg = la - c * np.exp(np.minimum(la, ld(700))) + logscale
            return np.exp(np.maximum(arg, ld(-800))).astype(float)

    a0 = nu ** (nu / (1.0 - nu)) * (1.0 - nu)
    width = 1.0 / math.sqrt(1.0 + float(c) * a0)
    return quadrature.adaptive(f, 0.0, 1.0, tol=1e-320, rtol=3e-14,
                               points=[width * 2.0 ** k for k in range(-6, 6)],
                               limit=40000)[0]


class TestStableTail:
    @pytest.mark.parametrize("tol", [1e-12, 1e-300])
    @pytest.mark.parametrize("nu", [0.01, 0.1, 0.25, 0.4, 0.6, 0.75, 0.9,
                                    0.99])
    def test_within_estimate_of_tight_reference(self, nu, tol):
        # radii from the crossover to the underflow edge c*A(0+) = 795
        a0 = nu ** (nu / (1.0 - nu)) * (1.0 - nu)
        rs = np.geomspace(np.nextafter(specfun.crossover_radius(nu), np.inf),
                          (795.0 / a0) ** (1.0 - nu), 9)
        for r in rs:
            res = specfun.m_wright(nu, float(r), tol)
            assert res.method == "asymptotic"
            ref = _tail_reference(nu, float(r))
            assert abs(res.value - ref) <= res.abs_err_estimate, r

    @pytest.mark.parametrize("nu", [0.3, 0.9])
    def test_values_match_scalar_loop_across_blocks(self, nu):
        rstar = specfun.crossover_radius(nu)
        rs = np.random.default_rng(7).permutation(
            np.linspace(0.0, 3.0 * rstar, 700))
        assert np.count_nonzero(rs > rstar) > quadrature._ROW_BLOCK
        vals = specfun.m_wright_values(nu, rs)
        for r, v in zip(rs, vals):
            assert v == specfun.m_wright(nu, float(r)).value

    def test_huge_radius_is_zero(self):
        # the exponent w^(1/(1-nu)) overflows; the value is the limit 0
        res = specfun.m_wright(0.3, 1e300)
        assert (res.value, res.method) == (0.0, "asymptotic")

    def test_impossible_request_raises(self):
        def f(u, rows):
            return 1.0 / np.sqrt(np.abs(u - 0.37) + 1e-300)

        pts = np.full((3, 1), 0.5)
        with pytest.raises(QuadratureFailure):
            quadrature.adaptive_rows(f, 0.0, 1.0, pts, tol=0.0, rtol=0.0)
        with pytest.raises(QuadratureFailure):
            quadrature.adaptive_rows(f, 0.0, 1.0, pts, tol=1e-14, limit=8)


def _m_refs():
    """{nu: (r, M_nu(r))} from the committed 40-digit table
    (make_m_refs.py)."""
    table = np.loadtxt(Path(__file__).parent / "data" / "m_refs.csv",
                       delimiter=",", skiprows=2, dtype=str)
    out = {}
    for nu, r, value in table:
        out.setdefault(float(nu), []).append((float(r), float(value)))
    return {nu: tuple(map(np.array, zip(*rows))) for nu, rows in out.items()}


def _tail_radii(nu, count):
    """count radii past r* up to the underflow cut Y = 795, shuffled."""
    a0 = nu ** (nu / (1.0 - nu)) * (1.0 - nu)
    rs = np.geomspace(np.nextafter(specfun.crossover_radius(nu), np.inf),
                      (795.0 / a0) ** (1.0 - nu), count)
    return np.random.default_rng(3).permutation(rs)


class TestTailInterpolant:
    # orders whose interpolant converges, and one that keeps the quadrature
    SERVED, FALLBACK = (0.05, 0.3, 0.75, 0.95), 0.99

    def test_which_orders_fall_back(self):
        for nu in self.SERVED:
            assert specfun._tail_interpolant(nu, 1) is not None
        for nu in (1e-12, 1e-3, 0.98, self.FALLBACK):
            assert specfun._tail_interpolant(nu, 1) is None

    def test_series_points_build_nothing(self):
        # the first evaluation after import stays on the series route
        specfun._tail_interpolant.cache_clear()
        specfun.m_wright(0.25, 1.0)
        specfun._half_mass(0.25, np.array([0.5, 1.0]), 1e-13)
        assert specfun._tail_interpolant.cache_info().currsize == 0

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    def test_within_estimate_of_40_digit_references(self, tol):
        # 13 orders, radii from r* to where M_nu falls below 1e-300, on the
        # interpolated route and on the quadrature it falls back to. The
        # quadrature is not held to 1e-12: at nu = 0.99 the kernel's
        # rounding, amplified by 1/(1-nu) and Y, reaches 1.1e-12 relative
        refs = _m_refs()
        assert len(refs) == 13
        for nu, (r, ref) in refs.items():
            got = [specfun.m_wright(nu, x, tol) for x in r.tolist()]
            value = np.array([g.value for g in got])
            err = np.array([g.abs_err_estimate for g in got])
            assert {g.method for g in got} == {"asymptotic"}
            bad = np.abs(value - ref) > err
            assert not bad.any(), (nu, r[bad], value[bad], ref[bad])
            assert ref.min() < 1e-290  # the table reaches the far tail
            if specfun._tail_interpolant(nu, 1) is not None:
                assert np.all(np.abs(value - ref) <= 1e-12 * ref), nu
            value, err = specfun._m_tail(nu, r, tol)
            assert not (np.abs(value - ref) > err).any(), nu

    @pytest.mark.parametrize("nu", SERVED + (FALLBACK,))
    def test_values_match_scalar_calls_in_any_block(self, nu):
        rs = _tail_radii(nu, 4096)
        whole = specfun.m_wright_values(nu, rs)
        sevens = np.concatenate([specfun.m_wright_values(nu, rs[i:i + 7])
                                 for i in range(0, 70, 7)])
        assert whole[:70].tobytes() == sevens.tobytes()
        for r, v in zip(rs[:25].tolist(), whole[:25].tolist()):
            assert specfun.m_wright(nu, r).value == v

    @pytest.mark.parametrize("power", [1, 0])
    def test_cold_and_warm_cache_give_the_same_bits(self, power):
        rs = _tail_radii(0.6, 200)
        runs = []
        for cold in (True, False, True):
            if cold:
                specfun._tail_interpolant.cache_clear()
            runs.append(specfun._tail(0.6, rs, 1e-10, power))
        for value, err in runs[1:]:
            assert value.tobytes() == runs[0][0].tobytes()
            assert err.tobytes() == runs[0][1].tobytes()

    @given(nu=st.floats(0.0, 0.99, exclude_min=True))
    @example(nu=1e-12)
    @example(nu=1e-3)
    @example(nu=0.97)
    @example(nu=0.98)
    @example(nu=0.99)
    def test_builds_never_raise(self, nu):
        # an order whose build fails keeps the quadrature; RuntimeWarnings
        # are errors in this suite
        rs = np.array([1.0, 1.5, 3.0]) * specfun.crossover_radius(nu)
        value = specfun.m_wright_values(nu, rs, 1e-10)
        mass, err = specfun._half_mass(nu, rs, 1e-13)
        assert np.all(np.isfinite(value) & (value >= 0.0))
        assert np.all(np.isfinite(mass) & (mass >= 0.0) & (err > 0.0))

    @pytest.mark.parametrize("nu", SERVED)
    def test_estimate_does_not_depend_on_tol(self, nu):
        for r in _tail_radii(nu, 20).tolist():
            got = {specfun.m_wright(nu, r, tol)
                   for tol in (1e-8, 1e-10, 1e-12)}
            assert len(got) == 1, r

    @given(nu=st.floats(0.002, 0.99), power=st.sampled_from([1, 0]),
           fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_agrees_with_its_quadrature_within_both_estimates(
            self, nu, power, fracs):
        # M_nu and, for _half_mass's far rows, its mass (power=0), at
        # radii spread in log Y from r* to the underflow cut Y = 795
        rstar = specfun.crossover_radius(nu)
        a0 = nu ** (nu / (1.0 - nu)) * (1.0 - nu)
        y = float(specfun._saddle_exponent(nu, rstar)) ** (
            1.0 - np.array(fracs)) * 795.0 ** np.array(fracs)
        rs = (y / a0) ** (1.0 - nu)
        rs = rs[rs > rstar]
        value, err = specfun._tail(nu, rs, 0.0, power)
        want, want_err = specfun._m_tail(nu, rs, 0.0, power)
        assert np.all(np.abs(value - want) <= err + want_err)
