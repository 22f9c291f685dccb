"""Tests for the Wright-family scalar evaluators.

Reference values were frozen from 50+ digit series summations (mpmath) and
closed-form Gamma/erfc arithmetic; tags in comments name the oracle used.
"""

import importlib.util
import math
import sys
from decimal import Context, Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.polynomial.chebyshev import chebval
from numpy.testing import assert_allclose
from scipy.special import rgamma

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


def _load_m_refs_layout():
    """tests/data/make_m_refs.py, whose layout (ORDERS, R_STAR, radii)
    loads without mpmath."""
    spec = importlib.util.spec_from_file_location(
        "make_m_refs", Path(__file__).parent / "data" / "make_m_refs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the radius r*(nu) of the retired crossover scan at the orders of
# m_refs.csv, by which most of its rows were laid out
_R_STAR = _load_m_refs_layout().R_STAR


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

    @pytest.mark.parametrize("lam, mu", [
        (math.inf, 1.0), (math.nan, 1.0), (0.5, math.nan), (0.5, math.inf),
        (-0.5, -math.inf)])
    def test_non_finite_index_rejected(self, lam, mu):
        # an infinite lam used to end in numpy's "invalid value" warning, a
        # NaN mu in NonConvergence
        with pytest.raises(InvalidOrder):
            WrightIndex(lam, mu)
        with pytest.raises(InvalidOrder):
            specfun.wright_series((lam, mu), 1.0)

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
        # M_nu (mu = 1 - nu) and its mass W_{-nu,1} (mu = 1), up to 1.5
        # times the retired scan's radius r*: the 64- and 200-term blocks
        # and the 400-term stop must agree bit for bit, on rows that stop
        # in each
        stops = np.zeros(4, dtype=int)  # by 64, by 200, by 400, rebuilt
        for nu in (0.05, 0.25, 0.6, 0.75, 0.9, 0.99):
            z = -np.linspace(0.0, 1.5 * _R_STAR[nu], 200)
            mu = 1.0 if mass else 1.0 - nu
            for tol in (1e-10, 1e-14):
                full = specfun._apply_stopping_rule(
                    specfun._series_terms(-nu, mu, z), tol)
                miss = np.isnan(full[0])
                redo = specfun._apply_stopping_rule(
                    specfun._series_terms(-nu, mu, z[miss], rebuild=True), tol)
                for a, b in zip(full, redo):
                    a[miss] = b
                for a, b in zip(specfun._sum_series(-nu, mu, z, tol), full):
                    assert a.tobytes() == b.tobytes(), (nu, tol)
                short = [~np.isnan(specfun._apply_stopping_rule(
                    specfun._series_terms(-nu, mu, z, n=n), tol)[0])
                    for n in (64, 200)]
                stops += [short[0].sum(), (short[1] & ~short[0]).sum(),
                          (~miss & ~short[1]).sum(), miss.sum()]
        assert (stops > 0).all(), stops

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
        # call: M_nu, F_nu and mass rows up to 4 times the switch (many miss
        # the 64-term block, some the budget) mixed with first-kind rows
        # rebuilt in log space
        mus = {"m": lambda nu: 1.0 - nu, "f": lambda nu: 0.0,
               "mass": lambda nu: 1.0}
        rows = [(-nu, mus[kind](nu), -frac * specfun.crossover_radius(nu))
                for nu, kind, frac in second] + first
        self._assert_rows_match_scalar_calls(
            data.draw(st.permutations(rows)), tol)

    def test_scalar_index_builds_one_row_per_stage(self, monkeypatch):
        built, real = [], specfun._rgamma
        monkeypatch.setattr(specfun, "_rgamma",
                            lambda x: built.append(np.shape(x)) or real(x))
        # z = -14 needs more than 64 terms and at most 200
        specfun._sum_series(-0.3, 0.7, [-1.0, -14.0], 1e-12)
        assert built == [(64,), (200,)]
        # per-row: a row per entry and stage, repeated pairs included
        built.clear()
        rows = [(-0.3, 0.7, -1.0), (-0.5, 0.7, -1.0), (-0.3, 0.7, -2.0),
                (-0.3, 0.7, -14.0)]
        self._assert_rows_match_scalar_calls(rows, 1e-12)
        assert built[:2] == [(4, 64), (1, 200)]


class TestCrossoverTable:
    """The series/tail switch crossover_radius(nu), closed-form in nu."""

    @given(nu=st.floats(0.0, 0.99, exclude_min=True))
    @example(nu=0.0099)
    @example(nu=0.01)
    @example(nu=0.99)
    @example(nu=1e-12)
    @example(nu=5e-324)
    def test_switch_is_where_the_saddle_exponent_is_fixed(self, nu):
        # the radius where Y = 9, halved from 0.01; Y carries the rounding
        # of r times 1/(1-nu)
        switch = specfun.crossover_radius(nu)
        r = 2.0 * switch if nu >= 0.01 else switch
        y = float(specfun._saddle_exponent(nu, np.array(r)))
        assert y == pytest.approx(9.0, rel=16.0 * specfun._EPS / (1.0 - nu))

    @given(nu=st.floats(0.01, 0.99, exclude_min=True))
    @example(nu=0.01)
    @example(nu=0.3)
    @example(nu=0.45)
    @example(nu=0.4588)
    @example(nu=0.4589)
    @example(nu=0.99)
    def test_series_split_is_where_the_saddle_exponent_is_fixed(self, nu):
        # the series pieces split at the radius where Y = 2.5 wherever that
        # lies below the switch, that is where Y(switch) > 2.5: two pieces
        # below about 0.459, one above
        rel = 16.0 * specfun._EPS / (1.0 - nu)
        split = specfun._radius_at(specfun._Y_SPLIT, nu)
        y = float(specfun._saddle_exponent(nu, np.array(split)))
        assert y == pytest.approx(specfun._Y_SPLIT, rel=rel)
        switch = specfun.crossover_radius(nu)
        y_switch = float(specfun._saddle_exponent(nu, np.array(switch)))
        fit = specfun._series_interpolant(nu)
        assert len(fit) == (2 if split < switch else 1)
        assert (len(fit) == 2) == (y_switch > 2.5) or y_switch == pytest.approx(
            2.5, rel=2.0 * rel)
        assert len(fit) == 2 or nu > 0.4588
        assert len(fit) == 1 or nu < 0.4589
        assert fit[-1][:2] == (0.0, 0.0) and fit[0][2] == switch
        if len(fit) == 2:
            assert fit[0][:2] == (split, split) == (fit[1][2], fit[1][2])

    def test_both_tail_builds_converge_at_the_halved_switch(self):
        # the interpolant of M_nu and of its mass serves every halved order,
        # with a piece in r from the switch to Y = 1 where Y(switch) < 1
        # (orders above 0.68)
        pieces = set()
        for nu in np.linspace(0.01, 0.99, 393).tolist():
            for power in (1, 0):
                fit = specfun._tail_interpolant(nu, power)
                assert fit is not None, (nu, power)
                pieces.add(len(fit))
                # the lowest piece starts at the switch, in r below Y = 1
                switch = specfun.crossover_radius(nu)
                y_from, lo, _, in_r, _, _ = fit[-1]
                assert y_from == specfun._saddle_exponent(nu, np.array(switch))
                assert in_r == (y_from < 1.0), (nu, power)
                assert lo == switch or not in_r, (nu, power)
        assert pieces == {1, 2}

    def test_radii_of_an_array_are_the_scalar_calls(self):
        nus = np.concatenate((np.random.default_rng(3).uniform(0.0, 1.0, 200),
                              [1e-12, 0.005, 0.0099, 0.01, 0.5, 0.999]))
        want = [specfun.crossover_radius(nu) for nu in nus.tolist()]
        assert specfun._crossover_radii(nus).tolist() == want


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
        # at the switch, below the piece in r (0.75, 0.9) or not (0.25)
        for nu in (0.25, 0.75, 0.9):
            rstar = specfun.crossover_radius(nu)
            assert specfun.m_wright(nu, 0.9 * rstar).method == "series"
            assert specfun.m_wright(nu, 1.1 * rstar).method == "asymptotic"

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
        # order domain and radii up to 3 times the switch, next to it
        # included
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
        for r in (1e300, math.inf):
            for res in (specfun.m_wright(0.5, r),
                        specfun.m_wright_special(2, r)):
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

    def test_exponential_estimate_covers_subnormal_values(self):
        # E_1(-s) = e^-s is subnormal past s = 708.4 and 0 past 745.1: the
        # estimate adds two subnormal spacings there, as the nu = 1/2
        # Gaussian's does (4 eps x value alone read 0.0 at s = 744)
        ctx = Context(prec=40)
        for s in np.linspace(700.0, 750.0, 501):
            res = specfun.mittag_leffler_neg(1.0, float(s))
            exact = Decimal(-float(s)).exp(ctx)
            assert abs(Decimal(res.value) - exact) \
                <= Decimal(res.abs_err_estimate), s
        res = specfun.mittag_leffler_neg(1.0, math.inf)
        assert (res.value, res.abs_err_estimate) == (0.0, 0.0)

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

    @pytest.mark.parametrize("s, ref", [
        (2.019437994800837e-08, 9.999999772130827820689694880266534762242e-1),
        (0.001, 9.988726200811514086044507793861658861004e-1),
        (0.5, 6.156903441929258748707934226837419367823e-1),
        (4.0, 1.369994576250613898894451713998054823302e-1),
        (27.0, 2.08816079904209406740944901929350089402e-2),
        (1024.0, 5.509661274624838133707411837989382627247e-4),
        (1e6, 5.641895835474741921563059965594862058776e-7),
    ])
    def test_half_order_is_erfcx(self, s, ref):
        # E_(1/2)(-s) = exp(s^2) erfc(s), 40 digits by mpmath; at the first
        # argument erfcx is 4.1 eps off, past a 4 eps estimate
        res = specfun.mittag_leffler_neg(0.5, s)
        assert res.method == "closed_form"
        assert abs(res.value - ref) <= res.abs_err_estimate

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
        # interpolated orders read the pieces built from the spectral
        # integral (its label) up to s = 1024; an order whose build fails
        # keeps the Taylor series where it meets tol, the integral elsewhere
        small = specfun.mittag_leffler_neg(0.25, 0.5)
        large = specfun.mittag_leffler_neg(0.25, 50.0)
        assert small.method == large.method == "asymptotic"
        small = specfun.mittag_leffler_neg(0.999, 0.5)
        large = specfun.mittag_leffler_neg(0.999, 50.0)
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
        # 50 odd-hundredth orders, s from 1e-8 to 1e6: the pieces up to s =
        # 1024 (rows from 24 to 1024 on the piece in 1/s), within 1e-12
        # relative there, and the Taylor rows and the integral past it
        refs = {nu: v for nu, v in _ml_refs().items() if nu < 1.0}
        assert len(refs) == 50
        for nu, (s, ref) in refs.items():
            assert np.count_nonzero((s > 20.0) & (s <= 1024.0)) == 10, nu
            value, err, method = specfun._ml_array(nu, s, tol)
            bound = err + 4.0 * np.spacing(np.abs(ref))
            bad = np.abs(value - ref) > bound
            assert not bad.any(), (nu, s[bad], value[bad], ref[bad], err[bad])
            assert set(method) <= {"series", "asymptotic"}
            assert specfun._ml_interpolant(nu) is not None
            on = s <= 1024.0
            off = np.abs(value - ref)[on] > 1e-12 * ref[on]
            assert not off.any(), (nu, s[on][off])

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
    def test_taylor_kept_where_terms_overflow_after_the_stop(
            self, nu, s, tol, monkeypatch):
        # terms past the stop overflow (s^n, n < 400); the rounding floor
        # sums only the terms up to the stop, so the row stays on the
        # series instead of costing a spectral pass. These orders have
        # pieces; the route of an order without them is the one tested
        monkeypatch.setattr(specfun, "_ml_interpolant", lambda nu: None)
        res = specfun.mittag_leffler_neg(nu, s, tol)
        assert res.method == "series" and res.abs_err_estimate <= tol
        (ref,), (ref_err,) = specfun._ml_spectral(nu, np.array([s]), 1e-14)
        assert abs(res.value - ref) <= res.abs_err_estimate + ref_err

    @pytest.mark.parametrize("nu", [0.25, 0.5, 0.9, 0.95, 1.3])
    def test_values_match_scalar_loop_across_blocks(self, nu):
        # past s = 1024 the pieces end, and more than a row block of
        # arguments takes the spectral pass; nu = 1/2 is erfcx throughout
        s = np.linspace(0.0, 20.0, 401)
        if nu < 1.0:
            s = np.concatenate((s, [1e-8, 1e-3, 1e2, 1e4, 1e6],
                                np.geomspace(1025.0, 1e5, 300)))
        s = np.random.default_rng(11).permutation(s)
        results = [specfun.mittag_leffler_neg(nu, float(x)) for x in s]
        methods = np.array([r.method for r in results])
        if nu == 0.5:
            assert set(methods) == {"closed_form"}
        elif nu < 1.0:
            spectral = np.count_nonzero((methods == "asymptotic") & (s > 1024))
            assert spectral > quadrature._ROW_BLOCK
            pieces = (methods == "asymptotic") & (s > 0.0) & (s <= 1024)
            assert pieces.sum() == np.count_nonzero((s > 0.0) & (s <= 1024))
        vals = specfun.mittag_leffler_values(nu, s.reshape(-1, 1))
        assert vals.shape == (len(s), 1)
        for r, v in zip(results, vals[:, 0]):
            assert v == r.value

    @pytest.mark.parametrize("nu", [0.25, 1e-3, 0.999])
    def test_past_1024_straight_to_the_integral(self, monkeypatch, nu):
        # past s = 1024 the Taylor terms s^k overflow before they meet the
        # stopping rule at every order below 1, with pieces (0.25) or
        # without (1e-3, 0.999): none is summed there
        s = np.array([2000.0, 1e5])
        want, _ = specfun._ml_spectral(nu, s, 1e-12)
        monkeypatch.setattr(specfun, "_series_terms", lambda *a, **k:
                            pytest.fail("Taylor rows past s = 1024"))
        got = specfun.mittag_leffler_values(nu, s)
        assert got.tolist() == want.tolist()

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


class TestMittagLefflerInterpolant:
    def test_which_orders_fall_back(self):
        # every order on the 0.0025 grid over [0.01, 0.99] builds both pieces
        for nu in np.linspace(0.01, 0.99, 393).tolist():
            fit = specfun._ml_interpolant(nu)
            assert fit is not None, nu
            far, near = fit
            assert far[:4] == (4.0, 1.0 / 1024.0, 0.25, False), nu
            assert near[:4] == (0.0, 0.0, 4.0, True), nu
            assert far[5] < 1e-12 and near[5] < 1e-12, nu
        # orders whose build fails keep the Taylor series where it meets tol
        # and the spectral integral elsewhere
        for nu in (1e-4, 1e-3, 0.9975, 0.999):
            assert specfun._ml_interpolant(nu) is None
            s = np.array([0.5, 10.0])
            value, err, method = specfun._ml_array(nu, s, 1e-12)
            assert method.tolist() == ["series", "asymptotic"], nu
            spectral = specfun._ml_spectral(nu, s[1:], 1e-12)
            assert (value[1], err[1]) == (spectral[0][0], spectral[1][0])

    @given(nu=st.floats(0.01, 0.99),
           s=st.lists(st.floats(0.0, 1024.0, exclude_min=True), min_size=1,
                      max_size=8))
    @example(nu=0.01, s=[1e-300, 3.9999999999999996, 4.0, 1024.0])
    @example(nu=0.99, s=[1e-8, 3.9999999999999996, 4.0, 1024.0])
    def test_agrees_with_the_spectral_integral(self, nu, s):
        # the pieces against the integral they are built from, within both
        # estimates and 4 ulp for the rounding of the comparison
        s = np.array(s)
        value, err, method = specfun._ml_array(nu, s, 1e-12)
        assert set(method) == {"closed_form" if nu == 0.5 else "asymptotic"}
        want, want_err = specfun._ml_spectral(nu, s, 0.0)
        ulp = 4.0 * np.spacing(np.maximum(value, want))
        assert np.all(np.abs(value - want) <= err + want_err + ulp)

    @given(nu=st.floats(0.01, 0.99),
           s=st.lists(st.floats(0.0, 1024.0), min_size=1, max_size=12))
    @example(nu=0.9, s=[0.0, 0.5, 4.125, 20.0])
    def test_block_matches_points_and_ignores_tol(self, nu, s):
        # mittag_leffler_values equals the per-point mittag_leffler_neg value
        # and estimate bit for bit, whatever the block holds, and the
        # estimate does not depend on tol
        s = np.array(s + [np.nextafter(4.0, 0.0), 4.0, 1024.0])
        block = specfun.mittag_leffler_values(nu, s)
        value, err, method = specfun._ml_array(nu, s, 1e-10)
        assert block.tobytes() == value.tobytes()
        for i, x in enumerate(s.tolist()):
            got = {specfun.mittag_leffler_neg(nu, x, tol)
                   for tol in (1e-8, 1e-10, 1e-12, 1e-300)}
            assert got == {specfun.EvalResult(float(value[i]), float(err[i]),
                                              str(method[i]))}, x


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
        # 3^(2/3) Ai(z / 3^(1/3)) to 40 digits (mpmath); the estimate grows
        # like |z|^1.5, as the Airy routines' error does
        (8.0, 6.262963256580199371269570725856406305258e-05),
        (15.0, 6.335391476806423575683400730198574897127e-11),
        (20.0, 3.395218653786931218529507609958922936165e-16),
        (-15.0, -0.5969332882081786865844050057522425200042),
        (-20.0, -0.3691832684676816503134810818639724594318),
    ])
    def test_airy_estimate_covers_the_cancellation(self, z, ref):
        res = specfun.m_wright_special(3, z)
        assert abs(res.value - ref) <= res.abs_err_estimate

    @pytest.mark.parametrize("r,ref", [
        # exp(-r^2/4)/sqrt(pi) at the double r, 40 digits (mpmath)
        (10.1, 4.740564270371082630369095330782367769547e-12),
        (30.1, 2.413454837483753569337123858187674599616e-99),
        (50.3, 1.123035885680823358789448697362944568215e-275),
        (53.5, 9.695715347949649570190980024928961215206e-312),
        (54.0, 1.414971707488855844301449176307313647698e-317),
        (60.0, 0.0),  # 7.7e-392: the value underflows to 0
    ])
    def test_gaussian_estimate_covers_the_rounded_exponent(self, r, ref):
        # the rounding of r^2/4 moves the value by up to r^2/8 eps
        # relative: 2.2, 21 and 27 eps here, where 4 eps was reported;
        # subnormal values round to the subnormal spacing besides
        results = (specfun.m_wright_special(2, r), specfun.m_wright(0.5, r),
                   specfun.m_wright_symmetric(0.5, -r))
        low = 2.0 * math.ulp(0.0) if ref < sys.float_info.min else 0.0
        for res in results:
            assert abs(res.value - ref) <= res.abs_err_estimate
            assert res.abs_err_estimate <= (4.0 + r * r / 8.0) * (
                specfun._EPS * ref * (1.0 + 1e-12)) + low
            assert res.abs_err_estimate >= low
        # the log route (greens) reports the same relative estimate, also
        # where the value is subnormal or 0
        *_, (rel,) = specfun._m_wright_array(0.5, [r], 1e-12, logs=True)
        assert rel == pytest.approx((4.0 + r * r / 8.0) * specfun._EPS)
        value, err, _ = specfun._m_wright_array(0.5, [r, r], 1e-12)
        assert (value[0], err[0]) == (results[1].value,
                                      results[1].abs_err_estimate)

    def test_airy_series_past_double_precision_raises(self):
        # the retired power series raised from |z| = 200; scipy's Airy
        # function has a value there (M_(1/3)(200) = 2.7e-474 underflows),
        # and none below z = -3^(1/3) 2^20 = -1.5123e6
        for z, ref in ((200.0, 0.0),
                       (-200.0, 0.2164206141293197424345190178697232113696)):
            res = specfun.m_wright_special(3, z)
            assert abs(res.value - ref) <= res.abs_err_estimate
        with pytest.raises(NonConvergence):
            specfun.m_wright_special(3, -1.5124e6)

    def test_airy_within_estimate_of_40_digit_references(self):
        # make_airy_refs.py: from z = -1.51e6 to past the underflow of
        # scipy's Ai at z = 148.69, where the estimate is the envelope
        z, ref = np.loadtxt(Path(__file__).parent / "data" / "airy_refs.csv",
                            delimiter=",", comments="#", skiprows=2,
                            unpack=True)
        assert z.min() == -1.51e6 and z.max() == 153.0
        for zi, want in zip(z.tolist(), ref.tolist()):
            res = specfun.m_wright_special(3, zi)
            assert math.isfinite(res.abs_err_estimate), zi
            assert abs(res.value - want) <= res.abs_err_estimate, zi
        value, err = specfun._airy_m(z)
        assert value[z > 148.7].tolist() == [0.0] * int((z > 148.7).sum())
        assert (np.abs(value - ref) <= err).all()

    def test_airy_estimate_on_the_verify_grid(self):
        # verify's closed-form sweep: the retired series reported up to
        # 6.65e-14 there
        zs = np.arange(-5.0, 5.0 + 1e-12, 0.01)
        assert specfun._airy_m(zs)[1].max() <= 6.65e-14

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
            assert abs(s - b) / b < 1e-11


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
    # a breakpoint within 1e-9 of u = 1 (width -> 1 as c -> 0) would make
    # a panel whose nodes round to u = 1, where sin(phi) <= 0
    points = [min(1.0 - 1e-9, width * 2.0 ** k) for k in range(-6, 6)]
    return quadrature.adaptive(f, 0.0, 1.0, tol=1e-320, rtol=3e-14,
                               points=points, limit=40000)[0]


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
    """count radii past the switch up to the underflow cut Y = 795,
    shuffled."""
    a0 = nu ** (nu / (1.0 - nu)) * (1.0 - nu)
    rs = np.geomspace(np.nextafter(specfun.crossover_radius(nu), np.inf),
                      (795.0 / a0) ** (1.0 - nu), count)
    return np.random.default_rng(3).permutation(rs)


class TestTailInterpolant:
    # orders whose interpolant converges: one piece in 1/Y (0.05, 0.3), or
    # also one in r from the switch to Y = 1 (above 0.68)
    SERVED = (0.05, 0.3, 0.75, 0.9, 0.95, 0.99)
    # the orders on the 0.0001 grid below 0.01 whose builds fail, for M_nu
    # and its mass alike
    FALLBACK = (0.0001, 0.0002, 0.0003, 0.0004, 0.0005, 0.0006, 0.0007,
                0.0008, 0.0009, 0.001, 0.0011, 0.0012, 0.0013, 0.0014,
                0.0015, 0.0016, 0.0017)

    def test_which_orders_fall_back(self):
        for nu in self.SERVED + (0.98,):
            for power in (1, 0):
                fit = specfun._tail_interpolant(nu, power)
                assert len(fit) == (1 if nu < 0.68 else 2), (nu, power)
        assert specfun._tail_interpolant(1e-12, 1) is None
        for power in (1, 0):
            failed = tuple(nu for nu in np.round(np.arange(
                0.0001, 0.00995, 0.0001), 4).tolist()
                if specfun._tail_interpolant(nu, power) is None)
            assert failed == self.FALLBACK, power

    @pytest.mark.parametrize("nu", [0.0018, 0.0019, 0.0021, 0.0022, 0.0023,
                                    0.0027])
    @pytest.mark.parametrize("power", [1, 0])
    def test_low_order_pieces_agree_with_their_quadrature(self, nu, power):
        # orders below 0.01 whose piece in 1/Y keeps 62 coefficients,
        # taken on 65 nodes whose estimates cover the coefficients' plateau:
        # radii spread in log Y from the switch (Y = 9) to the underflow
        # cut, within both estimates and 4 ulp for the rounding of the
        # comparison
        fit = specfun._tail_interpolant(nu, power)
        assert len(fit) == 1 and fit[0][4].size >= 61
        a0 = nu ** (nu / (1.0 - nu)) * (1.0 - nu)
        rs = (np.geomspace(9.0, 795.0, 9)[1:] / a0) ** (1.0 - nu)
        value, err, _ = specfun._tail(nu, rs, 0.0, power)
        want, want_err = specfun._m_tail(nu, rs, 0.0, power)
        ulp = 4.0 * np.spacing(np.maximum(value, want))
        assert np.all(np.abs(value - want) <= err + want_err + ulp)

    def test_series_points_build_no_tail(self):
        # the first evaluation after import builds its order's pieces below
        # the switch, from the series alone; the mass there is the series
        specfun._tail_interpolant.cache_clear()
        specfun._series_interpolant.cache_clear()
        specfun.m_wright(0.25, 1.0)
        specfun._half_mass(0.25, np.array([0.5, 1.0]), 1e-13)
        assert specfun._tail_interpolant.cache_info().currsize == 0
        assert specfun._series_interpolant.cache_info().currsize == 1

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    def test_within_estimate_of_40_digit_references(self, tol):
        # 13 orders, radii from 0 (the pieces below the switch, built from
        # the series) to where M_nu falls below 1e-300, on the
        # interpolated route and, past the switch, on the quadrature it is
        # built from. Below the switch every row is within half its
        # estimate and 1e-12 relative. Past it neither route is held to
        # 1e-12 at nu = 0.99: there the kernel's rounding, amplified by
        # 1/(1-nu) and Y, reaches 1.1e-12 relative in the quadrature, and
        # the interpolant inherits it
        refs = _m_refs()
        assert len(refs) == 13
        for nu, (r, ref) in refs.items():
            # 8 rows from 0 below half the switch
            assert r[0] == 0.0 and (r < 0.5 * specfun.crossover_radius(
                nu)).sum() >= 8, nu
            got = [specfun.m_wright(nu, x, tol) for x in r.tolist()]
            value = np.array([g.value for g in got])
            err = np.array([g.abs_err_estimate for g in got])
            past = r > specfun.crossover_radius(nu)
            method = np.array([g.method for g in got])
            assert (method == np.where(past, "asymptotic", "series")).all()
            # series rows, and tail rows below the retired scan's r*
            rstar = _R_STAR[nu]
            assert (~past).any() and (past & (r <= rstar)).any(), nu
            if nu >= 0.75:  # rows on the piece in r, below Y = 1
                y = specfun._saddle_exponent(nu, r)
                assert (past & (y < 1.0)).any(), nu
            bad = np.abs(value - ref) > err
            assert not bad.any(), (nu, r[bad], value[bad], ref[bad])
            assert ref.min() < 1e-290  # the table reaches the far tail
            near = ~past
            assert np.all(np.abs(value - ref)[near] <= 0.5 * err[near]), nu
            assert np.all(np.abs(value - ref)[near] <= 1e-12 * ref[near]), nu
            if nu != 0.99:
                off = np.abs(value - ref)[past] > 1e-12 * ref[past]
                assert not off.any(), (nu, r[past][off])
            # the quadrature from r*/4 (at r = 0 its prefactor is log 0)
            far = r >= 0.25 * rstar
            value, err = specfun._m_tail(nu, r[far], tol)
            assert not (np.abs(value - ref[far]) > err).any(), nu

    @pytest.mark.parametrize("nu, r, ref", [
        (0.6, 4.823146546637476, 6.185161100010610862604116475790580126024e-5),
        (1 / 3, 8.500032203321362,
         2.693779541306123015042668666500631596506e-5)])
    def test_scan_radius_is_served_within_estimate(self, nu, r, ref):
        # r*(nu) of the scan (40-digit values by make_m_refs.py's methods):
        # the series there was 1.6e-7 and 1.2e-7 relative off, 1.66 and
        # 1.15 times its estimate; the interpolant serves it now
        res = specfun.m_wright(nu, r)
        assert res.method == "asymptotic"
        assert abs(res.value - ref) <= min(res.abs_err_estimate, 1e-12 * ref)

    @pytest.mark.parametrize("nu", SERVED)
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
            runs.append(specfun._tail(0.6, rs, 1e-10, power)[:2])
        for value, err in runs[1:]:
            assert value.tobytes() == runs[0][0].tobytes()
            assert err.tobytes() == runs[0][1].tobytes()

    @given(nu=st.floats(0.0, 0.99, exclude_min=True))
    @example(nu=1e-12)
    @example(nu=2.5e-13)
    @example(nu=5.3e-13)
    @example(nu=1e-3)
    @example(nu=0.97)
    @example(nu=0.98)
    @example(nu=0.99)
    def test_builds_never_raise(self, nu):
        # an order whose build fails keeps the quadrature; RuntimeWarnings
        # are errors in this suite. At 2.5e-13 and 5.3e-13 the quadrature of
        # the mass at r = 32 runs out of panels, as the kernel's
        # rounding next to u = 1 keeps its error above the target: orders up
        # to 1e-11 take `_small_order`
        rs = np.array([0.0, 0.5, 1.0, 1.5, 3.0]) * specfun.crossover_radius(nu)
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
        # radii spread in log Y from the switch to the underflow cut Y = 795
        rstar = specfun.crossover_radius(nu)
        a0 = nu ** (nu / (1.0 - nu)) * (1.0 - nu)
        y = float(specfun._saddle_exponent(nu, rstar)) ** (
            1.0 - np.array(fracs)) * 795.0 ** np.array(fracs)
        rs = (y / a0) ** (1.0 - nu)
        rs = rs[rs > rstar]
        value, err, _ = specfun._tail(nu, rs, 0.0, power)
        want, want_err = specfun._m_tail(nu, rs, 0.0, power)
        assert np.all(np.abs(value - want) <= err + want_err)

    @given(nu=st.floats(0.70, 0.99), power=st.sampled_from([1, 0]),
           fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    @example(nu=0.99, power=1, fracs=[0.0, 0.5, 1.0])
    @example(nu=0.99, power=0, fracs=[0.0, 0.5, 1.0])
    def test_piece_in_r_agrees_with_its_quadrature(self, nu, power, fracs):
        # radii spread evenly in r from the switch to r(Y = 1), the domain
        # of the piece in r; 4 ulp for the rounding of the comparison
        switch = specfun.crossover_radius(nu)
        a0 = nu ** (nu / (1.0 - nu)) * (1.0 - nu)
        r_mid = (1.0 / a0) ** (1.0 - nu)
        rs = switch + np.array(fracs) * (r_mid - switch)
        value, err, _ = specfun._tail(nu, rs, 0.0, power)
        want, want_err = specfun._m_tail(nu, rs, 0.0, power)
        ulp = 4.0 * np.spacing(np.maximum(value, want))
        assert np.all(np.abs(value - want) <= err + want_err + ulp)


# the orders of tests/data/make_m_refs.py
_REF_ORDERS = tuple(_R_STAR)


class TestSeriesInterpolant:
    def test_which_orders_fall_back(self):
        # every order on the 0.0025 grid over [0.01, 0.99] builds its pieces
        # on [0, switch], one or two of them; orders below 0.01 (switch not
        # halved) keep the series
        fallback, pieces = [], set()
        for nu in np.linspace(0.01, 0.99, 393).tolist():
            fit = specfun._series_interpolant(nu)
            if fit is None:
                fallback.append(nu)
                continue
            pieces.add(len(fit))
            assert fit[-1][:2] == (0.0, 0.0)
            assert fit[0][2] == specfun.crossover_radius(nu)
            if len(fit) == 2:  # split where Y = 2.5, below the switch
                assert fit[0][0] == fit[0][1] == fit[1][2]
                assert fit[1][5] < 1e-12
        assert fallback == []
        assert pieces == {1, 2}
        for nu in (1e-12, 1e-3, 0.0099):
            assert specfun._series_interpolant(nu) is None

    def test_pieces_keep_few_coefficients(self):
        # below the switch the series' rounding floor stays low enough that
        # no piece on the 0.0025 grid over [0.01, 0.99] needs more than 20
        # coefficients or has rel above 1.7e-11 (at most 62 and 6.7e-11
        # with the switch at half the rounding-floor scan's radius)
        most, worst = 0, 0.0
        for nu in np.linspace(0.01, 0.99, 393).tolist():
            for _, _, _, _, c, rel in specfun._series_interpolant(nu):
                most, worst = max(most, c.size), max(worst, rel)
        assert most <= 24 and worst < 3e-11, (most, worst)

    @pytest.mark.parametrize("nu", _REF_ORDERS)
    def test_estimates_are_not_loosened(self, nu):
        # wherever the series' own estimate at tol 1e-12 is within 1e-13
        # relative, the piece's is within 1e-12
        rs = np.linspace(0.0, specfun.crossover_radius(nu), 201)
        v, trunc, cancel = specfun._sum_series(-nu, 1.0 - nu, -rs, 1e-12)
        tight = (trunc + cancel) <= 1e-13 * v
        assert tight.any()
        value, err, method = specfun._m_wright_array(nu, rs, 1e-12)
        assert (method == "series").all()
        assert np.all(err[tight] <= 1e-12 * value[tight]), rs[tight][
            err[tight] > 1e-12 * value[tight]]

    @given(nu=st.floats(0.01, 0.99),
           fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    @example(nu=0.01, fracs=[0.0, 0.5, 0.53, 1.0])
    @example(nu=0.5, fracs=[0.0, 1.0])
    def test_block_matches_points_and_ignores_tol(self, nu, fracs):
        # m_wright_values equals the per-point m_wright value and estimate
        # bit for bit, whatever the block holds, and the estimate does not
        # depend on tol
        switch = specfun.crossover_radius(nu)
        rs = np.array(fracs) * switch
        rs = np.concatenate((rs, [switch, np.nextafter(switch, 0.0)]))
        block = specfun.m_wright_values(nu, rs)
        for r, v in zip(rs.tolist(), block.tolist()):
            got = {specfun.m_wright(nu, r, tol)
                   for tol in (1e-8, 1e-10, 1e-12)}
            assert len(got) == 1, r
            (res,) = got
            assert res.value == v and res.method in ("series", "closed_form")
        value, err, _ = specfun._m_wright_array(nu, rs, 1e-10)
        for i, r in enumerate(rs.tolist()):
            one = specfun._m_wright_array(nu, r, 1e-10)
            assert (one[0][0], one[1][0]) == (value[i], err[i])

    @pytest.mark.parametrize("nu", [0.05, 0.25, 0.75, 0.9, 0.99])
    def test_logs_are_the_values_exponents(self, nu):
        # the log route reads the same pieces: exp of its log is the value
        # bit for bit, and past Y = 795, where M_nu underflows to 0, the log
        # runs on down the saddle-point form
        a0 = nu ** (nu / (1.0 - nu)) * (1.0 - nu)
        switch = specfun.crossover_radius(nu)
        rs = np.concatenate((np.linspace(0.0, 3.0 * switch, 40),
                             (np.array([700.0, 790.0]) / a0) ** (1.0 - nu)))
        value, err, _, log_m, rel = specfun._m_wright_array(nu, rs, 1e-12,
                                                            logs=True)
        assert np.array_equal(np.exp(log_m), value)
        assert np.array_equal(np.maximum(value * rel, 1e-300), err)
        far = (np.array([900.0, 1200.0, 1e4]) / a0) ** (1.0 - nu)
        _, _, method, log_m, rel = specfun._m_wright_array(nu, far, 1e-12,
                                                           logs=True)
        assert (specfun.m_wright_values(nu, far) == 0.0).all()
        v, e = specfun._m_tail(nu, far, 0.0, scaled=True)
        want = np.log(v) - specfun._saddle_exponent(nu, far)
        assert np.all(np.abs(log_m - want) <= rel + e / v + 1e-12 * np.abs(
            want)), (log_m - want, rel)
        assert (method == "asymptotic").all()


class TestSmallOrders:
    @pytest.mark.parametrize("nu", [1e-11, 3e-12, 2.5e-13, 1e-15])
    @pytest.mark.parametrize("power", [1, 0])
    def test_first_order_form_within_both_estimates(self, nu, power):
        # e^-r (1 + gamma nu (r - power)) against the series up to r = 3 and
        # the quadrature from r = 6, within both estimates
        mu = 1.0 - nu if power else 1.0
        rs = np.array([0.0, 0.25, 1.0, 2.0, 3.0])
        want, trunc, cancel = specfun._sum_series(-nu, mu, -rs, 1e-16)
        got = specfun._small_order(nu, rs, power)
        assert np.all(np.abs(got - want)
                      <= trunc + cancel + 4.0 * specfun._EPS * got)
        if nu != 2.5e-13:  # where the quadrature runs out of panels
            rs = np.array([6.0, 10.0, 20.0, 50.0, 100.0, 200.0])
            want, err = specfun._m_tail(nu, rs, 0.0, power)
            got = specfun._small_order(nu, rs, power)
            assert np.all(np.abs(got - want) <= err + 4.0 * specfun._EPS * got)

    def test_the_failing_marginal_is_served(self):
        # the order and radius where the mass quadrature ran out of panels
        from mwright import ggbm
        got = ggbm.marginal_cdf(1.0, 5.3e-13, 32.0, 1.0)
        assert got == pytest.approx(1.0 - 0.5 * math.exp(-32.0), abs=1e-16)
        value, err = specfun._half_mass(2.5e-13, np.array([32.0]), 1e-13)
        assert value[0] == pytest.approx(math.exp(-32.0), rel=1e-10)
        res = specfun.m_wright(2.5e-13, 32.0)
        assert res.method == "limit_case"


def _airy_reference(x):
    """M_(1/3)(x) by the two hypergeometric-type power series that scipy's
    Airy function replaced, kept as a cross-check: (value, estimate),
    NonConvergence where it fails."""
    c1 = float(rgamma(2.0 / 3.0))
    c2 = float(rgamma(1.0 / 3.0))
    x3 = x ** 3 if abs(x) < 1e100 else math.inf

    def part(j):
        total = t = x ** j
        size = abs(t)
        m = 0
        while abs(t) > 1e-16 * max(abs(total), 1.0) and m < 300:
            k = 3 * m + j
            t *= ((j + 1) / 3.0 + m) * x3 / ((k + 1) * (k + 2) * (k + 3))
            total += t
            size += abs(t)
            m += 1
        if m == 300 or not math.isfinite(size):
            raise NonConvergence(x)
        return total, size

    (p0, s0), (p1, s1) = part(0), part(1)
    return c1 * p0 - c2 * p1, 8.0 * specfun._EPS * (c1 * s0 + c2 * s1)


class TestShortBlocks:
    """Blocks shorter than the cutoff take loops in Python floats; they
    must give the bits of one array, whatever the block."""

    CUT = specfun._SHORT_BLOCK

    @given(c=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=65),
           x=st.lists(st.floats(-1.0, 1.0) | st.floats(-1e3, -1.0),
                      max_size=specfun._SHORT_BLOCK + 1))
    @example(c=[0.5], x=[-0.0, 0.0, -1.0, 1.0, -2.5])
    @example(c=[-0.0], x=[-0.5, 0.5])
    @example(c=[1.0, -2.0], x=[0.3, -7.0])
    @example(c=[1.0, 0.5, 0.25], x=[])
    def test_float_clenshaw_is_numpys_chebval(self, c, x):
        # x < -1 is where the piece in 1/Y runs on past its end (Y past
        # 795); `_clenshaw` on the whole array and point by point in
        # Python floats, at every block size
        x_array = np.array(x, dtype=float)
        want = chebval(x_array, c).tobytes()
        assert specfun._clenshaw(x_array, c).tobytes() == want
        floats = np.array([specfun._clenshaw(xi, c) for xi in x])
        assert floats.astype(float).tobytes() == want

    def test_gaussian_point_is_the_half_order_block(self):
        # verify's grid: the closed form at one point has the bits of
        # M_(1/2)'s block route, which 50 of these points missed in the
        # last bit when the point was taken in Python floats
        zs = np.arange(-5.0, 5.0 + 1e-12, 0.01)
        block = specfun.m_wright_values(0.5, np.abs(zs))
        for z, want in zip(zs.tolist(), block.tolist()):
            assert (specfun.m_wright_special(2, z).value
                    == specfun.m_wright_values(0.5, [abs(z)])[0] == want), z

    @pytest.mark.parametrize("nu", [0.05, 0.25, 0.9, 0.99])
    def test_pieces_read_alike_below_and_above_the_cutoff(self, nu):
        # one block past the cutoff (numpy) against the same points in
        # blocks below it (floats), on every piece and the gaps between
        switch = specfun.crossover_radius(nu)
        rs = np.linspace(0.0, switch, 3 * self.CUT + 1)
        ws = np.linspace(0.5 * switch, 4.0 * switch, 3 * self.CUT + 1)
        ss = np.concatenate((np.linspace(0.0, 8.0, 2 * self.CUT),
                             np.geomspace(8.0, 1024.0, self.CUT)))
        cases = [(specfun._series_interpolant(nu), rs, rs),
                 (specfun._tail_interpolant(nu, 1), ws,
                  specfun._saddle_exponent(nu, ws)),
                 (specfun._ml_interpolant(nu), ss, ss)]
        for fit, w, key in cases:
            whole = specfun._read_pieces(fit, w, key)
            assert not whole[0].all() or fit[-1][0] <= key.min()
            for size in (1, 7, self.CUT - 1):
                parts = [specfun._read_pieces(fit, w[i:i + size],
                                              key[i:i + size])
                         for i in range(0, w.size, size)]
                for k in range(3):
                    got = np.concatenate([p[k] for p in parts])
                    assert got.tobytes() == whole[k].tobytes(), (size, k)

    @pytest.mark.parametrize("nu", [0.05, 0.25, 0.9, 0.99])
    @pytest.mark.parametrize("power", [1, 0])
    def test_run_on_reads_alike_in_any_block(self, nu, power):
        # past Y = 795 the piece in 1/Y runs on, with rel times |T_K(x)|:
        # blocks below the cutoff (floats) read it with the bits of one
        # block past it (numpy), on M_nu (power=1) and its mass (power=0)
        fit = specfun._tail_interpolant(nu, power)
        a0 = nu ** (nu / (1.0 - nu)) * (1.0 - nu)
        ys = np.concatenate((np.geomspace(600.0, 795.0, self.CUT),
                             np.geomspace(795.0, 1e8, 2 * self.CUT + 1)))
        ws = (ys / a0) ** (1.0 - nu)
        key = specfun._saddle_exponent(nu, ws)
        whole = specfun._read_pieces(fit, ws, key)
        assert whole[0].all()
        assert (whole[2][key > 795.0] > fit[0][5]).all()
        assert (whole[2][key < 795.0] == fit[0][5]).all()
        for size in (1, 7, self.CUT - 1, 2 * self.CUT):
            parts = [specfun._read_pieces(fit, ws[i:i + size], key[i:i + size])
                     for i in range(0, ws.size, size)]
            for k in range(3):
                got = np.concatenate([p[k] for p in parts])
                assert got.tobytes() == whole[k].tobytes(), (size, k)

    def test_airy_block_is_the_scalar_loop(self):
        # the verify sweep's grid and random |z| <= 12, as long blocks,
        # short ones down to size 0 and point by point: one elementwise
        # call, so the same bits; the retired power series agrees within
        # the sum of both estimates
        grid = np.arange(-5.0, 5.0 + 1e-12, 0.01)
        rand = np.random.default_rng(5).uniform(-12.0, 12.0, 400)
        for zs in (grid, rand, rand[:self.CUT], rand[:self.CUT - 1],
                   rand[:1], rand[:0]):
            value, err = specfun._airy_m(zs)
            want = [specfun.m_wright_special(3, z) for z in zs.tolist()]
            assert value.tobytes() == np.array(
                [r.value for r in want], dtype=float).tobytes()
            assert err.tobytes() == np.array(
                [r.abs_err_estimate for r in want], dtype=float).tobytes()
        for z in rand.tolist():
            value, err = specfun._airy_m(z)
            series, series_err = _airy_reference(z)
            assert abs(value - series) <= err + series_err, z

    @pytest.mark.parametrize("bad", [200.0, -200.0, 1e100, -1e100, 1e300])
    @pytest.mark.parametrize("size", [1, specfun._SHORT_BLOCK - 1,
                                      specfun._SHORT_BLOCK, 200])
    def test_airy_raises_inside_a_block(self, bad, size):
        # where the retired series raised, a block holds each point's own
        # value and estimate: 0 past the underflow (2.7e-474 at z = 200),
        # 0.2164... at -200; NonConvergence only below z = -1.51e6
        zs = np.linspace(-5.0, 5.0, size)
        zs[size // 2] = bad
        if bad < -1.51e6:
            with pytest.raises(NonConvergence):
                specfun._airy_m(zs)
            with pytest.raises(NonConvergence):
                specfun.m_wright_special(3, bad)
            return
        value, err = specfun._airy_m(zs)
        res = specfun.m_wright_special(3, bad)
        assert (value[size // 2], err[size // 2]) == (res.value,
                                                       res.abs_err_estimate)
        ref = 0.2164206141293197424345190178697232113696 if bad < 0 else 0.0
        assert abs(res.value - ref) <= res.abs_err_estimate

    def test_lone_points_skip_the_routes_they_do_not_take(self, monkeypatch):
        # a radius on the pieces below the switch does no tail work (`_tail`
        # returns at once on no radius), and an argument on the E_nu(-s)
        # pieces sums no Taylor series (once the pieces are built)
        for nu in (0.25, 0.75):
            specfun.m_wright(nu, 0.0)
        specfun.mittag_leffler_neg(0.25, 7.3)

        def refuse(*args, **kwargs):
            raise AssertionError("route called with no argument")

        for name in ("_tail_interpolant", "_saddle_exponent", "_m_tail",
                     "_series_terms", "_sum_series"):
            monkeypatch.setattr(specfun, name, refuse)
        for nu in (0.25, 0.75):
            specfun.m_wright(nu, 0.5 * specfun.crossover_radius(nu))
            specfun.m_wright_values(nu, [0.0, 0.1])
        assert specfun.mittag_leffler_neg(0.25, 7.3).method == "asymptotic"


class TestNodeBuildFallbacks:
    """An interpolant whose nodes fail is None, and its order then reads
    the engines the pieces are built from, bit for bit."""

    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        caches = (specfun._series_interpolant, specfun._tail_interpolant,
                  specfun._ml_interpolant)
        for cache in caches:
            cache.cache_clear()
        yield
        for cache in caches:
            cache.cache_clear()

    def test_non_positive_series_node(self, monkeypatch):
        nu, engine = 0.3, specfun._sum_series

        def spoilt(*args):
            v, trunc, cancel = engine(*args)
            v[-1] = 0.0
            return v, trunc, cancel

        with monkeypatch.context() as patch:
            patch.setattr(specfun, "_sum_series", spoilt)
            assert specfun._series_interpolant(nu) is None
        rs = np.linspace(0.0, specfun.crossover_radius(nu), 9)
        value, err, method = specfun._m_wright_array(nu, rs, 1e-12)
        v, trunc, cancel = engine(-nu, 1.0 - nu, -rs, 1e-12)
        assert value.tobytes() == v.tobytes()
        assert err.tobytes() == (trunc + cancel).tobytes()
        assert (method == "series").all()

    def test_non_finite_tail_node(self, monkeypatch):
        nu, engine = 0.3, specfun._m_tail

        def spoilt(*args, **kwargs):
            v, e = engine(*args, **kwargs)
            v[0] = math.inf
            return v, e

        with monkeypatch.context() as patch:
            patch.setattr(specfun, "_m_tail", spoilt)
            assert specfun._tail_interpolant(nu, 1) is None
        switch = specfun.crossover_radius(nu)
        rs = np.linspace(1.01 * switch, 8.0 * switch, 9)
        value, err, method = specfun._m_wright_array(nu, rs, 1e-12)
        v, e = engine(nu, rs, 1e-12)
        assert value.tobytes() == v.tobytes()
        assert err.tobytes() == e.tobytes()
        assert (method == "asymptotic").all()

    @pytest.mark.parametrize("failure", ["raises", "zero node"])
    def test_failing_spectral_node(self, monkeypatch, failure):
        nu, engine = 0.6, specfun._ml_spectral

        def spoilt(*args):
            if failure == "raises":
                raise QuadratureFailure("spoilt node")
            v, e = engine(*args)
            v[0] = 0.0
            return v, e

        with monkeypatch.context() as patch:
            patch.setattr(specfun, "_ml_spectral", spoilt)
            assert specfun._ml_interpolant(nu) is None
        # the Taylor series where it meets tol, the spectral integral past it
        s = np.array([0.5, 1.0, 2.0, 50.0, 500.0])
        value, err, method = specfun._ml_array(nu, s, 1e-12)
        taylor = method == "series"
        assert taylor[:3].all() and (method[3:] == "asymptotic").all()
        terms = specfun._series_terms(nu, 1.0, -s[:3], factorial=False)
        want = specfun._apply_stopping_rule(terms, 1e-13)[0]
        assert value[:3].tobytes() == want.tobytes()
        v, e = engine(nu, s[3:], 1e-12)
        assert value[3:].tobytes() == v.tobytes()
        assert err[3:].tobytes() == e.tobytes()
