"""Transform-pair oracle tests: quadrature vs closed forms."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mwright import oracles, specfun
from mwright.errors import InvalidArgument, InvalidPair

M_ENV_HALF = specfun.m_wright_envelope(0.5)


def m_half(r):
    return specfun.m_wright_values(0.5, r)


class TestLaplace:
    def test_plain_exponential(self):
        got = oracles.laplace_numeric(lambda r: np.exp(-np.asarray(r)), 1.0)
        assert_allclose(got, 0.5, atol=1e-10)

    def test_m_wright_gives_mittag_leffler(self):
        got = oracles.laplace_numeric(m_half, 1.0, tail_bound=M_ENV_HALF)
        assert_allclose(got, 0.42758357615580700441, atol=1e-9)

    def test_small_s_limit_is_first_moment(self):
        got = oracles.laplace_numeric(
            lambda r: np.asarray(r) * m_half(r), 1e-8,
            tail_bound=lambda r: r * M_ENV_HALF(r))
        assert_allclose(got, 2.0 / math.sqrt(math.pi), atol=1e-6)


class TestFourierCosine:
    def test_zero_frequency_is_mass(self):
        got = oracles.fourier_cosine_numeric(
            lambda r: specfun.m_wright_values(0.25, r), 0.0,
            tail_bound=specfun.m_wright_envelope(0.25))
        assert_allclose(got, 1.0, atol=1e-9)

    def test_half_order_reduces_to_exponential(self):
        got = oracles.fourier_cosine_numeric(m_half, 1.0,
                                             tail_bound=M_ENV_HALF)
        assert_allclose(got, math.exp(-1.0), atol=1e-9)

    def test_quarter_order(self):
        got = oracles.fourier_cosine_numeric(
            lambda r: specfun.m_wright_values(0.25, r), 2.0,
            tail_bound=specfun.m_wright_envelope(0.25))
        want = specfun.mittag_leffler_neg(0.5, 4.0).value
        assert_allclose(got, want, atol=1e-6)


class TestTransformVariables:
    @pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf])
    def test_mellin_needs_finite_positive_s(self, s):
        with pytest.raises(InvalidArgument):
            oracles.mellin_numeric(lambda r: np.exp(-np.asarray(r)), s)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
    def test_cosine_needs_finite_kappa(self, kappa):
        with pytest.raises(InvalidArgument):
            oracles.fourier_cosine_numeric(m_half, kappa,
                                           tail_bound=M_ENV_HALF)

    @pytest.mark.parametrize("s", [0.0, -2.0, math.nan])
    def test_laplace_needs_positive_s(self, s):
        with pytest.raises(InvalidArgument):
            oracles.laplace_numeric(m_half, s, tail_bound=M_ENV_HALF)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(InvalidArgument, match="tol"):
            oracles.laplace_numeric(m_half, 1.0, tol=tol)
        with pytest.raises(InvalidArgument, match="tol"):
            oracles.verify_pair("L_4_7", points=[{"nu": 0.5, "s": 1.0}],
                                tol=tol)


class TestMellin:
    def test_gamma_by_definition(self):
        got = oracles.mellin_numeric(lambda r: np.exp(-np.asarray(r)), 2.0)
        assert_allclose(got, 1.0, atol=1e-9)

    def test_m_half_third_mellin_moment(self):
        got = oracles.mellin_numeric(m_half, 3.0, tail_bound=M_ENV_HALF)
        assert_allclose(got, 2.0, atol=1e-9)

    def test_three_quarters(self):
        # Gamma(3/2)/Gamma(11/8), reference Gamma ratio to 1e-10
        got = oracles.mellin_numeric(
            lambda r: specfun.m_wright_values(0.75, r), 1.5,
            tail_bound=specfun.m_wright_envelope(0.75))
        assert_allclose(got, 0.99697760975117351016, atol=1e-9)


class TestTwoVariableDensity:
    def test_scaled_gaussian(self):
        assert_allclose(oracles.m2(0.5, 0.0, 4.0), 0.28209479177387814347,
                        rtol=1e-13)

    def test_unit_time_reduces(self):
        assert oracles.m2(0.3, 1.2, 1.0) == pytest.approx(
            specfun.m_wright(0.3, 1.2).value, rel=1e-14)

    def test_gaussian_point(self):
        assert_allclose(oracles.m2(0.5, 1.0, 1.0), 0.43939128946772239705,
                        rtol=1e-13)


class TestSubordination:
    def test_half_half(self):
        rep = oracles.subordination_check(0.5, 0.5, 1.0, 1.0)
        assert rep.max_abs_residual < 1e-6
        assert rep.pair_id == "SUB_4_18"

    def test_near_unit_factor(self):
        rep = oracles.subordination_check(0.5, 0.99, 1.0, 1.0, tol=1e-6)
        assert rep.max_abs_residual < 1e-4

    def test_origin_closed_form(self):
        # at x=0 the composed density is t^(-nu)/Gamma(1-nu)
        rep = oracles.subordination_check(0.5, 0.5, 0.0, 1.0)
        assert rep.max_abs_residual < 1e-7

    def test_report_serializes(self):
        rep = oracles.subordination_check(0.4, 0.6, 0.5, 2.0)
        doc = json.loads(rep.to_json())
        assert doc["pair_id"] == "SUB_4_18"
        assert doc["samples"] == 1
        assert doc["max_abs_residual"] >= 0.0

    @pytest.mark.parametrize("lam,mu", [(0.3, 0.7), (0.6, 0.4)])
    def test_residual_shrinks_with_tol(self, lam, mu):
        loose = oracles.subordination_check(lam, mu, 1.0, 1.0,
                                            tol=1e-3).max_abs_residual
        tight = oracles.subordination_check(lam, mu, 1.0, 1.0,
                                            tol=1e-9).max_abs_residual
        assert tight <= max(loose, 1e-10)
        assert tight < 1e-8


@pytest.mark.parametrize("pair_id", [p for p in oracles.PAIR_IDS
                                     if p != "SUB_4_18"])
def test_pair_matrix(pair_id):
    rep = oracles.verify_pair(pair_id, tol=1e-7)
    assert rep.samples >= 9
    assert rep.max_abs_residual < 1e-6


def _residual(pair_id, point):
    return oracles.verify_pair(pair_id, points=[point],
                               tol=1e-8).max_abs_residual


def test_pair_single_point_values():
    # spot values behind the grid: exp(-sqrt(s)) for the stable pair
    assert _residual("L_4_1", {"nu": 0.5, "s": 1.0}) < 1e-7
    # trivial kappa=0 case of the symmetric-density Fourier pair
    assert _residual("F_4_17", {"nu": 0.3, "kappa": 0.0, "t": 1.7}) < 1e-7


def test_unknown_pair_rejected():
    with pytest.raises(InvalidPair):
        oracles.verify_pair("L_9_9")


def test_selfsimilar_rescaling_of_pair_residuals():
    # residuals of the t-Laplace pair stay at noise level under the
    # joint rescaling t -> c t, x -> c^nu x, s -> s/c
    nu, c = 0.5, 2.0
    base = _residual("L_4_15", {"nu": nu, "s": 1.0, "x": 1.0})
    scaled = _residual("L_4_15", {"nu": nu, "s": 1.0 / c, "x": c ** nu * 1.0})
    assert base < 1e-7 and scaled < 1e-7


def test_nan_residual_is_reported(monkeypatch):
    # one NaN closed form must not vanish behind max() over the grid
    monkeypatch.setattr(specfun, "mittag_leffler_neg",
                        lambda nu, s, tol: specfun.EvalResult(
                            math.nan, math.nan, "closed_form"))
    points = [{"nu": 0.5, "s": 1.0}, {"nu": 0.5, "s": 2.0}]
    assert math.isnan(oracles.verify_pair("L_4_7", points=points,
                                          tol=1e-6).max_abs_residual)


@pytest.mark.parametrize("pair_id", oracles.PAIR_IDS)
def test_empty_grid_is_not_a_pass(pair_id):
    with pytest.raises(InvalidArgument):
        oracles.verify_pair(pair_id, points=[])


@pytest.mark.parametrize("pair_id,point,missing", [
    ("L_4_1", {"nu": 0.5}, "s"),
    ("F_4_11", {"s": 1.0}, "nu"),
    ("L_4_16", {"nu": 0.5, "s": 1.0}, "t"),
    ("SUB_4_18", {"lambda": 0.5, "mu": 0.5, "x": 1.0}, "t"),
])
def test_malformed_point_names_missing_parameter(pair_id, point, missing,
                                                 monkeypatch):
    # checked before any quadrature: the good first point is not run
    monkeypatch.setattr(oracles.quadrature, "integrate_to_inf", None)
    good = oracles._PAIRS[pair_id].grid[0]
    with pytest.raises(InvalidArgument, match=repr(missing)):
        oracles.verify_pair(pair_id, points=[good, point])


def test_default_grids_and_order():
    assert oracles.PAIR_IDS == ("L_4_1", "L_4_2", "L_4_7", "F_4_11",
                                "M_4_13", "L_4_15", "L_4_16", "F_4_17",
                                "SUB_4_18")
    for pid in oracles.PAIR_IDS:
        grid = oracles._PAIRS[pid].grid
        assert len(grid) == 9 and len({tuple(p.items()) for p in grid}) == 9
