"""Independent quadrature oracles for the transform pairs of the M-Wright family.

Laplace, Fourier-cosine and Mellin transforms are computed numerically with
the in-house adaptive Gauss-Kronrod rule and compared against the closed
forms, so every identity used elsewhere in the package is checked without
trusting the series evaluators it is checked against. The pairs themselves
are data: one row of `_PAIRS` per pair id, all integrated by one driver.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import greens, quadrature, specfun
from .errors import InvalidArgument, InvalidOrder, InvalidPair


@dataclass
class PairReport:
    """Result of verifying one transform pair over a parameter grid."""

    pair_id: str
    params: dict
    max_abs_residual: float
    samples: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))


# transform -> its variable -> (kernel K(r), the bound on |K(r)| that
# scales a tail envelope, widest panel: an eighth of a cosine period)
_KERNELS = {
    "laplace": lambda s: (lambda r: np.exp(-s * r),
                          lambda r: math.exp(-s * r), None),
    "cosine": lambda k: (lambda r: np.cos(k * r), lambda r: 1.0,
                         math.pi / (4.0 * abs(k)) if k != 0.0 else None),
    "mellin": lambda s: (lambda r: r ** (s - 1.0),
                         lambda r: r ** max(s - 1.0, 0.0), None),
}
# resolve the algebraic endpoint behaviour of r^(s-1) at 0
_MELLIN_POINTS = tuple(10.0 ** k for k in range(-12, 0))


def _transform(kind, f, v, tol, tail_bound=None, rtol=1e-12, points=None):
    """int_0^inf K(r) f(r) dr for the kernel K of transform `kind` at v.

    tail_bound, a decreasing envelope of |f| for large r, times the
    kernel's bound places the truncation cut; without it |K f| is probed.
    """
    kernel, kernel_bound, width = _KERNELS[kind](float(v))
    tb = tail_bound and (lambda r: kernel_bound(r) * tail_bound(r))
    val, _ = quadrature.integrate_to_inf(
        lambda r: kernel(np.asarray(r)) * f(np.asarray(r)), 0.0, tol=tol,
        rtol=rtol, tail_bound=tb, points=points, max_panel_width=width)
    return val


def laplace_numeric(f, s: float, tol: float = 1e-10, tail_bound=None) -> float:
    """int_0^inf exp(-s r) f(r) dr, s > 0, to absolute accuracy tol.

    f is vectorized and decays at least exponentially or is dominated by
    tail_bound, a decreasing envelope of |f| for large r that (times
    exp(-s r)) places the truncation cut; without it the product is probed.
    """
    if not s > 0.0:
        raise InvalidArgument("Laplace variable must be positive")
    return _transform("laplace", f, s, tol, tail_bound)


def fourier_cosine_numeric(f, kappa: float, tol: float = 1e-10,
                           tail_bound=None) -> float:
    """int_0^inf cos(kappa r) f(r) dr with oscillation-safe panel sizing."""
    if not math.isfinite(kappa):
        raise InvalidArgument("cosine-transform variable must be finite")
    return _transform("cosine", f, kappa, tol, tail_bound)


def mellin_numeric(f, s: float, tol: float = 1e-10, tail_bound=None) -> float:
    """int_0^inf r^(s-1) f(r) dr; caller guarantees convergence at both ends."""
    if not 0.0 < s < math.inf:
        raise InvalidArgument("Mellin variable must be finite and positive")
    return _transform("mellin", f, s, tol, tail_bound, points=_MELLIN_POINTS)


def _m2_values(nu, xs, t):
    scale = t ** (-nu)
    return scale * specfun.m_wright_values(nu, np.asarray(xs) * scale)


def m2(nu, x: float, t: float) -> float:
    """Two-variable density t^(-nu) M_nu(x t^(-nu)); in x it integrates to 1."""
    nu = specfun._as_nu(nu)
    greens._time(t)
    if x < 0.0:
        raise InvalidArgument("x must be >= 0")
    return float(_m2_values(nu, float(x), t))


def subordination_check(lambda_, mu_, x: float, t: float,
                        tol: float = 1e-8) -> PairReport:
    """Check the subordination integral against the composed density.

    int_0^inf M2_lambda(x, tau) M2_mu(tau, t) dtau must equal
    M2_(lambda*mu)(x, t).
    """
    lam, mu = specfun._as_nu(lambda_), specfun._as_nu(mu_)
    if not (0.0 < lam < 1.0 and 0.0 < mu < 1.0):
        raise InvalidOrder("subordination orders must lie in (0, 1)")
    greens._time(t)
    x = float(x)

    def integrand(tau):
        return _m2_values(lam, x, tau) * _m2_values(mu, tau, t)

    # sup of the first factor's M part; the peak exceeds M(0) for orders
    # past 1/2, so measure it rather than assume the origin value
    lam_peak = 1.2 * float(np.max(specfun.m_wright_values(
        lam, np.linspace(0.0, 2.5, 26))))

    def tail(tau):
        return (tau ** (-lam) * lam_peak + 1e-300) * _m2_env_in_x(tau, mu, t)

    # resolve the integrable tau^(-lam) behaviour at 0 (x = 0 case)
    lhs, _ = quadrature.integrate_to_inf(
        integrand, 0.0, tol=0.1 * tol, rtol=1e-11, tail_bound=tail,
        points=[10.0 ** k for k in range(-10, 1)])
    return PairReport("SUB_4_18", {"lambda": lam, "mu": mu, "x": x, "t": t},
                      abs(lhs - m2(lam * mu, x, t)), 1)


@dataclass(frozen=True)
class _Pair:
    """One row of the transform-pair table: a default grid and a check.

    At a point p, `scale` times the `transform` of integrand(r, **p) at
    p[var], cut where tail(r, **p) allows, must equal closed_form(**p);
    a row with `check` hands the point to check(tol, **p) instead.
    """

    grid: tuple
    transform: str = ""
    var: str = ""
    integrand: Callable | None = None
    tail: Callable | None = None
    closed_form: Callable | None = None
    points: tuple | None = None
    rtol: float = 1e-12
    scale: float = 1.0
    check: Callable | None = None

    def residual(self, p: dict, tol: float) -> float:
        if self.check is not None:
            return self.check(tol, **p)
        lhs = _transform(self.transform, lambda r: self.integrand(r, **p),
                         p[self.var], 0.1 * tol, lambda r: self.tail(r, **p),
                         self.rtol, self.points)
        return abs(self.scale * lhs - self.closed_form(**p))


def _grid(*inner):
    """Every inner point at each of the orders nu = 0.25, 0.5, 0.75."""
    return tuple({"nu": nu, **q} for nu in (0.25, 0.5, 0.75) for q in inner)


def _m2_in_x(x, nu, t=1.0, **_):
    """M2_nu(x, t) as a function of x; M_nu(x) itself at t = 1."""
    return _m2_values(nu, x, t)


def _m2_env_in_x(x, nu, t=1.0, **_):
    return specfun.m_wright_envelope(nu)(x * t ** (-nu)) * t ** (-nu)


def _ml(nu, s):
    return specfun.mittag_leffler_neg(nu, s, 1e-12).value


# resolve the t^(-nu) behaviour of the stable forms at 0
_ORIGIN_POINTS = tuple(10.0 ** k for k in range(-8, 1))
_S3 = ({"s": 0.5}, {"s": 1.0}, {"s": 2.0})
# Laplace in t of M2_nu(x, t)  <->  s^(nu-1) exp(-x s^nu); sup M_nu is
# below 2 M_nu(0) = 2/Gamma(1-nu) at these orders
_L_4_15 = _Pair(
    _grid(*({"s": 1.0, "x": x} for x in (0.5, 1.0, 2.0))), "laplace", "s",
    lambda t, nu, s, x=1.0: _m2_values(nu, x, t),
    lambda t, nu, s, x=1.0: t ** (-nu) / math.gamma(1.0 - nu) * 2.0,
    lambda nu, s, x=1.0: s ** (nu - 1.0) * math.exp(-x * s ** nu),
    _ORIGIN_POINTS, 1e-11)

_PAIRS = {
    # stable density  nu/r^(nu+1) M_nu(1/r^nu)  <->  exp(-s^nu)
    "L_4_1": _Pair(
        _grid(*_S3), "laplace", "s",
        lambda r, nu, s: nu * r ** (-nu - 1.0) * specfun.m_wright_values(
            nu, r ** (-nu)),
        lambda r, nu, s: nu * r ** (-nu - 1.0) / math.gamma(1.0 - nu) * 2.0,
        lambda nu, s: math.exp(-s ** nu), _ORIGIN_POINTS, 1e-11),
    # r^(-nu) M_nu(1/r^nu)  <->  s^(nu-1) exp(-s^nu): L_4_15 at x = 1
    "L_4_2": replace(_L_4_15, grid=_grid(*_S3)),
    # M_nu(r)  <->  E_nu(-s)
    "L_4_7": _Pair(_grid(*_S3), "laplace", "s", _m2_in_x, _m2_env_in_x,
                   _ml),
    # cosine transform of M_nu  <->  E_2nu(-kappa^2)
    "F_4_11": _Pair(
        _grid({"kappa": 0.5}, {"kappa": 1.0}, {"kappa": 2.0}), "cosine",
        "kappa", _m2_in_x, _m2_env_in_x,
        lambda nu, kappa: _ml(2.0 * nu, kappa * kappa)),
    # Mellin transform  <->  Gamma(s)/Gamma(nu(s-1)+1)
    "M_4_13": _Pair(
        _grid({"s": 1.0}, {"s": 1.5}, {"s": 3.0}), "mellin", "s",
        _m2_in_x, _m2_env_in_x, specfun.mellin_m_wright, _MELLIN_POINTS),
    "L_4_15": _L_4_15,
    # Laplace in x of M2_nu(x, t)  <->  E_nu(-s t^nu)
    "L_4_16": _Pair(
        _grid({"s": 0.5, "t": 1.0}, {"s": 1.0, "t": 1.0},
              {"s": 1.0, "t": 2.0}), "laplace", "s", _m2_in_x, _m2_env_in_x,
        lambda nu, s, t: _ml(nu, s * t ** nu)),
    # Fourier of the symmetric M2_nu  <->  2 E_2nu(-kappa^2 t^(2nu)). The
    # time exponent is 2nu: u = x t^(-nu) in the cosine transform scales
    # kappa by t^nu, and the pair must reduce to the Green-function
    # transform E_beta(-kappa^2 t^beta) with beta = 2nu.
    "F_4_17": _Pair(
        _grid({"kappa": 0.5, "t": 1.0}, {"kappa": 1.0, "t": 2.0},
              {"kappa": 2.0, "t": 1.0}), "cosine", "kappa", _m2_in_x,
        _m2_env_in_x, lambda nu, kappa, t: 2.0 * _ml(
            2.0 * nu, kappa * kappa * t ** (2.0 * nu)), scale=2.0),
    # int_0^inf M2_lambda(x, tau) M2_mu(tau, t) dtau  =  M2_(lambda mu)(x, t)
    "SUB_4_18": _Pair(
        tuple({"lambda": lam, "mu": mu, "x": 1.0, "t": 1.0}
              for lam in (0.3, 0.5, 0.7) for mu in (0.3, 0.5, 0.7)),
        check=lambda tol, **p: subordination_check(
            p["lambda"], p["mu"], p["x"], p["t"], tol=tol).max_abs_residual),
}
PAIR_IDS = tuple(_PAIRS)


def verify_pair(pair_id: str, points=None, tol: float = 1e-8) -> PairReport:
    """Verify one transform pair over a grid of parameter points.

    The left side is integrated numerically from the real-domain expression
    and compared against the closed form; the report carries the largest
    absolute residual over the grid (NaN if any residual is NaN). Each
    point must carry every parameter of the pair's default grid.
    """
    if pair_id not in _PAIRS:
        raise InvalidPair(f"unknown pair id {pair_id!r}")
    row = _PAIRS[pair_id]
    points = [dict(p) for p in row.grid] if points is None else list(points)
    if not points:
        raise InvalidArgument(f"{pair_id}: no parameter points to verify")
    names = tuple(row.grid[0])
    for p in points:
        missing = [k for k in names if k not in p]
        if missing:
            raise InvalidArgument(f"{pair_id} point {p} lacks parameter "
                                  f"{', '.join(map(repr, missing))}")
    worst = float(np.max([row.residual({k: p[k] for k in names}, tol)
                          for p in points]))
    return PairReport(pair_id, {"points": points}, worst, len(points))
