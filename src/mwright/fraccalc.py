"""Riemann-Liouville and Caputo operators: power-law rules and grid schemes.

Closed forms for power-law inputs (exact Gamma-ratio arithmetic) plus two
standard discretizations on uniform grids: the product-trapezoidal rule for
the fractional integral and the L1 scheme for the Caputo derivative of
order 0 < mu < 1. Both honour the weakly singular kernel exactly against
piecewise-polynomial data, giving second(-minus) order convergence.

The Laplace-domain rules for these operators are exercised through the
quadrature oracles on concrete power-law inputs only. The initial-value
terms appearing in the Riemann-Liouville transform rule have no computable
home for general sampled data and are deliberately not part of the grid
API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import (gamma as _gamma, gammaln as _gammaln,
                           gammasgn as _gammasgn, rgamma as _rgamma)

from .errors import (InvalidArgument, InvalidExponent, ResultOverflow,
                     UnsupportedOrder)
from .gridfn import GridFunction


@dataclass(frozen=True)
class FracOrder:
    """Fractional order mu > 0 with its integer ceiling m, m-1 < mu <= m."""

    mu: float

    def __post_init__(self):
        if not 0.0 < self.mu < math.inf:
            raise InvalidExponent("fractional order mu must be in (0, inf)")

    @property
    def m(self) -> int:
        return int(math.ceil(self.mu))


def _check_power(mu: float, gamma: float, t: float, kind: str) -> None:
    """Raise InvalidExponent unless mu >= 0, gamma > -1 and t > 0 are all
    finite (a NaN fails every test)."""
    if not -1.0 < gamma < math.inf:
        raise InvalidExponent(f"need finite gamma > -1, got {gamma}")
    if not 0.0 <= mu < math.inf:
        raise InvalidExponent(f"{kind} order must be finite and >= 0")
    if not 0.0 < t < math.inf:
        raise InvalidExponent(f"t must be finite and positive, got {t}")


def _gamma_ratio(a: float, b: float, t: float = 1.0, p: float = 0.0):
    """Gamma(a) / Gamma(b) * t^p for a > 0 and t > 0: the product
    Gamma(a) (1/Gamma(b)) t^p in Python floats where it is finite and not
    0; 1/Gamma's exact 0 where b is a pole of Gamma; elsewhere, where a
    factor or the product left the double range, in logs. ResultOverflow
    where the value leaves the double range (a = inf included)."""
    g, r = float(_gamma(a)), float(_rgamma(b))
    try:
        value = g * r * t ** p
    except OverflowError:  # a Python float's ** raises
        value = math.inf
    if 0.0 < abs(value) < math.inf:
        return value
    if b <= 0.0 and b == math.floor(b):
        return r
    with np.errstate(over="ignore", invalid="ignore"):  # NaN at a = inf
        value = _gammasgn(b) * np.exp(_gammaln(a) - _gammaln(b)
                                      + p * math.log(t))
    if not abs(value) < math.inf:
        raise ResultOverflow(f"Gamma({a})/Gamma({b}) t^{p} at t={t} "
                             f"exceeds the double range")
    return float(value)


def rl_integral_power(mu: float, gamma: float, t: float) -> float:
    """Fractional integral of t^gamma:
    Gamma(gamma+1)/Gamma(gamma+1+mu) * t^(gamma+mu); mu = 0 is the identity.
    Where a factor leaves the double range the ratio and the power are
    taken in logs; ResultOverflow where the value itself does.
    """
    _check_power(mu, gamma, t, "integral")
    return _gamma_ratio(gamma + 1.0, gamma + 1.0 + mu, t, gamma + mu)


def rl_derivative_power(mu: float, gamma: float, t: float) -> float:
    """Riemann-Liouville derivative of t^gamma:
    Gamma(gamma+1)/Gamma(gamma+1-mu) * t^(gamma-mu), in logs where a factor
    leaves the double range; ResultOverflow where the value itself does.

    The reciprocal Gamma makes the result an exact 0 when gamma+1-mu is a
    non-positive integer (derivative of t^(mu-k)).
    """
    _check_power(mu, gamma, t, "derivative")
    return _gamma_ratio(gamma + 1.0, gamma + 1.0 - mu, t, gamma - mu)


def caputo_power(mu: float, gamma: float, t: float) -> float:
    """Caputo derivative of t^gamma.

    Subtracting the Taylor polynomial annihilates the monomials t^k with
    integer k < m, so those give exactly 0 (the derivative of a constant
    stays zero); any other admissible gamma matches the Riemann-Liouville
    value.
    """
    if not (mu > 0.0 and gamma >= 0.0):
        raise InvalidExponent("Caputo needs order mu > 0 and gamma >= 0")
    _check_power(mu, gamma, t, "Caputo")
    m = int(math.ceil(mu))
    is_int = abs(gamma - round(gamma)) < 1e-12
    if is_int and round(gamma) < m:
        return 0.0
    if not (is_int or gamma > m - 1):
        raise InvalidExponent(
            f"gamma={gamma} leaves the Taylor subtraction of order m={m} "
            f"undefined (need integer gamma or gamma > m-1)")
    return rl_derivative_power(mu, gamma, t)


# ---------------------------------------------------------------------------
# grid schemes
# ---------------------------------------------------------------------------

def _prod_trap_pieces(mu: float, nmax: int):
    """Piecewise-linear product-quadrature moments for the kernel u^(mu-1).

    P0[k] = int_{k-1}^{k} u^(mu-1) du,
    P1[k] = int_{k-1}^{k} u^(mu-1) (k - u) du,  k = 1..nmax  (index 0 unused).
    """
    k = np.arange(nmax + 1, dtype=float)
    pk = k ** mu
    pk1 = k ** (mu + 1.0)
    p0 = np.empty(nmax + 1)
    p1 = np.empty(nmax + 1)
    p0[0] = p1[0] = 0.0
    p0[1:] = (pk[1:] - pk[:-1]) / mu
    p1[1:] = k[1:] * p0[1:] - (pk1[1:] - pk1[:-1]) / (mu + 1.0)
    return p0, p1


def rl_integral_grid(f: GridFunction, mu: float) -> GridFunction:
    """Fractional integral of sampled data on a uniform grid from 0.

    Product-trapezoidal convolution quadrature: the kernel (t-tau)^(mu-1)
    is integrated exactly against the piecewise-linear interpolant, so the
    kernel singularity costs no accuracy. Second-order for smooth data.
    """
    if not 0.0 < mu < math.inf:
        raise InvalidExponent("integral order must be finite and positive")
    h = f.require_uniform_from_zero()
    if not np.isfinite(f.ys).all():
        raise InvalidArgument("samples must be finite")
    n = len(f) - 1
    p0, p1 = _prod_trap_pieces(mu, n)
    a = p0[1:] - p1[1:]          # weight of the left node of panel k
    b = p1[1:]                   # weight of the right node of panel k
    v = f.ys
    out = np.zeros(n + 1)
    # I_n = sum_k a_k v_{n-k} + sum_k b_k v_{n-k+1}, k = 1..n
    conv_a = np.convolve(a, v)[: n + 1]        # gives sum a_k v_{n-k} at n>=1
    conv_b = np.convolve(b, v[1:])[: n]        # sum b_k v_{n-k+1}
    out[1:] = conv_a[:-1][: n] + conv_b
    out *= h ** mu * _rgamma(mu)
    meta = f"J^{mu} of ({f.meta})" if f.meta else f"J^{mu}"
    return GridFunction(f.xs.copy(), out, meta)


def caputo_derivative_grid(f: GridFunction, f0: float, mu: float) -> GridFunction:
    """Caputo derivative of order 0 < mu < 1 on a uniform grid (L1 scheme).

    Equivalent to the fractional integral of order 1-mu applied to the
    finite-difference first derivative; converges at order 2-mu against
    smooth data.
    """
    if not 0.0 < mu < 1.0:
        raise UnsupportedOrder("grid Caputo implemented for 0 < mu < 1 only")
    if not math.isfinite(f0):
        raise InvalidArgument(f"need a finite f0, got {f0}")
    h = f.require_uniform_from_zero()
    n = len(f) - 1
    v = f.ys.copy()
    v[0] = float(f0)
    if not np.isfinite(v).all():
        raise InvalidArgument("samples must be finite")
    d = np.diff(v)  # forward differences; piecewise-constant derivative * h
    k = np.arange(n + 1, dtype=float)
    b = k[1:] ** (1.0 - mu) - k[:-1] ** (1.0 - mu)
    out = np.zeros(n + 1)
    out[1:] = np.convolve(b, d)[:n]
    out *= h ** (-mu) * _rgamma(2.0 - mu)
    meta = f"caputo^{mu} of ({f.meta})" if f.meta else f"caputo^{mu}"
    return GridFunction(f.xs.copy(), out, meta)
