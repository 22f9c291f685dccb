"""Evaluation of the Wright function family on the real line.

Covers the general Wright series W_{lam,mu}(z), the auxiliary functions
M_nu and F_nu (Wright functions of the second kind that drive
time-fractional diffusion), and the one-parameter Mittag-Leffler function
E_nu(-s) on the negative real axis.

Two engines serve them all. Every power series (W_{lam,mu}, M_nu, its
mass W_{-nu,1}(-r), the Taylor series of E_nu(-s)) goes through
`_series_terms`, which builds the terms of a block of arguments, a row
each, with one index (lam, mu) for the block or one per row, and
`_apply_stopping_rule`, which stops every row with its truncation and
rounding estimates. Every integral (the stable density for
M_nu and its mass, the spectral integral for E_nu(-s)) has a positive
integrand on (0, 1), taken for all rows at once by `quadrature.adaptive_rows`.

Evaluation strategy for M_nu (m_wright is the one-point case of
m_wright_values, so both share validation and dispatch):

* closed forms for nu = 0 (exp) and nu = 1/2 (Gaussian);
* power series in the reflection-formula form (coefficients 1/Gamma(1-nu*n),
  entire in the index, so no Gamma pole is evaluated) up to the crossover
  radius r*(nu), committed on a 0.01 grid in nu as the scan found it: the
  smallest radius where the series rounding floor (2 eps sum|term|) exceeds
  min(1e-10, 1e-6 times the value);
* beyond r*, the exact one-sided stable-density integral (`_m_tail`),
  served through a per-order Chebyshev interpolant (`_tail_interpolant`)
  of log(M_nu e^Y / (a (nu r)^((nu-1/2)/(1-nu)))), the log of M_nu over
  its saddle-point form, in t = 1/Y on [1/795, 1/Y(r*)], Y = (1-nu)/nu
  (nu r)^(1/(1-nu)). It is built once per order from `_m_tail` itself at
  full relative accuracy, on at most 65 nodes, and evaluated by an
  elementwise Clenshaw recurrence. Its estimate is value x (Lebesgue
  constant x largest node relative estimate + chopped coefficients +
  8 eps (1 + Y)/(1 - nu)), whatever tol asks. Orders whose build does not
  converge or fails (near 0.99, and tiny orders such as 1e-3) keep the
  quadrature at every radius. The mass int_r^inf M_nu takes the same
  route past r*. The leading-order exponential form alone only serves
  envelopes and checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebval as _chebval
from scipy.special import gamma as _gamma, gammaln as _gammaln, rgamma as _rgamma

from . import quadrature
from .errors import (
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

_EPS = float(np.finfo(float).eps)
_TERM_BUDGET = 400
_Y_CUT = 745.0 + 50.0  # Y past which M_nu is below the double underflow
_CHEB_NODES = (17, 33, 65)  # nested Chebyshev extreme points of the tail
_CHEB_CHOP = 1e-13  # a Chebyshev coefficient below this counts as converged
_N = np.arange(_TERM_BUDGET)
NU_MAX = 0.99  # evaluation cap; the peak near r=1 defeats doubles beyond this
# Below the least normal double, nu phi underflows in the stable kernel;
# such orders take the nu = 0 forms, which M_nu meets to about 1e-300.
_NU_ZERO = float(np.finfo(float).tiny)

METHOD_SERIES = "series"
METHOD_ASYMPTOTIC = "asymptotic"
METHOD_CLOSED_FORM = "closed_form"
METHOD_LIMIT_CASE = "limit_case"


@dataclass(frozen=True)
class WrightIndex:
    """Index pair (lam, mu) of the general Wright function, lam > -1."""

    lam: float
    mu: float

    def __post_init__(self):
        if not self.lam > -1.0:
            raise InvalidOrder(f"Wright index requires lam > -1, got {self.lam}")

    @property
    def kind(self) -> str:
        """'first' for lam >= 0, 'second' for -1 < lam < 0."""
        return "first" if self.lam >= 0.0 else "second"


@dataclass(frozen=True)
class AuxIndex:
    """Order nu of the auxiliary functions M_nu / F_nu, nu in [0, 1]."""

    nu: float

    def __post_init__(self):
        if not 0.0 <= self.nu <= 1.0:
            raise InvalidOrder(f"auxiliary order must lie in [0, 1], got {self.nu}")


@dataclass(frozen=True)
class EvalResult:
    """Function value with a truncation/rounding error bound and the method used."""

    value: float
    abs_err_estimate: float
    method: str


def _as_nu(nu) -> float:
    return float(nu.nu) if isinstance(nu, AuxIndex) else float(nu)


# ---------------------------------------------------------------------------
# series engine
# ---------------------------------------------------------------------------

def _log_abs_rgamma(x: np.ndarray) -> np.ndarray:
    """log|1/Gamma(x)| for real x, valid on both axes."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0, -_gammaln(x),
                        np.log(np.abs(np.sin(np.pi * x)) / np.pi)
                        + _gammaln(1.0 - x))


@lru_cache(maxsize=256)
def _coefficients(lam: float, mu: float) -> np.ndarray:
    """1/Gamma(lam*n + mu) for n < 400, read-only and cached per index."""
    rg = _rgamma(lam * _N + mu)
    rg.flags.writeable = False
    return rg


def _per_row(lam, mu, z: np.ndarray):
    """(lam, mu) unchanged when both are scalars, else one entry per z."""
    if np.ndim(lam) == np.ndim(mu) == 0:
        return lam, mu
    return (np.broadcast_to(np.asarray(lam, dtype=float), z.shape),
            np.broadcast_to(np.asarray(mu, dtype=float), z.shape))


def _series_terms(lam, mu, z, factorial: bool = True,
                  rebuild: bool = False, n: int = _TERM_BUDGET) -> np.ndarray:
    """Terms z^k / (k! Gamma(lam*k + mu)), k < n <= 400, a row per entry of z.

    lam and mu are scalars, which read the cached `_coefficients` row, or
    arrays with one entry per entry of z: then 1/Gamma(lam*k + mu) is built
    once per distinct (lam, mu) by the same elementwise expression, so each
    row has the bits of its scalar call. Without the k! the rows hold the
    Mittag-Leffler terms z^k / Gamma(lam*k + mu). Uses the reciprocal Gamma
    (entire, zero at the poles) so no Gamma is ever evaluated at a
    non-positive argument. Entries that are not finite (an overflowing
    1/Gamma or power factor) become +inf, which the stopping rule cannot
    pass. With rebuild=True they are instead resolved in log space, in
    every row where one of them is representable, and set to zero
    elsewhere; a rebuilt term past the double range stays inf.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    lam, mu = _per_row(lam, mu, z)
    if np.ndim(lam) == 0:
        rg = _coefficients(lam, mu)[:n]
    else:
        # distinct pairs by their bits, so -0.0 and 0.0 stay apart
        pairs = np.stack([lam, mu], axis=1)
        _, first, inv = np.unique(pairs.view(np.uint64), axis=0,
                                  return_index=True, return_inverse=True)
        rg = _rgamma(lam[first, None] * _N[:n] + mu[first, None])[inv.ravel()]
    ratio = np.ones((z.size, n))
    ratio[:, 1:] = z[:, None] / (_N[1:n] if factorial else 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.cumprod(ratio, axis=1) * rg
    bad = ~np.isfinite(t)
    if not rebuild:
        t[bad] = np.inf
        return t
    rows, nb = np.nonzero(bad)
    zb = z[rows]
    if np.ndim(lam):
        lam, mu = lam[rows], mu[rows]
    x = lam * nb + mu
    with np.errstate(divide="ignore", invalid="ignore"):
        lt = (nb * np.log(np.abs(zb))
              - (_gammaln(nb + 1.0) if factorial else 0.0)
              + _log_abs_rgamma(x))
    # genuinely representable magnitude lost to overflow splitting:
    # reconstruct from logs (slightly lower per-term accuracy)
    representable = np.zeros(z.size, dtype=bool)
    representable[rows[lt > -700.0]] = True
    # the sign of 1/Gamma(x) by the reflection formula: +1 for x > 0, where
    # rg may have underflowed to 0; sin(pi x) for x <= 0, as rg carries it
    # (0 at the poles)
    rgb = np.broadcast_to(rg, t.shape)[rows, nb]
    sgn = (np.where(x > 0.0, 1.0, np.sign(rgb))
           * np.where(nb % 2 == 0, 1.0, np.sign(zb)))
    # a term past the double range is inf, so its row misses
    with np.errstate(over="ignore", invalid="ignore"):
        t[rows, nb] = np.where(representable[rows] & (sgn != 0.0),
                               sgn * np.exp(lt), 0.0)
    return t


def _apply_stopping_rule(terms: np.ndarray, tol: float, weight=None):
    """Stopping rule per row: three consecutive terms below tol*|partial sum|.

    Returns arrays (value, trunc_err, cancel_err), NaN in every row where
    the rule is not met within the supplied terms or only after a term
    overflowed. cancel_err is 2 eps sum |term| over the terms up to the
    stop, each times weight[n] when a per-term weight is given.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf rows miss
        s = np.cumsum(terms, axis=1)
    absterms = np.abs(terms)
    small = absterms < tol * np.abs(s)
    run3 = small[:, 2:] & small[:, 1:-1] & small[:, :-2]
    k = run3.argmax(axis=1) + 2  # index of the third small term
    value = s[np.arange(len(terms)), k]
    with np.errstate(over="ignore"):  # overflowing rows miss below
        trunc = np.take_along_axis(absterms, k[:, None] - [2, 1, 0], 1).sum(1)
        # rounding floor: every term carries a few-ulp error, and for slowly
        # decaying alternating tables these accumulate with like signs
        absterms[_N[:terms.shape[1]] > k[:, None]] = 0.0
        if weight is not None:
            absterms *= weight[:terms.shape[1]]
        cancel = 2.0 * _EPS * absterms.sum(axis=1)
    miss = ~(run3.any(axis=1) & np.isfinite(value))
    if miss.any():
        for a in (value, trunc, cancel):
            a[miss] = np.nan
    return value, trunc, cancel


def _sum_series(lam, mu, z, tol: float):
    """Stopped Wright series at every z: arrays (value, trunc_err, cancel_err).

    lam and mu are scalars or give one entry per z (see `_series_terms`);
    either way each row has the bits of its own scalar call. Every row is
    first stopped on 64 terms; rows that miss get the 400-term budget,
    then, where a term overflowed, a log-space rebuild, and rows that still
    miss are NaN. The result is the full budget's, bit for bit. A row at
    z = 0 where 1/Gamma(mu) = 0 is the exact (0, 0, 0).
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    lam, mu = _per_row(lam, mu, z)
    out = _apply_stopping_rule(_series_terms(lam, mu, z, n=64), tol)
    for rebuild in (False, True):
        if (miss := np.isnan(out[0])).any():
            idx = (lam, mu) if np.ndim(lam) == 0 else (lam[miss], mu[miss])
            terms = _series_terms(*idx, z[miss], rebuild=rebuild)
            for a, b in zip(out, _apply_stopping_rule(terms, tol)):
                a[miss] = b
    if (miss := np.isnan(out[0])).any():
        # W(0) = 1/Gamma(mu) is exactly 0 at mu = 0, -1, -2, ...: every term
        # is 0, so no partial sum passes the relative rule
        zero = miss & (z == 0.0) & (_rgamma(mu) == 0.0)
        for a in out:
            a[zero] = 0.0
    return out


def wright_series(idx: WrightIndex, z: float, tol: float = 1e-12) -> EvalResult:
    """Sum the defining power series of W_{lam,mu}(z).

    Valid for any finite real z while the stopping rule converges within
    the 400-term budget; second-kind indices stop converging (in double
    precision) once |z| grows, and first-kind ones once the terms peak
    beyond that budget, in which case NonConvergence is raised.

    Parameters
    ----------
    idx : WrightIndex
        Index pair (lam, mu) with lam > -1.
    z : float
        Finite real argument.
    tol : float
        Relative term threshold of the stopping rule.

    Returns
    -------
    EvalResult
    """
    if not isinstance(idx, WrightIndex):
        idx = WrightIndex(*idx)
    if not tol > 0.0:
        raise InvalidArgument("tol must be positive")
    if not math.isfinite(z):
        raise InvalidArgument(f"wright_series argument must be finite, "
                              f"got {z}")
    (value,), (trunc,), (cancel,) = _sum_series(idx.lam, idx.mu, z, tol)
    if np.isnan(value):
        raise NonConvergence(
            f"series for W_({idx.lam},{idx.mu}) at z={z} did not meet the "
            f"stopping rule within {_TERM_BUDGET} terms")
    return EvalResult(float(value), float(trunc + cancel), METHOD_SERIES)


# ---------------------------------------------------------------------------
# large-argument regime
# ---------------------------------------------------------------------------

def m_wright_asymptotic(nu, x: float) -> float:
    """Leading-order exponential form of M_nu for large argument.

    a(nu) * (nu x)^{(nu-1/2)/(1-nu)} * exp(-b(nu) (nu x)^{1/(1-nu)}) with
    a = 1/sqrt(2 pi (1-nu)) and b = (1-nu)/nu. Exact for nu = 1/2; for
    other orders it is the correct envelope but only leading-order
    accurate, so quantitative tail evaluation goes through the stable
    integral instead.
    """
    nu = _as_nu(nu)
    if not 0.0 < nu < 1.0:
        raise InvalidOrder("asymptotic form needs 0 < nu < 1")
    y = nu * float(x)
    if y <= 0.0:
        raise NegativeArgument("asymptotic form needs x > 0")
    if not y < math.inf:
        raise InvalidArgument(f"asymptotic form needs a finite x, got {x}")
    a = 1.0 / math.sqrt(2.0 * math.pi * (1.0 - nu))
    expo = (nu - 1.0) / nu * y ** (1.0 / (1.0 - nu))
    if expo < -745.0:
        return 0.0
    return a * y ** ((nu - 0.5) / (1.0 - nu)) * math.exp(expo)


def m_wright_envelope(nu):
    """Decreasing bound on M_nu(r), 0 < nu < 1, for large r (for tail
    truncation): 10 times the saddle-point term m_wright_asymptotic."""
    nu = _as_nu(nu)
    return lambda r: 10.0 * m_wright_asymptotic(nu, r)


def _kanter_log_a(nu: float, phi: np.ndarray) -> np.ndarray:
    """log A(phi) of the one-sided stable construction, phi in (0, pi).

    A(phi) = [sin(nu phi)^nu sin((1-nu) phi)^(1-nu) / sin(phi)]^(1/(1-nu));
    the same kernel drives both tail evaluation of M_nu and the stable
    variate sampler.
    """
    return (nu * np.log(np.sin(nu * phi))
            + (1.0 - nu) * np.log(np.sin((1.0 - nu) * phi))
            - np.log(np.sin(phi))) / (1.0 - nu)


def _saddle_exponent(nu: float, w: np.ndarray) -> np.ndarray:
    """Y = w^{1/(1-nu)} A(0+) = (1-nu)/nu (nu w)^{1/(1-nu)}, the exponent of
    the saddle-point form a (nu w)^{(nu-1/2)/(1-nu)} e^{-Y} of M_nu."""
    with np.errstate(over="ignore"):  # Y = inf is past the underflow cut
        return w ** (1.0 / (1.0 - nu)) * (nu ** (nu / (1.0 - nu)) * (1.0 - nu))


def _m_tail(nu: float, w: np.ndarray, tol: float, power: int = 1,
            scaled: bool = False):
    """M_nu at every radius w from the exact stable-density integral.

    M_nu(w) = w^{nu/(1-nu)}/(1-nu) * int_0^1 A(pi u) exp(-w^{1/(1-nu)} A(pi u)) du,
    integrated for all radii together. Returns (value, abs_err_estimate).
    power=0 drops A and the prefactor: Zolotarev's mass int_w^inf M_nu.
    scaled=True returns both times e^Y (`_saddle_exponent`), which the
    integrand carries in its exponent, so no radius underflows.
    """
    with np.errstate(over="ignore"):  # c = inf is past the underflow cut
        c = w ** (1.0 / (1.0 - nu))
    y = _saddle_exponent(nu, w)  # c A(0+), A(0+) the kernel's minimum
    value, err = np.zeros(w.size), np.full(w.size, 1e-300)
    # else below the double underflow threshold
    live = np.full(w.size, True) if scaled else y <= _Y_CUT
    if not live.any():
        return value, err
    c, y = c[live], y[live]
    logscale = (power * ((nu / (1.0 - nu)) * np.log(w[live]) - math.log1p(-nu))
                + (y if scaled else 0.0))

    def f(u, rows):
        la = _kanter_log_a(nu, np.pi * u)
        with np.errstate(over="ignore"):
            a = np.exp(np.minimum(la, 700.0))
            out = np.exp(power * la - c[rows, None] * a + logscale[rows, None])
        out[la > 700.0] = 0.0
        return out

    # breakpoints resolving the boundary layer near u = 0 when c*A is large
    width = 1.0 / np.sqrt(1.0 + y)
    pts = np.minimum(1.0 - 1e-9, width[:, None] * 2.0 ** np.arange(-3, 6))
    # relative rounding of the samples: log A carries 1/(1-nu), c*A scales it
    noise = 8.0 * _EPS * (1.0 + y) / (1.0 - nu)
    v, e = quadrature.adaptive_rows(f, 0.0, 1.0, pts, max(1e-300, 0.01 * tol),
                                    np.maximum(1e-13, noise), limit=600)
    value[live], err[live] = v, np.maximum(e + noise * v, 1e-300)
    return value, err


def _log_saddle_factor(nu: float, power: int, w: np.ndarray) -> np.ndarray:
    """log(a (nu w)^p), a = 1/sqrt(2 pi (1-nu)): the factor beside e^{-Y} of
    the saddle-point form of M_nu (power=1, p = (nu-1/2)/(1-nu)) or of its
    mass (power=0, p = -1/(2(1-nu)))."""
    p = (power * nu - 0.5) / (1.0 - nu)
    return p * np.log(nu * w) - 0.5 * math.log(2.0 * math.pi * (1.0 - nu))


def _chebyshev_coefficients(h: np.ndarray) -> np.ndarray:
    """Coefficients c_k of sum_k c_k T_k(x) through the values h at the
    extreme points x_j = cos(pi j/N), j = 0..N (a DCT-I, summed row by row
    so that no BLAS call is made)."""
    big_n = len(h) - 1
    k = np.arange(big_n + 1)
    ends = np.ones(big_n + 1)
    ends[[0, -1]] = 0.5
    c = (np.cos(np.pi * (np.outer(k, k) % (2 * big_n)) / big_n)
         * (ends * h)).sum(axis=1) * (2.0 / big_n)
    return c * ends


@lru_cache(maxsize=256)
def _tail_interpolant(nu: float, power: int):
    """Chebyshev interpolant of the tail past r*(nu), or None.

    Interpolates h(t) = log(M e^Y / (a (nu w)^p)), the log of M_nu
    (power=1) or of its mass (power=0) over its saddle-point form (see
    `_log_saddle_factor`), in t = 1/Y on [1/795, 1/Y(r*)]. The node values
    are `_m_tail` at full relative accuracy on 17, then 33, then 65 nested
    Chebyshev extreme points; the
    first count whose last three coefficients lie below 1e-13 is kept,
    with its trailing coefficients below 1e-13 chopped. Returns (y_hi,
    t_lo, t_hi, coefficients, rel): y_hi = Y(r*), and rel the Lebesgue
    constant times the largest node relative estimate plus the sum of the
    chopped coefficients. None where no count converges or the quadrature
    fails (orders near 1, tiny orders): those keep `_m_tail` at each radius.
    """
    a0 = nu ** (nu / (1.0 - nu)) * (1.0 - nu)
    # Y(r*) by numpy's power, as `_tail` computes Y at every radius
    y_hi = float(_saddle_exponent(nu, np.array(crossover_radius(nu))))
    t_lo, t_hi = 1.0 / _Y_CUT, 1.0 / y_hi
    h, worst = np.empty(0), 0.0
    for n in _CHEB_NODES:
        # the nodes of the previous count are every other node of this one
        j = np.arange(n)[1::2] if h.size else np.arange(n)
        t = t_lo + 0.5 * (t_hi - t_lo) * (1.0 + np.cos(np.pi * j / (n - 1)))
        w = (1.0 / (t * a0)) ** (1.0 - nu)
        try:
            v, e = _m_tail(nu, w, 0.0, power, scaled=True)
        except QuadratureFailure:
            return None
        if not (np.isfinite(v) & (v > 0.0)).all():
            return None
        h = np.insert(np.log(v) - _log_saddle_factor(nu, power, w),
                      np.arange(h.size), h)
        worst = max(worst, float(np.max(e / v)))
        c = _chebyshev_coefficients(h)
        if np.abs(c[-3:]).max() < _CHEB_CHOP:
            big = np.flatnonzero(np.abs(c) >= _CHEB_CHOP)
            keep = min(n - 3, int(big[-1]) + 1 if big.size else 1)
            lebesgue = 1.0 + 2.0 / math.pi * math.log(n)
            rel = lebesgue * worst + float(np.abs(c[keep:]).sum())
            c = c[:keep]
            c.flags.writeable = False
            return y_hi, t_lo, t_hi, c, rel
    return None


def _tail(nu: float, w: np.ndarray, tol: float, power: int = 1):
    """M_nu (power=1) or its mass (power=0) at radii w past r*(nu), as
    `_m_tail` returns them: from `_tail_interpolant` where the order has
    one, with the estimate value x (rel + 8 eps (1 + Y)/(1-nu)), the last
    term the rounding of Y itself; else, and at radii below r*, from
    `_m_tail`. The interpolant's evaluation is elementwise, so every radius
    gets the same bits in a block of any size. No radius, no build."""
    fit = _tail_interpolant(nu, power) if w.size else None
    if fit is None:
        return _m_tail(nu, w, tol, power)
    y_hi, t_lo, t_hi, coef, rel = fit
    y = _saddle_exponent(nu, w)
    served = y >= y_hi
    value, err = np.zeros(w.size), np.full(w.size, 1e-300)
    if not served.all():
        value[~served], err[~served] = _m_tail(nu, w[~served], tol, power)
    live = served & (y <= _Y_CUT)  # else below the double underflow threshold
    wl, yl = w[live], y[live]
    x = (2.0 * np.clip(1.0 / yl, t_lo, t_hi) - (t_lo + t_hi)) / (t_hi - t_lo)
    v = np.exp(_chebval(x, coef) + _log_saddle_factor(nu, power, wl) - yl)
    value[live] = v
    err[live] = np.maximum(
        v * (rel + 8.0 * _EPS * (1.0 + yl) / (1.0 - nu)), 1e-300)
    return value, err


# ---------------------------------------------------------------------------
# crossover table
# ---------------------------------------------------------------------------

def _scan_radii() -> list:
    """The scan's radii 0.5 * 1.12^k up to 80, by repeated multiplication."""
    rs = [0.5]
    while rs[-1] * 1.12 <= 80.0:
        rs.append(rs[-1] * 1.12)
    return rs


def _scan_crossover(nu: float) -> float:
    """Smallest radius where the series rounding floor crosses its cap.

    All radii of `_scan_radii` are summed in one block; the scan returns
    the radius before the first one that fails.
    """
    rs = _scan_radii()
    value, _, cancel = _sum_series(-nu, 1.0 - nu, -np.array(rs), 1e-14)
    fail = np.isnan(value) | (cancel > np.minimum(1e-10, 1e-6 * abs(value)))
    first = int(fail.argmax()) if fail.any() else len(rs)
    return rs[max(first - 1, 0)]


# the index k of `_scan_crossover(nu)` in `_scan_radii()` for nu = 0.01,
# 0.02, ..., 0.99; rerun the scan and update these when it changes
_CROSSOVER_STEPS = (
    27, 27, 27, 27, 27, 27, 27, 27, 27, 27, 27, 27, 27, 27, 27, 27, 27, 27,
    27, 27, 27, 27, 26, 26, 26, 26, 26, 26, 26, 26, 25, 25, 25, 25, 25, 25,
    25, 24, 24, 24, 24, 24, 24, 23, 23, 23, 23, 23, 22, 22, 22, 22, 22, 21,
    21, 21, 21, 20, 20, 20, 20, 19, 19, 19, 19, 18, 18, 18, 18, 17, 17, 17,
    16, 16, 16, 15, 15, 15, 15, 14, 14, 14, 13, 13, 12, 12, 12, 11, 11, 10,
    10, 9, 9, 8, 8, 7, 7, 6, 6,
)


@lru_cache(maxsize=None)
def _crossover_table():
    """(nus, radii) on the 0.01 order grid: the committed scan results."""
    nus = np.round(np.arange(0.01, NU_MAX + 1e-9, 0.01), 2)
    return nus, np.array(_scan_radii())[list(_CROSSOVER_STEPS)]


def crossover_radius(nu) -> float:
    """Series/large-argument crossover radius r*(nu) (interpolated table)."""
    nu = _as_nu(nu)
    if not 0.0 < nu < 1.0:
        raise InvalidOrder("crossover radius defined for 0 < nu < 1")
    nus, radii = _crossover_table()
    return float(np.interp(nu, nus, radii))


# ---------------------------------------------------------------------------
# public evaluators
# ---------------------------------------------------------------------------

def _arguments(x, tol: float, name: str) -> np.ndarray:
    """x as a flat float array; NaN or negative entries and tol <= 0 raise."""
    x = np.asarray(x, dtype=float).ravel()
    if not (x >= 0.0).all():
        if np.isnan(x).any():
            raise InvalidArgument(f"{name} argument is NaN")
        raise NegativeArgument(f"{name} arguments must be >= 0")
    if not tol > 0.0:
        raise InvalidArgument("tol must be positive")
    return x


def _m_wright_array(nu, rs, tol: float):
    """Validation and dispatch of M_nu: value, estimate, method arrays."""
    nu = _as_nu(nu)
    if not 0.0 <= nu < 1.0:
        raise InvalidOrder(f"M_nu needs an order 0 <= nu < 1, got {nu}")
    if nu > NU_MAX:
        raise NearSingularOrder(
            f"nu={nu} too close to the delta limit (cap {NU_MAX})")
    rs = _arguments(rs, tol, "M_nu")
    if nu < _NU_ZERO:
        v = np.exp(-rs)
        return v, 4.0 * _EPS * v, np.full(rs.shape, METHOD_LIMIT_CASE)
    if nu == 0.5:
        with np.errstate(over="ignore"):  # r^2 = inf past 1.3e154: exp gives 0
            v = np.exp(-0.25 * rs * rs) / math.sqrt(math.pi)
        return v, 4.0 * _EPS * v, np.full(rs.shape, METHOD_CLOSED_FORM)
    value, err = np.full((2, rs.size), np.nan)
    near = rs <= crossover_radius(nu)
    if near.any():
        v, trunc, cancel = _sum_series(-nu, 1.0 - nu, -rs[near], tol)
        value[near], err[near] = v, trunc + cancel
    tail = np.isnan(value)
    value[tail], err[tail] = _tail(nu, rs[tail], tol)
    return value, err, np.where(tail, METHOD_ASYMPTOTIC, METHOD_SERIES)


def _half_mass(nu: float, r: np.ndarray, tol: float):
    """int_r^inf M_nu, 0 <= nu < 1, and its estimate: W_{-nu,1}(-r) up to
    crossover_radius(nu) where its estimate is <= tol x value, else _m_tail."""
    if nu < _NU_ZERO:  # M_0(r) = exp(-r)
        return np.exp(-r), 4.0 * _EPS * np.exp(-r)
    value, err = np.full((2, r.size), np.nan)
    near = r <= crossover_radius(nu)
    v, trunc, cancel = _sum_series(-nu, 1.0, -r[near], 0.01 * tol)
    value[near], err[near] = v, trunc + cancel
    far = ~(err <= tol * value)
    value[far], err[far] = _tail(nu, r[far], 0.0, power=0)
    return value, err


def m_wright(nu, r: float, tol: float = 1e-12) -> EvalResult:
    """Evaluate the M-Wright function M_nu(r) for r >= 0.

    Dispatches between the exact limit/closed forms (nu = 0, 1/2), the
    power series below the crossover radius, and the stable-integral
    large-argument route above it (method "asymptotic"). That route reads
    a Chebyshev interpolant of the integral in 1/Y, built once per order
    and accurate to about 1e-12 relative, whose estimate does not depend
    on tol; orders whose interpolant does not converge (near 0.99, tiny
    orders) integrate at each radius instead. The one-point case of
    m_wright_values, so both return the same bits.

    Parameters
    ----------
    nu : float or AuxIndex
        Order, 0 <= nu < 1 for this entry point (orders above 0.99 are
        rejected: the near-delta peak is not resolvable in doubles).
    r : float
        Non-negative argument; +inf gives the limit 0, NaN is rejected.
    tol : float
        Accuracy request; the returned estimate is honest even when the
        request is not attainable.
    """
    (value,), (err,), (method,) = _m_wright_array(nu, float(r), tol)
    return EvalResult(float(value), float(err), str(method))


def m_wright_values(nu, rs, tol: float = 1e-12) -> np.ndarray:
    """Vectorized M_nu values over an array of non-negative arguments.

    Bulk counterpart of m_wright (values only), used by the quadrature
    oracles and the tabulation front end.
    """
    return _m_wright_array(nu, rs, tol)[0].reshape(np.shape(rs))


def f_wright(nu, r: float, tol: float = 1e-12) -> EvalResult:
    """F-Wright function F_nu(r) = nu * r * M_nu(r), r >= 0, 0 < nu < 1."""
    nu = _as_nu(nu)
    if not 0.0 < nu < 1.0:
        raise InvalidOrder(f"f_wright needs 0 < nu < 1, got {nu}")
    r = float(r)
    if r < 0.0:
        raise NegativeArgument("f_wright argument must be >= 0")
    if r == 0.0 or r == math.inf:
        return EvalResult(0.0, 0.0, METHOD_CLOSED_FORM)
    base = m_wright(nu, r, tol)
    scale = nu * r
    return EvalResult(scale * base.value, scale * base.abs_err_estimate,
                      base.method)


def m_wright_symmetric(nu, x: float, tol: float = 1e-12) -> EvalResult:
    """Even extension M_nu(|x|): the symmetric density on the whole line."""
    return m_wright(nu, abs(float(x)), tol)


# ---------------------------------------------------------------------------
# Mittag-Leffler on the negative axis
# ---------------------------------------------------------------------------

def _ml_spectral(nu: float, s: np.ndarray, tol: float):
    """E_nu(-s) = sin(nu pi)/(nu pi) int_0^inf exp(-(s u)^(1/nu)) du / ((u
    + cos(nu pi))^2 + sin(nu pi)^2), 0 < nu < 1, with the sample rounding
    8 eps |value| in its estimate. The integrand sums u = u0 + z and, for
    z < u0/2, u = u0 - z and u = z, on t = z/(1+z): the denominator's peak
    (width sin(nu pi) at u0 = max(0, -cos(nu pi))) and the decay near u = 0
    both sit at t -> 0, where doubles resolve them."""
    nup = math.pi * min(nu, 1.0 - nu)  # keeps sin(nu pi) accurate near nu = 1
    sn, c = math.sin(nup), math.cos(nup) * (1.0 if nu <= 0.5 else -1.0)
    u0, cp = max(0.0, -c), max(0.0, c)

    def f(t, rows):
        sr, q, p, g0 = s[rows, None], 1.0 - t, 1.0 / nu, 0.0
        d = (sn * q) ** 2
        with np.errstate(over="ignore", divide="ignore"):
            z = t / q
            g = np.exp(-(sr * (u0 + z)) ** p)
            if u0 > 0.0:
                near, zn = z < 0.5 * u0, np.minimum(z, 0.5 * u0)
                g += near * np.exp(-(sr * (u0 - zn)) ** p)
                g0 = near * np.exp(-(sr * zn) ** p) / ((t + c * q) ** 2 + d)
        return g / ((t + cp * q) ** 2 + d) + g0

    # u = 2^k / s, k = -3..6, spans the decay of exp(-(s u)^(1/nu)); for
    # s < 1/8 it goes on down to u = 1, or the panel below would hide that
    # decay next to t = 1; rows that need fewer repeat the k = -3 point
    k = np.arange(min(-3, math.floor(math.log2(s.min()))), 7)
    with np.errstate(over="ignore", divide="ignore"):
        u = np.ldexp(1.0 / s[:, None], k)
        u[:, :-10] = np.where(u[:, :-10] < 1.0, u[:, -10:-9], u[:, :-10])
        z = np.where(u < 0.5 * u0, u, np.abs(u - u0))
        if u0 > 0.0:  # the jump at z = u0/2 and the peak's scales sn 4^j
            peak = sn * 4.0 ** np.arange(-1.0, 2.0 - math.log(sn, 4.0))
            z = np.hstack((z, np.broadcast_to(np.append(peak, 0.5 * u0),
                                              (s.size, peak.size + 1))))
        pts = 1.0 / (1.0 + 1.0 / z)
    v, e = quadrature.adaptive_rows(f, 0.0, 1.0, pts, max(1e-300, 0.01 * tol),
                                    1e-13, limit=600)
    scale = sn / (nu * math.pi)
    return scale * v, np.maximum(scale * (e + 8.0 * _EPS * v), 1e-300)


def _ml_array(nu, s, tol: float):
    """Validation and dispatch of E_nu(-s): value, estimate, method arrays."""
    nu = float(nu)
    if not 0.0 <= nu < math.inf:
        raise InvalidOrder(f"E_nu(-s) needs a finite order >= 0, got {nu}")
    s = _arguments(s, tol, "E_nu(-s)")
    if nu == 0.0 and (s >= 1.0).any():
        raise InvalidArgument("nu = 0 needs s < 1 (geometric series)")
    if nu >= 2.0 and (s == math.inf).any():
        raise NonConvergence(f"E_{nu}(-s) has no limit as s -> inf for nu >= "
                             f"2: it oscillates (E_2(-s) = cos(sqrt(s))) and "
                             f"grows for nu > 2")
    value, err = np.ones(s.size), np.zeros(s.size)  # E_nu(0) = 1 exactly
    method = np.full(s.size, METHOD_CLOSED_FORM)
    exact = (s > 0.0) & (nu in (0.0, 1.0) or s == math.inf)  # limit 0 at inf
    value[exact] = (1.0 / (1.0 + s[exact]) if nu == 0.0
                    else [math.exp(-x) for x in s[exact]])
    err[exact] = 4.0 * _EPS * value[exact]
    method[exact] = METHOD_LIMIT_CASE if nu == 0.0 else METHOD_CLOSED_FORM
    # Taylor rows, stopped at min(tol, 1e-13), else at tol, else NaN. 1/Gamma
    # at the rounded argument x = nu n + 1 moves a term by up to x |psi(x)|
    # eps, beyond the series floor (56 ulps at nu = 0.9): the floor weighs
    # each term used by half of x log x + n / 2 + 5
    rows = np.flatnonzero((s > 0.0) & ~exact)
    terms = _series_terms(nu, 1.0, -s[rows], factorial=False)
    x = nu * _N + 1.0
    weight = 0.5 * (x * np.log(x) + 0.5 * _N + 5.0)
    v, trunc, cancel = _apply_stopping_rule(terms, min(tol, 1e-13), weight)
    if (miss := np.isnan(v)).any():
        v[miss], trunc[miss], cancel[miss] = _apply_stopping_rule(
            terms[miss], tol, weight)
    value[rows], err[rows], method[rows] = v, trunc + cancel, METHOD_SERIES
    # nu > 1 has no other route; past s^(1/nu) = 60 cancellation wins
    if nu > 1.0 and (np.isnan(v) | ~(s[rows] ** (1.0 / nu) < 60.0)).any():
        raise NonConvergence(f"E_{nu}(-s): Taylor series unusable and the "
                             f"spectral integral only applies for nu < 1")
    if nu < 1.0 and (rows := rows[~(err[rows] <= tol)]).size:
        value[rows], err[rows] = _ml_spectral(nu, s[rows], tol)
        method[rows] = METHOD_ASYMPTOTIC
    return value, err, method


def mittag_leffler_neg(nu: float, s: float, tol: float = 1e-12) -> EvalResult:
    """E_nu(-s), s >= 0, the one-point case of mittag_leffler_values: the
    Taylor series where it meets tol; for 0 < nu < 1 the spectral integral
    elsewhere (method "asymptotic"). nu = 0 needs s < 1 (1/(1+s)), nu = 1
    is exp(-s), nu > 1 has the Taylor series only, up to s^(1/nu) = 60. At
    s = inf the limit 0 holds for nu < 2; else NonConvergence is raised."""
    (value,), (err,), (method,) = _ml_array(nu, float(s), tol)
    return EvalResult(float(value), float(err), str(method))


def mittag_leffler_values(nu, s, tol: float = 1e-12) -> np.ndarray:
    """Vectorized E_nu(-s) (values only), the spectral rows in one pass."""
    return _ml_array(nu, s, tol)[0].reshape(np.shape(s))


# ---------------------------------------------------------------------------
# moments, Mellin, closed forms, ODE residual
# ---------------------------------------------------------------------------

def m_wright_moment(nu, delta: float) -> float:
    """Absolute moment of M_nu on the positive axis.

    int_0^inf r^delta M_nu(r) dr = Gamma(delta+1)/Gamma(nu*delta+1),
    valid for delta > -1 and 0 <= nu < 1. Where Gamma(delta+1) overflows
    the ratio is taken in log space; ResultOverflow is raised where the
    ratio itself leaves the double range (delta = inf included).
    """
    nu = _as_nu(nu)
    delta = float(delta)
    if not delta > -1.0:
        raise InvalidMomentOrder(f"moment order must exceed -1, got {delta}")
    if not 0.0 <= nu < 1.0:
        raise InvalidOrder(f"need 0 <= nu < 1, got {nu}")
    g = _gamma(delta + 1.0)
    if np.isfinite(g):
        return float(g * _rgamma(nu * delta + 1.0))
    with np.errstate(over="ignore", invalid="ignore"):  # NaN at delta = inf
        ratio = np.exp(_gammaln(delta + 1.0) - _gammaln(nu * delta + 1.0))
    if not np.isfinite(ratio):
        raise ResultOverflow(f"moment of order {delta} of M_{nu} exceeds "
                             f"the double range")
    return float(ratio)


def _moment_estimate(nu: float, delta: float, value: float) -> float:
    """Rounding bound of value = m_wright_moment(nu, delta): 4 eps (|log
    Gamma(delta+1)| + |log Gamma(nu delta+1)| + 1) |value|, on both routes.
    Rounding an argument x (delta + 1, nu delta + 1) moves Gamma(x) by up
    to x |psi(x)| eps/2 relative, hundreds of eps at x ~ 150, which the
    log Gamma terms cover; a flat few eps would not."""
    nu, delta = _as_nu(nu), float(delta)
    size = abs(_gammaln(delta + 1.0)) + abs(_gammaln(nu * delta + 1.0)) + 1.0
    return float(4.0 * _EPS * size * abs(value))


def mellin_m_wright(nu, s: float) -> float:
    """Mellin transform of M_nu: Gamma(s)/Gamma(nu(s-1)+1) for s > 0."""
    nu = _as_nu(nu)
    s = float(s)
    if not s > 0.0:
        raise InvalidArgument(f"Mellin variable must be positive, got {s}")
    return m_wright_moment(nu, s - 1.0)


def _airy_series(x: float):
    """M_{1/3}(x) as the pair of hypergeometric-type power series, and the
    rounding bound 8 eps (c1 sum|terms of part 0| + c2 sum|terms of part 1|)
    on the cancellation; each ends at a term <= 1e-16 max(|sum|, 1).

    c1 sum (1/3)_m x^{3m}/(3m)! - c2 sum (2/3)_m x^{3m+1}/(3m+1)!, with
    c1 = 1/Gamma(2/3) and c2 = 1/Gamma(1/3).
    """
    c1 = float(_rgamma(2.0 / 3.0))
    c2 = float(_rgamma(1.0 / 3.0))
    x3 = x ** 3 if abs(x) < 1e100 else math.inf  # ** raises on overflow

    def part(j):
        # term_0 = x^j; ratio ((j+1)/3+m) x^3 / ((3m+j+1)(3m+j+2)(3m+j+3))
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
            raise NonConvergence(f"Airy series for M_(1/3) at z={x} did not "
                                 f"converge in double precision")
        return total, size

    (p0, s0), (p1, s1) = part(0), part(1)
    return c1 * p0 - c2 * p1, 8.0 * _EPS * (c1 * s0 + c2 * s1)


def m_wright_special(q: int, z: float) -> EvalResult:
    """Closed forms M_{1/2} (Gaussian) and M_{1/3} (Airy, own power series).

    NaN is rejected; so is +-inf for q = 3, where the power series cannot
    be summed (q = 2 gives the limit 0 there).
    """
    z = float(z)
    if math.isnan(z):
        raise InvalidArgument("m_wright_special argument is NaN")
    if q == 2:
        v = math.exp(-0.25 * z * z) / math.sqrt(math.pi)
        return EvalResult(v, 4.0 * _EPS * v, METHOD_CLOSED_FORM)
    if q == 3:
        if math.isinf(z):
            raise InvalidArgument(f"the M_(1/3) series needs a finite "
                                  f"argument, got {z}")
        return EvalResult(*_airy_series(z), METHOD_CLOSED_FORM)
    raise UnsupportedQ(f"closed form only for q in (2, 3), got {q}")


def m_wright_ode_residual(q: int, z: float, h: float) -> float:
    """Residual of the order-(q-1) ODE satisfied by M_{1/q}.

    d^{q-1}/dz^{q-1} M_{1/q}(z) + ((-1)^q / q) z M_{1/q}(z), with the
    derivative taken by central differences of the series evaluator.
    Self-test helper; the residual should be O(h^2).
    """
    if q not in (2, 3, 4):
        raise UnsupportedQ(f"ODE residual supports q in (2, 3, 4), got {q}")
    if not h > 0.0:
        raise InvalidArgument("finite-difference step must be positive")
    z = float(z)
    idx = WrightIndex(-1.0 / q, 1.0 - 1.0 / q)
    m = lambda x: wright_series(idx, -x, 1e-14).value
    if q == 2:
        deriv = (m(z + h) - m(z - h)) / (2.0 * h)
    elif q == 3:
        deriv = (m(z + h) - 2.0 * m(z) + m(z - h)) / (h * h)
    else:
        deriv = (m(z + 2 * h) - 2.0 * m(z + h) + 2.0 * m(z - h)
                 - m(z - 2 * h)) / (2.0 * h ** 3)
    return deriv + ((-1.0) ** q / q) * z * m(z)
