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

* closed forms for nu = 1/2 (Gaussian) and up to nu = 1e-11 the first
  order in nu, e^-r (1 - gamma nu (1 - r)), exact to double precision
  (`_small_order`; e^-r itself below the least normal order);
* up to the switch radius `crossover_radius(nu)`, the power series in the
  reflection-formula form (coefficients 1/Gamma(1-nu*n), entire in the
  index, so no Gamma pole is evaluated), served from nu = 0.01 through a
  per-order Chebyshev interpolant of log M_nu in r on [0, switch]
  (`_series_interpolant`), built once from the series itself at tol
  1e-16 and split, below about nu = 0.459, at the radius where Y = 2.5;
  other orders sum the series at each radius. The switch is the radius
  where the saddle exponent Y = (1-nu)/nu (nu r)^(1/(1-nu)) is 9, halved
  for nu >= 0.01, where the series' rounding floor 2 eps sum|term| stays
  below 1e-11 relative and the tail interpolant converges;
* past the switch, the exact one-sided stable-density integral (`_m_tail`),
  served through a per-order Chebyshev interpolant (`_tail_interpolant`)
  of log(M_nu e^Y / (a (nu r)^((nu-1/2)/(1-nu)))), the log of M_nu over
  its saddle-point form, Y = (1-nu)/nu (nu r)^(1/(1-nu)): one piece in
  t = 1/Y on [1/795, 1/max(1, Y(switch))], run on past Y = 795, where
  M_nu underflows, and where Y(switch) < 1 (orders above 0.68) one in r
  from the switch to r(Y = 1), since as nu -> 1 M_nu tends to the delta
  pulse at r = 1. Its estimate is value x (rel + 8 eps (1 + Y)/(1 -
  nu)), whatever tol asks. Orders whose build fails (tiny orders such as
  1e-3) keep the quadrature at every radius. The mass int_r^inf M_nu
  takes the same route past the same switch, and its series (not
  interpolated) below it. The leading-order exponential form alone only
  serves envelopes and checks.

Every interpolant (these two and E_nu(-s)'s below) is a layout of
pieces, each a variable, an interval and a node function, built by one
routine, `_pieces`: `_chebyshev_piece` takes each piece's nodes from its
build source at full relative accuracy, on at most 65 nested Chebyshev
points, with one chop rule, and gives it the estimate rel = Lebesgue
constant x largest node relative estimate + chopped coefficients + 8 eps
(1 + sum |c_k|). One elementwise routine, `_read_pieces`, reads them all
by a Clenshaw recurrence, with an estimate that does not depend on tol;
`_tail` reads the tail pieces as logs, which `_m_wright_array` returns
on request next to the values: log M_nu holds where M_nu underflows (the
Green functions' log form).

Evaluation strategy for E_nu(-s) (mittag_leffler_neg is the one-point
case of mittag_leffler_values): closed forms for nu = 0 (1/(1+s), s < 1),
nu = 1/2 (erfcx(s)) and nu = 1 (e^-s). For other 0 < nu < 1, up to
s = 1024, a per-order Chebyshev interpolant (`_ml_interpolant`) of log
E_nu(-s) in s on [0, 4] and of log(s Gamma(1-nu) E_nu(-s)) in 1/s on
[1/1024, 1/4], built once from the spectral integral (`_ml_spectral`,
Gorenflo, Loutchko & Luchko 2002); its estimate, value x (rel + 8 eps),
does not depend on tol. Up to s = 1024 at orders whose build fails (such
as 1e-3, and from about 0.9963), the Taylor series where it meets tol and
the spectral integral elsewhere; past s = 1024 the spectral integral at
every order below 1. Orders nu > 1 have the Taylor series alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import (airy as _airy, erfcx as _erfcx, gamma as _gamma,
                           gammaln as _gammaln, rgamma as _rgamma)

from . import quadrature
from .fraccalc import _gamma_ratio
from .errors import (
    InvalidArgument,
    InvalidMomentOrder,
    InvalidOrder,
    NearSingularOrder,
    NegativeArgument,
    NonConvergence,
    QuadratureFailure,
    UnsupportedQ,
)

_EPS = float(np.finfo(float).eps)
_TINY = sys.float_info.min  # least normal double
_SUBNORMAL_2 = 2.0 * math.ulp(0.0)  # two subnormal spacings, 2^-1073
_TERM_BUDGET = 400
_Y_CUT = 745.0 + 50.0  # Y past which M_nu is below the double underflow
_CHEB_NODES = (17, 33, 65)  # nested Chebyshev extreme points of the tail
_CHEB_CHOP = 1e-13  # the chop, where the nodes' relative estimates exceed it
_N = np.arange(_TERM_BUDGET)
NU_MAX = 0.99  # evaluation cap; the peak near r=1 defeats doubles beyond this
# Up to this order M_nu(r) = e^-r (1 - gamma nu (1 - r)) to double
# precision wherever e^-r is representable (`_small_order`)
_NU_SMALL = 1e-11
_NU_HALVED = 0.01  # from this order the switch is halved and M_nu has pieces
_Y_SWITCH = 9.0  # the saddle exponent Y whose radius is the switch
_Y_SPLIT = 2.5  # the saddle exponent Y whose radius splits the series pieces
_NODE_TOL = 1e-16  # stopping tol of the series at the nodes below the switch
# E_nu(-s) pieces: in s on [0, _ML_NEAR], in 1/s on [1/_ML_FAR, 1/_ML_NEAR]
_ML_NEAR, _ML_FAR = 4.0, 1024.0
# blocks shorter than this are read point by point in Python floats
# (`_read_pieces`): numpy pays 1.5-2.5 us per array operation whatever the
# size, and the float Clenshaw loop about 55 ns per point and coefficient,
# which break even at 32-40 points on 9-62 coefficients (2 vCPUs)
_SHORT_BLOCK = 32

METHOD_SERIES = "series"
METHOD_ASYMPTOTIC = "asymptotic"
METHOD_CLOSED_FORM = "closed_form"
METHOD_LIMIT_CASE = "limit_case"


@dataclass(frozen=True)
class WrightIndex:
    """Index pair (lam, mu) of the Wright function: finite, lam > -1."""

    lam: float
    mu: float

    def __post_init__(self):
        if not (self.lam > -1.0 and math.isfinite(self.lam)
                and math.isfinite(self.mu)):
            raise InvalidOrder(f"Wright index requires a finite lam > -1 and "
                               f"a finite mu, got ({self.lam}, {self.mu})")

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


def _per_row(lam, mu, z: np.ndarray):
    """(lam, mu) unchanged when both are scalars, else one entry per z."""
    if np.ndim(lam) == np.ndim(mu) == 0:
        return lam, mu
    return (np.broadcast_to(np.asarray(lam, dtype=float), z.shape),
            np.broadcast_to(np.asarray(mu, dtype=float), z.shape))


def _series_terms(lam, mu, z, factorial: bool = True,
                  rebuild: bool = False, n: int = _TERM_BUDGET) -> np.ndarray:
    """Terms z^k / (k! Gamma(lam*k + mu)), k < n <= 400, a row per entry of z.

    lam and mu are scalars, which give one row of 1/Gamma(lam*k + mu) for
    every z, or arrays with one entry per entry of z, which give a row per
    entry by the same elementwise expression, so each row has the bits of
    its scalar call. Without the k! the rows hold the Mittag-Leffler terms
    z^k / Gamma(lam*k + mu). Uses the reciprocal Gamma
    (entire, zero at the poles) so no Gamma is ever evaluated at a
    non-positive argument. Entries that are not finite (an overflowing
    1/Gamma or power factor) become +inf, which the stopping rule cannot
    pass. With rebuild=True they are instead resolved in log space, in
    every row where one of them is representable, and set to zero
    elsewhere; a rebuilt term past the double range stays inf.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    lam, mu = _per_row(lam, mu, z)
    rg = _rgamma(np.multiply.outer(lam, _N[:n]) + np.expand_dims(mu, -1))
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
    first stopped on 64 terms; rows that miss get 200, then the 400-term
    budget, then, where a term overflowed, a log-space rebuild (any other
    row would rebuild to the same terms), and rows that still miss are
    NaN. The result is the full budget's, bit for bit: the rounding floor
    sums a zero-padded row of 64, 200 or 400 terms in the same order. A
    row at z = 0 where 1/Gamma(mu) = 0 is the exact (0, 0, 0). For M_nu
    below the switch it is the build source of `_series_interpolant`, and
    serves the radii itself only for orders without pieces.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    lam, mu = _per_row(lam, mu, z)
    out = _apply_stopping_rule(_series_terms(lam, mu, z, n=64), tol)
    miss = np.isnan(out[0])
    for n, rebuild in ((200, False), (_TERM_BUDGET, False),
                       (_TERM_BUDGET, True)):
        if not miss.any():
            break
        idx = (lam, mu) if np.ndim(lam) == 0 else (lam[miss], mu[miss])
        terms = _series_terms(*idx, z[miss], rebuild=rebuild, n=n)
        stage = _apply_stopping_rule(terms, tol)
        for a, b in zip(out, stage):
            a[miss] = b
        left = np.isnan(stage[0])
        if n == _TERM_BUDGET and not rebuild:
            left &= np.isinf(terms).any(axis=1)
        miss[miss] = left
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
    try:
        expo = (nu - 1.0) / nu * y ** (1.0 / (1.0 - nu))
    except OverflowError:  # the power past 1.8e308 puts expo below -1e292
        return 0.0
    if expo < -745.0:
        return 0.0
    return a * y ** ((nu - 0.5) / (1.0 - nu)) * math.exp(expo)


def m_wright_envelope(nu):
    """Decreasing bound on M_nu(r), 0 < nu < 1, for large r (for tail
    truncation): 10 times the saddle-point term m_wright_asymptotic."""
    nu = _as_nu(nu)
    return lambda r: 10.0 * m_wright_asymptotic(nu, r)


def _underflow_estimate(nu: float, w: np.ndarray, log_c: float = 0.0):
    """The estimate of c M_nu(w) at finite radii w past the switch where it
    is 0: c times `m_wright_envelope(nu)` at w, formed in logs (0 where Y
    overflows). c times M's 1e-300 floor could exceed the value's own
    scale by far (0.5 at t = 1e-300 for a Green function)."""
    return np.exp(math.log(10.0) + _log_saddle_factor(nu, 1, w)
                  - _saddle_exponent(nu, w) + log_c)


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
    if (low := y < 1.0).any():
        # below Y = 1 the mass sits where c A(pi u) is about 1, up next to
        # u = 1, where near nu = 1 A grows like sin(pi u)^(-1/(1-nu)): the
        # part where c A < e^-j holds about e^-j of it, in a layer too thin
        # for a wide panel. Breakpoints where c A = e^j, j = -36, -34, ..,
        # 4, by bisection (A increases on (0, 1)); the other rows' points
        # at u = 1 add no panel
        with np.errstate(divide="ignore"):  # c = 0 at w = 0: no point
            target = np.arange(-36.0, 5.0, 2.0) - np.log(c[low])[:, None]
        lo, hi = np.zeros(target.shape), np.ones(target.shape)
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            above = _kanter_log_a(nu, np.pi * mid) > target
            lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
        cliff = np.ones((y.size, target.shape[1]))
        cliff[low] = hi
        pts = np.hstack((pts, cliff))
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
    extreme points x_j = cos(pi j/N), j = 0..N: the DCT-I, from the real
    FFT of the even extension of h, as `greens._dst1` forms the DST-I."""
    big_n = len(h) - 1
    c = np.fft.rfft(np.concatenate((h, h[-2:0:-1]))).real / big_n
    c[[0, -1]] *= 0.5
    return c


def _clenshaw(x, c: list):
    """sum_k c_k T_k(x) by Clenshaw's recurrence (Clenshaw 1955), at a
    Python float or elementwise at every entry of an array, with numpy
    `chebval`'s operations in the same order, so with its bits."""
    if len(c) == 1:
        return c[0] + 0 * x
    c0, c1 = c[-2], c[-1]
    x2 = 2 * x
    for ck in c[-3::-1]:
        c0, c1 = ck - c1, c0 + c1 * x2
    return c0 + c1 * x


def _chebyshev_piece(lo: float, hi: float, nodes):
    """One Chebyshev piece on [lo, hi] of a function h whose values and
    relative estimates nodes(s) returns at a block of points s (None where
    they fail): h on 17, then 33, then 65 nested Chebyshev extreme points.
    The chop is the largest node relative estimate so far, clipped to
    [1e-15, 1e-13]: the first count whose last three coefficients lie
    below it is kept, with its trailing coefficients below it chopped. 65
    nodes are also kept where the last three lie below the largest node
    relative estimate itself: the rounding of the node values (near nu = 1
    the kernel's, amplified by Y/(1-nu); near the switch the series')
    leaves the coefficients on a plateau, of about 1e-13 at 0.985, which
    the nodes' estimates cover.
    Returns (coefficients, rel), rel the Lebesgue constant times the
    largest node relative estimate, plus the sum of the chopped
    coefficients, plus 8 eps (1 + sum |c_k|) for the rounding of the
    evaluation; None where no count converges or a node fails."""
    h, worst = np.empty(0), 0.0
    for n in _CHEB_NODES:
        # the nodes of the previous count are every other node of this one
        j = np.arange(n)[1::2] if h.size else np.arange(n)
        got = nodes(lo + 0.5 * (hi - lo) * (1.0 + np.cos(np.pi * j / (n - 1))))
        if got is None:
            return None
        h = np.insert(got[0], np.arange(h.size), h)
        worst = max(worst, float(np.max(got[1])))
        chop = min(_CHEB_CHOP, max(1e-15, worst))
        c = _chebyshev_coefficients(h)
        tail = np.abs(c[-3:]).max()
        if tail < chop or (n == _CHEB_NODES[-1] and tail < worst):
            big = np.flatnonzero(np.abs(c) >= chop)
            keep = min(n - 3, int(big[-1]) + 1 if big.size else 1)
            lebesgue = 1.0 + 2.0 / math.pi * math.log(n)
            rel = lebesgue * worst + float(np.abs(c[keep:]).sum())
            c = c[:keep]
            c.flags.writeable = False
            return c, rel + 8.0 * _EPS * (1.0 + float(np.abs(c).sum()))
    return None


def _pieces(layout):
    """The Chebyshev pieces of a layout ((key_from, lo, hi, in_r, nodes),
    ...): ((key_from, lo, hi, in_r, coefficients, rel), ...), each by
    `_chebyshev_piece` on its nodes, in the layout's order; None as soon as
    one fails."""
    pieces = []
    for key_from, lo, hi, in_r, nodes in layout:
        piece = _chebyshev_piece(lo, hi, nodes)
        if piece is None:
            return None
        pieces.append((key_from, lo, hi, in_r, *piece))
    return tuple(pieces)


def _tail_nodes(nu: float, power: int, in_r: bool):
    """The nodes of a tail piece (see `_chebyshev_piece`): h = log(M e^Y /
    (a (nu w)^p)), the log of M_nu (power=1) or of its mass (power=0) over
    its saddle-point form (see `_log_saddle_factor`), at s = r (in_r) or s
    = 1/Y, from `_m_tail` at full relative accuracy."""
    a0 = nu ** (nu / (1.0 - nu)) * (1.0 - nu)

    def nodes(s):
        w = s if in_r else (1.0 / (s * a0)) ** (1.0 - nu)
        try:
            v, e = _m_tail(nu, w, 0.0, power, scaled=True)
        except QuadratureFailure:
            return None
        if not (np.isfinite(v) & (v > 0.0)).all():
            return None
        return np.log(v) - _log_saddle_factor(nu, power, w), e / v

    return nodes


@lru_cache(maxsize=256)
def _tail_interpolant(nu: float, power: int):
    """The Chebyshev pieces of the tail past crossover_radius(nu), or None.

    The layout of `_pieces` on `_tail_nodes`: one piece in t = 1/Y on
    [1/795, 1/max(1, Y(switch))], Y as `_tail` computes it, and where
    Y(switch) < 1 (orders above 0.68) a second one in r on [switch, r(Y =
    1)]: as nu -> 1, M_nu tends to the delta pulse at r = 1, and h is no
    polynomial in 1/Y down there.
    Returns ((y_from, lo, hi, in_r, coefficients, rel), ...), the piece
    that serves Y >= y_from, highest y_from first. None where a build
    fails (orders up to 0.0017 on a 0.0001 grid): those keep `_m_tail` at
    each radius. Below the switch `_series_interpolant` serves M_nu, with
    pieces of the same layout keyed by r; `_read_pieces` reads both.
    """
    switch = crossover_radius(nu)
    # Y(switch) by numpy's power, as `_tail` computes Y at every radius
    y_lo = float(_saddle_exponent(nu, np.array(switch)))
    y_mid = max(1.0, y_lo)
    layout = [(y_mid, 1.0 / _Y_CUT, 1.0 / y_mid, False,
               _tail_nodes(nu, power, False))]
    if y_lo < 1.0:
        r_mid = (1.0 / (nu ** (nu / (1.0 - nu)) * (1.0 - nu))) ** (1.0 - nu)
        layout.append((y_lo, switch, r_mid, True, _tail_nodes(nu, power, True)))
    return _pieces(layout)


@lru_cache(maxsize=256)
def _series_interpolant(nu: float):
    """The Chebyshev pieces of log M_nu in r on [0, crossover_radius(nu)],
    or None.

    The layout of `_pieces`, whose nodes are `_sum_series` at tol 1e-16
    and nothing else: no quadrature. The series' rounding floor 2 eps
    sum|term| grows like e^(2Y) towards the switch, to 5.8e-12 relative
    (at nu = 0.045), and would loosen a single piece's rel, and lower its
    chop, down to r = 0. So where the radius at Y = 2.5 (`_Y_SPLIT`, in
    the switch's own closed form) lies below the switch (orders below
    about 0.459), the interval splits in two there.
    Returns ((r_from, lo, hi, True, coefficients, rel), ...), the piece
    that serves r >= r_from, highest r_from first, as `_tail_interpolant`
    does. None below nu = 0.01, whose switch is not halved, where the
    series loses up to 4.8e-8, and where a build fails: those orders sum
    the series at each radius.
    """
    if nu < _NU_HALVED:
        return None

    def nodes(r):
        v, trunc, cancel = _sum_series(-nu, 1.0 - nu, -r, _NODE_TOL)
        if not (v > 0.0).all():  # NaN fails too
            return None
        return np.log(v), (trunc + cancel) / v

    switch, split = crossover_radius(nu), _radius_at(_Y_SPLIT, nu)
    cuts = [switch, split, 0.0] if split < switch else [switch, 0.0]
    return _pieces([(lo, lo, hi, True, nodes)
                    for hi, lo in zip(cuts, cuts[1:])])


def _read_pieces(fit, w, key):
    """The interpolant h and rel of the piece of fit (`_tail_interpolant`,
    `_series_interpolant`, `_ml_interpolant`) that serves each radius w:
    the first whose key_from the radius's key (Y past the switch, r below
    it, s for E_nu(-s)) reaches; a piece that serves no radius is skipped,
    and a NaN key is served by none.
    Returns (served, h, rel), the last two at the served radii only. A
    piece in 1/Y reads t = 1/key, and runs on past its end t = 1/795 down
    to t = 0, with rel times |T_K(x)| there, K its coefficient count: a
    polynomial of degree below K that stays within 1 on [-1, 1] grows at
    most that much (E_nu(-s)'s piece in 1/s is read only on its interval).
    The evaluation is elementwise, so every radius gets the same bits in a
    block of any size: blocks shorter than _SHORT_BLOCK are read point by
    point in Python floats, longer ones as arrays, by the same piece and
    operations (np.clip as max then min, `_clenshaw`, numpy's arccosh and
    cosh for the run-on)."""
    if w.size < _SHORT_BLOCK:
        served, h, rel = [], [], []
        for wi, ki in zip(w.tolist(), key.tolist()):
            for key_from, lo, hi, in_r, coef, r in fit:
                if ki >= key_from:
                    s = min(max(wi, lo) if in_r else 1.0 / ki, hi)
                    x = (2.0 * s - (lo + hi)) / (hi - lo)
                    h.append(_clenshaw(x, coef.tolist()))
                    rel.append(r if in_r or x >= -1.0
                               else r * _run_on(np.array([x]), coef.size)[0])
                    break
            served.append(ki >= fit[-1][0])
        return np.array(served, dtype=bool), np.array(h), np.array(rel)
    h, rel = np.empty((2, w.size))
    left = np.ones(w.size, dtype=bool)
    for key_from, lo, hi, in_r, coef, r in fit:
        on = left & (key >= key_from)
        if not on.any():
            continue
        left &= ~on
        s = w[on].clip(lo, hi) if in_r else np.minimum(1.0 / key[on], hi)
        x = (2.0 * s - (lo + hi)) / (hi - lo)
        h[on], rel[on] = _clenshaw(x, coef.tolist()), r
        if not in_r and x.min() < -1.0:
            rel[on] *= _run_on(x, coef.size)
    served = ~left
    return served, h[served], rel[served]


def _run_on(x: np.ndarray, k: int) -> np.ndarray:
    """|T_k(x)| = cosh(k arccosh(-x)) at x <= -1, and 1 at x >= -1."""
    return np.cosh(k * np.arccosh(np.maximum(-x, 1.0)))


def _tail(nu: float, w: np.ndarray, tol: float, power: int = 1):
    """M_nu (power=1) or its mass (power=0) at radii w past the switch
    `crossover_radius(nu)`: value and estimate as `_m_tail` returns them,
    and (served, log value, relative estimate) where the pieces of
    `_tail_interpolant` serve, None where none do. The pieces are keyed by
    Y = `_saddle_exponent`(w) and read h + log(a (nu w)^p) - Y
    (`_log_saddle_factor`), with the estimate rel + 8 eps (1 + Y)/(1-nu),
    the last term the rounding of Y itself (below Y = 1, of r itself: |r d
    log M/dr| stays under half of (1 + Y)/(1-nu) there, measured on
    0.70-0.99). Past Y = 795 the value underflows to 0, with the estimate
    1e-300, while its log runs on. Orders without pieces, radii below the
    switch and radii whose Y overflows to inf take `_m_tail`. No radius, no
    work."""
    if not w.size:
        return np.zeros(0), np.zeros(0), None
    fit = _tail_interpolant(nu, power)
    if fit is None:
        return (*_m_tail(nu, w, tol, power), None)
    value, err = np.zeros(w.size), np.full(w.size, 1e-300)
    y = _saddle_exponent(nu, w)
    served, h, rel = _read_pieces(fit, w, np.where(y < math.inf, y, math.nan))
    y = y[served]
    log_v = h + _log_saddle_factor(nu, power, w[served]) - y
    rel = rel + 8.0 * _EPS * (1.0 + y) / (1.0 - nu)
    value[served] = v = np.exp(log_v)
    err[served] = np.maximum(v * rel, 1e-300)
    if not served.all():
        value[~served], err[~served] = _m_tail(nu, w[~served], tol, power)
    return value, err, (served, log_v, rel)


# ---------------------------------------------------------------------------
# series/tail switch
# ---------------------------------------------------------------------------

def crossover_radius(nu) -> float:
    """Radius where M_nu and its mass leave the series for the tail route.

    The radius r = (9 nu/(1-nu))^(1-nu)/nu where the saddle exponent Y =
    (1-nu)/nu (nu r)^(1/(1-nu)) is 9, halved for nu >= 0.01. Below it the
    series' rounding floor, which grows like e^(2Y), leaves M_nu's pieces
    (`_series_interpolant`) within 1.7e-11 relative on at most 20
    coefficients; from it the tail interpolant converges for M_nu and its
    mass alike. A lower Y costs tail-build time (at Y = 8 about 7% more
    than at 10, over orders 0.01-0.45), a higher one leaves the series
    pieces on their nodes' rounding (up to 28 coefficients at 9.5, 50 at
    10).
    Below 0.01 the piece in 1/Y fails at the halved radius (at nu =
    0.005), so those orders switch at the radius itself, where the series
    loses up to 4.8e-8 relative.
    """
    nu = _as_nu(nu)
    if not 0.0 < nu < 1.0:
        raise InvalidOrder("crossover radius defined for 0 < nu < 1")
    r = _radius_at(_Y_SWITCH, nu)
    return 0.5 * r if nu >= _NU_HALVED else r


def _radius_at(y: float, nu: float) -> float:
    """The radius r = (y nu/(1-nu))^(1-nu)/nu where the saddle exponent Y
    is y, in Python floats, with no product nu y to lose subnormal bits."""
    return (y / (1.0 - nu)) ** (1.0 - nu) * nu ** -nu


def _crossover_radii(nu: np.ndarray) -> np.ndarray:
    """crossover_radius at every order of a 1-d array, one call each, so
    with its bits (numpy's power rounds some arguments differently)."""
    return np.array([crossover_radius(v) for v in nu.tolist()])


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


def _gaussian_estimate(v, e):
    """Estimate of M_(1/2)(r) = v = exp(e)/sqrt(pi), e = -r^2/4 rounded:
    4 eps x value for exp and the division, plus the rounding of e (half
    an ulp), which exp carries into the value amplified by |e| (21 eps at
    r = 30.1 and 27 eps at r = 50.3). Where v is subnormal or has
    underflowed to 0 (|e| past 707.8), exp and the division each round to
    the subnormal spacing, which adds two spacings; at e = -inf the value
    0 is exact, and so is its estimate 0 (the cap keeps inf x 0 out).
    Elementwise on an array e, with v an array of its shape or a float."""
    cap = np.minimum(-e, 1e4)
    low = np.where((v < _TINY) & (e > -math.inf), _SUBNORMAL_2, 0.0)
    return (4.0 + 0.5 * cap) * _EPS * v + low


def _m_wright_array(nu, rs, tol: float, methods: bool = True,
                    logs: bool = False):
    """Validation and dispatch of M_nu: value, estimate, method arrays (no
    methods, None, with methods=False). A route that serves no radius does
    no work.

    logs=True adds log M_nu and its relative estimate as the route forms
    them, so that they hold where the value leaves the double range (the
    Green functions' log form): h on the pieces below the switch, the tail
    pieces' log (`_tail`, whose piece in 1/Y runs on past Y = 795), and the
    logs of the closed and limit forms. Elsewhere (orders without pieces)
    they are the log of the value, -inf where that underflowed, and the
    estimate over the value."""
    nu = _as_nu(nu)
    if not 0.0 <= nu < 1.0:
        raise InvalidOrder(f"M_nu needs an order 0 <= nu < 1, got {nu}")
    if nu > NU_MAX:
        raise NearSingularOrder(
            f"nu={nu} too close to the delta limit (cap {NU_MAX})")
    rs = _arguments(rs, tol, "M_nu")
    read = []  # (where, log M_nu, rel) that a route forms itself
    tail = np.zeros(rs.size, dtype=bool)  # the radii of the tail route
    if nu <= _NU_SMALL:
        value, kind = _small_order(nu, rs, 1), METHOD_LIMIT_CASE
        err = 4.0 * _EPS * value
        if logs:
            live = rs < math.inf
            read.append((live, np.log1p(np.euler_gamma * nu * (
                rs[live] - 1.0)) - rs[live], 4.0 * _EPS))
    elif nu == 0.5:
        with np.errstate(over="ignore"):  # r^2 = inf past 1.3e154: exp 0
            e = -0.25 * rs * rs
        value, kind = np.exp(e) / math.sqrt(math.pi), METHOD_CLOSED_FORM
        err = _gaussian_estimate(value, e)
        if logs:  # rel as err / value, also past underflow
            read.append((slice(None), e - 0.5 * math.log(math.pi),
                         _gaussian_estimate(1.0, e)))
    else:
        value, err = np.full((2, rs.size), np.nan)
        near = rs <= crossover_radius(nu)
        if near.any():
            fit = _series_interpolant(nu)
            if fit is not None:
                _, h, rel = _read_pieces(fit, rs[near], rs[near])
                value[near] = v = np.exp(h)
                err[near] = v * rel
                read.append((near, h, rel))
            else:
                v, trunc, cancel = _sum_series(-nu, 1.0 - nu, -rs[near], tol)
                value[near], err[near] = v, trunc + cancel
        tail = np.isnan(value)
        value[tail], err[tail], pieces = _tail(nu, rs[tail], tol)
        if logs and pieces is not None:  # (served, log, rel) of the tail
            read.append((np.flatnonzero(tail)[pieces[0]], *pieces[1:]))
        kind = METHOD_SERIES
    method = np.where(tail, METHOD_ASYMPTOTIC, kind) if methods else None
    if not logs:
        return value, err, method
    with np.errstate(divide="ignore", invalid="ignore"):
        log_v, rel = np.log(value), err / value
    for where, h, r in read:
        log_v[where], rel[where] = h, r
    return value, err, method, log_v, rel


def _small_order(nu: float, r: np.ndarray, power: int) -> np.ndarray:
    """M_nu (power=1) or its mass (power=0) at radii r for 0 <= nu <=
    1e-11: e^-r (1 + gamma nu (r - power)), gamma Euler's constant. From
    1/Gamma(1 - e) = 1 - gamma e + c2 e^2 + .., |c2| < 0.66, in the series
    with e = nu (n+1); the second order, c2 nu^2 (1 - 3r + r^2) for M_nu
    and c2 nu^2 (r^2 - r) for the mass, stays below 4e-17 relative up to r
    = 746, past which e^-r is 0. Below the least normal order it is e^-r
    bit for bit."""
    corr = 1.0 + np.euler_gamma * nu * (np.minimum(r, 746.0) - power)
    return np.exp(-r) * corr


def _half_mass(nu: float, r: np.ndarray, tol: float):
    """int_r^inf M_nu, 0 <= nu < 1, and its estimate: W_{-nu,1}(-r) up to
    crossover_radius(nu) where its estimate is <= tol x value, else _m_tail;
    `_small_order` up to nu = 1e-11."""
    if nu <= _NU_SMALL:
        v = _small_order(nu, r, 0)
        return v, 4.0 * _EPS * v
    value, err = np.full((2, r.size), np.nan)
    near = r <= crossover_radius(nu)
    v, trunc, cancel = _sum_series(-nu, 1.0, -r[near], 0.01 * tol)
    value[near], err[near] = v, trunc + cancel
    far = ~(err <= tol * value)
    value[far], err[far], _ = _tail(nu, r[far], 0.0, power=0)
    return value, err


def m_wright(nu, r: float, tol: float = 1e-12) -> EvalResult:
    """Evaluate the M-Wright function M_nu(r) for r >= 0.

    Dispatches between the exact limit/closed forms (nu <= 1e-11, 1/2),
    the power series up to `crossover_radius(nu)` (the radius where the
    saddle exponent Y is 9, halved for nu >= 0.01), and the
    stable-integral large-argument route past it (method "asymptotic").
    Both routes read Chebyshev
    interpolants built once per order from nu = 0.01: below the switch
    one of log M_nu in r, built from the series (method "series"), and
    past it one of the integral, in 1/Y and, below Y = 1, in r. Their
    estimates do not depend on tol; against 40-digit references the error
    is at most 4.4e-13 relative below the switch and about 1e-12 past it. Orders whose builds fail
    (tiny orders such as 1e-3) sum the series or integrate at each radius
    instead. The one-point case of m_wright_values, so both return the
    same bits.

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
    return _m_wright_array(nu, rs, tol, methods=False)[0].reshape(
        np.shape(rs))


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


def _ml_nodes(nu: float, far: bool):
    """The nodes of a piece of `_ml_interpolant` (see `_chebyshev_piece`):
    h = log E_nu(-s) at s, or (far) h = log(s Gamma(1-nu) E_nu(-s)) at s =
    1/t, from `_ml_spectral` at full relative accuracy; E_nu(0) = 1."""
    g = float(_gamma(1.0 - nu))

    def nodes(x):
        s = 1.0 / x if far else x
        v, e = np.ones(s.size), np.zeros(s.size)
        live = s > 0.0
        try:
            v[live], e[live] = _ml_spectral(nu, s[live], 0.0)
        except QuadratureFailure:
            return None
        if not (np.isfinite(v) & (v > 0.0)).all():
            return None
        return np.log(s * g * v if far else v), e / v

    return nodes


@lru_cache(maxsize=256)
def _ml_interpolant(nu: float):
    """The Chebyshev pieces of E_nu(-s), 0 < nu < 1, on 0 < s <= 1024, or
    None.

    The layout of `_pieces` on `_ml_nodes`, two pieces built once per
    order: h = log E_nu(-s) in s on [0, 4], and h = log(s Gamma(1-nu)
    E_nu(-s)) in t = 1/s on [1/1024, 1/4], which tends to 0 with t as
    E_nu(-s) tends to its leading power 1/(s Gamma(1-nu)). Returns
    ((s_from, lo, hi, in_s, coefficients, rel), ...) as `_tail_interpolant`,
    read by `_read_pieces` with the key s. None where a build fails (orders
    such as 1e-3 and from about 0.9963): those keep the Taylor series and
    the spectral integral at each argument.
    """
    return _pieces([(_ML_NEAR, 1.0 / _ML_FAR, 1.0 / _ML_NEAR, False,
                     _ml_nodes(nu, True)),
                    (0.0, 0.0, _ML_NEAR, True, _ml_nodes(nu, False))])


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
    # the closed forms at s > 0, and at s = inf the limit 0 of every order
    exact = (s > 0.0) & (nu in (0.0, 0.5, 1.0) or s == math.inf)
    if exact.any():
        if nu == 0.0:
            value[exact] = 1.0 / (1.0 + s[exact])
        elif nu == 0.5:
            value[exact] = _erfcx(s[exact])
        else:
            value[exact] = np.exp(-s[exact])
        # erfcx is up to 4.1 eps off (s near 2e-8), the other two within 2
        # eps; a subnormal or underflowed value adds two subnormal spacings
        # (`_gaussian_estimate`'s rule: e^-s past s = 708.4, erfcx past s =
        # 2.5e307), and the limit 0 at s = inf is exact
        v = value[exact]
        err[exact] = (8.0 if nu == 0.5 else 4.0) * _EPS * v + np.where(
            (v < _TINY) & (s[exact] < math.inf), _SUBNORMAL_2, 0.0)
        method[exact] = METHOD_LIMIT_CASE if nu == 0.0 else METHOD_CLOSED_FORM
    rows = np.flatnonzero((s > 0.0) & ~exact)
    # 0 < nu < 1: the spectral integral past s = 1024, where the Taylor terms
    # s^k overflow before they meet the stopping rule; up to there the
    # pieces, or the Taylor series at orders whose build fails
    cut = (s[rows] > _ML_FAR) & (nu < 1.0)
    far, rows = rows[cut], rows[~cut]
    fit = _ml_interpolant(nu) if nu < 1.0 and rows.size else None
    if fit is not None:
        _, h, rel = _read_pieces(fit, s[rows], s[rows])
        lead = np.where(s[rows] >= _ML_NEAR,
                        s[rows] * float(_gamma(1.0 - nu)), 1.0)
        value[rows] = v = np.exp(h) / lead
        err[rows], method[rows] = v * (rel + 8.0 * _EPS), METHOD_ASYMPTOTIC
    elif rows.size:
        # Taylor rows, stopped at min(tol, 1e-13), else at tol, else NaN.
        # 1/Gamma at the rounded argument x = nu n + 1 moves a term by up to
        # x |psi(x)| eps, beyond the series floor (56 ulps at nu = 0.9): the
        # floor weighs each term used by half of x log x + n / 2 + 5
        terms = _series_terms(nu, 1.0, -s[rows], factorial=False)
        x = nu * _N + 1.0
        weight = 0.5 * (x * np.log(x) + 0.5 * _N + 5.0)
        v, trunc, cancel = _apply_stopping_rule(terms, min(tol, 1e-13),
                                                weight)
        if (miss := np.isnan(v)).any():
            v[miss], trunc[miss], cancel[miss] = _apply_stopping_rule(
                terms[miss], tol, weight)
        value[rows], err[rows], method[rows] = v, trunc + cancel, METHOD_SERIES
        # nu > 1 has no other route; past s^(1/nu) = 60 cancellation wins
        if nu > 1.0 and (np.isnan(v) | ~(s[rows] ** (1.0 / nu) < 60.0)).any():
            raise NonConvergence(f"E_{nu}(-s): Taylor series unusable and "
                                 f"the spectral integral only applies for "
                                 f"nu < 1")
        if nu < 1.0:
            far = np.union1d(far, rows[~(err[rows] <= tol)])
    if far.size:
        value[far], err[far] = _ml_spectral(nu, s[far], tol)
        method[far] = METHOD_ASYMPTOTIC
    return value, err, method


def mittag_leffler_neg(nu: float, s: float, tol: float = 1e-12) -> EvalResult:
    """E_nu(-s), s >= 0, the one-point case of mittag_leffler_values.

    For 0 < nu < 1 up to s = 1024, the per-order Chebyshev pieces built
    from the spectral integral (`_ml_interpolant`, method "asymptotic"),
    within 2e-13 relative of 40-digit references, with an estimate that
    does not depend on tol; up to there, orders whose build fails (such as
    1e-3 and 0.999) take the Taylor series where it meets tol and the
    spectral integral elsewhere. Past s = 1024 the spectral integral at
    every 0 < nu < 1 (method "asymptotic"). nu = 0 needs s < 1 (1/(1+s)),
    nu = 1/2 is erfcx(s) and nu = 1 exp(-s) (method "closed_form"; a
    subnormal or underflowed value adds two subnormal spacings to the
    estimate); nu > 1 has the Taylor series only, up to s^(1/nu) = 60. At
    s = inf the limit 0 holds for nu < 2; else NonConvergence is raised.
    """
    (value,), (err,), (method,) = _ml_array(nu, float(s), tol)
    return EvalResult(float(value), float(err), str(method))


def mittag_leffler_values(nu, s, tol: float = 1e-12) -> np.ndarray:
    """Vectorized E_nu(-s) (values only), on the routes of
    mittag_leffler_neg with the same bits: the pieces read elementwise, the
    rows left to the spectral integral in one pass."""
    return _ml_array(nu, s, tol)[0].reshape(np.shape(s))


# ---------------------------------------------------------------------------
# moments, Mellin, closed forms, ODE residual
# ---------------------------------------------------------------------------

def m_wright_moment(nu, delta: float) -> float:
    """Absolute moment of M_nu on the positive axis.

    int_0^inf r^delta M_nu(r) dr = Gamma(delta+1)/Gamma(nu*delta+1),
    valid for delta > -1 and 0 <= nu < 1. Where Gamma(delta+1) overflows
    the ratio is taken in log space (`fraccalc._gamma_ratio`, the power
    rules' helper); ResultOverflow is raised where the ratio itself leaves
    the double range (delta = inf included).
    """
    nu = _as_nu(nu)
    delta = float(delta)
    if not delta > -1.0:
        raise InvalidMomentOrder(f"moment order must exceed -1, got {delta}")
    if not 0.0 <= nu < 1.0:
        raise InvalidOrder(f"need 0 <= nu < 1, got {nu}")
    return _gamma_ratio(delta + 1.0, nu * delta + 1.0)


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


_AIRY_ARG = 3.0 ** (-1.0 / 3.0)
_AIRY_SCALE = 3.0 ** (2.0 / 3.0)


def _airy_m(z):
    """M_(1/3)(z) = 3^(2/3) Ai(z 3^(-1/3)) and its estimate, elementwise for
    a float or an array, from one `scipy.special.airy` call: Cephes on x =
    z 3^(-1/3) in [-10, 10] (power series to x = 2.09, asymptotic forms
    past it), AMOS outside.

    The estimate, times 3^(2/3), is 2 eps |x Ai'(x)| for the rounding of x
    plus the routines' own error, which grows like |x|^1.5: 128 eps (1 +
    x^1.5) |Ai(x)| for x >= 0 (Cephes documents 2.3e-14 relative on [0,
    10]) and 8 eps (1 + |x|^1.5) for x < 0 (1.6e-15 absolute on [-10, 0]).
    From x = 103.097 (z = 148.69), where M_(1/3) is still about 1e-304,
    AMOS returns 0, and from x = 2^20 NaN: there the value is 0 and the
    estimate `m_wright_envelope(1/3)` (`_underflow_estimate`).
    NonConvergence below x of about -2^20 (z = -1.51e6), where AMOS
    returns NaN, and at a NaN z.
    """
    x = np.multiply(z, _AIRY_ARG)
    ai, aip, _, _ = _airy(x)
    a = np.minimum(np.abs(x), 2.0 ** 20)  # no overflow past AMOS' range
    err = _AIRY_SCALE * _EPS * (
        np.where(x < 0.0, 8.0, 128.0 * np.abs(ai)) * (1.0 + a * np.sqrt(a))
        + 2.0 * np.abs(x * aip))
    if (under := ~(np.abs(ai) > 0.0)).any():  # 0 or NaN
        if (bad := under & ~(x > 0.0)).any():
            raise NonConvergence(f"no Airy value for M_(1/3) at "
                                 f"z={np.extract(bad, z)[0]}")
        ai = np.where(under, 0.0, ai)
        err = np.where(under, _underflow_estimate(
            1.0 / 3.0, np.where(under, z, 1.0)), err)
    return _AIRY_SCALE * ai, err


def m_wright_special(q: int, z: float) -> EvalResult:
    """Closed forms M_{1/2} (Gaussian) and M_{1/3} (Airy function).

    q = 2 is exp(-z^2/4)/sqrt(pi), the one-point case of M_(1/2)'s block
    route, m_wright(0.5, |z|), with its bits and estimate: 4 eps x value
    plus the rounding of z^2/4, which the exponent amplifies by z^2/4
    (`_gaussian_estimate`). q = 3 is 3^(2/3) Ai(z
    3^(-1/3)) from scipy's Airy function (`_airy_m`, with the bits that z
    has in a block), with an estimate that grows like |z|^1.5; past z =
    148.69 the value is 0 and the estimate M_(1/3)'s envelope, and below
    z of about -1.51e6 NonConvergence is raised. NaN is rejected; so is
    +-inf for q = 3 (q = 2 gives the limit 0 there).
    """
    z = float(z)
    if math.isnan(z):
        raise InvalidArgument("m_wright_special argument is NaN")
    if q == 2:
        return m_wright(0.5, abs(z))
    if q == 3:
        if math.isinf(z):
            raise InvalidArgument(f"M_(1/3) needs a finite argument, got {z}")
        value, err = _airy_m(z)
        return EvalResult(float(value), float(err), METHOD_CLOSED_FORM)
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
