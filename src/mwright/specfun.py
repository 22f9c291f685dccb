"""Evaluation of the Wright function family on the real line.

Covers the general Wright series W_{lam,mu}(z), the auxiliary functions
M_nu and F_nu (Wright functions of the second kind that drive
time-fractional diffusion), and the one-parameter Mittag-Leffler function
E_nu(-s) on the negative real axis.

Every power series (W_{lam,mu}, the M_nu series, the Taylor series of
E_nu(-s)) runs through one engine: `_series_terms` builds the terms for
a block of arguments, one row each, and `_apply_stopping_rule` stops
every row and attaches its truncation and rounding estimates.

Evaluation strategy for M_nu (m_wright is the one-point case of
m_wright_values, so both share validation and dispatch):

* closed forms for nu = 0 (exp) and nu = 1/2 (Gaussian);
* power series in the reflection-formula form (coefficients 1/Gamma(1-nu*n),
  entire in the index, so no Gamma pole is evaluated) up to the crossover
  radius r*(nu), tabulated on a 0.01 grid in nu at first use: the smallest
  radius where the series rounding floor (2 eps sum|term|) exceeds
  min(1e-10, 1e-6 times the value);
* beyond r*, the exact one-sided stable-density integral (a positive
  smooth integrand on (0, 1), free of cancellation), taken for all radii
  at once by `quadrature.adaptive_rows`; the leading-order exponential
  form only serves envelopes and consistency checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gamma as _gamma, gammaln as _gammaln, rgamma as _rgamma

from . import quadrature
from .errors import (
    InvalidArgument,
    InvalidMomentOrder,
    InvalidOrder,
    NearSingularOrder,
    NegativeArgument,
    NonConvergence,
    UnsupportedQ,
)

_EPS = float(np.finfo(float).eps)
_TERM_BUDGET = 400
_N = np.arange(_TERM_BUDGET)
NU_MAX = 0.99  # evaluation cap; the peak near r=1 defeats doubles beyond this

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


def _series_terms(lam: float, mu: float, z, factorial: bool = True,
                  rebuild: bool = False) -> np.ndarray:
    """Terms z^n / (n! Gamma(lam*n + mu)), n < 400, one row per entry of z.

    Without the n! the rows hold the Mittag-Leffler terms
    z^n / Gamma(lam*n + mu). Uses the reciprocal Gamma (entire, zero at
    the poles) so no Gamma is ever evaluated at a non-positive argument.
    Entries that are not finite (an overflowing 1/Gamma or power factor)
    become +inf, which the stopping rule cannot pass. With rebuild=True
    they are instead resolved in log space where the power factor
    underflowed while 1/Gamma overflowed, and set to zero elsewhere.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    rg = _coefficients(lam, mu)
    ratio = np.ones((z.size, _TERM_BUDGET))
    ratio[:, 1:] = z[:, None] / (_N[1:] if factorial else 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.cumprod(ratio, axis=1) * rg
    bad = ~np.isfinite(t)
    if not rebuild:
        t[bad] = np.inf
        return t
    rows, nb = np.nonzero(bad)
    zb = z[rows]
    with np.errstate(divide="ignore", invalid="ignore"):
        lt = (nb * np.log(np.abs(zb))
              - (_gammaln(nb + 1.0) if factorial else 0.0)
              + _log_abs_rgamma(lam * nb + mu))
    # genuinely representable magnitude lost to overflow splitting:
    # reconstruct from logs (slightly lower per-term accuracy)
    representable = np.zeros(z.size, dtype=bool)
    representable[rows[lt > -700.0]] = True
    zsgn = np.where(nb % 2 == 0, 1.0, np.sign(zb))
    t[rows, nb] = np.where(representable[rows], np.sign(rg[nb]) * zsgn
                           * np.exp(np.minimum(lt, 700.0)), 0.0)
    return t


def _apply_stopping_rule(terms: np.ndarray, tol: float):
    """Stopping rule per row: three consecutive terms below tol*|partial sum|.

    Returns arrays (value, trunc_err, cancel_err), NaN in every row where
    the rule is not met within the supplied terms or only after a term
    overflowed.
    """
    s = np.cumsum(terms, axis=1)
    absterms = np.abs(terms)
    small = absterms < tol * np.abs(s)
    run3 = small[:, 2:] & small[:, 1:-1] & small[:, :-2]
    k = run3.argmax(axis=1) + 2  # index of the third small term
    value = s[np.arange(len(terms)), k]
    trunc = np.take_along_axis(absterms, k[:, None] - [2, 1, 0], 1).sum(1)
    # rounding floor: every term carries a few-ulp error, and for slowly
    # decaying alternating tables these accumulate with like signs
    absterms[_N > k[:, None]] = 0.0
    cancel = 2.0 * _EPS * absterms.sum(axis=1)
    miss = ~(run3.any(axis=1) & np.isfinite(value))
    if miss.any():
        for a in (value, trunc, cancel):
            a[miss] = np.nan
    return value, trunc, cancel


def _sum_series(lam: float, mu: float, z, tol: float):
    """Stopped Wright series at every z: arrays (value, trunc_err, cancel_err).

    Rows that miss the stopping rule because a term overflowed are
    rebuilt in log space and stopped again; rows that still miss are NaN.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = _apply_stopping_rule(_series_terms(lam, mu, z), tol)
    miss = np.isnan(out[0])
    if miss.any():
        redo = _apply_stopping_rule(
            _series_terms(lam, mu, z[miss], rebuild=True), tol)
        for a, b in zip(out, redo):
            a[miss] = b
    return out


def wright_series(idx: WrightIndex, z: float, tol: float = 1e-12) -> EvalResult:
    """Sum the defining power series of W_{lam,mu}(z).

    Valid for any real z while the stopping rule converges within the
    400-term budget; second-kind indices stop converging (in double
    precision) once |z| grows, in which case NonConvergence is raised.

    Parameters
    ----------
    idx : WrightIndex
        Index pair (lam, mu) with lam > -1.
    z : float
        Real argument.
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
    if math.isnan(z):
        raise InvalidArgument("wright_series argument is NaN")
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
    a = 1.0 / math.sqrt(2.0 * math.pi * (1.0 - nu))
    expo = (nu - 1.0) / nu * y ** (1.0 / (1.0 - nu))
    if expo < -745.0:
        return 0.0
    return a * y ** ((nu - 0.5) / (1.0 - nu)) * math.exp(expo)


def m_wright_envelope(nu, safety: float = 10.0):
    """Decreasing upper bound on M_nu(r) for large r (for tail truncation)."""
    nu = _as_nu(nu)
    if nu == 0.0:
        return lambda r: math.exp(-min(r, 745.0))
    return lambda r: safety * m_wright_asymptotic(nu, r)


def asymptotic_radius(nu, eps: float) -> float:
    """Radius beyond which the M_nu tail envelope stays below eps."""
    nu = _as_nu(nu)
    if nu == 0.0:
        return max(1.0, -math.log(max(eps, 1e-300)))
    env = m_wright_envelope(nu)
    r = max(2.0, 2.0 / nu)  # start beyond the envelope's peak
    while env(r) >= eps:
        r *= 2.0
        if r > 1e9:
            break
    return r


def _kanter_log_a(nu: float, phi: np.ndarray) -> np.ndarray:
    """log A(phi) of the one-sided stable construction, phi in (0, pi).

    A(phi) = [sin(nu phi)^nu sin((1-nu) phi)^(1-nu) / sin(phi)]^(1/(1-nu));
    the same kernel drives both tail evaluation of M_nu and the stable
    variate sampler.
    """
    return (nu * np.log(np.sin(nu * phi))
            + (1.0 - nu) * np.log(np.sin((1.0 - nu) * phi))
            - np.log(np.sin(phi))) / (1.0 - nu)


def _m_tail(nu: float, w: np.ndarray, tol: float):
    """M_nu at every radius w from the exact stable-density integral.

    M_nu(w) = w^{nu/(1-nu)}/(1-nu) * int_0^1 A(pi u) exp(-w^{1/(1-nu)} A(pi u)) du,
    integrated for all radii together. Returns (value, abs_err_estimate).
    """
    with np.errstate(over="ignore"):  # c = inf is past the underflow cut
        c = w ** (1.0 / (1.0 - nu))
    a0 = nu ** (nu / (1.0 - nu)) * (1.0 - nu)  # A(0+), the kernel's minimum
    value, err = np.zeros(w.size), np.full(w.size, 1e-300)
    live = c * a0 <= 745.0 + 50.0  # else below the double underflow threshold
    if not live.any():
        return value, err
    c = c[live]
    logscale = (nu / (1.0 - nu)) * np.log(w[live]) - math.log1p(-nu)

    def f(u, rows):
        la = _kanter_log_a(nu, np.pi * u)
        with np.errstate(over="ignore"):
            a = np.exp(np.minimum(la, 700.0))
            out = np.exp(la - c[rows, None] * a + logscale[rows, None])
        out[la > 700.0] = 0.0
        return out

    # breakpoints resolving the boundary layer near u = 0 when c*A is large
    width = 1.0 / np.sqrt(1.0 + c * a0)
    pts = np.minimum(1.0 - 1e-9, width[:, None] * 2.0 ** np.arange(-3, 6))
    # relative rounding of the samples: log A carries 1/(1-nu), c*A scales it
    noise = 8.0 * _EPS * (1.0 + c * a0) / (1.0 - nu)
    v, e = quadrature.adaptive_rows(f, 0.0, 1.0, pts, max(1e-300, 0.01 * tol),
                                    np.maximum(1e-13, noise), limit=600)
    value[live], err[live] = v, np.maximum(e + noise * v, 1e-300)
    return value, err


# ---------------------------------------------------------------------------
# crossover table
# ---------------------------------------------------------------------------

def _scan_crossover(nu: float) -> float:
    """Smallest radius where the series rounding floor crosses its cap.

    All radii 0.5 * 1.12^k up to 80 are summed in one block; the scan
    returns the radius before the first one that fails.
    """
    rs = [0.5]
    while rs[-1] * 1.12 <= 80.0:
        rs.append(rs[-1] * 1.12)
    value, _, cancel = _sum_series(-nu, 1.0 - nu, -np.array(rs), 1e-14)
    fail = np.isnan(value) | (cancel > np.minimum(1e-10, 1e-6 * abs(value)))
    first = int(fail.argmax()) if fail.any() else len(rs)
    return rs[max(first - 1, 0)]


@lru_cache(maxsize=None)
def _crossover_table():
    """(nus, radii) on the 0.01 order grid, built once at first use."""
    nus = np.round(np.arange(0.01, NU_MAX + 1e-9, 0.01), 2)
    return nus, np.array([_scan_crossover(float(v)) for v in nus])


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

def _m_wright_array(nu, rs, tol: float):
    """Validation and dispatch shared by m_wright and m_wright_values.

    Returns value, abs_err_estimate and method arrays over rs, flattened.
    """
    nu = _as_nu(nu)
    rs = np.asarray(rs, dtype=float).ravel()
    if not 0.0 <= nu < 1.0:
        raise InvalidOrder(f"M_nu needs an order 0 <= nu < 1, got {nu}")
    if nu > NU_MAX:
        raise NearSingularOrder(
            f"nu={nu} too close to the delta limit (cap {NU_MAX})")
    if not (rs >= 0.0).all():
        if np.isnan(rs).any():
            raise InvalidArgument("M_nu argument is NaN")
        raise NegativeArgument("M_nu arguments must be >= 0")
    if not tol > 0.0:
        raise InvalidArgument("tol must be positive")
    if nu == 0.0:
        v = np.exp(-rs)
        return v, 4.0 * _EPS * v, np.full(rs.shape, METHOD_LIMIT_CASE)
    if nu == 0.5:
        v = np.exp(-0.25 * rs * rs) / math.sqrt(math.pi)
        return v, 4.0 * _EPS * v, np.full(rs.shape, METHOD_CLOSED_FORM)
    value, err = np.full((2, rs.size), np.nan)
    near = rs <= crossover_radius(nu)
    if near.any():
        v, trunc, cancel = _sum_series(-nu, 1.0 - nu, -rs[near], tol)
        value[near], err[near] = v, trunc + cancel
    tail = np.isnan(value)
    value[tail], err[tail] = _m_tail(nu, rs[tail], tol)
    return value, err, np.where(tail, METHOD_ASYMPTOTIC, METHOD_SERIES)


def m_wright(nu, r: float, tol: float = 1e-12) -> EvalResult:
    """Evaluate the M-Wright function M_nu(r) for r >= 0.

    Dispatches between the exact limit/closed forms (nu = 0, 1/2), the
    power series below the crossover radius, and the stable-integral
    large-argument route above it. The one-point case of
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
    rs = np.asarray(rs, dtype=float)
    return _m_wright_array(nu, rs, tol)[0].reshape(rs.shape)


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

def _ml_taylor(nu: float, s: float, tol: float):
    """sum (-s)^n / Gamma(nu n + 1) with a cancellation-aware estimate.

    The terms are built once and stopped at min(tol, 1e-13), else at tol.
    Callers keep s^(1/nu) < 60, so overflowing powers only occur past
    the stopping index and the terms need no log-space rebuild.
    """
    terms = _series_terms(nu, 1.0, -s, factorial=False)
    for t in (min(tol, 1e-13), tol):
        (value,), (trunc,), (cancel,) = _apply_stopping_rule(terms, t)
        if not np.isnan(value):
            return float(value), float(trunc + cancel)
    return None


def _ml_asymptotic(nu: float, s: float):
    """Inverse-power expansion with optimal truncation (s large, nu < 1).

    The reciprocal-Gamma coefficients do not alternate strictly, so the
    classical first-omitted-term remainder bound needs headroom; measured
    worst-case remainders run a few times that term. The rounding floor
    2 eps sum|term| is added, as for the series.
    """
    total = 0.0
    absum = 0.0
    prev = math.inf
    best_err = math.inf
    for m in range(1, 201):
        rg = float(_rgamma(1.0 - nu * m))
        term = (-1.0) ** (m - 1) * rg * s ** (-m)
        if term != 0.0:
            if abs(term) >= prev:
                best_err = abs(term)
                break
            prev = abs(term)
        total += term
        absum += abs(term)
    else:
        best_err = prev
    return total, 5.0 * best_err + 2.0 * _EPS * absum


def mittag_leffler_neg(nu: float, s: float, tol: float = 1e-12) -> EvalResult:
    """Mittag-Leffler function on the negative real axis, E_nu(-s), s >= 0.

    Taylor series for moderate arguments and the inverse-power expansion
    with optimal truncation for large ones; in the crossover band the
    branch with the smaller internal error estimate is returned with an
    honest abs_err_estimate rather than failing.

    nu = 0 requires s < 1 and returns 1/(1+s); nu = 1 returns exp(-s).
    Orders nu >= 1 are served by the Taylor branch only.
    """
    nu = float(nu)
    s = float(s)
    if not 0.0 <= nu < math.inf:
        raise InvalidOrder(
            f"mittag_leffler_neg needs a finite nu >= 0, got {nu}")
    if math.isnan(s):
        raise InvalidArgument("mittag_leffler_neg argument is NaN")
    if s < 0.0:
        raise NegativeArgument("evaluates E_nu(-s) for s >= 0")
    if not tol > 0.0:
        raise InvalidArgument("tol must be positive")
    if s == 0.0:
        return EvalResult(1.0, 0.0, METHOD_CLOSED_FORM)
    if nu == 0.0:
        if s >= 1.0:
            raise InvalidArgument("nu = 0 needs s < 1 (geometric series)")
        v = 1.0 / (1.0 + s)
        return EvalResult(v, 4.0 * _EPS * v, METHOD_LIMIT_CASE)
    if nu == 1.0 or (s == math.inf and nu < 1.0):  # exact limit 0 at s = inf
        v = math.exp(-s)
        return EvalResult(v, 4.0 * _EPS * v, METHOD_CLOSED_FORM)

    # skip the Taylor branch when its largest term is beyond hope
    taylor = _ml_taylor(nu, s, tol) if s ** (1.0 / nu) < 60.0 else None
    if taylor is not None and taylor[1] <= tol:
        return EvalResult(*taylor, METHOD_SERIES)
    if nu < 1.0:
        asym, aerr = _ml_asymptotic(nu, s)
        if taylor is not None and aerr > tol and taylor[1] < aerr:
            return EvalResult(*taylor, METHOD_SERIES)
        return EvalResult(asym, aerr, METHOD_ASYMPTOTIC)
    if taylor is None:
        raise NonConvergence(
            f"E_{nu}(-{s}): Taylor series unusable and the inverse-power "
            f"expansion only applies for nu < 1")
    return EvalResult(*taylor, METHOD_SERIES)


# ---------------------------------------------------------------------------
# moments, Mellin, closed forms, ODE residual
# ---------------------------------------------------------------------------

def m_wright_moment(nu, delta: float) -> float:
    """Absolute moment of M_nu on the positive axis.

    int_0^inf r^delta M_nu(r) dr = Gamma(delta+1)/Gamma(nu*delta+1),
    valid for delta > -1 and 0 <= nu < 1.
    """
    nu = _as_nu(nu)
    delta = float(delta)
    if not delta > -1.0:
        raise InvalidMomentOrder(f"moment order must exceed -1, got {delta}")
    if nu < 0.0 or nu >= 1.0:
        raise InvalidOrder(f"need 0 <= nu < 1, got {nu}")
    return float(_gamma(delta + 1.0) * _rgamma(nu * delta + 1.0))


def mellin_m_wright(nu, s: float) -> float:
    """Mellin transform of M_nu: Gamma(s)/Gamma(nu(s-1)+1) for s > 0."""
    nu = _as_nu(nu)
    s = float(s)
    if not s > 0.0:
        raise InvalidArgument(f"Mellin variable must be positive, got {s}")
    return m_wright_moment(nu, s - 1.0)


def _airy_series(x: float, tol: float = 1e-16):
    """M_{1/3}(x) as the pair of hypergeometric-type power series.

    1/Gamma(2/3) * sum (1/3)_m x^{3m}/(3m)!
    - 1/Gamma(1/3) * sum (2/3)_m x^{3m+1}/(3m+1)!
    """
    c1 = float(_rgamma(2.0 / 3.0))
    c2 = float(_rgamma(1.0 / 3.0))
    x3 = x ** 3

    def part(j):
        # term_0 = x^j; ratio ((j+1)/3+m) x^3 / ((3m+j+1)(3m+j+2)(3m+j+3))
        total = t = x ** j
        m = 0
        while abs(t) > tol * max(abs(total), 1.0) and m < 300:
            k = 3 * m + j
            t *= ((j + 1) / 3.0 + m) * x3 / ((k + 1) * (k + 2) * (k + 3))
            total += t
            m += 1
        return total

    return c1 * part(0) - c2 * part(1)


def m_wright_special(q: int, z: float) -> EvalResult:
    """Closed forms M_{1/2} (Gaussian) and M_{1/3} (Airy, own power series)."""
    z = float(z)
    if q == 2:
        v = math.exp(-0.25 * z * z) / math.sqrt(math.pi)
        return EvalResult(v, 4.0 * _EPS * v, METHOD_CLOSED_FORM)
    if q == 3:
        v = _airy_series(z)
        return EvalResult(v, 8.0 * _EPS * max(abs(v), math.exp(-abs(z))),
                          METHOD_CLOSED_FORM)
    raise UnsupportedQ(f"closed form only for q in (2, 3), got {q}")


def _m_any(q: int, z: float) -> float:
    """M_{1/q}(z) for any real z through the generic series (self-test use)."""
    (value,), _, _ = _sum_series(-1.0 / q, 1.0 - 1.0 / q, -z, 1e-14)
    if np.isnan(value):
        raise NonConvergence(f"series for M_(1/{q}) at z={z}")
    return float(value)


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
    m = lambda x: _m_any(q, x)
    if q == 2:
        deriv = (m(z + h) - m(z - h)) / (2.0 * h)
    elif q == 3:
        deriv = (m(z + h) - 2.0 * m(z) + m(z - h)) / (h * h)
    else:
        deriv = (m(z + 2 * h) - 2.0 * m(z + h) + 2.0 * m(z - h)
                 - m(z - 2 * h)) / (2.0 * h ** 3)
    return deriv + ((-1.0) ** q / q) * z * m(z)
