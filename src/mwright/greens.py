"""Green functions of the stretched time-fractional diffusion family.

The two-parameter family (time-stretch exponent alpha, fractional order
beta) interpolates between standard diffusion (alpha = beta = 1),
stretched Gaussian diffusion (beta = 1), and time-fractional diffusion
(alpha = beta < 1). Green functions are self-similar M-Wright profiles
with Hurst exponent alpha/2; a product-quadrature Volterra solver provides
an independent numerical route to the same solutions. The one-sided
fractional drift Green function (the subordinator density) is included
with its equivalent stable-density form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import rgamma as _rgamma

from . import specfun
from .errors import CFLViolation, InvalidArgument, InvalidTime, \
    NearSingularOrder, ResultOverflow, SpecMismatch, count
from .fraccalc import _prod_trap_pieces
from .gridfn import GridFunction

HISTORY_BLOCK = 32  # time steps per history GEMM in solve_volterra
# solve_volterra marches a profile as given while its peak lies within
# (1/_MARCH_RANGE, _MARCH_RANGE): there its sum of squares is a normal double
_MARCH_RANGE = 2.0 ** 400
# solve_volterra's node route: the march runs at this many Chebyshev rates
# where there are at least twice as many sine modes; its coefficients chop
# at _RATE_CHOP of the largest, and _RATE_LEBESGUE bounds the Lebesgue
# constant of the interpolation, 1 + (2/pi) log 257 = 4.53
_CHEB_RATES = 257
_RATE_CHOP = 1e-15
_RATE_LEBESGUE = 1.0 + 2.0 / math.pi * math.log(_CHEB_RATES)


@dataclass(frozen=True)
class GreenSpec:
    """Diffusion-equation selector: exponents (alpha, beta) and coefficient k.

    alpha in (0, 2] stretches time, beta in (0, 1] is the fractional order,
    k > 0 carries units length^2 / time^alpha.
    """

    alpha: float = 1.0
    beta: float = 1.0
    k: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise InvalidArgument(f"need 0 < alpha <= 2, got {self.alpha}")
        if not 0.0 < self.beta <= 1.0:
            raise InvalidArgument(f"need 0 < beta <= 1, got {self.beta}")
        if not 0.0 < self.k < math.inf:
            raise InvalidArgument(
                f"diffusion coefficient must be finite and > 0, got {self.k}")

    @property
    def hurst(self) -> float:
        """Self-similarity exponent H = alpha/2."""
        return 0.5 * self.alpha

    @property
    def regime(self) -> str:
        """'slow' for alpha < 1, 'normal' at 1, 'fast' above."""
        if self.alpha < 1.0:
            return "slow"
        return "normal" if self.alpha == 1.0 else "fast"


@dataclass(frozen=True)
class DriftSpec:
    """Order of the one-sided time-fractional drift equation."""

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise InvalidArgument(f"need 0 < beta <= 1, got {self.beta}")


def green_density(spec: GreenSpec, x: float, t: float) -> float:
    """Fundamental solution evaluated at (x, t).

    (1/2) (k^(1/2) t^(alpha/2))^(-1) M_(beta/2)(|x| / (k^(1/2) t^(alpha/2))),
    symmetric in x and integrating to 1 over the line. Reduces to the
    Gaussian kernel when beta = 1. green_density_values at one point.
    """
    return float(green_density_values(spec, float(x), t))


def green_density_values(spec: GreenSpec, xs, t: float) -> np.ndarray:
    """Vectorized green_density over an array of positions.

    The values of `_scaled_m`: in linear form where that is exact, in logs
    where the width k^(1/2) t^(alpha/2) leaves the normal double range (a
    time near 0 or a huge k t^alpha), or where a factor 1/(2 width) > 1
    meets an M_(beta/2) value below 1e-280. A value past the double range
    raises ResultOverflow.
    """
    return _green(spec, xs, t)[0].reshape(np.shape(xs))


def green_density_result(spec: GreenSpec, x: float, t: float):
    """green_density (the same bits) as an EvalResult: its one-point case,
    with the estimate and the M_(beta/2) method of `_scaled_m`."""
    (value,), (err,), (method,) = _green(spec, float(x), t)
    return specfun.EvalResult(float(value), float(err), str(method))


def _green(spec: GreenSpec, xs, t: float):
    """Value, estimate and method arrays of the Green function at the
    positions xs, flattened: c M_(beta/2)(a |xs|), c = 1/(2 scale) and a =
    1/scale."""
    scale = _green_scale(spec, t)
    xs = np.asarray(xs, dtype=float).ravel()
    with np.errstate(over="ignore"):  # M_nu is 0 at an inf argument
        linear = ((np.abs(xs) / scale, 0.5 / scale)
                  if sys.float_info.min <= scale < math.inf else None)
    log_scale = 0.5 * (math.log(spec.k) + spec.alpha * math.log(t))
    value, err, method = _scaled_m(0.5 * spec.beta, np.abs(xs), linear,
                                   math.log(0.5) - log_scale, -log_scale)
    return _checked(value, xs, t, "Green function"), err, method


# the least M_nu value that a factor c > 1 multiplies in linear form: from
# there M_nu's estimate, at least 8 eps times the value (1.8e-295), clears
# its 1e-300 floor, and no subnormal digits are lifted
_LINEAR_M_MIN = 1e-280


def _scaled_m(nu: float, xs: np.ndarray, linear, log_c: float,
              log_a: float):
    """c M_nu(a xs) at positions xs >= 0 (a flat array): value, estimate
    and method arrays, the method M_nu's at the point.

    linear is (a xs, c) as the caller forms them in doubles, or None where
    its scale is not a normal double (so that a is normal where c is). A
    point takes that linear form, c times M_nu's value and estimate at a
    xs, where c is a normal double and either c <= 1 or M_nu(a xs) >=
    _LINEAR_M_MIN: there the product keeps M_nu's digits and its estimate,
    plus one subnormal spacing for its rounding where a positive M_nu
    gives a product below the normal range (`_log_form`'s rule). Every
    other point takes `_log_form`.
    """
    if linear is None or not sys.float_info.min <= linear[1]:
        return _log_form(nu, xs, log_c, log_a)
    args, c = linear
    v, e, method = specfun._m_wright_array(nu, args, 1e-12)
    with np.errstate(over="ignore"):  # inf: ResultOverflow at _checked
        value, err = c * v, c * e
    err[(v > 0.0) & (value < sys.float_info.min)] += math.ulp(0.0)
    logs = (c > 1.0) & (v < _LINEAR_M_MIN)
    if logs.any():
        value[logs], err[logs], method[logs] = _log_form(nu, xs[logs], log_c,
                                                         log_a)
    return value, err, method


def _log_form(nu: float, x: np.ndarray, log_c: float, log_a: float):
    """`_scaled_m` in logs: exp(log M_nu + log c) at the argument exp(log x
    + log a), with log M_nu from `specfun._m_wright_array`'s logs, which
    hold where M_nu underflows. The value is 0 where the argument leaves
    the double range, and inf where the value does.

    The estimate is the value times M_nu's relative estimate plus the
    rounding of the logs: 4 eps (1 + |log M| + |log c|) of the exponent,
    and eps (2 + |log x| + |log a|) of the argument, times (1 + Y)/(1 -
    nu), which bounds |d log M/d log r| (Y = `specfun._saddle_exponent`;
    at nu = 0.99 and Y = 474 that is 47500), and one subnormal spacing for
    exp's rounding where the value is subnormal. Where the value is 0, it
    is `specfun._underflow_estimate` on the tail route at a finite
    argument, and 0 elsewhere: there the rounding terms, as large as Y,
    need not fit in a double, and the value lies below the double range at
    any argument within the rounding."""
    with np.errstate(divide="ignore", over="ignore"):  # log 0 = -inf
        arg = np.exp(np.log(x) + log_a)
    _, _, method, log_m, rel = specfun._m_wright_array(nu, arg, 1e-12,
                                                       logs=True)
    with np.errstate(over="ignore"):  # inf: ResultOverflow at _checked
        value = np.exp(log_m + log_c)
    live = (0.0 < value) & (value < math.inf)
    slope = (1.0 + specfun._saddle_exponent(nu, arg[live])) / (1.0 - nu)
    log_x = np.abs(np.log(np.where(x[live] > 0.0, x[live], 1.0)))
    size = sys.float_info.epsilon * (
        4.0 * (1.0 + np.abs(log_m[live]) + abs(log_c))
        + slope * (2.0 + log_x + abs(log_a)))
    err = np.zeros(x.size)
    err[live] = math.ulp(0.0) + np.exp(np.log(rel[live] + size)
                                       + (log_m[live] + log_c))
    under = ~live & (method == specfun.METHOD_ASYMPTOTIC) & (arg < math.inf)
    err[under] = specfun._underflow_estimate(nu, arg[under], log_c)
    return value, err, method


def _checked(out, xs, t: float, what: str):
    """out, or ResultOverflow naming the first x where it is inf."""
    over = np.isinf(out)
    if over.any():
        raise ResultOverflow(f"{what} at x={xs[over][0]}, t={t} exceeds the "
                             f"double range")
    return out


def _time(t: float) -> float:
    """t itself; InvalidTime unless 0 < t < inf (NaN fails too)."""
    if not 0.0 < t < math.inf:
        raise InvalidTime(f"need a finite time t > 0, got {t}")
    return t


def _green_scale(spec: GreenSpec, t: float) -> float:
    """k^(1/2) t^(alpha/2), the width that the Green function scales by."""
    return math.sqrt(spec.k) * _time(t) ** (0.5 * spec.alpha)


def variance_law(spec: GreenSpec, t: float) -> float:
    """Displacement variance 2 k t^alpha / Gamma(beta + 1); ResultOverflow
    where it exceeds the double range."""
    try:
        var = (2.0 * spec.k * _time(t) ** spec.alpha
               * float(_rgamma(spec.beta + 1.0)))
    except OverflowError:  # t^alpha
        var = math.inf
    if var == math.inf:
        raise ResultOverflow(f"variance at t={t} exceeds the double range")
    return var


def green_fourier(spec: GreenSpec, kappa: float, t: float) -> float:
    """Spatial Fourier transform of the Green function, E_beta(-kappa^2 t^beta).

    Non-dimensional reduction: requires alpha = beta and k = 1 (the
    Laplace-first inversion route); the x-domain profile is the
    Fourier-first route, and the two must agree under the cosine-transform
    oracle.
    """
    if spec.alpha != spec.beta or spec.k != 1.0:
        raise SpecMismatch("Fourier form defined for alpha = beta, k = 1")
    return specfun.mittag_leffler_neg(
        spec.beta, kappa * kappa * _time(t) ** spec.beta).value


def drift_green_values(spec: DriftSpec, xs, t: float) -> np.ndarray:
    """One-sided drift Green function t^(-beta) M_beta(x t^(-beta)), x > 0.

    Vanishes for x < 0; normalized on the positive axis with mean
    t^beta / Gamma(beta + 1). The beta -> 1 limit is a pure right-running
    pulse delta(x - t), not representable here (NearSingularOrder).
    Vectorized over the positions xs. The values of `_scaled_m`: in linear
    form where that is exact, in logs where t^(-beta) leaves the double
    range, or where a factor t^(-beta) > 1 meets an M_beta value below
    1e-280. A value past the double range raises ResultOverflow.
    """
    return _drift(spec, xs, t)[0].reshape(np.shape(xs))


def drift_green(spec: DriftSpec, x: float, t: float) -> float:
    """One-sided drift Green function at x: drift_green_values at one point."""
    return float(drift_green_values(spec, float(x), t))


def drift_green_result(spec: DriftSpec, x: float, t: float):
    """drift_green (the same bits) as an EvalResult: its one-point case,
    with the estimate and the M_beta method of `_scaled_m`; (0, 0, closed
    form) for x < 0."""
    (value,), (err,), (method,) = _drift(spec, float(x), t)
    return specfun.EvalResult(float(value), float(err), str(method))


def _drift(spec: DriftSpec, xs, t: float):
    """Value, estimate and method arrays of the drift Green function at
    the positions xs, flattened: c M_beta(a xs), c = a = t^(-beta), at xs
    >= 0, and (0, 0, closed form) behind the front."""
    scale = _drift_scale(spec, t)
    xs = np.asarray(xs, dtype=float).ravel()
    value, err = np.zeros((2, xs.size))
    method = np.full(xs.size, specfun.METHOD_CLOSED_FORM)
    ahead = ~(xs < 0.0)  # NaN positions reach M_beta and raise
    with np.errstate(over="ignore"):  # M_beta is 0 at an inf argument
        linear = (xs[ahead] * scale, scale) if scale < math.inf else None
    log_s = -spec.beta * math.log(t)
    value[ahead], err[ahead], method[ahead] = _scaled_m(
        spec.beta, xs[ahead], linear, log_s, log_s)
    return _checked(value, xs, t, "drift Green function"), err, method


def _drift_scale(spec: DriftSpec, t: float) -> float:
    """t^(-beta), the factor of the drift Green function and its argument;
    inf where it exceeds the double range."""
    _time(t)
    if spec.beta > specfun.NU_MAX:  # the density is M_beta
        raise NearSingularOrder(
            f"beta={spec.beta}: too close to the delta-pulse limit")
    try:
        return t ** (-spec.beta)
    except OverflowError:
        return math.inf


def drift_green_stable_form(spec: DriftSpec, x: float, t: float) -> float:
    """Drift Green function through the extremal stable density.

    (t/beta) x^(-1-1/beta) L(t x^(-1/beta)) with the one-sided stable
    density L(r) = beta r^(-beta-1) M_beta(r^(-beta)); algebraically equal
    to drift_green, kept as an independent evaluation route. r and the
    prefactors are formed in log space, since r leaves the double range
    long before the value does (x = 3 at beta = 0.001 gives r = 3^-1000),
    and so is M_beta (`specfun._m_wright_array`'s logs), which keeps its
    digits where M_beta(r^(-beta)) is subnormal or underflows.
    """
    _drift_scale(spec, t)  # the checks on t and beta
    if not x > 0.0:
        raise InvalidArgument("stable form needs x > 0")
    beta = spec.beta
    log_t, log_x = math.log(t), math.log(x)
    log_r = log_t - log_x / beta
    # M_beta(e^709) is 0 at every order, as drift_green has it; exp
    # overflows past e^709.78
    arg = math.exp(min(-beta * log_r, 709.0))
    log_m = specfun._m_wright_array(beta, arg, 1e-12, logs=True)[3][0]
    if log_m == -math.inf:  # at x = inf too
        return 0.0
    log_value = (log_t - (1.0 + 1.0 / beta) * log_x
                 - (beta + 1.0) * log_r + log_m)
    try:
        return math.exp(log_value)
    except OverflowError:
        raise ResultOverflow(f"drift Green function at x={x}, t={t} "
                             f"exceeds the double range") from None


def drift_mean(spec: DriftSpec, t: float) -> float:
    """First moment of the drift Green function, t^beta / Gamma(beta+1)."""
    return _time(t) ** spec.beta * float(_rgamma(spec.beta + 1.0))


# ---------------------------------------------------------------------------
# Volterra time stepping
# ---------------------------------------------------------------------------

def _dst1(x):
    """Type-I discrete sine transform sum_j x_j sin(pi j k / (m+1)) over
    j, k = 1..m, from the real FFT of the odd extension of x; applying it
    twice gives (m+1)/2 times x."""
    m = len(x)
    ext = np.zeros(2 * (m + 1))
    ext[1:m + 1] = x
    ext[m + 2:] = -x[::-1]
    return -0.5 * np.fft.rfft(ext).imag[1:m + 1]


def _sine_eigenvalues(m, dx):
    """Eigenvalues of minus the zero-Dirichlet second difference on m
    interior nodes, (2 sin(pi k / (2(m+1))) / dx)^2 for k = 1..m; the sine
    modes of _dst1 are its eigenvectors."""
    half_angles = 0.5 * np.pi * np.arange(1, m + 1) / (m + 1)
    return (2.0 * np.sin(half_angles) / dx) ** 2


def _march(base, lam, coef, ap, p1, bound):
    """The Volterra march of the sine coefficients base, mode j at the rate
    coef * lam[j]: the rows u_0 = base, ..., u_nt, with ap = p0 - p1 and
    p1 from the product-trapezoidal pieces of nt steps. CFLViolation names
    the first step whose sum of squares exceeds bound (None: no guard).

    Step n solves u_n = base - z (p1[1] u_n + sum_(j<n) W[n, j] u_j) per
    mode, z = coef * lam, with W[n, 0] = ap[n] and W[n, j] = ap[n-j] +
    p1[n-j+1] for j >= 1. The history sum runs in blocks of HISTORY_BLOCK
    steps: the part before a block is one matrix product over a Toeplitz
    slab of the weights, and each step adds only the block's earlier rows.
    """
    nt = len(ap) - 1
    inv = 1.0 / (1.0 + p1[1] * coef * lam)
    base_inv, gain = base * inv, coef * lam * inv
    # W[n, j] for j >= 1 stored reversed as wr[nt - n + j], so that a
    # step's weights for the rows done in its block are one contiguous slice
    wr = np.zeros(nt + 1)
    wr[1:nt] = (ap[1:nt] + p1[2:])[::-1]
    hist = np.empty((nt + 1, len(base)))
    hist[0] = base
    for s in range(1, nt + 1, HISTORY_BLOCK):
        e = min(s + HISTORY_BLOCK, nt + 1)
        # history before the block: one GEMM over a Toeplitz slab of wr
        slab = wr[(nt - np.arange(s, e))[:, None] + np.arange(s)]
        slab[:, 0] = ap[s:e]
        acc = slab @ hist[:s]
        for n in range(s, e):
            row = acc[n - s]
            if n > s:  # rows already done in this block
                row += wr[nt - n + s:nt] @ hist[s:n]
            np.multiply(gain, row, out=row)
            u = np.subtract(base_inv, row, out=hist[n])
            if bound is not None and u @ u > bound:
                raise CFLViolation(
                    f"update grew beyond the stability guard at step {n}")
    return hist


def _rate_route(lam, coef, ap, p1):
    """phi_nt(coef * lam), the factor by which the march takes each sine
    mode to step nt, from a march of phi on _CHEB_RATES rates; None where
    that route is not accepted.

    Every mode obeys the same recurrence, so mode j at step n is its
    coefficient times phi_n(z_j), phi_0 = 1; phi is smooth in log z. Its
    march at the Chebyshev extreme points of log lam over [log lam_1, log
    lam_m] gives the coefficients (`specfun._chebyshev_coefficients`) that
    `specfun._chebval` reads at every mode. The route is accepted where
    the slowest rate and its eigenvalue lam_1 < lam_m are normal positive
    doubles, the last three coefficients lie below _RATE_CHOP times the
    largest, and _RATE_LEBESGUE times the largest |phi_n| at the nodes is
    at most 5: the interpolant of every step then stays within five times
    its start, so the mode march's growth guard could not trip.
    """
    lo, hi = float(lam[0]), float(lam[-1])
    if not (sys.float_info.min <= min(lo, coef * lo) and lo < hi):
        return None
    a, b = math.log(lo), math.log(hi)
    x = np.cos(np.pi * np.arange(_CHEB_RATES) / (_CHEB_RATES - 1))
    rates = np.exp(a + 0.5 * (b - a) * (1.0 + x))
    # a node march that grows fails the bound below, inf or NaN included
    with np.errstate(over="ignore", invalid="ignore"):
        phi = _march(np.ones(_CHEB_RATES), rates, coef, ap, p1, None)
        # max |phi| without its copy; both are NaN where one phi_n is
        peak = max(float(np.max(phi)), -float(np.min(phi)))
    if not _RATE_LEBESGUE * peak <= 5.0:
        return None
    c = specfun._chebyshev_coefficients(phi[-1])
    if not np.max(np.abs(c[-3:])) <= _RATE_CHOP * np.max(np.abs(c)):
        return None
    return specfun._chebval((2.0 * np.log(lam) - (a + b)) / (b - a), c)


def solve_volterra(u0: GridFunction, spec: GreenSpec, t_end: float,
                   nt: int, bc_halfwidth: float) -> GridFunction:
    """March the equivalent Volterra integral equation to t_end.

    u(x,t) = u0(x) + k/Gamma(beta) * (alpha/beta) *
             int_0^t tau^(alpha/beta-1) (t^(alpha/beta)-tau^(alpha/beta))^(beta-1)
             u_xx(x,tau) dtau.

    The substitution sigma = tau^(alpha/beta) turns the kernel into the
    plain fractional-integral kernel (T - sigma)^(beta-1); the solver
    marches on a uniform sigma grid with product-trapezoidal quadrature
    (exact moments of the singular kernel against piecewise-linear u_xx)
    and second-order central differences in x. The discrete sine
    transform diagonalizes those zero-Dirichlet differences, so each sine
    mode of the interior profile marches on its own, with the current
    step implicit (no step-size restriction); a growth guard still raises
    CFLViolation if the profile's L2 norm exceeds five times its initial
    value. The history sum runs in blocks of HISTORY_BLOCK steps: the
    part before a block is one matrix product, and each step adds only
    the block's earlier rows (`_march`).

    Mode j at step n is its sine coefficient times phi_n(z_j), where z_j =
    coef lam_j is its rate and phi depends on the rate alone. So with at
    least 2 _CHEB_RATES = 514 modes and a normal positive slowest rate,
    the march runs on _CHEB_RATES Chebyshev rates in log z instead of on
    every mode, and phi_nt is read at the modes from their Chebyshev
    coefficients (`_rate_route`). That route is accepted where the
    coefficients chop (the last three below 1e-15 of the largest) and the
    Lebesgue constant, 4.53, times the largest |phi_n| at the nodes is at
    most 5, so that the growth guard could not trip; it agrees with the
    mode march to a few eps times max |u0|. Elsewhere (fewer modes, a
    slowest rate at or below the normal range, a tail that does not chop,
    a node march past the bound) the mode march runs, with its guard at
    every step, and keeps its bits.

    InvalidArgument is raised where the stretched time t_end^(alpha/beta),
    or the rate of the stiffest sine mode (a grid too fine for the step),
    leaves the double range. A profile too large or too small to square in
    doubles marches scaled by a power of two; a result past the double
    range raises ResultOverflow.

    Parameters
    ----------
    u0 : GridFunction
        Initial profile on a uniform grid; must span at least
        [-bc_halfwidth, bc_halfwidth] and be compactly supported well
        inside it (zero-Dirichlet edges).
    spec : GreenSpec
    t_end : float
        Final physical time.
    nt : int
        Number of steps in stretched time, an integer of at least 16
        (InvalidArgument).
    bc_halfwidth : float
        Required half-width of the computational domain.
    """
    _time(t_end)
    nt = count(nt, "nt", 16)
    if len(u0) < 3:
        raise InvalidArgument("grid needs at least one interior node")
    dx = u0.spacing
    if not np.isfinite(u0.ys).all():
        raise InvalidArgument("initial profile must be finite")
    # written so that a NaN half-width fails too
    if not (u0.xs[0] <= -bc_halfwidth + 1e-12
            and u0.xs[-1] >= bc_halfwidth - 1e-12):
        raise InvalidArgument(
            f"grid [{u0.xs[0]}, {u0.xs[-1]}] does not span the requested "
            f"half-width {bc_halfwidth}")

    try:
        dsig = t_end ** (spec.alpha / spec.beta) / nt
    except OverflowError:
        raise InvalidArgument(
            f"stretched time t_end^(alpha/beta) at t_end={t_end}, "
            f"alpha/beta={spec.alpha / spec.beta} exceeds the double "
            f"range") from None
    p0, p1 = _prod_trap_pieces(spec.beta, nt)
    coef = spec.k * dsig ** spec.beta * float(_rgamma(spec.beta))

    m = len(u0) - 2
    with np.errstate(over="ignore"):  # inf: refused just below
        lam = _sine_eigenvalues(m, dx)
    if not math.isfinite(coef * float(lam[-1])):  # the largest eigenvalue
        raise InvalidArgument(
            f"grid spacing {dx} is too fine for t_end={t_end} at nt={nt}: "
            f"the rate of the stiffest sine mode exceeds the double range")
    # the march is linear, so a profile whose squares (the guard's sum
    # below) would leave the double range marches scaled by an exact power
    # of two, 2^shift, and its result is scaled back
    interior = u0.ys[1:-1]
    peak = float(np.max(np.abs(interior)))
    shift = (0 if 1.0 / _MARCH_RANGE < peak < _MARCH_RANGE
             else -math.frexp(peak)[1])  # 0 for a zero profile too
    # sine coefficients of the interior profile; u_xx has -lam times them
    base = _dst1(np.ldexp(interior, shift))
    ap = p0 - p1
    phi = _rate_route(lam, coef, ap, p1) if m >= 2 * _CHEB_RATES else None
    if phi is None:  # the mode march; squared L2 guard, by Parseval
        last = _march(base, lam, coef, ap, p1, 25.0 * (base @ base))[nt]
    else:
        last = base * phi
    out = np.zeros(m + 2)
    out[1:-1] = _dst1(last) * (2.0 / (m + 1))
    if shift:
        with np.errstate(over="ignore"):  # inf: ResultOverflow below
            out = np.ldexp(out, -shift)
        if not np.isfinite(out).all():
            raise ResultOverflow(
                f"solution at t={t_end} exceeds the double range")
    meta = (f"alpha={spec.alpha} beta={spec.beta} K={spec.k} t={t_end} "
            f"nt={nt}")
    return GridFunction(u0.xs.copy(), out, meta)
