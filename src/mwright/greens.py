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
from dataclasses import dataclass

import numpy as np
from scipy.special import rgamma as _rgamma

from . import specfun
from .errors import CFLViolation, InvalidArgument, InvalidTime, \
    NearSingularOrder, SpecMismatch
from .fraccalc import _prod_trap_pieces
from .gridfn import GridFunction

HISTORY_BLOCK = 32  # time steps per history GEMM in solve_volterra


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
    """Vectorized green_density over an array of positions."""
    scale = _green_scale(spec, t)
    args = np.abs(np.asarray(xs, dtype=float)) / scale
    return 0.5 / scale * specfun.m_wright_values(0.5 * spec.beta, args)


def green_density_result(spec: GreenSpec, x: float, t: float):
    """green_density (the same bits) as an EvalResult: the M_(beta/2)
    estimate times the same factor as the value, and the M_(beta/2) method."""
    scale = _green_scale(spec, t)
    m = specfun.m_wright(0.5 * spec.beta, abs(float(x)) / scale)
    return specfun.EvalResult(0.5 / scale * m.value,
                              0.5 / scale * m.abs_err_estimate, m.method)


def _time(t: float) -> float:
    """t itself; InvalidTime unless 0 < t < inf (NaN fails too)."""
    if not 0.0 < t < math.inf:
        raise InvalidTime(f"need a finite time t > 0, got {t}")
    return t


def _green_scale(spec: GreenSpec, t: float) -> float:
    """k^(1/2) t^(alpha/2), the width that the Green function scales by."""
    return math.sqrt(spec.k) * _time(t) ** (0.5 * spec.alpha)


def variance_law(spec: GreenSpec, t: float) -> float:
    """Displacement variance 2 k t^alpha / Gamma(beta + 1)."""
    return (2.0 * spec.k * _time(t) ** spec.alpha
            * float(_rgamma(spec.beta + 1.0)))


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
    Vectorized over the positions xs.
    """
    scale = _drift_scale(spec, t)
    xs = np.asarray(xs, dtype=float)
    out = np.zeros(xs.shape)
    ahead = ~(xs < 0.0)  # NaN positions reach m_wright_values and raise
    out[ahead] = scale * specfun.m_wright_values(spec.beta, xs[ahead] * scale)
    return out


def drift_green(spec: DriftSpec, x: float, t: float) -> float:
    """One-sided drift Green function at x: drift_green_values at one point."""
    return float(drift_green_values(spec, float(x), t))


def drift_green_result(spec: DriftSpec, x: float, t: float):
    """drift_green (the same bits) as an EvalResult: the M_beta estimate
    times the same factor as the value and the M_beta method; (0, 0,
    closed form) for x < 0."""
    scale = _drift_scale(spec, t)
    x = float(x)
    if x < 0.0:
        return specfun.EvalResult(0.0, 0.0, specfun.METHOD_CLOSED_FORM)
    m = specfun.m_wright(spec.beta, x * scale)
    return specfun.EvalResult(scale * m.value, scale * m.abs_err_estimate,
                              m.method)


def _drift_scale(spec: DriftSpec, t: float) -> float:
    """t^(-beta), the factor of the drift Green function and its argument."""
    _time(t)
    if spec.beta > specfun.NU_MAX:  # the density is M_beta
        raise NearSingularOrder(
            f"beta={spec.beta}: too close to the delta-pulse limit")
    return t ** (-spec.beta)


def drift_green_stable_form(spec: DriftSpec, x: float, t: float) -> float:
    """Drift Green function through the extremal stable density.

    (t/beta) x^(-1-1/beta) L(t x^(-1/beta)) with the one-sided stable
    density L(r) = beta r^(-beta-1) M_beta(r^(-beta)); algebraically equal
    to drift_green, kept as an independent evaluation route.
    """
    _drift_scale(spec, t)  # the checks on t and beta
    if not x > 0.0:
        raise InvalidArgument("stable form needs x > 0")
    if x == math.inf:  # M_beta vanishes there, as drift_green has it
        return 0.0
    beta = spec.beta
    r = t * x ** (-1.0 / beta)
    stable_density = beta * r ** (-beta - 1.0) * specfun.m_wright(
        beta, r ** (-beta)).value
    return t / beta * x ** (-1.0 - 1.0 / beta) * stable_density


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
    the block's earlier rows.

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
        Number of steps in stretched time, at least 16.
    bc_halfwidth : float
        Required half-width of the computational domain.
    """
    _time(t_end)
    if nt < 16:
        raise InvalidArgument("need nt >= 16")
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

    dsig = t_end ** (spec.alpha / spec.beta) / nt
    p0, p1 = _prod_trap_pieces(spec.beta, nt)
    ap = p0 - p1
    w_diag = p1[1]  # implicit weight of the current step, constant in n
    coef = spec.k * dsig ** spec.beta * float(_rgamma(spec.beta))

    m = len(u0) - 2
    # sine coefficients of the interior profile; u_xx has -lam times them
    base = _dst1(u0.ys[1:-1])
    lam = _sine_eigenvalues(m, dx)
    inv = 1.0 / (1.0 + w_diag * coef * lam)
    base_inv, gain = base * inv, coef * lam * inv
    bound = 25.0 * (base @ base)  # squared L2 guard, by Parseval

    # history weights W[n, 0] = ap[n] and W[n, j] = ap[n-j] + p1[n-j+1]
    # for j >= 1, the latter stored reversed as wr[nt - n + j], so that a
    # step's weights for the rows done in its block are one contiguous slice
    wr = np.zeros(nt + 1)
    wr[1:nt] = (ap[1:nt] + p1[2:])[::-1]
    hist = np.empty((nt + 1, m))
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
            if u @ u > bound:
                raise CFLViolation(
                    f"update grew beyond the stability guard at step {n}")
    out = np.zeros(m + 2)
    out[1:-1] = _dst1(hist[nt]) * (2.0 / (m + 1))
    meta = (f"alpha={spec.alpha} beta={spec.beta} K={spec.k} t={t_end} "
            f"nt={nt}")
    return GridFunction(u0.xs.copy(), out, meta)
