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
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.special import rgamma as _rgamma

from . import specfun
from .errors import CFLViolation, InvalidArgument, InvalidTime, \
    NearSingularOrder, SpecMismatch
from .fraccalc import _prod_trap_pieces
from .gridfn import GridFunction

DRIFT_BETA_CAP = 0.99


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
        if not self.k > 0.0:
            raise InvalidArgument("diffusion coefficient must be positive")

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
    Gaussian kernel when beta = 1.
    """
    if not t > 0.0:
        raise InvalidTime("need t > 0")
    scale = math.sqrt(spec.k) * t ** (0.5 * spec.alpha)
    return 0.5 / scale * specfun.m_wright(0.5 * spec.beta,
                                          abs(float(x)) / scale).value


def green_density_values(spec: GreenSpec, xs, t: float) -> np.ndarray:
    """Vectorized green_density over an array of positions."""
    if not t > 0.0:
        raise InvalidTime("need t > 0")
    scale = math.sqrt(spec.k) * t ** (0.5 * spec.alpha)
    args = np.abs(np.asarray(xs, dtype=float)) / scale
    return 0.5 / scale * specfun.m_wright_values(0.5 * spec.beta, args)


def variance_law(spec: GreenSpec, t: float) -> float:
    """Displacement variance 2 k t^alpha / Gamma(beta + 1)."""
    if not t > 0.0:
        raise InvalidTime("need t > 0")
    return 2.0 * spec.k * t ** spec.alpha * float(_rgamma(spec.beta + 1.0))


def green_fourier(spec: GreenSpec, kappa: float, t: float) -> float:
    """Spatial Fourier transform of the Green function, E_beta(-kappa^2 t^beta).

    Non-dimensional reduction: requires alpha = beta and k = 1 (the
    Laplace-first inversion route); the x-domain profile is the
    Fourier-first route, and the two must agree under the cosine-transform
    oracle.
    """
    if spec.alpha != spec.beta or spec.k != 1.0:
        raise SpecMismatch("Fourier form defined for alpha = beta, k = 1")
    if not t > 0.0:
        raise InvalidTime("need t > 0")
    return specfun.mittag_leffler_neg(spec.beta,
                                      kappa * kappa * t ** spec.beta).value


def drift_green_values(spec: DriftSpec, xs, t: float) -> np.ndarray:
    """One-sided drift Green function t^(-beta) M_beta(x t^(-beta)), x > 0.

    Vanishes for x < 0; normalized on the positive axis with mean
    t^beta / Gamma(beta + 1). The beta -> 1 limit is a pure right-running
    pulse delta(x - t), not representable here (NearSingularOrder).
    Vectorized over the positions xs.
    """
    if not t > 0.0:
        raise InvalidTime("need t > 0")
    if spec.beta > DRIFT_BETA_CAP:
        raise NearSingularOrder(
            f"beta={spec.beta}: too close to the delta-pulse limit")
    xs = np.asarray(xs, dtype=float)
    scale = t ** (-spec.beta)
    out = np.zeros(xs.shape)
    ahead = ~(xs < 0.0)  # NaN positions reach m_wright_values and raise
    out[ahead] = scale * specfun.m_wright_values(spec.beta, xs[ahead] * scale)
    return out


def drift_green(spec: DriftSpec, x: float, t: float) -> float:
    """One-sided drift Green function at x: drift_green_values at one point."""
    return float(drift_green_values(spec, float(x), t))


def drift_green_stable_form(spec: DriftSpec, x: float, t: float) -> float:
    """Drift Green function through the extremal stable density.

    (t/beta) x^(-1-1/beta) L(t x^(-1/beta)) with the one-sided stable
    density L(r) = beta r^(-beta-1) M_beta(r^(-beta)); algebraically equal
    to drift_green, kept as an independent evaluation route.
    """
    if not t > 0.0:
        raise InvalidTime("need t > 0")
    if not x > 0.0:
        raise InvalidArgument("stable form needs x > 0")
    if spec.beta > DRIFT_BETA_CAP:
        raise NearSingularOrder(
            f"beta={spec.beta}: too close to the delta-pulse limit")
    beta = spec.beta
    r = t * x ** (-1.0 / beta)
    stable_density = beta * r ** (-beta - 1.0) * specfun.m_wright(
        beta, r ** (-beta)).value
    return t / beta * x ** (-1.0 - 1.0 / beta) * stable_density


def drift_mean(spec: DriftSpec, t: float) -> float:
    """First moment of the drift Green function, t^beta / Gamma(beta+1)."""
    if not t > 0.0:
        raise InvalidTime("need t > 0")
    return t ** spec.beta * float(_rgamma(spec.beta + 1.0))


# ---------------------------------------------------------------------------
# Volterra time stepping
# ---------------------------------------------------------------------------

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
    and second-order central differences in x. The current-step weight is
    treated implicitly (one banded Cholesky, reused), so no step-size
    restriction applies; a growth guard still raises CFLViolation if the
    update ever amplifies the profile.

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
    if not t_end > 0.0:
        raise InvalidTime("need t_end > 0")
    if nt < 16:
        raise InvalidArgument("need nt >= 16")
    dx = u0.spacing
    if u0.xs[0] > -bc_halfwidth + 1e-12 or u0.xs[-1] < bc_halfwidth - 1e-12:
        raise InvalidArgument(
            f"grid [{u0.xs[0]}, {u0.xs[-1]}] does not span the requested "
            f"half-width {bc_halfwidth}")

    a_exp = spec.alpha / spec.beta
    big_t = t_end ** a_exp
    dsig = big_t / nt
    p0, p1 = _prod_trap_pieces(spec.beta, nt)
    ap = p0 - p1
    w_diag = p1[1]  # implicit weight of the current step, constant in n
    coef = spec.k * dsig ** spec.beta * float(_rgamma(spec.beta))

    nx = len(u0)
    inner = slice(1, nx - 1)
    v0 = u0.ys.copy()
    v0[0] = v0[-1] = 0.0
    sup0 = float(np.max(np.abs(v0))) + 1e-300

    # banded SPD matrix I + coef*w_diag*(-D2) on interior nodes
    c = coef * w_diag / (dx * dx)
    m = nx - 2
    ab = np.zeros((2, m))
    ab[0, 1:] = -c
    ab[1, :] = 1.0 + 2.0 * c
    chol = cholesky_banded(ab, lower=False)

    def d2(u_inner):
        full = np.zeros(nx)
        full[inner] = u_inner
        return (full[:-2] - 2.0 * full[1:-1] + full[2:]) / (dx * dx)

    hist = np.empty((nt + 1, m))
    u = v0[inner].copy()
    hist[0] = d2(u)
    base = v0[inner]
    for n in range(1, nt + 1):
        w_row = np.empty(n)
        w_row[0] = ap[n]
        if n > 1:
            w_row[1:] = ap[n - 1:0:-1] + p1[n:1:-1]
        rhs = base + coef * (w_row @ hist[:n])
        u = cho_solve_banded((chol, False), rhs)
        hist[n] = d2(u)
        if np.max(np.abs(u)) > 5.0 * sup0:
            raise CFLViolation(
                f"update grew beyond the stability guard at step {n}")
    out = np.zeros(nx)
    out[inner] = u
    meta = (f"alpha={spec.alpha} beta={spec.beta} K={spec.k} t={t_end} "
            f"nt={nt}")
    return GridFunction(u0.xs.copy(), out, meta)
