"""Generalized grey Brownian motion: densities, sampling, and statistics.

The two-parameter family (alpha, beta) of self-similar processes with
stationary increments contains standard Brownian motion (1, 1), fractional
Brownian motion (beta = 1), and grey Brownian motion (alpha = beta). A
path is an fBm-type Gaussian vector scaled by the square root of an
independent mixing variable Lambda whose density is M_beta, drawn exactly
through the one-sided stable construction (no rejection). Marginals are
symmetric M-Wright densities matching the diffusion Green functions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import chdtrc as _chdtrc, gamma as _gamma, rgamma as _rgamma

from . import quadrature, specfun
from .errors import (
    InsufficientPaths,
    InvalidArgument,
    InvalidOrder,
    InvalidTime,
    NotPositiveDefinite,
)

_BATCH = 4096  # fixed sampling batch; keeps path i independent of n_paths


@dataclass(frozen=True)
class CovSpec:
    """Covariance parameters: exponents (alpha, beta) and sampling times."""

    alpha: float
    beta: float
    times: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise InvalidArgument(f"need 0 < alpha < 2, got {self.alpha}")
        if not 0.0 < self.beta <= 1.0:
            raise InvalidArgument(f"need 0 < beta <= 1, got {self.beta}")
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or len(times) == 0:
            raise InvalidArgument("times must be a non-empty 1-d array")
        if not (np.isfinite(times).all() and times[0] > 0.0
                and (np.diff(times) > 0.0).all()):
            raise InvalidArgument(
                "times must be finite, strictly increasing and > 0")


@dataclass
class PathEnsemble:
    """Sampled trajectories (paths x times) with their seed and mixing values."""

    spec: CovSpec
    paths: np.ndarray
    seed: int
    lambdas: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    def sidecar(self) -> dict:
        return {
            "alpha": self.spec.alpha,
            "beta": self.spec.beta,
            "times": [float(t) for t in self.spec.times],
            "seed": int(self.seed),
            "n_paths": int(self.n_paths),
        }

    def save(self, prefix: str) -> tuple[str, str]:
        """Write '<prefix>.csv' (one row per path) and '<prefix>.json'."""
        csv_path = f"{prefix}.csv"
        json_path = f"{prefix}.json"
        with open(csv_path, "w") as fh:
            fh.write("# ggbm ensemble; columns are sampling times\n")
            fh.write("# " + ",".join(f"{t:.17g}" for t in self.spec.times)
                     + "\n")
            for row in self.paths:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        with open(json_path, "w") as fh:
            json.dump(self.sidecar(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return csv_path, json_path


@dataclass(frozen=True)
class NPointQuery:
    """Displacements x_1..x_n paired with the covariance times t_1..t_n."""

    spec: CovSpec
    xs: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        object.__setattr__(self, "xs", xs)
        if xs.shape != self.spec.times.shape:
            raise InvalidArgument("xs must match the times in length")


def covariance_matrix(spec: CovSpec) -> np.ndarray:
    """gamma_ij = (t_i^a + t_j^a - |t_i - t_j|^a) / Gamma(1+beta).

    Symmetric positive definite for distinct positive times; the diagonal
    is 2 t_i^alpha / Gamma(1+beta).
    """
    gam = _raw_covariance(spec) * _rgamma(1.0 + spec.beta)
    _cholesky(gam)
    return gam


def _raw_covariance(spec: CovSpec) -> np.ndarray:
    """t_i^a + t_j^a - |t_i - t_j|^a (no Gamma normalization)."""
    t = spec.times
    ta = t ** spec.alpha
    return (ta[:, None] + ta[None, :]
            - np.abs(t[:, None] - t[None, :]) ** spec.alpha)


def _cholesky(c: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor; NotPositiveDefinite when there is none."""
    try:
        return np.linalg.cholesky(c)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            "covariance factorization failed; degenerate times?") from exc


def pdf_marginal(alpha: float, beta: float, x: float, t: float) -> float:
    """One-point density (1/2) t^(-alpha/2) M_(beta/2)(|x| t^(-alpha/2)).

    Identical to the diffusion Green function with unit coefficient.
    """
    if not t > 0.0:
        raise InvalidTime("need t > 0")
    scale = t ** (0.5 * alpha)
    return 0.5 / scale * specfun.m_wright(0.5 * beta, abs(x) / scale).value


def _pdf_marginal_values(alpha, beta, xs, t):
    scale = t ** (0.5 * alpha)
    return 0.5 / scale * specfun.m_wright_values(
        0.5 * beta, np.abs(np.asarray(xs, dtype=float)) / scale)


def pdf_npoint(q: NPointQuery) -> float:
    """n-point density of the process at the query displacements.

    (2 pi)^(-(n-1)/2) / sqrt(2 Gamma(1+beta)^n det gamma) *
    int_0^inf tau^(-n/2) M_(1/2)(xi / sqrt(tau)) M_beta(tau) dtau,
    with xi^2 = 2 Gamma(1+beta)^(-1) x' gamma^(-1) x. For n = 1 this
    reduces to pdf_marginal; for beta = 1 it is the fBm Gaussian law.
    """
    spec = q.spec
    n = len(spec.times)
    beta = spec.beta
    chol = _cholesky(_raw_covariance(spec) * _rgamma(1.0 + beta))
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    y = np.linalg.solve(chol, q.xs)
    quad_form = float(y @ y)  # x' gamma^(-1) x
    gb = float(_gamma(1.0 + beta))
    xi = math.sqrt(2.0 / gb * quad_form)
    if beta == 1.0:
        # delta mixing: multivariate Gaussian with covariance gamma
        return float(math.exp(-0.5 * quad_form - 0.5 * logdet
                              - 0.5 * n * math.log(2.0 * math.pi)))
    if xi == 0.0 and n >= 2:
        raise InvalidArgument(
            "n-point density diverges at the origin for n >= 2, beta < 1")
    log_const = (-(n - 1) / 2.0 * math.log(2.0 * math.pi)
                 - 0.5 * (math.log(2.0) + n * math.log(gb) + logdet))

    def integrand(tau):
        tau = np.asarray(tau)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            la = (-xi * xi / (4.0 * tau) - 0.5 * n * np.log(tau)
                  - 0.5 * math.log(math.pi))
        g = np.where(la > -745.0, np.exp(np.minimum(la, 700.0)), 0.0)
        return g * specfun.m_wright_values(beta, tau)

    env = specfun.m_wright_envelope(beta)
    scale0 = max(xi * xi / 120.0, 1e-12)
    pts = sorted(set(
        [scale0 * 2.0 ** k for k in range(-4, 14)] + [0.5, 1.0, 2.0]))
    pts = [p for p in pts if p < 4.0]
    # for tau >= 1 the tau^(-n/2) and Gaussian factors only shrink it
    val, _ = quadrature.integrate_to_inf(
        integrand, 0.0, tol=1e-12, rtol=1e-10, tail_bound=env, points=pts)
    return math.exp(log_const) * val


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_oneside_stable(nu: float, rng: np.random.Generator, size=None):
    """Draw from the one-sided extremal stable law with transform e^(-s^nu).

    Kanter's rejection-free construction: S = (A(pi U)/W)^((1-nu)/nu) with
    U uniform on (0,1), W standard exponential, and the kernel
    A(phi) = [sin(nu phi)^nu sin((1-nu) phi)^(1-nu) / sin(phi)]^(1/(1-nu)).
    """
    nu = float(nu)
    if not 0.0 < nu < 1.0:
        raise InvalidOrder(f"stable index must lie in (0, 1), got {nu}")
    scalar = size is None
    m = 1 if scalar else size
    u = np.clip(rng.random(m), 1e-16, 1.0 - 1e-16)
    w = np.maximum(rng.standard_exponential(m), 1e-300)
    log_a = specfun._kanter_log_a(nu, np.pi * u)
    s = np.exp((1.0 - nu) / nu * (log_a - np.log(w)))
    return float(s[0]) if scalar else s


def sample_mixing_lambda(beta: float, rng: np.random.Generator, size=None):
    """Draw the mixing value Lambda with density M_beta on the positive axis.

    Lambda = S^(-beta) with S one-sided stable of index beta; for beta = 1
    the density is the point mass at 1 and no randomness is consumed.
    """
    beta = float(beta)
    if not 0.0 < beta <= 1.0:
        raise InvalidOrder(f"need 0 < beta <= 1, got {beta}")
    if beta == 1.0:
        return 1.0 if size is None else np.ones(size)
    s = sample_oneside_stable(beta, rng, size)
    return s ** (-beta)


def sample_paths(spec: CovSpec, n_paths: int, seed: int) -> PathEnsemble:
    """Sample an ensemble of trajectories.

    Per path: one mixing draw Lambda (density M_beta), one zero-mean
    Gaussian vector G with covariance t_i^a + t_j^a - |t_i-t_j|^a via
    dense Cholesky, path = sqrt(Lambda) * G. Then E[B_i B_j] recovers the
    full covariance including the 1/Gamma(1+beta) factor because
    E[Lambda] = 1/Gamma(1+beta).

    Paths are generated in fixed-size batches on spawned substreams, so
    path i is reproducible independently of n_paths; the same seed yields
    a bit-identical ensemble.
    """
    if n_paths < 1:
        raise InvalidArgument("need n_paths >= 1")
    chol = _cholesky(_raw_covariance(spec))
    ntimes = len(spec.times)
    n_batches = (n_paths + _BATCH - 1) // _BATCH
    children = np.random.SeedSequence(seed).spawn(n_batches)
    paths = np.empty((n_paths, ntimes))
    lambdas = np.empty(n_paths)
    for b in range(n_batches):
        rng = np.random.Generator(np.random.PCG64(children[b]))
        lam = sample_mixing_lambda(spec.beta, rng, _BATCH)
        z = rng.standard_normal((_BATCH, ntimes))
        g = z @ chol.T
        block = np.sqrt(lam)[:, None] * g
        lo = b * _BATCH
        hi = min(lo + _BATCH, n_paths)
        paths[lo:hi] = block[: hi - lo]
        lambdas[lo:hi] = lam[: hi - lo]
    return PathEnsemble(spec, paths, int(seed), lambdas)


# ---------------------------------------------------------------------------
# marginal CDF / quantiles and ensemble statistics
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _half_cdf_grid(nu: float, n: int = 4001):
    """Cumulative integral of M_nu on [0, R] (dense trapezoid grid)."""
    r_max = specfun.asymptotic_radius(nu, 1e-14)
    rs = np.linspace(0.0, r_max, n)
    vals = specfun.m_wright_values(nu, rs)
    cdf = np.concatenate(([0.0], np.cumsum(
        0.5 * (vals[1:] + vals[:-1]) * np.diff(rs))))
    return rs, np.minimum(cdf, 1.0)


def marginal_cdf(alpha: float, beta: float, x, t: float):
    """Distribution function of the one-point law at time t (vectorized)."""
    if not t > 0.0:
        raise InvalidTime("need t > 0")
    nu = 0.5 * beta
    scale = t ** (0.5 * alpha)
    rs, half = _half_cdf_grid(nu)
    x = np.asarray(x, dtype=float)
    h = 0.5 * np.interp(np.abs(x) / scale, rs, half)
    out = 0.5 + np.sign(x) * h
    return float(out) if out.ndim == 0 else out


def marginal_quantile(alpha: float, beta: float, p, t: float):
    """Quantiles of the one-point law (vectorized in p)."""
    if not t > 0.0:
        raise InvalidTime("need t > 0")
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise InvalidArgument("quantile levels must lie strictly in (0, 1)")
    nu = 0.5 * beta
    scale = t ** (0.5 * alpha)
    rs, half = _half_cdf_grid(nu)
    tail = np.abs(2.0 * p - 1.0) / 2.0  # half-line mass above/below center
    q = np.interp(tail, half / half[-1] * 0.5, rs)
    return np.sign(p - 0.5) * q * scale


@dataclass
class StatsReport:
    """Ensemble statistics with standard errors and a marginal fit test."""

    times: np.ndarray
    mean: np.ndarray
    mean_se: np.ndarray
    variance: np.ndarray
    variance_se: np.ndarray
    lag1_increment_corr: float
    lag1_increment_corr_se: float
    chi2_stat: float
    chi2_pvalue: float
    chi2_cells: int
    n_paths: int

    def to_json(self) -> str:
        d = {
            "times": self.times.tolist(),
            "mean": self.mean.tolist(),
            "mean_se": self.mean_se.tolist(),
            "variance": self.variance.tolist(),
            "variance_se": self.variance_se.tolist(),
            "lag1_increment_corr": self.lag1_increment_corr,
            "lag1_increment_corr_se": self.lag1_increment_corr_se,
            "chi2_stat": self.chi2_stat,
            "chi2_pvalue": self.chi2_pvalue,
            "chi2_cells": self.chi2_cells,
            "n_paths": self.n_paths,
        }
        return json.dumps(d, sort_keys=True)


def ensemble_stats(e: PathEnsemble, cells: int = 20) -> StatsReport:
    """Per-time moments, increment correlation, and a marginal fit test.

    Standard errors use empirical higher moments (no normality assumed);
    the chi-square test bins the final-time marginal on equal-probability
    cells of the analytic law.
    """
    n = e.n_paths
    if n < 100:
        raise InsufficientPaths(f"need at least 100 paths, got {n}")
    x = e.paths
    mean = x.mean(axis=0)
    sd = x.std(axis=0, ddof=1)
    mean_se = sd / math.sqrt(n)
    var = sd * sd
    dev4 = x - mean
    dev4 *= dev4  # two squarings: ** 4 would go through pow
    dev4 *= dev4
    m4 = dev4.mean(axis=0)
    del dev4  # free it before the increment arrays below
    var_se = np.sqrt(np.maximum(m4 - var * var, 0.0) / n)

    d = np.diff(x, axis=1)
    prod = d[:, :-1] * d[:, 1:]
    per_path = prod.mean(axis=1)
    c01 = float(per_path.mean())
    c00 = float((d * d).mean())
    corr = c01 / c00
    corr_se = float(per_path.std(ddof=1)) / math.sqrt(n) / c00

    t_final = float(e.spec.times[-1])
    edges = marginal_quantile(e.spec.alpha, e.spec.beta,
                              np.arange(1, cells) / cells, t_final)
    counts = np.histogram(x[:, -1], bins=np.concatenate(
        ([-np.inf], edges, [np.inf])))[0]
    expected = n / cells
    stat = float(((counts - expected) ** 2 / expected).sum())
    pval = float(_chdtrc(cells - 1, stat))

    return StatsReport(e.spec.times.copy(), mean, mean_se, var, var_se,
                       corr, corr_se, stat, pval, cells, n)
