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

import contextlib
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import chdtrc as _chdtrc, gamma as _gamma, rgamma as _rgamma

from . import _csv, greens, quadrature, specfun
from .errors import (
    InsufficientPaths,
    InvalidArgument,
    InvalidOrder,
    NonConvergence,
    NotPositiveDefinite,
    ResultOverflow,
    count,
)

_BATCH = 4096  # fixed sampling batch; keeps path i independent of n_paths
_BATCHES_PER_WORKER = 4  # fewer tasks per thread do not repay a pool
_KANTER_BLOCK = 1 << 15  # draws per task of a large draw's Kanter transform
_STATS_ROWS = 512  # rows per cache-resident block in ensemble_stats
_PAIRWISE_LEAF = 1 << 16  # values gathered per subtree of a streamed sum


@dataclass(frozen=True)
class CovSpec:
    """Covariance parameters: exponents (alpha, beta) and sampling times.

    ResultOverflow when the largest variance 2 t^alpha / Gamma(1+beta) is
    not a finite double.
    """

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
        with np.errstate(over="ignore"):
            top = 2.0 * times[-1] ** self.alpha * _rgamma(1.0 + self.beta)
        if not np.isfinite(top):
            raise ResultOverflow(
                f"the covariance 2 t^alpha / Gamma(1+beta) at "
                f"t={float(times[-1])!r}, alpha={self.alpha!r} exceeds the "
                f"double range")


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
        with open(csv_path, "wb") as fh:
            fh.write(b"# ggbm ensemble; columns are sampling times\n# ")
            fh.write(_csv.encode_rows(self.spec.times[None, :]))
            _csv.write_rows(fh, self.paths)
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
        if not np.isfinite(xs).all():
            raise InvalidArgument("xs must be finite")


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

    The diffusion Green function with unit coefficient, and evaluated as
    one, so orders outside 0 < alpha <= 2, 0 < beta <= 1 are rejected.
    """
    return greens.green_density(greens.GreenSpec(alpha, beta, 1.0), x, t)


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
    # x' gamma^(-1) x from x / 2**k, k the binary exponent of max |x|: the
    # same bits, and inf, not an overflow, where the form leaves the double
    # range (the density is 0 there)
    k = int(np.frexp(np.max(np.abs(q.xs)))[1])
    y = np.linalg.solve(chol, np.ldexp(q.xs, -k))
    with np.errstate(over="ignore"):
        quad_form = float(np.ldexp(y @ y, 2 * k))
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

def _kanter(nu: float, u, w):
    """Kanter's stable variate S = (A(pi U)/W)^((1-nu)/nu) of index nu from
    uniforms u and standard exponentials w, and y = log(A(pi U)/W); S is
    inf or 0 beyond the double range (small nu), without a RuntimeWarning.

    The transform runs in blocks of _KANTER_BLOCK draws, written into s and
    y, which are allocated here; every step acts on each value alone, so
    each value has the bits of the whole-array formula wherever its block
    starts. The blocks run on a thread pool where _pool makes one (from 8
    blocks, about a quarter million draws, and 2 CPUs); each block sets its
    own error state, numpy's being per thread."""
    u, w = np.asarray(u), np.asarray(w)
    s, y = np.empty(u.shape), np.empty(u.shape)
    flat = [a.reshape(-1) for a in (u, w, s, y)]

    def block(lo):
        u, w, s, y = (a[lo:lo + _KANTER_BLOCK] for a in flat)
        np.subtract(specfun._kanter_log_a(
            nu, np.pi * np.clip(u, 1e-16, 1.0 - 1e-16)),
            np.log(np.maximum(w, 1e-300)), out=y)
        with np.errstate(over="ignore"):
            np.exp((1.0 - nu) / nu * y, out=s)

    starts = range(0, u.size, _KANTER_BLOCK)
    with _pool(len(starts)) as pool:
        for _ in (map if pool is None else pool.map)(block, starts):
            pass
    return s, y


def sample_oneside_stable(nu: float, rng: np.random.Generator, size=None):
    """Draw from the one-sided extremal stable law with transform e^(-s^nu).

    Kanter's rejection-free construction: S = (A(pi U)/W)^((1-nu)/nu) with
    U uniform on (0,1), W standard exponential, and the kernel
    A(phi) = [sin(nu phi)^nu sin((1-nu) phi)^(1-nu) / sin(phi)]^(1/(1-nu)).
    A draw beyond the double range is inf (or 0), with no RuntimeWarning;
    at nu = 0.01 that happens when W is below about 7.5e-4. All uniforms
    are drawn first, then all exponentials; the transform runs in blocks,
    on a thread pool from about a quarter million draws (_kanter), with
    the bits of one whole-array formula.

    size is None (one float), a count >= 0 or a tuple of counts
    (InvalidArgument naming size otherwise).
    """
    nu = float(nu)
    if not 0.0 < nu < 1.0:
        raise InvalidOrder(f"stable index must lie in (0, 1), got {nu}")
    size = _size(size)
    s = _kanter(nu, rng.random(size), rng.standard_exponential(size))[0]
    return float(s) if size is None else s


def sample_mixing_lambda(beta: float, rng: np.random.Generator, size=None):
    """Draw the mixing value Lambda with density M_beta on the positive axis.

    Lambda = S^(-beta) with S one-sided stable of index beta; for beta = 1
    the density is the point mass at 1 and no randomness is consumed.
    size as for sample_oneside_stable.
    """
    beta = float(beta)
    if not 0.0 < beta <= 1.0:
        raise InvalidOrder(f"need 0 < beta <= 1, got {beta}")
    size = _size(size)
    if beta == 1.0:
        return 1.0 if size is None else np.ones(size)
    lam = _mixing_lambda(beta, rng.random(size),
                         rng.standard_exponential(size))
    return float(lam) if size is None else lam


def _size(size):
    """size as numpy's generators take it: None, a count >= 0, or a tuple
    (or list) of counts; InvalidArgument naming size otherwise."""
    if size is not None:
        for entry in size if isinstance(size, (tuple, list)) else (size,):
            count(entry, "size", 0)
    return size


def _mixing_lambda(beta: float, u, w):
    """Lambda = S^(-beta), S = _kanter(beta, u, w). Where S is inf or 0
    (beta below about 0.05), Lambda is the same number formed without S,
    exp(-(1-beta) log(A/W)), so every draw is finite and positive."""
    s, y = _kanter(beta, u, w)
    with np.errstate(divide="ignore"):
        lam = s ** (-beta)
    far = (s == 0.0) | (s == np.inf)
    return np.where(far, np.exp(-(1.0 - beta) * y), lam) if far.any() else lam


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def _pool(tasks: int):
    """A thread pool for `tasks` independent tasks, or None: run them on the
    calling thread. One rule for every pool here: a worker per
    _BATCHES_PER_WORKER tasks, at most one per CPU in the affinity mask,
    and a pool only from 2 workers on. The pool is made for the call (a
    cached one would hang in a child after fork) and joined on exit. Its
    tasks set their own numpy error state, which is per thread."""
    workers = min(_cpu_count(), tasks // _BATCHES_PER_WORKER)
    if workers < 2:
        yield None
        return
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        yield pool


def sample_paths(spec: CovSpec, n_paths: int, seed: int) -> PathEnsemble:
    """Sample an ensemble of trajectories.

    Per path: one mixing draw Lambda (density M_beta), one zero-mean
    Gaussian vector G with covariance t_i^a + t_j^a - |t_i-t_j|^a via
    dense Cholesky, path = sqrt(Lambda) * G. Then E[B_i B_j] recovers the
    full covariance including the 1/Gamma(1+beta) factor because
    E[Lambda] = 1/Gamma(1+beta).

    Paths are generated in fixed-size batches on spawned substreams, so
    path i is reproducible independently of n_paths; the same seed yields
    a bit-identical ensemble. Every batch is drawn whole, and the result
    is cut to n_paths (views of the whole-batch arrays). One task per batch
    draws its uniforms and exponentials into fresh arrays and its normals
    into its rows; given 4 batches per worker and 2 or more CPUs in the
    affinity mask, the tasks run on a thread pool (_pool). The calling
    thread takes the batches in order and writes Lambda into the batch's
    `lambdas` and the product with the Cholesky factor (into one reused
    buffer: one BLAS call at a time), scaled by sqrt(Lambda), into its
    rows. For any worker count the bits equal sqrt(Lambda) * (Z @ chol.T)
    batch by batch.

    n_paths >= 1 and seed >= 0 must be integers (InvalidArgument).
    """
    n_paths = count(n_paths, "n_paths", 1)
    seed = count(seed, "seed", 0)
    chol_t = _cholesky(_raw_covariance(spec)).T
    ntimes = len(spec.times)
    n_batches = (n_paths + _BATCH - 1) // _BATCH
    # before the spawn: a count too large to allocate fails without it
    paths = np.empty((n_batches, _BATCH, ntimes))
    lambdas = np.empty((n_batches, _BATCH))
    children = np.random.SeedSequence(seed).spawn(n_batches)
    prod = np.empty((_BATCH, ntimes))

    def draw(b):
        rng = np.random.Generator(np.random.PCG64(children[b]))
        uw = (None if spec.beta == 1.0
              else (rng.random(_BATCH), rng.standard_exponential(_BATCH)))
        rng.standard_normal(out=paths[b])
        return uw

    def scale(b, uw):
        lambdas[b] = 1.0 if uw is None else _mixing_lambda(spec.beta, *uw)
        np.matmul(paths[b], chol_t, out=prod)
        np.multiply(prod, np.sqrt(lambdas[b])[:, None], out=paths[b])

    with _pool(n_batches) as pool:
        # map yields the tasks' results in batch order, releasing each
        drawn = (map if pool is None else pool.map)(draw, range(n_batches))
        for b, uw in enumerate(drawn):
            scale(b, uw)
    return PathEnsemble(spec, paths.reshape(-1, ntimes)[:n_paths], seed,
                        lambdas.ravel()[:n_paths])


# ---------------------------------------------------------------------------
# marginal CDF / quantiles and ensemble statistics
# ---------------------------------------------------------------------------

def marginal_cdf(alpha: float, beta: float, x, t: float):
    """Distribution function of the one-point law at time t (vectorized):
    Q/2 for x < 0, else 1 - Q/2, Q the mass of M_(beta/2) beyond |x|
    t^(-alpha/2) to 1e-13 relative (1e-12 below Q = 1e-100)."""
    greens._time(t)
    nu = 0.5 * greens.GreenSpec(alpha, beta, 1.0).beta
    x = np.asarray(x, dtype=float)
    r = specfun._arguments(np.abs(x), 1.0, "marginal_cdf") / t ** (0.5 * alpha)
    half = 0.5 * specfun._half_mass(nu, r, 1e-13)[0].reshape(x.shape)
    out = np.where(x < 0.0, half, 1.0 - half)
    return float(out) if out.ndim == 0 else out


def marginal_quantile(alpha: float, beta: float, p, t: float):
    """Quantiles of the one-point law (vectorized in p): Newton's method on
    F(x) = min(p, 1 - p) at t = 1 from x = 0, all levels at once; F is convex
    for x < 0, so the iterates fall to the root in about -ln min(p, 1 - p)
    steps. |F(q) - p| <= 1e-12 min(p, 1 - p) + 1e-15, else NonConvergence;
    ResultOverflow when a quantile scaled to time t is not finite."""
    greens._time(t)
    p = np.asarray(p, dtype=float)
    if not ((p > 0.0) & (p < 1.0)).all():
        raise InvalidArgument("quantile levels must lie strictly in (0, 1)")
    x, low = np.zeros(p.shape), np.minimum(p, 1.0 - p)
    for _ in range(1000):
        gap = marginal_cdf(alpha, beta, x, 1.0) - low
        if (np.abs(gap) <= 0.25e-12 * low).all():
            with np.errstate(over="ignore", invalid="ignore"):
                out = np.sign(0.5 - p) * x * t ** (0.5 * alpha)
            if not np.isfinite(out).all():
                bad = float(p[~np.isfinite(out)].flat[0])
                raise ResultOverflow(f"the quantile at p={bad!r}, t={t!r} "
                                     f"exceeds the double range")
            return float(out) if out.ndim == 0 else out
        x -= 2.0 * gap / specfun.m_wright_values(0.5 * beta, np.abs(x))
    raise NonConvergence("a quantile level missed in 1000 Newton steps")


@dataclass
class StatsReport:
    """Ensemble statistics with standard errors and a marginal fit test."""

    times: np.ndarray
    mean: np.ndarray
    mean_se: np.ndarray
    variance: np.ndarray
    variance_se: np.ndarray
    lag1_increment_corr: float | None  # None with fewer than three times
    lag1_increment_corr_se: float | None
    chi2_stat: float
    chi2_pvalue: float
    chi2_cells: int
    n_paths: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True,
                          default=np.ndarray.tolist)


def ensemble_stats(e: PathEnsemble, cells: int = 20) -> StatsReport:
    """Per-time moments, increment correlation, and a marginal fit test.

    Standard errors use empirical higher moments (no normality assumed);
    the chi-square test bins the final-time marginal on equal-probability
    cells of the analytic law. The lag-1 increment correlation needs two
    increments, so it and its SE are None for fewer than three times.

    Two passes walk the paths in blocks of _STATS_ROWS rows, so the
    working memory is a few blocks and one _PAIRWISE_LEAF buffer besides
    the per-path lag-1 means, whatever the ensemble's size: the moment pass
    (_moment_pass), after the column mean, and the lag-1 pass (_lag1_pass),
    which needs no mean. From 8 * _BATCH paths and 2 CPUs (the sampler's
    rule, _pool) a pool thread runs the lag-1 pass from before the column
    mean on, while the calling thread forms the mean and the moment pass;
    below that the calling thread runs both, one after the other. Each
    pass keeps its own sums, so the bits do not depend on where it runs.
    Every field equals the full-array formulas (x.std(axis=0, ddof=1),
    (((x - mean) ** 2) ** 2).mean(axis=0), (d * d).mean() over the
    increments d, ...) bit for bit, on two rules
    of numpy's sums that tests/test_ggbm.py pins
    (test_row_order_carry_is_the_axis0_sum, test_streamed_sum_is_numpys):
    an axis-0 sum of a C-contiguous array with two or more columns adds
    whole rows in order, and a whole-array sum is one pairwise tree over
    the flat values (_PairwiseSum). Columns whose fourth powers overflow,
    and an overflowing lag-1 correlation, are summed again at an exact
    power-of-two scale, in a second pass.

    cells, the number of chi-square cells, must be an integer >= 2
    (InvalidArgument): one cell leaves the test no degree of freedom.
    """
    cells = count(cells, "cells", 2)
    n = e.n_paths
    if n < 100:
        raise InsufficientPaths(f"need at least 100 paths, got {n}")
    x = e.paths
    lag1 = x.shape[1] >= 3
    with _pool(n // _BATCH if lag1 else 0) as pool:
        lag = _lag1_pass(x) if lag1 else None
        if pool is not None:
            # the lag-1 pass needs no mean: on a pool it starts first
            lag = pool.submit(lag).result
        mean = x.mean(axis=0)
        s2, s4 = _moment_pass(x, mean)
        if lag1:
            per_path, c00 = lag()
    # the fourth powers (and near the double range the squares) overflow
    # once the variance passes about 1e154; such columns are redone below
    with np.errstate(over="ignore", invalid="ignore"):
        sd = np.sqrt(s2 / (n - 1))
        var = sd * sd
        var_se = np.sqrt(np.maximum(s4 / n - var * var, 0.0) / n)
        big = ~(np.isfinite(s4) & np.isfinite(var * var))
    if big.any():
        # the same sums of dev / 2**k, k the binary exponent of the column's
        # largest |dev|: exact, and the blocks keep their order. Rounding is
        # monotone and odd, so that |dev| is max - mean or mean - min
        k = np.frexp(np.maximum(x.max(axis=0) - mean,
                                mean - x.min(axis=0)))[1]
        s2, s4 = _moment_pass(x, mean, k)
        sd_k = np.sqrt(s2 / (n - 1))
        var_k = sd_k * sd_k
        se_k = np.sqrt(np.maximum(s4 / n - var_k * var_k, 0.0) / n)
        var_se[big] = np.ldexp(se_k, 2 * k)[big]
        sd = np.where(np.isfinite(sd), sd, np.ldexp(sd_k, k))
        var = sd * sd
    mean_se = sd / math.sqrt(n)

    corr = corr_se = None
    if lag1:
        with np.errstate(over="ignore", invalid="ignore"):
            sd01 = float(per_path.std(ddof=1))
        if not math.isfinite(c00 + sd01):
            # the same at x / 2**k, k the binary exponent of max |x|: the
            # ratios below do not depend on the scale
            k = np.frexp(max(x.max(), -x.min()))[1]
            per_path, c00 = _lag1_pass(x, k)()
            sd01 = float(per_path.std(ddof=1))
        corr = float(per_path.mean()) / c00
        corr_se = sd01 / math.sqrt(n) / c00

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


def _moment_pass(x, mean, k=0):
    """The column sums s2 and s4 of dev^2 and dev^4, dev = (x - mean) /
    2**k, in one pass over x in blocks of _STATS_ROWS rows: each block's
    sums are carried into the next block's first row, so rows add in the
    order of numpy's axis-0 sum of the whole array (a single column is
    reduced pairwise, so it is one block). Overflow and invalid are
    ignored: such columns are summed again at a scale."""
    n, ntimes = x.shape
    step = _STATS_ROWS if ntimes > 1 else n
    s2, s4 = np.zeros(ntimes), np.zeros(ntimes)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, step):
            dev = x[lo:lo + step] - mean
            if np.any(k):
                np.ldexp(dev, -k, out=dev)
            dev *= dev
            dev4 = dev * dev  # two squarings: ** 4 would use pow
            for acc, terms in ((s2, dev), (s4, dev4)):
                terms[0] += acc
                np.add.reduce(terms, axis=0, out=acc)
    return s2, s4


def _lag1_pass(x, k=0):
    """One pass over x (three or more times) in blocks of _STATS_ROWS rows,
    ready to run: every buffer it needs is allocated here, on the calling
    thread, and the pass is returned as a function of no arguments that
    returns (per_path, c00). So it may run on a pool thread, where it
    allocates nothing but numpy's 64 kB iterator buffers, and it sets its
    own error state (overflow and invalid ignored; numpy's is per thread).

    per_path holds the per-path means of the products of adjacent
    increments of x / 2**k, and c00 is the mean of their squares over all
    paths, as numpy's pairwise mean of the whole (n, times - 1) array.
    """
    n, ntimes = x.shape
    per_path = np.empty(n)
    d = np.empty((min(n, _STATS_ROWS), ntimes - 1))
    prod = np.empty((len(d), ntimes - 2))
    squares = _PairwiseSum(n * (ntimes - 1))

    def run():
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, n, _STATS_ROWS):
                blk = x[lo:lo + _STATS_ROWS]
                if k:
                    blk = np.ldexp(blk, -k)
                rows = len(blk)
                dk = np.subtract(blk[:, 1:], blk[:, :-1], out=d[:rows])
                pairs = np.multiply(dk[:, :-1], dk[:, 1:], out=prod[:rows])
                np.mean(pairs, axis=1, out=per_path[lo:lo + _STATS_ROWS])
                dk *= dk
                squares.add(dk)
        return per_path, float(squares.total() / squares.size)

    return run


def _pairwise_plan(n: int) -> list:
    """numpy's pairwise summation tree over n values, in postfix order:
    the sizes of its subtrees of at most _PAIRWISE_LEAF values, left to
    right, and None where the two sums on top of the stack are added.
    Above 128 values numpy splits n at n // 2 rounded down to a multiple
    of 8."""
    if n <= _PAIRWISE_LEAF:
        return [n]
    half = n // 2 - n // 2 % 8
    return _pairwise_plan(half) + _pairwise_plan(n - half) + [None]


class _PairwiseSum:
    """The sum of `size` float64 values fed in pieces of any length, with
    the bits of np.add.reduce over all of them at once in one contiguous
    array. Each subtree of numpy's pairwise tree that fits one preallocated
    _PAIRWISE_LEAF buffer is gathered there and reduced by numpy; the
    subtree sums are added in tree order."""

    def __init__(self, size: int):
        self.size = size
        self._todo = _pairwise_plan(size)[::-1]  # the next step last
        self._buf = np.empty(min(size, _PAIRWISE_LEAF))
        self._fill = 0
        self._sums = []

    def add(self, values: np.ndarray) -> None:
        """Feed the values of a C-contiguous array, in flat order."""
        flat = values.reshape(-1)
        while len(flat):
            take = flat[:self._todo[-1] - self._fill]
            self._buf[self._fill:self._fill + len(take)] = take
            self._fill += len(take)
            flat = flat[len(take):]
            if self._fill == self._todo[-1]:
                self._todo.pop()
                self._sums.append(np.add.reduce(self._buf[:self._fill]))
                self._fill = 0
                while self._todo and self._todo[-1] is None:
                    self._todo.pop()
                    right = self._sums.pop()
                    self._sums[-1] += right

    def total(self) -> np.float64:
        """The sum, once all `size` values are fed."""
        return self._sums[0]
