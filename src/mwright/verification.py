"""Invariant suites behind the `verify` command.

Each suite re-derives a family of identities numerically (quadrature,
closed-form cross-checks, Monte Carlo) and reports one record per check:
pass means residual <= threshold. For probabilistic checks the residual is
0.01 - p_value, so the threshold is 0.

The command line imports this module for `verify` alone. The three KS
checks of suite_ggbm take their p-values from `_kstest`, so no suite
imports scipy.stats. At their sizes (an effective 50 000, then 20 000 and
10 000 draws) those are scipy.stats' p-values bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, rgamma as _rgamma

from . import fraccalc, ggbm, greens, oracles, specfun
from ._kstest import ks_1samp, ks_2samp
from .gridfn import GridFunction


@dataclass
class Check:
    name: str
    params: dict
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.threshold)

    def record(self) -> dict:
        params = {k: (v.item() if isinstance(v, np.generic) else v)
                  for k, v in self.params.items()}
        return {"name": self.name, "params": params,
                "residual": float(self.residual),
                "threshold": float(self.threshold),
                "passed": self.passed}


def _mass_quadrature(nu: float, delta: float, tol: float) -> float:
    """int_0^inf r^delta M_nu(r) dr: the Mellin transform of M_nu at
    delta + 1 by the oracle quadrature, cut where the M_nu envelope allows."""
    return oracles.mellin_numeric(
        lambda r: specfun.m_wright_values(nu, r), delta + 1.0, tol,
        specfun.m_wright_envelope(nu))


# ---------------------------------------------------------------------------
# specfun suite
# ---------------------------------------------------------------------------

def suite_specfun() -> list[Check]:
    checks = []

    # non-negativity across the (nu, r) plane
    worst = 0.0
    for nu in (0.05, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9):
        vals = specfun.m_wright_values(nu, np.linspace(0.0, 12.0, 241))
        worst = min(worst, float(vals.min()))
    checks.append(Check("m_wright non-negative", {"grid": "nu x r"},
                        max(0.0, -worst), 0.0))

    # F = nu r M against the independent F-series; per-sample residuals
    # measured in units of the combined error estimates. The samples lie
    # below the switch crossover_radius(nu), where M_nu's pieces are built
    # from its series, so the series itself is checked (the Gaussian at nu
    # = 1/2); M_nu and the F-series are one series call each, formed as
    # f_wright and wright_series form them, and a row that misses its stop
    # is NaN, which fails the check. The draws alternate nu and r, as
    # rng.uniform(low, high) = low + (high - low) u takes them, u = random()
    u = np.random.default_rng(20260809).random(2000)
    nu = 0.05 + (0.95 - 0.05) * u[0::2]
    high = np.minimum(specfun._crossover_radii(nu), 5.0)  # depends on nu
    r = 0.0 + (high - 0.0) * u[1::2]
    m, trunc, cancel = specfun._sum_series(-nu, 1.0 - nu, -r, 1e-12)
    m_err = trunc + cancel
    half = nu == 0.5
    m[half], m_err[half], _ = specfun._m_wright_array(0.5, r[half], 1e-12)
    scale = nu * r
    f, f_err = scale * m, scale * m_err
    f[r == 0.0] = f_err[r == 0.0] = 0.0
    fs, trunc, cancel = specfun._sum_series(-nu, 0.0, -r, 1e-12)
    bound = np.maximum(f_err + (trunc + cancel), 1e-14)
    worst = float(np.max(np.abs(f - fs) / bound))
    checks.append(Check("relation F_nu = nu r M_nu (per-sample ratio)",
                        {"samples": 1000}, worst, 5.0))

    # normalization
    for nu in (0.1, 0.3, 0.5, 0.7, 0.9):
        mass = _mass_quadrature(nu, 0.0, 1e-10)
        checks.append(Check("normalization", {"nu": nu},
                            abs(mass - 1.0), 1e-8))

    # moment identities
    for nu in (0.25, 0.5, 0.75):
        for delta in (0.5, 1.0, 2.0, 3.0):
            got = _mass_quadrature(nu, delta, 1e-9)
            want = specfun.m_wright_moment(nu, delta)
            checks.append(Check("moment identity",
                                {"nu": nu, "delta": delta},
                                abs(got - want), 1e-7))

    # closed-form agreement on |z| <= 5 through the generic series path,
    # one series call per sweep, against references independent of it, each
    # one elementwise call: the Gaussian (M_(1/2)'s closed form) and scipy's
    # Airy function for M_(1/3); a row that misses its stop is NaN, and a
    # NaN residual fails
    zs = np.arange(-5.0, 5.0 + 1e-12, 0.01)
    for nu, q in ((0.5, 2), (1.0 / 3.0, 3)):
        series = specfun._sum_series(-nu, 1.0 - nu, -zs, 1e-14)[0]
        closed = (specfun._airy_m(zs)[0] if q == 3 else
                  specfun.m_wright_values(0.5, np.abs(zs)))
        worst = float(np.max(np.abs(series - closed)))
        checks.append(Check("closed-form agreement", {"q": q}, worst, 1e-12))

    # large-argument branch consistency at the crossover radius
    half_gap = abs(specfun.m_wright_asymptotic(0.5, 3.0)
                   - specfun.m_wright_special(2, 3.0).value)
    checks.append(Check("exponential form exact at nu=1/2", {"x": 3.0},
                        half_gap, 1e-16))
    for nu in (0.1, 0.25, 0.4, 0.6, 0.75, 0.9):
        rstar = specfun.crossover_radius(nu)
        (s,), _, _ = specfun._sum_series(-nu, 1.0 - nu, -rstar, 1e-13)
        (b,), _, _ = specfun._tail(nu, np.array([rstar]), 1e-13)
        gap = abs(s - b) / max(abs(b), 1e-300)
        checks.append(Check("series/asymptotic gap at crossover",
                            {"nu": nu, "r*": round(rstar, 3)}, gap, 1e-11))

    # Mittag-Leffler interlacing
    worst = 0.0
    for nu in (0.25, 0.5, 0.75, 1.0):
        e = specfun.mittag_leffler_values(nu, np.linspace(0.0, 4.0, 17))
        worst = max(worst, float(max(np.diff(e).max(), -e.min(), e[0] - 1)))
    checks.append(Check("Mittag-Leffler monotone interlacing",
                        {"nu": "0.25..1"}, worst, 0.0))
    return checks


# ---------------------------------------------------------------------------
# transform-pair suite
# ---------------------------------------------------------------------------

def suite_pairs() -> list[Check]:
    """One check per transform pair: its largest residual over the samples,
    with the oracle quadratures at tol 1e-7, against the threshold 1e-6."""
    checks = []
    for pid in oracles.PAIR_IDS:
        rep = oracles.verify_pair(pid, tol=1e-7)
        checks.append(Check(f"pair {pid}", {"samples": rep.samples},
                            rep.max_abs_residual, 1e-6))
    return checks


# ---------------------------------------------------------------------------
# fractional-calculus suite
# ---------------------------------------------------------------------------

def suite_fraccalc() -> list[Check]:
    checks = []
    rng = np.random.default_rng(7)

    # J^mu applied after J^nu: scale the closed form of J^mu t^(gamma+nu)
    # by the leading coefficient of J^nu t^gamma
    worst = 0.0
    for _ in range(50):
        mu, nu = rng.uniform(0.1, 1.5, 2)
        gam = rng.uniform(-0.5, 3.0)
        t = rng.uniform(0.2, 3.0)
        coef = fraccalc.rl_integral_power(nu, gam, t) / t ** (gam + nu)
        lhs = coef * fraccalc.rl_integral_power(mu, gam + nu, t)
        rhs = fraccalc.rl_integral_power(mu + nu, gam, t)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    checks.append(Check("semigroup on power laws", {"samples": 50},
                        worst, 1e-12))

    worst = 0.0
    for _ in range(50):
        mu = rng.uniform(0.1, 1.9)
        gam = rng.uniform(-0.5, 3.0)
        t = rng.uniform(0.2, 3.0)
        coef = fraccalc.rl_integral_power(mu, gam, t) / t ** (gam + mu)
        back = coef * fraccalc.rl_derivative_power(mu, gam + mu, t)
        worst = max(worst, abs(back - t ** gam) / abs(t ** gam))
    checks.append(Check("derivative is left inverse", {"samples": 50},
                        worst, 1e-12))

    worst = 0.0
    for _ in range(50):
        mu = rng.uniform(0.1, 0.9)
        gam = rng.uniform(0.5, 3.0)
        c = rng.uniform(-2.0, 2.0)
        t = rng.uniform(0.2, 3.0)
        rl = c * fraccalc.rl_derivative_power(mu, 0.0, t) \
            + fraccalc.rl_derivative_power(mu, gam, t)
        cap = fraccalc.caputo_power(mu, gam, t)
        gap = rl - cap
        want = c * t ** (-mu) * _rgamma(1.0 - mu)
        worst = max(worst, abs(gap - want) / max(abs(want), 1.0))
    checks.append(Check("RL-Caputo gap on c + t^gamma", {"samples": 50},
                        worst, 1e-12))

    # grid schemes against the closed forms
    xs = np.linspace(0.0, 1.0, 257)
    j = fraccalc.rl_integral_grid(GridFunction(xs, np.ones_like(xs)), 0.5)
    exact = np.sqrt(xs) * _rgamma(1.5)
    checks.append(Check("grid J^0.5 of 1", {"n": 256},
                        float(np.max(np.abs(j.ys - exact))), 1e-4))

    j1 = fraccalc.rl_integral_grid(GridFunction(xs, xs), 1.0)
    checks.append(Check("grid J^1 of t", {"n": 256},
                        float(np.max(np.abs(j1.ys - xs ** 2 / 2))), 1e-10))

    xs5 = np.linspace(0.0, 1.0, 513)
    f2 = GridFunction(xs5, xs5 ** 2)
    j34 = fraccalc.rl_integral_grid(fraccalc.rl_integral_grid(f2, 0.4), 0.3)
    j7 = fraccalc.rl_integral_grid(f2, 0.7)
    checks.append(Check("grid semigroup J^0.3 J^0.4 = J^0.7", {"n": 512},
                        float(np.max(np.abs(j34.ys - j7.ys))), 1e-4))

    cap = fraccalc.caputo_derivative_grid(GridFunction(xs, xs), 0.0, 0.5)
    exact = 2.0 * np.sqrt(xs) / math.sqrt(math.pi)
    checks.append(Check("grid Caputo of t", {"n": 256},
                        float(np.max(np.abs(cap.ys - exact))), 2e-3))

    capc = fraccalc.caputo_derivative_grid(
        GridFunction(xs, np.full_like(xs, 3.7)), 3.7, 0.5)
    checks.append(Check("grid Caputo of a constant", {"n": 256},
                        float(np.max(np.abs(capc.ys))), 1e-12))

    cap2 = fraccalc.caputo_derivative_grid(GridFunction(xs, xs ** 2), 0.0, 0.5)
    exact = np.array([fraccalc.caputo_power(0.5, 2.0, t) if t > 0 else 0.0
                      for t in xs])
    checks.append(Check("grid Caputo of t^2 vs closed form", {"n": 256},
                        float(np.max(np.abs(cap2.ys - exact))), 5e-3))

    # observed convergence order under doubling; piecewise-linear data are
    # reproduced exactly, so probe with the curved power law t^2. The L1
    # scheme converges at order 2 - mu, so its gate runs at mu = 0.45
    # where the theoretical order clears 1.5 with margin.
    for scheme, mu in (("integral", 0.5), ("caputo", 0.45)):
        errs = []
        for n in (128, 256, 512, 1024):
            g = np.linspace(0.0, 1.0, n + 1)
            if scheme == "integral":
                got = fraccalc.rl_integral_grid(
                    GridFunction(g, g * g), mu).ys
                ex = np.array([fraccalc.rl_integral_power(mu, 2.0, t)
                               if t > 0 else 0.0 for t in g])
            else:
                got = fraccalc.caputo_derivative_grid(
                    GridFunction(g, g * g), 0.0, mu).ys
                ex = np.array([fraccalc.caputo_power(mu, 2.0, t)
                               if t > 0 else 0.0 for t in g])
            errs.append(float(np.max(np.abs(got - ex))))
        slope = np.polyfit(np.log([128, 256, 512, 1024]), np.log(errs), 1)[0]
        checks.append(Check(f"grid order ({scheme})",
                            {"n": "128..1024", "mu": mu},
                            1.5 - (-slope), 0.0))
    return checks


# ---------------------------------------------------------------------------
# greens suite
# ---------------------------------------------------------------------------

def suite_greens() -> list[Check]:
    checks = []
    t = 1.3
    # the Green profile is M_(beta/2) on the scale sqrt(K) t^(alpha/2), so
    # its mass and second moment need one quadrature each per beta
    moments = {b: (_mass_quadrature(0.5 * b, 0.0, 1e-9),
                   _mass_quadrature(0.5 * b, 2.0, 1e-9))
               for b in (0.2, 0.4, 0.6, 0.8, 1.0)}
    worst_mass = max(abs(mass - 1.0) for mass, _ in moments.values())
    worst_var = 0.0
    for a in (0.4, 0.8, 1.2, 1.6, 2.0):
        for b, (_, q2) in moments.items():
            spec = greens.GreenSpec(a, b, 1.0)
            scale = greens._green_scale(spec, t)
            want = greens.variance_law(spec, t)
            worst_var = max(worst_var, abs(q2 * scale * scale - want) / want)
    checks.append(Check("green normalization", {"grid": "5x5"},
                        worst_mass, 1e-7))
    checks.append(Check("green second moment vs variance law",
                        {"grid": "5x5"}, worst_var, 1e-5))

    worst = 0.0
    for a, b in ((0.5, 0.5), (1.0, 0.6), (1.5, 1.0)):
        spec = greens.GreenSpec(a, b, 1.0)
        for x in (0.0, 0.3, 1.0, 2.5):
            for tt in (0.5, 2.0):
                lhs = greens.green_density(spec, x, tt)
                rhs = tt ** (-0.5 * a) * greens.green_density(
                    spec, x * tt ** (-0.5 * a), 1.0)
                worst = max(worst, abs(lhs - rhs))
    checks.append(Check("green self-similarity", {"grid": "3x4x2"},
                        worst, 1e-12))

    worst = 0.0
    for b in (0.5, 0.75, 1.0):
        spec = greens.GreenSpec(b, b, 1.0)
        for kappa in (0.5, 1.0, 2.0):
            s2 = greens.green_fourier(spec, kappa, 1.0)
            s1 = 2.0 * oracles.fourier_cosine_numeric(
                lambda xv: greens.green_density_values(spec, xv, 1.0),
                kappa, tol=1e-8, tail_bound=specfun.m_wright_envelope(0.5 * b))
            worst = max(worst, abs(s1 - s2))
    checks.append(Check("inversion routes agree", {"beta": "0.5,0.75,1"},
                        worst, 1e-6))

    worst = 0.0
    for b in (0.25, 0.5, 0.75):
        spec = greens.DriftSpec(b)
        for x in (0.25, 1.0, 4.0):
            for tt in (0.5, 1.0, 2.0):
                worst = max(worst, abs(
                    greens.drift_green(spec, x, tt)
                    - greens.drift_green_stable_form(spec, x, tt)))
    checks.append(Check("drift two forms agree", {"grid": "3x3x3"},
                        worst, 1e-8))

    errs = []
    for nx, nt in ((201, 64), (401, 128)):
        xs = np.linspace(-8.0, 8.0, nx)
        std0 = 5 * (xs[1] - xs[0])
        u0 = GridFunction(xs, np.exp(-0.5 * (xs / std0) ** 2)
                          / (std0 * math.sqrt(2 * math.pi)))
        spec = greens.GreenSpec(1.0, 0.5, 1.0)
        got = greens.solve_volterra(u0, spec, 0.75, nt, 7.0)
        exact = _convolve_green(u0, spec, 0.75)
        errs.append(float(np.trapezoid(np.abs(got.ys - exact), xs)))
    checks.append(Check("volterra refinement",
                        {"levels": "(201,64)->(401,128)"},
                        errs[1] - errs[0], 0.0))
    return checks


def _convolve_green(u0: GridFunction, spec: greens.GreenSpec,
                    t: float) -> np.ndarray:
    """Exact evolution of sampled data: convolution with the Green function."""
    xs = u0.xs
    dx = xs[1] - xs[0]
    offsets = np.arange(-(len(xs) - 1), len(xs)) * dx
    kernel = greens.green_density_values(spec, offsets, t)
    full = np.convolve(u0.ys, kernel) * dx
    n = len(xs)
    return full[n - 1: 2 * n - 1]


# ---------------------------------------------------------------------------
# ggbm suite
# ---------------------------------------------------------------------------

def suite_ggbm() -> list[Check]:
    """Monte Carlo checks of the ggBm laws on seeded 100 000-path ensembles."""
    checks = []
    n_paths, seed = 100_000, 20260411
    times = np.arange(1, 65) / 64.0

    laws = ((1.0, 1.0), (0.5, 0.5), (1.5, 1.0), (1.2, 0.6))
    for alpha, beta in laws:
        spec = ggbm.CovSpec(alpha, beta, times)
        ens = ggbm.sample_paths(spec, n_paths, seed)
        rep = ggbm.ensemble_stats(ens)
        if (alpha, beta) == laws[-1]:
            # the stationary-increments check below: B(t+h) - B(t), h = 16
            d1, d2, d3 = (ens.paths[:, 16 * j + 16] - ens.paths[:, 16 * j]
                          for j in range(3))
        del ens  # one 64-time ensemble alive at a time
        tag = {"alpha": alpha, "beta": beta}

        worst = 0.0
        for idx in (15, 31, 47, 63):
            want = 2.0 * times[idx] ** alpha * _rgamma(1.0 + beta)
            z = abs(rep.variance[idx] - want) / rep.variance_se[idx]
            worst = max(worst, z)
        checks.append(Check("variance law (z-score)", tag, worst, 3.0))

        checks.append(Check("marginal chi-square", tag,
                            0.01 - rep.chi2_pvalue, 0.0))

        corr, se = rep.lag1_increment_corr, rep.lag1_increment_corr_se
        if alpha > 1.0:
            res = -corr  # must be positive
        elif alpha < 1.0:
            res = corr   # must be negative
        else:
            res = abs(corr) - 3.0 * se
        checks.append(Check("increment correlation sign", tag, res, 0.0))

        slope = float(np.polyfit(np.log(times), np.log(rep.variance), 1)[0])
        checks.append(Check("variance log-log slope vs alpha", tag,
                            abs(slope - alpha), 0.05))

        # mean zero
        z_mean = float(np.max(np.abs(rep.mean) / rep.mean_se))
        checks.append(Check("mean zero (z-score)", tag, z_mean, 4.0))

    # covariance entries on a small time grid
    spec = ggbm.CovSpec(1.3, 0.7, np.array([0.25, 0.5, 0.75, 1.0]))
    ens = ggbm.sample_paths(spec, n_paths, seed + 1)
    want = ggbm.covariance_matrix(spec)
    x = ens.paths
    worst = 0.0
    for i in range(4):
        for j in range(i, 4):
            prod = x[:, i] * x[:, j]
            got = float(prod.mean())
            se = float(prod.std(ddof=1)) / math.sqrt(n_paths)
            worst = max(worst, abs(got - want[i, j]) / se)
    checks.append(Check("covariance matches (z-score)",
                        {"alpha": 1.3, "beta": 0.7}, worst, 4.0))

    # stationary increments: distribution of B(t+h)-B(t) across offsets
    # (of the last 64-time ensemble sampled above)
    _, p12 = ks_2samp(d1, d2)
    _, p13 = ks_2samp(d1, d3)
    checks.append(Check("stationary increments (KS)",
                        {"offsets": 3}, 0.01 - min(p12, p13), 0.0))

    # mixture structure: one-point sample vs symmetric M_(beta/2) law
    spec1 = ggbm.CovSpec(1.0, 0.5, np.array([1.0]))
    ens1 = ggbm.sample_paths(spec1, 20_000, seed + 2)
    _, pv = ks_1samp(ens1.paths[:, 0],
                     lambda v: ggbm.marginal_cdf(1.0, 0.5, v, 1.0))
    checks.append(Check("mixture marginal (KS)", {"beta": 0.5},
                        0.01 - pv, 0.0))

    # mixing variable: mean and law
    rng = np.random.default_rng(seed + 3)
    lam = ggbm.sample_mixing_lambda(0.5, rng, 200_000)
    want_mean = float(_rgamma(1.5))
    se = float(lam.std(ddof=1)) / math.sqrt(len(lam))
    checks.append(Check("mixing mean 1/Gamma(1+beta) (z-score)",
                        {"beta": 0.5},
                        abs(float(lam.mean()) - want_mean) / se, 3.0))
    _, pv = ks_1samp(lam[:10_000], lambda v: erf(np.asarray(v) / 2.0))
    checks.append(Check("mixing law vs M_(1/2) (KS)", {"beta": 0.5},
                        0.01 - pv, 0.0))

    # stable sampler transform check
    rng = np.random.default_rng(seed + 4)
    s_draws = ggbm.sample_oneside_stable(0.5, rng, 1_000_000)
    for lap_s, label in ((1.0, "s=1"), (4.0, "s=4")):
        vals = np.exp(-lap_s * s_draws)
        got = float(vals.mean())
        se = float(vals.std(ddof=1)) / math.sqrt(len(vals))
        want = math.exp(-lap_s ** 0.5)
        checks.append(Check("stable transform (z-score)", {"s": lap_s},
                            abs(got - want) / se, 3.0))
    checks.append(Check("stable draws positive", {"n": len(s_draws)},
                        max(0.0, -float(s_draws.min())), 0.0))

    # reproducibility
    spec_r = ggbm.CovSpec(1.0, 0.8, times[:16])
    e1 = ggbm.sample_paths(spec_r, 500, 424242)
    e2 = ggbm.sample_paths(spec_r, 500, 424242)
    same = np.array_equal(e1.paths, e2.paths) and np.array_equal(
        e1.lambdas, e2.lambdas)
    prefix = ggbm.sample_paths(spec_r, 100, 424242)
    stable_prefix = np.array_equal(prefix.paths, e1.paths[:100])
    checks.append(Check("reproducible ensembles",
                        {"seed": 424242},
                        0.0 if (same and stable_prefix) else 1.0, 0.0))
    return checks


SUITES = {
    "specfun": suite_specfun,
    "pairs": suite_pairs,
    "fraccalc": suite_fraccalc,
    "greens": suite_greens,
    "ggbm": suite_ggbm,
}


def run_suites(names) -> dict:
    """Run the named suites ("all" for every one) at their fixed
    thresholds and sizes; returns the aggregate JSON-ready report."""
    if "all" in names:
        names = list(SUITES)
    out = {"suites": {}, "passed": True}
    for name in names:
        checks = SUITES[name]()
        out["suites"][name] = [c.record() for c in checks]
        out["passed"] = out["passed"] and all(c.passed for c in checks)
    return out
