"""Acceptance suite: every criterion at its stated tolerance.

Where a criterion shares a check with a `mwright verify` suite, the test
runs that suite once and asserts on its `Check` records: each one must
pass, at a threshold equal to the criterion's tolerance, so a suite whose
threshold is loosened fails here too. The test itself computes only the
points that no suite check covers. Runtime bounds include the suite run.

Each test prints one `[criterion N] PASS ...` line on success (visible with
pytest -s / -rA); a failed assertion marks the criterion red.
"""

import functools
import math
import time

import numpy as np
from scipy.special import rgamma

from mwright import cli, fraccalc, ggbm, greens, oracles, specfun, verification
from mwright.gridfn import GridFunction
from mwright.verification import _convolve_green, _mass_quadrature


def _report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n}] {status}: {detail}")
    assert ok, f"criterion {n}: {detail}"


@functools.cache
def _run(suite):
    t0 = time.monotonic()
    checks = verification.SUITES[suite]()
    return checks, time.monotonic() - t0


def _shared(suite, tols):
    """The records of one `suite` run named in `tols` (name -> the
    criterion's tolerance), each asserted to pass at exactly that
    threshold, and the suite's runtime in seconds."""
    checks, seconds = _run(suite)
    recs = [c for c in checks if c.name in tols]
    assert {c.name for c in recs} == set(tols)
    for c in recs:
        assert c.threshold == tols[c.name] and c.passed, c.record()
    return recs, seconds


def _worst(recs, name):
    return max(c.residual for c in recs if c.name == name)


def test_criterion_1_closed_form_agreement():
    """Generic evaluator vs Gaussian / Airy closed forms, |x|<=5, 1e-12."""
    recs, suite_s = _shared("specfun", {"closed-form agreement": 1e-12})
    assert sorted(c.params["q"] for c in recs) == [2, 3]
    t0 = time.monotonic()
    worst = _worst(recs, "closed-form agreement")
    # the dispatching evaluator agrees on the half line as well
    xs = np.abs(np.round(np.arange(-5.0, 5.0 + 1e-9, 0.01), 10))
    for nu, q in ((0.5, 2), (1.0 / 3.0, 3)):
        closed = np.array([specfun.m_wright_special(q, float(a)).value
                           for a in xs])
        half = specfun.m_wright_values(nu, xs)
        worst = max(worst, float(np.max(np.abs(half - closed))))
    elapsed = suite_s + time.monotonic() - t0
    _report(1, worst < 1e-12 and elapsed < 5.0,
            f"max abs dev {worst:.2e} (tol 1e-12), runtime {elapsed:.2f}s "
            f"(< 5s)")


def test_criterion_2_moment_identities():
    """Quadrature moments vs Gamma ratio, 1e-7 absolute."""
    recs, suite_s = _shared("specfun", {"moment identity": 1e-7})
    shared = {(c.params["nu"], c.params["delta"]) for c in recs}
    t0 = time.monotonic()
    worst = _worst(recs, "moment identity")
    for nu in (0.1, 0.25, 0.5, 0.75, 0.9):
        for delta in (0.0, 0.5, 1.0, 2.0, 3.0):
            if (nu, delta) not in shared:
                got = _mass_quadrature(nu, delta, 1e-9)
                want = specfun.m_wright_moment(nu, delta)
                worst = max(worst, abs(got - want))
    elapsed = suite_s + time.monotonic() - t0
    _report(2, worst < 1e-7 and elapsed < 30.0,
            f"worst abs residual {worst:.2e} (tol 1e-7), "
            f"runtime {elapsed:.1f}s (< 30s)")


def test_criterion_3_transform_pair_matrix():
    """Eight transform pairs, >= 9 points each, residual < 1e-6."""
    pairs = ("L_4_1", "L_4_2", "L_4_7", "F_4_11", "M_4_13", "L_4_15",
             "L_4_16", "F_4_17")
    recs, elapsed = _shared("pairs", {f"pair {p}": 1e-6 for p in pairs})
    assert all(c.params["samples"] >= 9 for c in recs)
    worst = max(c.residual for c in recs)
    _report(3, elapsed < 120.0,
            f"max residuals {worst:.2e} (tol 1e-6), "
            f"runtime {elapsed:.1f}s (< 2min)")


def test_criterion_4_subordination():
    """Composition integral vs composed density on a 3x3 x 5 grid, 1e-6."""
    t0 = time.monotonic()
    worst = 0.0
    for lam in (0.3, 0.5, 0.7):
        for mu in (0.3, 0.5, 0.7):
            for (x, t) in ((0.0, 1.0), (0.5, 1.0), (1.0, 1.0), (2.0, 2.0),
                           (1.0, 0.5)):
                rep = oracles.subordination_check(lam, mu, x, t, tol=1e-7)
                worst = max(worst, rep.max_abs_residual)
    elapsed = time.monotonic() - t0
    _report(4, worst < 1e-6 and elapsed < 60.0,
            f"worst residual {worst:.2e} (tol 1e-6), "
            f"runtime {elapsed:.1f}s (< 1min)")


def test_criterion_5_green_functions():
    """Normalization 1e-7, second moment 1e-5 rel, self-similarity 1e-12,
    inversion-route agreement 1e-6."""
    recs, _ = _shared("greens", {"green normalization": 1e-7,
                                 "green second moment vs variance law": 1e-5,
                                 "inversion routes agree": 1e-6})
    worst_ss = 0.0
    for alpha, beta in ((0.5, 0.5), (1.0, 0.6), (1.5, 1.0), (2.0, 0.2)):
        spec = greens.GreenSpec(alpha, beta, 1.0)
        for x in (0.0, 0.4, 1.3):
            for tt in (0.4, 2.2):
                lhs = greens.green_density(spec, x, tt)
                rhs = tt ** (-spec.hurst) * greens.green_density(
                    spec, x * tt ** (-spec.hurst), 1.0)
                worst_ss = max(worst_ss, abs(lhs - rhs))
    _report(5, worst_ss < 1e-12,
            f"mass {_worst(recs, 'green normalization'):.2e} (1e-7), "
            f"variance rel "
            f"{_worst(recs, 'green second moment vs variance law'):.2e} "
            f"(1e-5), self-similarity {worst_ss:.2e} (1e-12), "
            f"routes {_worst(recs, 'inversion routes agree'):.2e} (1e-6)")


def test_criterion_6_volterra_solver():
    """L1 error 1e-3 vs exact convolution; fractional variance gain 1%."""
    t0 = time.monotonic()
    xs = np.linspace(-8.0, 8.0, 801)
    std = 0.05
    u0 = GridFunction(xs, np.exp(-0.5 * (xs / std) ** 2)
                      / (std * math.sqrt(2.0 * math.pi)))
    spec = greens.GreenSpec(1.0, 1.0, 1.0)
    got = greens.solve_volterra(u0, spec, 0.5, 512, 7.0)
    exact = _convolve_green(u0, spec, 0.5)
    l1 = float(np.trapezoid(np.abs(got.ys - exact), xs))

    xs2 = np.linspace(-12.0, 12.0, 801)
    std2 = 5 * (xs2[1] - xs2[0])
    u02 = GridFunction(xs2, np.exp(-0.5 * (xs2 / std2) ** 2)
                       / (std2 * math.sqrt(2.0 * math.pi)))
    spec2 = greens.GreenSpec(0.5, 0.5, 1.0)
    t_end = 0.5
    out2 = greens.solve_volterra(u02, spec2, t_end, 512, 10.0)
    dx = xs2[1] - xs2[0]
    mass = out2.ys.sum() * dx
    var_gain = (xs2 ** 2 * out2.ys).sum() * dx / mass - std2 ** 2
    want = greens.variance_law(spec2, t_end)
    rel = abs(var_gain - want) / want
    elapsed = time.monotonic() - t0
    _report(6, l1 < 1e-3 and rel < 0.01 and elapsed < 120.0,
            f"L1 {l1:.2e} (1e-3), variance-gain rel {rel:.2e} (1%), "
            f"runtime {elapsed:.1f}s (< 2min)")


def test_criterion_7_drift_equation():
    """Two drift forms agree to 1e-8; normalization 1e-7; mean 1e-6."""
    recs, _ = _shared("greens", {"drift two forms agree": 1e-8})
    worst_forms = _worst(recs, "drift two forms agree")
    worst_mass = 0.0
    worst_mean = 0.0
    for beta in (0.25, 0.5, 0.75):
        spec = greens.DriftSpec(beta)
        for x in (0.7, 1.5):  # the suite covers x = 0.25, 1 and 4
            for t in (0.5, 1.0, 2.0):
                worst_forms = max(worst_forms, abs(
                    greens.drift_green(spec, x, t)
                    - greens.drift_green_stable_form(spec, x, t)))
        worst_mass = max(worst_mass,
                         abs(_mass_quadrature(beta, 0.0, 1e-9) - 1.0))
        for t in (0.5, 1.0):
            mean = _mass_quadrature(beta, 1.0, 1e-8) * t ** beta
            worst_mean = max(worst_mean,
                             abs(mean - greens.drift_mean(spec, t)))
    ok = worst_forms < 1e-8 and worst_mass < 1e-7 and worst_mean < 1e-6
    _report(7, ok,
            f"forms {worst_forms:.2e} (1e-8), mass {worst_mass:.2e} (1e-7), "
            f"mean {worst_mean:.2e} (1e-6)")


def test_criterion_8_ggbm_monte_carlo():
    """Ensembles of 1e5 paths over 64 times: variance within 3 se,
    chi-square p > 0.01 on 20 cells, increment-correlation signs."""
    recs, elapsed = _shared("ggbm", {"variance law (z-score)": 3.0,
                                     "marginal chi-square": 0.0,
                                     "increment correlation sign": 0.0})
    orders = [(c.params["alpha"], c.params["beta"]) for c in recs]
    assert sorted(orders) == sorted(
        3 * [(1.0, 1.0), (0.5, 0.5), (1.5, 1.0), (1.2, 0.6)])
    _report(8, elapsed < 300.0,
            f"var z {_worst(recs, 'variance law (z-score)'):.2f} (3), chi2 p "
            f"{0.01 - _worst(recs, 'marginal chi-square'):.3f} (> 0.01), "
            f"signs ok; runtime {elapsed:.0f}s (< 5min)")


def test_criterion_9_fractional_calculus():
    """Closed-form identities exact to rounding; grid order >= 1.5."""
    recs, _ = _shared("fraccalc", {"semigroup on power laws": 1e-12,
                                   "derivative is left inverse": 1e-12,
                                   "grid order (integral)": 0.0,
                                   "grid order (caputo)": 0.0})
    worst = max(_worst(recs, "semigroup on power laws"),
                _worst(recs, "derivative is left inverse"))
    for (c, mu, gam, t) in ((2.0, 0.5, 1.5, 0.7), (-1.0, 0.3, 2.0, 2.0)):
        rl = (c * fraccalc.rl_derivative_power(mu, 0.0, t)
              + fraccalc.rl_derivative_power(mu, gam, t))
        cap = fraccalc.caputo_power(mu, gam, t)
        want = c * t ** (-mu) * rgamma(1.0 - mu)
        worst = max(worst, abs((rl - cap) - want) / abs(want))
    # the suite's residual is 1.5 minus the observed order
    orders = {s: 1.5 - _worst(recs, f"grid order ({s})")
              for s in ("integral", "caputo")}
    _report(9, worst < 1e-12,
            f"identity residual {worst:.2e} (1e-12), orders "
            f"integral {orders['integral']:.2f} / caputo "
            f"{orders['caputo']:.2f} (>= 1.5)")


def test_criterion_10_reproducibility(tmp_path):
    """Identical seeds give byte-identical simulate outputs."""
    args = ["simulate", "--alpha", "0.8", "--beta", "0.6", "--times-n", "32",
            "--t-max", "1.0", "--n-paths", "500", "--seed", "31415"]
    assert cli.main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "r2")]) == 0
    same = all((tmp_path / f"r1{ext}").read_bytes()
               == (tmp_path / f"r2{ext}").read_bytes()
               for ext in (".csv", ".json", "_stats.json"))
    _report(10, same, "two runs byte-identical (csv, sidecar, stats)")
