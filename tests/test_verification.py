"""The verify suites' own bookkeeping. The suites are the one copy of the
paper's identities: test_acceptance.py asserts the acceptance criteria on
their Check records, and the per-module tests cover the evaluators."""

import math
import tracemalloc

import numpy as np
import pytest

from mwright import specfun, verification


def _closed_form_checks(checks):
    return {c.params["q"]: c for c in checks
            if c.name == "closed-form agreement"}


def test_closed_form_sweep(monkeypatch):
    # one series call per order gives the residual of the point-by-point
    # sweep, bit for bit; a row that misses its stop (NaN) fails the check
    checks = _closed_form_checks(verification.suite_specfun())
    zs = np.arange(-5.0, 5.0 + 1e-12, 0.01)
    for nu, q in ((0.5, 2), (1.0 / 3.0, 3)):
        worst = 0.0
        for z in zs:
            series = specfun.wright_series(
                specfun.WrightIndex(-nu, 1.0 - nu), -z, tol=1e-14)
            closed = specfun.m_wright_special(q, float(z))
            worst = max(worst, abs(series.value - closed.value))
        assert checks[q].residual == worst
        assert checks[q].passed

    real = specfun._sum_series

    def one_nan_row(lam, mu, z, tol):
        out = real(lam, mu, z, tol)
        if np.size(z) == len(zs):
            out[0][len(zs) // 3] = math.nan
        return out

    monkeypatch.setattr(specfun, "_sum_series", one_nan_row)
    checks = verification.suite_specfun()
    for c in _closed_form_checks(checks).values():
        assert not c.passed
    assert all(c.passed for c in checks if c.name != "closed-form agreement")


def _relation_check(checks):
    (c,) = [c for c in checks if c.name.startswith("relation F_nu")]
    return c


def test_f_relation_sweep():
    # one series call each for M_nu and the F-series gives the worst ratio
    # of the per-sample loop over wright_series, bit for bit: F = nu r M
    # formed as f_wright forms it, from the M series that m_wright's pieces
    # below the switch are built from
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(1000):
        nu = rng.uniform(0.05, 0.95)
        r = rng.uniform(0.0, min(specfun.crossover_radius(nu), 5.0))
        m = specfun.wright_series(specfun.WrightIndex(-nu, 1.0 - nu), -r)
        f, f_err = nu * r * m.value, nu * r * m.abs_err_estimate
        fs = specfun.wright_series(specfun.WrightIndex(-nu, 0.0), -r)
        bound = max(f_err + fs.abs_err_estimate, 1e-14)
        worst = max(worst, abs(f - fs.value) / bound)
    assert worst == 0.2379878020109267
    check = _relation_check(verification.suite_specfun())
    assert check.residual == worst and check.passed


@pytest.mark.parametrize("series", ["M", "F"])
def test_f_relation_sweep_fails_on_a_missed_row(monkeypatch, series):
    real = specfun._sum_series

    def one_nan_row(lam, mu, z, tol):
        out = real(lam, mu, z, tol)
        if np.ndim(lam) and (np.ndim(mu) == 1) == (series == "M"):
            out[0][500] = math.nan
        return out

    monkeypatch.setattr(specfun, "_sum_series", one_nan_row)
    checks = verification.suite_specfun()
    assert not _relation_check(checks).passed
    assert all(c.passed for c in checks if not c.name.startswith("relation"))


def test_greens_suite_integrates_each_moment_once(monkeypatch):
    # the mass and second moment of M_(beta/2) do not depend on alpha
    calls = []
    real = verification._mass_quadrature

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verification, "_mass_quadrature", counted)
    checks = verification.suite_greens()
    assert len(calls) == len(set(calls)) == 10
    assert len(checks) == 6 and all(c.passed for c in checks)


def test_run_suites_runs_every_suite_in_order(monkeypatch):
    order = []
    monkeypatch.setattr(verification, "SUITES", {
        "a": lambda: order.append("a") or [],
        "b": lambda: order.append("b") or []})
    report = verification.run_suites(["all"])
    assert order == ["a", "b"]
    assert report == {"suites": {"a": [], "b": []}, "passed": True}


def test_ggbm_suite_holds_one_ensemble_at_a_time():
    # a 100 000 x 64 ensemble is 52 MB (whole 4096-path batches); the suite
    # frees each before it samples the next, and ensemble_stats works in
    # row blocks (numpy reports its buffers to tracemalloc)
    tracemalloc.start()
    try:
        checks = verification.suite_ggbm()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in checks)
    assert peak <= 60e6, peak
