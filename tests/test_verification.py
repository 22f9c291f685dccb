"""The verify suites' own bookkeeping. The suites are the one copy of the
paper's identities: test_acceptance.py asserts the acceptance criteria on
their Check records, and the per-module tests cover the evaluators."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats  # _kstest's reference; the package never loads it

from mwright import _kstest, specfun, verification
from mwright.errors import InvalidArgument


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


def _spy(calls, name, fn):
    """fn, recording name in calls at each call."""
    def wrapped(*args):
        calls.append(name)
        return fn(*args)
    return wrapped


def test_ggbm_suite_ks_tests_match_scipy_stats(monkeypatch):
    # the suite's four KS tests on its own samples (two 100 000-draw
    # samples, whose effective size is 50 000, then 20 000 and 10 000
    # draws): statistic and p-value of scipy.stats bit for bit, all from
    # the Pelz-Good branch
    got, want, branches = [], [], []
    for name, ref in (("ks_1samp", stats.kstest),
                      ("ks_2samp", stats.ks_2samp)):
        def recorded(*args, fn=getattr(_kstest, name), ref=ref):
            got.append(fn(*args))
            res = ref(*args)
            want.append((float(res.statistic), float(res.pvalue)))
            return got[-1]
        monkeypatch.setattr(verification, name, recorded)
    for name in ("_kolmogn_pelz_good", "smirnov"):
        monkeypatch.setattr(_kstest, name,
                            _spy(branches, name, getattr(_kstest, name)))
    assert all(c.passed for c in verification.suite_ggbm())
    assert [tuple(map(float.hex, g)) for g in got] == [
        tuple(map(float.hex, w)) for w in want]
    assert [p for _, p in got] == [0.10673271354848035, 0.6764598355032652,
                                   0.8381598283518283, 0.6542277779186985]
    assert branches == ["_kolmogn_pelz_good"] * 4


def _ks_branch(n, d):
    """The branch scipy's kstwo.sf(d, n) takes for n > 140 (its support,
    then Simard & L'Ecuyer's rules)."""
    t = n * d
    if d <= 0.5 / n or t <= 0.5:
        return "support"
    if t <= 1.0:
        return "ruben-gambino low"
    if t >= n - 1:
        return "ruben-gambino high"
    if d >= 0.5:
        return "smirnov high"
    if t * d >= 370.0:
        return "zero"
    if t * d >= 2.2:
        return "smirnov"
    return "durbin" if n * np.array(d) ** 1.5 <= 1.4 else "pelz-good"


def _ks_call(n, d):
    """The helper `_kstest._sf(n, d)` calls, if any: smirnov where n d^2 is
    in [2.2, 370), else Pelz-Good past the support."""
    if d <= 0.5 / n or n * d * d >= 370.0:
        return []
    return ["smirnov"] if n * d * d >= 2.2 else ["_kolmogn_pelz_good"]


def _ks_intervals(n):
    """Intervals of d that steer kstwo.sf(d, n) to each branch in turn."""
    return [(0.0, 0.5 / n), (0.5 / n, 1.0 / n), ((n - 1) / n, 1.0),
            (0.5, (n - 1) / n), (math.sqrt(2.2 / n), math.sqrt(370.0 / n)),
            (math.sqrt(370.0 / n), 0.5), (1.0 / n, (1.4 / n) ** (2 / 3)),
            ((1.4 / n) ** (2 / 3), math.sqrt(2.2 / n))]


def test_ks_pvalues_match_scipy_stats_on_every_branch(monkeypatch):
    # n log-uniform over [10^4, 10^5], the sizes the Durbin branch serves
    # in scipy: bit for bit on every branch but that one, where Pelz-Good
    # stands in, within 1e-12 wherever scipy's matrix power does not
    # overflow, and at least 1 - 1e-12 where it does (scipy reads 0 there)
    seen, calls = set(), []
    for name in ("smirnov", "_kolmogn_pelz_good"):
        monkeypatch.setattr(_kstest, name,
                            _spy(calls, name, getattr(_kstest, name)))

    @settings(max_examples=200)
    @given(n=st.floats(0.0, 1.0).map(lambda u: round(1e4 * 10 ** u)),
           steer=st.integers(0, 7), u=st.floats(0.0, 1.0))
    def sweep(n, steer, u):
        lo, hi = _ks_intervals(n)[steer]
        d = min(lo + u * (hi - lo), 1.0)
        branch = _ks_branch(n, d)
        seen.add(branch)
        calls.clear()
        got = float(_kstest._sf(n, d))
        assert calls == _ks_call(n, d)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            want = float(np.clip(stats.kstwo.sf(d, n), 0.0, 1.0))
        if branch != "durbin":
            assert not caught
            assert got.hex() == want.hex(), (n, d, branch)
        elif not caught:
            assert abs(got - want) <= 1e-12, (n, d)
        else:
            assert got >= 1.0 - 1e-12, (n, d)

    sweep()
    assert seen == {"support", "ruben-gambino low", "ruben-gambino high",
                    "smirnov high", "zero", "smirnov", "durbin", "pelz-good"}
    # Pelz-Good's z below 0.0417, where scipy takes it too (n > 10^5):
    # P(D_n <= d) underflows, and sf is 1
    calls.clear()
    assert _kstest._sf(200_000, 2e-5) == stats.kstwo.sf(2e-5, 200_000) == 1.0
    assert calls == ["_kolmogn_pelz_good"]


def test_ks_pvalue_is_one_where_durbins_matrix_overflows():
    # scipy's kstwo.sf reads 0 here, with "overflow encountered in matmul":
    # its Durbin matrix power leaves the double range at z = 0.077
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _kstest._sf(65515, 3.0166845260370804e-4) == 1.0


@pytest.mark.parametrize("call", [
    lambda: _kstest.ks_1samp(np.linspace(0.0, 1.0, 140), lambda v: v),
    lambda: _kstest.ks_1samp(np.linspace(0.0, 1.0, 9_999), lambda v: v),
    lambda: _kstest.ks_2samp(np.zeros(10_000), np.ones(10_000)),
    # more than 10 000 draws each, but an effective size of 5 000
    lambda: _kstest.ks_2samp(np.zeros(10_001), np.ones(10_001)),
    # more than 10 000 draws, but an effective size of 140
    lambda: _kstest.ks_2samp(np.zeros(20_000), np.ones(141))],
    ids=["one_sample_of_140", "one_sample_of_9999", "two_samples_of_10000",
         "two_samples_of_10001", "effective_size_140"])
def test_ks_sizes_without_scipys_route_raise(call):
    # _sf serves n >= 10 000 draws, or that effective size of two samples
    with pytest.raises(InvalidArgument):
        call()
