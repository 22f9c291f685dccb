"""Spans around mwright's public functions, installed from outside.

install() replaces module attributes (and the verification.SUITES table
and PathEnsemble.save) with timing wrappers. Calls between mwright
modules look functions up through those attributes at call time, so the
wrappers see every call, nested ones included. Each span keeps its name,
start, end, parent span and up to two work counts in flat arrays; nothing
is written until save() at the end of the run. summarize() turns a saved
file into per-layer totals: a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from array import array

import numpy as np

# (module, attribute path, span name); the span name is the layer metric stem
TARGETS = (
    ("specfun", "m_wright_values", "specfun.m_wright_values"),
    ("specfun", "m_wright", "specfun.m_wright"),
    ("specfun", "mittag_leffler_neg", "specfun.mittag_leffler_neg"),
    ("quadrature", "adaptive", "quadrature.adaptive"),
    ("quadrature", "kronrod_panel", "quadrature.kronrod_panel"),
    ("quadrature", "integrate_to_inf", "quadrature.integrate_to_inf"),
    ("oracles", "verify_pair", "oracles.verify_pair"),
    ("verification", "suite_specfun", "verification.suite_specfun"),
    ("verification", "suite_pairs", "verification.suite_pairs"),
    ("verification", "suite_fraccalc", "verification.suite_fraccalc"),
    ("verification", "suite_greens", "verification.suite_greens"),
    ("verification", "suite_ggbm", "verification.suite_ggbm"),
    ("greens", "solve_volterra", "greens.solve_volterra"),
    ("greens", "green_density_values", "greens.green_density_values"),
    ("greens", "drift_green", "greens.drift_green"),
    ("ggbm", "sample_paths", "ggbm.sample_paths"),
    ("ggbm", "ensemble_stats", "ggbm.ensemble_stats"),
    ("ggbm", "marginal_quantile", "ggbm.marginal_quantile"),
    ("ggbm", "pdf_npoint", "ggbm.pdf_npoint"),
    ("ggbm", "PathEnsemble.save", "ggbm.PathEnsemble.save"),
    ("cli", "cmd_tabulate", "cli.tabulate"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _m_values_work(specfun):
    def work(args, kwargs, out):
        nu = _arg(args, kwargs, 0, "nu")
        nu = float(getattr(nu, "nu", nu))
        rs = np.asarray(_arg(args, kwargs, 1, "rs"), dtype=float)
        tail = 0
        if 0.0 < nu < 1.0 and nu != 0.5:
            tail = int(np.count_nonzero(rs > specfun.crossover_radius(nu)))
        return rs.size, tail
    return work


def _work_extractors(mods):
    return {
        "specfun.m_wright_values": _m_values_work(mods["specfun"]),
        "greens.green_density_values": lambda a, k, out: (
            np.size(_arg(a, k, 1, "xs")), 0),
        "greens.solve_volterra": lambda a, k, out: (
            (len(_arg(a, k, 0, "u0")) - 2) * _arg(a, k, 3, "nt"), 0),
        "ggbm.sample_paths": lambda a, k, out: (_arg(a, k, 1, "n_paths"), 0),
        "ggbm.PathEnsemble.save": lambda a, k, out: (
            sum(os.path.getsize(p) for p in out), 0),
    }


class Tracer:
    """In-memory span store with a pause switch for the benchmark's checks."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.work2 = array("d")
        self.nested = array("b")  # 1 inside another span of the same name
        self._depth: list[int] = []
        self._stack = [-1]
        self.active = True

    @contextlib.contextmanager
    def paused(self):
        """Run program calls made by the checks without recording them."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, name, fn, work=None):
        nid = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        clock = time.perf_counter
        stack = self._stack
        depth = self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.work.append(0.0)
            self.work2.append(0.0)
            self.end.append(0.0)
            self.nested.append(depth[nid] > 0)
            depth[nid] += 1
            stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
                depth[nid] -= 1
            if work is not None:
                self.work[idx], self.work2[idx] = work(args, kwargs, out)
            return out

        return wrapper

    def install(self, mwright_pkg) -> None:
        """Wrap every TARGETS entry of the imported mwright package."""
        mods = {m: getattr(mwright_pkg, m) for m, _, _ in TARGETS}
        works = _work_extractors(mods)
        wrapped = {}
        for mod_name, attr, span in TARGETS:
            owner = mods[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = self.wrap(span, getattr(owner, leaf), works.get(span))
            setattr(owner, leaf, fn)
            wrapped[(mod_name, leaf)] = fn
        suites = mods["verification"].SUITES
        for name in list(suites):
            suites[name] = wrapped[("verification", f"suite_{name}")]

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 work=np.frombuffer(self.work),
                 work2=np.frombuffer(self.work2),
                 nested=np.frombuffer(self.nested, dtype=np.int8))


def summarize(path) -> dict:
    """Per span name: calls, seconds, self seconds, work, work2.

    Seconds count only the outermost span of each name, so a function
    that reaches itself again (a quadrature whose integrand runs another
    quadrature) is not counted twice.
    """
    with np.load(path) as z:
        names = list(z["names"])
        nid, parent = z["name_id"], z["parent"]
        dur = z["end"] - z["start"]
        work, work2 = z["work"], z["work2"]
        outer = z["nested"] == 0
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    out = {}
    for i, name in enumerate(names):
        sel = nid == i
        out[name] = {"calls": int(sel.sum()),
                     "s": float(dur[sel & outer].sum()),
                     "self_s": float((dur[sel] - child[sel]).sum()),
                     "work": float(work[sel].sum()),
                     "work2": float(work2[sel].sum())}
    return out
