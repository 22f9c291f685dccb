"""Regenerate perfbench/refs.json, the references the table checks use.

    python3 perfbench/make_refs.py            # about 90 s on one core

Needs mpmath and scipy; imports nothing from mwright. Every value is
computed here from its own definition:

* M_nu(x) = sum_n (-x)^n / (n! Gamma(1 - nu - nu n)) and
  F_nu(x) = sum_{n>=1} (-x)^n / (n! Gamma(-nu n)), summed in mpmath at a
  precision chosen from the largest term, then summed again 15 digits
  finer; the two sums must agree to 1e-25 relative;
* E_nu(-s) from the spectral integral
  sin(nu pi)/(nu pi) int_0^inf exp(-(s u)^(1/nu)) / (u^2 + 2u cos(nu pi) + 1) du
  (mpmath quadrature at 40 digits), checked against the Taylor sum
  sum_n (-s)^n / Gamma(nu n + 1) wherever that sum is affordable;
* closed forms as cross-checks: M_(1/3)(x) = 3^(2/3) Ai(x / 3^(1/3))
  (scipy.special.airy), M_(1/2)(x) = exp(-x^2/4)/sqrt(pi) and
  E_(1/2)(-s) = erfcx(s) (scipy.special.erfcx). Their largest relative
  gaps to the mpmath values are stored under "crosscheck".
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath as mp
from scipy.special import airy, erfcx

import layout

OUT = Path(__file__).resolve().parent / "refs.json"
TARGET_LOG10 = -60.0  # stop summing once terms fall below 1e-60 (absolute)


def _series(coef_log10, coef, x: float) -> mp.mpf:
    """sum_n (-x)^n coef(n) / n! with adaptive working precision.

    coef_log10(n) is a float estimate of log10|coef(n)| (None at a zero);
    it fixes the number of terms and the digits the cancellation needs.
    """
    lx = math.log10(x)
    peak, n, past_peak = -math.inf, 0, False
    prev = -math.inf
    while True:
        c = coef_log10(n)
        if c is not None:
            lt = n * lx - math.lgamma(n + 1) / math.log(10) + c
            past_peak = past_peak or lt < prev
            prev = lt
            peak = max(peak, lt)
            if past_peak and lt < TARGET_LOG10 and n > 8:
                break
        n += 1
    dps = int(max(peak, 0.0) - TARGET_LOG10) + 20
    sums = []
    for extra in (0, 15):
        with mp.workdps(dps + extra):
            xm = -mp.mpf(x)
            term_pow = mp.mpf(1)
            total = mp.mpf(0)
            for k in range(n + 1):
                if k:
                    term_pow = term_pow * xm / k
                total += term_pow * coef(k)
            sums.append(total)
    with mp.workdps(dps):
        if abs(sums[0] - sums[1]) > mp.mpf(10) ** -25 * abs(sums[1]):
            raise RuntimeError(f"series did not settle at x={x}")
    return sums[1]


def _log10_abs_rgamma(z: float):
    if z <= 0.0 and z == math.floor(z):
        return None
    return -math.lgamma(z) / math.log(10)


def m_ref(nu: float, x: float) -> mp.mpf:
    nu_m = mp.mpf(nu)
    if x == 0.0:
        return mp.rgamma(1 - nu_m)
    return _series(lambda n: _log10_abs_rgamma(1.0 - nu - nu * n),
                   lambda n: mp.rgamma(1 - nu_m - nu_m * n), x)


def f_ref(nu: float, x: float) -> mp.mpf:
    nu_m = mp.mpf(nu)
    if x == 0.0:
        return mp.mpf(0)
    return _series(lambda n: _log10_abs_rgamma(-nu * n) if n else None,
                   lambda n: mp.rgamma(-nu_m * n) if n else mp.mpf(0), x)


def ml_spectral(nu: float, s: float) -> mp.mpf:
    if s == 0.0:
        return mp.mpf(1)
    with mp.workdps(40):
        nu_m, s_m = mp.mpf(nu), mp.mpf(s)
        c = mp.cos(nu_m * mp.pi)
        pts = sorted({mp.mpf(0), 1 / s_m, mp.mpf(1)}) + [mp.inf]
        val = mp.quad(lambda u: mp.exp(-(s_m * u) ** (1 / nu_m))
                      / (u * u + 2 * u * c + 1), pts)
        return +(mp.sin(nu_m * mp.pi) / (nu_m * mp.pi) * val)


def ml_taylor(nu: float, s: float) -> mp.mpf:
    return _series(lambda n: (math.lgamma(n + 1.0) - math.lgamma(nu * n + 1.0))
                   / math.log(10),
                   lambda n: mp.factorial(n) * mp.rgamma(mp.mpf(nu) * n + 1),
                   s) if s > 0.0 else mp.mpf(1)


def _rel(a, b) -> float:
    return float(abs(mp.mpf(a) - b) / abs(b)) if b != 0 else float(abs(a))


def main() -> int:
    refs = {"M": {}, "F": {}, "E": {}}
    cross = {"airy_m_1_3": 0.0, "gauss_m_1_2": 0.0, "erfcx_e_1_2": 0.0,
             "taylor_vs_spectral": 0.0}
    for nu in layout.MF_ORDERS:
        mrow, frow = {}, {}
        for x in layout.mf_samples(nu):
            m = m_ref(nu, x)
            mrow[layout.key(x)] = float(m)
            frow[layout.key(x)] = float(f_ref(nu, x))
            if nu == 1 / 3:
                ai = airy(x / 3.0 ** (1.0 / 3.0))[0] * 3.0 ** (2.0 / 3.0)
                cross["airy_m_1_3"] = max(cross["airy_m_1_3"], _rel(ai, m))
            if nu == 0.5:
                g = math.exp(-0.25 * x * x) / math.sqrt(math.pi)
                cross["gauss_m_1_2"] = max(cross["gauss_m_1_2"], _rel(g, m))
        refs["M"][layout.key(nu)] = mrow
        refs["F"][layout.key(nu)] = frow
        print(f"M/F nu={nu:.4f} done", file=sys.stderr, flush=True)
    for nu in layout.MLF_ORDERS:
        row = {}
        for s in layout.mlf_samples():
            e = ml_spectral(nu, s)
            row[layout.key(s)] = float(e)
            if s > 0.0 and s ** (1.0 / nu) < 200.0:
                cross["taylor_vs_spectral"] = max(
                    cross["taylor_vs_spectral"], _rel(ml_taylor(nu, s), e))
            if nu == 0.5:
                cross["erfcx_e_1_2"] = max(cross["erfcx_e_1_2"],
                                           _rel(erfcx(s), e))
        refs["E"][layout.key(nu)] = row
        print(f"E nu={nu} done", file=sys.stderr, flush=True)
    for name, gap in cross.items():
        if gap > 1e-12:
            raise RuntimeError(f"cross-check {name} off by {gap:.3e}")
    doc = {"generator": "perfbench/make_refs.py", "mpmath": mp.__version__,
           "crosscheck_max_rel_gap": cross, **refs}
    OUT.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    print(f"wrote {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
