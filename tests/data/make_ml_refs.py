"""Regenerate ml_refs.csv, the 40-digit references of E_nu(-s), 0 < nu < 2.

    python3 tests/data/make_ml_refs.py      # needs mpmath; about 15 min

Grid: the 50 odd-hundredth orders nu = 0.01, 0.03, ..., 0.99 times
s in {1e-8, 1e-3, 0.5, 1, ..., 20, 1e2, 1e4, 1e6} (s = 0 is exactly 1),
then nu in {1.1, 1.3, 1.5, 1.7, 1.9} times s = 0.5, 1, ..., 29.5 with
s^(1/nu) < 60, where the Taylor series is the only route in double
precision, then the 50 orders again times s in {24, 32, 48, 64, 128, 256,
512, 1000, 1024}, the range of the piece in 1/s of E_nu(-s) (appended,
so that the earlier rows keep their place). Every value is computed by two independent methods at 50
digits, which must agree to 1e-32 relative:

* the spectral integral
  sin(nu pi)/(nu pi) int_0^inf exp(-(s u)^(1/nu)) / (u^2 + 2u cos(nu pi) + 1) du,
  with breakpoints where (s u)^(1/nu) crosses e^-12 .. e^8 and at the
  peak u = -cos(nu pi) +- sin(nu pi) of the denominator for nu > 1/2;
  for 1 < nu < 2 it is completed by the two poles' oscillating term
  (2/nu) exp(s^(1/nu) cos(pi/nu)) cos(s^(1/nu) sin(pi/nu));
* the Taylor sum sum_n (-s)^n / Gamma(nu n + 1) where s^(1/nu) <= 400
  (at a precision that absorbs its cancellation), else the inverse-power
  series sum_{k>=1} (-1)^(k+1) s^-k / Gamma(1 - nu k), summed while its
  terms decrease; a point where neither converges is an error.

The orders and arguments are exact binary doubles (nu = k/100 as a
double), so the references are those of the values the tests pass.
"""

from __future__ import annotations

import math
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parent / "ml_refs.csv"
ORDERS = [k / 100 for k in range(1, 100, 2)]
ARGS = [1e-8, 1e-3] + [0.5 * k for k in range(1, 41)] + [1e2, 1e4, 1e6]
FAR_ARGS = [24.0, 32.0, 48.0, 64.0, 128.0, 256.0, 512.0, 1000.0, 1024.0]
GRID = [(nu, s) for nu in ORDERS for s in ARGS] + [
    (nu, 0.5 * k) for nu in (1.1, 1.3, 1.5, 1.7, 1.9) for k in range(1, 60)
    if (0.5 * k) ** (1.0 / nu) < 60.0] + [
    (nu, s) for nu in ORDERS for s in FAR_ARGS]
DPS = 50


def spectral(nu: float, s: float) -> mp.mpf:
    nu_m, s_m = mp.mpf(nu), mp.mpf(s)
    c, sn = mp.cospi(nu_m), mp.sinpi(nu_m)
    pts = {mp.mpf(0)} | {mp.exp(nu_m * j) / s_m for j in range(-12, 9)}
    if nu > 0.5:
        pts |= {-c - sn, -c, -c + sn}
    pts = sorted(p for p in pts if p >= 0) + [mp.inf]
    val = mp.quad(lambda u: mp.exp(-(s_m * u) ** (1 / nu_m))
                  / (u * u + 2 * u * c + 1), pts)
    if nu > 1:
        t = s_m ** (1 / nu_m)
        val += 2 * mp.pi / sn * mp.exp(t * mp.cospi(1 / nu_m)) \
            * mp.cos(t * mp.sinpi(1 / nu_m))
    return sn / (nu_m * mp.pi) * val


def taylor(nu: float, s: float) -> mp.mpf:
    # the largest term is about exp(s^(1/nu)); carry that many extra digits
    extra = int(s ** (1.0 / nu) / math.log(10)) + 10
    with mp.workdps(DPS + extra):
        nu_m, z = mp.mpf(nu), -mp.mpf(s)
        total, power, n = mp.mpf(0), mp.mpf(1), 0
        while True:
            term = power * mp.rgamma(nu_m * n + 1)
            total += term
            if n > 5 and abs(term) < mp.mpf(10) ** -(DPS + 5) * abs(total) \
                    and n > 2 * s ** (1.0 / nu):
                return +total
            power *= z
            n += 1


def inverse_power(nu: float, s: float):
    # |1/Gamma(1 - x)| <= Gamma(x)/pi bounds every term by an envelope that
    # falls, then rises; stop once it is negligible, give up once it rises
    nu_m, s_m = mp.mpf(nu), mp.mpf(s)
    total, prev = mp.mpf(0), mp.inf
    for k in range(1, 20000):
        total += (-1) ** (k + 1) * s_m ** -k * mp.rgamma(1 - nu_m * k)
        bound = s_m ** -k * mp.gamma(nu_m * k) / mp.pi
        if bound < mp.mpf(10) ** -(DPS + 5) * abs(total):
            return total
        if bound > prev:
            return None
        prev = bound
    return None


def main() -> int:
    lines = ["# E_nu(-s) to 40 significant digits; see make_ml_refs.py",
             "nu,s,value"]
    worst = 0.0
    with mp.workdps(DPS):
        for i, (nu, s) in enumerate(GRID):
            a = spectral(nu, s)
            b = (taylor(nu, s) if math.log(s) / nu <= math.log(400.0)
                 else inverse_power(nu, s))
            if b is None:
                raise RuntimeError(f"no second method at {nu}, {s}")
            gap = float(abs(a - b) / abs(a))
            worst = max(worst, gap)
            if gap > 1e-32:
                raise RuntimeError(f"methods disagree at {nu}, {s}: {gap}")
            digits = mp.nstr(a, 40, min_fixed=1, max_fixed=0)
            lines.append(f"{nu!r},{s!r},{digits}")
            if i + 1 == len(GRID) or GRID[i + 1][0] != nu:
                print(f"nu={nu} done, worst gap so far {worst:.1e}",
                      flush=True)
    OUT.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
