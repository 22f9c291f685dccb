"""Regenerate airy_refs.csv, 40-digit references of M_(1/3)(z) = 3^(2/3)
Ai(z 3^(-1/3)), from z = -1.51e6 to z = 153.

    python3 tests/data/make_airy_refs.py    # needs mpmath; about a minute

Grid (`grid()`): z = k/8 on [-5, 5]; the first three zeros of M_(1/3),
3^(1/3) a_k for Ai's zeros a_k = -2.34, -4.09, -5.52 (z = -3.37, -5.90,
-7.96), and points 1e-6 and 1e-3 on either side; both sides of Cephes' switch from power series
to asymptotic form at x = 2.09 (z = 3.01) and of scipy's switch from Cephes
to AMOS at |x| = 10 (z = +-14.42); z from 5 to 145 in steps of 2.5, and
145 to 153 in steps of 0.25, across AMOS' underflow at x = 103.097 (z =
148.69), where M_(1/3) is still about 1e-304; and 80 radii geometrically
spaced from -5 to -1.51e6, just above AMOS' range x > -2^20. Every z is
rounded to 10 significant digits, so the table's arguments are the doubles
its readers parse. Each value is the reference at that double exactly,
computed by two methods at 50 digits, which must agree to 1e-32 of the
local scale (|value|, and |x|^(-1/4) for x < 0, Ai's amplitude there):

* mpmath's `airyai`;
* for |z| <= 20 the M-Wright series sum_n (-z)^n / (n! Gamma(2/3 - n/3))
  at a precision that absorbs its cancellation, stopped on the majorant
  |z|^n / n! Gamma((n + 1)/3) of its terms, independent of any Airy or
  Bessel routine; past it the Bessel forms Ai(x) = sqrt(x/3)/pi
  K_(1/3)(zeta) for x > 0 and Ai(x) = sqrt(-x)/3 (J_(1/3)(zeta) +
  J_(-1/3)(zeta)) for x < 0, zeta = (2/3) |x|^(3/2).
"""

from __future__ import annotations

import math
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parent / "airy_refs.csv"
DPS = 50
AI_ZEROS = (-2.338107410459767, -4.087949444130971, -5.520559828095551)


def _round(z: float) -> float:
    return float(f"{z:.10g}")


def grid() -> list:
    c = 3.0 ** (1.0 / 3.0)
    zs = {k / 8.0 for k in range(-40, 41)}
    for a in AI_ZEROS:
        zs |= {c * a + d for d in (-1e-3, -1e-6, 0.0, 1e-6, 1e-3)}
    for x in (2.09, 10.0, -10.0):
        zs |= {c * x + d for d in (-1e-3, -1e-6, 1e-6, 1e-3)}
    zs |= {5.0 + 2.5 * k for k in range(57)}
    zs |= {145.0 + 0.25 * k for k in range(33)}
    zs |= {-5.0 * (1.51e6 / 5.0) ** (k / 79) for k in range(80)}
    return sorted({_round(z) for z in zs})


def series(z: float) -> mp.mpf:
    # the largest term is about e^c, c = (2/3) |x|^(3/2), and for z > 0
    # the value about e^-c: carry the digits of both
    extra = int(4.0 / 3.0 * (abs(z) / 3.0 ** (1.0 / 3.0)) ** 1.5
                / math.log(10)) + 10
    with mp.workdps(DPS + extra):
        zm = -mp.mpf(z)
        total, power, n = mp.mpf(0), mp.mpf(1), 0
        while True:
            term = power * mp.rgamma(mp.mpf(2) / 3 - mp.mpf(n) / 3)
            total += term
            # |1/Gamma(x)| <= Gamma(1 - x)/pi for x < 0: the majorant
            bound = abs(power) * mp.gamma(mp.mpf(n + 1) / 3)
            if n > 3 * abs(z) + 10 and bound < mp.mpf(10) ** -(
                    DPS + 5) * max(abs(total), mp.mpf(10) ** -300):
                return +total
            n += 1
            power *= zm / n


def bessel(z: float) -> mp.mpf:
    x = mp.mpf(z) / mp.cbrt(3)
    zeta = 2 * abs(x) ** 1.5 / 3
    third = mp.mpf(1) / 3
    if x > 0:
        ai = mp.sqrt(x / 3) / mp.pi * mp.besselk(third, zeta)
    else:
        ai = mp.sqrt(-x) / 3 * (mp.besselj(third, zeta)
                                + mp.besselj(-third, zeta))
    return mp.cbrt(3) ** 2 * ai


def main() -> int:
    lines = ["# M_(1/3)(z) = 3^(2/3) Ai(z 3^(-1/3)) to 40 significant "
             "digits; see make_airy_refs.py", "z,value"]
    worst = 0.0
    with mp.workdps(DPS):
        for z in grid():
            a = mp.cbrt(3) ** 2 * mp.airyai(mp.mpf(z) / mp.cbrt(3))
            b = series(z) if abs(z) <= 20.0 else bessel(z)
            scale = abs(a) if z >= 0 else max(abs(a), abs(z) ** -0.25)
            gap = float(abs(a - b) / scale)
            worst = max(worst, gap)
            if gap > 1e-32:
                raise RuntimeError(f"methods disagree at z={z}: {gap}")
            digits = mp.nstr(a, 40, min_fixed=1, max_fixed=0)
            lines.append(f"{z!r},{digits}")
    OUT.write_text("\n".join(lines) + "\n")
    print(f"{len(lines) - 2} rows, worst gap {worst:.1e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
