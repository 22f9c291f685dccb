"""Regenerate mass_refs.csv, 40-digit references of the half-line mass
Q(r) = int_r^inf M_nu, nu = beta/2, of the ggBm one-point law.

    python3 tests/data/make_mass_refs.py    # needs mpmath; about 25 min

Grid: beta = 0.05, 0.10, ..., 1.00 (nu = beta/2 as a double, so exactly
the order the package evaluates) times radii from 0 into the far tail,
each radius kept while Q(r) >= 1e-300. marginal_cdf(alpha, beta, -r, 1)
is Q(r)/2. Every value is computed by two independent methods, which
must agree to 1e-30 relative:

* the series W_{-nu,1}(-r) = sum_n (-r)^n / (n! Gamma(1 - nu n)), whose
  r-derivative is -M_nu, at a precision that absorbs its cancellation.
  The coefficients vanish wherever nu n is an integer, so the sum stops
  on the majorant r^n / n! max(1, Gamma(nu n)/pi) of every term
  (|1/Gamma(x)| <= Gamma(1 - x)/pi for x < 0), never on a term itself;
* Zolotarev's integral int_0^1 exp(-r^(1/(1-nu)) A(pi u)) du with the
  Kanter kernel A(phi) = [sin(nu phi)^nu sin((1-nu) phi)^(1-nu) /
  sin(phi)]^(1/(1-nu)), by mpmath quadrature with breakpoints through
  the boundary layer at u = 0.
"""

from __future__ import annotations

import math
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parent / "mass_refs.csv"
BETAS = [k / 20 for k in range(1, 21)]
RADII = ([0.0, 0.01, 0.1] + [0.25 * k for k in range(1, 9)]
         + [0.5 * k for k in range(5, 25)]
         + [14.0, 16.0, 18.0, 20.0, 25.0, 30.0, 40.0, 50.0, 60.0, 80.0,
            100.0, 150.0, 200.0, 300.0, 400.0, 500.0, 700.0])
DPS = 50


def zolotarev(nu: float, r: float) -> mp.mpf:
    nu_m, r_m = mp.mpf(nu), mp.mpf(r)
    c = r_m ** (1 / (1 - nu_m))

    def kernel(u):
        # sinpi keeps sin(pi u) exact next to u = 1, where A blows up
        s = mp.sinpi(u)
        if s == 0:
            return mp.mpf(0)
        a = (mp.sinpi(nu_m * u) ** nu_m * mp.sinpi((1 - nu_m) * u)
             ** (1 - nu_m) / s) ** (1 / (1 - nu_m))
        return mp.exp(-c * (a - a0))

    # exp(-c A(0+)) comes out of the integral: mpmath's quad stops on an
    # absolute error, which a far-tail integrand would meet at once
    a0 = nu_m ** (nu_m / (1 - nu_m)) * (1 - nu_m)  # A(0+), the minimum
    width = 1 / mp.sqrt(1 + c * a0)
    pts = sorted({mp.mpf(0), mp.mpf(1)}
                 | {width * mp.mpf(2) ** k for k in range(-8, 9)
                    if width * mp.mpf(2) ** k < 1})
    return mp.exp(-c * a0) * mp.quad(kernel, pts)


def log_majorant(nu: float, r: float, n: int) -> float:
    """log of r^n / n! max(1, Gamma(nu n)/pi), a bound on |term n|."""
    g = math.lgamma(nu * n) - math.log(math.pi) if nu * n > 1 else 0.0
    return n * math.log(r) - math.lgamma(n + 1) + max(0.0, g)


def series(nu: float, r: float, extra: int = 10) -> mp.mpf:
    """W_{-nu,1}(-r) with `extra` guard digits, raised and summed again
    until they cover the largest term over the sum."""
    if r == 0.0:
        return mp.mpf(1)
    with mp.workdps(DPS + extra):
        nu_m, z = mp.mpf(nu), -mp.mpf(r)
        total, power, fact, n, peak = mp.mpf(0), mp.mpf(1), mp.mpf(1), 0, 0.0
        while True:
            total += power / fact * mp.rgamma(1 - nu_m * n)
            n += 1
            power *= z
            fact *= n
            lm = log_majorant(nu, r, n)
            peak = max(peak, lm)
            if n > r and lm < peak - 10.0 and total != 0 \
                    and lm < float(mp.log(abs(total))) - DPS * math.log(10):
                break
        need = int((peak - float(mp.log(abs(total)))) / math.log(10)) + 10
    return +total if need <= extra else series(nu, r, need)


def main() -> int:
    lines = ["# int_r^inf M_(beta/2) to 40 significant digits; "
             "see make_mass_refs.py", "beta,r,value"]
    worst = 0.0
    with mp.workdps(DPS):
        for beta in BETAS:
            nu = 0.5 * beta
            for r in RADII:
                a = zolotarev(nu, r)
                if a < mp.mpf(10) ** -300:
                    break
                b = series(nu, r)
                gap = float(abs(a - b) / abs(a))
                worst = max(worst, gap)
                if gap > 1e-30:
                    raise RuntimeError(f"methods disagree at {beta}, {r}: "
                                       f"{gap}")
                digits = mp.nstr(a, 40, min_fixed=1, max_fixed=0)
                lines.append(f"{beta!r},{r!r},{digits}")
            print(f"beta={beta} done, worst gap so far {worst:.1e}",
                  flush=True)
    OUT.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
