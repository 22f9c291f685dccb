"""Regenerate m_refs.csv, 40-digit references of M_nu around and past its
series/tail switch, into the far tail.

    python3 tests/data/make_m_refs.py    # needs mpmath

Grid: the orders in ORDERS (exact binary doubles, so exactly the orders the
package evaluates) times the radii of `radii(nu)`, in increasing order.
LOW_ROWS radii evenly spaced in r from 0 up to half the package's switch
(`switch(nu)`, half the radius where the saddle-point exponent Y =
(1-nu)/nu (nu r)^(1/(1-nu)) is Y_SWITCH) are the rows on the pieces built
from the series. The rest were laid out by R_STAR, the radius r*(nu) of
the rounding-floor scan that placed the switch (at r*/2) before it took
its closed form: LOW_ROWS radii evenly spaced in r from 0 up to r*/4; past
r*/4 the radii where Y takes the values Y_STEPS, each radius kept while
M_nu(r) >= 1e-300. As nu -> 1 these radii crowd next to r = 1 (at 0.99
the smallest Y step lies at r*), so where the smallest step's radius lies
above r*/4, GAP_ROWS radii evenly spaced in r fill the gap from r*/4 up
to it: series rows below the switch and rows of the tail's piece in r
above it. A row whose (nu, r) already stands in m_refs.csv is copied from
it, and only the others are computed: a few minutes for the rows below
the switch, about an hour for the whole table (delete the file).
Every radius is rounded to 10 significant digits, so the table's radii
are the doubles its readers parse. Every value is computed by two
independent methods, which must agree to 1e-30 relative:

* the series M_nu(r) = W_{-nu,1-nu}(-r) = sum_n (-r)^n / (n! Gamma(1 -
  nu (n+1))), at a precision that absorbs its cancellation. The
  coefficients vanish wherever nu (n+1) is an integer, so the sum stops on
  the majorant r^n / n! max(1, Gamma(nu (n+1))/pi) of every term
  (|1/Gamma(x)| <= Gamma(1 - x)/pi for x < 0), never on a term itself;
* Zolotarev's integral M_nu(r) = r^(nu/(1-nu))/(1-nu) int_0^1 A(pi u)
  exp(-r^(1/(1-nu)) A(pi u)) du with the Kanter kernel A(phi) =
  [sin(nu phi)^nu sin((1-nu) phi)^(1-nu) / sin(phi)]^(1/(1-nu)), by mpmath
  quadrature with breakpoints through the boundary layer at u = 0 and
  geometrically closer to u = 1. At r = 0 it is its limit M_nu(0) =
  1/Gamma(1-nu), which the series' first term alone also gives.

Other radii can join by adding them to `radii`; the test reads every row.
The layout (R_STAR, `switch`, `radii`) needs no mpmath.
"""

from __future__ import annotations

import math
from pathlib import Path

try:
    import mpmath as mp
except ImportError:  # the layout alone, as the tests read it
    mp = None

OUT = Path(__file__).resolve().parent / "m_refs.csv"
ORDERS = [0.01, 0.02, 0.05, 0.1, 0.25, 1 / 3, 0.43, 0.6, 0.75, 0.9, 0.95,
          0.96, 0.99]
# r*(nu) = 0.5 * 1.12^k (by repeated multiplication) of the retired
# crossover scan's table, interpolated linearly in nu between hundredths
R_STAR = {0.01: 10.66244039584632, 0.02: 10.66244039584632,
          0.05: 10.66244039584632, 0.1: 10.66244039584632,
          0.25: 9.520036067719927, 1 / 3: 8.500032203321362,
          0.43: 7.589314467251215, 0.6: 4.823146546637476,
          0.75: 3.065196825183946, 0.9: 1.552924104172106,
          0.95: 1.2379815881474057, 0.96: 1.1053407037030407,
          0.99: 0.9869113425920005}
# the switch is half the radius where Y is this (specfun._Y_SWITCH)
Y_SWITCH = 9.0
Y_STEPS = [2.0 ** (k / 2) for k in range(-20, 19)] + [600.0, 680.0, 760.0]
GAP_ROWS = 8
LOW_ROWS = 8
DPS = 50


def radius(nu: float, y: float) -> float:
    """The radius where the saddle-point exponent equals y, to 10 digits."""
    r = (nu * y / (1.0 - nu)) ** (1.0 - nu) / nu
    return float(f"{r:.10g}")


def switch(nu: float) -> float:
    """The package's series/tail switch for nu >= 0.01, unrounded."""
    return 0.5 * (nu * Y_SWITCH / (1.0 - nu)) ** (1.0 - nu) / nu


def evenly(stop: float, count: int, start: float = 0.0) -> list:
    """count radii evenly spaced from start up to (not at) stop."""
    return [float(f"{start + k * (stop - start) / count:.10g}")
            for k in range(count)]


def radii(nu: float) -> list:
    """LOW_ROWS radii evenly spaced in r from 0 up to half the switch, and
    the R_STAR layout: LOW_ROWS radii evenly spaced in r from 0 up to
    r*(nu)/4, then the radii of Y_STEPS beyond r*/4, after GAP_ROWS radii
    evenly spaced in r from r*/4 where the first of them lies above r*/4."""
    start, first = R_STAR[nu] / 4.0, radius(nu, Y_STEPS[0])
    gap = evenly(first, GAP_ROWS, start) if first > start else []
    steps = [r for r in (radius(nu, y) for y in Y_STEPS) if r > start]
    return sorted(set(evenly(0.5 * switch(nu), LOW_ROWS)
                      + evenly(start, LOW_ROWS) + gap + steps))


def zolotarev(nu: float, r: float) -> mp.mpf:
    nu_m, r_m = mp.mpf(nu), mp.mpf(r)
    if r == 0:  # the limit r -> 0 of the integral
        return mp.rgamma(1 - nu_m)
    c = r_m ** (1 / (1 - nu_m))

    def kernel(u):
        # sinpi keeps sin(pi u) exact next to u = 1, where A blows up
        s = mp.sinpi(u)
        if s == 0:
            return mp.mpf(0)
        a = (mp.sinpi(nu_m * u) ** nu_m * mp.sinpi((1 - nu_m) * u)
             ** (1 - nu_m) / s) ** (1 / (1 - nu_m))
        return a * mp.exp(-c * (a - a0))

    # exp(-c A(0+)) comes out of the integral: mpmath's quad stops on an
    # absolute error, which a far-tail integrand would meet at once
    a0 = nu_m ** (nu_m / (1 - nu_m)) * (1 - nu_m)  # A(0+), the minimum
    width = 1 / mp.sqrt(1 + c * a0)
    # below r = 1 the integrand's mass sits where c A(pi u) is about 1, up
    # next to u = 1, and at orders near 1 it ends there in a cliff: A grows
    # like sin(pi u)^(-1/(1-nu))
    pts = sorted({mp.mpf(0), mp.mpf(1)}
                 | {width * mp.mpf(2) ** k for k in range(-8, 9)
                    if width * mp.mpf(2) ** k < 1}
                 | {1 - mp.mpf(2) ** (-mp.mpf(k) / 4) for k in range(1, 49)})
    return (r_m ** (nu_m / (1 - nu_m)) / (1 - nu_m) * mp.exp(-c * a0)
            * mp.quad(kernel, pts))


def log_majorant(nu: float, r: float, n: int) -> float:
    """log of r^n / n! max(1, Gamma(nu (n+1))/pi), a bound on |term n|."""
    x = nu * (n + 1)
    g = math.lgamma(x) - math.log(math.pi) if x > 1 else 0.0
    return n * math.log(r) - math.lgamma(n + 1) + max(0.0, g)


def series(nu: float, r: float, extra: int = 10) -> mp.mpf:
    """M_nu(r) with `extra` guard digits, raised and summed again until
    they cover the largest term over the sum."""
    if r == 0:  # the first term alone
        return mp.rgamma(1 - mp.mpf(nu))
    with mp.workdps(DPS + extra):
        nu_m, z = mp.mpf(nu), -mp.mpf(r)
        total, power, fact, n, peak = mp.mpf(0), mp.mpf(1), mp.mpf(1), 0, 0.0
        while True:
            total += power / fact * mp.rgamma(1 - nu_m * (n + 1))
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


def rows(nu: float, known: dict) -> list:
    """The CSV lines of one order and the worst relative gap between the
    two methods; a line of `known`, keyed by its "nu,r", is copied."""
    lines, worst = [], 0.0
    with mp.workdps(DPS):
        for r in radii(nu):
            if (line := known.get(f"{nu!r},{r!r}")) is not None:
                lines.append(line)
                continue
            a = zolotarev(nu, r)
            if a < mp.mpf(10) ** -300:
                break
            b = series(nu, r)
            gap = float(abs(a - b) / abs(a))
            worst = max(worst, gap)
            if gap > 1e-30:
                raise RuntimeError(f"methods disagree at {nu}, {r}: {gap}")
            digits = mp.nstr(a, 40, min_fixed=1, max_fixed=0)
            lines.append(f"{nu!r},{r!r},{digits}")
    return lines, worst


def main() -> int:
    lines = ["# M_nu(r) to 40 significant digits; see make_m_refs.py",
             "nu,r,value"]
    known = {}
    if OUT.exists():
        for line in OUT.read_text().splitlines()[2:]:
            known[line.rsplit(",", 1)[0]] = line
    for nu in ORDERS:
        more, worst = rows(nu, known)
        lines += more
        print(f"nu={nu} done, worst gap {worst:.1e}", flush=True)
    OUT.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
