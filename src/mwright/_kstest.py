"""Two-sided Kolmogorov-Smirnov tests on scipy.special alone.

ks_1samp and ks_2samp give the statistic and p-value of scipy.stats'
kstest(x, cdf) and ks_2samp(a, b), two-sided with method 'auto', without
importing scipy.stats (the package's costliest import). Both p-values are
the survival function of the finite-n law of D_n (scipy's kstwo.sf) at a
size n of at least 10 000: the number of draws, or round(m n / (m + n))
for two samples of m and n draws. Smaller sizes raise InvalidArgument.
The samples must be finite.

At those sizes `_sf` has four outcomes, chosen by Simard & L'Ecuyer's
thresholds on n d^2:
- 1 for d <= 1/2n (the support);
- 0 for n d^2 >= 370;
- 2 smirnov(n, d), Miller's approximation, for n d^2 >= 2.2;
- 1 - Pelz and Good's approximation to P(D_n <= d) below that.
Each matches kstwo.sf bit for bit except where scipy takes Durbin's
matrix in place of Pelz-Good, at n <= 100 000 and n d^1.5 <= 1.4: z =
sqrt(n) d up to about 0.27, where p > 0.9999. There Pelz-Good is within
6e-13 of it at n = 10 000, 6e-14 at 20 000 and 1.1e-16 at 50 000, and it
returns 1 where the matrix power overflows and scipy returns 0 (n =
65 515 at d = 3.0166845260370804e-4). The other forms of kstwo.sf,
Ruben and Gambino's at n d <= 1 or n d >= n - 1 and 2 smirnov for d >=
1/2, give exactly 1 or 0 at these sizes, as the outcomes above do.

Adapted from scipy/stats/_stats_py.py and scipy/stats/_ksstats.py
(SciPy, BSD-3-Clause; Copyright (c) 2001-2002 Enthought, Inc. and
2003-2024 SciPy Developers). References:

- Marsaglia G, Tsang WW, Wang J (2003). Evaluating Kolmogorov's
  distribution. J. Stat. Softw. 8(18), 1-4.
- Miller LH (1956). Table of percentage points of Kolmogorov statistics.
  J. Amer. Statist. Assoc. 51, 111-121.
- Pelz W, Good IJ (1976). Approximating the lower tail-areas of the
  Kolmogorov-Smirnov one-sample statistic. J. R. Stat. Soc. B 38(2),
  152-156.
- Simard R, L'Ecuyer P (2011). Computing the two-sided Kolmogorov-Smirnov
  distribution. J. Stat. Softw. 39(11), 1-18.
"""

from __future__ import annotations

import numpy as np
from scipy.special import smirnov

from .errors import InvalidArgument

_MIN_N = 10_000  # the least size n that _sf serves

_SQRT2PI = np.sqrt(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6


def ks_1samp(x, cdf) -> tuple[float, float]:
    """(D, p) of scipy.stats.kstest(x, cdf): the largest distance between
    the empirical CDF of the sample x and the CDF cdf (a function of a
    sorted array), and its two-sided p-value. InvalidArgument for fewer
    than 10 000 draws."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.shape[-1]
    cdfvals = cdf(x)
    d_plus = _at_max(np.arange(1.0, n + 1) / n - cdfvals)
    d_minus = _at_max(cdfvals - np.arange(0.0, n) / n)
    d = d_plus if d_plus > d_minus else d_minus
    return float(d), float(_sf(n, d))


def ks_2samp(a, b) -> tuple[float, float]:
    """(D, p) of scipy.stats.ks_2samp(a, b): the largest distance between
    the empirical CDFs of the samples a and b, and its two-sided p-value
    on the asymptotic route, at the effective size round(m n / (m + n)).
    InvalidArgument where that size is below 10 000 (scipy's exact route,
    taken when neither sample has more than 10 000 draws, lies below)."""
    a, b = np.sort(a), np.sort(b)
    n1, n2 = a.shape[0], b.shape[0]
    data_all = np.concatenate([a, b])
    cddiffs = (np.searchsorted(a, data_all, side="right") / n1
               - np.searchsorted(b, data_all, side="right") / n2)
    min_s = np.clip(-cddiffs[np.argmin(cddiffs)], 0, 1)
    max_s = cddiffs[np.argmax(cddiffs)]
    d = min_s if min_s > max_s else max_s
    m, n = sorted([float(n1), float(n2)], reverse=True)
    return float(d), float(_sf(np.round(m * n / (m + n)), d))


def _at_max(values):
    """The largest of values, the element argmax picks (scipy's reading,
    which fixes the sign of a zero)."""
    return values[np.argmax(values)]


def _sf(n, d):
    """P(D_n >= d) for a sample of n >= 10 000 draws, in [0, 1]: the four
    outcomes of the module docstring, NaN for d NaN."""
    if int(n) != n or n < _MIN_N:
        raise InvalidArgument(f"KS p-values need an integer n >= {_MIN_N}, "
                              f"got {n}")
    # x a 0-d array, as scipy's nditer hands it to _kolmogn: n x^2 is
    # formed as scipy forms it, (n x) x
    n, x = int(n), np.array(d, dtype=np.float64)
    if np.isnan(x):
        return np.nan
    if x <= 0.5 / n:
        return 1.0
    nxsquared = n * x * x
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return np.clip(2 * smirnov(n, x), 0.0, 1.0)
    return np.clip(1.0 - _kolmogn_pelz_good(n, x), 0.0, 1.0)


def _kolmogn_pelz_good(n, x):
    """Pelz and Good's approximation to P(D_n <= x), 0 < x < 1: the
    Li-Chien/Korolyuk expansion K0(z) + K1(z)/sqrt(n) + K2(z)/n +
    K3(z)/n^1.5 at z = x sqrt(n), each K_i transformed by Jacobi's theta
    functions into a form suited to small z."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return 0.0

    q = np.exp(qlog)

    # coefficients of the terms in the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # Horner's scheme for sum c_i q^(i^2), a sum over odd integers
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b*msquared,
                           k2a + k2b*msquared + k2c*mfour,
                           k3a + k3b*msquared + k3c*mfour + k3d*msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    # z**10 > 0 as z > 0.04
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the other sums, over all integers k, computed directly:
    # K2: (pi^2 k^2) q^(k^2), K3: (3 pi^2 k^2 z^2 - pi^4 k^4) q^(k^2)
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI/(-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI/(216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n

    return sum(K0to3)
