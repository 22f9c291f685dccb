"""Two-sided Kolmogorov-Smirnov tests on scipy.special alone.

ks_1samp and ks_2samp give the statistic and p-value of scipy.stats'
kstest(x, cdf) and ks_2samp(a, b), two-sided with method 'auto', bit for
bit, without importing scipy.stats (the package's costliest import). Both
p-values are the survival function of the finite-n law of D_n (scipy's
kstwo.sf). `_sf` copies its arithmetic for n > 140, choosing among the
exact and approximate forms as Simard & L'Ecuyer do. Smaller n need
Pomeranz's recursion, and two samples of at most 10 000 draws each take
scipy's exact two-sample law; neither is implemented, so those sizes
raise InvalidArgument. The samples must be finite.

Adapted from scipy/stats/_stats_py.py and scipy/stats/_ksstats.py
(SciPy, BSD-3-Clause; Copyright (c) 2001-2002 Enthought, Inc. and
2003-2024 SciPy Developers). References:

- Durbin J (1968). The probability that the sample distribution function
  lies between two parallel straight lines. Ann. Math. Statist. 39,
  398-411.
- Marsaglia G, Tsang WW, Wang J (2003). Evaluating Kolmogorov's
  distribution. J. Stat. Softw. 8(18), 1-4.
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

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6

# B_2j / (2j (2j - 1)) for j = 8, ..., 1, B_2j the Bernoulli numbers
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]

# scipy's ks_2samp computes the exact law up to this many draws per sample
_EXACT_2SAMP_MAX = 10_000


def ks_1samp(x, cdf) -> tuple[float, float]:
    """(D, p) of scipy.stats.kstest(x, cdf): the largest distance between
    the empirical CDF of the sample x and the CDF cdf (a function of a
    sorted array), and its two-sided p-value. InvalidArgument for 140 or
    fewer draws."""
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
    on the asymptotic route, which scipy takes when either sample has
    more than 10 000 draws. InvalidArgument for smaller samples, or where
    the effective size round(m n / (m + n)) is 140 or less."""
    a, b = np.sort(a), np.sort(b)
    n1, n2 = a.shape[0], b.shape[0]
    if max(n1, n2) <= _EXACT_2SAMP_MAX:
        raise InvalidArgument(f"ks_2samp needs a sample of more than "
                              f"{_EXACT_2SAMP_MAX} draws, got {n1} and {n2}")
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
    """P(D_n >= d) for a sample of n > 140 draws, in [0, 1]: scipy's
    kstwo.sf, its support and then `_kolmogn(n, d, cdf=False)`, branch by
    branch."""
    if int(n) != n or n <= 140:
        raise InvalidArgument(f"KS p-values need an integer n > 140, got {n}")
    # x a 0-d array, as scipy's nditer hands it to _kolmogn: x**1.5 below
    # is numpy's array power
    n, x = int(n), np.array(d, dtype=np.float64)
    if np.isnan(x):
        return np.nan
    if x <= 0.5 / n:
        return 1.0
    if x >= 1.0:
        return 0.0
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2*t - 1))
        return _clip_prob(1.0 - prob)
    if t >= n - 1:  # Ruben-Gambino
        return _clip_prob(2 * (1.0 - x)**n)
    if x >= 0.5:  # exact: 2 * smirnov
        return _clip_prob(2 * smirnov(n, x))
    nxsquared = t * x
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return _clip_prob(2 * smirnov(n, x))
    if n <= 100000 and n * x**1.5 <= 1.4:
        cdfprob = _kolmogn_dmtw(n, x)
    else:
        cdfprob = _kolmogn_pelz_good(n, x)
    return _clip_prob(1.0 - cdfprob)


def _clip_prob(p):
    return np.clip(p, 0.0, 1.0)


def _log_nfactorial_div_n_pow_n(n):
    """log(n! / n^n) by Stirling's series, with n log n removed up front
    against cancellation."""
    rn = 1.0/n
    return (np.log(n)/2 - n + _LOG_2PI/2
            + rn * np.polyval(_STIRLING_COEFFS, rn/n))


def _kolmogn_dmtw(n, d):
    """P(D_n <= d) by Durbin's matrix (1/2n < d < 1), in Marsaglia, Tsang
    and Wang's form: write d = (k - h)/n with k a positive integer and 0 <=
    h < 1, and take the k-th diagonal entry of (n!/n^n) H^n for an m x m
    matrix H, m = 2k - 1, in O(m^2 log n) time, scaled by 2^128 in long
    double where it leaves the range."""
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])

    # v is the first column (and reversed last row) of H:
    # v[j] = (1 - h^(j+1))/(j+1)! except for v[-1]; w[j] = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow, harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0)**m - 2*h**m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])  # intermediate powers of H
    nn = n
    expnt = 0  # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]

    # times n!/n^n
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128

    if expnt != 0:
        p = np.ldexp(p, expnt)

    return _clip_prob(p)


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
