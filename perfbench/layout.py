"""Fixed input layout shared by the workloads and the reference generator.

Everything here is plain arithmetic on floats: no part of mwright is
imported, so the committed references do not depend on the program.

M_nu and F_nu orders come from fixed sets (hundredths plus 1/3); each
order owns one x-grid whose extent is where the large-argument envelope
of M_nu falls to about 1e-20, so every table spans both the power-series
block and the stable-integral tail. Steps are powers of two, so every
grid point, and every sampled point on it, is an exact binary value that
np.arange reproduces bit for bit.
"""

from __future__ import annotations

import math

# Seeded tables draw M_nu / F_nu orders from SEEDED_ORDERS (green tables use
# beta = 2 nu, drift tables beta = nu). From 0.44 up, m_wright understates
# abs_err_estimate just below the crossover radius at many (not all)
# hundredths, so a seeded order there would fail on some seeds only; fixed
# tables cover that range instead and fail or pass the same way every run.
SEEDED_ORDERS = tuple(sorted({k / 100 for k in range(1, 44)} | {1 / 3}))
GREEN_TIMES = (0.25, 1.0, 4.0)  # alpha = 1, so the scale t^(1/2) is 1/2, 1, 2
FIXED_MF_ORDERS = (0.5, 0.75, 0.9, 0.99)   # mwright, fwright and drift
FIXED_GREEN_ORDERS = (0.45, 0.5)           # beta = 0.9 and 1 at t = 1
MF_ORDERS = tuple(sorted(set(SEEDED_ORDERS) | set(FIXED_MF_ORDERS)
                         | set(FIXED_GREEN_ORDERS)))  # what refs.json holds

# Mittag-Leffler tables: fixed orders over s in [0, 20], whatever the seed.
# 0.9 and 0.95 are where abs_err_estimate is known to be understated;
# 1/2 has the closed form erfcx(s).
MLF_ORDERS = (0.5, 0.9, 0.95)
MLF_SMAX = 20.0
MLF_STEP = 0.125

SAMPLES_PER_TABLE = 9  # sampled points per M/F grid, x = 0 and x = X included
TARGET_CELLS = 400     # approximate half-grid size
ENVELOPE_LEVEL = 46.0  # e^-46 ~ 1e-20


def envelope_radius(nu: float) -> float:
    """x where b (nu x)^(1/(1-nu)) = ENVELOPE_LEVEL, b = (1-nu)/nu."""
    b = (1.0 - nu) / nu
    return (ENVELOPE_LEVEL / b) ** (1.0 - nu) / nu


def mf_grid(nu: float) -> tuple[float, float]:
    """(X, h): half-extent and dyadic step of the order's x-grid."""
    xmax = envelope_radius(nu)
    h = 2.0 ** math.floor(math.log2(xmax / TARGET_CELLS))
    return math.ceil(xmax / h) * h, h


def mf_samples(nu: float) -> list[float]:
    """Sampled grid points in [0, X] where the references are tabulated."""
    big_x, h = mf_grid(nu)
    pts = {round(big_x * j / (SAMPLES_PER_TABLE - 1) / h) * h
           for j in range(SAMPLES_PER_TABLE)}
    return sorted(pts)


def mlf_samples() -> list[float]:
    """Every cell of the fixed Mittag-Leffler grid."""
    n = int(round(MLF_SMAX / MLF_STEP))
    return [k * MLF_STEP for k in range(n + 1)]


def key(x: float) -> str:
    """Reference-table key of a grid point (exact binary value)."""
    return repr(float(x))
