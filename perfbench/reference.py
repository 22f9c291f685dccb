"""References the checks compare against, none of them computed by mwright.

Tabulated M_nu, F_nu and E_nu(-s) values come from refs.json (written by
make_refs.py with mpmath); the Gaussian closed forms are evaluated here
with numpy.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFS = Path(__file__).resolve().parent / "refs.json"


def load_refs() -> dict:
    """{'M'|'F'|'E': {repr(order): {repr(x): value}}} from refs.json."""
    doc = json.loads(REFS.read_text())
    return {kind: doc[kind] for kind in ("M", "F", "E")}


def within(value: float, ref: float, est: float) -> bool:
    """|value - ref| <= abs_err_estimate + 4 ulp(ref)."""
    return abs(value - ref) <= est + 4.0 * math.ulp(ref)


def gaussian(xs: np.ndarray, var: float) -> np.ndarray:
    """Centred normal density; with var = std0^2 + 2 t^alpha it is the exact
    solution of the beta = 1 (stretched) diffusion equation from a Gaussian
    of standard deviation std0, and at alpha = beta = 1 the heat solution."""
    return np.exp(-0.5 * xs * xs / var) / math.sqrt(2.0 * math.pi * var)


def fbm_density(alpha: float, times: np.ndarray, xs: np.ndarray) -> float:
    """beta = 1 n-point density: the normal law with covariance
    t_i^alpha + t_j^alpha - |t_i - t_j|^alpha (Gamma(2) = 1)."""
    t = np.asarray(times, dtype=float)
    cov = (t[:, None] ** alpha + t[None, :] ** alpha
           - np.abs(t[:, None] - t[None, :]) ** alpha)
    logdet = np.linalg.slogdet(cov)[1]
    quad = float(xs @ np.linalg.solve(cov, xs))
    return math.exp(-0.5 * quad - 0.5 * logdet
                    - 0.5 * len(t) * math.log(2.0 * math.pi))
