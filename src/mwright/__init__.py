"""M-Wright / Mittag-Leffler toolkit for time-fractional diffusion.

Special functions of the Wright type on the real line, fractional-calculus
operators, analytic Green functions of the stretched time-fractional
diffusion family with a Volterra reference solver, and simulation of the
generalized grey Brownian motion class, all cross-checked by independent
quadrature and Monte Carlo oracles.
"""

from . import errors
from .specfun import (
    AuxIndex,
    EvalResult,
    WrightIndex,
    f_wright,
    m_wright,
    m_wright_asymptotic,
    m_wright_moment,
    m_wright_ode_residual,
    m_wright_special,
    m_wright_symmetric,
    m_wright_values,
    mellin_m_wright,
    mittag_leffler_neg,
    mittag_leffler_values,
    wright_series,
)
from .gridfn import GridFunction
from .oracles import (
    PairReport,
    fourier_cosine_numeric,
    laplace_numeric,
    m2,
    mellin_numeric,
    subordination_check,
    verify_pair,
)
from .fraccalc import (
    FracOrder,
    caputo_derivative_grid,
    caputo_power,
    rl_derivative_power,
    rl_integral_grid,
    rl_integral_power,
)
from .greens import (
    DriftSpec,
    GreenSpec,
    drift_green,
    drift_green_stable_form,
    drift_mean,
    green_density,
    green_density_values,
    green_fourier,
    solve_volterra,
    variance_law,
)
from .ggbm import (
    CovSpec,
    NPointQuery,
    PathEnsemble,
    covariance_matrix,
    ensemble_stats,
    marginal_cdf,
    marginal_quantile,
    pdf_marginal,
    pdf_npoint,
    sample_mixing_lambda,
    sample_oneside_stable,
    sample_paths,
)

__version__ = "0.1.0"


def __getattr__(name):
    # the verify suites are not imported with the package (the CLI imports
    # them for verify alone); mwright.verification loads them on first use
    if name == "verification":
        import importlib
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "errors",
    "AuxIndex", "EvalResult", "WrightIndex",
    "wright_series", "m_wright", "m_wright_values", "m_wright_symmetric",
    "f_wright", "mittag_leffler_neg", "mittag_leffler_values",
    "m_wright_moment", "mellin_m_wright", "m_wright_special",
    "m_wright_ode_residual", "m_wright_asymptotic",
    "GridFunction",
    "PairReport", "laplace_numeric", "fourier_cosine_numeric",
    "mellin_numeric", "m2", "subordination_check", "verify_pair",
    "FracOrder", "rl_integral_power", "rl_derivative_power", "caputo_power",
    "rl_integral_grid", "caputo_derivative_grid",
    "GreenSpec", "DriftSpec", "green_density", "green_density_values",
    "variance_law", "green_fourier", "drift_green",
    "drift_green_stable_form", "drift_mean", "solve_volterra",
    "CovSpec", "PathEnsemble", "NPointQuery", "covariance_matrix",
    "pdf_marginal", "pdf_npoint", "marginal_cdf", "marginal_quantile",
    "sample_oneside_stable", "sample_mixing_lambda", "sample_paths",
    "ensemble_stats",
]
