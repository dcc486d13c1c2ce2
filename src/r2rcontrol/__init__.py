"""Run-to-run process control toolkit.

Stochastic process simulators, RL-based and classical run-to-run
controllers, ratio-of-correlated-normals machinery, and a seeded
experiment harness.
"""

__version__ = "0.1.0"

from .processes import (
    ArimaProcess,
    ArimaProcessParams,
    GammaProcess,
    GammaParams,
    LinearCmpParams,
    LinearCmpProcess,
    QuadraticCmpParams,
    QuadraticCmpProcess,
    SamplePath,
    WienerParams,
    WienerProcess,
    simulate_path,
)
from .estimation import PgsDistributionParams, RatioMoments, fit_pgs_params
from .ratio_normal import RatioDistribution, bvn_upper_orthant
from .harness import ExperimentConfig, error_ratio_series, mse, run_experiment, total_cost

__all__ = [
    "ArimaProcess",
    "ArimaProcessParams",
    "ExperimentConfig",
    "GammaParams",
    "GammaProcess",
    "LinearCmpParams",
    "LinearCmpProcess",
    "PgsDistributionParams",
    "QuadraticCmpParams",
    "QuadraticCmpProcess",
    "RatioDistribution",
    "RatioMoments",
    "SamplePath",
    "WienerParams",
    "WienerProcess",
    "bvn_upper_orthant",
    "error_ratio_series",
    "fit_pgs_params",
    "mse",
    "run_experiment",
    "simulate_path",
    "total_cost",
]
