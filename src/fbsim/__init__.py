"""Sum rate of the limited-feedback MIMO downlink under a fixed aggregate feedback budget."""

from .montecarlo import (
    ExperimentConfig,
    RateEstimate,
    feasible_b_values,
    find_bopt_empirical,
    run_point,
    sweep_b,
)
from .numerics import RngStream, lambert_w_m1

__all__ = [
    "ExperimentConfig",
    "RateEstimate",
    "RngStream",
    "feasible_b_values",
    "find_bopt_empirical",
    "lambert_w_m1",
    "run_point",
    "sweep_b",
]
