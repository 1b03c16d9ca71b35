"""Sum rate of the limited-feedback MIMO downlink under a fixed aggregate feedback budget."""

from .channel import ChannelModelConfig, ChannelRealization, draw_block
from .montecarlo import (
    ExperimentConfig,
    RateEstimate,
    feasible_b_values,
    find_bopt_empirical,
    run_point,
    sweep_b,
)
from .numerics import RngStream, lambert_w_m1
from .quantization import CqiQuantizerSpec, QuantizerSpec

__all__ = [
    "ChannelModelConfig",
    "ChannelRealization",
    "CqiQuantizerSpec",
    "ExperimentConfig",
    "QuantizerSpec",
    "RateEstimate",
    "RngStream",
    "draw_block",
    "feasible_b_values",
    "find_bopt_empirical",
    "lambert_w_m1",
    "run_point",
    "sweep_b",
]
