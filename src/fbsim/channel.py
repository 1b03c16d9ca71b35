"""Per-block channel generation with receiver training error and feedback delay."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import complex_normals


@dataclass(frozen=True)
class ChannelModelConfig:
    """Fading/feedback-loop model for one coherence block.

    beta is the number of downlink pilots per antenna; beta=None means perfect
    receiver CSI (the beta -> infinity limit) and skips estimation entirely.
    r is the temporal correlation between the fed-back channel and the channel
    during data transmission (r=1: no delay). The estimate and the estimation
    error are drawn orthogonal, as MMSE estimation implies.
    """

    nt: int
    num_users: int
    snr: float
    beta: float | None = None
    r: float = 1.0

    def __post_init__(self):
        if self.nt < 1 or self.num_users < 1:
            raise ValueError("nt and num_users must be >= 1")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must be in [0, 1], got {self.r}")
        # beta = 0 would leave the receiver with no channel estimate at all (h_est = 0)
        if self.beta is not None and not self.beta > 0.0:
            raise ValueError(f"beta must be > 0 (omit it for perfect receiver CSI), got {self.beta}")
        if self.snr <= 0.0:
            raise ValueError(f"snr must be > 0, got {self.snr}")
        if self.estimation_error_var == 1.0:  # 1 + beta*snr rounds to 1: every estimate would be 0
            raise ValueError(f"beta * snr = {self.beta * self.snr:g} is too small to estimate the channel")

    @property
    def estimation_error_var(self) -> float:
        if self.beta is None:
            return 0.0
        return 1.0 / (1.0 + self.beta * self.snr)


@dataclass(frozen=True)
class ChannelRealization:
    """True channels, receiver estimates, and post-delay channels; all (num_users, nt)."""

    h: np.ndarray
    h_est: np.ndarray
    h_delayed: np.ndarray


def draw_blocks(cfg: ChannelModelConfig, rngs) -> ChannelRealization:
    """Coherence blocks of T trials under cfg's training/delay model; fields (T, num_users, nt).

    Block t draws from rngs[t] with complex_normals, in this order: the
    channel (or, with training error, the estimate and then the error) and,
    with delay, the innovation.
    """
    sigma2 = cfg.estimation_error_var
    draws = 1 + (sigma2 != 0.0) + (cfg.r != 1.0)
    g = complex_normals(rngs, draws, cfg.num_users, cfg.nt)
    if sigma2 == 0.0:
        h = h_est = np.ascontiguousarray(g[:, 0])  # with delay, g[:, 0] is every other slab of g
    else:
        # MMSE: estimate and error orthogonal, variances (1 - sigma2) and sigma2.
        h_est = math.sqrt(1.0 - sigma2) * g[:, 0]
        h = h_est + math.sqrt(sigma2) * g[:, 1]
    if cfg.r == 1.0:
        h_delayed = h
    else:
        h_delayed = cfg.r * h + math.sqrt(1.0 - cfg.r**2) * g[:, -1]
    return ChannelRealization(h=h, h_est=h_est, h_delayed=h_delayed)


def draw_block(cfg: ChannelModelConfig, rng: np.random.Generator) -> ChannelRealization:
    """One coherence block of i.i.d. Rayleigh channels; the one-trial case of draw_blocks."""
    b = draw_blocks(cfg, [rng])
    return ChannelRealization(h=b.h[0], h_est=b.h_est[0], h_delayed=b.h_delayed[0])
