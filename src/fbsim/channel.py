"""Per-block channel generation with receiver training error and feedback delay."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import complex_normals


@dataclass(frozen=True)
class ChannelRealization:
    """True channels, receiver estimates, and post-delay channels; all (num_users, nt)."""

    h: np.ndarray
    h_est: np.ndarray
    h_delayed: np.ndarray


def draw_blocks(rngs, num_users: int, nt: int, sigma2: float = 0.0, r: float = 1.0) -> ChannelRealization:
    """Coherence blocks of T trials of i.i.d. Rayleigh channels; fields (T, num_users, nt).

    sigma2 is the variance of the receiver's estimation error (0: perfect
    receiver CSI, which skips estimation); the estimate and the error are
    drawn orthogonal, as MMSE estimation implies. r is the temporal
    correlation between the fed-back channel and the channel during data
    transmission (r = 1: no delay). Block t draws from rngs[t] with
    complex_normals, in this order: the channel (or, with training error,
    the estimate and then the error) and, with delay, the innovation.
    """
    draws = 1 + (sigma2 != 0.0) + (r != 1.0)
    g = complex_normals(rngs, draws, num_users, nt)
    if sigma2 == 0.0:
        h = h_est = np.ascontiguousarray(g[:, 0])  # with delay, g[:, 0] is every other slab of g
    else:
        # MMSE: estimate and error orthogonal, variances (1 - sigma2) and sigma2.
        h_est = math.sqrt(1.0 - sigma2) * g[:, 0]
        h = h_est + math.sqrt(sigma2) * g[:, 1]
    if r == 1.0:
        h_delayed = h
    else:
        h_delayed = r * h + math.sqrt(1.0 - r**2) * g[:, -1]
    return ChannelRealization(h=h, h_est=h_est, h_delayed=h_delayed)


def draw_block(rng: np.random.Generator, num_users: int, nt: int, sigma2: float = 0.0,
               r: float = 1.0) -> ChannelRealization:
    """One coherence block; the one-trial case of draw_blocks."""
    b = draw_blocks([rng], num_users, nt, sigma2, r)
    return ChannelRealization(h=b.h[0], h_est=b.h_est[0], h_delayed=b.h_delayed[0])
