"""Complex random-matrix primitives and the Lambert W branch -1."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative singular-value cutoff below which a set of quantized channels is
# treated as rank deficient.
RANK_RTOL = 1e-9


class SingularSetError(np.linalg.LinAlgError):
    """Raised when a candidate channel set is (numerically) rank deficient."""


@dataclass(frozen=True)
class RngStream:
    """Seeded, indexable random stream.

    Equal (seed, stream_id) pairs always produce bit-identical draw sequences,
    which is what makes trial-parallel Monte Carlo runs order independent.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. circularly symmetric complex Gaussian entries with unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def complex_pairs(z: np.ndarray) -> np.ndarray:
    """complex_gaussian from drawn standard normals: real z[..., 0, :, :], imaginary z[..., 1, :, :].

    Equal, bit for bit, to complex_gaussian making the same draws.
    """
    return (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / math.sqrt(2.0)


def haar_orthonormal_sets(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Draw `count` independent Haar-distributed orthonormal sets.

    Returns an array of shape (count, n, n); the columns of each (n, n) slice
    are the orthonormal vectors.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    a = complex_gaussian(rng, (count, n, n))
    q, r = np.linalg.qr(a)
    # Fix the phase ambiguity of QR so the distribution is exactly Haar.
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[..., None, :]
    return q


def zf_directions_batch(quantized_channels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing directions for a stack of channel sets, shape (..., n, nt).

    Row k of each set's result is the unit-norm vector orthogonal to every
    other row's channel, obtained from the pseudo-inverse of the conjugated
    channel matrix. Also returns a boolean mask, False where a set is
    (numerically) rank deficient; the directions of such a set are meaningless.
    """
    a = np.conj(quantized_channels)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    ok = ~(s[..., -1] < RANK_RTOL * s[..., 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        pinv = (np.swapaxes(vh, -1, -2).conj() / s[..., None, :]) @ np.swapaxes(u, -1, -2).conj()
        v = pinv / np.linalg.norm(pinv, axis=-2, keepdims=True)
    return np.swapaxes(v, -1, -2), ok


def zf_directions(quantized_channels: np.ndarray) -> np.ndarray:
    """Zero-forcing directions for one set of quantized channels, (n, nt).

    The single-set case of zf_directions_batch; raises SingularSetError if the
    rows are (numerically) dependent.
    """
    h = np.atleast_2d(np.asarray(quantized_channels))
    n, nt = h.shape
    if not 1 <= n <= nt:
        raise ValueError(f"need 1 <= count <= {nt}, got {n} channels")
    v, ok = zf_directions_batch(h)
    if not ok:
        raise SingularSetError("quantized channel set is rank deficient")
    return v


def lambert_w_m1(x: float) -> float:
    """Branch -1 of the Lambert W function on [-1/e, 0).

    Halley iteration started from the asymptotic expansion
    W_-1(-t) = log(t) + log(log(1/t)), with a square-root series start near
    the branch point.
    """
    x = float(x)
    if not (-1.0 / math.e <= x < 0.0):
        raise ValueError(f"lambert_w_m1 requires -1/e <= x < 0, got {x}")
    p2 = 2.0 * (1.0 + math.e * x)
    if p2 <= 0.0:
        return -1.0
    if p2 < 1e-2:
        p = math.sqrt(p2)
        w = -1.0 - p - p2 / 3.0 - (11.0 / 72.0) * p * p2
    else:
        l1 = math.log(-x)
        w = l1 - math.log(-l1)
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        # Halley step
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * (w + 1.0))
        step = f / denom
        w -= step
        if abs(step) <= 1e-12 * (1.0 + abs(w)):
            break
    return min(w, -1.0)
