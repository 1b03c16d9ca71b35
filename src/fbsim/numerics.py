"""Complex random-matrix primitives and the Lambert W branch -1."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Relative singular-value cutoff below which a set of quantized channels is
# treated as rank deficient.
RANK_RTOL = 1e-9


class SingularSetError(np.linalg.LinAlgError):
    """Raised when a candidate channel set is (numerically) rank deficient."""


@dataclass(frozen=True)
class RngStream:
    """Seeded, indexable random stream: the one-stream view of rng_streams.

    Equal (seed, stream_id) pairs always produce bit-identical draw sequences,
    which is what makes trial-parallel Monte Carlo runs order independent.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return next(rng_streams(self.seed, self.stream_id, 1))


# SeedSequence's hash (numpy.random.bit_generator); NEP 19 keeps its streams stable.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of `calls` consecutive SeedSequence hash steps."""
    c = [init]
    for _ in range(calls):
        c.append(c[-1] * mult & _MASK32)
    c = np.array(c, np.uint32)
    return c[:-1], c[1:]


def _hash(v, xor, mul):
    v = (v ^ xor) * mul
    return v ^ (v >> 16)


def _mix(x, y):
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> 16)


def stream_seed_words(seed: int, first: int, count: int) -> np.ndarray:
    """PCG64 seed words (count, 4) of the streams (seed, first + i), i < count, in one array pass.

    Row i equals SeedSequence(entropy=seed, spawn_key=(first + i,))
    .generate_state(4, np.uint64), the words NumPy's default_rng seeds
    PCG64 with from that SeedSequence. It hashes the seed's 32-bit words (at
    least 4), then the stream id's word (ids from 2^32 on have two and go
    through SeedSequence itself); the seed part is the same for every
    stream, so SeedSequence mixes it once. The hash multiplier advances with
    every call and never with the data, so the 4 calls that mix the id word
    into the pool run as one (count, 4) array step, as do generate_state's 8.
    """
    if seed < 0 or first < 0:
        raise ValueError(f"seed and stream ids must be >= 0, got seed={seed}, first={first}")
    if first + count > 2**32:
        return np.array([np.random.SeedSequence(seed, spawn_key=(first + i,)).generate_state(4, np.uint64)
                         for i in range(count)]).reshape(count, 4)
    n_seed = max(_POOL_SIZE, -(-seed.bit_length() // 32))  # padded to the pool before a spawn key
    pool = np.random.SeedSequence(np.array([seed >> 32 * i & _MASK32 for i in range(n_seed)], np.uint32)).pool
    xor_a, mul_a = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (n_seed + 1))
    xor_b, mul_b = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    ids = np.arange(first, first + count, dtype=np.uint32)[:, None]
    p = _mix(pool, _hash(ids, xor_a[-_POOL_SIZE:], mul_a[-_POOL_SIZE:]))  # the calls after the seed's
    v = _hash(np.tile(p, 2), xor_b, mul_b).astype(np.uint64)  # 8 words cycling through the pool
    return v[:, 0::2] | v[:, 1::2] << np.uint64(32)  # paired little-endian


class _SeedWords(ISeedSequence):
    """A seed sequence whose PCG64 state words are already computed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's seeding, generate_state(4, np.uint64), is precomputed")
        return self.words


def rng_streams(seed: int, first: int, count: int) -> Iterator[np.random.Generator]:
    """Generators of the streams (seed, first), ..., (seed, first + count - 1).

    Each draws bit for bit what default_rng(SeedSequence(seed, spawn_key=(first + i,))) draws.
    The seed words of all `count` streams are hashed up front in one array
    pass; each generator is built when the iterator reaches it, so a caller
    that takes them a chunk at a time holds one chunk's generators.
    """
    words = stream_seed_words(seed, first, count)
    return (np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in words)


def complex_pairs(z: np.ndarray) -> np.ndarray:
    """Circularly symmetric unit-variance complex Gaussians from standard normals z.

    Real parts are z[..., 0, :, :] and imaginary parts z[..., 1, :, :], so one
    standard_normal call into z draws, bit for bit, what separate calls for the
    real and then the imaginary parts would. Each part is multiplied by 1/sqrt(2)
    straight into the result, which gives the bits of (re + 1j * im) / sqrt(2).
    """
    out = np.empty(z.shape[:-3] + z.shape[-2:], dtype=complex)
    np.multiply(z[..., 0, :, :], 1.0 / math.sqrt(2.0), out=out.real)
    np.multiply(z[..., 1, :, :], 1.0 / math.sqrt(2.0), out=out.imag)
    return out


def complex_normals(rngs, *shape: int) -> np.ndarray:
    """Complex Gaussians (T, *shape), trial t from one standard_normal call of rngs[t].

    That call draws, bit for bit, what one complex_pairs call per leading index would.
    """
    z = np.empty((len(rngs), *shape[:-2], 2, *shape[-2:]))
    for t, rng in enumerate(rngs):
        rng.standard_normal(out=z[t])
    return complex_pairs(z)


def haar_orthonormal_sets(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Draw `count` independent Haar-distributed orthonormal sets.

    Returns an array of shape (count, n, n); the columns of each (n, n) slice
    are the orthonormal vectors. The one-trial case of haar_orthonormal_stack.
    """
    return haar_orthonormal_stack([rng], n, count)[0]


def haar_orthonormal_stack(rngs, n: int, count: int) -> np.ndarray:
    """`count` Haar orthonormal sets per generator, shape (T, count, n, n).

    Trial t draws its entries with complex_normals. Classical Gram-Schmidt
    run twice (CGS2) then orthonormalizes the columns of every set at once.
    Each column is divided by its own norm, so R has a positive real
    diagonal and Q is Haar distributed with no phase fix (Mezzadri, Notices
    AMS 54(5), 2007). A set's Q depends, bit for bit, only on its own draws,
    not on T or count.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    # q[j, :, s] is column j of set s: with the sets along the last axis,
    # each step below is one elementwise pass over the whole stack.
    q = np.ascontiguousarray(complex_normals(rngs, count * n, n).reshape(-1, n, n).T)
    qh = np.empty_like(q)  # conjugates of the finished columns
    for j in range(n):
        v = q[j]
        if j:  # project out columns 0..j-1, twice
            for _ in range(2):
                v -= _sum_leading(q[:j] * _sum_leading(qh[:j] * v, 1)[:, None], 0)
        h = np.conjugate(v, out=qh[j])
        # NumPy divides a complex by a real d as re * (1 / d), im * (1 / d): this is v / d, bit for bit
        vv = v.view(np.float64)
        vv *= np.repeat(1.0 / np.sqrt(_sum_leading(h * v, 0).real), 2)
        np.conjugate(v, out=h)
    return q.T.reshape(len(rngs), count, n, n)


def _sum_leading(z: np.ndarray, axis: int) -> np.ndarray:
    """Sum a C-contiguous complex array over `axis`, which is not its last.

    Summing the float view keeps that view's last axis (length >= 2)
    innermost, so each entry adds its terms in index order whatever the
    stack size; summed as complex, a lone set's terms would be added pairwise.
    """
    return np.add.reduce(z.view(np.float64), axis=axis).view(np.complex128)


def zf_directions(quantized_channels: np.ndarray) -> np.ndarray:
    """Zero-forcing directions for one set of quantized channels, (n, nt).

    Row k is the unit-norm vector orthogonal to every other row's channel,
    from the SVD pseudo-inverse of the conjugated channel matrix. Raises
    SingularSetError if the rows are (numerically) dependent. The engine
    builds the same beams from its selection's inverse Gram matrix
    (schemes._zf_select); the tests hold it to this reference.
    """
    h = np.atleast_2d(np.asarray(quantized_channels))
    n, nt = h.shape
    if not 1 <= n <= nt:
        raise ValueError(f"need 1 <= count <= {nt}, got {n} channels")
    u, s, vh = np.linalg.svd(h.conj(), full_matrices=False)
    if s[-1] < RANK_RTOL * s[0]:
        raise SingularSetError("quantized channel set is rank deficient")
    pinv = (vh.conj().T / s) @ u.conj().T
    return (pinv / np.linalg.norm(pinv, axis=0)).T


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
