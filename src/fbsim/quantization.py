"""Channel-direction quantizers (RVQ, scalar, idealized, orthonormal sets) and CQI quantization."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import haar_orthonormal_sets, complex_gaussian

QUANTIZER_KINDS = ("rvq_explicit", "rvq_statistical", "scalar", "idealized", "orthosets", "perfect")

# 2^B codeword scans above this are refused; use the statistical fast path.
EXPLICIT_RVQ_MAX_BITS = 24


class CodebookCapacityError(ValueError):
    """Explicit RVQ requested with too many bits; use rvq_statistical instead."""


class DegeneratePivotError(ValueError):
    """Scalar quantization cannot normalize by a (near-)zero first component."""


@dataclass(frozen=True)
class QuantizerSpec:
    kind: str
    bits: int
    nt: int

    def __post_init__(self):
        if self.kind not in QUANTIZER_KINDS:
            raise ValueError(f"unknown quantizer kind {self.kind!r}")
        if self.kind != "perfect":
            if self.bits < 1:
                raise ValueError("bits must be >= 1")
            if self.kind == "rvq_explicit" and self.bits > EXPLICIT_RVQ_MAX_BITS:
                raise CodebookCapacityError(
                    f"rvq_explicit is capped at B={EXPLICIT_RVQ_MAX_BITS}; "
                    "use rvq_statistical for larger codebooks"
                )
            if self.kind == "orthosets":
                if self.bits < math.log2(self.nt) or (2**self.bits) % self.nt != 0:
                    raise ValueError(
                        f"orthosets needs 2^B divisible by nt (B={self.bits}, nt={self.nt})"
                    )


@dataclass(frozen=True)
class DirectionQuantization:
    direction: np.ndarray  # unit norm
    sin2_error: float
    set_index: int | None = None
    beam_index: int | None = None


@dataclass(frozen=True)
class CqiQuantizerSpec:
    bits: int
    lo_db: float
    hi_db: float

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        if not self.lo_db < self.hi_db:
            raise ValueError("lo_db must be < hi_db")

    @classmethod
    def around_mean(cls, bits: int, mean_value: float) -> "CqiQuantizerSpec":
        """Default dynamic range: [-10 dB, +15 dB] around the mean CQI."""
        center = 10.0 * math.log10(mean_value)
        return cls(bits=bits, lo_db=center - 10.0, hi_db=center + 15.0)


def _unit_rows(h: np.ndarray) -> np.ndarray:
    return h / np.linalg.norm(h, axis=-1, keepdims=True)


def sample_rvq_sin2(rng: np.random.Generator, bits: int, nt: int, count: int) -> np.ndarray:
    """Sample the quantization error sin^2(theta) of a B-bit RVQ codebook.

    The error of a single isotropic codeword is Beta(nt-1, 1); the achieved
    error is the minimum over 2^B independent codewords, drawn here by inverse
    CDF with log1p/expm1 so tiny tail values keep full precision.
    """
    if nt == 1:
        rng.random(count)  # keep the draw count independent of nt
        return np.zeros(count)
    u = rng.random(count)
    inner = -np.expm1(np.log1p(-u) * 2.0**(-bits))
    return inner ** (1.0 / (nt - 1))


def _place_at_angle(rng: np.random.Generator, h: np.ndarray, sin2: np.ndarray) -> np.ndarray:
    """Unit vectors at angle theta from each row of h, isotropic in the complement."""
    u = _unit_rows(h)
    g = complex_gaussian(rng, u.shape)
    proj = np.sum(u.conj() * g, axis=-1, keepdims=True)
    e = g - proj * u
    e = _unit_rows(e)
    sin2 = np.asarray(sin2)
    return np.sqrt(1.0 - sin2)[..., None] * u + np.sqrt(sin2)[..., None] * e


def quantize_batch_statistical(
    h: np.ndarray, bits: int, rng: np.random.Generator, scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized statistical RVQ over the rows of h; returns (directions, sin2)."""
    h = np.atleast_2d(h)
    n, nt = h.shape
    sin2 = sample_rvq_sin2(rng, bits, nt, n) * scale
    return _place_at_angle(rng, h, sin2), sin2


def quantize_rvq_statistical(h: np.ndarray, bits: int, rng: np.random.Generator) -> DirectionQuantization:
    """RVQ via the distribution of its quantization error (no codeword scan)."""
    dirs, sin2 = quantize_batch_statistical(h, bits, rng)
    return DirectionQuantization(direction=dirs[0], sin2_error=float(sin2[0]))


def quantize_idealized(h: np.ndarray, bits: int, rng: np.random.Generator) -> DirectionQuantization:
    """Idealized codebook: RVQ error scaled down by (nt-1)/nt in expectation."""
    nt = np.atleast_2d(h).shape[1]
    dirs, sin2 = quantize_batch_statistical(h, bits, rng, scale=(nt - 1) / nt)
    return DirectionQuantization(direction=dirs[0], sin2_error=float(sin2[0]))


def random_codebook(rng: np.random.Generator, bits: int, nt: int) -> np.ndarray:
    """2^B isotropic unit vectors, one per row."""
    return _unit_rows(complex_gaussian(rng, (2**bits, nt)))


def quantize_rvq_explicit(
    h: np.ndarray, bits: int, rng: np.random.Generator, codebook: np.ndarray | None = None
) -> DirectionQuantization:
    """Explicit RVQ: scan a fresh 2^B isotropic codebook for the closest codeword."""
    h = np.asarray(h)
    if bits > EXPLICIT_RVQ_MAX_BITS:
        raise CodebookCapacityError(
            f"rvq_explicit is capped at B={EXPLICIT_RVQ_MAX_BITS}; use rvq_statistical"
        )
    if codebook is None:
        codebook = random_codebook(rng, bits, h.shape[-1])
    u = h / np.linalg.norm(h)
    cos2 = np.abs(codebook @ u.conj()) ** 2
    best = int(np.argmax(cos2))
    return DirectionQuantization(direction=codebook[best], sin2_error=float(1.0 - cos2[best]))


def scalar_bit_split(bits: int, nt: int) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin split of B bits over the nt-1 phases and nt-1 magnitudes.

    Allocation order is phase_2, mag_2, phase_3, mag_3, ..., restarting until
    the budget is spent, so remainders favor lower-indexed components and
    phases first.
    """
    phase_bits = np.zeros(nt - 1, dtype=int)
    mag_bits = np.zeros(nt - 1, dtype=int)
    slots = []
    for m in range(nt - 1):
        slots.append(phase_bits[m : m + 1])
        slots.append(mag_bits[m : m + 1])
    for i in range(bits):
        slots[i % len(slots)] += 1
    return phase_bits, mag_bits


def _uniform_midpoint(value: np.ndarray, lo: float, hi: float, bits: np.ndarray) -> np.ndarray:
    levels = 2.0**bits
    width = (hi - lo) / levels
    idx = np.clip(np.floor((value - lo) / width), 0, levels - 1)
    return lo + (idx + 0.5) * width


def quantize_scalar(h: np.ndarray, bits: int) -> DirectionQuantization:
    """Scalar quantization of relative phases and magnitude angles.

    Components are normalized by the first entry; the nt-1 relative phases are
    quantized uniformly on [-pi, pi] and the nt-1 angles arctan(|h_m|/|h_1|)
    uniformly on [0, pi/2], each at its cell midpoint.
    """
    h = np.asarray(h)
    nt = h.shape[-1]
    if abs(h[0]) < 1e-12 * np.linalg.norm(h):
        raise DegeneratePivotError("first channel component is (near) zero")
    rel = h[1:] / h[0]
    phase_bits, mag_bits = scalar_bit_split(bits, nt)
    phases = _uniform_midpoint(np.angle(rel), -math.pi, math.pi, phase_bits)
    mags = _uniform_midpoint(np.arctan(np.abs(rel)), 0.0, math.pi / 2.0, mag_bits)
    rec = np.concatenate(([1.0 + 0.0j], np.tan(mags) * np.exp(1j * phases)))
    rec /= np.linalg.norm(rec)
    u = h / np.linalg.norm(h)
    sin2 = 1.0 - abs(np.vdot(u, rec)) ** 2
    return DirectionQuantization(direction=rec, sin2_error=float(sin2))


def build_orthosets_codebook(bits: int, nt: int, rng: np.random.Generator) -> np.ndarray:
    """Common codebook of 2^B/nt independent Haar orthonormal sets.

    Shape (num_sets, nt, nt); set s, beam m is codebook[s][:, m].
    """
    total = 2**bits
    if total % nt != 0:
        raise ValueError(f"2^B={total} is not divisible by nt={nt}")
    return haar_orthonormal_sets(rng, nt, total // nt)


def quantize_to_orthosets(h: np.ndarray, codebook: np.ndarray) -> DirectionQuantization:
    """Global closest codeword over all sets; returns (set_index, beam_index) too."""
    if codebook.size == 0:
        raise ValueError("empty codebook")
    h = np.asarray(h)
    u = h / np.linalg.norm(h)
    cos2 = np.abs(np.einsum("i,sij->sj", u.conj(), codebook)) ** 2
    s, m = np.unravel_index(int(np.argmax(cos2)), cos2.shape)
    return DirectionQuantization(
        direction=codebook[s][:, m],
        sin2_error=float(1.0 - cos2[s, m]),
        set_index=int(s),
        beam_index=int(m),
    )


def quantize_cqi(value: float | np.ndarray, spec: CqiQuantizerSpec) -> float | np.ndarray:
    """Uniform quantization of 10*log10(value) over [lo, hi] dB, midpoint reconstruction.

    Works elementwise on arrays; a scalar in gives a float out. Values <= 0 and
    non-finite values map to the lowest level.
    """
    v = np.asarray(value, dtype=float)
    levels = 2**spec.bits
    width = (spec.hi_db - spec.lo_db) / levels
    with np.errstate(divide="ignore", invalid="ignore"):
        db = 10.0 * np.log10(v)
        idx = np.clip(np.floor((db - spec.lo_db) / width), 0, levels - 1)
    idx = np.where((v > 0.0) & np.isfinite(db), idx, 0.0)
    rec = 10.0 ** ((spec.lo_db + (idx + 0.5) * width) / 10.0)
    return float(rec) if rec.ndim == 0 else rec


def quantize_directions(
    h: np.ndarray, spec: QuantizerSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Quantize every row of h per spec; returns (directions, sin2 errors)."""
    h = np.atleast_2d(h)
    if spec.kind == "perfect":
        u = _unit_rows(h)
        return u, np.zeros(h.shape[0])
    if spec.kind == "rvq_statistical":
        return quantize_batch_statistical(h, spec.bits, rng)
    if spec.kind == "idealized":
        nt = h.shape[1]
        return quantize_batch_statistical(h, spec.bits, rng, scale=(nt - 1) / nt)
    if spec.kind == "rvq_explicit":
        results = [quantize_rvq_explicit(row, spec.bits, rng) for row in h]
    elif spec.kind == "scalar":
        results = [quantize_scalar(row, spec.bits) for row in h]
    else:
        raise ValueError(f"quantizer kind {spec.kind!r} is not a per-user direction quantizer")
    dirs = np.array([r.direction for r in results])
    sin2 = np.array([r.sin2_error for r in results])
    return dirs, sin2
