"""Seeded Monte Carlo engine: per-trial streams, chunked trial batches and B sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .channel import draw_block, draw_blocks
from .numerics import RngStream, haar_orthonormal_stack, rng_streams
from .quantization import EXPLICIT_RVQ_MAX_ENTRIES, QUANTIZER_KINDS, orthoset_count
from .schemes import (
    SELECTIONS,
    ZF_CQI_KINDS,
    orthoset_blocks,
    pu2rc_block,
    rbf_block,
    subf_block,
    subf_blocks,
    zf_block,
    zf_blocks,
)

SCHEMES = ("zf", "rbf", "pu2rc", "subf")

# run_point stacks trials into chunks of about this many rows, counted by
# ExperimentConfig.trial_rows. A row weighs about 70-140 bytes at a chunk's
# traced peak in every scheme, so a chunk peaks at 1-2 MiB, below what one
# PU2RC B=12 trial needs (2.32 MiB on NumPy 2.4); explicit RVQ adds its scan
# group's buffers, about 0.7 MiB at nt 4.
CHUNK_ROWS = 16384


class FeedbackBudgetError(ValueError):
    """A B the configuration cannot run, or an empty B grid."""


@dataclass(frozen=True)
class ExperimentConfig:
    scheme: str
    nt: int
    snr_db: float
    tfb: int
    trials: int = 10_000
    seed: int = 0
    quantizer: str = "rvq_statistical"
    cqi_kind: str = "norm2"
    selection: str = "greedy"
    cqi_bits: int | None = None  # feedback-budget accounting for the CQI scalar
    beta: float | None = None  # None: perfect receiver CSI
    r: float = 1.0
    relaxed_user_grid: bool = False  # allow non-divisor B with floor(tfb/B) users
    b_values: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # Up to 3000 dB (a linear SNR of 1e300), snr * |h|^2 stays far inside the float
        # range; from about 3074 dB it overflows inside a trial.
        if not (math.isfinite(self.snr_db) and self.snr_db <= 3000.0):
            raise ValueError(f"snr_db must be finite and at most 3000 dB, got {self.snr_db}")
        if self.tfb < 1:
            raise ValueError(f"tfb must be >= 1, got {self.tfb}")
        if self.cqi_bits is not None and self.cqi_bits < 0:
            raise ValueError(f"cqi_bits must be >= 0 (0: none), got {self.cqi_bits}")
        if self.selection not in SELECTIONS:
            raise ValueError(f"unknown selection {self.selection!r}; known: {SELECTIONS}")
        if self.scheme == "zf" and self.cqi_kind not in ZF_CQI_KINDS:
            raise ValueError(f"unsupported CQI kind for ZF {self.cqi_kind!r}; known: {ZF_CQI_KINDS}")
        if self.quantizer not in QUANTIZER_KINDS:
            raise ValueError(f"unknown quantizer kind {self.quantizer!r}; known: {QUANTIZER_KINDS}")
        if self.snr == 0.0:
            raise ValueError(f"snr_db={self.snr_db} underflows the linear SNR to 0")
        if self.nt < 1:
            raise ValueError(f"nt must be >= 1, got {self.nt}")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must be in [0, 1], got {self.r}")
        # beta = 0 would leave the receiver with no channel estimate at all (h_est = 0)
        if self.beta is not None and not self.beta > 0.0:
            raise ValueError(f"beta must be > 0 (omit it for perfect receiver CSI), got {self.beta}")
        if self.estimation_error_var == 1.0:  # 1 + beta*snr rounds to 1: every estimate would be 0
            raise ValueError(f"beta * snr = {self.beta * self.snr:g} is too small to estimate the channel")
        for b in self.b_values:
            self.users_for(b)

    @property
    def snr(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)

    @property
    def estimation_error_var(self) -> float:
        """Variance of the receiver's channel-estimation error: 0 for perfect receiver CSI."""
        if self.beta is None:
            return 0.0
        return 1.0 / (1.0 + self.beta * self.snr)

    def b_problem(self, b: int) -> str | None:
        """Why B cannot run under this config, or None if it can."""
        if b < 1:
            return f"every B must be >= 1, got B={b}"
        per_user = b + (self.cqi_bits or 0)
        if self.tfb < per_user:
            return f"budget {self.tfb} too small for {per_user} bits/user"
        if not self.relaxed_user_grid and self.tfb % per_user != 0:
            return f"B={b} (+{self.cqi_bits or 0} CQI bits) does not divide tfb={self.tfb}"
        explicit = self.scheme in ("zf", "subf") and self.quantizer == "rvq_explicit"
        if explicit and self.nt > EXPLICIT_RVQ_MAX_ENTRIES >> b:  # 2^B*nt past the bound
            return (f"rvq_explicit is capped at 2^B*nt = {EXPLICIT_RVQ_MAX_ENTRIES} codebook entries, "
                    f"got 2^{b}*{self.nt}; use rvq_statistical for larger codebooks")
        if self.scheme == "pu2rc":
            try:
                orthoset_count(b, self.nt)  # whole orthonormal sets of nt beams
            except ValueError as e:
                return str(e)
        return None

    def trial_rows(self, b: int) -> int:
        """Rows a trial at B holds when run_point sizes its chunks (see CHUNK_ROWS).

        RBF/PU2RC score every user on every codebook set: users x sets rows.
        ZF and SUBF hold nt-wide channels and directions: users x nt rows.
        """
        sets = orthoset_count(b, self.nt) if self.scheme == "pu2rc" else 1
        return self.users_for(b) * (sets if self.scheme in ("rbf", "pu2rc") else self.nt)

    def users_for(self, b: int) -> int:
        problem = self.b_problem(b)
        if problem:
            raise FeedbackBudgetError(f"{problem}; feasible values: {feasible_b_values(self)}")
        return self.tfb // (b + (self.cqi_bits or 0))


@dataclass(frozen=True)
class RateEstimate:
    mean: float
    std_error: float
    trials: int
    b: int
    users: int


def feasible_b_values(cfg: ExperimentConfig) -> list[int]:
    """Integer B grid: the B in [log2(nt), tfb/nt] that cfg can run."""
    lo = max(1, math.ceil(math.log2(cfg.nt)))
    return [b for b in range(lo, cfg.tfb // cfg.nt + 1) if cfg.b_problem(b) is None]


def run_trial(cfg: ExperimentConfig, b: int, stream: RngStream) -> float:
    """Simulate one coherence block and return its sum rate."""
    rng = stream.generator()
    realization = draw_block(rng, cfg.users_for(b), cfg.nt, cfg.estimation_error_var, cfg.r)
    if cfg.scheme == "zf":
        out = zf_block(realization, cfg.quantizer, b, cfg.cqi_kind, cfg.snr, cfg.nt,
                       selection=cfg.selection, rng=rng, cqi_bits=cfg.cqi_bits)
    elif cfg.scheme == "rbf":
        out = rbf_block(realization, cfg.snr, cfg.nt, rng)
    elif cfg.scheme == "pu2rc":
        out = pu2rc_block(realization, b, cfg.snr, cfg.nt, rng)
    else:
        out = subf_block(realization, cfg.quantizer, b, cfg.snr, rng)
    return float(out.sum_rates[0])


def _trial_chunk(cfg: ExperimentConfig, b: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """Sum rates of the trials on generators `rngs`, run as one batch.

    Each trial draws from its own generator exactly what run_trial draws:
    its channel block, then its codebook or quantizer draws. The draws land
    in chunk buffers and the rest of the trial runs on the stacks.
    """
    block = draw_blocks(rngs, cfg.users_for(b), cfg.nt, cfg.estimation_error_var, cfg.r)
    if cfg.scheme == "zf":
        out = zf_blocks(block.h_est, block.h_delayed, cfg.quantizer, b, cfg.cqi_kind, cfg.snr, cfg.nt,
                        cfg.selection, rngs, cfg.cqi_bits)
    elif cfg.scheme == "subf":
        out = subf_blocks(block.h_est, block.h_delayed, cfg.quantizer, b, cfg.snr, rngs)
    else:
        sets = orthoset_count(b, cfg.nt) if cfg.scheme == "pu2rc" else 1
        codebooks = haar_orthonormal_stack(rngs, cfg.nt, sets)
        out = orthoset_blocks(block.h_est, block.h_delayed, codebooks, cfg.snr, cfg.nt)
    return out.sum_rates


def run_point(cfg: ExperimentConfig, b: int, stream_offset: int = 0) -> RateEstimate:
    """Monte Carlo estimate at one B value, with one RNG stream per trial.

    Trial t uses stream (seed, stream_offset + t), so each trial's result is
    the same however the trials are chunked. Every scheme runs in chunks of
    CHUNK_ROWS // cfg.trial_rows(b) trials (at least one), which bounds a
    chunk's working set whatever a trial holds. A non-finite sum rate raises
    ValueError naming the first such trial's stream.
    """
    users = cfg.users_for(b)
    step = max(1, CHUNK_ROWS // cfg.trial_rows(b))
    # Freeing an mmapped block makes glibc raise its trim threshold to twice the
    # block's size (mallopt(3), "dynamic mmap threshold"). One untouched block of
    # 256 bytes a row, above any chunk's peak, keeps the heap a chunk frees mapped
    # for the next chunk instead of faulting it back in. It adds no resident
    # pages, and other allocators simply ignore it.
    np.empty(CHUNK_ROWS * 256, dtype=np.uint8)
    rngs = rng_streams(cfg.seed, stream_offset, cfg.trials)
    results = np.concatenate([_trial_chunk(cfg, b, list(islice(rngs, step)))
                              for _ in range(0, cfg.trials, step)])
    bad = np.flatnonzero(~np.isfinite(results))
    if bad.size:
        raise ValueError(f"non-finite sum rate {results[bad[0]]} at B={b} on stream "
                         f"(seed={cfg.seed}, stream_id={stream_offset + bad[0]})")
    mean = float(results.mean())
    se = float(results.std(ddof=1) / math.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0
    return RateEstimate(mean=mean, std_error=se, trials=cfg.trials, b=b, users=users)


def sweep_b(cfg: ExperimentConfig, common_streams: bool = False) -> list[RateEstimate]:
    """run_point across cfg.b_values (or the full feasible grid).

    With common_streams the same trial streams are reused at every B (common
    random numbers); otherwise each B gets a disjoint stream range.
    """
    b_values = list(cfg.b_values) or feasible_b_values(cfg)
    if not b_values:
        raise FeedbackBudgetError("no feasible B values for this configuration")
    out = []
    for i, b in enumerate(b_values):
        offset = 0 if common_streams else i * cfg.trials
        out.append(run_point(cfg, b, stream_offset=offset))
    return out


def find_bopt_empirical(cfg: ExperimentConfig) -> tuple[int, RateEstimate, float]:
    """Empirical argmax over the B sweep, every B on the same trial streams.

    Returns (b_opt, its estimate, runner-up gap in pooled std-error units);
    ties go to the smaller B.
    """
    estimates = sweep_b(cfg, common_streams=True)
    best = max(estimates, key=lambda e: (e.mean, -e.b))
    others = [e for e in estimates if e.b != best.b]
    if others:
        runner = max(others, key=lambda e: e.mean)
        pooled = math.hypot(best.std_error, runner.std_error)
        gap = (best.mean - runner.mean) / pooled if pooled > 0 else math.inf
    else:
        gap = math.inf
    return best.b, best, gap
