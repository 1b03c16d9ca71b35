"""Beamforming/selection schemes and their realized per-block sum rates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization
from .numerics import haar_orthonormal_sets
from .numerics import zf_directions  # noqa: F401  (bench/layers.py traces it under this name)
from .quantization import (
    CqiQuantizerSpec,
    QuantizerSpec,
    build_orthosets_codebook,
    quantize_cqi,
    quantize_directions,
)

ZF_CQI_KINDS = ("norm2", "expected_sinr")
SELECTIONS = ("greedy", "simplified")

# Greedy candidates whose estimated rates are this close (relative) to the
# best count as tied, and the lowest user index wins. Coarse codebooks with
# quantized CQI give exact ties, which rounding must not decide.
TIE_RTOL = 1e-12

# A candidate whose Schur complement s_c is at most this fraction of its own
# squared norm (for unit-norm reports: the squared sine of its angle to the
# span of the selected users) is linearly dependent on them. Coarse codebooks
# give exactly dependent sets, for which rounding leaves |s_c| ~ 1e-16.
DEPENDENT_RTOL = 1e-10


@dataclass(frozen=True)
class FeedbackReport:
    user_id: int
    direction: np.ndarray
    sin2_error: float
    cqi: float
    cqi_kind: str


@dataclass(frozen=True)
class TransmissionPlan:
    selected: list[int]
    beamformers: np.ndarray  # (n, nt), unit-norm rows
    power_per_user: float


@dataclass(frozen=True)
class BlockOutcome:
    plan: TransmissionPlan
    realized_rates: np.ndarray
    sum_rate: float
    extra: dict = field(default_factory=dict)


def _cqi_scale(cqi_kind: str, snr: float, nt: int) -> float:
    # norm2 CQI is an effective channel gain (estimated SINR uses power snr/|S|);
    # expected-SINR CQI already folds in power snr/nt, so rescale by nt/|S|.
    if cqi_kind == "norm2":
        return snr
    if cqi_kind == "expected_sinr":
        return float(nt)
    raise ValueError(f"unsupported CQI kind for ZF selection: {cqi_kind!r}")


def _estimated_rates_batched(cols, cand_sets, inv, selected, g_diag, cqi, scale_num):
    """Estimated ZF sum rates of the sets S_t + {c} on the dense (T, K) grid of (trial t, user c).

    With the Gram matrix G = D D^H of the quantized channels (rows d_k), trial
    t has selected the j users selected[t], with Gram columns cols[t, :, k] =
    G[S, k] and inverse Gram matrix inv[t] = A = G_S^{-1}. User k's post-ZF
    gain in S is 1 / A_kk. Adding candidate c with b = G[S, c] leaves the
    Schur complement s = G_cc - b^H A b, the squared norm of d_c projected
    orthogonal to S; the gains become 1 / (A_kk + |(Ab)_k|^2 / s) for k in S
    and s for c. Every (t, c) is scored at once, by one batched matmul and
    real-view contractions; the rows (t, c) of cand_sets (P, 2) are the
    candidates. Returns rate (T, K), s (T, K) and Ab (T, j, K); rate is -inf
    off the candidates, where it is not finite, and on sets dependent on S by
    DEPENDENT_RTOL. Only s needs that test: _zf_select starts A at 1 / G_cc
    and grows it only by candidates with s > 0, so A's diagonal and every new
    A_kk are positive.
    """
    n_trials, j, n_users = cols.shape
    ab = inv @ cols  # (Ab)_i = sum_l A_il G[S_l, c]
    re = np.einsum("tix,tix->tx", cols.view(float), ab.view(float))  # re*re and im*im sums, interleaved
    s = g_diag - (re[:, 0::2] + re[:, 1::2])  # G_cc - Re(b^H Ab)
    x = ab.real ** 2 + ab.imag ** 2
    x /= s[:, None, :]
    x += np.diagonal(inv, axis1=1, axis2=2).real[:, :, None]  # the new A_kk, k in S
    w = scale_num / (j + 1)
    np.divide(w * np.take_along_axis(cqi, selected, axis=1)[:, :, None], x, out=x)  # SINR of k in S
    x += 1.0
    rate = np.log2(x, out=x).sum(axis=1) + np.log2(1.0 + w * cqi * s)
    ok = np.zeros((n_trials, n_users), dtype=bool)
    ok[cand_sets[:, 0], cand_sets[:, 1]] = True
    ok &= (s > DEPENDENT_RTOL * g_diag) & np.isfinite(rate)
    return np.where(ok, rate, -np.inf), s, ab


def _zf_select(dirs: np.ndarray, cqi: np.ndarray, scale_num: float, nt: int,
               greedy: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ZF user selection on quantized channels for a stack of T trials.

    `dirs` (T, K, nt) holds unit-norm quantized channels d_k and `cqi` (T, K)
    their CQI. Step 0 serves the largest CQI alone; each later step scores
    the candidates of the trials still running with _estimated_rates_batched,
    picks the best estimated sum rate (ties: see TIE_RTOL) and grows the
    chosen set's inverse Gram matrix A by the block-inverse update; only the
    rows G[S, :] of the Gram matrix are formed.

    Greedy's candidates are the users not yet selected, while the rate
    improves. Simplified (greedy=False) gathers each trial's top min(nt, K)
    users in stable descending CQI order and scores only the next one until a
    prefix is dependent; it keeps the best prefix, the smaller one on ties.
    Returns (selected, counts, served): trial t serves users
    selected[t, :counts[t]], in selection order, and served[t] is that set's
    A, zero-padded to (m, m). Steps that do not raise the count (a rejected
    greedy candidate, a losing simplified prefix) still grow the working A,
    so only the others copy it.
    """
    steps, t = min(nt, dirs.shape[1]), np.arange(len(dirs))
    span = dirs.shape[1]  # step j scores the users not yet selected among the first j + span
    if not greedy:  # the top `steps` users by CQI; step j scores user j
        order = np.argsort(-cqi, axis=1, kind="stable")[:, :steps]
        dirs, cqi, span = dirs[t[:, None], order], np.take_along_axis(cqi, order, axis=1), 1
    n_trials, n_users, _ = dirs.shape
    dirs_h = np.conj(dirs, order="C")  # C order: a strided dirs has no real view
    g_diag = np.einsum("tkx,tkx->tk", dirs_h.view(float), dirs_h.view(float))
    inv = np.zeros((n_trials, steps, steps), dtype=complex)  # A, grown block by block
    served = np.zeros_like(inv)
    cols = np.zeros((n_trials, steps, n_users), dtype=complex)  # cols[:, :, k] = G[S, k]
    selected = np.zeros((n_trials, steps), dtype=int)
    taken = np.zeros((n_trials, n_users), dtype=bool)
    best = np.full(n_trials, -np.inf)
    counts = np.zeros(n_trials, dtype=int)
    active = np.ones(n_trials, dtype=bool)
    with np.errstate(all="ignore"):
        for j in range(steps):
            if j == 0:
                c = np.argmax(cqi, axis=1)
                new = np.log2(1.0 + scale_num * cqi[t, c])
                u, s_c = np.zeros((n_trials, 0), dtype=complex), g_diag[t, c]
            else:
                cand = np.argwhere(active[:, None] & ~taken[:, :j + span])
                rate, s, ab = _estimated_rates_batched(
                    cols[:, :j], cand, inv[:, :j, :j], selected[:, :j], g_diag, cqi, scale_num)
                top = rate.max(axis=1, keepdims=True)
                c = np.argmax(rate >= top - TIE_RTOL * np.abs(top), axis=1)
                # trials no longer active read -inf here and are never read again
                new, u, s_c = rate[t, c], ab[t, :, c], s[t, c]
            active &= new > (best if greedy else -np.inf)
            grew = active & (new > best)
            counts = np.where(grew, j + 1, counts)
            best = np.where(grew, new, best)
            selected[:, j] = c
            inv[:, :j, :j] += u[:, :, None] * u.conj()[:, None, :] / s_c[:, None, None]
            inv[:, :j, j] = -u / s_c[:, None]
            inv[:, j, :j] = -u.conj() / s_c[:, None]
            inv[:, j, j] = 1.0 / s_c
            np.copyto(served, inv, where=grew[:, None, None])
            if j == steps - 1 or not active.any():
                break
            cols[:, j] = (dirs_h @ dirs[t, c][:, :, None])[:, :, 0]  # G[c, k]
            taken[t, c] = True
    if not greedy:
        selected = np.take_along_axis(order, selected, axis=1)
    return selected, counts, served


def _zf_beams(dirs: np.ndarray, selected: np.ndarray, served: np.ndarray) -> np.ndarray:
    """ZF beams of each trial's selected set, zero-padded to (T, m, nt).

    served[t] is the inverse Gram matrix A of trial t's served set D_S, zero
    past its count (see _zf_select). Beam k is row k of A D_S, normalized,
    which is orthogonal to every other served d_j; the zero rows of A give
    zero beams.
    """
    d = dirs[np.arange(len(selected))[:, None], selected]  # D_S, (T, m, nt)
    v = served @ d
    norm = np.linalg.norm(v, axis=2, keepdims=True)
    return v / np.where(norm > 0, norm, 1.0)


def _sinr(own, total, power):
    """SINR of a user with gain `own` on its beam and `total` on all beams, each at `power`."""
    return power * own / (1.0 + power * (total - own))


def _realized_rates(h: np.ndarray, beams: np.ndarray, power) -> np.ndarray:
    """Realized rates of users h (..., n, nt), user k served by row k of beams (..., m, nt), m >= n.

    Every scheme realizes its rates here. Each beam is sent at `power` (a scalar, or (..., 1) per
    set), so beams past n are idle and still interfere; a zero beam adds no interference.
    """
    p = np.abs(h.conj() @ np.swapaxes(beams, -1, -2)) ** 2  # p[k, j] = |h_k^H v_j|^2
    return np.log2(1.0 + _sinr(np.diagonal(p, axis1=-2, axis2=-1), p.sum(axis=-1), power))


def _select_plan(reports: list[FeedbackReport], snr: float, nt: int, greedy: bool) -> TransmissionPlan:
    if not reports:
        raise ValueError("need at least one feedback report")
    dirs = np.array([r.direction for r in reports])[None]
    cqi = np.array([r.cqi for r in reports])[None]
    selected, counts, served = _zf_select(dirs, cqi, _cqi_scale(reports[0].cqi_kind, snr, nt), nt, greedy)
    beams = _zf_beams(dirs, selected, served)
    n = int(counts[0])
    return TransmissionPlan(
        selected=[reports[k].user_id for k in selected[0, :n]],
        beamformers=beams[0, :n],
        power_per_user=snr / n,
    )


def zf_greedy_select(reports: list[FeedbackReport], snr: float, nt: int) -> TransmissionPlan:
    """Greedy user selection on quantized channels, maximizing estimated sum rate."""
    return _select_plan(reports, snr, nt, greedy=True)


def zf_simplified_select(reports: list[FeedbackReport], snr: float, nt: int) -> TransmissionPlan:
    """Low-complexity selection: try only the top-j users by CQI, j = 1..nt."""
    return _select_plan(reports, snr, nt, greedy=False)


@dataclass(frozen=True)
class Blocks:
    """Outcome of T coherence blocks of one scheme, from _transmit; trial t serves selected[t, :counts[t]]."""

    selected: np.ndarray  # (T, m) user indices; 0 past counts[t]
    counts: np.ndarray  # (T,)
    beamformers: np.ndarray  # (T, m, nt), unit-norm rows; zero rows past counts[t]
    realized_rates: np.ndarray  # (T, m), zero past counts[t]
    sets: np.ndarray | None = None  # (T,) transmitted orthonormal set (RBF/PU2RC)

    @property
    def sum_rates(self) -> np.ndarray:
        return self.realized_rates.sum(axis=1)


def _transmit(h_delayed: np.ndarray, selected: np.ndarray, counts: np.ndarray, beams: np.ndarray,
              power, sets: np.ndarray | None = None) -> Blocks:
    """Blocks of T trials that send every beam (T, m, nt) at `power` (scalar or (T,)) on h_delayed.

    Trial t serves selected[t, :counts[t]]; its beams past counts[t] serve no one.
    """
    on = np.arange(selected.shape[1]) < counts[:, None]
    selected = np.where(on, selected, 0)
    h = h_delayed[np.arange(len(selected))[:, None], selected]
    rates = np.where(on, _realized_rates(h, beams, np.reshape(power, (-1, 1))), 0.0)
    return Blocks(selected, counts, np.where(on[..., None], beams, 0.0), rates, sets)


def _block_outcome(out: Blocks, power_per_user: float) -> BlockOutcome:
    """The one block of a one-trial Blocks, as a BlockOutcome."""
    n = int(out.counts[0])
    plan = TransmissionPlan(selected=[int(k) for k in out.selected[0, :n]],
                            beamformers=out.beamformers[0, :n], power_per_user=power_per_user)
    extra = {} if out.sets is None else {"set_index": int(out.sets[0]), "num_scheduled": n}
    return BlockOutcome(plan=plan, realized_rates=out.realized_rates[0, :n],
                        sum_rate=float(out.sum_rates[0]), extra=extra)


def _zf_feedback(h_est, quantizer, cqi_kind, snr, nt, rngs, cqi_quantizer):
    """Quantized directions, their sin^2 errors and the CQI of T blocks' estimates (T, K, nt).

    Block t quantizes its directions with rngs[t].
    """
    dirs, sin2 = quantize_directions(h_est, quantizer, rngs)
    norms2 = np.linalg.norm(h_est, axis=-1) ** 2
    if cqi_kind == "norm2":
        cqi = norms2
    elif cqi_kind == "expected_sinr":
        cos2 = 1.0 - sin2
        cqi = norms2 * cos2 / (nt / snr + norms2 * sin2)
    else:
        raise ValueError(f"unsupported CQI kind for ZF: {cqi_kind!r}")
    if cqi_quantizer is not None:
        cqi = quantize_cqi(cqi, cqi_quantizer)
    return dirs, sin2, cqi


def zf_blocks(
    h_est: np.ndarray,
    h_delayed: np.ndarray,
    quantizer: QuantizerSpec,
    cqi_kind: str,
    snr: float,
    nt: int,
    selection: str,
    rngs: list[np.random.Generator | None],
    cqi_quantizer: CqiQuantizerSpec | None = None,
) -> Blocks:
    """ZF downlink for T coherence blocks at once, channels (T, K, nt).

    Block t quantizes its channel estimates with rngs[t]; CQI, selection,
    beams and realized rates (on h_delayed) then run on the whole stack.
    """
    if selection not in SELECTIONS:
        raise ValueError(f"unknown selection {selection!r}")
    dirs, _, cqi = _zf_feedback(h_est, quantizer, cqi_kind, snr, nt, rngs, cqi_quantizer)
    selected, counts, served = _zf_select(dirs, cqi, _cqi_scale(cqi_kind, snr, nt), nt,
                                          selection == "greedy")
    return _transmit(h_delayed, selected, counts, _zf_beams(dirs, selected, served), snr / counts)


def zf_block(
    realization: ChannelRealization,
    quantizer: QuantizerSpec,
    cqi_kind: str,
    snr: float,
    nt: int,
    selection: str = "greedy",
    rng: np.random.Generator | None = None,
    cqi_quantizer: CqiQuantizerSpec | None = None,
) -> BlockOutcome:
    """ZF downlink block: quantize estimates, select users, transmit on h_delayed.

    One block of zf_blocks, with selection through the FeedbackReport interface.
    """
    if selection not in SELECTIONS:
        raise ValueError(f"unknown selection {selection!r}")
    dirs, sin2, cqi = _zf_feedback(realization.h_est[None], quantizer, cqi_kind, snr, nt, [rng],
                                   cqi_quantizer)
    reports = [
        FeedbackReport(user_id=k, direction=dirs[0, k], sin2_error=float(sin2[0, k]),
                       cqi=float(cqi[0, k]), cqi_kind=cqi_kind)
        for k in range(dirs.shape[1])
    ]
    select = zf_greedy_select if selection == "greedy" else zf_simplified_select
    plan = select(reports, snr, nt)
    # zero-padded to zf_blocks' width min(nt, K), so both run the same kernel shapes and agree bit for bit
    n = len(plan.selected)
    pad = min(nt, len(reports)) - n
    out = _transmit(realization.h_delayed[None], np.array([plan.selected + [0] * pad]), np.array([n]),
                    np.pad(plan.beamformers, ((0, pad), (0, 0)))[None], snr / n)
    return _block_outcome(out, snr / n)


def orthoset_blocks(h_est: np.ndarray, h_delayed: np.ndarray, codebooks: np.ndarray,
                    snr: float, nt: int) -> Blocks:
    """RBF/PU2RC for T coherence blocks: channels (T, K, nt), codebooks (T, S, nt, nt).

    Set s, beam m of trial t is codebooks[t, s][:, m]. Each user feeds back
    the (set, beam) that maximizes |h_est^H w|^2 over the whole codebook and
    its SINR there, with power snr/nt on every beam of the set. Each (set,
    beam) serves its user with the largest fed-back SINR, if that is > 0
    (lowest index on ties); the set with the largest sum of log2(1 + SINR)
    transmits all of its beams, and its rates are realized on h_delayed.
    Served beams come first, in beam order; idle beams still interfere.
    """
    n_trials, n_users, _ = h_est.shape
    cells = codebooks.shape[1] * nt  # (set, beam) pairs per trial
    beams = np.swapaxes(codebooks, 2, 3).reshape(n_trials, cells, nt)  # beam rows
    p = np.abs(h_est.conj() @ np.swapaxes(beams, 1, 2)) ** 2  # (T, K, cells)
    best = np.argmax(p, axis=2)  # quantization rule: max |h^H w|^2
    trials, users = np.arange(n_trials), np.arange(n_users)
    t = trials[:, None]
    p_set = p.reshape(n_trials, n_users, -1, nt)[t, users, best // nt]  # (T, K, nt): the user's set
    p_best = p[t, users, best]
    fb = _sinr(p_best, p_set.sum(axis=2), snr / nt)

    # Per (set, beam): the largest fed-back SINR, then the lowest user index that reaches it.
    cell = best + cells * t
    sched_sinr = np.zeros(n_trials * cells)
    np.maximum.at(sched_sinr, cell, fb)
    won = (fb > 0.0) & (fb == sched_sinr[cell])
    sched_user = np.full(n_trials * cells, n_users)
    np.minimum.at(sched_user, cell[won], np.nonzero(won)[1])
    scores = np.log2(1.0 + sched_sinr.reshape(n_trials, -1, nt)).sum(axis=2)
    s_star = np.argmax(scores, axis=1)

    tx_user = sched_user.reshape(n_trials, -1, nt)[trials, s_star]  # (T, nt); n_users: no user
    on = tx_user < n_users
    beam = np.argsort(~on, axis=1, kind="stable")  # served beams first, in beam order
    w = beams[t, s_star[:, None] * nt + beam]  # (T, nt, nt): the set's beam rows
    return _transmit(h_delayed, np.take_along_axis(tx_user, beam, axis=1), on.sum(axis=1), w,
                     snr / nt, sets=s_star)


def _orthoset_block(realization: ChannelRealization, codebook: np.ndarray,
                    snr: float, nt: int) -> BlockOutcome:
    """Shared RBF/PU2RC core for one block; the one-trial case of orthoset_blocks."""
    out = orthoset_blocks(realization.h_est[None], realization.h_delayed[None], codebook[None], snr, nt)
    return _block_outcome(out, snr / nt)


def rbf_block(realization: ChannelRealization, snr: float, nt: int,
              rng: np.random.Generator) -> BlockOutcome:
    """Random beamforming: one Haar beam set, best-SINR user per beam."""
    codebook = haar_orthonormal_sets(rng, nt, 1)
    return _orthoset_block(realization, codebook, snr, nt)


def pu2rc_block(realization: ChannelRealization, bits: int, snr: float, nt: int,
                rng: np.random.Generator) -> BlockOutcome:
    """PU2RC: common codebook of 2^B/nt orthonormal sets, best set transmitted."""
    codebook = build_orthosets_codebook(bits, nt, rng)
    return _orthoset_block(realization, codebook, snr, nt)


def subf_blocks(h_est: np.ndarray, h_delayed: np.ndarray, quantizer: QuantizerSpec, snr: float,
                rngs: list[np.random.Generator | None]) -> Blocks:
    """Single-user beamforming for T blocks, channels (T, K, nt): each serves its best-SNR user.

    Block t quantizes its estimates with rngs[t] and beamforms along the
    quantized direction whose reported SNR snr * |h_est^H d|^2 is largest;
    the rate is realized on h_delayed.
    """
    dirs = quantize_directions(h_est, quantizer, rngs)[0]
    reported = snr * np.abs(np.sum(h_est.conj() * dirs, axis=2)) ** 2
    k = np.argmax(reported, axis=1)[:, None]
    bf = np.take_along_axis(dirs, k[..., None], axis=1)
    return _transmit(h_delayed, k, np.ones(len(k), dtype=int), bf, snr)


def subf_block(realization: ChannelRealization, quantizer: QuantizerSpec, snr: float,
               rng: np.random.Generator | None = None) -> BlockOutcome:
    """Single-user beamforming along the quantized direction of the best-SNR user.

    The one-trial case of subf_blocks.
    """
    out = subf_blocks(realization.h_est[None], realization.h_delayed[None], quantizer, snr, [rng])
    return _block_outcome(out, snr)
