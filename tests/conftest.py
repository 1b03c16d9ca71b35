"""Shared test helpers: independent oracles and the acceptance report hook."""

import csv
import math
import tempfile

import numpy as np
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from fbsim.analytic import LN2, InfeasibleRegimeError, _check, zf_bopt_fixed_point
from fbsim.cli import ResultRow
from fbsim.channel import ChannelRealization
from fbsim.numerics import (SingularSetError, complex_pairs, haar_orthonormal_sets, lambert_w_m1,
                            zf_directions)
from fbsim.quantization import DegeneratePivotError, rvq_sin2
from fbsim.schemes import DEPENDENT_RTOL, TIE_RTOL

# Property tests run the same examples on every run and keep no example database,
# so Tier-1 is deterministic. Hypothesis still caches the constants it finds in
# the source; that cache goes to a directory removed at exit, not .hypothesis/.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="fbsim-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

# One line per end-to-end criterion, filled in by test_acceptance.py and echoed
# at the end of the run so the verdicts are visible even when output is captured.
ACCEPTANCE_REPORT = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_REPORT:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_REPORT):
            terminalreporter.write_line(line)


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. circularly symmetric complex Gaussian entries with unit variance: real, then imaginary draws."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def read_csv(path) -> list:
    """The ResultRows of a CSV that fbsim.cli.write_csv wrote."""
    rows = []
    with open(path, newline="", encoding="utf-8") as f:
        for d in csv.DictReader(f):
            rows.append(ResultRow(
                scheme=d["scheme"], nt=int(d["nt"]), snr_db=float(d["snr_db"]),
                tfb=int(d["tfb"]), b=int(d["b"]), users=int(d["users"]),
                mean_rate=float(d["mean_rate"]), std_error=float(d["std_error"]),
                trials=int(d["trials"]),
                extra=None if d["extra"] == "" else float(d["extra"]),
            ))
    return rows


EULER_GAMMA = 0.5772156649015329


def max_gamma_expectation(k_users: int, nt: int, form: str = "harmonic") -> float:
    """Approximations to the expected largest squared channel norm among
    k_users i.i.d. users with nt antennas.

    form="harmonic" gives the harmonic-sum lower bound H_{K*Nt};
    form="log_gamma" the asymptote log(K*Nt) + gamma; form="log" drops the
    Euler-Mascheroni constant (the variant the rate approximations use).
    """
    if k_users < 1 or nt < 1:
        raise ValueError("k_users and nt must both be >= 1")
    m = k_users * nt
    if form == "harmonic":
        return float(np.sum(1.0 / np.arange(1, m + 1)))
    if form == "log_gamma":
        return math.log(m) + EULER_GAMMA
    if form == "log":
        return math.log(m)
    raise ValueError(f"unknown form {form!r}")


def bopt_scaling_report(snr: float, nt: int, tfb: float) -> dict:
    """Side-by-side view of the exact ZF B optimizer and its leading-order scalings."""
    return dict(exact=zf_bopt_fixed_point(snr, nt, tfb).b, loglog_tfb=math.log(math.log(tfb)),
                nt_term=(nt - 1) * math.log2(snr), snr_term=(nt - 1) * math.log2(snr / nt))


def zf_rate_linear_regime(nt: int, b: float) -> float:
    """Crude small-B slope diagnostic: rate ~ nt/(nt-1) * B.

    The nt/(nt-1) slope is the derivative of the loss bound
    nt*log2(1 + snr*2^(-B/(nt-1))) in the interference-limited regime, so it
    holds only while snr*2^(-B/(nt-1)) >> 1. Outside it (e.g. nt=4 at 10 dB for
    B >= 6) the slope of zf_rate_approx is far smaller.
    """
    return nt * b / (nt - 1)


def zf_loss_bound(snr: float, nt: int, b: float) -> float:
    """Sum rate penalty of quantized CSI without user selection."""
    _check(snr, nt)
    if b < 0:
        raise ValueError("b must be >= 0")
    return nt * math.log2(1.0 + snr * 2.0 ** (-b / (nt - 1)))


def phi_from_training_delay(r: float, beta: float, snr: float) -> float:
    """Combined training-plus-delay interference coefficient."""
    return 1.0 - r**2 + 1.0 / (1.0 + beta * snr)


def zf_rate_training_delay(snr: float, nt: int, tfb: float, b: float, phi: float) -> float:
    """The training/delay variant of zf_rate_approx.

    Its extra interference term phi*nt/(nt-1)*snr sits alongside the quantization
    interference, so it equals zf_rate_approx at snr / (1 + phi*nt/(nt-1)*snr).
    """
    div = math.log(tfb * nt / b)
    sig = (snr / nt) * div
    interf = (snr / nt) * 2.0 ** (-b / (nt - 1)) * div
    denom = 1.0 + phi * nt / (nt - 1) * snr + interf
    return nt * math.log2(1.0 + sig / denom)


def rbf_matching_budget(t_zf: float, nt: int, snr: float, b_opt: float) -> tuple[float, float]:
    """Users and total feedback bits RBF needs to match optimized ZF at budget t_zf."""
    if b_opt <= 0:
        raise ValueError("b_opt must be > 0")
    ratio = t_zf * nt / b_opt
    k = ratio * (1.0 + (snr / nt) * math.log(ratio)) ** (nt - 1)
    return k, k * math.log2(nt)


def subf_rate_full(snr: float, nt: int, tfb: float, b: float) -> float:
    """Single-user beamforming rate approximation with the (1 - 2^{-B/(nt-1)}) structure.

    fbsim.analytic.subf_rate_approx drops its small 2^{-B/(nt-1)} log(B) term.
    """
    q = 2.0 ** (-b / (nt - 1))
    return math.log2(1.0 + snr * (1.0 + (1.0 - q) * math.log(tfb * nt / b)))


def subf_bopt(nt: int, tfb: float) -> float:
    """Closed-form B optimizer for single-user beamforming; independent of SNR."""
    log_term = math.log(tfb * nt)
    arg = -1.0 / log_term
    if arg < -1.0 / math.e:
        raise InfeasibleRegimeError(f"log(tfb*nt)={log_term:.3f} must be >= e")
    b = -(nt - 1) / LN2 * lambert_w_m1(arg)
    return min(max(b, 1.0), float(tfb))


def haar_orthonormal_set(rng: np.random.Generator, n: int) -> np.ndarray:
    """Single Haar orthonormal set; shape (n, n), vectors in the columns."""
    return haar_orthonormal_sets(rng, n, 1)[0]


def oracle_haar_stack(rngs, n: int, count: int) -> np.ndarray:
    """haar_orthonormal_stack by LAPACK: the same draws, a stacked QR, then the phase fix.

    QR leaves each column's phase free; scaling column j by the phase of
    R[j, j] makes R's diagonal positive and real, so Q is Haar distributed.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    z = np.empty((len(rngs), 2, count * n, n))
    for t, rng in enumerate(rngs):
        rng.standard_normal(out=z[t])
    q, r = np.linalg.qr(complex_pairs(z).reshape(len(rngs), count, n, n))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def quantize_to_orthosets(h, codebook) -> tuple[int, int, float]:
    """Closest codeword of one channel over every set and beam: (set, beam, sin^2 error).

    The orthoset quantization rule, max |h^H w|^2, one channel at a time.
    """
    u = np.asarray(h) / np.linalg.norm(h)
    cos2 = np.abs(np.einsum("i,sij->sj", u.conj(), codebook)) ** 2
    s, m = np.unravel_index(int(np.argmax(cos2)), cos2.shape)
    return int(s), int(m), float(1.0 - cos2[s, m])


def oracle_orthoset_block(h_est, h_delayed, codebook, snr: float) -> dict:
    """RBF/PU2RC on one block in complex arithmetic, scheduling user by user.

    Channels (K, nt), codebook (S, nt, nt) with beam m of set s in column m,
    cell s * nt + m. Each user feeds back its cell argmax |h^H w|^2 and the
    SINR there with power snr/nt per beam, the sum of its other gains on
    that set as interference. A cell serves its largest fed-back SINR if > 0, the lowest
    user on ties; the set with the largest sum of log2(1 + SINR) transmits,
    served beams first in beam order, and rates are realized on h_delayed.
    Returns the fed-back cells and SINRs (K,), the set, the served users in
    beam order and their realized rates.
    """
    n_sets, nt, _ = codebook.shape
    power = snr / nt
    gains = np.abs(h_est.conj() @ codebook) ** 2  # (S, K, nt): gains[s, k, m] = |h_k^H w_sm|^2
    cells = np.argmax(np.swapaxes(gains, 0, 1).reshape(len(h_est), -1), axis=1)
    fb = np.empty(len(h_est))
    for k, c in enumerate(cells):
        own, total = gains[c // nt, k, c % nt], gains[c // nt, k].sum()
        fb[k] = power * own / (1.0 + power * (total - own))
    winner = {}
    for k, c in enumerate(cells):
        if fb[k] > 0.0 and (c not in winner or fb[k] > fb[winner[c]]):
            winner[c] = k
    scores = [sum(math.log2(1.0 + fb[winner[c]]) for c in range(s * nt, (s + 1) * nt) if c in winner)
              for s in range(n_sets)]
    s = int(np.argmax(scores))
    order = sorted(range(nt), key=lambda m: s * nt + m not in winner)  # served beams first
    served = [winner[s * nt + m] for m in order if s * nt + m in winner]
    # p[j, i] = |h_j^H w_i|^2 for served user j and beam i, its rows padded to nt with user 0
    # as the engine pads them, so that both run one BLAS kernel and agree bit for bit
    rows = h_delayed[served + [0] * (nt - len(served))]
    p = (np.abs(rows.conj() @ codebook[s][:, order]) ** 2)[:len(served)]
    own = np.diagonal(p)
    rates = np.log2(1.0 + power * own / (1.0 + power * (p.sum(axis=1) - own)))
    return dict(cells=cells, fb=fb, set=s, served=served, rates=rates)


def zf_realized_sinr(h_true, own_bf, other_bfs, snr: float, n: int) -> float:
    """Post-selection SINR under equal power SNR/n with residual interference."""
    s = snr / n
    sig = s * abs(np.vdot(h_true, own_bf)) ** 2
    interf = s * sum(abs(np.vdot(h_true, bf)) ** 2 for bf in other_bfs)
    return sig / (1.0 + interf)


def estimated_plan_rate(dirs, cqi, cqi_kind: str, plan, snr: float, nt: int) -> float:
    """Estimated sum rate of a plan, from the directions (K, nt) and CQI (K,) it was built on."""
    n = len(plan.selected)
    scale = snr if cqi_kind == "norm2" else float(nt)  # expected-SINR CQI holds snr/nt
    total = 0.0
    for k, bf in zip(plan.selected, plan.beamformers):
        proj = abs(np.vdot(dirs[k], bf)) ** 2
        total += math.log2(1.0 + (scale / n) * cqi[k] * proj)
    return total


def lambert_w_m1_bisect(x: float) -> float:
    """Independent branch -1 Lambert W oracle by plain bisection on [-700, -1]."""
    if not (-1.0 / math.e <= x < 0.0):
        raise ValueError("out of domain")

    def f(w):
        return w * math.exp(w) - x

    lo, hi = -700.0, -1.0
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def explicit_rvq_sin2_batch(rng: np.random.Generator, bits: int, nt: int, count: int) -> np.ndarray:
    """Vectorized oracle for explicit codebook-scan quantization error.

    For each sample draws a fresh 2^B-codeword isotropic codebook and a random
    channel direction, returning 1 - max |<u, c>|^2.
    """
    n_codes = 2**bits
    out = np.empty(count)
    chunk = max(1, (1 << 22) // (n_codes * nt))
    done = 0
    while done < count:
        c = min(chunk, count - done)
        g = (rng.standard_normal((c, nt)) + 1j * rng.standard_normal((c, nt)))
        u = g / np.linalg.norm(g, axis=1, keepdims=True)
        cb = rng.standard_normal((c, n_codes, nt)) + 1j * rng.standard_normal((c, n_codes, nt))
        cb /= np.linalg.norm(cb, axis=2, keepdims=True)
        cos2 = np.abs(np.einsum("ck,cnk->cn", u.conj(), cb)) ** 2
        out[done : done + c] = 1.0 - cos2.max(axis=1)
        done += c
    return out


def sample_rvq_sin2(rng: np.random.Generator, bits: int, nt: int, count: int) -> np.ndarray:
    """`count` draws of the statistical RVQ error, from fbsim's inverse CDF."""
    return rvq_sin2(rng.random(count), bits, nt)


# ---------------------------------------------------------------------------
# Per-trial draws and per-row quantizers: one trial, one row at a time, with
# the generator calls fbsim made before it drew whole chunks into buffers.
# The stacked kernels must reproduce them from the same streams.

def oracle_draw_block(rng, num_users, nt, sigma2=0.0, r=1.0) -> ChannelRealization:
    """One coherence block, drawn with one complex_gaussian call per draw kind."""
    shape = (num_users, nt)
    if sigma2 == 0.0:
        h = complex_gaussian(rng, shape)
        h_est = h
    else:
        h_est = math.sqrt(1.0 - sigma2) * complex_gaussian(rng, shape)
        h = h_est + math.sqrt(sigma2) * complex_gaussian(rng, shape)
    if r == 1.0:
        h_delayed = h
    else:
        h_delayed = r * h + math.sqrt(1.0 - r**2) * complex_gaussian(rng, shape)
    return ChannelRealization(h=h, h_est=h_est, h_delayed=h_delayed)


def _unit_rows(h):
    return h / np.linalg.norm(h, axis=-1, keepdims=True)


def random_codebook(rng: np.random.Generator, bits: int, nt: int) -> np.ndarray:
    """2^B isotropic unit vectors, one per row."""
    return _unit_rows(complex_gaussian(rng, (2**bits, nt)))


def quantize_rvq_explicit(h, bits, rng):
    """Explicit RVQ of one row: scan a fresh 2^B isotropic codebook; returns (codeword, sin2)."""
    codebook = random_codebook(rng, bits, h.shape[-1])
    u = _unit_rows(h[None])[0]  # the engine's axis norm
    cos2 = np.abs(codebook @ u.conj()) ** 2
    best = int(np.argmax(cos2))
    return codebook[best], float(1.0 - cos2[best])


def oracle_scalar_bit_split(bits, nt):
    """Scalar quantization's bit split, handed out one bit at a time.

    Slots run phase_2, mag_2, phase_3, mag_3, ..., restarting until the budget
    is spent; at nt = 1 there are no slots.
    """
    phase_bits = np.zeros(nt - 1, dtype=int)
    mag_bits = np.zeros(nt - 1, dtype=int)
    slots = []
    for m in range(nt - 1):
        slots.append(phase_bits[m : m + 1])
        slots.append(mag_bits[m : m + 1])
    for i in range(bits if slots else 0):
        slots[i % len(slots)] += 1
    return phase_bits, mag_bits


def _uniform_midpoint(value, lo, hi, bits):
    levels = 2.0**bits
    width = (hi - lo) / levels
    idx = np.clip(np.floor((value - lo) / width), 0, levels - 1)
    return lo + (idx + 0.5) * width


def quantize_scalar(h, bits):
    """Scalar quantization of one row's relative phases and magnitude angles.

    Returns (direction, sin2).
    """
    nt = h.shape[-1]
    if abs(h[0]) < 1e-12 * np.linalg.norm(h):
        raise DegeneratePivotError("first channel component is (near) zero")
    rel = h[1:] / h[0]
    phase_bits, mag_bits = oracle_scalar_bit_split(bits, nt)
    phases = _uniform_midpoint(np.angle(rel), -math.pi, math.pi, phase_bits)
    mags = _uniform_midpoint(np.arctan(np.abs(rel)), 0.0, math.pi / 2.0, mag_bits)
    rec = np.concatenate(([1.0 + 0.0j], np.tan(mags) * np.exp(1j * phases)))
    rec /= np.linalg.norm(rec)
    u = h / np.linalg.norm(h)
    sin2 = 1.0 - abs(np.vdot(u, rec)) ** 2
    return rec, float(sin2)


def _quantize_statistical(h, bits, rng, scale):
    n, nt = h.shape
    sin2 = sample_rvq_sin2(rng, bits, nt, n) * scale
    u = _unit_rows(h)
    g = complex_gaussian(rng, u.shape)
    e = _unit_rows(g - np.sum(u.conj() * g, axis=-1, keepdims=True) * u)
    return np.sqrt(1.0 - sin2)[:, None] * u + np.sqrt(sin2)[:, None] * e, sin2


def oracle_quantize_directions(h, kind, bits, rng):
    """Quantize the rows (K, nt) of one block with B bits; returns (directions, sin2 errors).

    With one antenna every kind, like `perfect`, feeds back the exact
    direction with zero error and draws nothing.
    """
    nt = h.shape[1]
    if kind == "perfect" or nt == 1:
        return _unit_rows(h), np.zeros(h.shape[0])
    if kind in ("rvq_statistical", "idealized"):
        return _quantize_statistical(h, bits, rng, 1.0 if kind == "rvq_statistical" else (nt - 1) / nt)
    if kind == "rvq_explicit":
        rows = [quantize_rvq_explicit(row, bits, rng) for row in h]
    else:
        rows = [quantize_scalar(row, bits) for row in h]
    dirs, sin2 = zip(*rows)
    return np.array(dirs), np.array(sin2)


# ---------------------------------------------------------------------------
# Per-trial ZF reference: one trial at a time, a fresh Gram sub-block inverse
# per candidate set, and a scalar CQI quantizer. The bare_* functions are the
# per-trial path fbsim ran before the batched engine, verbatim: a plain argmax
# over the candidate sets' rates. The oracle_* functions add the engine's two
# rules, with the engine's measures: greedy candidates tied within TIE_RTOL go
# to the lowest user index, and a candidate whose Schur complement against the
# selected users is at most DEPENDENT_RTOL of its own squared norm is not
# added. Coarse codebooks with quantized CQI give exact ties and exactly
# dependent sets; rounding must decide neither. Each oracle also reports
# whether a rule changed a step's outcome from the bare path's; on every other
# trial the engine must agree with the bare path too.

def oracle_quantize_cqi(value: float, bits: int, mean: float) -> float:
    """Uniform quantization of 10*log10(value) over [-10, +15] dB around the mean, midpoint reconstruction."""
    center = 10.0 * math.log10(mean)
    lo_db, hi_db = center - 10.0, center + 15.0
    db = 10.0 * math.log10(value) if value > 0.0 else -math.inf
    levels = 2**bits
    width = (hi_db - lo_db) / levels
    idx = min(max(int(math.floor((db - lo_db) / width)) if math.isfinite(db) else 0, 0), levels - 1)
    rec_db = lo_db + (idx + 0.5) * width
    return 10.0 ** (rec_db / 10.0)


def _bare_set_rates(gram, cand_sets, gains, scale_num, size):
    """Estimated ZF sum rate for each candidate user set.

    For unit-norm quantized channels the post-ZF gain of user k in set S is
    1 / [(G_S)^{-1}]_{kk} with G_S the Gram matrix, so only small-matrix
    inverses are needed per candidate.
    """
    idx = np.asarray(cand_sets)
    sub = gram[idx[:, :, None], idx[:, None, :]]
    rates = np.full(len(cand_sets), -np.inf)
    try:
        inv_diag = np.diagonal(np.linalg.inv(sub), axis1=-2, axis2=-1).real
        ok = np.all(inv_diag > 0, axis=-1)
    except np.linalg.LinAlgError:
        inv_diag = np.empty((len(cand_sets), size))
        ok = np.zeros(len(cand_sets), dtype=bool)
        for i, g in enumerate(sub):
            try:
                d = np.diagonal(np.linalg.inv(g)).real
            except np.linalg.LinAlgError:
                continue
            if np.all(d > 0):
                inv_diag[i] = d
                ok[i] = True
    with np.errstate(all="ignore"):
        proj = 1.0 / inv_diag
        sinr = (scale_num / size) * gains[idx] * proj
        r = np.sum(np.log2(1.0 + sinr), axis=-1)
    good = ok & np.isfinite(r)
    rates[good] = r[good]
    return rates


def bare_greedy(dirs, cqi, scale_num, nt):
    gram = dirs @ dirs.conj().T
    selected = [int(np.argmax(cqi))]
    best_rate = math.log2(1.0 + scale_num * cqi[selected[0]])
    while len(selected) < min(nt, len(dirs)):
        cands = [k for k in range(len(dirs)) if k not in selected]
        cand_sets = [selected + [c] for c in cands]
        rates = _bare_set_rates(gram, cand_sets, cqi, scale_num, len(selected) + 1)
        i = int(np.argmax(rates))
        if not (rates[i] > best_rate):
            break
        selected.append(cands[i])
        best_rate = float(rates[i])
    return selected


def bare_simplified(dirs, cqi, scale_num, nt):
    gram = dirs @ dirs.conj().T
    order = np.argsort(-cqi, kind="stable")
    best_rate, best_set = -np.inf, [int(order[0])]
    for j in range(1, min(nt, len(dirs)) + 1):
        s = [int(k) for k in order[:j]]
        rate = _bare_set_rates(gram, [s], cqi, scale_num, j)[0]
        if rate > best_rate:
            best_rate, best_set = float(rate), s
    return best_set


def _dependent(gram, selected, c) -> bool:
    """Whether s_c = G_cc - b^H G_S^{-1} b, b = G[S, c], is at most DEPENDENT_RTOL * G_cc."""
    if not selected:
        return False
    b = gram[selected, c]
    g_cc = gram[c, c].real
    s_c = g_cc - (b.conj() @ np.linalg.inv(gram[np.ix_(selected, selected)]) @ b).real
    return not s_c > DEPENDENT_RTOL * g_cc


def oracle_greedy(dirs, cqi, scale_num, nt):
    """bare_greedy with both rules; returns (selected, whether a rule changed a step)."""
    gram = dirs @ dirs.conj().T
    selected = [int(np.argmax(cqi))]
    best_rate = math.log2(1.0 + scale_num * cqi[selected[0]])
    ruled = False
    while len(selected) < min(nt, len(dirs)):
        cands = [k for k in range(len(dirs)) if k not in selected]
        bare = _bare_set_rates(gram, [selected + [c] for c in cands], cqi, scale_num,
                               len(selected) + 1)
        rates = np.where([_dependent(gram, selected, c) for c in cands], -np.inf, bare)
        top = rates.max()
        i = int(np.argmax(rates >= top - TIE_RTOL * abs(top)))  # lowest index among ties
        i_bare = int(np.argmax(bare))
        step = cands[i] if rates[i] > best_rate else None
        ruled |= step != (cands[i_bare] if bare[i_bare] > best_rate else None)
        if step is None:
            break
        selected.append(step)
        best_rate = float(rates[i])
    return selected, ruled


def oracle_simplified(dirs, cqi, scale_num, nt):
    """bare_simplified with the dependence rule; returns (selected, whether it changed a step)."""
    gram = dirs @ dirs.conj().T
    order = np.argsort(-cqi, kind="stable")
    best_rate, best_set = -np.inf, [int(order[0])]
    ruled = dependent = False
    for j in range(1, min(nt, len(dirs)) + 1):
        s = [int(k) for k in order[:j]]
        bare = _bare_set_rates(gram, [s], cqi, scale_num, j)[0]
        dependent = dependent or _dependent(gram, s[:-1], s[-1])  # so is every larger prefix
        rate = -np.inf if dependent else bare
        ruled |= (rate > best_rate) != (bare > best_rate)
        if rate > best_rate:
            best_rate, best_set = float(rate), s
    return best_set, ruled


def oracle_beams(dirs, selected):
    """ZF beams of the selected set; a singular set falls back to its first user."""
    try:
        return selected, zf_directions(dirs[selected])
    except SingularSetError:
        return selected[:1], zf_directions(dirs[selected[:1]])


def oracle_realized_rates(h_true_sel, bfs, snr):
    n = len(bfs)
    p = np.abs(h_true_sel.conj() @ bfs.T) ** 2  # p[k, j] = |h_k^H v_j|^2
    s = snr / n
    sig = s * np.diagonal(p)
    interf = s * (p.sum(axis=1) - np.diagonal(p))
    return np.log2(1.0 + sig / (1.0 + interf))


def oracle_zf_block(realization, quantizer, bits, cqi_kind, snr, nt, selection, rng, cqi_bits=None):
    """One ZF block the per-trial way.

    Returns (users, sum rate) under the engine's rules, whether a rule changed
    a step, and (users, sum rate) of the bare path. Under simplified selection
    with norm2 CQI, explicit RVQ draws codebooks only for the top min(nt, K)
    users by CQI, the ones selection reads, in row order.
    """
    h_est = realization.h_est
    norms2 = np.linalg.norm(h_est, axis=1) ** 2

    def feedback(cqi, mean):
        return np.array([oracle_quantize_cqi(v, cqi_bits, mean) for v in cqi]) if cqi_bits else cqi

    if cqi_kind == "norm2":
        cqi, scale_num = feedback(norms2, nt), snr
        read = np.arange(len(h_est))
        if selection == "simplified" and quantizer == "rvq_explicit":
            read = np.sort(np.argsort(-cqi, kind="stable")[:nt])
        dirs = np.zeros_like(h_est)
        dirs[read] = oracle_quantize_directions(h_est[read], quantizer, bits, rng)[0]
    else:
        dirs, sin2 = oracle_quantize_directions(h_est, quantizer, bits, rng)
        cqi = feedback(norms2 * (1.0 - sin2) / (nt / snr + norms2 * sin2), snr)
        scale_num = float(nt)
    if selection == "greedy":
        ruled_set, ruled = oracle_greedy(dirs, cqi, scale_num, nt)
        bare_set = bare_greedy(dirs, cqi, scale_num, nt)
    else:
        ruled_set, ruled = oracle_simplified(dirs, cqi, scale_num, nt)
        bare_set = bare_simplified(dirs, cqi, scale_num, nt)

    def serve(selected):
        selected, bfs = oracle_beams(dirs, selected)
        rates = oracle_realized_rates(realization.h_delayed[selected], bfs, snr)
        return selected, float(rates.sum())

    return serve(ruled_set), ruled, serve(bare_set)
