"""Channel-direction quantizers (RVQ, scalar, idealized, orthonormal sets) and CQI quantization."""

from __future__ import annotations

import math

import numpy as np

from .numerics import complex_normals, complex_pairs, haar_orthonormal_sets

QUANTIZER_KINDS = ("rvq_explicit", "rvq_statistical", "scalar", "idealized", "perfect")

# b_problem refuses zf/subf explicit scans of more than this many codebook entries
# (2^B codewords of nt) per row; use the statistical fast path. At the bound one
# row's scan holds 1.1-1.8 MiB (2.75x its 2^B*2nt-double draw buffer at nt 4),
# less than the one trial of a PU2RC B=12 chunk.
EXPLICIT_RVQ_MAX_ENTRIES = 2**15

# Explicit RVQ scans up to this many codewords' worth of rows per call. A scan
# group is at least one row, so from 2^B = CODEWORDS_PER_SCAN it is one whole row,
# whose size only EXPLICIT_RVQ_MAX_ENTRIES bounds.
CODEWORDS_PER_SCAN = 4096


class DegeneratePivotError(ValueError):
    """Scalar quantization cannot normalize by a (near-)zero first component."""


def _unit_rows(h: np.ndarray) -> np.ndarray:
    return h / np.linalg.norm(h, axis=-1, keepdims=True)


def rvq_sin2(u: np.ndarray, bits: int, nt: int) -> np.ndarray:
    """Quantization error sin^2(theta) of a B-bit RVQ codebook from Uniform(0, 1) draws u.

    The error of a single isotropic codeword is Beta(nt-1, 1); the achieved
    error is the minimum over 2^B independent codewords, drawn here by inverse
    CDF with log1p/expm1 so tiny tail values keep full precision.
    """
    if nt == 1:
        return np.zeros_like(u)
    inner = -np.expm1(np.log1p(-u) * 2.0**(-bits))
    return inner ** (1.0 / (nt - 1))


def _sq_norms(h: np.ndarray) -> np.ndarray:
    """Squared norms of the rows of h, one contraction over the real view of its C-ordered rows."""
    x = np.ascontiguousarray(h).view(float)  # strided rows have no real view
    return np.einsum("...x,...x->...", x, x)


def _place_at_angle(h: np.ndarray, g: np.ndarray, sin2: np.ndarray) -> np.ndarray:
    """Unit vectors at angle theta from each C-ordered row of h, along the part of g orthogonal to it.

    With sin2 = sin^2(theta) and g_perp = g - (<h, g> / ||h||^2) h, the direction is
    sqrt((1 - sin2) / ||h||^2) h + sqrt(sin2 / ||g_perp||^2) g_perp, formed in place on g.
    """
    h2, scratch = _sq_norms(h), np.conj(h)
    norm = np.sqrt(h2)  # <h, g> / ||h|| / ||h|| rounds like a projection on h / ||h||
    coef = np.einsum("...x,...x->...", scratch, g) / norm / norm
    g -= np.multiply(coef[..., None], h, out=scratch)
    gv = g.view(float)
    gv *= np.sqrt(sin2 / _sq_norms(g))[..., None]
    gv += np.multiply(h.view(float), np.sqrt((1.0 - sin2) / h2)[..., None], out=scratch.view(float))
    return g


def _statistical_draws(rngs, n_users: int, nt: int) -> tuple[np.ndarray, np.ndarray]:
    """What statistical RVQ draws per trial: K uniforms for the errors, then the Gaussians that place each direction."""
    u = np.empty((len(rngs), n_users))
    for t, rng in enumerate(rngs):
        rng.random(out=u[t])
    return u, complex_normals(rngs, n_users, nt)


def _rvq_winning_draws(u: np.ndarray, bits: int, rngs, trial: np.ndarray) -> np.ndarray:
    """The raw draws (rows, 2, 1, nt) of each conjugated unit row's closest codeword in a fresh 2^B codebook.

    Row i of u belongs to trial trial[i], and a trial's rows come together.
    Each row's codebook is drawn from its trial's stream in row order, one
    codebook per row. Rows are scanned in groups of up to
    CODEWORDS_PER_SCAN // 2^B rows (at least one), with one draw call per
    run of a trial's rows in a group. Codewords are scored straight from the
    real draws, |c.u|^2 / ||c||^2, and each row's winner is the argmax of
    that score. The scan's buffers are freed on return.
    """
    n_rows, nt = u.shape
    n_codes = 2**bits
    group = max(1, CODEWORDS_PER_SCAN // n_codes)
    # c.u = (a + ib).(p + iq) / sqrt(2): z[:, 0] @ [p, q] + z[:, 1] @ [-q, p] gives [Re, Im]
    w = np.stack((np.stack((u.real, u.imag), -1), np.stack((-u.imag, u.real), -1)), 1)
    ones, ones2 = np.ones(nt), np.ones(2)
    g = min(group, n_rows)
    z = np.empty((g, 2, n_codes, nt))
    spent = np.empty(g * n_codes * max(4, nt))  # the scores' parts, then ||c||^2's terms
    parts = spent[: g * n_codes * 4].reshape(g, 2, n_codes, 2)
    terms = spent[: g * n_codes * nt].reshape(g, n_codes, nt)
    score = np.empty((g, n_codes))
    norm2 = np.empty((g, n_codes))
    best = np.empty((n_rows, 2, 1, nt))
    for lo in range(0, n_rows, group):
        hi = min(lo + group, n_rows)
        n = hi - lo
        zr = z[:n]
        cuts = np.flatnonzero(np.diff(trial[lo:hi], prepend=-1))  # where each trial's run starts
        for a, e in zip(cuts, [*cuts[1:], n]):
            rngs[trial[lo + a]].standard_normal(out=zr[a:e])
        p = np.matmul(zr, w[lo:hi], out=parts[:n])
        re_im = np.add(p[:, 0], p[:, 1], out=p[:, 0])
        re_im *= re_im
        s = np.matmul(re_im, ones2, out=score[:n])
        # ||c||^2 = sum of re^2 + im^2, the imaginary plane squared one antenna at a time
        sq = np.square(zr[:, 0], out=terms[:n])
        for x in range(nt):
            sq[:, :, x] += np.square(zr[:, 1, :, x], out=norm2[:n])
        s /= np.matmul(sq, ones, out=norm2[:n])
        best[lo:hi, :, 0] = zr[np.arange(n), :, np.argmax(s, axis=1)]
    return best


def _quantize_rvq_explicit(h: np.ndarray, bits: int, rngs, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Explicit RVQ: each read row scans a fresh 2^B isotropic codebook for the closest codeword.

    A trial draws one codebook per read row, in row order, and nothing for
    its unread rows. Only the read rows' winners are normalized and have
    their errors taken, all rows of the stack at once.
    """
    n_trials, n_users, nt = h.shape
    flat = np.flatnonzero(rows)
    u = _unit_rows(h.reshape(-1, nt)[flat]).conj()
    winners = _unit_rows(complex_pairs(_rvq_winning_draws(u, bits, rngs, flat // n_users)))
    dirs, sin2 = np.zeros_like(h), np.zeros((n_trials, n_users))
    dirs.reshape(-1, nt)[flat] = winners[:, 0]
    sin2.reshape(-1)[flat] = 1.0 - np.abs(np.einsum("gcn,gn->gc", winners, u))[:, 0] ** 2
    return dirs, sin2


def scalar_bit_split(bits: int, nt: int) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin split of B bits over the nt-1 phases and nt-1 magnitudes.

    Allocation order is phase_2, mag_2, phase_3, mag_3, ..., restarting until
    the budget is spent, so remainders favor lower-indexed components and
    phases first. At nt = 1 there are no slots and no bits are spent.
    """
    slots = 2 * (nt - 1)
    whole, rest = divmod(bits, max(slots, 1))
    counts = whole + (np.arange(slots) < rest)
    return counts[0::2], counts[1::2]


def _uniform_midpoint(value: np.ndarray, lo: float, hi: float, bits: int | np.ndarray) -> np.ndarray:
    levels = 2.0**bits
    width = (hi - lo) / levels
    idx = np.clip(np.floor((value - lo) / width), 0, levels - 1)
    return lo + (idx + 0.5) * width


def _quantize_scalar(h: np.ndarray, bits: int, norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scalar quantization of relative phases and magnitude angles, row by row of h (norms: ||h|| per row).

    Components are normalized by the first entry; the nt-1 relative phases are
    quantized uniformly on [-pi, pi] and the nt-1 angles arctan(|h_m|/|h_1|)
    uniformly on [0, pi/2], each at its cell midpoint.
    """
    nt = h.shape[-1]
    rel = h[..., 1:] / h[..., :1]
    phase_bits, mag_bits = scalar_bit_split(bits, nt)
    phases = _uniform_midpoint(np.angle(rel), -math.pi, math.pi, phase_bits)
    mags = _uniform_midpoint(np.arctan(np.abs(rel)), 0.0, math.pi / 2.0, mag_bits)
    rec = np.concatenate((np.ones_like(h[..., :1]), np.tan(mags) * np.exp(1j * phases)), axis=-1)
    rec = _unit_rows(rec)
    sin2 = 1.0 - np.abs(np.sum((h / norms).conj() * rec, axis=-1)) ** 2
    return rec, sin2


def orthoset_count(bits: int, nt: int) -> int:
    """Orthonormal sets of nt beams in a 2^B-codeword codebook; nt must divide 2^B."""
    total = 2**bits
    if total % nt != 0:
        raise ValueError(f"2^B={total} is not divisible by nt={nt}")
    return total // nt


def build_orthosets_codebook(bits: int, nt: int, rng: np.random.Generator) -> np.ndarray:
    """Common codebook of 2^B/nt independent Haar orthonormal sets.

    Shape (num_sets, nt, nt); set s, beam m is codebook[s][:, m].
    """
    return haar_orthonormal_sets(rng, nt, orthoset_count(bits, nt))


def quantize_cqi(value: np.ndarray, bits: int, mean: float) -> np.ndarray:
    """Uniform quantization of 10*log10(value) over [-10, +15] dB around 10*log10(mean).

    Elementwise with midpoint reconstruction. Values <= 0 and non-finite
    values map to the lowest level.
    """
    center = 10.0 * math.log10(mean)
    lo_db, hi_db = center - 10.0, center + 15.0
    with np.errstate(divide="ignore", invalid="ignore"):
        db = 10.0 * np.log10(value)
    # a value <= 0, inf or nan has a non-finite dB: send it to the lowest cell
    db = np.where(np.isfinite(db), db, lo_db)
    return 10.0 ** (_uniform_midpoint(db, lo_db, hi_db, bits) / 10.0)


def quantize_directions(h: np.ndarray, kind: str, bits: int, rngs,
                        rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Quantize the rows of the T blocks h (T, K, nt) with B bits; returns (directions, sin2 errors).

    Block t draws from rngs[t] (None for the kinds that draw nothing), in the
    same order and amounts as when it is quantized alone. With one antenna
    a direction is a unit scalar, so every kind, like `perfect`, feeds back
    the exact direction with zero error and draws nothing.

    `rows` (T, K), if given, marks the rows the caller reads; the others come
    back as zero directions with zero error, and no arithmetic is done on
    them. Statistical RVQ and `idealized` still make every row's draws.
    Explicit RVQ draws one codebook per read row, in row order, and none for
    an unread row, so a block's read rows quantize as its read rows alone
    would, unmasked; a caller that draws from `rngs` afterwards must not
    pass `rows`. The scalar kind checks every row's pivot.
    """
    if kind not in QUANTIZER_KINDS:
        raise ValueError(f"unknown quantizer kind {kind!r}; known: {QUANTIZER_KINDS}")
    h = np.ascontiguousarray(h)  # any layout quantizes bit for bit like its C-ordered copy
    n_trials, n_users, nt = h.shape
    exact = kind == "perfect" or nt == 1
    if kind == "rvq_explicit" and not exact:
        return _quantize_rvq_explicit(h, bits, rngs, np.ones((n_trials, n_users), bool) if rows is None else rows)
    draws = ()
    if kind in ("rvq_statistical", "idealized") and not exact:
        draws = _statistical_draws(rngs, n_users, nt)
    elif kind == "scalar" and not exact:
        norms = np.linalg.norm(h, axis=-1, keepdims=True)
        if np.any(np.abs(h[..., :1]) < 1e-12 * norms):  # every row's pivot, read or not
            raise DegeneratePivotError("first channel component is (near) zero")
        draws = (norms,)
    if rows is None:
        return _quantize_rows(h, kind, bits, *draws)
    dirs, sin2 = np.zeros_like(h), np.zeros((n_trials, n_users))
    dirs[rows], sin2[rows] = _quantize_rows(h[rows], kind, bits, *(d[rows] for d in draws))
    return dirs, sin2


def _quantize_rows(h: np.ndarray, kind: str, bits: int, *draws) -> tuple[np.ndarray, np.ndarray]:
    """quantize_directions' kernels on rows h (..., nt) with what quantize_directions drew or took for them."""
    nt = h.shape[-1]
    if kind == "perfect" or nt == 1:
        return _unit_rows(h), np.zeros(h.shape[:-1])
    if kind == "scalar":
        return _quantize_scalar(h, bits, *draws)
    u, g = draws
    # idealized: the RVQ error scaled down by (nt-1)/nt in expectation
    sin2 = rvq_sin2(u, bits, nt) * (1.0 if kind == "rvq_statistical" else (nt - 1) / nt)
    return _place_at_angle(h, g, sin2), sin2
