"""Closed-form sum rate approximations and feedback bit-allocation optimizers."""

from __future__ import annotations

import math
from typing import NamedTuple

from .numerics import lambert_w_m1

LN2 = math.log(2.0)
# zf_bopt_lambert stops once a step is at most LAMBERT_TOL, or fails after LAMBERT_MAX_ITER steps.
LAMBERT_TOL = 1e-6
LAMBERT_MAX_ITER = 500


class InfeasibleRegimeError(ValueError):
    """The Lambert W argument left its real branch; parameters are outside the regime."""


class ConvergenceError(ValueError):
    """An iterative solver used up its iterations without meeting its tolerance."""


def _check(snr: float, nt: int) -> None:
    # the quantization-error exponents divide by nt - 1, and the closed forms take logs of snr
    if nt < 2:
        raise ValueError(f"the closed forms need nt >= 2, got {nt}")
    if not (math.isfinite(snr) and snr > 0.0):
        raise ValueError(f"snr must be finite and > 0, got {snr}")


def _check_tfb(nt: int, tfb: float) -> None:
    # every closed form and solver takes log(tfb*nt/b), so tfb*nt must not overflow
    if not math.isfinite(tfb * nt):
        raise ValueError(f"tfb must be finite with a finite tfb*nt, got tfb={tfb} at nt={nt}")


def _check_point(snr: float, nt: int, tfb: float, b: float) -> None:
    """The point check of every closed form: _check, _check_tfb, a finite b, log2 nt <= b <= tfb.

    Past it, tfb*nt/b >= nt >= 2, so the closed forms' log(tfb*nt/b) is positive.
    """
    _check(snr, nt)
    _check_tfb(nt, tfb)
    if not math.isfinite(b):
        raise ValueError(f"b must be finite, got {b}")
    if b < math.log2(nt):
        raise ValueError(f"b must be >= log2(nt)={math.log2(nt):.3f}")
    if tfb < b:
        raise ValueError("tfb must be >= b")


def zf_rate_approx(snr: float, nt: int, tfb: float, b: float) -> float:
    """Closed-form ZF sum rate approximation (natural log inside, rate in bps/Hz)."""
    _check_point(snr, nt, tfb, b)
    div = math.log(tfb * nt / b)
    sig = (snr / nt) * div
    interf = (snr / nt) * 2.0 ** (-b / (nt - 1)) * div
    return nt * math.log2(1.0 + sig / (1.0 + interf))


def zf_penalty_approx(snr: float, nt: int, tfb: float, b: float) -> float:
    """Multi-user interference penalty relative to perfect CSI at equal user count."""
    _check_point(snr, nt, tfb, b)
    div = math.log(tfb * nt / b)
    return nt * math.log2(1.0 + (snr / nt) * 2.0 ** (-b / (nt - 1)) * div)


def _b_interval(nt: int, tfb: float) -> tuple[float, float]:
    """The ZF B optimizers' interval [log2 nt, tfb/nt]: a B of at least nt users."""
    _check_tfb(nt, tfb)
    lo, hi = math.log2(nt), tfb / nt
    if not lo < hi:
        raise ValueError("tfb too small for the feasible B interval")
    return lo, hi


def _bopt_residual(b: float, snr: float, nt: int, tfb: float) -> float:
    div = math.log(tfb * nt / b)
    return (snr / nt) * 2.0 ** (-b / (nt - 1)) * (b * LN2 / (nt - 1)) * div**2 - 1.0


class FixedPointResult(NamedTuple):
    b: float
    at_boundary: bool
    residual: float


def _ln_g_slope(b: float, nt: int, tfb: float) -> float:
    """d ln g/dB = (1 - 2/L)/B - ln2/(nt-1) with L = ln(tfb*nt/B); see zf_bopt_fixed_point."""
    return (1.0 - 2.0 / math.log(tfb * nt / b)) / b - LN2 / (nt - 1)


def _bisect(f, lo: float, hi: float) -> float:
    """A root of f in [lo, hi], where f(lo) and f(hi) differ in sign.

    Halves [lo, hi] until f at its midpoint is within 1e-10 of 0 or
    the interval is narrower than 1e-13 * max(1, hi), 450 to 900 ulps of hi.
    The width alone ends the loop: from the widest interval _b_interval
    allows (hi < 2^1024, lo >= 1) that takes under 1100 halvings.
    """
    flo = f(lo)
    while True:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if abs(fmid) <= 1e-10 or hi - lo < 1e-13 * max(1.0, hi):
            return mid
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid


def zf_bopt_fixed_point(snr: float, nt: int, tfb: float) -> FixedPointResult:
    """Continuous rate-maximizing B for ZF: the best root of the stationarity condition or end.

    B lies in [log2 nt, tfb/nt]. The residual plus one is (snr/nt)*ln2/(nt-1)*g(B),
    g(B) = B*2^(-B/(nt-1))*L^2 with L = ln(tfb*nt/B). d ln g/dB = (1 - 2/L)/B - ln2/(nt-1)
    falls while L > 2 and is negative once L <= 2, so g rises, then falls: the residual has
    at most one root on each side of its maximum. Ends of opposite sign hold one root,
    found by bisection. Two negative ends hold two roots or none: if the slope changes sign,
    bisection finds its root, the residual's maximum, and a positive maximum splits the two
    roots for bisection. Of the roots and the two ends, the B with the largest zf_rate_approx
    is returned; at_boundary says an end won, and residual is the residual at the B returned.
    """
    _check(snr, nt)
    lo, hi = _b_interval(nt, tfb)

    def residual(b: float) -> float:
        return _bopt_residual(b, snr, nt, tfb)

    flo, fhi = residual(lo), residual(hi)
    roots = []
    if flo * fhi <= 0:
        roots.append(_bisect(residual, lo, hi))
    elif flo < 0 and _ln_g_slope(lo, nt, tfb) > 0 > _ln_g_slope(hi, nt, tfb):
        peak = _bisect(lambda b: _ln_g_slope(b, nt, tfb), lo, hi)
        if residual(peak) > 0:
            roots += [_bisect(residual, lo, peak), _bisect(residual, peak, hi)]
    b = max([*roots, lo, hi], key=lambda x: zf_rate_approx(snr, nt, tfb, x))
    return FixedPointResult(b=b, at_boundary=b in (lo, hi), residual=residual(b))


def zf_bopt_lambert(snr: float, nt: int, tfb: float) -> float:
    """Lambert W form of the ZF B optimizer, iterating on its self-referential log term.

    The converged B is clamped to [log2 nt, tfb/nt], which must not be empty. Raises
    ConvergenceError if the step is still above LAMBERT_TOL after LAMBERT_MAX_ITER iterations.
    """
    _check(snr, nt)
    lo, hi = _b_interval(nt, tfb)
    b = max((nt - 1) * math.log2(snr / nt), lo, 1.0)
    prev_delta = 0.0
    for _ in range(LAMBERT_MAX_ITER):
        l_term = math.log(tfb * nt / b) ** 2
        arg = -nt / (snr * l_term)
        if arg < -1.0 / math.e:
            raise InfeasibleRegimeError(
                f"Lambert W argument {arg:.4f} below -1/e at B={b:.3f}"
            )
        b_new = -(nt - 1) / LN2 * lambert_w_m1(arg)
        delta = b_new - b
        if delta * prev_delta < 0:
            b_new = 0.5 * (b + b_new)  # damp oscillation
            delta = b_new - b
        if abs(delta) <= LAMBERT_TOL:
            return min(max(b_new, lo), hi)
        b, prev_delta = b_new, delta
    raise ConvergenceError(
        f"no convergence to tol={LAMBERT_TOL} in {LAMBERT_MAX_ITER} iterations (last B={b:.6f})")


def subf_rate_approx(snr: float, nt: int, tfb: float, b: float) -> float:
    """Single-user beamforming rate approximation, the form the B optimizer differentiates.

    It drops the small 2^{-B/(nt-1)} log(B) term of the (1 - 2^{-B/(nt-1)}) form, so its
    domain is log(tfb*nt/b) - 2^(-b/(nt-1))*log(tfb*nt) > -1/snr: small budgets such as
    one user at b = log2 nt fall outside it.
    """
    _check_point(snr, nt, tfb, b)
    gain = math.log(tfb * nt / b) - 2.0 ** (-b / (nt - 1)) * math.log(tfb * nt)
    inner = 1.0 + snr * gain
    if inner <= 0.0:
        raise ValueError(
            f"subf_rate_approx needs log(tfb*nt/b) - 2^(-b/(nt-1))*log(tfb*nt) > -1/snr, got "
            f"{gain:.6g} <= {-1.0 / snr:.6g} at snr={snr:g}, nt={nt}, tfb={tfb:g}, b={b:g}")
    return math.log2(inner)
