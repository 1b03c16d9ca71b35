"""The benchmark's workloads, built only from fbsim's public library calls.

Importing this module puts the checkout's ``src/`` first on ``sys.path``, so
the benchmark always measures the fbsim source that sits next to it.

Every workload runs at ``nt=4`` and ``T_fb=300``. One *pass* runs each sweep
point once at the workload's fixed trial count, plus its analytic solves.
"""

from __future__ import annotations

import math
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "fbsim" / "__init__.py").is_file():
    raise ImportError(f"fbsim source not found under {SRC}")
sys.path.insert(0, str(SRC))

from fbsim import analytic  # noqa: E402
from fbsim.montecarlo import (  # noqa: E402
    ExperimentConfig,
    RateEstimate,
    feasible_b_values,
    run_trial,
    sweep_b,
)
from fbsim.numerics import RngStream  # noqa: E402

NT = 4
TFB = 300

# A sweep point passes when its mean over a run is within this many pooled
# standard errors of the stored reference; no exact bits are compared, so a
# change of random streams still passes.
SE_TOLERANCE = 5.0
# The two ZF B optimizers must agree with each other and with the stored values.
ANALYTIC_TOL = 1e-5


@dataclass(frozen=True)
class Sweep:
    cfg: ExperimentConfig  # seed and trials are set per pass
    common_streams: bool = False

    def key(self, b: int) -> str:
        c = self.cfg
        return f"{c.scheme}/{c.selection}/{c.quantizer}/snr{c.snr_db:g}/B{b}"


@dataclass(frozen=True)
class Workload:
    trials: int  # per sweep point and pass
    sweeps: tuple[Sweep, ...]
    analytic_grid: tuple[tuple[float, int, int], ...] = ()  # (snr_db, nt, tfb)

    def trials_per_pass(self, trials: int | None = None) -> int:
        return (trials or self.trials) * sum(len(s.cfg.b_values) for s in self.sweeps)


@dataclass(frozen=True)
class Outcome:
    """One operation: a sweep point or one (snr, nt, tfb) analytic solve."""

    key: str
    estimate: RateEstimate | None = None
    solves: tuple[float, float] | None = None  # (fixed point, Lambert W)
    error: str | None = None


def _cfg(**kw) -> ExperimentConfig:
    return ExperimentConfig(nt=NT, tfb=TFB, trials=1, seed=0, **kw)


def _zf_bopt_sweeps() -> tuple[Sweep, ...]:
    # As scripts/bopt_study.py runs it: the feasible B in [4, 40], common streams.
    out = []
    for snr_db in (0.0, 5.0, 10.0, 15.0):
        cfg = _cfg(scheme="zf", snr_db=snr_db)
        grid = tuple(b for b in feasible_b_values(cfg) if 4 <= b <= 40)
        out.append(Sweep(replace(cfg, b_values=grid), common_streams=True))
    return tuple(out)


FIG6_B = (2, 3, 4, 5, 6, 10, 12)
FIG11_B = (5, 6, 10, 12, 15, 20, 25, 30)

WORKLOADS = {
    # The paper's question. Greedy ZF selection dominates the trial cost.
    "zf_bopt": Workload(
        trials=100,
        sweeps=_zf_bopt_sweeps(),
        analytic_grid=tuple(
            (snr_db, nt, tfb)
            for snr_db in (0.0, 5.0, 10.0, 15.0, 20.0)
            for nt in (2, 3, 4)
            for tfb in (200, 300, 500, 1000)
        ),
    ),
    # Codebook-set schemes, no ZF selection: Haar codebook construction and
    # orthoset scheduling dominate; cheap rbf/subf trials expose the fixed
    # per-trial cost.
    "orthoset_sweep": Workload(
        trials=100,
        sweeps=(
            Sweep(_cfg(scheme="pu2rc", snr_db=10.0, b_values=FIG6_B)),
            Sweep(_cfg(scheme="rbf", snr_db=0.0, b_values=FIG6_B)),
            Sweep(_cfg(scheme="rbf", snr_db=10.0, b_values=FIG6_B)),
            Sweep(_cfg(scheme="subf", snr_db=0.0, b_values=FIG11_B)),
            Sweep(_cfg(scheme="subf", snr_db=5.0, b_values=FIG11_B)),
        ),
    ),
    # The per-row Python quantizers, the training/delay channel branch and
    # CQI quantization, behind the simplified ZF selection. One sweep per B,
    # so the calibration kernel also runs between these long points.
    "quantizer_impairments": Workload(
        trials=100,
        sweeps=tuple(
            Sweep(_cfg(scheme="zf", snr_db=10.0, quantizer=q, selection="simplified",
                       cqi_bits=4, beta=1.0, r=0.95, b_values=(b,)))
            for q, grid in (("scalar", (6, 11, 16)), ("rvq_explicit", (6, 11)))
            for b in grid
        ),
    ),
}


# The worker-layout pass runs this zf_bopt point at 1 worker and at nproc.
LAYOUT_POINT = (_cfg(scheme="zf", snr_db=10.0), 10)


def warm_up(w: Workload) -> None:
    """One trial per scheme/quantizer/selection kind, plus one analytic solve.

    Pays for lazy NumPy/LAPACK initialization before anything is timed.
    """
    seen = set()
    for s in w.sweeps:
        kind = (s.cfg.scheme, s.cfg.quantizer, s.cfg.selection)
        if kind not in seen:
            seen.add(kind)
            run_trial(s.cfg, s.cfg.b_values[0], RngStream(0, 0))
    if w.analytic_grid:
        snr_db, nt, tfb = w.analytic_grid[0]
        analytic.zf_bopt_lambert(10.0 ** (snr_db / 10.0), nt, tfb)


def run_pass(w: Workload, seed: int, trials: int | None = None,
             before_sweep: Callable[[], None] = lambda: None) -> tuple[int, list[Outcome]]:
    """Run every operation of the workload once; returns (trials simulated, outcomes).

    `before_sweep` runs before each sweep and before the analytic solves. An
    exception fails the operations it interrupts and is reported on stderr;
    the pass goes on with the next sweep.
    """
    trials = trials or w.trials
    simulated, outcomes = 0, []
    for s in w.sweeps:
        before_sweep()
        cfg = replace(s.cfg, seed=seed, trials=trials)
        try:
            estimates = sweep_b(cfg, common_streams=s.common_streams)
        except Exception:
            err = traceback.format_exc()
            print(err, file=sys.stderr)
            outcomes += [Outcome(s.key(b), error=err) for b in cfg.b_values]
            continue
        simulated += trials * len(estimates)
        outcomes += [Outcome(s.key(e.b), estimate=e) for e in estimates]
    if w.analytic_grid:
        before_sweep()
    for snr_db, nt, tfb in w.analytic_grid:
        key, snr = f"analytic/snr{snr_db:g}/nt{nt}/tfb{tfb}", 10.0 ** (snr_db / 10.0)
        try:
            fp = analytic.zf_bopt_fixed_point(snr, nt, tfb)
            lw = analytic.zf_bopt_lambert(snr, nt, tfb)
        except Exception:
            err = traceback.format_exc()
            print(err, file=sys.stderr)
            outcomes.append(Outcome(key, error=err))
            continue
        outcomes.append(Outcome(key, solves=(fp.b, lw)))
    return simulated, outcomes


def check(passes: list[tuple[int, list[Outcome]]], references: dict) -> list[dict]:
    """The failed operations of a run, given (pass seed, outcomes) per pass.

    An execution fails when it raised or returned a non-finite value. A sweep
    point is checked on its mean over all passes of the run: it must lie
    within SE_TOLERANCE pooled standard errors (run and reference) of the
    stored mean, or every execution of the point fails. An analytic solve
    fails unless both optimizers agree with each other and with the stored
    values within ANALYTIC_TOL.
    """
    runs: dict[str, list[tuple[int, Outcome]]] = {}
    for seed, outcomes in passes:
        for o in outcomes:
            runs.setdefault(o.key, []).append((seed, o))
    failures = []
    for key, executions in runs.items():
        ref = references.get(key)
        reasons = {seed: _execution_failure(o, ref) for seed, o in executions}
        estimates = [o.estimate for seed, o in executions
                     if o.estimate is not None and reasons[seed] is None]
        if estimates:
            n = sum(e.trials for e in estimates)
            mean = sum(e.trials * e.mean for e in estimates) / n
            se = math.sqrt(sum((e.trials * e.std_error) ** 2 for e in estimates)) / n
            pooled = math.hypot(se, ref["std_error"])
            if abs(mean - ref["mean"]) > SE_TOLERANCE * pooled:
                miss = f"mean {mean:.5f} vs reference {ref['mean']:.5f} (pooled SE {pooled:.5f})"
                reasons = {seed: r or miss for seed, r in reasons.items()}
        failures += [{"pass_seed": seed, "key": key, "reason": r} for seed, r in reasons.items() if r]
    return failures


def _execution_failure(o: Outcome, ref: dict | None) -> str | None:
    if o.error is not None:
        return "raised"
    if ref is None:
        return "no stored reference"
    if o.estimate is not None:
        e = o.estimate
        return None if math.isfinite(e.mean) and math.isfinite(e.std_error) else f"non-finite {e}"
    fp, lw = o.solves
    if not (math.isfinite(fp) and math.isfinite(lw)):
        return f"non-finite solve {fp}, {lw}"
    if abs(fp - lw) > ANALYTIC_TOL:
        return f"fixed point {fp} and Lambert W {lw} disagree"
    if abs(fp - ref["fixed_point"]) > ANALYTIC_TOL or abs(lw - ref["lambert"]) > ANALYTIC_TOL:
        return f"solves {fp}, {lw} vs stored {ref['fixed_point']}, {ref['lambert']}"
    return None
