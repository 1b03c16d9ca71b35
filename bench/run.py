#!/usr/bin/env python3
"""fbsim benchmark: how fast seeded Monte Carlo B sweeps reach their answer.

Run one workload; the last line of stdout is the JSON result:

    python3 bench/run.py --workload zf_bopt --seed 1 --seconds 30 --trace 0

Run every workload, each in its own process, and print a table with units:

    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

With ``--trace 0`` a run reports the end-to-end metrics:

- ``trials_per_s``: simulated coherence blocks per second, the median over
  timed passes at the workload's fixed trial counts;
- ``setup_s``: process start through ``import fbsim``, config construction
  and one warm-up trial per scheme/quantizer kind, the median over fresh
  processes;
- ``peak_rss_mib``: peak resident memory of the workload process;
- ``passed_frac``: operations (sweep points and analytic solves) that passed
  their check, over those attempted.

Both timings are scaled to the reference machine speed of ``calibration.py``;
the run record keeps the raw wall times and the slowdown factors.

With ``--trace 1`` it alternates untraced and traced passes on the same
inputs, then runs one ZF point at 1 worker and at ``nproc`` workers, and
reports the per-layer metrics of ``layers.py``, the worker-layout metrics and
``trace.overhead_frac``. Workloads run at ``FBSIM_THREADS=1``.

Each run writes its run record, result and failed checks to
``bench/out/<workload>.seed<seed>.trace<0|1>.json``; a traced run also writes
its spans to ``bench/out/<workload>.seed<seed>.spans.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import layers
import workloads
from calibration import Calibration
from fbsim import montecarlo
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SETUP_PROBES = 9
# Pass i of a run with --seed s simulates with fbsim seed s * stride + i.
PASS_SEED_STRIDE = 1000
LAYOUT_TRIALS = 400
CHILD_TIMEOUT_S = 170


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout at `root`; None if it is not a git checkout."""
    # The ceiling keeps git from reporting an enclosing repository's HEAD.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def setup_probe(workload: str) -> tuple[float, float]:
    """Seconds from starting a fresh process until it has imported fbsim,
    built the workload's configs and warmed up; and the machine slowdown
    that process measured right after."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as p:
        ready = p.stdout.readline()
        elapsed = time.perf_counter() - t0
        slowdown, _ = p.communicate(timeout=CHILD_TIMEOUT_S)
    if p.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"setup probe exited with {p.returncode}")
    return elapsed, float(slowdown)


def timed_pass(w, seed: int, trials: int | None) -> dict:
    """One pass, with the calibration kernel run before each sweep and after the last.

    "ns" is its wall time without the kernel runs, "scaled_ns" that time at
    the calibration's reference speed.
    """
    cal = Calibration()
    simulated, outcomes = workloads.run_pass(w, seed, trials, before_sweep=cal)
    cal()
    ns, scaled_ns = cal.work_ns()
    return {"seed": seed, "trials": simulated, "ns": ns, "scaled_ns": scaled_ns, "outcomes": outcomes}


def run_passes(w, seed: int, seconds: float, trials: int | None, tracer=None) -> list[dict]:
    """Run passes until the next one would end after `seconds`; at least one.

    With a tracer each pass runs twice on the same inputs, untraced and then
    traced, and the traced copy records spans.
    """
    passes, start = [], time.perf_counter_ns()
    while True:
        rec = timed_pass(w, seed * PASS_SEED_STRIDE + len(passes), trials)
        if tracer is not None:
            with tracer.installed(layers.targets()):
                traced = timed_pass(w, rec["seed"], trials)
            rec["traced_ns"], rec["traced_scaled_ns"] = traced["ns"], traced["scaled_ns"]
            rec["traced_outcomes"] = traced["outcomes"]
        passes.append(rec)
        elapsed = time.perf_counter_ns() - start
        if elapsed + elapsed / len(passes) > seconds * 1e9:
            return passes


def layout_pass(seed: int) -> tuple[dict, bool]:
    """One zf_bopt point at 1 worker and at nproc workers.

    Returns the per-layout trial rates and whether the two RateEstimates are
    bit-identical, as fbsim's determinism contract requires.
    """
    cfg, b = workloads.LAYOUT_POINT
    cfg = replace(cfg, seed=seed, trials=LAYOUT_TRIALS)
    estimates, rates = [], {}
    try:
        for label, workers in (("workers_1", 1), ("workers_nproc", nproc())):
            os.environ["FBSIM_THREADS"] = str(workers)
            t0 = time.perf_counter()
            estimates.append(montecarlo.run_point(cfg, b))
            rates[label] = LAYOUT_TRIALS / (time.perf_counter() - t0)
    finally:
        os.environ["FBSIM_THREADS"] = "1"
    return rates, estimates[0] == estimates[1]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 trials: int | None = None) -> tuple[dict, dict]:
    """Measure one workload; returns (result, run record).

    The result has exactly the keys correct, attempted, failed and metrics,
    each metric as {"value": ..., "unit": ...}.
    """
    w = workloads.WORKLOADS[name]
    references = json.loads(REFERENCE.read_text())["workloads"][name]
    setup = [] if trace else [setup_probe(name) for _ in range(SETUP_PROBES)]
    workloads.warm_up(w)
    Calibration()()  # so the first timed pass does not pay the kernel's first calls

    tracer = Tracer() if trace else None
    passes = run_passes(w, seed, seconds, trials, tracer)
    failures = workloads.check([(p["seed"], p["outcomes"]) for p in passes], references)
    attempted = sum(len(p["outcomes"]) for p in passes)
    OUT.mkdir(exist_ok=True)

    if trace:
        # Tracing must not change what fbsim computes.
        for p in passes:
            for plain, traced in zip(p["outcomes"], p["traced_outcomes"], strict=True):
                attempted += 1
                if (plain.estimate, plain.solves) != (traced.estimate, traced.solves):
                    failures.append({"pass_seed": p["seed"], "key": plain.key,
                                     "reason": "traced result differs from untraced"})
        traced_ns = sum(p["traced_ns"] for p in passes)
        metrics = layers.layer_metrics(tracer.summary(), tracer.counters, traced_ns, len(passes))
        rates, identical = layout_pass(seed * PASS_SEED_STRIDE + PASS_SEED_STRIDE - 1)
        attempted += 1
        if not identical:
            failures.append({"pass_seed": None, "key": "layout", "reason": "RateEstimates differ"})
        for label, rate in rates.items():
            metrics[f"montecarlo.layout.trials_per_s.{label}"] = (rate, "1/s")
        metrics["montecarlo.layout.bit_identical"] = (int(identical), "bool")
        traced = sum(p["traced_scaled_ns"] for p in passes)
        untraced = sum(p["scaled_ns"] for p in passes)
        metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "fraction")
        tracer.write(OUT / f"{name}.seed{seed}.spans.json")
    else:
        metrics = {
            "trials_per_s": (statistics.median(p["trials"] / p["scaled_ns"] * 1e9 for p in passes), "1/s"),
            "setup_s": (statistics.median(t / slowdown for t, slowdown in setup), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "passed_frac": (1.0 - len(failures) / attempted, "fraction"),
        }

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "trials_per_point": trials or w.trials,
        "trials_per_pass": w.trials_per_pass(trials),
        "pass_seeds": [p["seed"] for p in passes],
        "pass_seconds": [p["ns"] / 1e9 for p in passes],
        "pass_slowdowns": [p["ns"] / p["scaled_ns"] for p in passes],
        "setup_probes": [{"seconds": t, "slowdown": slowdown} for t, slowdown in setup],
        "nproc": nproc(),
        "FBSIM_THREADS": os.environ.get("FBSIM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
    }
    (OUT / f"{name}.seed{seed}.trace{int(trace)}.json").write_text(
        json.dumps({"run_record": record, "result": result, "failures": failures}, indent=1))
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    return result, record


def run_all(args) -> int:
    """Each workload in its own process; prints every metric with its unit."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S + args.seconds * 2)
        if proc.returncode != 0:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        print(next(line for line in lines if line.startswith("run record: ")))
        results[name] = json.loads(lines[-1])

    names = list(results)
    print(f"{'metric':<56} {'unit':<10}" + "".join(f" {n:>22}" for n in names))
    rows = {"failed_frac": ("fraction", {n: r["failed"] / r["attempted"] for n, r in results.items()})}
    for n, r in results.items():
        for metric, mv in r["metrics"].items():
            rows.setdefault(metric, (mv["unit"], {}))[1][n] = mv["value"]
    for metric, (unit, values) in rows.items():
        cells = "".join(f" {values[n]:>22.6g}" if n in values else f" {'-':>22}" for n in names)
        print(f"{metric:<56} {unit:<10}{cells}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    os.environ["FBSIM_THREADS"] = "1"
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: set up, print 'ready' and exit (times setup_s)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")

    if args.setup_probe:
        workloads.warm_up(workloads.WORKLOADS[args.workload])
        print("ready", flush=True)
        cal = Calibration()
        cal()  # the first run pays for the kernel's own first calls
        cal()
        print(cal.slowdown())
        return 0
    if args.workload == "all":
        return run_all(args)
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("run record: " + json.dumps(record))
    for k, mv in result["metrics"].items():
        print(f"{k} = {mv['value']:.6g} {mv['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
