"""Smoke test of the benchmark harness, kept out of the repo's test suite.

Run with: python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (first: it puts src/ on sys.path)
import layers  # noqa: E402
import run  # noqa: E402
from fbsim import analytic, channel, montecarlo, numerics, quantization, schemes  # noqa: E402
from tracer import Tracer, _covered  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
FBSIM_NAMESPACES = (analytic, channel, montecarlo, numerics, quantization, schemes, numerics.RngStream)


def test_spec_names_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_named_metric_is_emitted(name, trace, tmp_path, monkeypatch):
    monkeypatch.setenv("FBSIM_THREADS", "1")
    monkeypatch.setattr(run, "OUT", tmp_path)
    result, record = run.run_workload(name, seed=3, seconds=0, trace=trace, trials=4)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert record["trials_per_point"] == 4 and record["seed"] == 3
    for key in ("nproc", "numpy", "python", "FBSIM_THREADS", "git_commit", "trials_per_pass"):
        assert key in record
    if trace:
        assert result["metrics"]["montecarlo.layout.bit_identical"]["value"] == 1
        assert (tmp_path / f"{name}.seed3.spans.json").is_file()


def test_self_time_is_duration_minus_child_coverage():
    now = [0]
    tracer = Tracer(clock=lambda: now[0])

    def advance(dt):
        now[0] += dt

    leaf = tracer.wrap(advance, name="leaf")

    def middle():
        advance(5)
        leaf(20)
        advance(3)
        leaf(7)
        advance(1)

    mid = tracer.wrap(middle, name="middle")

    def outer():
        advance(2)
        mid()
        advance(4)

    tracer.wrap(outer, name="outer")()

    s = tracer.summary()
    assert s["leaf"] == {"calls": 2, "total_ns": 27, "self_ns": 27}
    assert s["middle"] == {"calls": 1, "total_ns": 36, "self_ns": 9}
    assert s["outer"] == {"calls": 1, "total_ns": 42, "self_ns": 6}
    by_name = {n: i for i, n in enumerate(tracer.names)}
    assert tracer.parents[by_name["outer"]] == -1
    assert tracer.parents[by_name["middle"]] == by_name["outer"]
    assert [p for n, p in zip(tracer.names, tracer.parents) if n == "leaf"] == [by_name["middle"]] * 2


def test_child_coverage_counts_overlap_once_and_clips_to_parent():
    assert _covered([(0, 10), (5, 15), (20, 25)], 2, 22) == 13 + 2
    assert _covered([], 0, 10) == 0


def test_install_restores_fbsim_attributes():
    before = {ns: dict(vars(ns)) for ns in FBSIM_NAMESPACES}
    tracer = Tracer()
    with tracer.installed(layers.targets()):
        for owner, attr, _ in layers.targets():
            assert vars(owner)[attr] is not before[owner][attr]
        montecarlo.run_trial(workloads.LAYOUT_POINT[0], workloads.LAYOUT_POINT[1], numerics.RngStream(0))
    with pytest.raises(RuntimeError), tracer.installed(layers.targets()):
        raise RuntimeError("interrupted traced run")
    assert {ns: dict(vars(ns)) for ns in FBSIM_NAMESPACES} == before
    assert "montecarlo.run_trial" in tracer.summary()


def test_greedy_candidate_set_count_matches_the_sets_scored(monkeypatch):
    scored = [0]
    original = schemes._estimated_rates_batched

    def counting(gram, cand_sets, *rest):
        scored[0] += len(cand_sets)
        return original(gram, cand_sets, *rest)

    monkeypatch.setattr(schemes, "_estimated_rates_batched", counting)
    tracer = Tracer()
    cfg = workloads.WORKLOADS["zf_bopt"].sweeps[0].cfg
    with tracer.installed(layers.targets()):
        for b in (4, 30):
            for t in range(20):
                montecarlo.run_trial(cfg, b, numerics.RngStream(5, t))
    assert tracer.counters["zf_greedy_select.candidate_sets"] == scored[0] > 0


def test_statistical_check_pools_the_passes_of_a_run():
    refs = {"p": {"mean": 10.0, "std_error": 0.01}, "a": {"fixed_point": 1.0, "lambert": 1.0}}

    def point(mean):
        return workloads.Outcome("p", estimate=montecarlo.RateEstimate(mean, 0.1, 100, 10, 30))

    solve = workloads.Outcome("a", solves=(1.0, 1.0 + 1e-6))
    # one pass 6 SE low, but the run's mean is on the reference
    assert workloads.check([(s, [point(10.0 + d), solve]) for s, d in
                            ((1, -0.6), (2, 0.2), (3, 0.3), (4, 0.1))], refs) == []
    # a 0.3 bias is 6 pooled SE over four passes: every execution fails
    biased = workloads.check([(s, [point(10.3)]) for s in range(4)], refs)
    assert [f["pass_seed"] for f in biased] == [0, 1, 2, 3]
    broken = workloads.check([(0, [workloads.Outcome("p", error="boom"),
                                   workloads.Outcome("a", solves=(1.0, 1.1))])], refs)
    assert [(f["key"], f["reason"]) for f in broken] == [
        ("p", "raised"), ("a", "fixed point 1.0 and Lambert W 1.1 disagree")]
