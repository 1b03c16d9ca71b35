"""fbsim's layer boundaries as the tracer sees them, and the per-layer metrics.

A layer is a module of ``src/fbsim``: numerics, channel, quantization,
schemes, montecarlo and analytic. Each traced function is wrapped under the
attribute its caller looks it up by (``fbsim.schemes.zf_directions``, not
``fbsim.numerics.zf_directions``), and its span is named after the module
that defines it (``numerics.zf_directions``).
"""

from __future__ import annotations

import workloads  # noqa: F401  (puts the checkout's src/ first on sys.path)
from fbsim import analytic, montecarlo, numerics, quantization, schemes
from fbsim.numerics import SingularSetError

# Every span the tracer records; each gets a `<span>.self_share` metric.
SPANS = (
    "montecarlo.run_point",
    "montecarlo.run_trial",
    "numerics.RngStream.generator",
    "channel.draw_block",
    "schemes.zf_block",
    "schemes.rbf_block",
    "schemes.pu2rc_block",
    "schemes.subf_block",
    "quantization.quantize_directions",
    "quantization.quantize_cqi",
    "quantization.build_orthosets_codebook",
    "numerics.haar_orthonormal_sets",
    "numerics.zf_directions",
    "schemes.zf_greedy_select",
    "schemes.zf_simplified_select",
    "analytic.zf_bopt_fixed_point",
    "analytic.zf_bopt_lambert",
)


def _count_rows(counters, args, kwargs, result, exc):
    h = args[0] if args else kwargs["h"]
    counters["quantize_directions.rows"] += len(h)


def _count_singular(counters, args, kwargs, result, exc):
    if isinstance(exc, SingularSetError):
        counters["zf_directions.singular"] += 1


def _count_greedy(counters, args, kwargs, result, exc):
    """Candidate sets greedy selection scored, from K users and n scheduled.

    Step j = 1..n-1 scores the K - j sets that add one user; a selection that
    stopped short of min(nt, K) also scored the K - n sets that did not help.
    A plan that fell back to one user after a singular set counts as n = 1.
    """
    if result is None:
        return
    reports = args[0]
    nt = args[2] if len(args) > 2 else kwargs["nt"]
    k, n = len(reports), len(result.selected)
    sets = sum(k - j for j in range(1, n))
    if n < min(nt, k):
        sets += k - n
    counters["zf_greedy_select.candidate_sets"] += sets
    counters["zf_greedy_select.scheduled"] += n


def targets():
    """(owner, attribute, on_exit) for every function the tracer wraps."""
    return [
        (montecarlo, "run_point", None),
        (montecarlo, "run_trial", None),
        (montecarlo, "draw_block", None),
        (montecarlo, "zf_block", None),
        (montecarlo, "rbf_block", None),
        (montecarlo, "pu2rc_block", None),
        (montecarlo, "subf_block", None),
        (schemes, "quantize_directions", _count_rows),
        (schemes, "quantize_cqi", None),
        (schemes, "build_orthosets_codebook", None),
        (schemes, "haar_orthonormal_sets", None),
        (schemes, "zf_directions", _count_singular),
        (schemes, "zf_greedy_select", _count_greedy),
        (schemes, "zf_simplified_select", None),
        (quantization, "haar_orthonormal_sets", None),
        (numerics.RngStream, "generator", None),
        (analytic, "zf_bopt_fixed_point", None),
        (analytic, "zf_bopt_lambert", None),
    ]


def layer_metrics(summary: dict, counters: dict, traced_ns: int, passes: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    `summary` is Tracer.summary() over `passes` traced passes that took
    `traced_ns` of wall time. A span that was never entered reads 0.
    """

    def calls(span):
        return summary.get(span, {}).get("calls", 0)

    def us_per_call(span, key="total_ns"):
        c = calls(span)
        return summary[span][key] / c / 1e3 if c else 0.0

    def self_us(span):
        return us_per_call(span, "self_ns")

    def per(count, base):
        return counters.get(count, 0.0) / base if base else 0.0

    greedy = calls("schemes.zf_greedy_select")
    rows = counters.get("quantize_directions.rows", 0)
    m = {
        "schemes.zf_greedy_select.us_per_call": (us_per_call("schemes.zf_greedy_select"), "us"),
        "schemes.zf_greedy_select.candidate_sets":
            (per("zf_greedy_select.candidate_sets", greedy), "count/call"),
        "schemes.zf_greedy_select.scheduled_mean": (per("zf_greedy_select.scheduled", greedy), "users"),
        "numerics.zf_directions.us_per_call": (us_per_call("numerics.zf_directions"), "us"),
        "numerics.zf_directions.singular": (per("zf_directions.singular", passes), "count/pass"),
        "schemes.zf_block.self_us_per_call": (self_us("schemes.zf_block"), "us"),
        "schemes.zf_simplified_select.us_per_call": (us_per_call("schemes.zf_simplified_select"), "us"),
        "quantization.quantize_directions.us_per_row":
            (summary["quantization.quantize_directions"]["total_ns"] / 1e3 / rows if rows else 0.0, "us"),
        "quantization.quantize_directions.calls":
            (calls("quantization.quantize_directions") / passes, "count/pass"),
        "quantization.quantize_cqi.us_per_call": (us_per_call("quantization.quantize_cqi"), "us"),
        "quantization.quantize_cqi.calls": (calls("quantization.quantize_cqi") / passes, "count/pass"),
        "quantization.build_orthosets_codebook.self_us_per_call":
            (self_us("quantization.build_orthosets_codebook"), "us"),
        "numerics.haar_orthonormal_sets.us_per_call": (us_per_call("numerics.haar_orthonormal_sets"), "us"),
        "schemes.pu2rc_block.self_us_per_call": (self_us("schemes.pu2rc_block"), "us"),
        "schemes.rbf_block.self_us_per_call": (self_us("schemes.rbf_block"), "us"),
        "schemes.subf_block.self_us_per_call": (self_us("schemes.subf_block"), "us"),
        "numerics.RngStream.generator.us_per_call": (us_per_call("numerics.RngStream.generator"), "us"),
        "channel.draw_block.us_per_call": (us_per_call("channel.draw_block"), "us"),
        "montecarlo.run_trial.self_us_per_call": (self_us("montecarlo.run_trial"), "us"),
        "montecarlo.run_point.self_ms": (self_us("montecarlo.run_point") / 1e3, "ms"),
        "analytic.zf_bopt_fixed_point.us_per_call": (us_per_call("analytic.zf_bopt_fixed_point"), "us"),
        "analytic.zf_bopt_lambert.us_per_call": (us_per_call("analytic.zf_bopt_lambert"), "us"),
    }
    for span in SPANS:
        self_ns = summary.get(span, {}).get("self_ns", 0)
        m[f"{span}.self_share"] = (self_ns / traced_ns if traced_ns else 0.0, "fraction")
    return m
