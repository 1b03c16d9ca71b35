import math
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import complex_gaussian, oracle_draw_block
from fbsim import montecarlo
from fbsim.montecarlo import (
    SCHEMES,
    ExperimentConfig,
    FeedbackBudgetError,
    feasible_b_values,
    find_bopt_empirical,
    run_point,
    run_trial,
    sweep_b,
)
from fbsim.numerics import RngStream, rng_streams
from fbsim.quantization import EXPLICIT_RVQ_MAX_ENTRIES, QUANTIZER_KINDS, quantize_directions
from fbsim.schemes import SELECTIONS, ZF_CQI_KINDS


def _cfg(**kw):
    base = dict(scheme="zf", nt=4, snr_db=10.0, tfb=100, trials=64, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_snr_conversion(self):
        assert abs(_cfg(snr_db=10.0).snr - 10.0) < 1e-12
        assert abs(_cfg(snr_db=0.0).snr - 1.0) < 1e-12

    def test_users_for_strict_divisor(self):
        cfg = _cfg(tfb=100)
        assert cfg.users_for(20) == 5
        with pytest.raises(FeedbackBudgetError):
            cfg.users_for(30)

    def test_users_for_relaxed(self):
        cfg = _cfg(tfb=100, relaxed_user_grid=True)
        assert cfg.users_for(30) == 3

    def test_users_for_includes_cqi_bits(self):
        cfg = _cfg(tfb=300, cqi_bits=4)
        assert cfg.users_for(21) == 12  # 300 / (21 + 4)

    def test_budget_too_small(self):
        cfg = _cfg(tfb=10, relaxed_user_grid=True)
        with pytest.raises(FeedbackBudgetError):
            cfg.users_for(11)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            _cfg(scheme="dirty")

    def test_unknown_quantizer_rejected(self):
        with pytest.raises(ValueError, match="quantizer"):
            _cfg(quantizer="nope")

    def test_zero_antennas_rejected(self):
        with pytest.raises(ValueError, match="nt"):
            _cfg(nt=0)

    def test_correlation_above_one_rejected(self):
        with pytest.raises(ValueError, match="r must be"):
            _cfg(r=1.5)

    def test_nan_snr_rejected(self):
        with pytest.raises(ValueError, match="snr_db"):
            _cfg(snr_db=float("nan"))

    @pytest.mark.parametrize("kw", [dict(selection="exhaustive"), dict(cqi_kind="rbf_sinr"),
                                    dict(beta=-1.0), dict(beta=0.0), dict(r=-0.1),
                                    dict(snr_db=float("inf")), dict(seed=-1),
                                    # above the 3000 dB ceiling; 3074 dB overflowed inside a trial,
                                    # and 10^400 overflows a float
                                    dict(snr_db=3001.0), dict(snr_db=3074.0), dict(snr_db=4000.0),
                                    # a linear SNR of 10^-400 underflows to 0.0
                                    dict(snr_db=-4000.0)])
    def test_other_invalid_fields_rejected(self, kw):
        with pytest.raises(ValueError):
            _cfg(**kw)

    def test_snr_ceiling_is_accepted(self):
        assert _cfg(snr_db=3000.0).snr == 1e300

    # orthosets names PU2RC's codebook of sets, not a per-user quantizer
    @pytest.mark.parametrize("kind", ["magic", "orthosets"])
    @pytest.mark.parametrize("scheme", ["zf", "subf", "rbf", "pu2rc"])
    def test_unknown_quantizer_kind_rejected(self, scheme, kind):
        with pytest.raises(ValueError, match=f"unknown quantizer kind '{kind}'; known: "):
            _cfg(scheme=scheme, quantizer=kind)

    @pytest.mark.parametrize("kw", [dict(tfb=0), dict(tfb=-300), dict(cqi_bits=-1)])
    def test_budget_fields_out_of_range_rejected(self, kw):
        with pytest.raises(ValueError, match="tfb|cqi_bits"):
            _cfg(**kw)

    def test_b_value_past_the_budget_rejected_at_construction(self):
        # B=33 does not divide T_fb=300; B=10 before it must not run first
        with pytest.raises(FeedbackBudgetError, match="B=33"):
            _cfg(tfb=300, b_values=(10, 33))

    def test_pu2rc_b_value_needs_whole_orthonormal_sets(self):
        with pytest.raises(ValueError, match="2\\^B=16 is not divisible by nt=3"):
            _cfg(scheme="pu2rc", nt=3, tfb=300, b_values=(4,))

    # B = 15 (2^15 * 4 entries) is the first divisor of T_fb 300 past the bound at nt 4
    @pytest.mark.parametrize("b", [15, 25])
    @pytest.mark.parametrize("scheme", ["zf", "subf"])
    def test_explicit_rvq_past_its_cap_rejected_at_construction(self, scheme, b):
        with pytest.raises(FeedbackBudgetError, match=rf"rvq_explicit is capped at 2\^B\*nt = 32768 codebook "
                                                      rf"entries, got 2\^{b}\*4; use rvq_statistical"):
            _cfg(scheme=scheme, quantizer="rvq_explicit", tfb=300, b_values=(6, b))

    def test_rbf_ignores_the_explicit_rvq_cap(self):
        cfg = _cfg(scheme="rbf", quantizer="rvq_explicit", tfb=300, b_values=(6, 25))
        assert cfg.users_for(25) == 12

    @pytest.mark.parametrize("b", [0, -5])
    def test_b_value_below_one_rejected(self, b):
        with pytest.raises(ValueError, match="every B must be >= 1"):
            _cfg(b_values=(10, b))

    def test_zero_cqi_bits_means_none(self):
        assert _cfg(tfb=300, cqi_bits=0).users_for(20) == _cfg(tfb=300).users_for(20) == 15

    def test_zf_only_fields_are_free_for_other_schemes(self):
        assert _cfg(scheme="rbf", cqi_kind="rbf_sinr").cqi_kind == "rbf_sinr"

    def test_perfect_rx_csi_has_zero_error(self):
        assert _cfg(beta=None).estimation_error_var == 0.0

    def test_training_error_variance(self):
        assert abs(_cfg(beta=1.0, snr_db=10.0).estimation_error_var - 1.0 / 11.0) < 1e-15


class TestFeasibleGrid:
    def test_divisors_of_budget(self):
        got = feasible_b_values(_cfg(tfb=300))
        assert got == [2, 3, 4, 5, 6, 10, 12, 15, 20, 25, 30, 50, 60, 75]

    def test_relaxed_covers_all_integers(self):
        got = feasible_b_values(_cfg(tfb=20, relaxed_user_grid=True))
        assert got == [2, 3, 4, 5]

    def test_pu2rc_requires_whole_orthonormal_sets(self):
        got = feasible_b_values(_cfg(scheme="pu2rc", tfb=24, relaxed_user_grid=True))
        assert got == [2, 3, 4, 5, 6]  # 2^b divisible by 4 for all b >= 2

    @pytest.mark.parametrize("scheme,grid", [
        ("zf", [2, 3, 4, 5, 6, 10, 12]),
        ("subf", [2, 3, 4, 5, 6, 10, 12]),
        ("rbf", [2, 3, 4, 5, 6, 10, 12, 15, 20, 25, 30, 50, 60, 75]),
    ])
    def test_explicit_rvq_cap_bounds_the_grid(self, scheme, grid):
        assert feasible_b_values(_cfg(scheme=scheme, quantizer="rvq_explicit", tfb=300)) == grid

    # every B up to T_fb / nt, less those whose 2^B * nt codebook entries pass 2^15
    @pytest.mark.parametrize("scheme,nt,top", [("zf", 2, 14), ("zf", 3, 13), ("subf", 4, 13), ("zf", 8, 12),
                                               ("zf", 1, 15), ("rbf", 4, 30)])
    def test_explicit_rvq_cap_scales_with_nt(self, scheme, nt, top):
        cfg = _cfg(scheme=scheme, nt=nt, quantizer="rvq_explicit", tfb=120, relaxed_user_grid=True)
        assert feasible_b_values(cfg) == list(range(max(1, math.ceil(math.log2(nt))), top + 1))

    def test_cqi_bits_change_grid(self):
        got = feasible_b_values(_cfg(tfb=300, cqi_bits=4))
        assert got == [2, 6, 8, 11, 16, 21, 26, 46, 56, 71]

    @given(scheme=st.sampled_from(["zf", "rbf", "pu2rc", "subf"]), nt=st.integers(1, 8),
           tfb=st.integers(1, 500), cqi_bits=st.sampled_from([None, 0, 2, 4]),
           relaxed=st.booleans(), quantizer=st.sampled_from(QUANTIZER_KINDS))
    @settings(max_examples=100, deadline=None)
    def test_grid_is_every_b_the_config_accepts(self, scheme, nt, tfb, cqi_bits, relaxed, quantizer):
        cfg = _cfg(scheme=scheme, nt=nt, tfb=tfb, cqi_bits=cqi_bits, relaxed_user_grid=relaxed,
                   quantizer=quantizer)
        accepted = []
        for b in range(max(1, math.ceil(math.log2(nt))), tfb // nt + 1):
            try:
                replace(cfg, b_values=(b,))
            except ValueError:
                continue
            accepted.append(b)
        assert feasible_b_values(cfg) == accepted

    # Built here from the rules themselves, not through b_problem, so a rule
    # that the grid forgets makes the two sides disagree.
    @pytest.mark.parametrize("cqi_bits", [None, 4])
    @pytest.mark.parametrize("nt", [3, 4])
    @pytest.mark.parametrize("quantizer", QUANTIZER_KINDS)
    @pytest.mark.parametrize("scheme", ["zf", "rbf", "pu2rc", "subf"])
    def test_grid_is_every_b_a_trial_can_run_on(self, scheme, quantizer, nt, cqi_bits):
        cfg = _cfg(scheme=scheme, nt=nt, tfb=300, cqi_bits=cqi_bits, quantizer=quantizer)
        grid = feasible_b_values(cfg)
        for b in range(math.ceil(math.log2(nt)), cfg.tfb // nt + 1):
            explicit = quantizer == "rvq_explicit" and scheme in ("zf", "subf")
            runs = (cfg.tfb % (b + (cqi_bits or 0)) == 0  # B + CQI bits divide the budget
                    and not (explicit and 2**b * nt > EXPLICIT_RVQ_MAX_ENTRIES)  # the explicit scan's cap
                    and not (scheme == "pu2rc" and 2**b % nt))  # whole orthonormal sets of nt beams
            assert (b in grid) == runs
            if not runs:
                continue
            expensive = explicit or scheme == "pu2rc"
            if not (expensive and b > 12):
                assert math.isfinite(run_point(replace(cfg, trials=1), b).mean)

    # The explicit-RVQ and PU2RC points are capped in B to bound the time.
    # snr_db reaches past both ends of the accepted range: above the 3000 dB
    # ceiling and below about -3240 dB, where the linear SNR underflows to 0.
    @given(scheme=st.sampled_from(SCHEMES), nt=st.integers(1, 8), snr_db=st.floats(-4000.0, 4000.0),
           tfb=st.integers(0, 120), seed=st.integers(0, 2**64 - 1),
           quantizer=st.sampled_from(QUANTIZER_KINDS), cqi_kind=st.sampled_from(ZF_CQI_KINDS),
           selection=st.sampled_from(SELECTIONS), cqi_bits=st.sampled_from([None, 0, 1, 3]),
           beta=st.none() | st.floats(-1.0, 1e6), r=st.floats(-0.1, 1.1), relaxed=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_any_config_is_refused_or_runs_finite(self, scheme, nt, snr_db, tfb, seed, quantizer,
                                                  cqi_kind, selection, cqi_bits, beta, r, relaxed):
        try:
            cfg = ExperimentConfig(scheme=scheme, nt=nt, snr_db=snr_db, tfb=tfb, trials=2, seed=seed,
                                   quantizer=quantizer, cqi_kind=cqi_kind, selection=selection,
                                   cqi_bits=cqi_bits, beta=beta, r=r, relaxed_user_grid=relaxed)
        except ValueError:
            return
        cap = 8 if scheme == "pu2rc" else 10 if quantizer == "rvq_explicit" else math.inf
        b_values = tuple(b for b in feasible_b_values(cfg) if b <= cap)
        if b_values:
            for est in sweep_b(replace(cfg, b_values=b_values)):
                assert math.isfinite(est.mean) and math.isfinite(est.std_error)

    # beta * snr = 1e-17, 1e-20 and 1e-297: 1 + beta*snr rounds to 1, so the estimate would be 0
    @pytest.mark.parametrize("beta,snr_db", [(1.0, -170.0), (1e-10, -100.0), (1e3, -3000.0)])
    def test_training_too_weak_to_estimate_is_refused_at_construction(self, beta, snr_db):
        with pytest.raises(ValueError, match="too small to estimate the channel"):
            _cfg(snr_db=snr_db, beta=beta)

    def test_weak_training_runs_finite(self):
        assert math.isfinite(run_point(_cfg(snr_db=-150.0, beta=1.0, trials=4), 20).mean)

    def test_empty_grid_raises_in_sweep(self):
        cfg = _cfg(tfb=7, nt=4)
        with pytest.raises(FeedbackBudgetError):
            sweep_b(cfg)


# (B, config fields) per scheme for the chunking tests: one set or many,
# perfect CSI or training error and delay, both ZF selections (coarse simplified
# feedback has exactly dependent users and exact CQI ties), and every kind of
# subf quantizer.
CHUNK_CASES = {
    "zf": (20, dict()),
    "zf_simplified_scalar_cqi_bits": (3, dict(selection="simplified", quantizer="scalar", cqi_bits=2)),
    "zf_simplified_expected_sinr": (20, dict(selection="simplified", cqi_kind="expected_sinr",
                                             beta=1.0, r=0.9)),
    "rbf": (4, dict(scheme="rbf")),
    "pu2rc_one_set": (2, dict(scheme="pu2rc")),
    "pu2rc_16_sets_training_delay": (6, dict(scheme="pu2rc", tfb=300, beta=1.0, r=0.9)),
    "subf_scalar": (4, dict(scheme="subf", quantizer="scalar")),
    "subf_rvq_explicit": (4, dict(scheme="subf", quantizer="rvq_explicit", beta=1.0)),
}


# One small point per scheme for the CHUNK_ROWS property, with nt = 1 and the
# training/delay/CQI-quantization branch.
CHUNK_POINTS = {
    "zf_nt1": (4, dict(nt=1, tfb=20, quantizer="rvq_explicit")),
    "zf_training_delay_cqi_bits": (20, dict(tfb=125, cqi_bits=5, cqi_kind="expected_sinr",
                                            beta=1.0, r=0.9)),
    "zf_simplified_scalar": (3, dict(tfb=60, selection="simplified", quantizer="scalar", cqi_bits=2)),
    "rbf": (4, dict(scheme="rbf", tfb=40)),
    "pu2rc": (4, dict(scheme="pu2rc", tfb=40, beta=1.0, r=0.9)),
    "subf_nt1": (4, dict(scheme="subf", nt=1, tfb=20, quantizer="scalar")),
    "subf": (5, dict(scheme="subf", tfb=40, quantizer="idealized", r=0.9)),
}


class TestRunPoint:
    @pytest.mark.parametrize("case", list(CHUNK_CASES))
    def test_chunk_size_does_not_change_results(self, case, monkeypatch):
        b, kw = CHUNK_CASES[case]
        cfg = _cfg(trials=48, b_values=(b,), **kw)
        rows = cfg.trial_rows(b)
        a = run_point(cfg, b)
        monkeypatch.setattr(montecarlo, "CHUNK_ROWS", 1)  # one trial per chunk
        b1 = run_point(cfg, b)
        monkeypatch.setattr(montecarlo, "CHUNK_ROWS", 7 * rows)  # 7 trials per chunk
        c = run_point(cfg, b)
        assert a == b1 == c

    @given(case=st.sampled_from(list(CHUNK_POINTS)), chunk_rows=st.integers(1, 2**16))
    @example(case="zf_nt1", chunk_rows=1)
    @example(case="pu2rc", chunk_rows=2**16)
    @settings(max_examples=300, deadline=None)
    def test_any_chunk_rows_gives_the_same_estimate(self, case, chunk_rows):
        b, kw = CHUNK_POINTS[case]
        cfg = _cfg(trials=9, seed=5, **kw)
        want = run_point(cfg, b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "CHUNK_ROWS", chunk_rows)
            assert run_point(cfg, b) == want

    @pytest.mark.parametrize("b,kw", [
        (20, dict()),
        (4, dict(selection="simplified", quantizer="scalar")),
        (20, dict(tfb=125, cqi_bits=5, cqi_kind="expected_sinr", beta=1.0, r=0.9)),
        # at nt >= 8 NumPy sums a trial's zero-padded rate row in 8 lanes
        (24, dict(nt=8, tfb=240, snr_db=20.0)),
        (24, dict(nt=8, tfb=240, snr_db=20.0, selection="simplified")),
        *(CHUNK_CASES[c] for c in CHUNK_CASES if c != "zf"),
    ], ids=["greedy", "simplified_scalar", "cqi_bits_training", "nt8_greedy", "nt8_simplified",
            *(c for c in CHUNK_CASES if c != "zf")])
    def test_chunk_boundary_matches_run_trial(self, b, kw):
        cfg = _cfg(**kw)
        # one full chunk and one trial more
        trials = montecarlo.CHUNK_ROWS // cfg.trial_rows(b) + 1
        cfg = _cfg(trials=trials, seed=3, **kw)
        per_trial = np.array([run_trial(cfg, b, RngStream(3, 7 + t)) for t in range(trials)])
        est = run_point(cfg, b, stream_offset=7)
        assert est.mean == float(per_trial.mean())
        assert est.std_error == float(per_trial.std(ddof=1) / math.sqrt(trials))

    @staticmethod
    def _poison(monkeypatch, trials, value):
        """Make the chunk runner return `value` for the point's trials at the given indices."""
        chunk, seen = montecarlo._trial_chunk, [0]

        def poisoned(cfg, b, rngs):
            out = chunk(cfg, b, rngs)
            first, seen[0] = seen[0], seen[0] + len(out)
            for t in trials:
                if first <= t < seen[0]:
                    out[t - first] = value
            return out

        monkeypatch.setattr(montecarlo, "_trial_chunk", poisoned)

    def test_non_finite_zf_rate_names_its_stream(self, monkeypatch):
        cfg = _cfg(trials=16)
        # chunks of 4 trials; stream 9 is in the second
        monkeypatch.setattr(montecarlo, "CHUNK_ROWS", 4 * cfg.trial_rows(20))
        self._poison(monkeypatch, [7], np.nan)  # stream 2 + 7
        with pytest.raises(ValueError, match=r"B=20 on stream \(seed=0, stream_id=9\)"):
            run_point(cfg, 20, stream_offset=2)

    def test_non_finite_trial_rate_names_its_stream(self, monkeypatch):
        self._poison(monkeypatch, [4, 6], math.inf)
        with pytest.raises(ValueError, match=r"B=20 on stream \(seed=0, stream_id=4\)"):
            run_point(_cfg(scheme="subf", trials=8), 20)

    def test_deterministic_across_calls(self):
        cfg = _cfg(trials=32)
        a = run_point(cfg, 10)
        b = run_point(cfg, 10)
        assert a == b

    def test_stream_offset_changes_draws(self):
        cfg = _cfg(trials=32)
        a = run_point(cfg, 10, stream_offset=0)
        b = run_point(cfg, 10, stream_offset=32)
        assert a.mean != b.mean

    def test_standard_error_scales_with_trials(self):
        small = run_point(_cfg(trials=256), 20)
        large = run_point(_cfg(trials=1024), 20)
        ratio = small.std_error / large.std_error
        assert 1.5 < ratio < 2.5  # expect ~2 for 4x the trials

    def test_estimate_metadata(self):
        est = run_point(_cfg(trials=16), 20)
        assert est.b == 20 and est.users == 5 and est.trials == 16
        assert est.mean > 0 and est.std_error > 0


# Every direction quantizer on every channel model. B sets the user count at
# tfb=60 (relaxed grid): 30 users at B=2, 5 at B=11, 3 at B=16.
STACK_QUANTIZERS = [("perfect", 10), ("rvq_statistical", 10), ("idealized", 8), ("rvq_explicit", 2),
                    ("rvq_explicit", 6), ("rvq_explicit", 11), ("scalar", 3), ("scalar", 6),
                    ("scalar", 16)]
CHANNEL_MODELS = {"perfect_csi": dict(), "training": dict(beta=1.0), "delay": dict(r=0.9),
                  "training_delay": dict(beta=0.5, r=0.95, cqi_bits=3)}


def _recording(fn, outcomes):
    def recorded(*args, **kwargs):
        outcomes.append(fn(*args, **kwargs))
        return outcomes[-1]
    return recorded


class TestStackedDrawsAcrossChunks:
    """run_point draws each chunk's trials into shared buffers; every trial
    must still get the users and the sum rate run_trial gives its stream."""

    @pytest.mark.parametrize("channel", list(CHANNEL_MODELS))
    @pytest.mark.parametrize("quantizer,b", STACK_QUANTIZERS)
    def test_chunked_trials_equal_run_trial(self, quantizer, b, channel, monkeypatch):
        selection = "simplified" if channel in ("training", "delay") else "greedy"
        cfg = _cfg(tfb=60, relaxed_user_grid=True, trials=7, seed=11, quantizer=quantizer,
                   selection=selection, cqi_kind="expected_sinr", **CHANNEL_MODELS[channel])
        chunks, singles = [], []
        for name, outcomes in (("zf_blocks", chunks), ("zf_block", singles)):
            monkeypatch.setattr(montecarlo, name, _recording(getattr(montecarlo, name), outcomes))
        monkeypatch.setattr(montecarlo, "CHUNK_ROWS", 3 * cfg.trial_rows(b))  # chunks of 3, 3 and 1 trials
        est = run_point(cfg, b, stream_offset=5)
        per_trial = np.array([run_trial(cfg, b, RngStream(11, 5 + t)) for t in range(7)])

        assert [len(c.counts) for c in chunks] == [3, 3, 1]
        got_users = [list(c.selected[t, :c.counts[t]]) for c in chunks for t in range(len(c.counts))]
        assert got_users == [list(s.selected[0, :s.counts[0]]) for s in singles]
        got = np.concatenate([c.sum_rates for c in chunks])
        if quantizer == "scalar":
            np.testing.assert_allclose(got, per_trial, rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(got, per_trial)
            assert est.mean == float(per_trial.mean())
            assert est.std_error == float(per_trial.std(ddof=1) / math.sqrt(7))


def _chunk_peak(cfg, b, trials):
    """Traced peak bytes of one warm chunk of `trials` trials at B."""
    montecarlo._trial_chunk(cfg, b, list(rng_streams(cfg.seed, 0, trials)))
    rngs = list(rng_streams(cfg.seed, 0, trials))
    tracemalloc.start()
    try:
        montecarlo._trial_chunk(cfg, b, rngs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkMemory:
    """At the default chunk rule, each scheme's largest chunk on a benchmark
    point (nt 4, T_fb 300, 100 trials) needs no more memory than the one
    trial a PU2RC B=12 chunk holds, and neither does one explicit-RVQ row's
    scan at the largest B the config accepts. The bound is measured in the
    same run, so no NumPy version's byte counts are written into the test."""

    def test_chunk_peaks_stay_within_one_pu2rc_b12_trial(self):
        point = dict(nt=4, tfb=300, trials=100)
        bound = _chunk_peak(_cfg(scheme="pu2rc", **point), 12, 1)
        peaks = {}
        # the benchmark's explicit-RVQ points, behind simplified ZF with CQI bits and impaired CSI
        explicit = dict(quantizer="rvq_explicit", selection="simplified", cqi_bits=4, beta=1.0, r=0.95)
        for name, b, kw in [("zf_greedy", 4, dict(scheme="zf")), ("subf", 5, dict(scheme="subf", snr_db=0.0)),
                            ("rbf", 2, dict(scheme="rbf", snr_db=0.0)), ("pu2rc", 6, dict(scheme="pu2rc")),
                            ("zf_rvq_explicit", 6, explicit), ("zf_rvq_explicit", 11, explicit)]:
            cfg = _cfg(**point, **kw)
            trials = min(cfg.trials, montecarlo.CHUNK_ROWS // cfg.trial_rows(b))
            peaks[f"{name} B={b} ({trials} trials)"] = _chunk_peak(cfg, b, trials)
        assert all(peak <= bound for peak in peaks.values()), (bound, peaks)

    def test_one_explicit_row_at_the_cap_stays_within_one_pu2rc_b12_trial(self):
        bound = _chunk_peak(_cfg(scheme="pu2rc", nt=4, tfb=300, trials=100), 12, 1)
        peaks = {}
        for nt in (2, 4, 8):
            b = max(feasible_b_values(_cfg(nt=nt, quantizer="rvq_explicit", tfb=120, relaxed_user_grid=True)))
            assert 2**b * nt == EXPLICIT_RVQ_MAX_ENTRIES
            h = complex_gaussian(RngStream(60, nt).generator(), (1, 1, nt))
            quantize_directions(h, "rvq_explicit", b, [RngStream(61).generator()])
            tracemalloc.start()
            try:
                quantize_directions(h, "rvq_explicit", b, [RngStream(61).generator()])
                peaks[f"nt {nt} B={b}"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert all(peak <= bound for peak in peaks.values()), (bound, peaks)


# Run in a fresh interpreter: minor faults per trial of 3 warm 100-trial run_point calls
# at each point, after one call that warms the point.
_FAULT_PROBE = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from fbsim.montecarlo import ExperimentConfig, run_point
for scheme, b in [("zf", 4), ("rbf", 2), ("subf", 5), ("pu2rc", 4), ("pu2rc", 10)]:
    cfg = ExperimentConfig(scheme=scheme, nt=4, snr_db=10.0, tfb=300, trials=100, seed=3)
    run_point(cfg, b)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for i in range(1, 4):
        run_point(cfg, b, stream_offset=100 * i)
    print(scheme, b, (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 300)
"""


class TestWarmChunksKeepTheHeapMapped:
    """A chunk's freed heap stays mapped for the next chunk: warm chunks take no minor
    faults. The probe runs in a fresh process, because an earlier allocation in this
    one may already have raised glibc's trim threshold."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's trim threshold")
    def test_warm_chunks_take_no_minor_faults(self):
        src = str(Path(montecarlo.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", _FAULT_PROBE, src], capture_output=True,
                             text=True, check=True).stdout
        per_trial = {f"{scheme} B={b}": float(f) for scheme, b, f in map(str.split, out.splitlines())}
        assert len(per_trial) == 5 and all(f <= 0.1 for f in per_trial.values()), per_trial


class TestSchemesThroughEngine:
    @pytest.mark.parametrize("scheme,b", [("zf", 20), ("rbf", 4), ("pu2rc", 4), ("subf", 20)])
    def test_each_scheme_produces_finite_rates(self, scheme, b):
        cfg = _cfg(scheme=scheme, trials=8, relaxed_user_grid=True)
        r = run_trial(cfg, b, RngStream(0, 0))
        assert math.isfinite(r) and r >= 0.0

    # zf at 0 dB: greedy stops short of min(nt, K); rbf and pu2rc with 3 users on 4 beams
    @pytest.mark.parametrize("scheme,b,kw", [
        ("zf", 20, dict(snr_db=0.0)),
        ("rbf", 4, dict(scheme="rbf", tfb=12)), ("pu2rc", 4, dict(scheme="pu2rc", tfb=12)),
        ("subf", 20, dict(scheme="subf"))])
    def test_blocks_are_padded_past_each_count(self, scheme, b, kw, monkeypatch):
        # every kernel pads its Blocks one way: user 0, zero beams and zero rates past counts[t]
        kernel = {"rbf": "orthoset_blocks", "pu2rc": "orthoset_blocks", "subf": "subf_blocks"}
        name = kernel.get(scheme, "zf_blocks")
        outs = []
        monkeypatch.setattr(montecarlo, name, _recording(getattr(montecarlo, name), outs))
        run_point(_cfg(trials=40, **kw), b)
        counts = np.concatenate([o.counts for o in outs])
        m = 1 if scheme == "subf" else 4
        assert all(o.selected.shape[1] == m for o in outs)
        assert counts.min() >= 1 and (scheme == "subf" or np.any(counts < m))
        for o in outs:
            past = np.arange(m) >= o.counts[:, None]
            assert not o.selected[past].any()
            assert not o.beamformers[past].any()
            assert not o.realized_rates[past].any()
            assert np.all(o.realized_rates[~past] > 0.0)

    def test_quantizer_variants_run(self):
        for quant in ("rvq_statistical", "rvq_explicit", "scalar", "idealized", "perfect"):
            cfg = _cfg(trials=4, quantizer=quant)
            assert run_trial(cfg, 10, RngStream(1, 0)) > 0.0

    @pytest.mark.parametrize("scheme,quantizer", [("zf", "rvq_statistical"), ("zf", "idealized"),
                                                  ("subf", "rvq_statistical")])
    def test_single_antenna_rates_are_finite(self, scheme, quantizer):
        est = run_point(_cfg(scheme=scheme, nt=1, tfb=20, trials=5, quantizer=quantizer), 4)
        assert math.isfinite(est.mean) and est.mean > 0.0

    @pytest.mark.parametrize("kw", [dict(), dict(cqi_kind="expected_sinr"), dict(scheme="subf")],
                             ids=["zf", "zf_expected_sinr", "subf"])
    def test_single_antenna_quantizers_agree(self, kw):
        # at nt = 1 every quantizer feeds back the exact direction and draws nothing
        trials = 20
        cfgs = [_cfg(nt=1, tfb=20, trials=trials, quantizer=q, **kw) for q in QUANTIZER_KINDS]
        rates = [montecarlo._trial_chunk(c, 4, list(rng_streams(0, 0, trials))) for c in cfgs]
        for cfg, got in zip(cfgs, rates):
            np.testing.assert_array_equal(got, rates[0])
            per_trial = [run_trial(cfg, 4, RngStream(0, t)) for t in range(trials)]
            np.testing.assert_array_equal(got, per_trial)
        ests = [run_point(c, 4) for c in cfgs]
        assert all(e == ests[0] for e in ests)

    def test_training_and_delay_reduce_rate(self):
        base = run_point(_cfg(trials=400), 20)
        worse = run_point(_cfg(trials=400, beta=1.0, r=0.9), 20)
        assert worse.mean < base.mean

    def test_training_and_delay_reach_the_draw(self, monkeypatch):
        blocks = []
        monkeypatch.setattr(montecarlo, "draw_blocks", _recording(montecarlo.draw_blocks, blocks))
        montecarlo._trial_chunk(_cfg(beta=1.0, r=0.9), 20, list(rng_streams(0, 0, 3)))
        for t, rng in enumerate(rng_streams(0, 0, 3)):
            # 5 users at B=20; one pilot per antenna at 10 dB leaves an error variance of 1/11
            want = oracle_draw_block(rng, 5, 4, 1.0 / 11.0, 0.9)
            for name in ("h", "h_est", "h_delayed"):
                np.testing.assert_array_equal(getattr(blocks[0], name)[t], getattr(want, name))


class TestSweep:
    def test_disjoint_streams_by_default(self):
        cfg = _cfg(trials=16, b_values=(10, 20))
        ests = sweep_b(cfg)
        assert [e.b for e in ests] == [10, 20]
        # same B evaluated at the offsets used by the sweep
        assert ests[1] == run_point(cfg, 20, stream_offset=16)

    def test_common_streams_reuse_trials(self):
        cfg = _cfg(trials=16, b_values=(10, 20))
        ests = sweep_b(cfg, common_streams=True)
        assert ests[1] == run_point(cfg, 20, stream_offset=0)

    def test_find_bopt_reports_gap(self):
        cfg = _cfg(trials=64, b_values=(4, 10, 20))
        b_opt, est, gap = find_bopt_empirical(cfg)
        assert b_opt in (4, 10, 20)
        assert est.b == b_opt
        assert gap > 0.0

    def test_find_bopt_single_point(self):
        cfg = _cfg(trials=16, b_values=(20,))
        b_opt, _, gap = find_bopt_empirical(cfg)
        assert b_opt == 20 and math.isinf(gap)
