import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _bare_set_rates,
    _dependent,
    complex_gaussian,
    estimated_plan_rate,
    oracle_draw_block,
    oracle_zf_block,
    quantize_to_orthosets,
    zf_realized_sinr,
)
from fbsim import schemes
from fbsim.channel import ChannelModelConfig, ChannelRealization, draw_block, draw_blocks
from fbsim.numerics import RngStream, SingularSetError, haar_orthonormal_sets, zf_directions
from fbsim.quantization import (
    CqiQuantizerSpec,
    QuantizerSpec,
    build_orthosets_codebook,
    quantize_cqi,
    quantize_directions,
)
from fbsim.schemes import (
    FeedbackReport,
    TransmissionPlan,
    _orthoset_block,
    _zf_beams,
    _zf_select,
    _realized_rates,
    pu2rc_block,
    rbf_block,
    subf_block,
    zf_block,
    zf_blocks,
    zf_greedy_select,
    zf_simplified_select,
)


def _reports_from_draw(rng, n_users, nt, bits, snr):
    h = complex_gaussian(rng, (n_users, nt))
    dirs, sin2 = quantize_directions(h[None], QuantizerSpec("rvq_statistical", bits), [rng])
    dirs, sin2 = dirs[0], sin2[0]
    norms2 = np.linalg.norm(h, axis=1) ** 2
    return [
        FeedbackReport(user_id=k, direction=dirs[k], sin2_error=float(sin2[k]),
                       cqi=float(norms2[k]), cqi_kind="norm2")
        for k in range(n_users)
    ]


def _oracle_set_rate(reports, subset, snr):
    """Independent estimated-rate evaluation: explicit beamformers, direct formula."""
    dirs = np.array([reports[k].direction for k in subset])
    try:
        bfs = zf_directions(dirs)
    except SingularSetError:
        return -math.inf
    n = len(subset)
    total = 0.0
    for k, bf in zip(subset, bfs):
        proj = abs(np.vdot(reports[k].direction, bf)) ** 2
        total += math.log2(1.0 + (snr / n) * reports[k].cqi * proj)
    return total


def _oracle_best_rate(reports, snr, nt):
    best = -math.inf
    for size in range(1, nt + 1):
        for subset in itertools.combinations(range(len(reports)), size):
            best = max(best, _oracle_set_rate(reports, subset, snr))
    return best


class TestRealizedSinr:
    def test_orthogonal_case(self):
        h = np.array([1.0, 0.0], dtype=complex)
        own = np.array([1.0, 0.0], dtype=complex)
        other = [np.array([0.0, 1.0], dtype=complex)]
        assert abs(zf_realized_sinr(h, own, other, snr=10.0, n=2) - 5.0) < 1e-12

    def test_interference_case(self):
        h = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        own = np.array([1.0, 0.0], dtype=complex)
        other = [np.array([0.0, 1.0], dtype=complex)]
        # signal 5*0.5, interference 5*0.5
        expect = 2.5 / 3.5
        assert abs(zf_realized_sinr(h, own, other, snr=10.0, n=2) - expect) < 1e-12

    # three ZF beams; one beam (single-user beamforming); two users on a set of four
    # orthonormal beams, whose two idle beams still interfere (RBF/PU2RC)
    @pytest.mark.parametrize("users,m,zf", [(3, 3, True), (1, 1, False), (2, 4, False)])
    def test_batched_rates_match_scalar_evaluation(self, users, m, zf):
        rng = RngStream(0).generator()
        h = complex_gaussian(rng, (users, 4))
        if zf:
            bfs = zf_directions(complex_gaussian(rng, (m, 4)))
        else:
            bfs = haar_orthonormal_sets(rng, 4, 1)[0].T[:m]
        rates = _realized_rates(h, bfs, 10.0 / m)  # every beam at power snr/m
        assert rates.shape == (users,)
        for k in range(users):
            others = [bfs[j] for j in range(m) if j != k]
            sinr = zf_realized_sinr(h[k], bfs[k], others, 10.0, m)
            assert abs(rates[k] - math.log2(1.0 + sinr)) < 1e-12


class TestGreedySelection:
    def test_matches_exhaustive_search_on_average(self):
        snr, nt, users = 10.0, 2, 6
        ratios = []
        for trial in range(1000):
            rng = RngStream(1, trial).generator()
            reports = _reports_from_draw(rng, users, nt, bits=4, snr=snr)
            plan = zf_greedy_select(reports, snr, nt)
            got = estimated_plan_rate(reports, plan, snr, nt)
            best = _oracle_best_rate(reports, snr, nt)
            assert got <= best + 1e-9
            ratios.append(got / best)
        assert np.mean(ratios) >= 0.95

    def test_single_report(self):
        rng = RngStream(2).generator()
        reports = _reports_from_draw(rng, 1, 4, 8, 10.0)
        plan = zf_greedy_select(reports, 10.0, 4)
        assert plan.selected == [0]
        assert plan.power_per_user == 10.0

    def test_seed_user_is_largest_cqi(self):
        rng = RngStream(3).generator()
        reports = _reports_from_draw(rng, 8, 4, 8, 10.0)
        plan = zf_greedy_select(reports, 10.0, 4)
        top = max(range(8), key=lambda k: reports[k].cqi)
        assert top in plan.selected

    def test_duplicate_directions_collapse_to_one_user(self):
        rng = RngStream(4).generator()
        d = complex_gaussian(rng, 4)
        d /= np.linalg.norm(d)
        reports = [
            FeedbackReport(user_id=k, direction=d, sin2_error=0.1, cqi=4.0 - k, cqi_kind="norm2")
            for k in range(3)
        ]
        plan = zf_greedy_select(reports, 10.0, 4)
        assert plan.selected == [0]  # highest CQI, no second user helps

    def test_at_most_nt_users(self):
        rng = RngStream(5).generator()
        reports = _reports_from_draw(rng, 30, 4, 12, 10.0)
        plan = zf_greedy_select(reports, 10.0, 4)
        assert 1 <= len(plan.selected) <= 4
        np.testing.assert_allclose(np.linalg.norm(plan.beamformers, axis=1), 1.0, atol=1e-9)
        assert abs(plan.power_per_user - 10.0 / len(plan.selected)) < 1e-12


class TestSimplifiedSelection:
    def test_never_beats_greedy_estimate(self):
        snr, nt = 10.0, 4
        for trial in range(100):
            rng = RngStream(6, trial).generator()
            reports = _reports_from_draw(rng, 12, nt, 10, snr)
            g = zf_greedy_select(reports, snr, nt)
            s = zf_simplified_select(reports, snr, nt)
            rg = estimated_plan_rate(reports, g, snr, nt)
            rs = estimated_plan_rate(reports, s, snr, nt)
            assert rs <= rg + 1e-9

    @pytest.mark.parametrize("select", [zf_greedy_select, zf_simplified_select])
    def test_rate_tie_keeps_the_smaller_set(self, select):
        # orthogonal users, snr 2: log2(1 + 2) == log2(1 + 1) + log2(1 + 0.5) exactly
        reports = [FeedbackReport(user_id=k, direction=np.eye(2, dtype=complex)[k], sin2_error=0.0,
                                  cqi=c, cqi_kind="norm2") for k, c in enumerate((1.0, 0.5))]
        assert select(reports, 2.0, 2).selected == [0]

    def test_selected_are_top_cqi_prefix(self):
        rng = RngStream(7).generator()
        reports = _reports_from_draw(rng, 12, 4, 10, 10.0)
        plan = zf_simplified_select(reports, 10.0, 4)
        order = sorted(range(12), key=lambda k: -reports[k].cqi)
        assert sorted(plan.selected) == sorted(order[: len(plan.selected)])


def _perfect_realization(h):
    return ChannelRealization(h=h, h_est=h, h_delayed=h)


def _served_gram_inverse(dirs, selected, counts, m):
    """np.linalg.inv of each trial's served Gram matrix D_S D_S^H, zero-padded to (T, m, m)."""
    out = np.zeros((len(dirs), m, m), dtype=complex)
    for t, n in enumerate(counts):
        d = dirs[t, selected[t, :n]]
        out[t, :n, :n] = np.linalg.inv(d @ d.conj().T)
    return out


class TestZfBeams:
    @pytest.mark.parametrize("greedy", [True, False])
    def test_served_inverse_is_the_served_sets_own(self, greedy):
        # Low SNR stops greedy short of min(nt, K), and the best simplified prefix short of the
        # last one tried. Steps after the served count grow the working A, which the served copy
        # must not see. Continuous directions never meet the dependence rule, so simplified
        # tries every prefix; coarse feedback (scalar directions at B = 2-3, 2-bit CQI) has
        # exactly dependent users and exact CQI ties. A grows only by independent users, so
        # every served diagonal entry is positive.
        nt, users, trials = 4, 9, 50
        rng = RngStream(23).generator()
        dependent = {False: 0, True: 0}
        for i, snr in enumerate((0.3, 3.0, 30.0, 300.0)):
            for coarse in (False, True):
                h = complex_gaussian(rng, (trials, users, nt))
                if coarse:
                    dirs = quantize_directions(h, QuantizerSpec("scalar", 2 + i % 2), [None] * trials)[0]
                    cqi = quantize_cqi(np.linalg.norm(h, axis=-1) ** 2, CqiQuantizerSpec.around_mean(2, nt))
                else:
                    dirs = h / np.linalg.norm(h, axis=-1, keepdims=True)
                    cqi = rng.exponential(size=(trials, users))
                grams = dirs @ np.swapaxes(dirs, 1, 2).conj()
                dependent[coarse] += sum(_dependent(g, [0], k) for g in grams for k in range(1, users))
                selected, counts, served = _zf_select(dirs, cqi, snr, nt, greedy)
                assert np.any(counts < nt) and np.any(counts > 1)
                on = np.arange(nt) < counts[:, None]
                assert np.all(np.diagonal(served, axis1=1, axis2=2).real[on] > 0.0), (snr, coarse)
                want = _served_gram_inverse(dirs, selected, counts, nt)
                for t in range(trials):
                    err = np.linalg.norm(served[t] - want[t])
                    assert err <= 1e-12 * np.linalg.norm(want[t]), (snr, coarse, t)
        assert dependent[True] > 0 == dependent[False]


class TestCandidateScoring:
    """Every rate _estimated_rates_batched scores on its dense (trial, user) grid, against a
    fresh inverse of each candidate set's Gram sub-block (conftest's _bare_set_rates)."""

    @pytest.mark.parametrize("contiguous", [True, False])
    @pytest.mark.parametrize("greedy", [True, False])
    @pytest.mark.parametrize("kind,bits", [("rvq_statistical", 6), ("scalar", 2)])
    def test_every_candidate_matches_the_per_set_oracle(self, monkeypatch, kind, bits, greedy,
                                                        contiguous):
        # scalar quantization at 2 bits leaves few distinct directions: exactly dependent sets
        nt, users, trials, snr = 4, 12, 30, 10.0
        rngs = [RngStream(31, t).generator() for t in range(trials)]
        h = draw_blocks(ChannelModelConfig(nt=nt, num_users=users, snr=snr), rngs).h_est
        dirs = quantize_directions(h, QuantizerSpec(kind, bits), rngs)[0]
        if not contiguous:  # every other antenna slot of a wider buffer
            wide = np.zeros((trials, users, 2 * nt), dtype=complex)
            wide[..., ::2] = dirs
            dirs = wide[..., ::2]
        cqi = np.linalg.norm(h, axis=-1) ** 2
        calls, score = [], schemes._estimated_rates_batched

        def recording(cols, cand_sets, inv, selected, *rest):
            out = score(cols, cand_sets, inv, selected, *rest)
            calls.append((cand_sets, selected.copy(), out[0]))
            return out

        monkeypatch.setattr(schemes, "_estimated_rates_batched", recording)
        _zf_select(dirs, cqi, snr, nt, greedy)
        grams = dirs @ np.swapaxes(dirs, 1, 2).conj()
        # grid column k of trial t is user order[t, k]: simplified's grid holds only each
        # trial's top min(nt, K) users, in stable descending CQI order
        if greedy:
            order = np.tile(np.arange(users), (trials, 1))
        else:
            order = np.argsort(-cqi, axis=1, kind="stable")[:, :min(nt, users)]
        scored = dependent = 0
        for cand_sets, selected, rate in calls:
            assert rate.shape == order.shape
            cand = np.zeros(order.shape, dtype=bool)
            cand[cand_sets[:, 0], cand_sets[:, 1]] = True
            assert np.all(rate[~cand] == -np.inf)
            for t, k in cand_sets:
                s, c = [int(order[t, i]) for i in selected[t]], int(order[t, k])
                if _dependent(grams[t], s, c):
                    dependent += 1
                    assert rate[t, k] == -np.inf, (t, s, c)
                    continue
                want = _bare_set_rates(grams[t], [s + [c]], cqi[t], snr, len(s) + 1)[0]
                assert rate[t, k] == pytest.approx(want, rel=1e-12, abs=0.0), (t, s, c)
                scored += 1
        # step 0 serves the top CQI without the kernel: simplified's 2-bit scalar case scores 21
        assert scored > (100 if greedy else 20)
        assert (dependent > 0) == (kind == "scalar")


class TestZfBlock:
    def test_single_user_perfect_quantizer(self):
        rng = RngStream(8).generator()
        h = complex_gaussian(rng, (1, 4))
        out = zf_block(_perfect_realization(h), QuantizerSpec("perfect", 0),
                       "norm2", 10.0, 4)
        expect = math.log2(1.0 + 10.0 * np.linalg.norm(h[0]) ** 2)
        assert abs(out.sum_rate - expect) < 1e-9

    def test_orthogonal_users_no_interference(self):
        h = 2.0 * np.eye(4, dtype=complex)
        out = zf_block(_perfect_realization(h), QuantizerSpec("perfect", 0),
                       "norm2", 10.0, 4)
        assert sorted(out.plan.selected) == [0, 1, 2, 3]
        expect = 4 * math.log2(1.0 + (10.0 / 4) * 4.0)
        assert abs(out.sum_rate - expect) < 1e-9

    def test_rates_use_post_delay_channels(self):
        rng = RngStream(9).generator()
        h = complex_gaussian(rng, (1, 4))
        h_delayed = complex_gaussian(rng, (1, 4))
        real = ChannelRealization(h=h, h_est=h, h_delayed=h_delayed)
        out = zf_block(real, QuantizerSpec("perfect", 0), "norm2", 10.0, 4)
        u = h[0] / np.linalg.norm(h[0])
        expect = math.log2(1.0 + 10.0 * abs(np.vdot(h_delayed[0], u)) ** 2)
        assert abs(out.sum_rate - expect) < 1e-9

    @pytest.mark.parametrize("cqi_kind", ["norm2", "expected_sinr"])
    def test_cqi_kinds_run_and_agree_for_one_user(self, cqi_kind):
        rng = RngStream(10).generator()
        h = complex_gaussian(rng, (1, 4))
        out = zf_block(_perfect_realization(h), QuantizerSpec("perfect", 0),
                       cqi_kind, 10.0, 4)
        expect = math.log2(1.0 + 10.0 * np.linalg.norm(h[0]) ** 2)
        assert abs(out.sum_rate - expect) < 1e-9

    def test_selection_modes_and_quantized_cqi_smoke(self):
        from fbsim.quantization import CqiQuantizerSpec

        rng = RngStream(11).generator()
        cfg = ChannelModelConfig(nt=4, num_users=15, snr=10.0)
        real = draw_block(cfg, rng)
        spec = QuantizerSpec("rvq_statistical", 10)
        for selection in ("greedy", "simplified"):
            out = zf_block(real, spec, "norm2", 10.0, 4, selection=selection, rng=rng,
                           cqi_quantizer=CqiQuantizerSpec.around_mean(4, 4.0))
            assert out.sum_rate > 0.0
            assert np.all(out.realized_rates >= 0.0)

    def test_unknown_selection_rejected(self):
        rng = RngStream(12).generator()
        h = complex_gaussian(rng, (2, 4))
        with pytest.raises(ValueError):
            zf_block(_perfect_realization(h), QuantizerSpec("perfect", 0),
                     "norm2", 10.0, 4, selection="exhaustive")


# ZF blocks with perfect direction feedback: (seed, trials, users, nt, snr, selection, cqi_kind).
PERFECT_ZF_CASES = dict(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 4),
                        users=st.integers(1, 24), nt=st.integers(1, 6),
                        snr_db=st.floats(-10.0, 30.0), selection=st.sampled_from(["greedy", "simplified"]),
                        cqi_kind=st.sampled_from(["norm2", "expected_sinr"]))


def _perfect_zf_blocks(h_est, h_delayed, snr, selection, cqi_kind):
    nt = h_est.shape[-1]
    return zf_blocks(h_est, h_delayed, QuantizerSpec("perfect", 0), cqi_kind, snr, nt,
                     selection, [None] * len(h_est))


class TestZfProperties:
    @given(**PERFECT_ZF_CASES)
    @settings(max_examples=60, deadline=None)
    def test_perfect_feedback_leaves_no_interference(self, seed, trials, users, nt, snr_db,
                                                     selection, cqi_kind):
        snr = 10.0 ** (snr_db / 10.0)
        rngs = [RngStream(seed, t).generator() for t in range(trials)]
        block = draw_blocks(ChannelModelConfig(nt=nt, num_users=users, snr=snr), rngs)
        out = _perfect_zf_blocks(block.h_est, block.h_delayed, snr, selection, cqi_kind)
        for t in range(trials):
            h = block.h[t, out.selected[t, :out.counts[t]]]
            p = np.abs(h.conj() @ out.beamformers[t, :out.counts[t]].T) ** 2  # |h_j^H v_k|^2
            off = p[~np.eye(len(p), dtype=bool)]
            assert np.all(off <= 1e-9 * np.max(np.linalg.norm(h, axis=1) ** 2))

    @given(**PERFECT_ZF_CASES)
    @settings(max_examples=60, deadline=None)
    def test_perfect_csi_estimated_rate_is_the_realized_rate(self, seed, trials, users, nt, snr_db,
                                                             selection, cqi_kind):
        snr = 10.0 ** (snr_db / 10.0)
        rngs = [RngStream(seed, t).generator() for t in range(trials)]
        block = draw_blocks(ChannelModelConfig(nt=nt, num_users=users, snr=snr), rngs)
        out = _perfect_zf_blocks(block.h_est, block.h_delayed, snr, selection, cqi_kind)
        for t in range(trials):
            norms2 = np.linalg.norm(block.h[t], axis=1) ** 2
            cqi = norms2 if cqi_kind == "norm2" else (snr / nt) * norms2  # no quantization error
            reports = [FeedbackReport(user_id=k, direction=block.h[t, k] / math.sqrt(norms2[k]),
                                      sin2_error=0.0, cqi=float(cqi[k]), cqi_kind=cqi_kind)
                       for k in range(users)]
            n = int(out.counts[t])
            plan = TransmissionPlan(selected=[int(k) for k in out.selected[t, :n]],
                                    beamformers=out.beamformers[t, :n], power_per_user=snr / n)
            estimated, realized = estimated_plan_rate(reports, plan, snr, nt), out.sum_rates[t]
            assert estimated == pytest.approx(realized, rel=1e-9, abs=0.0)
            assert estimated >= realized * (1.0 - 1e-9)

    @given(**PERFECT_ZF_CASES, impaired=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_sum_rate_ignores_user_phases_and_antenna_order(self, seed, trials, users, nt, snr_db,
                                                            selection, cqi_kind, impaired):
        snr = 10.0 ** (snr_db / 10.0)
        rngs = [RngStream(seed, t).generator() for t in range(trials)]
        chan = ChannelModelConfig(nt=nt, num_users=users, snr=snr,
                                  beta=1.0 if impaired else None, r=0.9 if impaired else 1.0)
        block = draw_blocks(chan, rngs)
        rates = _perfect_zf_blocks(block.h_est, block.h_delayed, snr, selection, cqi_kind).sum_rates
        rng = RngStream(seed, trials).generator()
        phase = np.exp(2j * np.pi * rng.random((trials, users, 1)))
        rotated = _perfect_zf_blocks(phase * block.h_est, phase * block.h_delayed, snr, selection,
                                     cqi_kind).sum_rates
        perm = rng.permutation(nt)
        permuted = _perfect_zf_blocks(block.h_est[..., perm], block.h_delayed[..., perm], snr,
                                      selection, cqi_kind).sum_rates
        np.testing.assert_allclose(rotated, rates, rtol=0, atol=1e-9)
        np.testing.assert_allclose(permuted, rates, rtol=0, atol=1e-9)


# (quantizer, bits): scalar and explicit RVQ at B <= 6 give duplicate codewords.
ORACLE_QUANTIZERS = [("rvq_statistical", 10), ("idealized", 8), ("perfect", 0),
                     ("scalar", 3), ("scalar", 6), ("rvq_explicit", 2), ("rvq_explicit", 6)]
ORACLE_CASES = [
    (i, q, bits, selection, cqi_kind)
    for i, ((q, bits), selection, cqi_kind) in enumerate(itertools.product(
        ORACLE_QUANTIZERS, ("greedy", "simplified"), ("norm2", "expected_sinr")))
]
ORACLE_USERS = (1, 2, 3, 5, 9, 13, 30, 75)
ORACLE_TRIALS = 80  # 28 cases: 2240 trials


class TestBatchedZfAgainstPerTrialOracle:
    """The stacked engine picks the same users, in the same order, and realizes
    the same sum rates as the per-trial reference in conftest.py. On every
    trial where neither the tie rule nor the dependence rule changed a step,
    it also agrees with the bare per-trial path; continuous quantizers never
    meet either rule."""

    @staticmethod
    def _check(seed, trials, chan, spec, cqi_kind, selection, cqi_q):
        """Compare the engine with the oracle on `trials` streams; returns the trials a rule decided."""
        snr, nt = chan.snr, chan.nt
        streams = [RngStream(seed, t) for t in range(trials)]
        rngs = [s.generator() for s in streams]
        block = draw_blocks(chan, rngs)
        out = zf_blocks(block.h_est, block.h_delayed, spec, cqi_kind, snr, nt, selection, rngs, cqi_q)
        sum_rates = out.sum_rates
        ruled_trials = 0
        for t, stream in enumerate(streams):
            rng = stream.generator()
            (want_sel, want_rate), ruled, (bare_sel, bare_rate) = oracle_zf_block(
                oracle_draw_block(chan, rng), spec, cqi_kind, snr, nt, selection, rng, cqi_q)
            got_sel = list(out.selected[t, :out.counts[t]])
            assert got_sel == want_sel, f"trial {t}"
            assert abs(sum_rates[t] - want_rate) <= 1e-12, f"trial {t}"
            if not ruled:
                assert got_sel == bare_sel, f"trial {t}"
                assert abs(sum_rates[t] - bare_rate) <= 1e-12, f"trial {t}"
            ruled_trials += ruled
        return ruled_trials

    @pytest.mark.parametrize("case,quantizer,bits,selection,cqi_kind", ORACLE_CASES)
    def test_same_selection_and_sum_rates(self, case, quantizer, bits, selection, cqi_kind):
        nt = (2, 3, 4)[case % 3]
        users = ORACLE_USERS[case % len(ORACLE_USERS)]
        snr = (1.0, 10.0, 100.0)[case % 3 - 1]
        chan = ChannelModelConfig(nt=nt, num_users=users, snr=snr,
                                  beta=1.0 if case % 3 == 1 else None, r=0.95)
        cqi_q = None
        if case % 2:
            cqi_q = CqiQuantizerSpec.around_mean(3, nt if cqi_kind == "norm2" else snr)
        ruled = self._check(case, ORACLE_TRIALS, chan, QuantizerSpec(quantizer, bits), cqi_kind,
                            selection, cqi_q)
        if quantizer in ("rvq_statistical", "idealized", "perfect"):
            assert ruled == 0

    @pytest.mark.parametrize("selection", ["greedy", "simplified"])
    @pytest.mark.parametrize("quantizer,bits", [("scalar", 3), ("rvq_statistical", 4)])
    def test_high_snr_coarse_codebooks(self, quantizer, bits, selection):
        # At 50 dB selection serves its worst-conditioned sets, where the beams from the
        # selection's inverse Gram matrix and the SVD reference differ most.
        chan = ChannelModelConfig(nt=4, num_users=30, snr=1e5)
        ruled = self._check(1, ORACLE_TRIALS, chan, QuantizerSpec(quantizer, bits), "norm2",
                            selection, None)
        if quantizer == "rvq_statistical":
            assert ruled == 0

    def test_greedy_ties_on_a_coarse_codebook(self):
        # 3-bit scalar codebook, 2 antennas, 30 users and 3 CQI bits: many users share a
        # codeword up to phase and a CQI level, so greedy meets exact ties that the engine's
        # and the oracle's rounding would otherwise break differently.
        chan = ChannelModelConfig(nt=2, num_users=30, snr=10.0)
        self._check(0, 50, chan, QuantizerSpec("scalar", 3), "norm2", "greedy",
                    CqiQuantizerSpec.around_mean(3, 2.0))


class TestOrthosetSchemes:
    def test_identity_codebook_hand_example(self):
        h = np.array([[2.0, 0.0], [0.0, 1.5]], dtype=complex)
        cb = np.eye(2, dtype=complex)[None, :, :]
        out = _orthoset_block(_perfect_realization(h), cb, snr=10.0, nt=2)
        sinr0 = 4.0 / (2.0 / 10.0)
        sinr1 = 2.25 / (2.0 / 10.0)
        expect = math.log2(1 + sinr0) + math.log2(1 + sinr1)
        assert abs(out.sum_rate - expect) < 1e-9
        assert sorted(out.plan.selected) == [0, 1]
        assert out.extra["num_scheduled"] == 2

    def test_tie_break_prefers_lower_user_index(self):
        h = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        cb = np.eye(2, dtype=complex)[None, :, :]
        out = _orthoset_block(_perfect_realization(h), cb, snr=10.0, nt=2)
        assert out.plan.selected == [0]
        assert out.extra["num_scheduled"] == 1

    def test_rbf_equals_single_set_pu2rc(self):
        cfg = ChannelModelConfig(nt=4, num_users=20, snr=10.0)
        for trial in range(10):
            real = draw_block(cfg, RngStream(13, trial).generator())
            a = rbf_block(real, 10.0, 4, RngStream(14, trial).generator())
            b = pu2rc_block(real, 2, 10.0, 4, RngStream(14, trial).generator())
            assert a.sum_rate == b.sum_rate
            assert a.plan.selected == b.plan.selected
            np.testing.assert_array_equal(a.plan.beamformers, b.plan.beamformers)

    @pytest.mark.parametrize("bits,users", [(4, 75), (6, 50)])
    def test_scheduled_users_sit_on_their_quantized_codeword(self, bits, users):
        # Each scheduled user fed back the (set, beam) that maximizes |h_est^H w|^2
        # over the whole codebook, so it is served on that set and beam.
        cfg = ChannelModelConfig(nt=4, num_users=users, snr=10.0, beta=1.0)
        for trial in range(20):
            real = draw_block(cfg, RngStream(30 + bits, trial).generator())
            cb = build_orthosets_codebook(bits, 4, RngStream(40 + bits, trial).generator())
            out = _orthoset_block(real, cb, snr=10.0, nt=4)
            assert out.plan.selected
            for k, bf in zip(out.plan.selected, out.plan.beamformers):
                s, m, _ = quantize_to_orthosets(real.h_est[k], cb)
                assert s == out.extra["set_index"], f"trial {trial}, user {k}"
                np.testing.assert_array_equal(bf, cb[s][:, m])

    def test_pu2rc_uses_requested_codebook_size(self):
        cfg = ChannelModelConfig(nt=4, num_users=10, snr=10.0)
        real = draw_block(cfg, RngStream(15).generator())
        out = pu2rc_block(real, 6, 10.0, 4, RngStream(16).generator())
        assert 0 <= out.extra["set_index"] < 2**6 // 4
        assert out.plan.power_per_user == 10.0 / 4

    def test_rates_use_post_delay_channels(self):
        rng = RngStream(17).generator()
        h = complex_gaussian(rng, (4, 2))
        h_delayed = complex_gaussian(rng, (4, 2))
        real = ChannelRealization(h=h, h_est=h, h_delayed=h_delayed)
        cb = np.eye(2, dtype=complex)[None, :, :]
        out = _orthoset_block(real, cb, snr=10.0, nt=2)
        # recompute from the delayed channels directly
        for u, m, rate in zip(out.plan.selected,
                              range(len(out.plan.selected)), out.realized_rates):
            bf = out.plan.beamformers[m]
            sig = (10.0 / 2) * abs(np.vdot(h_delayed[u], bf)) ** 2
            tot = (10.0 / 2) * np.linalg.norm(h_delayed[u]) ** 2  # identity beams span all power
            sinr = sig / (1.0 + tot - sig)
            assert abs(rate - math.log2(1.0 + sinr)) < 1e-9


class TestSubf:
    def test_perfect_quantizer_picks_best_norm(self):
        h = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.5]], dtype=complex)
        out = subf_block(_perfect_realization(h), QuantizerSpec("perfect", 0), 10.0)
        assert out.plan.selected == [1]
        assert abs(out.sum_rate - math.log2(1.0 + 10.0 * 4.0)) < 1e-12
        assert out.plan.power_per_user == 10.0

    def test_rate_uses_post_delay_channel(self):
        rng = RngStream(18).generator()
        h = complex_gaussian(rng, (1, 4))
        h_delayed = complex_gaussian(rng, (1, 4))
        real = ChannelRealization(h=h, h_est=h, h_delayed=h_delayed)
        out = subf_block(real, QuantizerSpec("perfect", 0), 10.0)
        u = h[0] / np.linalg.norm(h[0])
        expect = math.log2(1.0 + 10.0 * abs(np.vdot(h_delayed[0], u)) ** 2)
        assert abs(out.sum_rate - expect) < 1e-12

    def test_quantized_direction_lowers_rate_on_average(self):
        cfg = ChannelModelConfig(nt=4, num_users=10, snr=10.0)
        diffs = []
        for trial in range(200):
            real = draw_block(cfg, RngStream(19, trial).generator())
            perfect = subf_block(real, QuantizerSpec("perfect", 0), 10.0)
            coarse = subf_block(real, QuantizerSpec("rvq_statistical", 2), 10.0,
                                rng=RngStream(20, trial).generator())
            diffs.append(perfect.sum_rate - coarse.sum_rate)
        assert np.mean(diffs) > 0.0
