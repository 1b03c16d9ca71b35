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
    oracle_orthoset_block,
    oracle_zf_block,
    quantize_to_orthosets,
    zf_realized_sinr,
)
from fbsim import schemes
from fbsim.channel import ChannelRealization, draw_block, draw_blocks
from fbsim.numerics import (RngStream, SingularSetError, haar_orthonormal_sets, haar_orthonormal_stack,
                            zf_directions)
from fbsim.quantization import (
    QUANTIZER_KINDS,
    build_orthosets_codebook,
    quantize_cqi,
    quantize_directions,
)
from fbsim.schemes import (
    TransmissionPlan,
    _zf_select,
    _realized_rates,
    orthoset_blocks,
    pu2rc_block,
    rbf_block,
    subf_block,
    zf_block,
    zf_blocks,
    zf_greedy_select,
    zf_simplified_select,
)


def _feedback_from_draw(rng, n_users, nt, bits):
    """One block's statistical-RVQ directions (K, nt) and norm2 CQI (K,) of fresh channels."""
    h = complex_gaussian(rng, (n_users, nt))
    dirs = quantize_directions(h[None], "rvq_statistical", bits, [rng])[0][0]
    return dirs, np.linalg.norm(h, axis=1) ** 2


def _oracle_set_rate(dirs, cqi, subset, snr):
    """Independent estimated-rate evaluation: explicit beamformers, direct formula."""
    try:
        bfs = zf_directions(dirs[list(subset)])
    except SingularSetError:
        return -math.inf
    n = len(subset)
    total = 0.0
    for k, bf in zip(subset, bfs):
        proj = abs(np.vdot(dirs[k], bf)) ** 2
        total += math.log2(1.0 + (snr / n) * cqi[k] * proj)
    return total


def _oracle_best_rate(dirs, cqi, snr, nt):
    best = -math.inf
    for size in range(1, nt + 1):
        for subset in itertools.combinations(range(len(dirs)), size):
            best = max(best, _oracle_set_rate(dirs, cqi, subset, snr))
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
            dirs, cqi = _feedback_from_draw(rng, users, nt, bits=4)
            plan = zf_greedy_select(dirs, cqi, nt, snr, "norm2")
            got = estimated_plan_rate(dirs, cqi, "norm2", plan, snr, nt)
            best = _oracle_best_rate(dirs, cqi, snr, nt)
            assert got <= best + 1e-9
            ratios.append(got / best)
        assert np.mean(ratios) >= 0.95

    def test_single_report(self):
        rng = RngStream(2).generator()
        dirs, cqi = _feedback_from_draw(rng, 1, 4, 8)
        plan = zf_greedy_select(dirs, cqi, 4, 10.0, "norm2")
        assert list(plan.selected) == [0]

    def test_seed_user_is_largest_cqi(self):
        rng = RngStream(3).generator()
        dirs, cqi = _feedback_from_draw(rng, 8, 4, 8)
        plan = zf_greedy_select(dirs, cqi, 4, 10.0, "norm2")
        assert np.argmax(cqi) in plan.selected

    def test_duplicate_directions_collapse_to_one_user(self):
        rng = RngStream(4).generator()
        d = complex_gaussian(rng, 4)
        d /= np.linalg.norm(d)
        plan = zf_greedy_select(np.tile(d, (3, 1)), 4.0 - np.arange(3), 4, 10.0, "norm2")
        assert list(plan.selected) == [0]  # highest CQI, no second user helps

    def test_at_most_nt_users(self):
        rng = RngStream(5).generator()
        dirs, cqi = _feedback_from_draw(rng, 30, 4, 12)
        plan = zf_greedy_select(dirs, cqi, 4, 10.0, "norm2")
        assert 1 <= len(plan.selected) <= 4
        assert plan.beamformers.shape == (len(plan.selected), 4)
        np.testing.assert_allclose(np.linalg.norm(plan.beamformers, axis=1), 1.0, atol=1e-9)


class TestSimplifiedSelection:
    def test_never_beats_greedy_estimate(self):
        snr, nt = 10.0, 4
        for trial in range(100):
            rng = RngStream(6, trial).generator()
            dirs, cqi = _feedback_from_draw(rng, 12, nt, 10)
            g = zf_greedy_select(dirs, cqi, nt, snr, "norm2")
            s = zf_simplified_select(dirs, cqi, nt, snr, "norm2")
            rg = estimated_plan_rate(dirs, cqi, "norm2", g, snr, nt)
            rs = estimated_plan_rate(dirs, cqi, "norm2", s, snr, nt)
            assert rs <= rg + 1e-9

    @pytest.mark.parametrize("select", [zf_greedy_select, zf_simplified_select])
    def test_rate_tie_keeps_the_smaller_set(self, select):
        # orthogonal users, snr 2: log2(1 + 2) == log2(1 + 1) + log2(1 + 0.5) exactly
        assert list(select(np.eye(2, dtype=complex), np.array([1.0, 0.5]), 2, 2.0, "norm2").selected) == [0]

    def test_selected_are_top_cqi_prefix(self):
        rng = RngStream(7).generator()
        dirs, cqi = _feedback_from_draw(rng, 12, 4, 10)
        plan = zf_simplified_select(dirs, cqi, 4, 10.0, "norm2")
        order = sorted(range(12), key=lambda k: -cqi[k])
        assert sorted(plan.selected) == sorted(order[: len(plan.selected)])


def _perfect_realization(h):
    return ChannelRealization(h=h, h_est=h, h_delayed=h)


def _served(out):
    """The users a one-trial Blocks serves, in beam order."""
    return list(out.selected[0, :out.counts[0]])


def _orthoset_block(realization, codebook, snr, nt):
    """orthoset_blocks on one block, with its codebook (S, nt, nt)."""
    return orthoset_blocks(realization.h_est[None], realization.h_delayed[None], codebook[None], snr, nt)


def _served_gram_inverse(dirs, selected, counts, m):
    """np.linalg.inv of each trial's served Gram matrix D_S D_S^H, zero-padded to (T, m, m)."""
    out = np.zeros((len(dirs), m, m), dtype=complex)
    for t, n in enumerate(counts):
        d = dirs[t, selected[t, :n]]
        out[t, :n, :n] = np.linalg.inv(d @ d.conj().T)
    return out


class TestZfBeams:
    @pytest.mark.parametrize("greedy", [True, False])
    def test_beams_are_the_served_sets_own(self, greedy):
        # Low SNR stops greedy short of min(nt, K), and the best simplified prefix short of the
        # last one tried. Steps after the served count grow the working A, which the served
        # beams must not see. Continuous directions never meet the dependence rule, so simplified
        # tries every prefix; coarse feedback (scalar directions at B = 2-3, 2-bit CQI) has
        # exactly dependent users and exact CQI ties. Beam k is row k of the served set's
        # inverse Gram matrix times D_S, normalized; rows past the count are zero.
        nt, users, trials = 4, 9, 50
        rng = RngStream(23).generator()
        dependent = {False: 0, True: 0}
        for i, snr in enumerate((0.3, 3.0, 30.0, 300.0)):
            for coarse in (False, True):
                h = complex_gaussian(rng, (trials, users, nt))
                if coarse:
                    dirs = quantize_directions(h, "scalar", 2 + i % 2, [None] * trials)[0]
                    cqi = quantize_cqi(np.linalg.norm(h, axis=-1) ** 2, 2, nt)
                else:
                    dirs = h / np.linalg.norm(h, axis=-1, keepdims=True)
                    cqi = rng.exponential(size=(trials, users))
                grams = dirs @ np.swapaxes(dirs, 1, 2).conj()
                dependent[coarse] += sum(_dependent(g, [0], k) for g in grams for k in range(1, users))
                selected, counts, beams = _zf_select(dirs, cqi, snr, nt, greedy)
                assert np.any(counts < nt) and np.any(counts > 1)
                on = np.arange(nt) < counts[:, None]
                np.testing.assert_allclose(np.linalg.norm(beams, axis=2)[on], 1.0, rtol=1e-12)
                assert np.all(beams[~on] == 0.0), (snr, coarse)
                inv = _served_gram_inverse(dirs, selected, counts, nt)
                for t, n in enumerate(counts):
                    v = inv[t, :n, :n] @ dirs[t, selected[t, :n]]
                    want = v / np.linalg.norm(v, axis=1, keepdims=True)
                    err = np.linalg.norm(beams[t, :n] - want)
                    assert err <= 1e-12 * np.linalg.norm(want), (snr, coarse, t)
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
        h = draw_blocks(rngs, users, nt).h_est
        dirs = quantize_directions(h, kind, bits, rngs)[0]
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
            cand.flat[cand_sets] = True
            assert np.all(rate[~cand] == -np.inf)
            for t, k in zip(*np.unravel_index(cand_sets, order.shape)):
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
        out = zf_block(_perfect_realization(h), "perfect", 0, "norm2", 10.0, 4)
        expect = math.log2(1.0 + 10.0 * np.linalg.norm(h[0]) ** 2)
        assert abs(out.sum_rates[0] - expect) < 1e-9

    def test_orthogonal_users_no_interference(self):
        h = 2.0 * np.eye(4, dtype=complex)
        out = zf_block(_perfect_realization(h), "perfect", 0, "norm2", 10.0, 4)
        assert sorted(_served(out)) == [0, 1, 2, 3]
        expect = 4 * math.log2(1.0 + (10.0 / 4) * 4.0)
        assert abs(out.sum_rates[0] - expect) < 1e-9

    def test_rates_use_post_delay_channels(self):
        rng = RngStream(9).generator()
        h = complex_gaussian(rng, (1, 4))
        h_delayed = complex_gaussian(rng, (1, 4))
        real = ChannelRealization(h=h, h_est=h, h_delayed=h_delayed)
        out = zf_block(real, "perfect", 0, "norm2", 10.0, 4)
        u = h[0] / np.linalg.norm(h[0])
        expect = math.log2(1.0 + 10.0 * abs(np.vdot(h_delayed[0], u)) ** 2)
        assert abs(out.sum_rates[0] - expect) < 1e-9

    @pytest.mark.parametrize("cqi_kind", ["norm2", "expected_sinr"])
    def test_cqi_kinds_run_and_agree_for_one_user(self, cqi_kind):
        rng = RngStream(10).generator()
        h = complex_gaussian(rng, (1, 4))
        out = zf_block(_perfect_realization(h), "perfect", 0, cqi_kind, 10.0, 4)
        expect = math.log2(1.0 + 10.0 * np.linalg.norm(h[0]) ** 2)
        assert abs(out.sum_rates[0] - expect) < 1e-9

    def test_selection_modes_and_quantized_cqi_smoke(self):
        rng = RngStream(11).generator()
        real = draw_block(rng, 15, 4)
        for selection in ("greedy", "simplified"):
            out = zf_block(real, "rvq_statistical", 10, "norm2", 10.0, 4, selection=selection, rng=rng,
                           cqi_bits=4)
            assert out.sum_rates[0] > 0.0
            assert np.all(out.realized_rates >= 0.0)

    def test_unknown_selection_rejected(self):
        rng = RngStream(12).generator()
        h = complex_gaussian(rng, (2, 4))
        with pytest.raises(ValueError):
            zf_block(_perfect_realization(h), "perfect", 0, "norm2", 10.0, 4, selection="exhaustive")


# ZF blocks with perfect direction feedback: (seed, trials, users, nt, snr, selection, cqi_kind).
PERFECT_ZF_CASES = dict(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 4),
                        users=st.integers(1, 24), nt=st.integers(1, 6),
                        snr_db=st.floats(-10.0, 30.0), selection=st.sampled_from(["greedy", "simplified"]),
                        cqi_kind=st.sampled_from(["norm2", "expected_sinr"]))


def _perfect_zf_blocks(h_est, h_delayed, snr, selection, cqi_kind):
    nt = h_est.shape[-1]
    return zf_blocks(h_est, h_delayed, "perfect", 0, cqi_kind, snr, nt,
                     selection, [None] * len(h_est))


class TestZfProperties:
    @given(**PERFECT_ZF_CASES)
    @settings(max_examples=60, deadline=None)
    def test_perfect_feedback_leaves_no_interference(self, seed, trials, users, nt, snr_db,
                                                     selection, cqi_kind):
        snr = 10.0 ** (snr_db / 10.0)
        rngs = [RngStream(seed, t).generator() for t in range(trials)]
        block = draw_blocks(rngs, users, nt)
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
        block = draw_blocks(rngs, users, nt)
        out = _perfect_zf_blocks(block.h_est, block.h_delayed, snr, selection, cqi_kind)
        for t in range(trials):
            norms2 = np.linalg.norm(block.h[t], axis=1) ** 2
            cqi = norms2 if cqi_kind == "norm2" else (snr / nt) * norms2  # no quantization error
            dirs = block.h[t] / np.sqrt(norms2)[:, None]
            n = out.counts[t]
            plan = TransmissionPlan(selected=out.selected[t, :n], beamformers=out.beamformers[t, :n])
            estimated = estimated_plan_rate(dirs, cqi, cqi_kind, plan, snr, nt)
            realized = out.sum_rates[t]
            assert estimated == pytest.approx(realized, rel=1e-9, abs=0.0)
            assert estimated >= realized * (1.0 - 1e-9)

    @given(**PERFECT_ZF_CASES, impaired=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_sum_rate_ignores_user_phases_and_antenna_order(self, seed, trials, users, nt, snr_db,
                                                            selection, cqi_kind, impaired):
        snr = 10.0 ** (snr_db / 10.0)
        rngs = [RngStream(seed, t).generator() for t in range(trials)]
        block = draw_blocks(rngs, users, nt, 1.0 / (1.0 + snr) if impaired else 0.0,
                            0.9 if impaired else 1.0)
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

    @pytest.mark.parametrize("selection", ["greedy", "simplified"])
    @pytest.mark.parametrize("kind", QUANTIZER_KINDS)
    def test_strided_stacks_give_the_contiguous_blocks(self, kind, selection):
        # permuted and Fortran-ordered channels have no contiguous last axis, so no real view
        block = draw_blocks([RngStream(27, t).generator() for t in range(3)], 9, 4, 1.0 / 11.0, 0.9)
        perm = [2, 0, 3, 1]
        h_est, h_delayed = block.h_est[..., perm], block.h_delayed[..., perm]

        def run(h_est, h_delayed):
            return zf_blocks(h_est, h_delayed, kind, 5, "expected_sinr", 10.0, 4,
                             selection, [RngStream(28, t).generator() for t in range(3)])

        want = run(np.ascontiguousarray(h_est), np.ascontiguousarray(h_delayed))
        for got in (run(h_est, h_delayed), run(np.asfortranarray(h_est), np.asfortranarray(h_delayed))):
            for name in ("selected", "counts", "beamformers", "realized_rates"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


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
    def _check(seed, trials, chan, snr, quantizer, bits, cqi_kind, selection, cqi_bits):
        """Compare the engine with the oracle on `trials` streams; returns the trials a rule decided.

        chan holds draw_blocks' arguments after the generators: num_users, nt, then sigma2 and r.
        """
        nt = chan[1]
        streams = [RngStream(seed, t) for t in range(trials)]
        rngs = [s.generator() for s in streams]
        block = draw_blocks(rngs, *chan)
        out = zf_blocks(block.h_est, block.h_delayed, quantizer, bits, cqi_kind, snr, nt, selection, rngs,
                        cqi_bits)
        sum_rates = out.sum_rates
        ruled_trials = 0
        for t, stream in enumerate(streams):
            rng = stream.generator()
            (want_sel, want_rate), ruled, (bare_sel, bare_rate) = oracle_zf_block(
                oracle_draw_block(rng, *chan), quantizer, bits, cqi_kind, snr, nt, selection, rng, cqi_bits)
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
        chan = (users, nt, 1.0 / (1.0 + snr) if case % 3 == 1 else 0.0, 0.95)
        ruled = self._check(case, ORACLE_TRIALS, chan, snr, quantizer, bits, cqi_kind, selection,
                            3 if case % 2 else None)
        if quantizer in ("rvq_statistical", "idealized", "perfect"):
            assert ruled == 0

    @pytest.mark.parametrize("selection", ["greedy", "simplified"])
    @pytest.mark.parametrize("quantizer,bits", [("scalar", 3), ("rvq_statistical", 4)])
    def test_high_snr_coarse_codebooks(self, quantizer, bits, selection):
        # At 50 dB selection serves its worst-conditioned sets, where the beams from the
        # selection's inverse Gram matrix and the SVD reference differ most.
        ruled = self._check(1, ORACLE_TRIALS, (30, 4), 1e5, quantizer, bits, "norm2", selection, None)
        if quantizer == "rvq_statistical":
            assert ruled == 0

    def test_greedy_ties_on_a_coarse_codebook(self):
        # 3-bit scalar codebook, 2 antennas, 30 users and 3 CQI bits: many users share a
        # codeword up to phase and a CQI level, so greedy meets exact ties that the engine's
        # and the oracle's rounding would otherwise break differently.
        self._check(0, 50, (30, 2), 10.0, "scalar", 3, "norm2", "greedy", 3)


class TestOrthosetAgainstComplexOracle:
    """orthoset_blocks on (T, K, nt) stacks against conftest's complex-arithmetic oracle, trial by
    trial: the engine scores |h^H w|^2 on real views and takes a set's total gain as ||h||^2."""

    @staticmethod
    def _check(h_est, h_delayed, codebooks, snr):
        cells, fb = schemes._orthoset_feedback(h_est, codebooks, snr)
        out = orthoset_blocks(h_est, h_delayed, codebooks, snr, codebooks.shape[2])
        for t in range(len(h_est)):
            want = oracle_orthoset_block(h_est[t], h_delayed[t], codebooks[t], snr)
            np.testing.assert_array_equal(cells[t], want["cells"])
            np.testing.assert_allclose(fb[t], want["fb"], rtol=1e-12, atol=0.0)
            n = out.counts[t]
            assert (out.sets[t], list(out.selected[t, :n])) == (want["set"], want["served"]), t
            np.testing.assert_array_equal(out.realized_rates[t, :n], want["rates"])
        return cells, fb, out

    # rbf's one set at the benchmark's 0 and 10 dB, and PU2RC up to B = 12, each with the chunk
    # run_point gives it at nt 4, T_fb 300 (capped at 20 trials); training error and delay make
    # h_delayed differ from h_est
    @pytest.mark.parametrize("bits,snr_db", [(2, 0.0), (2, 10.0), (6, 10.0), (10, 10.0), (12, 0.0)])
    def test_matches_the_oracle_on_random_stacks(self, bits, snr_db):
        nt, users = 4, 300 // bits
        trials = min(20, max(1, 16384 // (users * 2**bits // nt)))
        rngs = [RngStream(80 + bits, t).generator() for t in range(trials)]
        block = draw_blocks(rngs, users, nt, 0.1, 0.9)
        codebooks = haar_orthonormal_stack(rngs, nt, 2**bits // nt)
        self._check(block.h_est, block.h_delayed, codebooks, 10.0 ** (snr_db / 10.0))

    def test_identical_users_in_one_cell_go_to_the_lower_index(self):
        # users 5 and 17 both sit on set 2, beam 1, with gains far above everyone else's: an
        # exact tie in their fed-back SINRs, which the lower index wins
        nt, users = 4, 30
        rng = RngStream(85).generator()
        h = 0.1 * draw_blocks([rng], users, nt).h_est
        codebooks = haar_orthonormal_stack([rng], nt, 16)
        h[0, 5] = h[0, 17] = 10.0 * codebooks[0, 2][:, 1]
        cells, fb, out = self._check(h, h, codebooks, 10.0)
        assert cells[0, 5] == cells[0, 17] == 2 * nt + 1 and fb[0, 5] == fb[0, 17]
        assert out.sets[0] == 2 and 5 in out.selected[0, :out.counts[0]]
        assert 17 not in out.selected[0, :out.counts[0]]


class TestOrthosetSchemes:
    def test_identity_codebook_hand_example(self):
        h = np.array([[2.0, 0.0], [0.0, 1.5]], dtype=complex)
        cb = np.eye(2, dtype=complex)[None, :, :]
        out = _orthoset_block(_perfect_realization(h), cb, snr=10.0, nt=2)
        sinr0 = 4.0 / (2.0 / 10.0)
        sinr1 = 2.25 / (2.0 / 10.0)
        expect = math.log2(1 + sinr0) + math.log2(1 + sinr1)
        assert abs(out.sum_rates[0] - expect) < 1e-9
        assert sorted(_served(out)) == [0, 1]
        assert out.counts[0] == 2

    def test_tie_break_prefers_lower_user_index(self):
        h = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        cb = np.eye(2, dtype=complex)[None, :, :]
        out = _orthoset_block(_perfect_realization(h), cb, snr=10.0, nt=2)
        assert _served(out) == [0]
        assert out.counts[0] == 1

    def test_rbf_equals_single_set_pu2rc(self):
        for trial in range(10):
            real = draw_block(RngStream(13, trial).generator(), 20, 4)
            a = rbf_block(real, 10.0, 4, RngStream(14, trial).generator())
            b = pu2rc_block(real, 2, 10.0, 4, RngStream(14, trial).generator())
            assert a.sum_rates[0] == b.sum_rates[0]
            assert _served(a) == _served(b)
            np.testing.assert_array_equal(a.beamformers, b.beamformers)

    @pytest.mark.parametrize("bits,users", [(4, 75), (6, 50)])
    def test_scheduled_users_sit_on_their_quantized_codeword(self, bits, users):
        # Each scheduled user fed back the (set, beam) that maximizes |h_est^H w|^2
        # over the whole codebook, so it is served on that set and beam.
        for trial in range(20):
            real = draw_block(RngStream(30 + bits, trial).generator(), users, 4, 1.0 / 11.0)
            cb = build_orthosets_codebook(bits, 4, RngStream(40 + bits, trial).generator())
            out = _orthoset_block(real, cb, snr=10.0, nt=4)
            n = out.counts[0]
            assert n > 0
            for k, bf in zip(out.selected[0, :n], out.beamformers[0, :n]):
                s, m, _ = quantize_to_orthosets(real.h_est[k], cb)
                assert s == out.sets[0], f"trial {trial}, user {k}"
                np.testing.assert_array_equal(bf, cb[s][:, m])

    def test_pu2rc_uses_requested_codebook_size(self):
        real = draw_block(RngStream(15).generator(), 10, 4)
        out = pu2rc_block(real, 6, 10.0, 4, RngStream(16).generator())
        assert 0 <= out.sets[0] < 2**6 // 4

    def test_rates_use_post_delay_channels(self):
        rng = RngStream(17).generator()
        h = complex_gaussian(rng, (4, 2))
        h_delayed = complex_gaussian(rng, (4, 2))
        real = ChannelRealization(h=h, h_est=h, h_delayed=h_delayed)
        cb = np.eye(2, dtype=complex)[None, :, :]
        out = _orthoset_block(real, cb, snr=10.0, nt=2)
        # recompute from the delayed channels directly
        n = out.counts[0]
        for u, bf, rate in zip(out.selected[0, :n], out.beamformers[0, :n], out.realized_rates[0, :n]):
            sig = (10.0 / 2) * abs(np.vdot(h_delayed[u], bf)) ** 2
            tot = (10.0 / 2) * np.linalg.norm(h_delayed[u]) ** 2  # identity beams span all power
            sinr = sig / (1.0 + tot - sig)
            assert abs(rate - math.log2(1.0 + sinr)) < 1e-9


class TestSubf:
    def test_perfect_quantizer_picks_best_norm(self):
        h = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.5]], dtype=complex)
        out = subf_block(_perfect_realization(h), "perfect", 0, 10.0)
        assert _served(out) == [1]
        assert abs(out.sum_rates[0] - math.log2(1.0 + 10.0 * 4.0)) < 1e-12

    def test_rate_uses_post_delay_channel(self):
        rng = RngStream(18).generator()
        h = complex_gaussian(rng, (1, 4))
        h_delayed = complex_gaussian(rng, (1, 4))
        real = ChannelRealization(h=h, h_est=h, h_delayed=h_delayed)
        out = subf_block(real, "perfect", 0, 10.0)
        u = h[0] / np.linalg.norm(h[0])
        expect = math.log2(1.0 + 10.0 * abs(np.vdot(h_delayed[0], u)) ** 2)
        assert abs(out.sum_rates[0] - expect) < 1e-12

    @pytest.mark.parametrize("kind", QUANTIZER_KINDS)
    def test_serves_the_largest_reported_snr(self, kind):
        # The served user and beam are the argmax of |h_est_k^H d_k|^2 over the quantized d_k.
        n_blocks, n_users, nt, bits = 200, 10, 4, 3
        h_est = complex_gaussian(RngStream(21).generator(), (n_blocks, n_users, nt))
        h_delayed = complex_gaussian(RngStream(22).generator(), (n_blocks, n_users, nt))
        rngs = lambda: [RngStream(23, t).generator() for t in range(n_blocks)]
        out = schemes.subf_blocks(h_est, h_delayed, kind, bits, 10.0, rngs())
        dirs = quantize_directions(h_est, kind, bits, rngs())[0]
        want = np.argmax(np.abs(np.einsum("tki,tki->tk", h_est.conj(), dirs)) ** 2, axis=1)
        assert np.array_equal(out.counts, np.ones(n_blocks, dtype=int))
        assert np.array_equal(out.selected[:, 0], want)
        assert np.array_equal(out.beamformers[:, 0], dirs[np.arange(n_blocks), want])

    def test_quantized_direction_lowers_rate_on_average(self):
        diffs = []
        for trial in range(200):
            real = draw_block(RngStream(19, trial).generator(), 10, 4)
            perfect = subf_block(real, "perfect", 0, 10.0)
            coarse = subf_block(real, "rvq_statistical", 2, 10.0, rng=RngStream(20, trial).generator())
            diffs.append(perfect.sum_rates[0] - coarse.sum_rates[0])
        assert np.mean(diffs) > 0.0


# (kind, bits) of every quantizer kind, with explicit RVQ and scalar at a coarse, a middle and a fine B
MASK_KINDS = [("rvq_explicit", 2), ("rvq_explicit", 6), ("rvq_explicit", 11), ("scalar", 3), ("scalar", 6),
              ("scalar", 16), ("rvq_statistical", 8), ("idealized", 8), ("perfect", 0)]


def _all_rows(monkeypatch):
    """Make simplified ZF quantize every row, as it did before it passed a mask."""
    monkeypatch.setattr(schemes, "quantize_directions",
                        lambda h, kind, bits, rngs, rows=None: quantize_directions(h, kind, bits, rngs))


def _read_rows_alone(monkeypatch):
    """Make simplified ZF quantize each trial's read rows as an unmasked stack of their own, on
    the trial's stream: explicit RVQ's rule of one codebook per read row, in row order."""
    def alone(h, kind, bits, rngs, rows):
        dirs, sin2 = np.zeros_like(h), np.zeros(h.shape[:2])
        for t, rng in enumerate(rngs):
            read = np.flatnonzero(rows[t])
            (dirs[t, read],), (sin2[t, read],) = quantize_directions(h[t, read][None], kind, bits, [rng])
        return dirs, sin2

    monkeypatch.setattr(schemes, "quantize_directions", alone)


class TestSimplifiedQuantizesOnlyItsTopUsers:
    """Simplified ZF quantizes only each trial's top min(nt, K) users by CQI, and
    serves the same users with the same beams and rates, bit for bit, as when
    it quantizes every user; explicit RVQ, which draws codebooks only for the
    read users, as when it quantizes those users alone."""

    @pytest.mark.parametrize("users", [3, 9])  # K < nt and K >= nt at nt 4
    @pytest.mark.parametrize("chan", [(0.0, 1.0), (0.1, 0.95)])  # perfect and impaired CSI
    @pytest.mark.parametrize("cqi_bits", [None, 2])  # 2 CQI bits: ties at the top-nt boundary
    @pytest.mark.parametrize("kind,bits", MASK_KINDS)
    def test_same_blocks_as_quantizing_every_row(self, kind, bits, cqi_bits, chan, users, monkeypatch):
        trials, nt, snr = 6, 4, 10.0

        def run(fn):
            rngs = [RngStream(70, t).generator() for t in range(trials)]
            block = draw_blocks(rngs, users, nt, *chan)
            return fn(block, rngs), rngs

        def stacked(block, rngs):
            return zf_blocks(block.h_est, block.h_delayed, kind, bits, "norm2", snr, nt, "simplified", rngs,
                             cqi_bits)

        def one_by_one(block, rngs):
            return [zf_block(ChannelRealization(block.h[t], block.h_est[t], block.h_delayed[t]), kind, bits,
                             "norm2", snr, nt, "simplified", rngs[t], cqi_bits) for t in range(trials)]

        got, got_one = run(stacked)[0], run(one_by_one)[0]
        with monkeypatch.context() as m:
            (_read_rows_alone if kind == "rvq_explicit" else _all_rows)(m)
            want, want_one = run(stacked)[0], run(one_by_one)[0]
        if cqi_bits:
            cqi = quantize_cqi(_sq_norms_of(run(lambda b, r: b.h_est)[0]), cqi_bits, nt)
            assert any(len(set(row)) < users for row in cqi)  # the quantized CQI ties
        for out, ref in [(got, want), *zip(got_one, want_one)]:
            for field in ("selected", "counts", "beamformers", "realized_rates"):
                np.testing.assert_array_equal(getattr(out, field), getattr(ref, field))

    @pytest.mark.parametrize("cqi_kind,selection", [("norm2", "greedy"), ("expected_sinr", "simplified")])
    def test_greedy_and_expected_sinr_quantize_every_row(self, cqi_kind, selection, monkeypatch):
        masks = []
        monkeypatch.setattr(schemes, "quantize_directions",
                            lambda h, kind, bits, rngs, rows=None: masks.append(rows) or
                            quantize_directions(h, kind, bits, rngs, rows))
        rngs = [RngStream(71, t).generator() for t in range(3)]
        block = draw_blocks(rngs, 9, 4)
        zf_blocks(block.h_est, block.h_delayed, "rvq_statistical", 6, cqi_kind, 10.0, 4, selection, rngs)
        assert masks == [None]


def _sq_norms_of(h):
    return np.sum(np.abs(h) ** 2, axis=-1)


def _one_user_block(h, snr, nt):
    """Greedy ZF with perfect feedback on one block of channel rows h (K, nt)."""
    h = np.asarray(h, dtype=complex)[None]
    return zf_blocks(h, h, "perfect", 0, "norm2", snr, nt, "greedy", [None])


class TestGreedyRulesDecideWhatUsersSee:
    """The two greedy rules, on hand-built blocks: a near-tie within TIE_RTOL goes to the
    lower index and nothing wider does; a user only nearly dependent on the selected ones
    is served, and one dependent within DEPENDENT_RTOL is not."""

    def test_a_rate_better_by_a_billionth_wins_over_a_lower_index(self):
        # user 0 is served first; users 1 and 2 are both orthogonal to it, and user 2's CQI
        # is larger by 5e-9, which raises the pair's estimated rate by about 1e-9 relative
        h = [[math.sqrt(2.0), 0.0], [0.0, 1.0], [0.0, math.sqrt(1.0 + 5e-9)]]
        out = _one_user_block(h, 10.0, 2)
        rates = [math.log2(1.0 + 5.0 * 2.0) + math.log2(1.0 + 5.0 * g) for g in (1.0, 1.0 + 5e-9)]
        assert 5e-10 < (rates[1] - rates[0]) / rates[0] < 2e-9
        assert list(out.selected[0]) == [0, 2]
        np.testing.assert_allclose(out.sum_rates[0], rates[1], rtol=1e-14)

    @pytest.mark.parametrize("sin2,served", [(1e-8, 2), (1e-12, 1)])
    def test_a_nearly_dependent_user_is_served_down_to_the_rule(self, sin2, served):
        # at a linear SNR of 1e30 adding user 1 raises the estimated rate at both angles,
        # so only the dependence rule can refuse it
        h = [[math.sqrt(2.0), 0.0], [math.sqrt(1.0 - sin2), math.sqrt(sin2)]]
        out = _one_user_block(h, 1e30, 2)
        assert out.counts[0] == served
        assert list(out.selected[0, :served]) == [0, 1][:served]
