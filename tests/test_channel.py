import numpy as np
import pytest

from conftest import oracle_draw_block
from fbsim.channel import draw_block, draw_blocks
from fbsim.numerics import RngStream


class TestDrawBlock:
    def test_perfect_csi_aliases(self):
        rng = RngStream(0).generator()
        blk = draw_block(rng, 50, 4)
        assert blk.h.shape == (50, 4)
        np.testing.assert_array_equal(blk.h, blk.h_est)
        np.testing.assert_array_equal(blk.h, blk.h_delayed)

    def test_training_error_statistics(self):
        s2 = 1.0 / 11.0  # one pilot per antenna at 10 dB
        blk = draw_block(RngStream(1).generator(), 3000, 4, s2)
        err = blk.h - blk.h_est
        n = blk.h.size
        tol = 4.0 / np.sqrt(n)  # |h|^2 has unit variance per entry
        assert abs(np.mean(np.abs(blk.h) ** 2) - 1.0) < tol
        assert abs(np.mean(np.abs(blk.h_est) ** 2) - (1.0 - s2)) < tol
        assert abs(np.mean(np.abs(err) ** 2) - s2) < tol
        # estimate and error uncorrelated
        assert abs(np.mean(blk.h_est.conj() * err)) < tol

    def test_delay_correlation(self):
        r = 0.9
        blk = draw_block(RngStream(2).generator(), 5000, 4, r=r)
        n = blk.h.size
        tol = 4.0 / np.sqrt(n)
        corr = np.mean(blk.h_delayed * blk.h.conj())
        assert abs(corr - r) < tol
        assert abs(np.mean(np.abs(blk.h_delayed) ** 2) - 1.0) < tol

    def test_no_delay_alias(self):
        blk = draw_block(RngStream(3).generator(), 50, 4, 1.0 / 21.0, 1.0)
        np.testing.assert_array_equal(blk.h, blk.h_delayed)
        assert not np.array_equal(blk.h, blk.h_est)

    def test_deterministic_given_stream(self):
        a = draw_block(RngStream(4).generator(), 50, 4, 1.0 / 11.0, 0.95)
        b = draw_block(RngStream(4).generator(), 50, 4, 1.0 / 11.0, 0.95)
        np.testing.assert_array_equal(a.h, b.h)
        np.testing.assert_array_equal(a.h_est, b.h_est)
        np.testing.assert_array_equal(a.h_delayed, b.h_delayed)


class TestDrawBlocks:
    @pytest.mark.parametrize("kw", [dict(), dict(sigma2=1.0 / 11.0), dict(r=0.9),
                                    dict(sigma2=1.0 / 6.0, r=0.95)],
                             ids=["perfect", "training", "delay", "both"])
    def test_each_block_is_its_streams_per_trial_draw(self, kw):
        rngs = [RngStream(5, t).generator() for t in range(6)]
        stack = draw_blocks(rngs, 7, 4, **kw)
        assert stack.h.shape == stack.h_est.shape == stack.h_delayed.shape == (6, 7, 4)
        # the quantizers and the CQI norms copy a strided stack before they read it
        assert stack.h_est.flags.c_contiguous and stack.h_delayed.flags.c_contiguous
        for t in range(6):
            ref = RngStream(5, t).generator()
            want = oracle_draw_block(ref, 7, 4, **kw)
            np.testing.assert_array_equal(stack.h[t], want.h)
            np.testing.assert_array_equal(stack.h_est[t], want.h_est)
            np.testing.assert_array_equal(stack.h_delayed[t], want.h_delayed)
            assert rngs[t].random() == ref.random()  # each stream continues where the oracle's does

    def test_draw_block_is_the_one_trial_case(self):
        a = draw_block(RngStream(6).generator(), 50, 4, 1.0 / 11.0, 0.95)
        b = draw_blocks([RngStream(6).generator()], 50, 4, 1.0 / 11.0, 0.95)
        np.testing.assert_array_equal(a.h, b.h[0])
        np.testing.assert_array_equal(a.h_est, b.h_est[0])
        np.testing.assert_array_equal(a.h_delayed, b.h_delayed[0])
