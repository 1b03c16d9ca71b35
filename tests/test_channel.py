import numpy as np
import pytest

from conftest import oracle_draw_block
from fbsim.channel import ChannelModelConfig, draw_block, draw_blocks
from fbsim.numerics import RngStream


def _cfg(**kw):
    base = dict(nt=4, num_users=50, snr=10.0)
    base.update(kw)
    return ChannelModelConfig(**base)


class TestConfig:
    def test_perfect_rx_csi_has_zero_error(self):
        assert _cfg(beta=None).estimation_error_var == 0.0

    def test_training_error_variance(self):
        cfg = _cfg(beta=1.0, snr=10.0)
        assert abs(cfg.estimation_error_var - 1.0 / 11.0) < 1e-15

    @pytest.mark.parametrize(
        "kw",
        [dict(nt=0), dict(num_users=0), dict(r=1.5), dict(r=-0.1), dict(beta=-1.0), dict(beta=0.0),
         dict(snr=0.0)],
    )
    def test_invalid_parameters(self, kw):
        with pytest.raises(ValueError):
            _cfg(**kw)

    @pytest.mark.parametrize("beta,snr", [(1.0, 1e-17), (1e-10, 1e-10), (1e3, 1e-300)])
    def test_training_too_weak_to_estimate_rejected(self, beta, snr):
        # 1 + beta*snr rounds to 1: the estimate would be 0 and every rate NaN
        with pytest.raises(ValueError, match="too small to estimate the channel"):
            _cfg(beta=beta, snr=snr)


class TestDrawBlock:
    def test_perfect_csi_aliases(self):
        rng = RngStream(0).generator()
        blk = draw_block(_cfg(), rng)
        assert blk.h.shape == (50, 4)
        np.testing.assert_array_equal(blk.h, blk.h_est)
        np.testing.assert_array_equal(blk.h, blk.h_delayed)

    def test_training_error_statistics(self):
        cfg = _cfg(num_users=3000, beta=1.0, snr=10.0)
        rng = RngStream(1).generator()
        blk = draw_block(cfg, rng)
        s2 = cfg.estimation_error_var
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
        cfg = _cfg(num_users=5000, r=r)
        rng = RngStream(2).generator()
        blk = draw_block(cfg, rng)
        n = blk.h.size
        tol = 4.0 / np.sqrt(n)
        corr = np.mean(blk.h_delayed * blk.h.conj())
        assert abs(corr - r) < tol
        assert abs(np.mean(np.abs(blk.h_delayed) ** 2) - 1.0) < tol

    def test_no_delay_alias(self):
        cfg = _cfg(r=1.0, beta=2.0)
        blk = draw_block(cfg, RngStream(3).generator())
        np.testing.assert_array_equal(blk.h, blk.h_delayed)
        assert not np.array_equal(blk.h, blk.h_est)

    def test_deterministic_given_stream(self):
        cfg = _cfg(beta=1.0, r=0.95)
        a = draw_block(cfg, RngStream(4).generator())
        b = draw_block(cfg, RngStream(4).generator())
        np.testing.assert_array_equal(a.h, b.h)
        np.testing.assert_array_equal(a.h_est, b.h_est)
        np.testing.assert_array_equal(a.h_delayed, b.h_delayed)


class TestDrawBlocks:
    @pytest.mark.parametrize("kw", [dict(), dict(beta=1.0), dict(r=0.9),
                                    dict(beta=0.5, r=0.95)],
                             ids=["perfect", "training", "delay", "both"])
    def test_each_block_is_its_streams_per_trial_draw(self, kw):
        cfg = _cfg(num_users=7, **kw)
        rngs = [RngStream(5, t).generator() for t in range(6)]
        stack = draw_blocks(cfg, rngs)
        assert stack.h.shape == stack.h_est.shape == stack.h_delayed.shape == (6, 7, 4)
        # the quantizers and the CQI norms copy a strided stack before they read it
        assert stack.h_est.flags.c_contiguous and stack.h_delayed.flags.c_contiguous
        for t in range(6):
            ref = RngStream(5, t).generator()
            want = oracle_draw_block(cfg, ref)
            np.testing.assert_array_equal(stack.h[t], want.h)
            np.testing.assert_array_equal(stack.h_est[t], want.h_est)
            np.testing.assert_array_equal(stack.h_delayed[t], want.h_delayed)
            assert rngs[t].random() == ref.random()  # each stream continues where the oracle's does

    def test_draw_block_is_the_one_trial_case(self):
        cfg = _cfg(beta=1.0, r=0.95)
        a = draw_block(cfg, RngStream(6).generator())
        b = draw_blocks(cfg, [RngStream(6).generator()])
        np.testing.assert_array_equal(a.h, b.h[0])
        np.testing.assert_array_equal(a.h_est, b.h_est[0])
        np.testing.assert_array_equal(a.h_delayed, b.h_delayed[0])
