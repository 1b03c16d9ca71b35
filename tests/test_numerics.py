import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    EULER_GAMMA,
    complex_gaussian,
    haar_orthonormal_set,
    lambert_w_m1_bisect,
    max_gamma_expectation,
    oracle_haar_stack,
)
from fbsim.numerics import (
    RngStream,
    SingularSetError,
    complex_pairs,
    haar_orthonormal_sets,
    haar_orthonormal_stack,
    lambert_w_m1,
    rng_streams,
    stream_seed_words,
    zf_directions,
)


class TestLambertW:
    def test_branch_point_exact(self):
        assert abs(lambert_w_m1(-1.0 / math.e) - (-1.0)) <= 1e-9

    def test_frozen_values_match_bisection_oracle(self):
        for x, frozen in [(-0.1, -3.577152063957297), (-0.14104, -3.08538971654063)]:
            w = lambert_w_m1(x)
            assert abs(w - frozen) <= 1e-9
            assert abs(w - lambert_w_m1_bisect(x)) <= 1e-8

    def test_residual_on_grid(self):
        xs = -np.geomspace(1e-12, 1.0 / math.e - 1e-12, 1000)
        for x in xs:
            w = lambert_w_m1(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-10
            assert w <= -1.0

    def test_near_branch_point_series(self):
        for x in (-1.0 / math.e + 1e-12, -1.0 / math.e + 1e-8, -1.0 / math.e + 1e-4):
            w = lambert_w_m1(x)
            assert w <= -1.0
            assert abs(w * math.exp(w) - x) <= 1e-10

    @pytest.mark.parametrize("x", [0.0, 0.5, -1.0, -0.5])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            lambert_w_m1(x)

    @given(st.floats(min_value=-1.0 / math.e, max_value=-1e-300, exclude_max=True))
    @settings(max_examples=300, deadline=None)
    def test_inverse_property(self, x):
        w = lambert_w_m1(x)
        assert w <= -1.0
        assert abs(w * math.exp(w) - x) <= 1e-10 * max(1.0, abs(w))


class TestRngStream:
    def test_same_key_bit_identical(self):
        a = RngStream(7, 3).generator().standard_normal(16)
        b = RngStream(7, 3).generator().standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(7, 0).generator().standard_normal(16)
        b = RngStream(7, 1).generator().standard_normal(16)
        assert not np.array_equal(a, b)


def _seed_sequence(seed, stream_id):
    return np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))


def _assert_draws_equal(rng, oracle):
    np.testing.assert_array_equal(rng.standard_normal(5), oracle.standard_normal(5))
    np.testing.assert_array_equal(rng.random(3), oracle.random(3))


def _assert_streams_match_seed_sequence(seed, first, count):
    words = stream_seed_words(seed, first, count)
    assert words.shape == (count, 4) and words.dtype == np.uint64
    for i, (w, rng) in enumerate(zip(words, rng_streams(seed, first, count))):
        ss = _seed_sequence(seed, first + i)
        np.testing.assert_array_equal(w, ss.generate_state(4, np.uint64))
        _assert_draws_equal(rng, np.random.default_rng(ss))
        _assert_draws_equal(RngStream(seed, first + i).generator(), np.random.default_rng(ss))


class TestRngStreams:
    """rng_streams hashes a chunk's seed words in one array pass; every
    stream, and RngStream's one-stream view of it, must draw what NumPy's
    own SeedSequence seeding gives."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
    @pytest.mark.parametrize("first", [0, 2**32 - 3, 2**40])  # the middle chunk crosses 2^32
    def test_words_and_draws_equal_seed_sequence(self, seed, first):
        _assert_streams_match_seed_sequence(seed, first, 6)

    def test_seed_past_the_pool_and_ids_past_63_bits(self):
        _assert_streams_match_seed_sequence(2**130 + 7, 5, 3)  # a five-word seed is not padded
        _assert_streams_match_seed_sequence(3, 2**64 - 2, 4)  # SeedSequence itself

    @given(st.integers(0, 2**96 - 1), st.integers(0, 2**40 - 1))
    @settings(max_examples=200, deadline=None)
    def test_any_seed_and_stream_id(self, seed, stream_id):
        ss = _seed_sequence(seed, stream_id)
        np.testing.assert_array_equal(stream_seed_words(seed, stream_id, 1)[0],
                                      ss.generate_state(4, np.uint64))
        (rng,) = rng_streams(seed, stream_id, 1)
        _assert_draws_equal(rng, np.random.default_rng(ss))
        _assert_draws_equal(RngStream(seed, stream_id).generator(), np.random.default_rng(ss))

    def test_empty_and_negative(self):
        assert list(rng_streams(0, 0, 0)) == []
        with pytest.raises(ValueError):
            stream_seed_words(-1, 0, 2)
        with pytest.raises(ValueError):
            stream_seed_words(0, -1, 2)
        for seed, stream_id in ((-1, 0), (0, -1)):  # as SeedSequence refuses them
            with pytest.raises(ValueError):
                RngStream(seed, stream_id).generator()


class TestComplexGaussian:
    def test_unit_variance_and_circularity(self):
        rng = RngStream(1).generator()
        z = complex_pairs(rng.standard_normal((2, 1, 200_000)))
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01
        assert abs(np.mean(z)) < 0.01
        assert abs(np.mean(z**2)) < 0.01  # pseudo-variance of a circular variable

    def test_one_draw_equals_real_then_imaginary_draws(self):
        z = complex_pairs(RngStream(2).generator().standard_normal((2, 5, 4)))
        np.testing.assert_array_equal(z, complex_gaussian(RngStream(2).generator(), (5, 4)))

    @pytest.mark.parametrize("layout", ["lone_set", "channel_stack", "rvq_winners"])
    def test_bits_equal_the_complex_formula(self, layout):
        # conftest's oracles call complex_pairs too, so only this literal formula pins its bits
        rng = RngStream(3).generator()
        if layout == "lone_set":
            z = rng.standard_normal((2, 4, 4))
        elif layout == "channel_stack":
            z = rng.standard_normal((5, 3, 2, 7, 4))  # (T, draws, 2, K, nt)
        else:  # explicit RVQ's winning codewords of a stack, (rows, 2, 1, nt)
            codes = rng.standard_normal((6, 2, 16, 4))
            z = codes[np.arange(6), :, rng.integers(0, 16, 6), None]
        want = (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / math.sqrt(2.0)
        got = complex_pairs(z)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.float64), want.view(np.float64))


class TestHaar:
    def test_orthonormality(self):
        rng = RngStream(2).generator()
        q = haar_orthonormal_sets(rng, 4, 8)
        assert q.shape == (8, 4, 4)
        eye = np.einsum("sij,sik->sjk", q.conj(), q)
        assert np.max(np.abs(eye - np.eye(4))) < 1e-13

    def test_single_set_shape(self):
        rng = RngStream(3).generator()
        q = haar_orthonormal_set(rng, 3)
        assert q.shape == (3, 3)
        assert np.max(np.abs(q.conj().T @ q - np.eye(3))) < 1e-13

    def test_column_entry_isotropy(self):
        # |first entry of a Haar column|^2 has mean 1/n
        rng = RngStream(4).generator()
        q = haar_orthonormal_sets(rng, 4, 4000)
        m = np.mean(np.abs(q[:, 0, 0]) ** 2)
        # Beta(1, 3) has sd ~0.19; 4000 draws -> 4 se ~ 0.012
        assert abs(m - 0.25) < 0.013

    def test_invalid_dimension(self):
        rng = RngStream(0).generator()
        with pytest.raises(ValueError):
            haar_orthonormal_sets(rng, 0, 1)

    @pytest.mark.parametrize("trials", [1, 7])
    @pytest.mark.parametrize("sets", [1, 16, 1024])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_matches_phase_fixed_lapack_qr(self, n, sets, trials):
        rngs = list(rng_streams(50 + n, 0, trials))
        refs = list(rng_streams(50 + n, 0, trials))
        q = haar_orthonormal_stack(rngs, n, sets)
        assert q.shape == (trials, sets, n, n)
        np.testing.assert_allclose(q, oracle_haar_stack(refs, n, sets), rtol=0, atol=1e-12)
        for rng, ref in zip(rngs, refs):  # each stream continues from the same point
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("n,sets", [(4, 8192), (8, 1024)])
    def test_orthogonality_of_large_stacks(self, n, sets):
        q = haar_orthonormal_stack([RngStream(60 + n).generator()], n, sets)
        eye = np.swapaxes(q, -1, -2).conj() @ q
        assert np.max(np.abs(eye - np.eye(n))) <= 1e-13

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("sets", [1, 5])
    def test_a_trial_does_not_depend_on_its_stack(self, n, sets):
        q = haar_orthonormal_stack(list(rng_streams(65, 0, 3)), n, sets)
        for t in range(3):
            one = haar_orthonormal_stack([RngStream(65, t).generator()], n, sets)[0]
            np.testing.assert_array_equal(one, q[t])

    @pytest.mark.parametrize("n", [2, 4])
    def test_haar_law_of_the_entries(self, n):
        # Every entry of a Haar unitary has |q|^2 ~ Beta(1, n - 1), with mean
        # 1/n and variance (n - 1) / (n^2 (n + 1)), and a uniform phase, so
        # E[exp(i k arg q)] = 0 with E|exp(i k arg q)|^2 = 1. Each check is 4 SE.
        q = haar_orthonormal_stack(list(rng_streams(70 + n, 0, 4)), n, 4000).reshape(-1, n, n)
        draws = q.shape[0]
        p = np.abs(q) ** 2
        se = math.sqrt((n - 1) / (n**2 * (n + 1)) / draws)
        assert np.max(np.abs(p.mean(axis=0) - 1.0 / n)) <= 4 * se
        phase = q / np.abs(q)
        for k in (1, 2):
            assert np.max(np.abs(np.mean(phase**k, axis=0))) <= 4 / math.sqrt(draws)


class TestZfDirections:
    def test_single_channel_is_matched_filter(self):
        rng = RngStream(5).generator()
        h = complex_gaussian(rng, (1, 4))
        v = zf_directions(h)
        assert v.shape == (1, 4)
        u = h[0] / np.linalg.norm(h[0])
        assert abs(abs(np.vdot(u, v[0])) - 1.0) < 1e-12

    def test_cross_terms_vanish(self):
        rng = RngStream(6).generator()
        h = complex_gaussian(rng, (3, 4))
        v = zf_directions(h)
        cross = np.abs(h.conj() @ v.T)
        off = cross - np.diag(np.diag(cross))
        assert np.max(np.abs(off)) < 1e-8
        np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
        assert np.all(np.diag(cross) > 1e-6)

    def test_orthonormal_input_recovered(self):
        rng = RngStream(7).generator()
        q = haar_orthonormal_set(rng, 4).T  # rows orthonormal
        v = zf_directions(q)
        gains = np.abs(np.sum(q.conj() * v, axis=1))
        np.testing.assert_allclose(gains, 1.0, atol=1e-10)

    def test_order_independence_up_to_phase(self):
        rng = RngStream(8).generator()
        h = complex_gaussian(rng, (3, 4))
        v = zf_directions(h)
        w = zf_directions(h[::-1])[::-1]
        align = np.abs(np.sum(v.conj() * w, axis=1))
        np.testing.assert_allclose(align, 1.0, atol=1e-8)

    def test_rank_deficient_raises(self):
        h = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0]], dtype=complex)
        with pytest.raises(SingularSetError):
            zf_directions(h)

    def test_too_many_channels_raises(self):
        rng = RngStream(9).generator()
        with pytest.raises(ValueError):
            zf_directions(complex_gaussian(rng, (5, 4)))


class TestMaxGammaExpectation:
    def test_harmonic_values(self):
        assert max_gamma_expectation(1, 1) == 1.0
        assert abs(max_gamma_expectation(2, 2) - (1 + 1 / 2 + 1 / 3 + 1 / 4)) < 1e-12

    def test_asymptote_agrees_for_large_counts(self):
        h = max_gamma_expectation(100, 4, form="harmonic")
        lg = max_gamma_expectation(100, 4, form="log_gamma")
        assert abs(h - lg) < 0.002
        assert abs(max_gamma_expectation(100, 4, form="log") - math.log(400)) < 1e-12

    def test_harmonic_monotone_in_users(self):
        vals = [max_gamma_expectation(k, 4) for k in range(1, 30)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            max_gamma_expectation(0, 4)
        with pytest.raises(ValueError):
            max_gamma_expectation(4, 4, form="nope")

    def test_gamma_constant(self):
        assert abs(EULER_GAMMA - 0.57721566490153286) < 1e-15
