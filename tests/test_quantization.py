import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complex_gaussian,
    explicit_rvq_sin2_batch,
    oracle_quantize_cqi,
    oracle_quantize_directions,
    oracle_scalar_bit_split,
    quantize_to_orthosets,
    random_codebook,
    sample_rvq_sin2,
)
from fbsim import quantization
from fbsim.numerics import RngStream, complex_pairs
from fbsim.quantization import (
    QUANTIZER_KINDS,
    DegeneratePivotError,
    build_orthosets_codebook,
    quantize_cqi,
    quantize_directions,
    scalar_bit_split,
)


def _quantize(h, kind, bits, rng=None):
    """quantize_directions on one block: h is a row (nt,) or rows (K, nt)."""
    h = np.asarray(h)
    dirs, sin2 = quantize_directions(np.atleast_2d(h)[None], kind, bits, [rng])
    return (dirs[0, 0], float(sin2[0, 0])) if h.ndim == 1 else (dirs[0], sin2[0])


class TestStatisticalError:
    def test_two_antenna_one_bit_mean_is_one_third(self):
        # min of two independent Uniform(0,1) draws has mean 1/3
        rng = RngStream(0).generator()
        s = sample_rvq_sin2(rng, bits=1, nt=2, count=200_000)
        se = s.std(ddof=1) / math.sqrt(len(s))
        assert abs(s.mean() - 1.0 / 3.0) < 4 * se

    @pytest.mark.parametrize("nt,bits", [(2, 1), (2, 6), (4, 4), (4, 12), (6, 10)])
    def test_mean_below_bit_bound(self, nt, bits):
        rng = RngStream(1).generator()
        s = sample_rvq_sin2(rng, bits=bits, nt=nt, count=40_000)
        se = s.std(ddof=1) / math.sqrt(len(s))
        assert s.mean() <= 2.0 ** (-bits / (nt - 1)) + 3 * se

    def test_mean_decreases_with_bits(self):
        rng = RngStream(2).generator()
        means = [sample_rvq_sin2(rng, b, 4, 40_000).mean() for b in (2, 6, 10, 14)]
        assert all(b < a for a, b in zip(means, means[1:]))

    def test_values_in_unit_interval(self):
        rng = RngStream(3).generator()
        s = sample_rvq_sin2(rng, 3, 4, 10_000)
        assert np.all((s >= 0) & (s <= 1))

    def test_direction_angle_consistency(self):
        rng = RngStream(4).generator()
        h = complex_gaussian(rng, (200, 4))
        dirs, sin2 = _quantize(h, "rvq_statistical", 8, rng)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-9)
        u = h / np.linalg.norm(h, axis=1, keepdims=True)
        cos2 = np.abs(np.sum(u.conj() * dirs, axis=1)) ** 2
        np.testing.assert_allclose(cos2, 1.0 - sin2, atol=1e-9)

    def test_single_row_wrapper(self):
        rng = RngStream(5).generator()
        h = complex_gaussian(rng, 4)
        direction, sin2 = _quantize(h, "rvq_statistical", 10, rng)
        assert abs(np.linalg.norm(direction) - 1.0) < 1e-9
        assert 0.0 <= sin2 <= 1.0

    @given(seed=st.integers(0, 2**32 - 1), nt=st.integers(2, 8),
           sin2=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_placed_directions_are_unit_rows_at_the_drawn_angle(self, seed, nt, sin2):
        sin2 = np.array([*sin2, 0.0, 1.0])  # both ends in every example
        rng = RngStream(seed).generator()
        h = complex_gaussian(rng, (1, len(sin2), nt))
        g = complex_gaussian(rng, h.shape)
        dirs = quantization._place_at_angle(h, g, sin2[None])[0]
        u = h[0] / np.linalg.norm(h[0], axis=-1, keepdims=True)
        np.testing.assert_allclose(np.sum(np.abs(dirs) ** 2, axis=-1), 1.0, rtol=0, atol=1e-14)
        cos2 = np.abs(np.sum(u.conj() * dirs, axis=-1)) ** 2
        np.testing.assert_allclose(cos2, 1.0 - sin2, rtol=0, atol=1e-14)


class TestExplicitRvq:
    # A row's codebook is the first draw from its stream, so the same stream
    # regenerates it for the checks below.
    def test_exact_codeword_recovered(self):
        cb = random_codebook(RngStream(6).generator(), 4, 4)
        direction, sin2 = _quantize(cb[5], "rvq_explicit", 4, RngStream(6).generator())
        assert sin2 < 1e-12
        np.testing.assert_allclose(direction, cb[5])

    def test_picks_globally_closest_codeword(self):
        h = complex_gaussian(RngStream(7).generator(), 4)
        cb = random_codebook(RngStream(8).generator(), 6, 4)
        _, sin2 = _quantize(h, "rvq_explicit", 6, RngStream(8).generator())
        u = h / np.linalg.norm(h)
        cos2 = np.abs(cb @ u.conj()) ** 2  # exhaustive scan oracle
        assert abs((1.0 - cos2.max()) - sin2) < 1e-12

    @pytest.mark.parametrize("nt,bits", [(2, 1), (2, 4), (4, 4), (4, 8)])
    def test_agrees_with_statistical_model(self, nt, bits):
        rng_e = RngStream(9).generator()
        rng_s = RngStream(10).generator()
        n = 20_000
        se_samples = explicit_rvq_sin2_batch(rng_e, bits, nt, n)
        st_samples = sample_rvq_sin2(rng_s, bits, nt, n)
        pooled = math.hypot(se_samples.std(ddof=1), st_samples.std(ddof=1)) / math.sqrt(n)
        assert abs(se_samples.mean() - st_samples.mean()) < 3 * pooled


class TestIdealized:
    def test_mean_is_three_quarters_of_baseline_at_four_antennas(self):
        rng_a = RngStream(11).generator()
        rng_b = RngStream(12).generator()
        n, bits = 100_000, 10
        # direct comparison through the samplers (same distribution family)
        base = sample_rvq_sin2(rng_a, bits, 4, n)
        scaled = sample_rvq_sin2(rng_b, bits, 4, n) * (3.0 / 4.0)
        pooled = math.hypot(base.std(ddof=1) * 0.75, scaled.std(ddof=1)) / math.sqrt(n)
        assert abs(scaled.mean() - 0.75 * base.mean()) < 3 * pooled

    def test_single_row_wrapper_scale(self):
        rng = RngStream(13).generator()
        h = complex_gaussian(rng, 4)
        _, sin2 = _quantize(h, "idealized", 8, rng)
        assert 0.0 <= sin2 <= 0.75


class TestScalar:
    def test_bit_split_round_robin(self):
        p, m = scalar_bit_split(2, 2)
        assert list(p) == [1] and list(m) == [1]
        p, m = scalar_bit_split(12, 4)
        assert list(p) == [2, 2, 2] and list(m) == [2, 2, 2]
        p, m = scalar_bit_split(7, 4)
        assert list(p) == [2, 1, 1] and list(m) == [1, 1, 1]
        assert p.sum() + m.sum() == 7
        p, m = scalar_bit_split(5, 1)  # no phases or magnitudes to spend bits on
        assert p.size == m.size == 0

    @pytest.mark.parametrize("nt", range(1, 9))
    def test_bit_split_equals_one_bit_at_a_time(self, nt):
        for bits in range(65):
            got, want = scalar_bit_split(bits, nt), oracle_scalar_bit_split(bits, nt)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)

    def test_two_antenna_codepoints(self):
        # 1 phase bit -> {-pi/2, +pi/2}; 1 magnitude bit -> {pi/8, 3pi/8}
        h = np.array([1.0, math.tan(math.pi / 8) * np.exp(1j * math.pi / 2)])
        direction, sin2 = _quantize(h, "scalar", 2)
        assert sin2 < 1e-12
        u = h / np.linalg.norm(h)
        assert abs(abs(np.vdot(u, direction)) - 1.0) < 1e-9

    def test_first_entry_real_nonnegative_unit_norm(self):
        rng = RngStream(14).generator()
        dirs, sin2 = _quantize(complex_gaussian(rng, (20, 4)), "scalar", 11)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        assert np.all(np.abs(dirs[:, 0].imag) < 1e-12)
        assert np.all(dirs[:, 0].real >= 0.0)
        assert np.all((sin2 >= 0.0) & (sin2 <= 1.0))

    def test_global_scale_invariance(self):
        rng = RngStream(15).generator()
        h = complex_gaussian(rng, 4)
        a_dir, a_sin2 = _quantize(h, "scalar", 9)
        b_dir, b_sin2 = _quantize(3.7j * h, "scalar", 9)
        np.testing.assert_allclose(a_dir, b_dir, atol=1e-12)
        assert abs(a_sin2 - b_sin2) < 1e-12

    def test_degenerate_pivot(self):
        h = np.array([0.0, 1.0, 1.0, 1.0], dtype=complex)
        with pytest.raises(DegeneratePivotError):
            _quantize(h, "scalar", 8)

    def test_error_decreases_with_bits(self):
        rng = RngStream(16).generator()
        h = complex_gaussian(rng, (400, 4))
        means = []
        for bits in (6, 12, 18):
            means.append(_quantize(h, "scalar", bits)[1].mean())
        assert means[0] > means[1] > means[2]


class TestOrthosets:
    def test_codebook_shape_and_orthonormality(self):
        rng = RngStream(17).generator()
        cb = build_orthosets_codebook(6, 4, rng)
        assert cb.shape == (16, 4, 4)
        eye = np.einsum("sij,sik->sjk", cb.conj(), cb)
        assert np.max(np.abs(eye - np.eye(4))) < 1e-13

    def test_divisibility_guard(self):
        rng = RngStream(18).generator()
        with pytest.raises(ValueError):
            build_orthosets_codebook(1, 4, rng)

    def test_axis_aligned_example(self):
        cb = np.eye(2, dtype=complex)[None, :, :]
        s, m, sin2 = quantize_to_orthosets(np.array([0.6, 0.8]), cb)
        assert s == 0 and m == 1
        assert abs(sin2 - 0.36) < 1e-12

    def test_matches_exhaustive_scan(self):
        rng = RngStream(19).generator()
        cb = build_orthosets_codebook(5, 4, rng)
        for _ in range(10):
            h = complex_gaussian(rng, 4)
            _, _, sin2 = quantize_to_orthosets(h, cb)
            u = h / np.linalg.norm(h)
            best = -1.0
            for s in range(cb.shape[0]):
                for m in range(4):
                    best = max(best, abs(np.vdot(u, cb[s][:, m])) ** 2)
            assert abs((1.0 - best) - sin2) < 1e-12


class TestCqi:
    # quantize_cqi covers [-10, +15] dB around the mean: a mean of 1 gives [-10, 15] dB
    def test_midpoint_reconstruction(self):
        width = 25.0 / 16.0
        rec_db = 10.0 * np.log10(quantize_cqi(np.array([1.0]), 4, 1.0))
        assert abs(rec_db[0] - 0.0) <= width / 2 + 1e-12
        assert abs(rec_db[0] - (-10.0 + 6.5 * width)) < 1e-12

    def test_clamping(self):
        width = 25.0 / 8.0
        hi, lo, zero = 10 * np.log10(quantize_cqi(np.array([1e9, 1e-9, 0.0]), 3, 1.0))
        assert abs(hi - (15.0 - width / 2)) < 1e-12
        assert abs(lo - (-10.0 + width / 2)) < 1e-12
        assert zero == lo

    def test_half_cell_error_bound_inside_range(self):
        width = 25.0 / 32.0
        v = 10.0 ** RngStream(20).generator().uniform(-1.0, 1.5, 100)
        rec = quantize_cqi(v, 5, 1.0)
        assert np.all(np.abs(10 * np.log10(rec) - 10 * np.log10(v)) <= width / 2 + 1e-9)

    def test_array_form_matches_scalar_oracle(self):
        v = RngStream(30).generator().lognormal(1.0, 2.0, size=(50, 40))
        got = quantize_cqi(v, 4, 4.0)
        want = np.array([[oracle_quantize_cqi(float(x), 4, 4.0) for x in row] for row in v])
        assert got.shape == v.shape
        # the dB conversions may differ from the scalar math module in the last bit
        np.testing.assert_allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0.0)

    def test_exact_cell_edges_go_to_the_upper_cell(self):
        # a mean of 10 gives [0, 25] dB in 6.25 dB cells; every edge converts to and from dB exactly
        edge_db = np.arange(5) * 6.25
        edges = 10.0 ** (edge_db / 10.0)
        np.testing.assert_array_equal(10.0 * np.log10(edges), edge_db)
        got = quantize_cqi(edges, 2, 10.0)
        idx = np.minimum(np.arange(5), 3)  # the top edge clamps to the last cell
        np.testing.assert_allclose(got, 10.0 ** ((idx + 0.5) * 6.25 / 10.0), rtol=1e-15)
        want = [oracle_quantize_cqi(float(x), 2, 10.0) for x in edges]
        np.testing.assert_allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0.0)

    def test_nonpositive_and_nonfinite_map_to_lowest_level(self):
        v = np.array([0.0, -0.0, -3.0, -np.inf, np.inf, np.nan])
        lowest = oracle_quantize_cqi(1e-30, 4, 4.0)
        got = quantize_cqi(v, 4, 4.0)
        np.testing.assert_allclose(got, lowest, rtol=4 * np.finfo(float).eps)
        for x, g in zip(v, got):
            assert g == pytest.approx(oracle_quantize_cqi(float(x), 4, 4.0), rel=1e-15)


class TestDispatcher:
    # orthosets names PU2RC's codebook of sets, not a per-user quantizer
    @pytest.mark.parametrize("nt", [1, 4])
    @pytest.mark.parametrize("kind", ["magic", "orthosets"])
    def test_unknown_kind(self, kind, nt):
        h = complex_gaussian(RngStream(29).generator(), (2, 3, nt))
        with pytest.raises(ValueError, match=f"unknown quantizer kind '{kind}'; known: "):
            quantize_directions(h, kind, 4, [None] * 2)

    def test_perfect_kind(self):
        rng = RngStream(21).generator()
        h = complex_gaussian(rng, (5, 4))
        dirs, sin2 = _quantize(h, "perfect", 0, rng)
        np.testing.assert_array_equal(sin2, np.zeros(5))
        u = h / np.linalg.norm(h, axis=1, keepdims=True)
        np.testing.assert_allclose(dirs, u)

    @pytest.mark.parametrize("kind", ["rvq_statistical", "rvq_explicit", "scalar", "idealized"])
    def test_batch_shapes_and_consistency(self, kind):
        rng = RngStream(22).generator()
        h = complex_gaussian(rng, (3, 6, 4))
        dirs, sin2 = quantize_directions(h, kind, 6, [rng] * 3)
        assert dirs.shape == (3, 6, 4) and sin2.shape == (3, 6)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=-1), 1.0, atol=1e-9)
        u = h / np.linalg.norm(h, axis=-1, keepdims=True)
        cos2 = np.abs(np.sum(u.conj() * dirs, axis=-1)) ** 2
        np.testing.assert_allclose(cos2, 1.0 - sin2, atol=1e-9)

    @pytest.mark.parametrize("nt", [1, 2, 4])
    @pytest.mark.parametrize("kind", QUANTIZER_KINDS)
    def test_sin2_in_unit_interval(self, kind, nt):
        h = complex_gaussian(RngStream(23, nt).generator(), (50, 40, nt))
        rngs = [RngStream(24, t).generator() for t in range(50)]
        _, sin2 = quantize_directions(h, kind, 4, rngs)
        assert np.all((sin2 >= 0.0) & (sin2 <= 1.0))
        if nt == 1:  # every direction is exact
            np.testing.assert_array_equal(sin2, 0.0)

    @pytest.mark.parametrize("bits", [1, 6, 24])
    @pytest.mark.parametrize("kind", QUANTIZER_KINDS)
    def test_single_antenna_feedback_is_exact(self, kind, bits):
        # one antenna: a direction is a unit scalar, so every kind feeds it back exactly
        h = complex_gaussian(RngStream(27, bits).generator(), (4, 9, 1))
        rngs = [RngStream(28, t).generator() for t in range(4)]
        states = [rng.bit_generator.state for rng in rngs]
        dirs, sin2 = quantize_directions(h, kind, bits, rngs)
        np.testing.assert_array_equal(dirs, h / np.linalg.norm(h, axis=-1, keepdims=True))
        np.testing.assert_array_equal(sin2, np.zeros((4, 9)))
        assert [rng.bit_generator.state for rng in rngs] == states  # nothing drawn

    @pytest.mark.parametrize("kind", QUANTIZER_KINDS)
    def test_strided_stacks_quantize_like_contiguous_ones(self, kind):
        # a permuted or Fortran-ordered stack has no contiguous last axis, so no real view
        h = complex_gaussian(RngStream(25).generator(), (3, 9, 4))[..., [2, 0, 3, 1]]
        want = quantize_directions(np.ascontiguousarray(h), kind, 5,
                                   [RngStream(26, t).generator() for t in range(3)])
        for stack in (h, np.asfortranarray(h)):
            got = quantize_directions(stack, kind, 5, [RngStream(26, t).generator() for t in range(3)])
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


# (kind, bits, nt, K): 5 trials of K = 37 rows leave a short last explicit-RVQ
# scan group (64 rows per group at B=6, 16 at B=8, 2 at B=11; groups span trials,
# and at B=2 one group of 1024 rows holds all of them).
STACK_CASES = [("perfect", 0, 4, 7), ("rvq_statistical", 10, 4, 37), ("rvq_statistical", 3, 2, 5),
               ("idealized", 8, 3, 37), ("rvq_explicit", 2, 4, 37), ("rvq_explicit", 6, 4, 37),
               ("rvq_explicit", 8, 2, 37), ("rvq_explicit", 11, 4, 6), ("rvq_explicit", 4, 1, 37),
               ("scalar", 3, 4, 37), ("scalar", 6, 2, 37), ("scalar", 16, 4, 37), ("scalar", 4, 1, 37)]


class TestStackedAgainstPerRowOracles:
    """Each block of a stack draws from its own stream exactly what the
    per-row quantizers draw, row by row, and quantizes to the same result."""

    @pytest.mark.parametrize("kind,bits,nt,users", STACK_CASES)
    def test_matches_per_row_oracle(self, kind, bits, nt, users):
        trials = 5
        h = complex_gaussian(RngStream(40).generator(), (trials, users, nt))
        dirs, sin2 = quantize_directions(h, kind, bits, [RngStream(41, t).generator() for t in range(trials)])
        for t in range(trials):
            want_dirs, want_sin2 = oracle_quantize_directions(h[t], kind, bits,
                                                              RngStream(41, t).generator())
            if kind == "scalar":
                # axis reductions instead of the 1-D BLAS norm and dot: last-bit differences
                np.testing.assert_allclose(dirs[t], want_dirs, rtol=0, atol=1e-14)
                np.testing.assert_allclose(sin2[t], want_sin2, rtol=0, atol=1e-14)
            elif kind == "rvq_explicit":
                np.testing.assert_array_equal(dirs[t], want_dirs)  # the same codewords
                np.testing.assert_allclose(sin2[t], want_sin2, rtol=0, atol=1e-15)
            elif kind in ("rvq_statistical", "idealized"):
                # the same errors, placed by real-view contractions instead of the oracle's
                # unit-row projection: last-bit differences
                np.testing.assert_allclose(dirs[t], want_dirs, rtol=0, atol=1e-15)
                np.testing.assert_array_equal(sin2[t], want_sin2)
            else:
                np.testing.assert_array_equal(dirs[t], want_dirs)
                np.testing.assert_array_equal(sin2[t], want_sin2)

    def test_stream_continues_after_the_last_row(self):
        h = complex_gaussian(RngStream(42).generator(), (2, 9, 4))
        rngs = [RngStream(43, t).generator() for t in range(2)]
        quantize_directions(h, "rvq_explicit", 7, rngs)  # 32 rows per scan group: one spans both trials
        for t, rng in enumerate(rngs):
            ref = RngStream(43, t).generator()
            oracle_quantize_directions(h[t], "rvq_explicit", 7, ref)
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("group_codewords", [1, 64, 10_000])
    def test_scan_group_size_does_not_change_results(self, group_codewords, monkeypatch):
        h = complex_gaussian(RngStream(44).generator(), (3, 11, 4))
        want = quantize_directions(h, "rvq_explicit", 5, [RngStream(45, t).generator() for t in range(3)])
        monkeypatch.setattr(quantization, "CODEWORDS_PER_SCAN", group_codewords)
        got = quantize_directions(h, "rvq_explicit", 5, [RngStream(45, t).generator() for t in range(3)])
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    def test_degenerate_pivot_inside_a_stack(self):
        h = complex_gaussian(RngStream(46).generator(), (4, 6, 4))
        h[2, 3, 0] = 0.0
        with pytest.raises(DegeneratePivotError):
            quantize_directions(h, "scalar", 8, [None] * 4)


class _ReplayedDraws:
    """A stream whose standard_normal hands out prepared draws in order and
    notes the shape of each call's output."""

    def __init__(self, draws):
        self.draws, self.pos, self.shapes = np.ravel(draws), 0, []

    def standard_normal(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        self.shapes.append(out.shape)
        out[...] = self.draws[self.pos : self.pos + out.size].reshape(out.shape)
        self.pos += out.size
        return out


def _scan_sizes(monkeypatch):
    """Codebook sizes the explicit scan normalizes, one per complex_pairs call."""
    sizes = []

    def recording(z):
        sizes.append(z.shape[-2])
        return complex_pairs(z)

    monkeypatch.setattr(quantization, "complex_pairs", recording)
    return sizes


class TestExplicitScan:
    """The explicit scan normalizes only each row's winner, the argmax of its
    real-arithmetic score; that is the codeword the full normalized scan picks."""

    @pytest.mark.parametrize("nt", [2, 3, 4])
    @pytest.mark.parametrize("bits", [2, 6, 8, 11])
    def test_winner_scan_equals_full_scan(self, bits, nt, monkeypatch):
        # 13 x 79 rows end on a 3-row group at B = 2, 6 and 8; groups span trials
        trials, users = (13, 79) if bits < 11 else (2, 5)
        h = complex_gaussian(RngStream(50, nt).generator(), (trials, users, nt))
        sizes = _scan_sizes(monkeypatch)
        rngs = [RngStream(51, t).generator() for t in range(trials)]
        dirs, sin2 = quantize_directions(h, "rvq_explicit", bits, rngs)
        assert set(sizes) == {1}
        for t in range(trials):
            want_dirs, want_sin2 = oracle_quantize_directions(h[t], "rvq_explicit", bits,
                                                              RngStream(51, t).generator())
            np.testing.assert_array_equal(dirs[t], want_dirs)
            np.testing.assert_allclose(sin2[t], want_sin2, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("nt", [2, 4])
    @pytest.mark.parametrize("scale", [2.0, 3.0, 0.3])
    def test_codewords_equal_up_to_scale(self, scale, nt, monkeypatch):
        # row 1's codewords 3 and 9 both point along its channel; rounding may rank
        # either first, and both normalize to its direction
        bits, users = 4, 3
        h = complex_gaussian(RngStream(52, nt).generator(), (1, users, nt))
        z = RngStream(53, nt).generator().standard_normal((users, 2, 2**bits, nt))
        z[1, :, 3] = np.stack((h[0, 1].real, h[0, 1].imag)) * math.sqrt(2.0)
        z[1, :, 9] = scale * z[1, :, 3]
        sizes = _scan_sizes(monkeypatch)
        dirs, sin2 = quantize_directions(h, "rvq_explicit", bits, [_ReplayedDraws(z)])
        assert sizes == [1]  # the winners alone, tie or no tie
        want_dirs, want_sin2 = oracle_quantize_directions(h[0], "rvq_explicit", bits, _ReplayedDraws(z))
        np.testing.assert_array_equal(dirs[0, ::2], want_dirs[::2])
        np.testing.assert_allclose(sin2[0], want_sin2, rtol=0, atol=1e-15)
        codebook = random_codebook(_ReplayedDraws(z[1]), bits, nt)
        assert any(np.array_equal(dirs[0, 1], codebook[i]) for i in (3, 9))
        if scale == 2.0:  # exact scaling: equal scores, and the lower index wins
            np.testing.assert_array_equal(dirs[0, 1], codebook[3])

    def test_sixteen_bits_scans_one_row_at_a_time(self, monkeypatch):
        h = complex_gaussian(RngStream(54).generator(), (1, 2, 4))
        draws = _ReplayedDraws(RngStream(55).generator().standard_normal((2, 2, 2**16, 4)))
        sizes = _scan_sizes(monkeypatch)
        dirs, sin2 = quantize_directions(h, "rvq_explicit", 16, [draws])
        assert draws.shapes == [(1, 2, 2**16, 4)] * 2  # one row's codebook per scan group
        assert sizes == [1]  # the winners alone
        want_dirs, want_sin2 = oracle_quantize_directions(h[0], "rvq_explicit", 16,
                                                          RngStream(55).generator())
        np.testing.assert_array_equal(dirs[0], want_dirs)
        np.testing.assert_allclose(sin2[0], want_sin2, rtol=0, atol=1e-15)


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=2, max_value=6))
@settings(max_examples=60, deadline=None)
def test_bit_split_conserves_budget(bits, nt):
    p, m = scalar_bit_split(bits, nt)
    assert p.sum() + m.sum() == bits
    assert (p >= m).all()  # each phase slot is filled before its magnitude slot


class TestReadRows:
    """A `rows` mask: the read rows quantize as in an unmasked call, the others come back
    zero. Explicit RVQ draws one codebook per read row, in row order, so its read rows
    equal an unmasked call of the read rows alone, and its stream ends after their codebooks."""

    @pytest.mark.parametrize("kind,bits", [("rvq_explicit", 2), ("rvq_explicit", 6), ("rvq_explicit", 11),
                                           ("scalar", 3), ("scalar", 6), ("scalar", 16),
                                           ("rvq_statistical", 8), ("idealized", 8), ("perfect", 0)])
    def test_read_rows_equal_the_unmasked_rows(self, kind, bits):
        trials, users, nt = 5, 9, 4
        h = complex_gaussian(RngStream(80).generator(), (trials, users, nt))
        rows = RngStream(81).generator().random((trials, users)) < 0.4
        rows[0], rows[1] = False, True  # a trial with no read row, and one with every row read
        rows[2, -1] = True
        rngs = [RngStream(82, t).generator() for t in range(trials)]
        got = quantize_directions(h, kind, bits, rngs, rows)
        for g in got:
            assert not g[~rows].any()
        if kind != "rvq_explicit":
            want = quantize_directions(h, kind, bits, [RngStream(82, t).generator() for t in range(trials)])
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g[rows], w[rows])
            return
        for t, rng in enumerate(rngs):
            read = np.flatnonzero(rows[t])
            want = quantize_directions(h[t, read][None], kind, bits, [RngStream(82, t).generator()])
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g[t, read], w[0])
            ref = RngStream(82, t).generator()
            ref.standard_normal((read.size, 2, 2**bits, nt))
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("bits", [2, 6, 11])
    def test_an_unmasked_explicit_call_draws_every_rows_codebook(self, bits):
        trials, users, nt = 3, 9, 4
        h = complex_gaussian(RngStream(84).generator(), (trials, users, nt))
        rngs = [RngStream(85, t).generator() for t in range(trials)]
        got = quantize_directions(h, "rvq_explicit", bits, rngs)
        want = quantize_directions(h, "rvq_explicit", bits, [RngStream(85, t).generator() for t in range(trials)],
                                   np.ones((trials, users), dtype=bool))
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        for t, rng in enumerate(rngs):
            ref = RngStream(85, t).generator()
            ref.standard_normal((users, 2, 2**bits, nt))
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_degenerate_pivot_of_an_unread_row(self):
        h = complex_gaussian(RngStream(83).generator(), (2, 3, 4))
        h[1, 2, 0] = 0.0
        rows = np.zeros((2, 3), dtype=bool)
        rows[:, 0] = True
        with pytest.raises(DegeneratePivotError):
            quantize_directions(h, "scalar", 8, [None] * 2, rows)
