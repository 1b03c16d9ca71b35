import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (bopt_scaling_report, phi_from_training_delay, rbf_matching_budget, subf_bopt,
                      subf_rate_full, zf_loss_bound, zf_rate_linear_regime, zf_rate_training_delay)
from fbsim import analytic as A
from fbsim.numerics import RngStream


class TestLossBound:
    def test_frozen_anchor_values(self):
        assert abs(zf_loss_bound(10.0, 4, 10) - 3.9772346050975265) < 1e-9
        assert abs(zf_loss_bound(10.0, 4, 17) - 1.0370304695539692) < 1e-9
        # rounded headline values
        assert round(zf_loss_bound(10.0, 4, 10), 2) == 3.98
        assert round(zf_loss_bound(10.0, 4, 17), 2) == 1.04

    def test_monotone_decreasing_in_bits(self):
        vals = [zf_loss_bound(10.0, 4, b) for b in range(1, 30)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            zf_loss_bound(10.0, 4, -1)


class TestRateApprox:
    def test_frozen_anchor(self):
        assert abs(A.zf_rate_approx(snr=10.0, nt=4, tfb=300, b=20) - 13.457708942783004) < 1e-9

    def test_penalty_positive_and_decreasing(self):
        pens = [A.zf_penalty_approx(10.0, 4, 300, b) for b in (10, 15, 20, 25)]
        assert all(p > 0 for p in pens)
        assert all(b < a for a, b in zip(pens, pens[1:]))

    def test_peak_near_fixed_point(self):
        b_star = A.zf_bopt_fixed_point(10.0, 4, 300).b
        r = lambda b: A.zf_rate_approx(10.0, 4, 300, b)
        assert r(b_star) > r(b_star - 2.0)
        assert r(b_star) > r(b_star + 2.0)

    # Every closed form runs the same point check.
    @pytest.mark.parametrize("form", [A.zf_rate_approx, A.zf_penalty_approx, A.subf_rate_approx],
                             ids=["rate_approx", "penalty", "subf"])
    def test_parameter_validation(self, form):
        with pytest.raises(ValueError, match="b must be >= log2"):
            form(10.0, 4, 300, 0.5)
        with pytest.raises(ValueError, match="tfb must be >= b"):
            form(10.0, 4, 300, 500)
        valid = dict(snr=10.0, nt=4, tfb=300, b=20)
        assert math.isfinite(form(**valid))
        for name, value in [("snr", 0.0), ("snr", -1.0), ("snr", math.nan), ("snr", math.inf),
                            ("tfb", math.nan), ("tfb", math.inf), ("b", math.nan), ("b", math.inf)]:
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                form(**{**valid, name: value})

    @given(snr_db=st.lists(st.floats(-60.0, 300.0), min_size=2, max_size=2), nt=st.integers(2, 8),
           b_extra=st.floats(0.0, 100.0), tfb_extra=st.floats(0.0, 5000.0))
    @settings(max_examples=200, deadline=None)
    def test_rate_is_finite_and_non_decreasing_in_snr(self, snr_db, nt, b_extra, tfb_extra):
        # Where the rate saturates, a higher SNR can round it down by a few ulps.
        b = math.log2(nt) + b_extra
        lo, hi = (A.zf_rate_approx(10.0 ** (x / 10.0), nt, b + tfb_extra, b)
                  for x in sorted(snr_db))
        assert math.isfinite(lo) and math.isfinite(hi)
        assert hi >= lo * (1.0 - 1e-12)

    def test_linear_regime_diagnostic(self):
        assert abs(zf_rate_linear_regime(4, 9) - 12.0) < 1e-12


# zf_bopt_fixed_point's B may fall short of the best of a grid by rounding only.
BOPT_RTOL = 1e-12


def _zf_rates(snr, nt, tfb, b):
    """zf_rate_approx at phi = 0 for an array of B."""
    div = np.log(tfb * nt / np.asarray(b))
    return nt * np.log2(1.0 + (snr / nt) * div / (1.0 + (snr / nt) * 2.0 ** (-np.asarray(b) / (nt - 1)) * div))


class TestBitOptimizers:
    def test_fixed_point_frozen_values(self):
        fp10 = A.zf_bopt_fixed_point(10.0, 4, 300)
        fp5 = A.zf_bopt_fixed_point(10.0**0.5, 4, 300)
        assert not fp10.at_boundary and not fp5.at_boundary
        assert abs(fp10.b - 23.10629366899957) < 1e-6
        assert abs(fp5.b - 17.5105238877004) < 1e-6
        assert abs(fp10.residual) < 1e-8
        assert abs(fp5.residual) < 1e-8

    def test_lambert_form_agrees_with_fixed_point(self):
        for snr_db, tfb in [(10.0, 300), (5.0, 300), (10.0, 500), (15.0, 200), (5.0, 150)]:
            snr = 10.0 ** (snr_db / 10.0)
            fp = A.zf_bopt_fixed_point(snr, 4, tfb)
            lw = A.zf_bopt_lambert(snr, 4, tfb)
            assert abs(fp.b - lw) < 1e-4

    def test_optimum_grows_with_snr_and_budget(self):
        b1 = A.zf_bopt_fixed_point(10.0 ** 0.5, 4, 300).b
        b2 = A.zf_bopt_fixed_point(10.0, 4, 300).b
        b3 = A.zf_bopt_fixed_point(10.0, 4, 600).b
        assert b1 < b2 < b3

    def test_infeasible_parameters(self):
        with pytest.raises(ValueError):
            A.zf_bopt_fixed_point(-1.0, 4, 300)
        with pytest.raises(ValueError):
            A.zf_bopt_fixed_point(10.0, 4, 4)
        with pytest.raises(ValueError, match="tfb too small"):
            A.zf_bopt_lambert(100.0, 8, 20)  # T_fb/nt = 2.5 < log2 nt = 3

    @pytest.mark.parametrize("snr", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("solver", [A.zf_bopt_fixed_point, A.zf_bopt_lambert])
    def test_snr_must_be_finite_and_positive(self, solver, snr):
        with pytest.raises(ValueError, match=r"snr must be finite and > 0, got "):
            solver(snr, 4, 300)

    def test_scaling_report(self):
        rep = bopt_scaling_report(10.0, 4, 300)
        assert abs(rep["exact"] - 23.10629366899957) < 1e-6
        assert rep["nt_term"] == 3 * math.log2(10.0)
        assert rep["snr_term"] == 3 * math.log2(2.5)
        r2 = bopt_scaling_report(10.0, 4, 900)
        assert r2["exact"] > rep["exact"]
        assert r2["loglog_tfb"] > rep["loglog_tfb"]

    @pytest.mark.parametrize("snr_db,nt,tfb,want", [
        (5.0, 8, 75, 75 / 8),  # the low end's rate is 6.907, the high end's 7.980
        (-10.0, 6, 20, math.log2(6)),  # 0.514 at the low end, 0.484 at the high end
        (2.0, 7, 30, 30 / 7),  # the one root, B = 2.976, gives 4.5715 and the high end 4.5764
    ])
    def test_fixed_point_boundary_is_the_higher_rate_end(self, snr_db, nt, tfb, want):
        fp = A.zf_bopt_fixed_point(10.0 ** (snr_db / 10.0), nt, tfb)
        assert fp.at_boundary and fp.b == want
        assert fp.residual == A._bopt_residual(want, 10.0 ** (snr_db / 10.0), nt, tfb)

    @pytest.mark.parametrize("snr_db,nt,tfb,want", [
        (0.0, 8, 150, 11.18149772213756),  # 4.601; the low end gives 4.534
        (1.0, 7, 50, 6.807095521173909),
        (1.0, 8, 75, 9.343104788438524),
    ])
    def test_fixed_point_finds_the_maximum_between_two_negative_ends(self, snr_db, nt, tfb, want):
        # The residual is negative at both ends and has two roots: a minimum, then a maximum.
        snr = 10.0 ** (snr_db / 10.0)
        lo, hi = math.log2(nt), tfb / nt
        assert A._bopt_residual(lo, snr, nt, tfb) < 0 and A._bopt_residual(hi, snr, nt, tfb) < 0
        fp = A.zf_bopt_fixed_point(snr, nt, tfb)
        assert not fp.at_boundary and abs(fp.residual) < 1e-9
        assert fp.b == pytest.approx(want, rel=1e-9)
        rate = lambda b: A.zf_rate_approx(snr, nt, tfb, b)
        assert rate(fp.b) > max(rate(lo), rate(hi))

    def test_fixed_point_is_the_best_b_on_the_grid(self):
        # Every (SNR, nt, T_fb) of the grid: the returned B's rate is at least the rate at each
        # of 200 evenly spaced B of the interval, and an end is returned only where it wins.
        # The Lambert form either leaves the W_-1 branch or returns a B of the interval, and
        # returns an end only where the fixed point does.
        boundary = infeasible = 0
        for snr_db in range(-10, 41):
            snr = 10.0 ** (snr_db / 10.0)
            for nt in range(2, 9):
                for tfb in (20, 30, 50, 75, 100, 150, 200, 300, 500, 1000, 2000):
                    lo, hi = math.log2(nt), tfb / nt
                    if not lo < hi:
                        continue
                    fp = A.zf_bopt_fixed_point(snr, nt, tfb)
                    boundary += fp.at_boundary
                    assert fp.at_boundary == (fp.b in (lo, hi))
                    got = A.zf_rate_approx(snr, nt, tfb, fp.b)
                    assert got == pytest.approx(_zf_rates(snr, nt, tfb, fp.b), rel=1e-13)
                    best = _zf_rates(snr, nt, tfb, np.linspace(lo, hi, 200)).max()
                    assert got >= best * (1.0 - BOPT_RTOL), (snr_db, nt, tfb)
                    try:
                        lw = A.zf_bopt_lambert(snr, nt, tfb)
                    except A.InfeasibleRegimeError:
                        infeasible += 1
                        continue
                    assert lo <= lw <= hi and (lw not in (lo, hi) or lw == fp.b), (snr_db, nt, tfb)
        assert boundary == 2009
        assert infeasible == 768
        assert A.zf_bopt_lambert(10.0**0.5, 8, 75) == 75 / 8  # the iteration alone gives 22.78

    @given(snr_db=st.floats(-10.0, 40.0), nt=st.integers(2, 8), tfb=st.integers(20, 2000))
    @settings(max_examples=200, deadline=None)
    def test_fixed_point_is_the_best_b_anywhere(self, snr_db, nt, tfb):
        snr, lo, hi = 10.0 ** (snr_db / 10.0), math.log2(nt), tfb / nt
        if not lo < hi:
            with pytest.raises(ValueError, match="tfb too small"):
                A.zf_bopt_fixed_point(snr, nt, tfb)
            return
        fp = A.zf_bopt_fixed_point(snr, nt, tfb)
        assert lo <= fp.b <= hi
        best = _zf_rates(snr, nt, tfb, np.linspace(lo, hi, 200)).max()
        assert _zf_rates(snr, nt, tfb, fp.b) >= best * (1.0 - BOPT_RTOL)

    # Budgets up to 1e300 and every SNR a config accepts (up to 3000 dB). There every root lies
    # below about 1024 (nt - 1) bits, where the bisection's final width (1e-13 B) moves the
    # residual by under 4e-11, so its residual test ends the search: an interior B is a root
    # to 1e-10. When the bisection stopped after 200 halvings, 1e100 gave B = 1.56e39.
    @given(snr_db=st.floats(-3000.0, 3000.0), nt=st.integers(2, 8), log_tfb=st.floats(0.0, 300.0))
    @example(snr_db=10.0, nt=4, log_tfb=100.0)
    @settings(max_examples=300, deadline=None)
    def test_interior_b_is_a_root_at_any_budget(self, snr_db, nt, log_tfb):
        snr, tfb = 10.0 ** (snr_db / 10.0), 10.0**log_tfb
        if not math.log2(nt) < tfb / nt:
            with pytest.raises(ValueError, match="tfb too small"):
                A.zf_bopt_fixed_point(snr, nt, tfb)
            return
        fp = A.zf_bopt_fixed_point(snr, nt, tfb)
        assert fp.at_boundary == (fp.b in (math.log2(nt), tfb / nt))
        assert fp.at_boundary or abs(fp.residual) <= 1e-10, fp

    # Two negative ends occur at low SNR; where d ln g/dB changes sign, its bisected root is
    # the residual's maximum, which decides whether the residual has two roots or none.
    @given(snr_db=st.floats(-10.0, 5.0), nt=st.integers(2, 8), tfb=st.integers(20, 2000))
    @example(snr_db=1.0, nt=8, tfb=75)
    @settings(max_examples=200, deadline=None)
    def test_slope_root_is_the_residual_maximum(self, snr_db, nt, tfb):
        snr, lo, hi = 10.0 ** (snr_db / 10.0), math.log2(nt), tfb / nt
        assume(lo < hi)
        residual = lambda b: A._bopt_residual(b, snr, nt, tfb)
        assume(residual(lo) < 0 and residual(hi) < 0)
        assume(A._ln_g_slope(lo, nt, tfb) > 0 > A._ln_g_slope(hi, nt, tfb))
        peak = A._bisect(lambda b: A._ln_g_slope(b, nt, tfb), lo, hi)
        assert lo < peak < hi
        assert residual(peak) >= max(residual(b) for b in np.linspace(lo, hi, 200)) - 1e-12

    def test_infeasible_regime_is_raised_by_name(self):
        with pytest.raises(A.InfeasibleRegimeError, match="must be >= e"):
            subf_bopt(2, 7)  # log 14 < e
        with pytest.raises(A.InfeasibleRegimeError, match="below -1/e"):
            A.zf_bopt_lambert(0.1, 4, 300)  # -10 dB

    def test_lambert_reports_non_convergence(self, monkeypatch):
        converged = A.zf_bopt_lambert(10.0, 4, 300)
        monkeypatch.setattr(A, "LAMBERT_MAX_ITER", 30)
        assert A.zf_bopt_lambert(10.0, 4, 300) == converged
        monkeypatch.setattr(A, "LAMBERT_MAX_ITER", 3)
        with pytest.raises(A.ConvergenceError, match="3 iterations"):
            A.zf_bopt_lambert(10.0, 4, 300)


class TestSingleAntenna:
    """The closed forms divide by nt - 1; nt = 1 is a ValueError, not a ZeroDivisionError."""

    @pytest.mark.parametrize("call", [
        lambda: A.zf_rate_approx(10.0, 1, 300, 5),
        lambda: A.zf_penalty_approx(10.0, 1, 300, 5),
        lambda: A.zf_bopt_fixed_point(10.0, 1, 300),
        lambda: A.zf_bopt_lambert(10.0, 1, 300),
        lambda: A.subf_rate_approx(10.0, 1, 300, 5),
    ], ids=["rate_approx", "penalty", "fixed_point", "lambert", "subf"])
    def test_rejected(self, call):
        with pytest.raises(ValueError, match="nt >= 2"):
            call()


class TestOverflowingBudget:
    """Every closed form and solver takes log(tfb*nt/b): a finite tfb whose tfb*nt overflows
    is a ValueError naming tfb, not a NaN or inf rate, an infinite residual or a Lambert W error."""

    @pytest.mark.parametrize("call", [
        lambda: A.zf_rate_approx(10.0, 4, 1e308, 1e308),
        lambda: A.zf_penalty_approx(10.0, 4, 1e308, 1e308),
        lambda: A.zf_penalty_approx(10.0, 4, 1e308, 2),
        lambda: A.subf_rate_approx(10.0, 4, 1e308, 1e308),
        lambda: A.zf_bopt_fixed_point(10.0, 4, 1e308),
        lambda: A.zf_bopt_lambert(10.0, 4, 1e308),
    ], ids=["rate_approx", "penalty", "penalty_small_b", "subf", "fixed_point", "lambert"])
    def test_budget_whose_product_with_nt_overflows_is_refused(self, call):
        with pytest.raises(ValueError, match=r"^tfb must be finite with a finite tfb\*nt, got tfb=1e\+308"):
            call()


class TestTrainingDelay:
    def test_phi_definition(self):
        assert abs(phi_from_training_delay(1.0, 1.0, 10.0) - 1.0 / 11.0) < 1e-15
        phi = phi_from_training_delay(0.95, 1.0, 10.0)
        assert abs(phi - (1.0 - 0.95**2 + 1.0 / 11.0)) < 1e-15

    def test_snr_shift_identity(self):
        rng = RngStream(0).generator()
        for _ in range(100):
            snr = 10.0 ** rng.uniform(-0.5, 2.0)
            nt = int(rng.integers(2, 7))
            b = float(rng.uniform(math.log2(nt) + 0.5, 30.0))
            tfb = float(b + rng.uniform(50.0, 500.0))
            phi = float(rng.uniform(0.0, 0.5))
            lhs = zf_rate_training_delay(snr, nt, tfb, b, phi)
            snr_eff = snr / (1.0 + phi * nt / (nt - 1) * snr)
            rhs = A.zf_rate_approx(snr_eff, nt, tfb, b)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_with_training_delay_constructor(self):
        p = (10.0, 4, 300, 20)
        assert zf_rate_training_delay(*p, 0.0) == A.zf_rate_approx(*p)
        assert zf_rate_training_delay(*p, phi_from_training_delay(0.95, 1.0, 10.0)) < A.zf_rate_approx(*p)


class TestMatchingBudget:
    def test_frozen_values(self):
        k, t = rbf_matching_budget(300, 4, 10.0**0.5, 20)
        assert abs(k - 4563.359608982287) < 1e-6
        assert abs(t - 9126.719217964574) < 1e-6
        assert abs(t - k * math.log2(4)) < 1e-9

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            rbf_matching_budget(300, 4, 1.0, 0.0)


class TestSubf:
    def test_optimizer_frozen_value_and_rounding(self):
        b = subf_bopt(4, 300)
        assert abs(b - 13.353729670367848) < 1e-9
        assert round(b) == 13

    def test_smaller_budget_frozen_value(self):
        assert abs(subf_bopt(4, 70) - 11.837935335679154) < 1e-9

    def test_rate_forms(self):
        full = subf_rate_full(10.0, 4, 300, 13)
        simp = A.subf_rate_approx(10.0, 4, 300, 13)
        assert full > 0 and simp > 0
        assert abs(full - simp) < 1.0  # the dropped term is small near the optimum

    def test_simplified_form_peaks_near_optimizer(self):
        b_star = subf_bopt(4, 300)
        r = lambda b: A.subf_rate_approx(10.0, 4, 300, b)
        assert r(b_star) >= r(b_star - 3.0)
        assert r(b_star) >= r(b_star + 3.0)

    def test_small_budget_names_the_simplified_forms_domain(self):
        # one user at b = log2 nt: log(tfb*nt/b) - 2^(-b/(nt-1))*log(tfb*nt) = -0.28 <= -1/snr
        with pytest.raises(ValueError, match=r"> -1/snr, got -0\.28\d* <= -0\.1 at snr=10, nt=8, tfb=3, b=3"):
            A.subf_rate_approx(10.0, 8, 3, 3)
        assert A.subf_rate_approx(10.0, 8, 24, 3) == pytest.approx(1.8179466892848484, rel=1e-12)
