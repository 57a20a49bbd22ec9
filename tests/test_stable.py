"""Kernels in _stable must hold relative accuracy in hostile corners."""

import math

import pytest
from hypothesis import given, strategies as st

from dpnoise._stable import (
    coth_half_excess,
    exp_minus_one_minus_x,
    exp_remainder_order3,
    radius_scale_ratio,
    truncation_amplitude_factor,
    truncation_power_factor,
    x_over_expm1,
)


class TestRadiusScaleRatio:
    def test_matches_direct_formula_in_easy_regime(self):
        for eps in (1e-4, 0.1, 1.0, 5.0):
            for delta in (1e-6, 1e-3, 0.1):
                direct = math.log1p(math.expm1(eps) / (2.0 * delta))
                assert radius_scale_ratio(eps, delta) == pytest.approx(
                    direct, rel=1e-15
                )

    def test_frozen_reference_values(self):
        assert radius_scale_ratio(1.0, 1e-5) == pytest.approx(
            11.361114778489599, rel=1e-15
        )
        # deep-delta value that would overflow the naive ratio
        assert radius_scale_ratio(1.0, 1e-300) == pytest.approx(
            690.6237055722667, rel=1e-13
        )

    def test_no_overflow_for_large_epsilon(self):
        value = radius_scale_ratio(800.0, 1e-300)
        assert math.isfinite(value)
        # eps + log(1/(2 delta)) dominates up to a vanishing correction
        assert value == pytest.approx(800.0 + math.log(0.5e300), rel=1e-12)

    @pytest.mark.parametrize(
        "eps,delta", [(1.0, 1e-320), (1e-3, 5e-324), (40.0, 1e-320), (50.0, 5e-324)]
    )
    def test_subnormal_delta_matches_mpmath(self, eps, delta):
        # (1 - e^-eps)/(2 delta) overflows a double here; the result was inf
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            exact = mpmath.log1p(
                mpmath.expm1(mpmath.mpf(eps)) / (2 * mpmath.mpf(delta))
            )
        assert radius_scale_ratio(eps, delta) == pytest.approx(float(exact), rel=1e-14)

    def test_branches_agree_at_the_switch(self):
        # pick delta so the easy-regime ratio sits just on either side of 1e15
        eps = 1.0
        for delta in (math.expm1(eps) / 2e15 * 1.01, math.expm1(eps) / 2e15 * 0.99):
            easy = math.log1p(math.expm1(eps) / (2.0 * delta))
            assert radius_scale_ratio(eps, delta) == pytest.approx(easy, rel=1e-13)

    @given(
        st.floats(min_value=1e-9, max_value=30.0),
        st.floats(min_value=1e-12, max_value=0.499),
    )
    def test_positive_and_monotone_in_one_over_delta(self, eps, delta):
        x = radius_scale_ratio(eps, delta)
        assert x > 0.0
        assert radius_scale_ratio(eps, delta / 2.0) > x


class TestSeriesKernels:
    def test_reject_negative(self):
        with pytest.raises(ValueError):
            exp_minus_one_minus_x(-0.1)
        with pytest.raises(ValueError):
            exp_remainder_order3(-0.1)

    def test_agree_with_direct_above_cutoff(self):
        for x in (0.5, 0.75, 2.0, 10.0):
            assert exp_minus_one_minus_x(x) == math.expm1(x) - x
            assert exp_remainder_order3(x) == math.expm1(x) - x - 0.5 * x * x

    def test_small_x_series_keeps_relative_accuracy(self):
        # direct evaluation loses ~all digits here; the series must not.
        x = 1e-8
        assert exp_minus_one_minus_x(x) == pytest.approx(
            0.5 * x * x * (1.0 + x / 3.0), rel=1e-14
        )
        assert exp_remainder_order3(x) == pytest.approx(
            x**3 / 6.0 * (1.0 + x / 4.0), rel=1e-14
        )

    def test_continuity_at_the_cutoff(self):
        below = exp_minus_one_minus_x(0.5 - 1e-12)
        above = exp_minus_one_minus_x(0.5 + 1e-12)
        assert below == pytest.approx(above, rel=1e-10)


class TestTruncationFactors:
    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            truncation_amplitude_factor(0.0)
        with pytest.raises(ValueError):
            truncation_power_factor(-1.0)

    def test_known_point(self):
        # at x = log(3/2): amplitude factor = 1 - 2 log(3/2)
        x = math.log(1.5)
        assert truncation_amplitude_factor(x) == pytest.approx(
            1.0 - 2.0 * math.log(1.5), rel=1e-14
        )
        assert truncation_power_factor(x) == pytest.approx(
            1.0 - math.log(1.5) ** 2 - 2.0 * math.log(1.5), rel=1e-13
        )

    def test_limits(self):
        # tiny radius: x/2 and x^2/6; huge radius: 1
        assert truncation_amplitude_factor(1e-9) == pytest.approx(0.5e-9, rel=1e-9)
        assert truncation_power_factor(1e-6) == pytest.approx(
            1e-12 / 6.0, rel=1e-6
        )
        assert truncation_amplitude_factor(750.0) == pytest.approx(1.0, abs=1e-15)
        assert truncation_power_factor(750.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("x", [700.1, 1e200, math.inf])
    def test_no_truncation_is_exactly_one(self, x):
        # an infinite radius is the Laplace mechanism; past x ~ 1.9e154 the
        # power factor's (x + x^2/2) e^-x was inf * 0 = NaN
        assert truncation_amplitude_factor(x) == 1.0
        assert truncation_power_factor(x) == 1.0

    def test_overflow_guard_branch_is_continuous(self):
        for fn in (truncation_amplitude_factor, truncation_power_factor):
            assert fn(699.9) == pytest.approx(fn(700.1), rel=1e-12)

    @given(st.floats(min_value=1e-6, max_value=25.0))
    def test_monotone_increasing_and_bounded(self, x):
        # beyond x ~ 40 both factors round to exactly 1.0, so strict
        # comparisons only make sense below that
        amp = truncation_amplitude_factor(x)
        pwr = truncation_power_factor(x)
        assert 0.0 < pwr < amp < 1.0
        assert truncation_amplitude_factor(x * 1.1) > amp


class TestLowerBoundKernels:
    """x/(e^x - 1) and x coth(x/2) - 2, which the lower bounds take from
    here, against 60-digit mpmath from tiny x to past e^x's overflow."""

    POINTS = [1e-300, 1e-150, 1e-103, 1e-20, 9.9e-9, 1e-8, 1.01e-8, 1e-5, 0.01,
              0.3, 1.0, 1.99, 2.0, 2.01, 5.0, 40.0, 100.0, 700.0, 709.0]

    @pytest.mark.parametrize("x", POINTS)
    def test_against_mpmath(self, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(400):  # x coth(x/2) - 2 cancels 2 log10(1/x) digits
            X = mpmath.mpf(x)
            g = float(X / mpmath.expm1(X))
            k = float(X * mpmath.coth(X / 2) - 2)
        assert x_over_expm1(x) == pytest.approx(g, rel=4e-16, abs=0.0)
        assert coth_half_excess(x) == pytest.approx(k, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("x", [750.0, 1e200])
    def test_x_over_expm1_runs_down_to_zero(self, x):
        # e^x overflows here; x e^-x / (1 - e^-x) does not
        assert x_over_expm1(x) == 0.0
