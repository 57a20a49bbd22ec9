import math

import pytest

from dpnoise.bounds import (
    BoundPair,
    LowerBoundParams,
    amplitude_lower_bound,
    bound_pair,
    lower_bound_params,
    power_lower_bound,
)
from dpnoise.core import CostKind, DomainError, InvariantError, PrivacyParams
from dpnoise.trunclap import TruncatedLaplace

P_REF = PrivacyParams(1.0, 1e-5)


class TestLowerBoundParams:
    def test_reference_values(self):
        lb = lower_bound_params(P_REF, 1.0)
        assert lb.epsilon == 1.0
        assert lb.sensitivity == 1.0
        assert lb.mass_coeff == pytest.approx(0.31606395820869054, rel=1e-15)
        assert lb.decay_ratio == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert lb.steps_fractional == pytest.approx(11.361114778489599, rel=1e-15)
        assert lb.steps_floor == 11

    def test_mass_coeff_closed_form(self):
        for eps, delta in [(0.1, 1e-3), (2.0, 1e-8), (1e-3, 1e-4)]:
            lb = lower_bound_params(PrivacyParams(eps, delta), 1.0)
            direct = delta * math.exp(-eps) - 0.5 * math.expm1(-eps)
            assert lb.mass_coeff == pytest.approx(direct, rel=1e-14)

    def test_steps_floor_consistent(self):
        for eps, delta in [(0.37, 2e-4), (5.0, 1e-9), (0.01, 1e-2)]:
            lb = lower_bound_params(PrivacyParams(eps, delta), 1.0)
            assert lb.steps_floor == math.floor(lb.steps_fractional)
            assert lb.steps_floor >= 1


class TestClosedFormsAgainstSeries:
    """The staircase construction concentrates mass a*b^k at +-k*sens, so at
    an integer step count both costs reduce to bare power sums; math.fsum
    gives an exactly rounded reference."""

    @pytest.mark.parametrize(
        "eps,n", [(0.3, 7), (1.0, 11), (0.05, 40), (2.0, 4), (0.01, 300)]
    )
    def test_amplitude(self, eps, n):
        lb = lower_bound_params(PrivacyParams(eps, 1e-6), 1.0)
        a, b = lb.mass_coeff, lb.decay_ratio
        ref = 2.0 * a * math.fsum(k * b**k for k in range(n))
        assert amplitude_lower_bound(lb, steps=n) == pytest.approx(ref, rel=5e-14)

    @pytest.mark.parametrize(
        "eps,n", [(0.3, 7), (1.0, 11), (0.05, 40), (2.0, 4), (0.01, 300)]
    )
    def test_power(self, eps, n):
        lb = lower_bound_params(PrivacyParams(eps, 1e-6), 1.0)
        a, b = lb.mass_coeff, lb.decay_ratio
        ref = 2.0 * a * math.fsum(k * k * b**k for k in range(n))
        assert power_lower_bound(lb, steps=n) == pytest.approx(ref, rel=5e-14)

    def test_one_sided_mass_is_half_at_integer_steps(self):
        # a * sum_{k<n} b^k = 1/2 exactly when delta makes n an integer:
        # that is what pins the staircase as a worst-case density
        eps, n = 0.25, 12
        delta = math.expm1(eps) / (2.0 * math.expm1(eps * n))
        lb = lower_bound_params(PrivacyParams(eps, delta), 1.0)
        a, b = lb.mass_coeff, lb.decay_ratio
        assert lb.steps_fractional == pytest.approx(n, abs=1e-9)
        assert a * math.fsum(b**k for k in range(n)) == pytest.approx(
            0.5, rel=1e-13
        )


class TestFrozenBounds:
    def test_amplitude_reference(self):
        lb = lower_bound_params(P_REF, 1.0)
        assert amplitude_lower_bound(lb) == pytest.approx(
            0.5818444687860235, rel=1e-14
        )
        assert amplitude_lower_bound(lb, steps=11) == pytest.approx(
            0.5817900398460191, rel=1e-14
        )

    def test_power_reference(self):
        lb = lower_bound_params(P_REF, 1.0)
        assert power_lower_bound(lb) == pytest.approx(
            1.2577141905352787, rel=1e-14
        )
        assert power_lower_bound(lb, steps=11) == pytest.approx(
            1.257129334333011, rel=1e-14
        )

    def test_steps_override_validation(self):
        lb = lower_bound_params(P_REF, 1.0)
        with pytest.raises(DomainError):
            amplitude_lower_bound(lb, steps=0.5)
        with pytest.raises(DomainError):
            power_lower_bound(lb, steps=0.0)

    def test_more_steps_never_decreases(self):
        lb = lower_bound_params(P_REF, 1.0)
        assert amplitude_lower_bound(lb, steps=12) > amplitude_lower_bound(
            lb, steps=11
        )
        assert power_lower_bound(lb, steps=1e120) > power_lower_bound(lb)


class TestExtremeRegimes:
    def test_vanishing_tail_weight(self):
        # eps*steps so large that b**steps underflows to zero: the closed
        # form must switch to its tail-free branch instead of dividing 0/0
        lb = lower_bound_params(PrivacyParams(500.0, 1e-300), 1.0)
        amp = amplitude_lower_bound(lb)
        pwr = power_lower_bound(lb)
        assert math.isfinite(amp) and amp > 0.0
        assert math.isfinite(pwr) and pwr > 0.0
        # large eps: b = e^-eps is below the rounding error of 1, where
        # b - b^n must not come out as the cancelled (1-b^n) - (1-b).
        # steps_floor is 1 at these points, so the whole-step bound is 0.
        for eps, delta in [(40.0, 1e-12), (100.0, 1e-5), (500.0, 0.2), (60.0, 0.3)]:
            pair = bound_pair(PrivacyParams(eps, delta), 1.0, cost="amplitude")
            assert 0.0 < pair.lower <= pair.upper
            assert 0.0 <= pair.lower_floor <= pair.upper

    def test_huge_step_counts_stay_finite(self):
        lb = lower_bound_params(P_REF, 1.0)
        assert math.isfinite(power_lower_bound(lb, steps=1e120))
        assert math.isfinite(amplitude_lower_bound(lb, steps=1e120))

    def test_tiny_epsilon(self):
        lb = lower_bound_params(PrivacyParams(1e-6, 1e-3), 1.0)
        amp = amplitude_lower_bound(lb)
        assert math.isfinite(amp) and amp > 0.0

    @pytest.mark.parametrize("eps", [5e-324, 1e-200, 1e-155])
    def test_epsilon_whose_square_leaves_double_range(self, eps):
        # both closed forms divide by (1 - e^-eps)^2, which is subnormal or
        # 0 here: a ZeroDivisionError or a bound with few correct digits
        with pytest.raises(DomainError, match=rf"^epsilon={eps!r} is too"):
            lower_bound_params(PrivacyParams(eps, 1e-5), 1.0)
        lower_bound_params(PrivacyParams(1e-153, 1e-5), 1.0)


class TestBoundPair:
    def test_ratio(self):
        lb = lower_bound_params(P_REF, 1.0)
        pair = BoundPair(
            lower=1.0, lower_floor=0.5, upper=2.0, cost="amplitude", lower_params=lb
        )
        assert pair.ratio == 0.5
        assert pair.lower_floor == 0.5
        assert pair.lower_params is lb

    def test_frozen_cli_point(self):
        pair = bound_pair(PrivacyParams(0.1, 0.05), 1.0, cost="amplitude")
        assert pair.lower == pytest.approx(2.674948670796755, rel=1e-14)
        assert pair.upper == pytest.approx(3.166616726021703, rel=1e-14)
        assert pair.ratio == pytest.approx(0.8447339549543016, rel=1e-13)
        assert pair.lower_floor == pytest.approx(2.556638908351247, rel=1e-14)
        assert pair.lower_params == lower_bound_params(PrivacyParams(0.1, 0.05), 1.0)
        assert pair.lower_params.steps_floor == 7

    def test_lower_never_exceeds_upper(self):
        for eps in (1e-4, 0.01, 0.3, 1.0, 5.0, 30.0):
            for delta in (1e-9, 1e-5, 0.01, 0.2):
                p = PrivacyParams(eps, delta)
                for cost in ("amplitude", "power"):
                    pair = bound_pair(p, 1.0, cost=cost)
                    assert pair.lower <= pair.upper * (1.0 + 1e-12)
                    assert pair.lower_floor <= pair.lower

    def test_whole_step_lower_above_upper_raises(self, monkeypatch):
        p = PrivacyParams(0.7, 1e-6)
        upper = bound_pair(p, 1.0, cost="amplitude").upper
        monkeypatch.setattr(
            TruncatedLaplace, "cost", lambda self, kind: 1e-3 * upper
        )
        with pytest.raises(InvariantError, match="exceeds upper bound"):
            bound_pair(p, 1.0, cost="amplitude")

    def test_negative_whole_step_lower_raises(self):
        # amplitude_lower_bound cancels here: lower_floor came out as -12.8
        # against upper = 2.5
        with pytest.raises(InvariantError, match="lower bound -"):
            bound_pair(PrivacyParams(1e-17, 0.1), 1.0, cost="amplitude")

    def test_negative_fractional_lower_raises(self):
        # power_lower_bound cancels here: lower came out as -4.5e+23 against
        # upper = 0.347, while lower_floor stayed in range
        with pytest.raises(InvariantError, match=r"lower bound -4\.5\d*e\+23 "):
            bound_pair(PrivacyParams(1e-20, 0.49), 1.0, cost="power")

    def test_matches_mechanism_upper(self):
        p = PrivacyParams(0.7, 1e-6)
        amp = bound_pair(p, 1.0, cost="amplitude")
        pwr = bound_pair(p, 1.0, cost="power")
        mech = TruncatedLaplace.from_privacy(p, 1.0)
        assert amp.upper == mech.cost("amplitude")
        assert pwr.upper == mech.cost("power")

    def test_cost_kind_parsing(self):
        p = PrivacyParams(0.7, 1e-6)
        pair = bound_pair(p, 1.0, cost=" Power ")
        assert pair.cost is CostKind.POWER
        with pytest.raises(DomainError):
            bound_pair(p, 1.0, cost="variance")

    def test_sensitivity_scaling(self):
        p = PrivacyParams(0.4, 1e-5)
        one = bound_pair(p, 1.0, cost="amplitude")
        two = bound_pair(p, 2.0, cost="amplitude")
        assert two.lower == pytest.approx(2.0 * one.lower, rel=1e-13)
        assert two.upper == pytest.approx(2.0 * one.upper, rel=1e-13)
        pw1 = bound_pair(p, 1.0, cost="power")
        pw2 = bound_pair(p, 2.0, cost="power")
        assert pw2.lower == pytest.approx(4.0 * pw1.lower, rel=1e-13)

    def test_ratio_approaches_one_in_tight_regime(self):
        pair = bound_pair(PrivacyParams(1e-4, 1e-4), 1.0, cost="amplitude")
        assert pair.ratio == pytest.approx(0.99973556187464, rel=1e-10)
        assert pair.ratio < 1.0
