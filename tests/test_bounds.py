import functools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpnoise import bounds
from dpnoise._stable import radius_scale_ratio
from dpnoise.bounds import (
    BoundPair,
    _amplitude_lower,
    _eps_terms,
    _power_lower,
    bound_pair,
)
from dpnoise.core import (
    CostKind,
    DomainError,
    InvariantError,
    PrivacyParams,
    as_sensitivity,
)
from dpnoise.trunclap import TruncatedLaplace

P_REF = PrivacyParams(1.0, 1e-5)


def slicing(eps, delta):
    """The slicing pieces at one point: (x_ratio, mass_coeff, decay_ratio,
    steps_fractional), with the mass coefficient a fixed by the calibration,
    a (1 - e^-x)/(1 - e^-eps) = 1/2."""
    x_ratio = radius_scale_ratio(eps, delta)
    mass_coeff = math.expm1(-eps) / (2.0 * math.expm1(-x_ratio))
    return x_ratio, mass_coeff, math.exp(-eps), x_ratio / eps


def lower_bound(kernel, params, sens=1.0, steps=None):
    """A lower-bound kernel at ``steps`` slices (default: the fractional
    root), with the mass coefficient of the calibrated point, as the
    whole-step bound takes it."""
    eps = params.epsilon
    terms = _eps_terms(eps)
    x_ratio = radius_scale_ratio(eps, params.delta)
    if steps is None:
        return kernel(terms, sens / eps, x_ratio)
    y = eps * steps
    return math.expm1(-y) / math.expm1(-x_ratio) * kernel(terms, sens / eps, y)


@functools.cache
def mpmath_bounds(eps, delta, whole):
    """The lower bounds at sensitivity 1 from 60-digit mpmath of their
    sensitivity forms, with eps and delta taken exactly and ``whole`` the
    whole step count: ((amplitude, whole-step amplitude), (power,
    whole-step power)), as mpmath numbers."""
    mp = pytest.importorskip("mpmath")
    # the forms cancel in about 2 log10(1/eps) + log10(1/(1 - 2 delta))
    # digits, which the working precision adds to its 60
    extra = 2.0 * max(0.0, -math.log10(eps)) - math.log10(1.0 - 2.0 * delta)
    with mp.workdps(60 + int(extra)):
        e = mp.mpf(eps)
        em1 = mp.expm1(e)
        two_delta = 2 * mp.mpf(delta)
        ratio = em1 / two_delta  # e^x - 1

        def forms(two_delta, steps):
            # two_delta = (e^eps - 1)/(e^t - 1) at t = eps * steps
            dn = two_delta * steps
            return (1 - dn) / em1, (em1 + 2 - dn * (steps * em1 + 2)) / em1**2

        lows = forms(two_delta, mp.log1p(ratio) / e)
        if whole <= 1:
            return tuple((low, mp.mpf(0)) for low in lows)
        ratio_y = mp.expm1(e * whole)
        shrink = ratio_y * (ratio + 1) / ((ratio_y + 1) * ratio)
        floors = forms(em1 / ratio_y, whole)
        return tuple((+low, +(shrink * floor)) for low, floor in zip(lows, floors))


def lower_tolerance(delta):
    """Relative error allowed against mpmath: 1e-14, growing as the bound
    nears 0 with delta near 1/2, where one rounding of x moves it by about
    1e-16 / (1 - 2 delta)."""
    return 1e-14 if delta <= 0.25 else 1e-14 / (1.0 - 2.0 * delta)


def check_lower_bounds(eps, delta, sens, cost, lower, lower_floor, upper):
    """lower and lower_floor at one point against mpmath.  A bound below
    the normal double range keeps no relative digits, hence the absolute
    slack of the smallest normal double times ``upper``."""
    x_ratio = radius_scale_ratio(eps, delta)
    whole = math.floor(x_ratio / eps)
    refs = mpmath_bounds(eps, delta, whole)[cost is CostKind.POWER]
    rel = lower_tolerance(delta)
    slack = sys.float_info.min * upper
    if cost is CostKind.POWER and x_ratio**3 < sys.float_info.min:
        # F2(x), the upper bound's own factor, starts from x^3/6, which
        # keeps only a subnormal's digits here; both bounds carry its
        # absolute error through the 2 lam^2 F2(x) = upper they share
        slack = upper * 2.0**-1070 / x_ratio**3
    for got, ref in zip((lower, lower_floor), refs):
        # scaled in mpmath, where sens^2 cannot underflow
        ref = float(ref * sens * (sens if cost is CostKind.POWER else 1.0))
        assert abs(got - ref) <= rel * ref + slack, (
            eps, delta, sens, cost, got, ref
        )
    if whole <= 1:
        assert lower_floor == 0.0


def _hex(values):
    return tuple(float.hex(v) for v in values)


def reference_upper(eps, delta, sens, cost):
    """The upper bound as exact hex from the calibrated mechanism, or the
    type and message of what the table must raise: the closed forms' floor
    on epsilon first, then the mechanism's own refusals."""
    try:
        if eps < bounds._EPS_MIN:
            raise DomainError(
                f"epsilon={eps!r} is too small for the closed-form lower "
                f"bounds: (1 - e^-epsilon)^2 leaves double range"
            )
        params = PrivacyParams(eps, delta)
        return _hex([TruncatedLaplace.from_privacy(params, sens).cost(cost)])
    except Exception as exc:
        return type(exc), str(exc)


TABLE_GRIDS = {
    "default": (np.geomspace(1e-4, 10.0, 20), np.geomspace(1e-6, 0.1, 20)),
    "100x100": (np.geomspace(1e-4, 10.0, 100), np.geomspace(1e-6, 0.1, 100)),
    "wide": (np.geomspace(1e-9, 30.0, 60), np.geomspace(1e-300, 0.49, 60)),
    # the scan the lower bounds are held to: delta up to 1/4, then 12
    # points up to 0.4999
    "scan": (
        np.geomspace(1e-9, 100.0, 60),
        np.concatenate(
            [np.geomspace(1e-300, 0.25, 60), np.linspace(0.26, 0.4999, 12)]
        ),
    ),
    # epsilon below the closed forms' floor, bounds below the normal range
    # and steps that round to the edges
    "refusals": (np.geomspace(1e-170, 1e3, 30), np.geomspace(1e-300, 0.4999999, 30)),
}


def check_table_against_reference(eps_axis, delta_axis, sens, cost):
    """_bound_table over the grid: upper and every refusal equal the
    reference's, and the lower bounds mpmath's; after a refusal the table
    restarts at the next point, so every point is checked.  Returns the
    number of refusals."""
    eps = np.repeat(eps_axis, delta_axis.size).tolist()
    delta = np.tile(delta_axis, eps_axis.size).tolist()
    start = refused = 0
    while start < len(eps):
        lower, lower_floor, upper, refusal = bounds._bound_table(
            eps[start:], delta[start:], sens, cost
        )
        for i, point in enumerate(zip(lower, lower_floor, upper), start):
            assert _hex(point[2:]) == reference_upper(eps[i], delta[i], sens, cost)
            check_lower_bounds(eps[i], delta[i], sens, cost, *point)
        stop = start + len(upper)
        if refusal is None:
            assert stop == len(eps)
            break
        refused += 1
        assert (type(refusal), str(refusal)) == reference_upper(
            eps[stop], delta[stop], sens, cost
        )
        start = stop + 1
    return refused


class TestLowerBoundParams:
    """The slicing pieces both lower bounds are built from."""

    def test_reference_values(self):
        _, mass_coeff, decay_ratio, steps = slicing(1.0, 1e-5)
        assert mass_coeff == pytest.approx(0.31606395820869054, rel=1e-15)
        assert decay_ratio == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert steps == pytest.approx(11.361114778489599, rel=1e-15)
        pair = bound_pair(P_REF, 1.0)
        assert pair.steps_fractional == steps
        assert pair.steps_floor == 11

    def test_mass_coeff_closed_form(self):
        # the calibration's a is the slicing argument's
        # (delta + (e^eps - 1)/2) / e^eps
        for eps, delta in [(0.1, 1e-3), (2.0, 1e-8), (1e-3, 1e-4)]:
            mass_coeff = slicing(eps, delta)[1]
            direct = delta * math.exp(-eps) - 0.5 * math.expm1(-eps)
            assert mass_coeff == pytest.approx(direct, rel=1e-14)

    def test_steps_floor_consistent(self):
        for eps, delta in [(0.37, 2e-4), (5.0, 1e-9), (0.01, 1e-2)]:
            pair = bound_pair(PrivacyParams(eps, delta), 1.0)
            assert pair.steps_fractional == slicing(eps, delta)[3]
            assert pair.steps_floor == math.floor(pair.steps_fractional)
            assert pair.steps_floor >= 1


class TestClosedFormsAgainstSeries:
    """The staircase construction concentrates mass a*b^k at +-k*sens, so at
    an integer step count n, with a calibrated for x = eps * n, both costs
    reduce to bare power sums; math.fsum gives an exactly rounded
    reference."""

    @staticmethod
    def staircase(eps, n):
        a = math.expm1(-eps) / (2.0 * math.expm1(-eps * n))
        return a, math.exp(-eps)

    @pytest.mark.parametrize(
        "eps,n", [(0.3, 7), (1.0, 11), (0.05, 40), (2.0, 4), (0.01, 300)]
    )
    def test_amplitude(self, eps, n):
        a, b = self.staircase(eps, n)
        ref = 2.0 * a * math.fsum(k * b**k for k in range(n))
        got = _amplitude_lower(_eps_terms(eps), 1.0 / eps, eps * n)
        assert got == pytest.approx(ref, rel=5e-14)

    @pytest.mark.parametrize(
        "eps,n", [(0.3, 7), (1.0, 11), (0.05, 40), (2.0, 4), (0.01, 300)]
    )
    def test_power(self, eps, n):
        a, b = self.staircase(eps, n)
        ref = 2.0 * a * math.fsum(k * k * b**k for k in range(n))
        got = _power_lower(_eps_terms(eps), 1.0 / eps, eps * n)
        assert got == pytest.approx(ref, rel=5e-14)

    def test_one_sided_mass_is_half_at_integer_steps(self):
        # a * sum_{k<n} b^k = 1/2 exactly when delta makes n an integer:
        # that is what pins the staircase as a worst-case density
        eps, n = 0.25, 12
        delta = math.expm1(eps) / (2.0 * math.expm1(eps * n))
        _, a, b, steps = slicing(eps, delta)
        assert steps == pytest.approx(n, abs=1e-9)
        assert a * math.fsum(b**k for k in range(n)) == pytest.approx(
            0.5, rel=1e-13
        )


class TestFrozenBounds:
    def test_amplitude_reference(self):
        assert lower_bound(_amplitude_lower, P_REF) == pytest.approx(
            0.5818444687860235, rel=1e-14
        )
        assert lower_bound(_amplitude_lower, P_REF, steps=11) == pytest.approx(
            0.5817900398460191, rel=1e-14
        )

    def test_power_reference(self):
        assert lower_bound(_power_lower, P_REF) == pytest.approx(
            1.2577141905352787, rel=1e-14
        )
        assert lower_bound(_power_lower, P_REF, steps=11) == pytest.approx(
            1.257129334333011, rel=1e-14
        )

    def test_more_steps_never_decreases(self):
        amp_11 = lower_bound(_amplitude_lower, P_REF, steps=11)
        assert lower_bound(_amplitude_lower, P_REF, steps=12) > amp_11
        pwr = lower_bound(_power_lower, P_REF)
        assert lower_bound(_power_lower, P_REF, steps=1e120) > pwr


class TestExtremeRegimes:
    def test_vanishing_tail_weight(self):
        # eps*steps so large that e^-x underflows to zero: the x g(x) term
        # runs down to 0 instead of dividing inf by inf
        p = PrivacyParams(500.0, 1e-300)
        amp = lower_bound(_amplitude_lower, p)
        pwr = lower_bound(_power_lower, p)
        assert math.isfinite(amp) and amp > 0.0
        assert math.isfinite(pwr) and pwr > 0.0
        # large eps: b = e^-eps is below the rounding error of 1, where
        # g(eps) - g(x) must not cancel as 1 - b^n and 1 - b would.
        # steps_floor is 1 at these points, so the whole-step bound is 0.
        for eps, delta in [(40.0, 1e-12), (100.0, 1e-5), (500.0, 0.2), (60.0, 0.3)]:
            pair = bound_pair(PrivacyParams(eps, delta), 1.0, cost="amplitude")
            assert 0.0 < pair.lower <= pair.upper
            assert 0.0 <= pair.lower_floor <= pair.upper

    def test_huge_step_counts_stay_finite(self):
        assert math.isfinite(lower_bound(_power_lower, P_REF, steps=1e120))
        assert math.isfinite(lower_bound(_amplitude_lower, P_REF, steps=1e120))

    def test_tiny_epsilon(self):
        amp = lower_bound(_amplitude_lower, PrivacyParams(1e-6, 1e-3))
        assert math.isfinite(amp) and amp > 0.0

    @pytest.mark.parametrize("eps", [5e-324, 1e-200, 1e-155])
    def test_epsilon_whose_square_leaves_double_range(self, eps):
        # F1(eps) squares eps, which is subnormal or 0 here: a bound with
        # few correct digits
        with pytest.raises(DomainError, match=rf"^epsilon={eps!r} is too"):
            _eps_terms(eps)
        with pytest.raises(DomainError, match=rf"^epsilon={eps!r} is too"):
            bound_pair(PrivacyParams(eps, 1e-5), 1.0)
        _eps_terms(1e-153)

    @pytest.mark.parametrize("cost", list(CostKind))
    @pytest.mark.parametrize("delta", [1e-310, 1e-320, 5e-324])
    def test_delta_whose_step_count_leaves_double_range(self, delta, cost):
        # (e^eps - 1)/(2 delta) overflows, so x is inf: refused, where
        # math.floor of the step count raised OverflowError
        with pytest.raises(DomainError, match=rf"^delta={delta!r} is too small"):
            bound_pair(PrivacyParams(1.0, delta), 1.0, cost)

    @pytest.mark.parametrize(
        "cost,bits",
        [
            ("amplitude", ("0x1.29f8d9d61337ep-1", "0x1.0000000000000p+0")),
            ("power", ("0x1.42661a97c9f8bp+0", "0x1.0000000000000p+1")),
        ],
    )
    def test_smallest_normal_deltas_keep_their_bits(self, cost, bits):
        pair = bound_pair(PrivacyParams(1.0, 2e-308), 1.0, cost)
        assert (pair.lower.hex(), pair.upper.hex()) == bits
        assert pair.lower_floor == pair.lower and pair.steps_floor == 708
        # a subnormal delta with a tiny epsilon has a finite step count
        assert bound_pair(PrivacyParams(1e-15, 1e-320), 1.0, cost).upper > 0.0

    @pytest.mark.parametrize(
        "eps,delta,cost",
        [
            # each was refused with exit 4, or printed a bound without
            # digits, by the former closed forms
            (1e-6, 0.49, "power"),  # lower came out as -3.26e-10
            (1e-9, 0.01, "power"),  # 578.5, below its whole-step 755.6
            (45.0, 1e-5, "power"),  # -2.86e-20
            (1e-150, 1e-5, "amplitude"),  # whole-step -1.19e+134
            (1e-20, 0.49, "power"),  # -4.5e+23
            (1e-17, 0.1, "amplitude"),  # whole-step -12.8
            (42.4, 1e-300, "power"),
            (1e-103, 0.1, "power"),  # whole-step -4e+103
            # eps^3 is subnormal and x^3 is not: k(eps) is eps^2/6 there
            (1e-107, 5e-6, "power"),
        ],
    )
    def test_former_cancellations_match_mpmath(self, eps, delta, cost):
        pair = bound_pair(PrivacyParams(eps, delta), 1.0, cost)
        check_lower_bounds(
            eps, delta, 1.0, pair.cost, pair.lower, pair.lower_floor, pair.upper
        )
        assert 0.0 <= pair.lower_floor <= pair.lower <= pair.upper

    @pytest.mark.parametrize("cost", list(CostKind))
    @pytest.mark.parametrize("eps,delta", [(1.0, 0.3), (1e-9, 0.4999), (30.0, 1e-5)])
    def test_whole_step_bound_is_zero_below_two_steps(self, eps, delta, cost):
        pair = bound_pair(PrivacyParams(eps, delta), 1.0, cost)
        assert pair.steps_floor == 1
        assert pair.lower_floor == 0.0
        assert pair.lower > 0.0


# Ordered pairs of points: log epsilon in [1e-9, 100], log delta in
# [1e-300, 1/4].
LOG_EPS = st.floats(min_value=math.log(1e-9), max_value=math.log(100.0))
LOG_DELTA = st.floats(min_value=math.log(1e-300), max_value=math.log(0.25))


class TestMonotone:
    """The fractional-step lower bound does not rise as epsilon or delta
    grows, for either cost, up to 1e-13 relative.  (The whole-step bound
    jumps where floor(n) does, and is not monotone.)"""

    @staticmethod
    def lower(eps, delta, cost):
        return bound_pair(PrivacyParams(eps, delta), 1.0, cost).lower

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(list(CostKind)), LOG_EPS, LOG_EPS, LOG_DELTA)
    def test_falls_as_epsilon_grows(self, cost, log_a, log_b, log_delta):
        small, large = sorted((math.exp(log_a), math.exp(log_b)))
        delta = min(math.exp(log_delta), 0.25)
        assert self.lower(large, delta, cost) <= self.lower(
            small, delta, cost
        ) * (1.0 + 1e-13)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(list(CostKind)), LOG_EPS, LOG_DELTA, LOG_DELTA)
    def test_falls_as_delta_grows(self, cost, log_eps, log_a, log_b):
        eps = math.exp(log_eps)
        small, large = sorted(min(math.exp(v), 0.25) for v in (log_a, log_b))
        assert self.lower(eps, large, cost) <= self.lower(
            eps, small, cost
        ) * (1.0 + 1e-13)


# The paper's three high-privacy regimes: 12 (epsilon, delta) points along
# each, in the order the path goes on.
REGIME_PATHS = {
    "eps-to-zero": [(e, 1e-3) for e in np.geomspace(0.1, 1e-7, 12).tolist()],
    "delta-to-zero": [(1.0, d) for d in np.geomspace(1e-2, 1e-12, 12).tolist()],
    "diagonal": [(e, math.expm1(e)) for e in np.geomspace(0.1, 1e-8, 12).tolist()],
}


class TestBoundPair:
    def test_ratio(self):
        pair = BoundPair(
            lower=1.0,
            lower_floor=0.5,
            upper=2.0,
            cost="amplitude",
            steps_fractional=11.5,
            steps_floor=11,
        )
        assert pair.ratio == 0.5
        assert pair.lower_floor == 0.5
        assert (pair.steps_fractional, pair.steps_floor) == (11.5, 11)

    def test_frozen_cli_point(self):
        pair = bound_pair(PrivacyParams(0.1, 0.05), 1.0, cost="amplitude")
        assert pair.lower == pytest.approx(2.674948670796755, rel=1e-14)
        assert pair.upper == pytest.approx(3.166616726021703, rel=1e-14)
        assert pair.ratio == pytest.approx(0.8447339549543016, rel=1e-13)
        assert pair.lower_floor == pytest.approx(2.556638908351247, rel=1e-14)
        assert pair.steps_fractional == slicing(0.1, 0.05)[3]
        assert pair.steps_floor == 7

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
        # the upper bound is the mechanism's amplitude on plain floats
        monkeypatch.setattr(bounds, "_amplitude", lambda scale, radius: 1e-3 * upper)
        with pytest.raises(InvariantError, match="exceeds upper bound"):
            bound_pair(p, 1.0, cost="amplitude")

    @staticmethod
    def negative_at(monkeypatch, name, which):
        """Make the lower-bound kernel ``name`` return -1 at the whole-step
        or the fractional x, and the true bound at the other."""
        kernel = getattr(bounds, name)
        x_ratio = radius_scale_ratio(0.7, 1e-6)

        def broken(terms, scale, x):
            if (x == x_ratio) == (which == "fractional"):
                return -1.0
            return kernel(terms, scale, x)

        monkeypatch.setattr(bounds, name, broken)

    def test_negative_whole_step_lower_raises(self, monkeypatch):
        self.negative_at(monkeypatch, "_amplitude_lower", "whole")
        with pytest.raises(InvariantError, match=r"^lower bound -\d"):
            bound_pair(PrivacyParams(0.7, 1e-6), 1.0, cost="amplitude")

    def test_negative_fractional_lower_raises(self, monkeypatch):
        self.negative_at(monkeypatch, "_power_lower", "fractional")
        with pytest.raises(InvariantError, match=r"^lower bound -\d"):
            bound_pair(PrivacyParams(0.7, 1e-6), 1.0, cost="power")

    def test_slices_once(self, monkeypatch):
        # the table takes x = radius/scale once per point for both lower
        # bounds and the upper; bound_pair's step count is that x/eps
        calls = []

        def counted(eps, delta):
            calls.append((eps, delta))
            return radius_scale_ratio(eps, delta)

        monkeypatch.setattr(bounds, "radius_scale_ratio", counted)
        for cost in CostKind:
            calls.clear()
            lower, lower_floor, upper, refusal = bounds._bound_table(
                [1.0], [1e-5], 1.0, cost
            )
            assert refusal is None
            assert calls == [(1.0, 1e-5)]
            pair = bound_pair(P_REF, 1.0, cost)
            assert pair.steps_fractional == slicing(1.0, 1e-5)[3]
            assert (pair.lower, pair.lower_floor, pair.upper) == (
                lower[0], lower_floor[0], upper[0]
            )

    def test_table_takes_eps_terms_once_per_run(self, monkeypatch):
        # epsilon's terms once per run of equal epsilon, x once per point
        calls = {"terms": [], "x": []}

        def counted_terms(eps):
            calls["terms"].append(eps)
            return _eps_terms(eps)

        def counted_x(eps, delta):
            calls["x"].append((eps, delta))
            return radius_scale_ratio(eps, delta)

        monkeypatch.setattr(bounds, "_eps_terms", counted_terms)
        monkeypatch.setattr(bounds, "radius_scale_ratio", counted_x)
        eps = [0.5, 0.5, 0.5, 2.0, 2.0, 0.5]
        delta = [1e-6, 1e-4, 1e-2, 1e-6, 1e-4, 1e-6]
        for cost in CostKind:
            calls["terms"].clear()
            calls["x"].clear()
            *_, refusal = bounds._bound_table(eps, delta, 1.0, cost)
            assert refusal is None
            assert calls["terms"] == [0.5, 2.0, 0.5]
            assert calls["x"] == list(zip(eps, delta))

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

    # the limit of lower / upper as each regime's path goes on
    REGIME_LIMITS = {
        ("eps-to-zero", CostKind.AMPLITUDE): 1.0 - 2.0 * 1e-3,
        ("eps-to-zero", CostKind.POWER): (1.0 - 1e-3) * (1.0 - 2.0 * 1e-3),
        ("delta-to-zero", CostKind.AMPLITUDE): 1.0 / math.expm1(1.0),
        ("delta-to-zero", CostKind.POWER): (
            (1.0 + math.e) / (2.0 * math.expm1(1.0) ** 2)
        ),
        ("diagonal", CostKind.AMPLITUDE): 1.0,
        ("diagonal", CostKind.POWER): 1.0,
    }
    # delta -> 0 closes fastest: its last gaps are 1.3e-11 and 1.6e-10
    LAST_GAP = {"eps-to-zero": 1e-6, "delta-to-zero": 1e-9, "diagonal": 1e-6}

    @pytest.mark.parametrize("cost", list(CostKind))
    @pytest.mark.parametrize("regime", list(REGIME_PATHS))
    def test_ratio_converges_to_the_regime_limit(self, regime, cost):
        limit = self.REGIME_LIMITS[regime, cost]
        gaps = [
            abs(bound_pair(PrivacyParams(eps, delta), 1.0, cost).ratio - limit)
            for eps, delta in REGIME_PATHS[regime]
        ]
        assert gaps[-1] < self.LAST_GAP[regime]
        assert gaps[0] > 100.0 * gaps[-1]


class TestBoundTable:
    """The grid kernel: upper bounds and refusals bit for bit against the
    calibrated mechanism, lower bounds against mpmath."""

    @pytest.mark.parametrize("sens", [1.0, 3.0])
    @pytest.mark.parametrize("cost", list(CostKind))
    @pytest.mark.parametrize("grid", sorted(TABLE_GRIDS))
    def test_matches_the_per_point_reference(self, grid, cost, sens):
        refused = check_table_against_reference(*TABLE_GRIDS[grid], sens, cost)
        if grid != "refusals":
            # no valid point is refused: the upper bound refuses none here
            assert refused == 0

    @pytest.mark.parametrize("sens", [1e-300, 1e300, 5e-324])
    @pytest.mark.parametrize("cost", list(CostKind))
    def test_refusals_at_extreme_sensitivities(self, cost, sens):
        # scale, radius, height and range refusals of the upper bound
        assert check_table_against_reference(*TABLE_GRIDS["refusals"], sens, cost)

    def test_bound_pair_is_the_one_point_table(self):
        p = PrivacyParams(0.3, 1e-7)
        for cost in CostKind:
            pair = bound_pair(p, 3.0, cost)
            lower, lower_floor, upper, refusal = bounds._bound_table(
                [0.3], [1e-7], 3.0, cost
            )
            assert refusal is None
            assert (pair.lower, pair.lower_floor, pair.upper) == (
                lower[0], lower_floor[0], upper[0]
            )
            assert pair.steps_fractional == slicing(0.3, 1e-7)[3]
            assert pair.steps_floor == math.floor(pair.steps_fractional)

    def test_one_formula_body(self):
        # each lower bound is written once, in the function the kernel
        # evaluates, for the fractional and the whole step count alike
        source = Path(bounds.__file__).read_text(encoding="utf-8")
        assert source.count("truncation_power_factor(x)") == 1
        assert source.count("g_eps - x_over_expm1(x)") == 1
        for name in ("_slicing", "_check_steps", "mass_coeff", "1e100"):
            assert name not in source
