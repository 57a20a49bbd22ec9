import math
from pathlib import Path

import numpy as np
import pytest

from dpnoise import bounds
from dpnoise._stable import radius_scale_ratio
from dpnoise.bounds import (
    BoundPair,
    _amplitude_lower,
    _check_steps,
    _eps_terms,
    _power_lower,
    _slicing,
    bound_pair,
)
from dpnoise.core import (
    CostKind,
    DomainError,
    InvariantError,
    PrivacyParams,
    _cost_in_range,
    as_sensitivity,
)
from dpnoise.trunclap import TruncatedLaplace

P_REF = PrivacyParams(1.0, 1e-5)


def slicing(eps, delta):
    """The slicing pieces at one point: (x_ratio, mass_coeff, decay_ratio,
    steps_fractional)."""
    terms = _eps_terms(eps)
    x_ratio, a, steps = _slicing(terms, delta)
    return x_ratio, a, terms[1], steps


def lower_bound(kernel, params, sens=1.0, steps=None):
    """A lower-bound kernel at ``steps`` slices (default: the fractional
    root), with the slicing pieces it takes."""
    terms = _eps_terms(params.epsilon)
    _, a, root = _slicing(terms, params.delta)
    steps = root if steps is None else _check_steps(steps)
    return kernel(terms, a, sens, steps)


# The slicing and the two closed forms as they were before the grid kernel
# took epsilon's terms once per run, kept (but for their names and
# comments) as the bit-for-bit reference.


def brute_slicing(eps, delta):
    if eps < bounds._EPS_MIN:
        raise DomainError(
            f"epsilon={eps!r} is too small for the closed-form lower "
            f"bounds: (1 - e^-epsilon)^2 leaves double range"
        )
    mass_coeff = delta * math.exp(-eps) - 0.5 * math.expm1(-eps)
    x_ratio = radius_scale_ratio(eps, delta)
    return x_ratio, mass_coeff, math.exp(-eps), x_ratio / eps


def brute_amplitude_lower(eps, b, a, sens, steps):
    w = -math.expm1(-eps)  # 1 - b
    en = eps * steps
    bn = math.exp(-en)
    if bn == 0.0:
        bracket = b / (w * w)
    else:
        head = b * -math.expm1(-eps * (steps - 1.0))
        bracket = head / (w * w) - (steps - 1.0) * bn / w
    return 2.0 * a * bracket * sens


def brute_power_lower(eps, b, a, sens, steps):
    w = -math.expm1(-eps)
    w2 = -math.expm1(-2.0 * eps)  # 1 - b^2
    en = eps * steps
    bn = math.exp(-en)
    if bn == 0.0:
        bracket = -b + 2.0 * b / (w * w) - (b * b) / w
    else:
        qn = -math.expm1(-en)
        if steps > 1e100:
            last = math.exp(2.0 * math.log(steps - 1.0) - en)
        else:
            last = (steps - 1.0) ** 2 * bn
        bracket = (
            -b
            + 2.0 * ((qn - w) / (w * w) - (steps - 1.0) * bn / w)
            - (qn - w2) / w
            - last
        )
    sens_sq = _cost_in_range(sens * sens, 2, sens)
    return 2.0 * a * sens_sq * bracket / w


def brute_bound_pair(params, sens, cost):
    """bound_pair's per-point body from before the grid kernel, on the
    closed-form kernels it called (but for returning a tuple), as the
    reference."""
    cost = CostKind.parse(cost)
    sens = as_sensitivity(sens).value
    kernel = (
        brute_amplitude_lower if cost is CostKind.AMPLITUDE else brute_power_lower
    )
    eps = params.epsilon
    _, a, b, steps = brute_slicing(eps, params.delta)
    lower_floor = kernel(eps, b, a, sens, _check_steps(math.floor(steps)))
    lower = kernel(eps, b, a, sens, steps)
    upper = TruncatedLaplace.from_privacy(params, sens).cost(cost)
    for value in (lower_floor, lower):
        # The slack below 0 admits the rounding of powers that are exactly 0.
        if not (-1e-12 * upper <= value <= upper * (1.0 + 1e-12)):
            raise InvariantError(
                f"lower bound {value!r} is negative, NaN or exceeds upper "
                f"bound {upper!r} at epsilon={params.epsilon!r}, "
                f"delta={params.delta!r}"
            )
    return lower, lower_floor, upper


def _hex(values):
    return tuple(float.hex(v) for v in values)


def brute_outcome(eps, delta, sens, cost):
    """The reference bounds as exact hex, or the type and message of what
    the reference raised."""
    try:
        return _hex(brute_bound_pair(PrivacyParams(eps, delta), sens, cost))
    except Exception as exc:
        return type(exc), str(exc)


TABLE_GRIDS = {
    "default": (np.geomspace(1e-4, 10.0, 20), np.geomspace(1e-6, 0.1, 20)),
    "100x100": (np.geomspace(1e-4, 10.0, 100), np.geomspace(1e-6, 0.1, 100)),
    "wide": (np.geomspace(1e-9, 30.0, 60), np.geomspace(1e-300, 0.49, 60)),
    # epsilon below the closed forms' floor, cancelling lower bounds and
    # steps that round to the edges
    "refusals": (np.geomspace(1e-170, 1e3, 30), np.geomspace(1e-300, 0.4999999, 30)),
}


def check_table_against_reference(eps_axis, delta_axis, sens, cost):
    """_bound_table over the grid equals the reference at every point; after
    a refusal, which must match the reference's, the table restarts at the
    next point, so every point is checked."""
    eps = np.repeat(eps_axis, delta_axis.size).tolist()
    delta = np.tile(delta_axis, eps_axis.size).tolist()
    start = refused = 0
    while start < len(eps):
        lower, lower_floor, upper, refusal = bounds._bound_table(
            eps[start:], delta[start:], sens, cost
        )
        for i, point in enumerate(zip(lower, lower_floor, upper), start):
            assert _hex(point) == brute_outcome(eps[i], delta[i], sens, cost)
        stop = start + len(upper)
        if refusal is None:
            assert stop == len(eps)
            break
        refused += 1
        assert (type(refusal), str(refusal)) == brute_outcome(
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
    an integer step count both costs reduce to bare power sums; math.fsum
    gives an exactly rounded reference."""

    @pytest.mark.parametrize(
        "eps,n", [(0.3, 7), (1.0, 11), (0.05, 40), (2.0, 4), (0.01, 300)]
    )
    def test_amplitude(self, eps, n):
        _, a, b, _ = slicing(eps, 1e-6)
        ref = 2.0 * a * math.fsum(k * b**k for k in range(n))
        assert _amplitude_lower(_eps_terms(eps), a, 1.0, n) == pytest.approx(
            ref, rel=5e-14
        )

    @pytest.mark.parametrize(
        "eps,n", [(0.3, 7), (1.0, 11), (0.05, 40), (2.0, 4), (0.01, 300)]
    )
    def test_power(self, eps, n):
        _, a, b, _ = slicing(eps, 1e-6)
        ref = 2.0 * a * math.fsum(k * k * b**k for k in range(n))
        assert _power_lower(_eps_terms(eps), a, 1.0, n) == pytest.approx(
            ref, rel=5e-14
        )

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
        # eps*steps so large that b**steps underflows to zero: the closed
        # form must switch to its tail-free branch instead of dividing 0/0
        p = PrivacyParams(500.0, 1e-300)
        amp = lower_bound(_amplitude_lower, p)
        pwr = lower_bound(_power_lower, p)
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
        assert math.isfinite(lower_bound(_power_lower, P_REF, steps=1e120))
        assert math.isfinite(lower_bound(_amplitude_lower, P_REF, steps=1e120))

    def test_tiny_epsilon(self):
        amp = lower_bound(_amplitude_lower, PrivacyParams(1e-6, 1e-3))
        assert math.isfinite(amp) and amp > 0.0

    @pytest.mark.parametrize("eps", [5e-324, 1e-200, 1e-155])
    def test_epsilon_whose_square_leaves_double_range(self, eps):
        # both closed forms divide by (1 - e^-eps)^2, which is subnormal or
        # 0 here: a ZeroDivisionError or a bound with few correct digits
        with pytest.raises(DomainError, match=rf"^epsilon={eps!r} is too"):
            _eps_terms(eps)
        with pytest.raises(DomainError, match=rf"^epsilon={eps!r} is too"):
            bound_pair(PrivacyParams(eps, 1e-5), 1.0)
        _eps_terms(1e-153)


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

    def test_negative_whole_step_lower_raises(self):
        # the amplitude lower bound cancels here: lower_floor came out as -12.8
        # against upper = 2.5
        with pytest.raises(InvariantError, match="lower bound -"):
            bound_pair(PrivacyParams(1e-17, 0.1), 1.0, cost="amplitude")

    def test_negative_fractional_lower_raises(self):
        # the power lower bound cancels here: lower came out as -4.5e+23 against
        # upper = 0.347, while lower_floor stayed in range
        with pytest.raises(InvariantError, match=r"lower bound -4\.5\d*e\+23 "):
            bound_pair(PrivacyParams(1e-20, 0.49), 1.0, cost="power")

    def test_slices_once(self, monkeypatch):
        # the step counts come with the bounds, not from a second slicing
        calls = []

        def counted(terms, delta):
            calls.append((terms[0], delta))
            return _slicing(terms, delta)

        monkeypatch.setattr(bounds, "_slicing", counted)
        for cost in CostKind:
            calls.clear()
            pair = bound_pair(P_REF, 1.0, cost)
            assert calls == [(1.0, 1e-5)]
            assert pair.steps_fractional == slicing(1.0, 1e-5)[3]

    def test_table_takes_eps_terms_once_per_run(self, monkeypatch):
        # epsilon's terms once per run of equal epsilon, the slicing once
        # per point
        calls = {"terms": [], "slicing": []}

        def counted_terms(eps):
            calls["terms"].append(eps)
            return _eps_terms(eps)

        def counted_slicing(terms, delta):
            calls["slicing"].append((terms[0], delta))
            return _slicing(terms, delta)

        monkeypatch.setattr(bounds, "_eps_terms", counted_terms)
        monkeypatch.setattr(bounds, "_slicing", counted_slicing)
        eps = [0.5, 0.5, 0.5, 2.0, 2.0, 0.5]
        delta = [1e-6, 1e-4, 1e-2, 1e-6, 1e-4, 1e-6]
        for cost in CostKind:
            calls["terms"].clear()
            calls["slicing"].clear()
            *_, refusal = bounds._bound_table(eps, delta, 1.0, cost)
            assert refusal is None
            assert calls["terms"] == [0.5, 2.0, 0.5]
            assert calls["slicing"] == list(zip(eps, delta))

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


class TestBoundTable:
    """The grid kernel against the per-point reference, bit for bit."""

    @pytest.mark.parametrize("sens", [1.0, 3.0])
    @pytest.mark.parametrize("cost", list(CostKind))
    @pytest.mark.parametrize("grid", sorted(TABLE_GRIDS))
    def test_matches_the_per_point_reference(self, grid, cost, sens):
        check_table_against_reference(*TABLE_GRIDS[grid], sens, cost)

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
        # each closed form is written once, in the function the kernel
        # evaluates
        source = Path(bounds.__file__).read_text(encoding="utf-8")
        assert source.count("expm1(-eps * (steps - 1.0))") == 1
