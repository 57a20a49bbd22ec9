"""Lower and upper bounds on the minimum achievable noise cost.

The upper bound is the calibrated truncated Laplacian's own cost
(``TruncatedLaplace.from_privacy(params, sens).cost(cost)``): an explicit
mechanism is a witness that the minimum is no larger.

The lower bounds come from a slicing argument: any valid noise density,
cut into sensitivity-wide slices away from the origin, must give slice k a
mass of at least ``mass_coeff * decay_ratio^k`` while all slices up to a
(fractional) count ``steps`` cover half the total probability.  Pushing the
mass as close to the origin as that allows yields closed-form minima for
E|X| and E[X^2]:

    mass_coeff  a = (delta + (e^eps - 1)/2) / e^eps
    decay_ratio b = e^-eps
    steps       n = log(1 + (e^eps - 1)/(2 delta)) / eps     (so a(1-b^n)/(1-b) = 1/2)

    E|X|  >= 2 a sens   * [ (b - b^n)/(1-b)^2 - (n-1) b^n/(1-b) ]
    E[X^2]>= 2 a sens^2/(1-b) * [ -b + 2((b - b^n)/(1-b)^2 - (n-1) b^n/(1-b))
                                  - (b^2 - b^n)/(1-b) - (n-1)^2 b^n ]

The slicing argument is rigorous at integer step counts; evaluating the
closed forms at the fractional root ``n`` above gives the tighter curve
reported by default, with the rounded-down variant available as the fully
conservative choice.  :func:`bound_pair` is the one public entry point: it
returns both, with their step counts, next to the upper bound.  It is the
grid kernel :func:`_bound_table` at one point, which is the one place that
checks their order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._stable import radius_scale_ratio
from .core import (
    CostKind,
    DomainError,
    InvariantError,
    PrivacyParams,
    Sensitivity,
    _cost_in_range,
    as_sensitivity,
)
from .trunclap import _amplitude, _calibrated_shape, _checked_shape, _power

__all__ = ["BoundPair", "bound_pair"]

# Both closed forms divide by (1 - e^-eps)^2, which is eps^2 to the last bit
# down here and leaves the normal double range below this eps.
_EPS_MIN = math.sqrt(sys.float_info.min)


def _eps_terms(eps: float) -> tuple[float, float, float, float, float, float]:
    """The terms that depend on epsilon alone, for a run of points that
    share it: (eps, b = e^-eps, expm1(-eps)/2, w = 1 - b, w^2, 1 - b^2).

    Its check is the first one at a point, so a run refuses it at its
    first point, as that point would on its own."""
    if eps < _EPS_MIN:
        raise DomainError(
            f"epsilon={eps!r} is too small for the closed-form lower "
            f"bounds: (1 - e^-epsilon)^2 leaves double range"
        )
    em1 = math.expm1(-eps)
    w = -em1
    return eps, math.exp(-eps), 0.5 * em1, w, w * w, -math.expm1(-2.0 * eps)


def _slicing(terms: tuple, delta: float) -> tuple[float, float, float]:
    """``radius_scale_ratio(eps, delta)`` and the slicing pieces built on
    it, from eps's :func:`_eps_terms`: (x_ratio, mass_coeff,
    steps_fractional); the decay ratio is ``terms[1]``."""
    eps, b, half_em1, _, _, _ = terms
    # a = (delta + (e^eps - 1)/2)/e^eps, grouped to stay accurate for tiny eps
    mass_coeff = delta * b - half_em1
    x_ratio = radius_scale_ratio(eps, delta)
    return x_ratio, mass_coeff, x_ratio / eps


def _check_steps(steps: float) -> float:
    steps = float(steps)
    if not steps >= 1.0:
        raise DomainError(f"steps must be >= 1, got {steps!r}")
    return steps


# The two closed forms on plain floats, evaluated by the grid kernel
# :func:`_bound_table`: eps's :func:`_eps_terms`, the mass coefficient a,
# the sensitivity and a checked step count.


def _amplitude_lower(terms: tuple, a: float, sens: float, steps: float) -> float:
    eps, b, _, w, ww, _ = terms
    en = eps * steps
    bn = math.exp(-en)
    if bn == 0.0:
        bracket = b / ww
    else:
        # b - b^n, factored so it keeps its relative accuracy once b is
        # below the rounding error of 1 (1-b^n and 1-b would then cancel)
        head = b * -math.expm1(-eps * (steps - 1.0))
        bracket = head / ww - (steps - 1.0) * bn / w
    return 2.0 * a * bracket * sens


def _power_lower(terms: tuple, a: float, sens: float, steps: float) -> float:
    eps, b, _, w, ww, w2 = terms
    en = eps * steps
    bn = math.exp(-en)
    if bn == 0.0:
        bracket = -b + 2.0 * b / ww - (b * b) / w
    else:
        qn = -math.expm1(-en)
        if steps > 1e100:
            # (steps-1)^2 would overflow as an intermediate even though the
            # product with bn is finite; take the product in log space.
            last = math.exp(2.0 * math.log(steps - 1.0) - en)
        else:
            last = (steps - 1.0) ** 2 * bn
        bracket = (
            -b
            + 2.0 * ((qn - w) / ww - (steps - 1.0) * bn / w)
            - (qn - w2) / w
            - last
        )
    # sensitivity^2 leaving the normal range is a DomainError, as the upper
    # bound's scale^2 is, not an OverflowError or a bound without digits
    sens_sq = _cost_in_range(sens * sens, 2, sens)
    return 2.0 * a * sens_sq * bracket / w


@dataclass(frozen=True)
class BoundPair:
    """A matched (lower, upper) pair for one cost kind.

    ``lower`` is the fractional-step lower bound and ``lower_floor`` the
    whole-step one, evaluated at ``steps_fractional`` and ``steps_floor``
    slices.
    """

    lower: float
    lower_floor: float
    upper: float
    cost: CostKind
    steps_fractional: float  # slice count solving the half-mass equation
    steps_floor: int  # rounded down, the fully conservative slice count

    @property
    def ratio(self) -> float:
        return self.lower / self.upper


def bound_pair(
    params: PrivacyParams,
    sens: "Sensitivity | float",
    cost: "CostKind | str" = CostKind.AMPLITUDE,
) -> BoundPair:
    """Compute both sides for one cost kind and sanity-check their order:
    :func:`_bound_table` at one point.

    The upper bound is the calibrated truncated Laplacian's cost.

    Either lower bound (whole-step or fractional-step) falling outside
    ``[0, upper]`` (beyond float slack), or being NaN, can only be an
    implementation bug, so that raises :class:`InvariantError` rather than
    returning silently wrong numbers.
    """
    cost = CostKind.parse(cost)
    sens = as_sensitivity(sens)
    lower, lower_floor, upper, refusal = _bound_table(
        [params.epsilon], [params.delta], sens.value, cost
    )
    if refusal is not None:
        raise refusal
    # the table's slice count, ``_slicing(...)[2]``, without a second pass
    steps = radius_scale_ratio(params.epsilon, params.delta) / params.epsilon
    return BoundPair(
        lower=lower[0],
        lower_floor=lower_floor[0],
        upper=upper[0],
        cost=cost,
        steps_fractional=steps,
        steps_floor=math.floor(steps),
    )


def _bound_table(
    epsilon: "list[float]", delta: "list[float]", sens: float, cost: CostKind
) -> "tuple[list[float], list[float], list[float], Exception | None]":
    """:func:`bound_pair` at every (epsilon[i], delta[i]), on plain floats.

    ``sens`` is a checked sensitivity.  Returns the lists ``lower``,
    ``lower_floor`` and ``upper`` up to the first point that is refused,
    and that point's error (None if no point is), so a caller can finish
    the work of the points before it before raising.  No mechanism or
    parameter object is built per point.

    The points are taken in runs of equal epsilon (a sweep passes them
    epsilon-major; :func:`bound_pair` is a run of length 1): the terms of
    epsilon alone (:func:`_eps_terms`, with its check, and the scale
    sens/epsilon) are computed once per run, and everything else, every
    other check included, at each point.  Each value is the same
    arithmetic, in the same order, as a point taken on its own, so every
    bit and every refusal is too.
    """
    if cost is CostKind.AMPLITUDE:
        lower_fn, upper_fn = _amplitude_lower, _amplitude
    else:
        lower_fn, upper_fn = _power_lower, _power
    lower: list[float] = []
    lower_floor: list[float] = []
    upper: list[float] = []
    run_eps = None
    try:
        for eps, dlt in zip(epsilon, delta):
            # Equal epsilons have equal terms; the only equal pair that
            # differs in sign, 0 and -0, is refused at a run's first point,
            # before sens/eps can divide by it.
            if eps != run_eps:
                run_eps, terms, run_scale = eps, _eps_terms(eps), sens / eps
            x_ratio, a, steps = _slicing(terms, dlt)
            low_floor = lower_fn(terms, a, sens, _check_steps(math.floor(steps)))
            low = lower_fn(terms, a, sens, steps)
            # the upper bound is the calibrated mechanism's own cost, from
            # its checked scale and radius
            scale, radius, _ = _checked_shape(*_calibrated_shape(run_scale, x_ratio))
            up = upper_fn(scale, radius)
            for value in (low_floor, low):
                # The slack below 0 admits the rounding of powers that are
                # exactly 0.
                if not (-1e-12 * up <= value <= up * (1.0 + 1e-12)):
                    raise InvariantError(
                        f"lower bound {value!r} is negative, NaN or exceeds "
                        f"upper bound {up!r} at epsilon={eps!r}, "
                        f"delta={dlt!r}"
                    )
            lower.append(low)
            lower_floor.append(low_floor)
            upper.append(up)
    except (ArithmeticError, ValueError, InvariantError) as exc:
        # DomainError is a ValueError; the arithmetic can also divide by 0
        return lower, lower_floor, upper, exc
    return lower, lower_floor, upper, None
