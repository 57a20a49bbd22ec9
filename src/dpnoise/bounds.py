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
conservative choice.  :func:`bound_pair` returns both next to the upper
bound and is the one place that checks their order.
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
    as_sensitivity,
)
from .trunclap import TruncatedLaplace

__all__ = [
    "LowerBoundParams",
    "lower_bound_params",
    "amplitude_lower_bound",
    "power_lower_bound",
    "BoundPair",
    "bound_pair",
]

# Both closed forms divide by (1 - e^-eps)^2, which is eps^2 to the last bit
# down here and leaves the normal double range below this eps.
_EPS_MIN = math.sqrt(sys.float_info.min)


@dataclass(frozen=True)
class LowerBoundParams:
    """Pieces of the slicing argument, precomputed once per (eps, delta)."""

    epsilon: float
    mass_coeff: float  # least admissible mass of the slice nearest the origin
    decay_ratio: float  # e^-eps, the ratio between adjacent slice masses
    steps_fractional: float  # slice count solving the half-mass equation
    steps_floor: float  # rounded-down, fully conservative slice count
    sensitivity: float


def lower_bound_params(
    params: PrivacyParams, sens: "Sensitivity | float"
) -> LowerBoundParams:
    sens = as_sensitivity(sens)
    eps = params.epsilon
    if eps < _EPS_MIN:
        raise DomainError(
            f"epsilon={eps!r} is too small for the closed-form lower "
            f"bounds: (1 - e^-epsilon)^2 leaves double range"
        )
    # a = (delta + (e^eps - 1)/2)/e^eps, grouped to stay accurate for tiny eps
    mass_coeff = params.delta * math.exp(-eps) - 0.5 * math.expm1(-eps)
    steps = radius_scale_ratio(eps, params.delta) / eps
    return LowerBoundParams(
        epsilon=eps,
        mass_coeff=mass_coeff,
        decay_ratio=math.exp(-eps),
        steps_fractional=steps,
        steps_floor=math.floor(steps),
        sensitivity=sens.value,
    )


def _check_steps(lb: LowerBoundParams, steps: "float | None") -> float:
    if steps is None:
        return lb.steps_fractional
    steps = float(steps)
    if not steps >= 1.0:
        raise DomainError(f"steps must be >= 1, got {steps!r}")
    return steps


def amplitude_lower_bound(lb: LowerBoundParams, steps: "float | None" = None) -> float:
    """Closed-form minimum of E|X| over all valid mechanisms.

    Evaluated at ``lb.steps_fractional`` by default; pass
    ``lb.steps_floor`` for the fully conservative variant.
    """
    steps = _check_steps(lb, steps)
    eps = lb.epsilon
    b = lb.decay_ratio
    w = -math.expm1(-eps)  # 1 - b
    en = eps * steps
    bn = math.exp(-en)
    if bn == 0.0:
        bracket = b / (w * w)
    else:
        # b - b^n, factored so it keeps its relative accuracy once b is
        # below the rounding error of 1 (1-b^n and 1-b would then cancel)
        head = b * -math.expm1(-eps * (steps - 1.0))
        bracket = head / (w * w) - (steps - 1.0) * bn / w
    return 2.0 * lb.mass_coeff * bracket * lb.sensitivity


def power_lower_bound(lb: LowerBoundParams, steps: "float | None" = None) -> float:
    """Closed-form minimum of E[X^2] over all valid mechanisms."""
    steps = _check_steps(lb, steps)
    eps = lb.epsilon
    b = lb.decay_ratio
    w = -math.expm1(-eps)
    w2 = -math.expm1(-2.0 * eps)  # 1 - b^2
    en = eps * steps
    bn = math.exp(-en)
    if bn == 0.0:
        bracket = -b + 2.0 * b / (w * w) - (b * b) / w
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
            + 2.0 * ((qn - w) / (w * w) - (steps - 1.0) * bn / w)
            - (qn - w2) / w
            - last
        )
    return 2.0 * lb.mass_coeff * lb.sensitivity**2 * bracket / w


@dataclass(frozen=True)
class BoundPair:
    """A matched (lower, upper) pair for one cost kind.

    ``lower`` is the fractional-step lower bound and ``lower_floor`` the
    whole-step one; ``lower_params`` holds the slicing pieces both used.
    """

    lower: float
    lower_floor: float
    upper: float
    cost: CostKind
    lower_params: LowerBoundParams

    @property
    def ratio(self) -> float:
        return self.lower / self.upper


def bound_pair(
    params: PrivacyParams,
    sens: "Sensitivity | float",
    cost: "CostKind | str" = CostKind.AMPLITUDE,
) -> BoundPair:
    """Compute both sides for one cost kind and sanity-check their order.

    The upper bound is the calibrated truncated Laplacian's cost.

    Either lower bound (whole-step or fractional-step) falling outside
    ``[0, upper]`` (beyond float slack), or being NaN, can only be an
    implementation bug, so that raises :class:`InvariantError` rather than
    returning silently wrong numbers.
    """
    cost = CostKind.parse(cost)
    lb = lower_bound_params(params, sens)
    lower_fn = (
        amplitude_lower_bound if cost is CostKind.AMPLITUDE else power_lower_bound
    )
    lower_floor = lower_fn(lb, lb.steps_floor)
    lower = lower_fn(lb)
    upper = TruncatedLaplace.from_privacy(params, sens).cost(cost)
    for value in (lower_floor, lower):
        # The slack below 0 admits the rounding of powers that are exactly 0.
        if not (-1e-12 * upper <= value <= upper * (1.0 + 1e-12)):
            raise InvariantError(
                f"lower bound {value!r} is negative, NaN or exceeds upper "
                f"bound {upper!r} at epsilon={params.epsilon!r}, "
                f"delta={params.delta!r}"
            )
    return BoundPair(
        lower=lower,
        lower_floor=lower_floor,
        upper=upper,
        cost=cost,
        lower_params=lb,
    )
