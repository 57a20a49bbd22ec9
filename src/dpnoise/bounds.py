"""Lower and upper bounds on the minimum achievable noise cost.

The upper bound is the calibrated truncated Laplacian's own cost
(``TruncatedLaplace.from_privacy(params, sens).cost(cost)``): an explicit
mechanism is a witness that the minimum is no larger.

The lower bounds slice any valid density into sensitivity-wide slices on
each side of 0.  Slice k holds at least a e^(-eps k), and the first n =
x/eps slices, x = ``radius_scale_ratio(eps, delta)``, hold half the mass,
so a = (1 - e^-eps)/(2 (1 - e^-x)).  Pushing each slice's mass to its
inner edge gives E|X| >= 2 a sens sum_{k<n} k e^(-eps k), and E[X^2]
likewise with k^2 sens^2.  With a put in, the sums are differences of
the truncation factors F1 and F2 that the upper bound uses and of
g(t) = t/(e^t - 1) = 1 - F1(t), all in :mod:`dpnoise._stable`.  With
lam = sens/eps and k(eps) = eps coth(eps/2) - 2:

    E|X|   >= lam [F1(x) - F1(eps)]                              (x <= 1)
            = lam [g(eps) - g(x)]                                (x > 1)
            = sens (1 - 2 delta n) / (e^eps - 1)
    E[X^2] >= lam^2 [2 F2(x) - 2 F1(eps) F1(x) + g(eps) k(eps)]  (x <= 1)
            = lam^2 [g(eps) (k(eps) + 2 F1(x)) - x g(x)]         (x > 1)
            = sens^2 [e^eps + 1 - 2 delta n (n (e^eps - 1) + 2)] / (e^eps - 1)^2

The amplitude bound is the truncated Laplacian's E|X| less that of the
same exponential cut at one sensitivity.  The forms labelled by x are
the ones evaluated: they subtract nearly equal terms only where the bound
nears 0, as delta nears 1/2.  The argument is rigorous at whole step
counts: at N = floor(n) and y = eps N the bound is the form at y times
(1 - e^-y)/(1 - e^-x), and 0 for N <= 1.  :func:`bound_pair` returns
both next to the upper bound: it is :func:`_bound_table`, the one place
that checks their order, at one point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._stable import (
    coth_half_excess,
    radius_scale_ratio,
    truncation_amplitude_factor,
    truncation_power_factor,
    x_over_expm1,
)
from .core import (
    CostKind,
    DomainError,
    InvariantError,
    PrivacyParams,
    _require_finite_positive,
)
from .trunclap import _amplitude, _calibrated_shape, _checked_shape, _power

__all__ = ["BoundPair", "bound_pair"]

# F1(eps) squares eps, which leaves the normal double range below this.
_EPS_MIN = math.sqrt(sys.float_info.min)


def _eps_terms(eps: float) -> tuple[float, float, float]:
    """(F1(eps), g(eps), g(eps) k(eps)) for a run of points that share eps;
    its check is a point's first, so a run refuses at its first point."""
    if eps < _EPS_MIN:
        raise DomainError(
            f"epsilon={eps!r} is too small for the closed-form lower "
            f"bounds: (1 - e^-epsilon)^2 leaves double range"
        )
    g_eps = x_over_expm1(eps)
    return truncation_amplitude_factor(eps), g_eps, g_eps * coth_half_excess(eps)


# The lower bounds at x = eps * steps from eps's terms and lam = sens/eps:
def _amplitude_lower(terms: tuple, scale: float, x: float) -> float:
    f1_eps, g_eps, _ = terms
    if x <= 1.0:
        return scale * (truncation_amplitude_factor(x) - f1_eps)
    return scale * (g_eps - x_over_expm1(x))


def _power_lower(terms: tuple, scale: float, x: float) -> float:
    f1_eps, g_eps, gk_eps = terms
    f1_x = truncation_amplitude_factor(x)
    if x <= 1.0:
        bracket = 2.0 * truncation_power_factor(x) - 2.0 * f1_eps * f1_x + gk_eps
    else:
        bracket = gk_eps + 2.0 * g_eps * f1_x - x * x_over_expm1(x)
    return scale * scale * bracket


@dataclass(frozen=True)
class BoundPair:
    """A matched (lower, upper) pair for one cost kind: ``lower`` at
    ``steps_fractional`` slices and ``lower_floor`` at ``steps_floor``."""

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
    sens: float,
    cost: "CostKind | str" = CostKind.AMPLITUDE,
) -> BoundPair:
    """Both sides for one cost kind: :func:`_bound_table` at one point.

    Either lower bound falling outside ``[0, upper]`` (beyond float slack),
    or being NaN, can only be an implementation bug, so that raises
    :class:`InvariantError` rather than returning wrong numbers.
    """
    cost = CostKind.parse(cost)
    sens = _require_finite_positive(sens, "sensitivity")
    lower, lower_floor, upper, refusal = _bound_table(
        [params.epsilon], [params.delta], sens, cost
    )
    if refusal is not None:
        raise refusal
    # the slice count x/eps that the table took its whole steps from
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
    epsilon-major): the terms of epsilon alone (:func:`_eps_terms`, with
    its check, and the scale sens/epsilon) once per run, everything else,
    every other check included, at each point, the upper bound's first.
    So every bit and every refusal is that of the point on its own.
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
            # equal epsilons share terms; 0 and -0, the one such pair that
            # differs in sign, are refused before sens/eps can divide by 0
            if eps != run_eps:
                run_eps, terms, run_scale = eps, _eps_terms(eps), sens / eps
            x_ratio = radius_scale_ratio(eps, dlt)
            # the upper bound, the calibrated mechanism's own cost, first
            scale, radius, _ = _checked_shape(*_calibrated_shape(run_scale, x_ratio))
            up = upper_fn(scale, radius)
            low = lower_fn(terms, scale, x_ratio)
            whole = math.floor(x_ratio / eps)
            low_floor = 0.0  # below two steps the slice sum is empty
            if whole > 1:
                y = eps * whole
                shrink = math.expm1(-y) / math.expm1(-x_ratio)
                low_floor = shrink * lower_fn(terms, scale, y)
            for value in (low_floor, low):
                # slack for the rounding of a bound that is 0 in exact math
                if not (-1e-12 * up <= value <= up * (1.0 + 1e-12)):
                    raise InvariantError(
                        f"lower bound {value!r} is negative, NaN or exceeds upper "
                        f"bound {up!r} at epsilon={eps!r}, delta={dlt!r}"
                    )
            lower.append(low)
            lower_floor.append(low_floor)
            upper.append(up)
    except (ArithmeticError, ValueError, InvariantError) as exc:
        # DomainError is a ValueError; the arithmetic can also divide by 0
        return lower, lower_floor, upper, exc
    return lower, lower_floor, upper, None
