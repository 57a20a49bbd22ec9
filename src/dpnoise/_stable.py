"""Numerically stable scalar kernels shared by the calibration modules.

Everything here is written against two hostile regimes:

* delta far below epsilon (ratios like (e^eps - 1)/(2 delta) overflow a
  double long before the quantities we actually need do), and
* epsilon far below delta (naive ``1 - small/small`` differences lose all
  relative accuracy).

The public functions keep full double relative accuracy down to
delta ~ 1e-300 and epsilon ~ 1e-12.
"""

from __future__ import annotations

import math

__all__ = [
    "radius_scale_ratio",
    "exp_minus_one_minus_x",
    "exp_remainder_order3",
    "truncation_amplitude_factor",
    "truncation_power_factor",
    "x_over_expm1",
    "coth_half_excess",
]

# Above this, (e^eps - 1)/(2 delta) may be inaccurate or overflow and the
# factored logarithm below is both safe and more precise.
_RATIO_SWITCH = 1e15


def radius_scale_ratio(epsilon: float, delta: float) -> float:
    """log(1 + (e^eps - 1)/(2 delta)), the truncation radius in scale units.

    This single quantity drives the whole calibration: multiplied by the
    exponential scale it is the truncation radius, and divided by epsilon it
    is the (fractional) number of sensitivity-wide steps the support spans.
    """
    if epsilon <= 40.0:
        ratio = math.expm1(epsilon) / (2.0 * delta)
        if ratio <= _RATIO_SWITCH:
            return math.log1p(ratio)
    # Factor e^eps out of the logarithm:
    #   log(1 + (e^eps - 1)/(2 delta))
    #     = eps + log((1 - e^-eps)/(2 delta) + e^-eps)
    # Every intermediate stays finite for delta >= ~1e-300.
    return epsilon + math.log(
        -math.expm1(-epsilon) / (2.0 * delta) + math.exp(-epsilon)
    )


def _exp_tail_series(x: float, first_order: int) -> float:
    """sum_{k >= first_order} x^k / k! for small non-negative x."""
    term = x**first_order / math.factorial(first_order)
    total = term
    k = first_order
    while True:
        k += 1
        term *= x / k
        new_total = total + term
        if new_total == total:
            return total
        total = new_total


def exp_minus_one_minus_x(x: float) -> float:
    """e^x - 1 - x without cancellation for small x >= 0."""
    if x < 0.0:
        raise ValueError("kernel defined for x >= 0")
    if x < 0.5:
        return _exp_tail_series(x, 2)
    return math.expm1(x) - x


def exp_remainder_order3(x: float) -> float:
    """e^x - 1 - x - x^2/2 without cancellation for small x >= 0."""
    if x < 0.0:
        raise ValueError("kernel defined for x >= 0")
    if x < 0.5:
        return _exp_tail_series(x, 3)
    return math.expm1(x) - x - 0.5 * x * x


def truncation_amplitude_factor(x: float) -> float:
    """(e^x - 1 - x)/(e^x - 1): how truncation at radius x*scale shrinks E|X|.

    A plain two-sided exponential with scale ``s`` has E|X| = s; truncating the
    support at ``x`` scale units multiplies that by this factor.  The factor
    runs from x/2 (near 0, the uniform limit) up to 1 (no truncation).
    """
    if x <= 0.0:
        raise ValueError("truncation radius must be positive")
    if x > 700.0:
        # e^x can overflow, and 1 - x e^-x rounds to 1 here (x e^-x is below
        # ~1e-301); x = inf is no truncation at all.
        return 1.0
    return exp_minus_one_minus_x(x) / math.expm1(x)


def truncation_power_factor(x: float) -> float:
    """(e^x - 1 - x - x^2/2)/(e^x - 1): the analogous shrink factor for E[X^2].

    A plain two-sided exponential with scale ``s`` has E[X^2] = 2 s^2;
    truncation multiplies that by this factor (x^2/6 near 0, 1 at infinity).
    """
    if x <= 0.0:
        raise ValueError("truncation radius must be positive")
    if x > 700.0:
        return 1.0  # 1 - (x + x^2/2) e^-x, which rounds to 1 here
    return exp_remainder_order3(x) / math.expm1(x)


def x_over_expm1(x: float) -> float:
    """x/(e^x - 1) = 1 - truncation_amplitude_factor(x), without its
    cancellation at large x and running down to 0 where e^x overflows."""
    return x * math.exp(-x) / -math.expm1(-x)


def coth_half_excess(x: float) -> float:
    """x coth(x/2) - 2 for x > 0: x^2/6 below 1e-8, where the next term is
    below rounding and x^3 may underflow, and below 2 a form whose
    numerator keeps its relative accuracy."""
    if x < 1e-8:
        return x * x / 6.0
    if x < 2.0:
        return (0.5 * x**3 - (2.0 - x) * exp_remainder_order3(x)) / math.expm1(x)
    return x / math.tanh(0.5 * x) - 2.0
