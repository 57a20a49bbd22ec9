"""Shared domain types and the abstract additive-noise-mechanism contract.

Every calibration routine in this package works from a validated
``(PrivacyParams, Sensitivity)`` pair.  Validation happens at construction
time, so downstream code never has to re-check ranges: if you hold a
``PrivacyParams`` it is a usable one.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DomainError",
    "InvariantError",
    "ConvergenceError",
    "PrivacyParams",
    "Sensitivity",
    "CostKind",
    "NoiseMechanism",
    "as_sensitivity",
]


class DomainError(ValueError):
    """An input is outside the mathematical domain of an operation."""


class InvariantError(AssertionError):
    """An internal consistency property failed; indicates an implementation bug."""


class ConvergenceError(RuntimeError):
    """An iterative routine failed to bracket or converge."""


def _require_finite_positive(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be a finite positive number, got {value!r}")
    return value


@dataclass(frozen=True)
class PrivacyParams:
    """A validated privacy target: epsilon > 0 and delta in (0, 1/2).

    delta = 0 (pure epsilon-privacy) and epsilon = 0 (pure delta-privacy)
    are deliberately excluded here; the corresponding limiting mechanisms
    are available in :mod:`dpnoise.baselines` as explicit constructions.
    """

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "delta", float(self.delta))
        if not math.isfinite(self.epsilon) or self.epsilon <= 0.0:
            raise DomainError(
                f"epsilon must be finite and > 0, got {self.epsilon!r}"
            )
        if not math.isfinite(self.delta) or not 0.0 < self.delta < 0.5:
            raise DomainError(
                f"delta must lie strictly inside (0, 0.5), got {self.delta!r}"
            )


@dataclass(frozen=True)
class Sensitivity:
    """The worst-case absolute change of the query output, > 0."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "value", _require_finite_positive(self.value, "sensitivity")
        )

    def __float__(self) -> float:
        return self.value


def as_sensitivity(sens: "Sensitivity | float") -> Sensitivity:
    """Coerce a bare float into a validated :class:`Sensitivity`."""
    if isinstance(sens, Sensitivity):
        return sens
    return Sensitivity(float(sens))


class CostKind(Enum):
    """Which noise cost is being measured or bounded."""

    AMPLITUDE = "amplitude"  # expected |noise|, the first absolute moment
    POWER = "power"  # expected noise^2, the second moment

    @classmethod
    def parse(cls, text: "str | CostKind") -> "CostKind":
        if isinstance(text, CostKind):
            return text
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise DomainError(
                f"unknown cost kind {text!r}; expected one of "
                f"{[k.value for k in cls]}"
            ) from None


def _as_checked_array(x, name: str = "x") -> tuple[np.ndarray, bool]:
    """Coerce scalar-or-array input to ndarray, rejecting NaN and infinities."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return arr, arr.ndim == 0


def _scalar_or_array(values: np.ndarray, scalar: bool):
    return float(values[()]) if scalar else values


_EXP_BLOCK = 4096  # cells per row of the e^(-k t) outer product
_NORMAL_MIN = sys.float_info.min  # the smallest double with full precision


def _exponential_grid_masses(
    area: float, scale: float, radius: float, step: float, half_cells: int
) -> np.ndarray:
    """Closed-form cell masses of ``area/scale * exp(-|x|/scale)`` on
    ``|x| <= radius`` (``radius`` may be infinite), laid out as
    :meth:`NoiseMechanism.grid_masses` lays them out.

    Positive-side cell k covers ``[k*step, (k+1)*step)`` and holds
    ``area * e^(-k t) * (1 - e^(-t))`` with ``t = step/scale`` while it lies
    inside the support; the outermost cell takes everything beyond its left
    edge, cells entirely past ``radius`` hold 0, and the negative side is the
    mirror image.  ``e^(-k t)`` is the outer product of two short ``exp``
    vectors, so every mass is within a few roundings of exact and costs one
    multiply.
    """
    H = int(half_cells)
    t = step / scale
    x = radius / scale  # the support edge in units of the scale
    masses = np.empty(2 * H)
    pos = masses[H:]
    # Cells 0..full-1 are whole cells inside the support; the rest (the
    # outermost cell, plus any cells at or past the edge) take the general
    # formula, clipped to the support.
    full = max(0, H - 1 if math.isinf(x) else min(H - 1, math.floor(x / t)))
    inner = np.exp(-t * np.arange(_EXP_BLOCK))
    head = area * -math.expm1(-t)
    for lo in range(0, full, _EXP_BLOCK):
        hi = min(lo + _EXP_BLOCK, full)
        np.multiply(head * math.exp(-t * lo), inner[: hi - lo], out=pos[lo:hi])
    k = np.arange(full, H)
    width = np.where(k < H - 1, t, math.inf)
    span = np.clip(np.minimum(width, x - k * t), 0.0, None)
    pos[full:] = area * np.exp(-k * t) * -np.expm1(-span)
    masses[:H] = pos[::-1]
    return masses


def _cost_in_range(
    compute, k: int, scale: float, cause: str, factor: float = 1.0
) -> float:
    """``compute()``, the E|X| (k = 1) or E[X^2] (k = 2) of a mechanism
    whose noise scale is ``scale``, with ``factor`` the shrink factor it
    multiplies by (1 for none).

    Raises DomainError, naming ``scale`` and ``cause``, where an
    intermediate leaves the normal double range (a power of ``scale``
    overflows or ``factor`` underflows), which a scale of sensitivity over
    a tiny epsilon or delta reaches; the result would otherwise be an
    arithmetic error, infinite, 0 or inaccurate.
    """
    try:
        value = compute()
    except OverflowError:  # scale**k
        value = math.inf
    if factor >= _NORMAL_MIN and value < math.inf:
        return value
    cost = "amplitude" if k == 1 else "power"
    raise DomainError(
        f"expected {cost} leaves double range at noise scale {scale!r} {cause}"
    )


def _exponential_moment(scale: float, k: int, factor: float = 1.0) -> float:
    """``k * scale**k * factor``: E|X| (k = 1) or E[X^2] (k = 2) of a
    two-sided exponential of this scale, times the shrink ``factor`` that
    truncating its support applies; range-checked by :func:`_cost_in_range`.
    """
    return _cost_in_range(
        lambda: k * scale**k * factor,
        k,
        scale,
        "(sensitivity / epsilon): epsilon is too small",
        factor,
    )


class NoiseMechanism(ABC):
    """Symmetric additive noise distribution centred at zero.

    Implementations state a vectorised ``pdf`` and ``quantile``, the two
    closed-form noise costs, and the half-line mass ``_upper_mass``;
    ``cdf``, ``interval_mass`` and the default ``grid_masses`` follow from
    that mass by symmetry.  ``sample`` is inverse-transform sampling on a
    caller-supplied uniform generator, so a fixed seed fixes the output and
    the generator can be replaced by a stub (e.g. one that always yields the
    median) in tests.
    """

    @abstractmethod
    def pdf(self, x):
        """Density at ``x`` (scalar or array)."""

    @abstractmethod
    def _upper_mass(self, a, b):
        """P(a < X <= b) for ``0 <= a <= b <= +inf`` (arrays or scalars that
        broadcast), evaluated from the endpoints themselves so that slices
        far out in the tail keep full relative accuracy."""

    @abstractmethod
    def quantile(self, u):
        """Inverse cdf on the mechanism's support."""

    @property
    @abstractmethod
    def support(self) -> tuple[float, float]:
        """(lower, upper) edge of the support; infinite edges allowed."""

    @property
    @abstractmethod
    def expected_amplitude(self) -> float:
        """E|X|."""

    @property
    @abstractmethod
    def expected_power(self) -> float:
        """E[X^2]."""

    @property
    def parameters(self) -> dict[str, float]:
        """The numbers that pin this distribution down, by name."""
        return {}

    def cost(self, kind: CostKind) -> float:
        kind = CostKind.parse(kind)
        if kind is CostKind.AMPLITUDE:
            return self.expected_amplitude
        return self.expected_power

    def cdf(self, x):
        """P(X <= x) (scalar or array), from the mass beyond ``|x|``: that
        mass itself for x < 0, one minus it otherwise."""
        arr, scalar = _as_checked_array(x)
        tail = self._upper_mass(np.abs(arr), math.inf)
        values = np.where(arr < 0.0, tail, 1.0 - tail)
        return _scalar_or_array(values, scalar)

    def interval_mass(self, lo, hi):
        """P(lo < X <= hi), as the sum of its parts on either half line, so
        no slice cancels against the cdf's 1."""
        lo_arr, lo_scalar = _as_checked_array(lo, "lo")
        hi_arr, hi_scalar = _as_checked_array(hi, "hi")
        lo_b, hi_b = np.broadcast_arrays(lo_arr, hi_arr)
        if np.any(lo_b > hi_b):
            raise DomainError("interval_mass requires lo <= hi")
        mass = self._upper_mass(
            np.maximum(lo_b, 0.0), np.maximum(hi_b, 0.0)
        ) + self._upper_mass(np.maximum(-hi_b, 0.0), np.maximum(-lo_b, 0.0))
        return _scalar_or_array(mass, lo_scalar and hi_scalar)

    def grid_masses(self, step: float, half_cells: int) -> np.ndarray:
        """Masses of the ``2*half_cells`` cells of width ``step`` on
        ``[-half_cells*step, half_cells*step)``.

        Any mass beyond the outermost cells is folded into them, so the
        masses account for the full distribution.  The default takes the
        positive half from ``_upper_mass`` on the edges ``step*k``, with the
        outer edge at +inf so the outermost cell holds its whole tail, and
        mirrors it; subclasses override it where the density's structure
        gives the masses in closed form.
        """
        H = int(half_cells)
        edges = step * np.arange(H + 1, dtype=float)
        edges[-1] = math.inf
        pos = np.maximum(self._upper_mass(edges[:-1], edges[1:]), 0.0)
        masses = np.empty(2 * H)
        masses[H:] = pos
        masses[:H] = pos[::-1]
        return masses

    def sample(self, rng, n: "int | None" = None):
        """Draw ``n`` samples (or a single scalar when ``n`` is None).

        ``rng`` only needs a ``random(size)`` method returning uniforms in
        [0, 1); ``numpy.random.Generator`` qualifies.
        """
        size = () if n is None else int(n)
        u = np.asarray(rng.random(size), dtype=float)
        # random() may return exactly 0.0; nudge onto the open interval so
        # mechanisms with unbounded support keep finite quantiles.
        u = np.maximum(u, 5e-324)
        values = self.quantile(u)
        return values
