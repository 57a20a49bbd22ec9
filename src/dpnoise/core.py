"""Shared domain types and the abstract additive-noise-mechanism contract.

Every calibration routine in this package works from a validated
``(PrivacyParams, Sensitivity)`` pair.  Validation happens at construction
time, so downstream code never has to re-check ranges: if you hold a
``PrivacyParams`` it is a usable one.
"""

from __future__ import annotations

import math
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


def _interval_args(lo, hi) -> tuple[np.ndarray, np.ndarray, bool]:
    """Checked, broadcast ``(lo, hi)`` for ``interval_mass``.

    The flag says whether both inputs were scalars, i.e. whether the mass
    goes back through :func:`_scalar_or_array` as a float.
    """
    lo_arr, lo_scalar = _as_checked_array(lo, "lo")
    hi_arr, hi_scalar = _as_checked_array(hi, "hi")
    lo_b, hi_b = np.broadcast_arrays(lo_arr, hi_arr)
    if np.any(lo_b > hi_b):
        raise DomainError("interval_mass requires lo <= hi")
    return lo_b, hi_b, lo_scalar and hi_scalar


class NoiseMechanism(ABC):
    """Symmetric additive noise distribution centred at zero.

    Implementations provide vectorised ``pdf``/``cdf``/``quantile`` plus the
    two closed-form noise costs.  ``sample`` is inverse-transform sampling on
    a caller-supplied uniform generator, so a fixed seed fixes the output and
    the generator can be replaced by a stub (e.g. one that always yields the
    median) in tests.
    """

    @abstractmethod
    def pdf(self, x):
        """Density at ``x`` (scalar or array)."""

    @abstractmethod
    def cdf(self, x):
        """P(X <= x) (scalar or array)."""

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

    def interval_mass(self, lo, hi):
        """P(lo < X <= hi).

        The default is the cdf difference; subclasses override it where a
        direct evaluation avoids the cancellation that difference suffers in
        the far tail.
        """
        lo_b, hi_b, scalar = _interval_args(lo, hi)
        out = np.asarray(self.cdf(hi_b)) - np.asarray(self.cdf(lo_b))
        return _scalar_or_array(out, scalar)

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
