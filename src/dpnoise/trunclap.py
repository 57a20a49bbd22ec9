"""The truncated Laplacian mechanism.

A two-sided exponential density cut off at a finite radius and renormalised:

    f(x) = height * exp(-|x| / scale)   for |x| <= radius, else 0.

With ``scale = sensitivity / epsilon`` and the radius chosen below, adding
this noise to a query of the given sensitivity satisfies the
(epsilon, delta) privacy constraint, and its expected amplitude and power
are, among all valid mechanisms, within a provably small factor of optimal
(see :mod:`dpnoise.bounds` for the matching lower bounds).

Support endpoints: the density is defined as positive on the closed interval
[-radius, radius]; the endpoint values are a measure-zero choice with no
effect on any integral, sample, or privacy property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._stable import (
    radius_scale_ratio,
    truncation_amplitude_factor,
    truncation_power_factor,
)
from .core import (
    DomainError,
    NoiseMechanism,
    PrivacyParams,
    Sensitivity,
    _as_checked_array,
    _exponential_grid_masses,
    _exponential_moment,
    _scalar_or_array,
    as_sensitivity,
)

__all__ = [
    "TruncLapParams",
    "calibrate",
    "TruncatedLaplace",
]


@dataclass(frozen=True)
class TruncLapParams:
    """Calibrated shape of a truncated Laplacian density."""

    scale: float  # exponential decay scale
    radius: float  # truncation radius (support is [-radius, radius])
    height: float  # density at zero (normalisation constant)
    sensitivity: float

    def __post_init__(self) -> None:
        for name in ("scale", "radius", "height", "sensitivity"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not math.isfinite(value) or value <= 0.0:
                raise DomainError(f"{name} must be finite and > 0, got {value!r}")


def calibrate(params: PrivacyParams, sens: "Sensitivity | float") -> TruncLapParams:
    """Calibrate the density shape for a privacy target.

    scale  = sensitivity / epsilon
    radius = scale * log(1 + (e^eps - 1) / (2 delta))
    height = 1 / (2 * scale * (1 - e^(-radius/scale)))

    The radius formula is exactly the point where the mass of the outermost
    sensitivity-wide slice of the support equals delta, which is what the
    privacy argument consumes.
    """
    sens = as_sensitivity(sens)
    scale = sens.value / params.epsilon
    x_ratio = radius_scale_ratio(params.epsilon, params.delta)
    radius = scale * x_ratio
    height = 1.0 / (2.0 * scale * (-math.expm1(-x_ratio)))
    return TruncLapParams(
        scale=scale, radius=radius, height=height, sensitivity=sens.value
    )


class TruncatedLaplace(NoiseMechanism):
    """Sampling / evaluation interface over a calibrated parameter set."""

    def __init__(self, params: TruncLapParams):
        self.params = params

    @classmethod
    def from_privacy(
        cls, params: PrivacyParams, sens: "Sensitivity | float"
    ) -> "TruncatedLaplace":
        return cls(calibrate(params, sens))

    @property
    def parameters(self) -> dict[str, float]:
        p = self.params
        return {"scale": p.scale, "radius": p.radius, "height": p.height}

    # -- distribution surface -------------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        return (-self.params.radius, self.params.radius)

    def pdf(self, x):
        arr, scalar = _as_checked_array(x)
        p = self.params
        inside = np.abs(arr) <= p.radius
        values = np.where(
            inside, p.height * np.exp(-np.abs(arr) / p.scale), 0.0
        )
        return _scalar_or_array(values, scalar)

    def quantile(self, u):
        arr, scalar = _as_checked_array(u, "u")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise DomainError("quantile argument must lie in [0, 1]")
        p = self.params
        area = p.height * p.scale
        tail = np.abs(arr - 0.5) / area
        # |x| = -scale * log(1 - |u - 1/2| / (height*scale)); the support is
        # bounded, so u = 0 and u = 1 land exactly on the edges.
        magnitude = -p.scale * np.log1p(-np.minimum(tail, 1.0))
        values = np.sign(arr - 0.5) * np.minimum(magnitude, p.radius)
        return _scalar_or_array(values, scalar)

    def _upper_mass(self, a, b):
        # Anchored at the nearer endpoint a, so slices of mass ~delta near
        # the truncation edge, which the privacy accounting consumes, keep
        # full relative accuracy:
        #   height*scale * e^(-a/scale) * (1 - e^(-(b-a)/scale)),
        # with both ends clipped to the support.
        p = self.params
        a = np.minimum(a, p.radius)
        b = np.minimum(b, p.radius)
        area = p.height * p.scale
        return area * np.exp(-a / p.scale) * -np.expm1(-(b - a) / p.scale)

    def grid_masses(self, step: float, half_cells: int) -> np.ndarray:
        """Closed-form cell masses: equal-width cells hold masses in the
        fixed ratio e^(-step/scale), and the outermost cell takes the rest of
        the support."""
        p = self.params
        return _exponential_grid_masses(
            p.height * p.scale, p.scale, p.radius, step, half_cells
        )

    # -- closed-form costs ----------------------------------------------------
    # The mechanism witnesses that the optimum is no larger, so these are
    # also the upper bounds that :func:`dpnoise.bounds.bound_pair` reports.

    @property
    def expected_amplitude(self) -> float:
        p = self.params
        return _exponential_moment(
            p.scale, 1, truncation_amplitude_factor(p.radius / p.scale)
        )

    @property
    def expected_power(self) -> float:
        p = self.params
        return _exponential_moment(
            p.scale, 2, truncation_power_factor(p.radius / p.scale)
        )

