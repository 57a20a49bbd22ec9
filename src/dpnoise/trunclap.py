"""The truncated Laplacian mechanism.

A two-sided exponential density cut off at a finite radius and renormalised:

    f(x) = height * exp(-|x| / scale)   for |x| <= radius, else 0.

With ``scale = sensitivity / epsilon`` and the radius chosen below, adding
this noise to a query of the given sensitivity satisfies the
(epsilon, delta) privacy constraint.  In the high-privacy regime, where
``bounds.bound_pair``'s upper-to-lower ratio is near 1, its expected
amplitude and power are within a provably small factor of the optimum over
all valid mechanisms (see :mod:`dpnoise.bounds` for the matching lower
bounds).  At larger epsilon it is not optimal: at sensitivity 1 its
amplitude is 1.81 times the pure-DP staircase mechanism's at epsilon = 4,
and 14.8 times at epsilon = 10.

Support endpoints: the density is defined as positive on the closed interval
[-radius, radius]; the endpoint values are a measure-zero choice with no
effect on any integral, sample, or privacy property.

Every formula here also holds at an infinite radius, which is the Laplace
mechanism, :class:`dpnoise.baselines.Laplace`.
"""

from __future__ import annotations

import math

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
    _ULP,
    _as_real,
    _cost_in_range,
    _require_finite_positive,
    as_sensitivity,
)

__all__ = ["TruncatedLaplace"]

_EXP_BLOCK = 4096  # cells per row of the e^(-k t) outer product


class TruncatedLaplace(NoiseMechanism):
    """``height * exp(-|x| / scale)`` on ``[-radius, radius]``; the radius
    may be infinite."""

    def __init__(self, scale: float, radius: float, height: float):
        self.scale, self.radius, self.height = _checked_shape(scale, radius, height)
        # height * scale: the untruncated density's half-line mass, 1/(2(1 -
        # e^(-radius/scale))) as calibrated (0.500006 at (1, 1e-5), 1.4508 at
        # (0.1, 0.1)); exactly 1/2 only for Laplace.
        self._area = self.height * self.scale

    @classmethod
    def from_privacy(
        cls, params: PrivacyParams, sens: "Sensitivity | float"
    ) -> "TruncatedLaplace":
        """Calibrate the density shape for a privacy target.

        scale  = sensitivity / epsilon
        radius = scale * log(1 + (e^eps - 1) / (2 delta))
        height = 1 / (2 * scale * (1 - e^(-radius/scale)))

        The radius formula is exactly the point where the mass of the
        outermost sensitivity-wide slice of the support equals delta, which
        is what the privacy argument consumes.
        """
        return cls(*_calibrated_shape(
            as_sensitivity(sens).value / params.epsilon,
            radius_scale_ratio(params.epsilon, params.delta),
        ))

    @property
    def parameters(self) -> dict[str, float]:
        return {"scale": self.scale, "radius": self.radius, "height": self.height}

    # -- distribution surface -------------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        return (-self.radius, self.radius)

    def _pdf(self, x):
        inside = np.abs(x) <= self.radius
        return np.where(inside, self.height * np.exp(-np.abs(x) / self.scale), 0.0)

    def _quantile(self, u):
        tail = np.abs(u - 0.5) / self._area
        # |x| = -scale * log(1 - |u - 1/2| / (height*scale)); where the
        # support is bounded, u = 0 and u = 1 land on its edges up to
        # rounding, and never past them.
        magnitude = -self.scale * np.log1p(-np.minimum(tail, 1.0))
        return np.sign(u - 0.5) * np.minimum(magnitude, self.radius)

    def _upper_mass(self, a, b):
        # Anchored at the nearer endpoint a, so slices of mass ~delta near
        # the truncation edge, which the privacy accounting consumes, keep
        # full relative accuracy:
        #   height*scale * e^(-a/scale) * (1 - e^(-(b-a)/scale)),
        # with both ends clipped to the support.
        a = np.minimum(a, self.radius)
        b = np.minimum(b, self.radius)
        return self._area * np.exp(-a / self.scale) * -np.expm1(-(b - a) / self.scale)

    def _grid_masses(self, step: float, half_cells: int):
        """Closed-form masses of the positive half, read as
        :meth:`NoiseMechanism._grid_masses` reads them.

        Cell k covers ``[k*step, (k+1)*step)`` and holds
        ``height*scale * e^(-k t) * (1 - e^(-t))`` with ``t = step/scale``
        while it lies inside the support; the outermost cell takes everything
        beyond its left edge and cells entirely past the radius hold 0.
        ``e^(-k t)`` is the outer product of two short ``exp`` vectors, one
        factor per row of ``_EXP_BLOCK`` cells from cell 0 and one per cell
        of a row, so every mass is within a few roundings of exact and costs
        one multiply.  The factors are made once per grid.
        """
        H = int(half_cells)
        t = step / self.scale
        # Cells 0..full-1 are whole cells inside the support.  Cell full is
        # the outermost one with mass: it takes everything from its left
        # edge to the support's, and any cells past it hold 0.
        if math.isinf(self.radius):
            full, span = H - 1, math.inf
        else:
            from fractions import Fraction  # ~2 ms to import; only needed here

            radius, h = Fraction(self.radius), Fraction(step)
            full = min(H - 1, math.floor(radius / h))
            # radius/scale - full*t would cancel; radius - full*step is exact
            span = float(radius - full * h) / self.scale
        full = max(0, full)
        B = _EXP_BLOCK
        inner = np.exp(-t * np.arange(B))
        head = self._area * -math.expm1(-t)
        # lead[r] is the factor of row r, cells r*B..(r+1)*B-1, up to the
        # row of cell full
        lead = np.array([head * math.exp(-t * lo) for lo in range(0, full + 1, B)])
        # the mass of cell full, from its left edge to the support's
        edge = (self._area * np.exp(-np.arange(full, full + 1) * t)
                * -np.expm1(-np.array([span])))[0]

        def cells(k, out: np.ndarray) -> np.ndarray:
            if isinstance(k, np.ndarray):
                mass = lead[np.minimum(k, full) // B] * inner[k % B]
                out[...] = np.where(k < full, mass, np.where(k == full, edge, 0.0))
                return out
            # the run k..stop-1: the rest of k's row, whole rows, then the
            # start of the last row, all inside the support; then the rest
            stop = k + out.size
            inside = max(k, min(stop, full))
            whole = min(inside, -(-k // B) * B)  # the end of k's row
            rows = (inside - whole) // B
            for lo, hi in ((k, whole), (whole + rows * B, inside)):
                if lo < hi:
                    np.multiply(lead[lo // B], inner[lo % B : lo % B + hi - lo],
                                out=out[lo - k : hi - k])
            if rows > 0:
                r = whole // B
                np.multiply.outer(lead[r : r + rows], inner,
                                  out=out[whole - k : whole - k + rows * B].reshape(rows, B))
            if stop > full:
                out[max(full, k) - k :] = 0.0
                if k <= full:
                    out[full - k] = edge
            return out

        return cells

    def _grid_mass_error(self, step: float, half_cells: int) -> float:
        """A few ulp times ``1 + half_cells*step/scale``: every factor of a
        closed-form mass is within a few roundings, but ``e^(-k t)`` inherits
        the rounding of ``t`` times ``k t``, which grows to the grid's edge
        over the scale."""
        return 4.0 * _ULP * (1.0 + int(half_cells) * step / self.scale)

    # -- closed-form costs ----------------------------------------------------
    # scale * factor and 2 scale^2 * factor, the two-sided exponential's
    # E|X| and E[X^2] times the shrink factor of truncating it (1 at an
    # infinite radius).  The mechanism witnesses that the optimum is no
    # larger, so these are also the upper bounds that
    # :func:`dpnoise.bounds.bound_pair` reports.

    @property
    def expected_amplitude(self) -> float:
        return _amplitude(self.scale, self.radius)

    @property
    def expected_power(self) -> float:
        return _power(self.scale, self.radius)


# The calibration, the shape checks and the two costs as functions of plain
# floats, shared by the class above and by the grid kernel
# :func:`dpnoise.bounds._bound_table`, which builds no mechanism per point.


def _calibrated_shape(scale: float, x_ratio: float) -> tuple[float, float, float]:
    """(scale, radius, height) for :meth:`TruncatedLaplace.from_privacy`,
    with ``scale = sensitivity / epsilon`` and ``x_ratio =
    radius_scale_ratio(epsilon, delta)``; unchecked (a scale that
    underflows to 0 gives an infinite height)."""
    denom = 2.0 * scale * (-math.expm1(-x_ratio))
    return scale, scale * x_ratio, 1.0 / denom if denom else math.inf


def _checked_shape(
    scale: float, radius: float, height: float
) -> tuple[float, float, float]:
    """The shape as floats, or the DomainError that refuses it."""
    scale = _require_finite_positive(scale, "scale")
    if type(radius) is not float:  # the common case skips the ABC check
        radius = _as_real(radius, "radius")
    if not radius > 0.0:  # NaN too; +inf is Laplace's
        raise DomainError(f"radius must be > 0, got {radius!r}")
    return scale, radius, _require_finite_positive(height, "height")


def _amplitude(scale: float, radius: float) -> float:
    factor = truncation_amplitude_factor(radius / scale)
    return _cost_in_range(scale * factor, 1, scale, factor)


def _power(scale: float, radius: float) -> float:
    factor = truncation_power_factor(radius / scale)
    return _cost_in_range(2 * (scale * scale) * factor, 2, scale, factor)
