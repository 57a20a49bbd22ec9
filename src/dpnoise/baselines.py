"""Reference mechanisms the truncated Laplacian is measured against.

* :class:`Laplace` — the classical unbounded mechanism (pure epsilon privacy).
* :class:`Gaussian` with the exact calibration of Balle and Wang (ICML
  2018), which inverts the true Gaussian privacy profile by bisection.
* :class:`BoundedUniform` — the epsilon -> 0 limiting shape (a flat density
  of height delta/sensitivity), useful as an analytic cross-check.

Only the Gaussian code needs ``scipy.special``, and it imports it where it is
used, so importing this module (and the package) does not load scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ConvergenceError,
    DomainError,
    NoiseMechanism,
    PrivacyParams,
    Sensitivity,
    _NORMAL_MIN,
    _cost_in_range,
    _require_finite_positive,
    as_sensitivity,
)
from .trunclap import TruncatedLaplace

__all__ = [
    "Laplace",
    "Gaussian",
    "BoundedUniform",
    "analytic_gaussian_sigma",
    "gaussian_privacy_profile",
]


# ---------------------------------------------------------------------------
# Laplace


class Laplace(TruncatedLaplace):
    """Two-sided exponential noise with unbounded support: the truncated
    Laplacian with an infinite radius and height ``1/(2 scale)``."""

    def __init__(self, scale: float):
        scale = _require_finite_positive(scale, "scale")
        height = 0.5 / scale
        if height == math.inf:
            raise DomainError(
                f"density height 1/(2 scale) overflows at noise scale {scale!r}"
            )
        super().__init__(scale, math.inf, height)
        # Each half line holds exactly 1/2; height * scale can be an ulp off.
        self._area = 0.5

    @classmethod
    def from_privacy(
        cls, params: PrivacyParams, sens: "Sensitivity | float"
    ) -> "Laplace":
        """Scale sensitivity / epsilon: pure epsilon-privacy, delta unused."""
        return cls(as_sensitivity(sens).value / params.epsilon)

    @property
    def parameters(self) -> dict[str, float]:
        return {"scale": self.scale}


# ---------------------------------------------------------------------------
# Gaussian

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


class Gaussian(NoiseMechanism):
    """Zero-mean Gaussian noise."""

    def __init__(self, sigma: float):
        self.sigma = _require_finite_positive(sigma, "sigma")

    @classmethod
    def from_privacy(
        cls, params: PrivacyParams, sens: "Sensitivity | float"
    ) -> "Gaussian":
        """The exact sigma, :func:`analytic_gaussian_sigma`."""
        return cls(analytic_gaussian_sigma(params, sens))

    @property
    def parameters(self) -> dict[str, float]:
        return {"sigma": self.sigma}

    @property
    def support(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    def _pdf(self, x):
        z = x / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    def _quantile(self, u):
        from scipy.special import ndtri

        return self.sigma * ndtri(u)

    def _upper_mass(self, a, b):
        from scipy.special import ndtr

        # ndtr only ever sees arguments <= 0, where it is small and fully
        # accurate, so deep-tail slices do not cancel against 1.
        return ndtr(-a / self.sigma) - ndtr(-b / self.sigma)

    @property
    def expected_amplitude(self) -> float:
        return self.sigma * _SQRT_2_OVER_PI

    @property
    def expected_power(self) -> float:
        return _cost_in_range(self.sigma * self.sigma, 2, self.sigma)


def gaussian_privacy_profile(
    sigma: float, params: PrivacyParams, sens: "Sensitivity | float"
) -> float:
    """The smallest delta for which Gaussian noise of this sigma is
    (epsilon, delta)-private on queries of the given sensitivity:

        Phi(sens/(2 sigma) - eps sigma/sens)
            - e^eps * Phi(-sens/(2 sigma) - eps sigma/sens)

    Evaluated in log space so the e^eps factor cannot overflow and the
    difference keeps relative accuracy deep into the tails.
    """
    sigma = _require_finite_positive(sigma, "sigma")
    sens_value = as_sensitivity(sens).value
    with np.errstate(all="ignore"):
        return _exact_profile(
            *_log_terms(np.float64(sigma), params.epsilon, sens_value)
        )[0]


def _log_terms(sigma, epsilon, sens_value: float):
    """log Phi(sens/(2 sigma) - eps sigma/sens) and
    eps + log Phi(-sens/(2 sigma) - eps sigma/sens), elementwise."""
    from scipy.special import log_ndtr

    a = sens_value / (2.0 * sigma) - epsilon * sigma / sens_value
    b = -sens_value / (2.0 * sigma) - epsilon * sigma / sens_value
    return log_ndtr(a), epsilon + log_ndtr(b)


def _exact_profile(log_hi, log_lo) -> list:
    # math's exp and expm1, not numpy's: numpy's SIMD versions can round
    # differently, and the bisection compares this value against delta.
    return [
        0.0 if lo >= hi else -math.exp(hi) * math.expm1(lo - hi)
        for lo, hi in zip(np.ravel(log_lo).tolist(), np.ravel(log_hi).tolist())
    ]


# numpy's exp and expm1 stay within a few ulp of math's, far inside this
# relative band around delta.
_GUARD = 1e-12


def _excess(sigma, epsilon, delta, sens_value: float) -> np.ndarray:
    """:func:`gaussian_privacy_profile` minus delta, elementwise and up to
    rounding, with the sign of every element exactly as that function's;
    the sign is all the bisection reads.

    The profile is taken in numpy and taken again with math's functions
    only where numpy's rounding could move the sign: within ``_GUARD``
    relative of delta, and below the smallest normal double, where
    relative error bounds fail.  The caller sets the error state.
    """
    log_hi, log_lo = _log_terms(sigma, epsilon, sens_value)
    profile = np.where(
        log_lo >= log_hi, 0.0, -np.exp(log_hi) * np.expm1(log_lo - log_hi)
    )
    near = ~(
        (np.abs(profile - delta) > _GUARD * delta) & (profile >= _NORMAL_MIN)
    )
    if near.any():
        profile[near] = _exact_profile(log_hi[near], log_lo[near])
    return profile - delta


def analytic_gaussian_sigma(
    params: PrivacyParams, sens: "Sensitivity | float"
) -> float:
    """Minimal sigma whose privacy profile meets the target, by bisection.

    Bracketing starts at [sens * 1e-6 / eps, sens / eps]; the upper end is
    doubled until it satisfies the target (at most 200 doublings, then
    :class:`ConvergenceError`).  Bisection runs to 1e-12 relative width and
    returns the feasible endpoint, so the result always satisfies the target.
    """
    return float(_analytic_sigmas([params.epsilon], [params.delta], sens)[0])


def _analytic_sigmas(epsilon, delta, sens: "Sensitivity | float") -> np.ndarray:
    """:func:`analytic_gaussian_sigma` at every (epsilon[i], delta[i]).

    The bracketing and the bisection run in lockstep over the points still
    active.  Each point keeps its own bracket and leaves a loop exactly where
    a one-point run would, so it sees the same midpoints and ends on the same
    float.  A failing point is set aside, and once all points are done the
    error of the first failing one is raised, as point-by-point order would.
    """
    sens_value = as_sensitivity(sens).value
    epsilon = np.asarray(epsilon, dtype=float)
    delta = np.asarray(delta, dtype=float)
    failed = np.zeros(epsilon.shape, dtype=bool)
    errors: dict[int, Exception] = {}

    def fail(idx: np.ndarray, error: Exception) -> None:
        failed[idx] = True
        errors[int(idx[0])] = error

    def excess(sigma: np.ndarray, idx: np.ndarray):
        # A sigma that over- or underflowed fails as the profile rejects it.
        bad = ~(np.isfinite(sigma[idx]) & (sigma[idx] > 0.0))
        if bad.any():
            first = float(sigma[idx[bad][0]])
            fail(idx[bad], DomainError(
                f"sigma must be finite and > 0, got {first!r}"
            ))
            idx = idx[~bad]
        return idx, _excess(sigma[idx], epsilon[idx], delta[idx], sens_value)

    with np.errstate(all="ignore"):
        lo = sens_value * 1e-6 / epsilon
        hi = sens_value / epsilon
        idx = np.arange(epsilon.size)
        doublings = 0
        while True:
            idx, over = excess(hi, idx)
            idx = idx[over > 0.0]
            if not idx.size:
                break
            hi[idx] *= 2.0
            doublings += 1
            if doublings > 200:
                fail(idx, ConvergenceError(
                    "could not bracket the Gaussian calibration from above"
                ))
                break
        # The profile tends to 1 as sigma -> 0, so a violating lower end
        # always exists; shrink towards it where the default is feasible.
        idx = np.flatnonzero(~failed)
        shrinks = 0
        while True:
            idx, over = excess(lo, idx)
            idx = idx[over <= 0.0]
            if not idx.size:
                break
            hi[idx] = lo[idx]
            lo[idx] *= 0.5
            shrinks += 1
            if shrinks > 200:
                fail(idx, ConvergenceError(
                    "could not bracket the Gaussian calibration from below"
                ))
                break
        idx = np.flatnonzero(~failed)
        eps, dlt, low, high = epsilon[idx], delta[idx], lo[idx], hi[idx]
        while idx.size:
            mid = 0.5 * (low + high)
            # Stop at 1e-12 relative width, or once no float lies strictly
            # inside the interval; a stopped point keeps its feasible end.
            go = (high - low > 1e-12 * high) & (mid > low) & (mid < high)
            if not go.all():
                hi[idx[~go]] = high[~go]
                idx, eps, dlt = idx[go], eps[go], dlt[go]
                low, high, mid = low[go], high[go], mid[go]
            up = _excess(mid, eps, dlt, sens_value) > 0.0
            low = np.where(up, mid, low)
            high = np.where(up, high, mid)
    if errors:
        raise errors[min(errors)]
    return hi


# ---------------------------------------------------------------------------
# Uniform limit


class BoundedUniform(NoiseMechanism):
    """Flat density on [-half_width, half_width].

    With ``half_width = sens/(2 delta)`` this is the shape the calibrated
    truncated Laplacian converges to as epsilon -> 0: density delta/sens on
    its support, satisfying the (0, delta) privacy constraint exactly.
    """

    def __init__(self, half_width: float):
        self.half_width = _require_finite_positive(half_width, "half_width")

    @classmethod
    def from_privacy(
        cls, params: PrivacyParams, sens: "Sensitivity | float"
    ) -> "BoundedUniform":
        """Half-width sensitivity / (2 delta), the epsilon -> 0 limit;
        epsilon unused."""
        return cls(as_sensitivity(sens).value / (2.0 * params.delta))

    @property
    def parameters(self) -> dict[str, float]:
        return {"half_width": self.half_width}

    @property
    def support(self) -> tuple[float, float]:
        return (-self.half_width, self.half_width)

    def _pdf(self, x):
        return np.where(np.abs(x) <= self.half_width, 0.5 / self.half_width, 0.0)

    def _quantile(self, u):
        return (2.0 * u - 1.0) * self.half_width

    def _upper_mass(self, a, b):
        w = self.half_width
        return (np.minimum(b, w) - np.minimum(a, w)) / (2.0 * w)

    @property
    def expected_amplitude(self) -> float:
        return 0.5 * self.half_width

    @property
    def expected_power(self) -> float:
        w = self.half_width
        return _cost_in_range(w * w / 3.0, 2, w)
