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
    _as_checked_array,
    _cost_in_range,
    _exponential_grid_masses,
    _exponential_moment,
    _scalar_or_array,
    as_sensitivity,
)

__all__ = [
    "Laplace",
    "Gaussian",
    "BoundedUniform",
    "laplace_mechanism",
    "analytic_gaussian_sigma",
    "gaussian_privacy_profile",
    "uniform_limit_mechanism",
]


# ---------------------------------------------------------------------------
# Laplace


class Laplace(NoiseMechanism):
    """Two-sided exponential noise with unbounded support."""

    def __init__(self, scale: float):
        if not math.isfinite(scale) or scale <= 0.0:
            raise DomainError(f"scale must be finite and > 0, got {scale!r}")
        self.scale = float(scale)

    @property
    def parameters(self) -> dict[str, float]:
        return {"scale": self.scale}

    @property
    def support(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    def pdf(self, x):
        arr, scalar = _as_checked_array(x)
        values = np.exp(-np.abs(arr) / self.scale) / (2.0 * self.scale)
        return _scalar_or_array(values, scalar)

    def quantile(self, u):
        arr, scalar = _as_checked_array(u, "u")
        if np.any(arr <= 0.0) or np.any(arr >= 1.0):
            raise DomainError("quantile argument must lie in (0, 1)")
        values = -self.scale * np.sign(arr - 0.5) * np.log1p(-2.0 * np.abs(arr - 0.5))
        return _scalar_or_array(values, scalar)

    def _upper_mass(self, a, b):
        # Anchored at a, so deep-tail slices keep full relative accuracy.
        return 0.5 * np.exp(-a / self.scale) * -np.expm1(-(b - a) / self.scale)

    def grid_masses(self, step: float, half_cells: int) -> np.ndarray:
        # Closed form; each outermost cell takes its whole unbounded tail.
        return _exponential_grid_masses(0.5, self.scale, math.inf, step, half_cells)

    @property
    def expected_amplitude(self) -> float:
        return self.scale

    @property
    def expected_power(self) -> float:
        return _exponential_moment(self.scale, 2)


def laplace_mechanism(epsilon: float, sens: "Sensitivity | float") -> Laplace:
    """Laplace noise scaled for pure epsilon-privacy (no delta needed)."""
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise DomainError(f"epsilon must be finite and > 0, got {epsilon!r}")
    return Laplace(as_sensitivity(sens).value / epsilon)


# ---------------------------------------------------------------------------
# Gaussian

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


class Gaussian(NoiseMechanism):
    """Zero-mean Gaussian noise."""

    def __init__(self, sigma: float):
        if not math.isfinite(sigma) or sigma <= 0.0:
            raise DomainError(f"sigma must be finite and > 0, got {sigma!r}")
        self.sigma = float(sigma)

    @property
    def parameters(self) -> dict[str, float]:
        return {"sigma": self.sigma}

    @property
    def support(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    def pdf(self, x):
        arr, scalar = _as_checked_array(x)
        z = arr / self.sigma
        values = np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))
        return _scalar_or_array(values, scalar)

    def quantile(self, u):
        arr, scalar = _as_checked_array(u, "u")
        if np.any(arr <= 0.0) or np.any(arr >= 1.0):
            raise DomainError("quantile argument must lie in (0, 1)")
        from scipy.special import ndtri

        values = self.sigma * ndtri(arr)
        return _scalar_or_array(np.asarray(values), scalar)

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
        return _cost_in_range(
            lambda: self.sigma * self.sigma,
            2,
            self.sigma,
            "(sigma): epsilon is too small",
        )


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
    if not math.isfinite(sigma) or sigma <= 0.0:
        raise DomainError(f"sigma must be finite and > 0, got {sigma!r}")
    sens_value = as_sensitivity(sens).value
    with np.errstate(all="ignore"):
        return float(_profile(np.float64(sigma), params.epsilon, sens_value)[0])


def _profile(sigma, epsilon, sens_value: float) -> np.ndarray:
    """:func:`gaussian_privacy_profile` elementwise over arrays of checked
    sigma and epsilon; the caller sets the floating-point error state."""
    from scipy.special import log_ndtr

    a = sens_value / (2.0 * sigma) - epsilon * sigma / sens_value
    b = -sens_value / (2.0 * sigma) - epsilon * sigma / sens_value
    log_hi = log_ndtr(a)
    log_lo = epsilon + log_ndtr(b)
    # math's exp and expm1, not numpy's: numpy's SIMD versions can round
    # differently, and the bisection compares this value against delta.
    return np.array(
        [
            0.0 if lo >= hi else -math.exp(hi) * math.expm1(lo - hi)
            for lo, hi in zip(np.ravel(log_lo).tolist(), np.ravel(log_hi).tolist())
        ]
    )


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
        return idx, _profile(sigma[idx], epsilon[idx], sens_value) - delta[idx]

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
            up = _profile(mid, eps, sens_value) - dlt > 0.0
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
        if not math.isfinite(half_width) or half_width <= 0.0:
            raise DomainError(
                f"half_width must be finite and > 0, got {half_width!r}"
            )
        self.half_width = float(half_width)

    @property
    def parameters(self) -> dict[str, float]:
        return {"half_width": self.half_width}

    @property
    def support(self) -> tuple[float, float]:
        return (-self.half_width, self.half_width)

    def pdf(self, x):
        arr, scalar = _as_checked_array(x)
        inside = np.abs(arr) <= self.half_width
        values = np.where(inside, 0.5 / self.half_width, 0.0)
        return _scalar_or_array(values, scalar)

    def quantile(self, u):
        arr, scalar = _as_checked_array(u, "u")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise DomainError("quantile argument must lie in [0, 1]")
        values = (2.0 * arr - 1.0) * self.half_width
        return _scalar_or_array(values, scalar)

    def _upper_mass(self, a, b):
        w = self.half_width
        return (np.minimum(b, w) - np.minimum(a, w)) / (2.0 * w)

    @property
    def expected_amplitude(self) -> float:
        return 0.5 * self.half_width

    @property
    def expected_power(self) -> float:
        return _cost_in_range(
            lambda: self.half_width**2 / 3.0,
            2,
            self.half_width,
            "(sensitivity / (2 delta)): delta is too small",
        )


def uniform_limit_mechanism(delta: float, sens: "Sensitivity | float") -> BoundedUniform:
    """The epsilon -> 0 limit mechanism: uniform with half-width sens/(2 delta)."""
    if not math.isfinite(delta) or not 0.0 < delta < 0.5:
        raise DomainError(f"delta must lie strictly inside (0, 0.5), got {delta!r}")
    return BoundedUniform(as_sensitivity(sens).value / (2.0 * delta))
