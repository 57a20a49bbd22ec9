"""Reference mechanisms the truncated Laplacian is measured against.

* :class:`Laplace` — the classical unbounded mechanism (pure epsilon privacy).
* :class:`Gaussian` with the exact calibration of Balle and Wang (ICML
  2018), which inverts the true Gaussian privacy profile by bisection.
* :class:`BoundedUniform` — the epsilon -> 0 limiting shape (a flat density
  of height delta/sensitivity), useful as an analytic cross-check.

The Gaussian's normal cdf, its log and its inverse are numpy kernels in this
module, so no part of the package imports scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ConvergenceError,
    CostKind,
    DomainError,
    NoiseMechanism,
    PrivacyParams,
    _NORMAL_MIN,
    _cost_in_range,
    _require_finite_positive,
)
from .trunclap import TruncatedLaplace

__all__ = [
    "Laplace",
    "Gaussian",
    "BoundedUniform",
    "analytic_gaussian_sigma",
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
    def from_privacy(cls, params: PrivacyParams, sens: float) -> "Laplace":
        """Scale sensitivity / epsilon: pure epsilon-privacy, delta unused."""
        return cls(_require_finite_positive(sens, "sensitivity") / params.epsilon)

    @property
    def parameters(self) -> dict[str, float]:
        return {"scale": self.scale}


# ---------------------------------------------------------------------------
# Gaussian

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_RSQRT2 = math.sqrt(0.5)


def _pairs(num, den):
    """A rational's coefficients as one (numerator, denominator) column per
    power, highest first.  The shorter row is led by zeros, which Horner's
    rule passes through exactly."""
    pad = (0.0,) * (len(den) - len(num))
    return tuple(np.array([pad + num, den]).T[:, :, None])


# Phi(a) = erfc(u)/2 at u = -a/sqrt(2), taken through erfcx(u) = e^(u*u)
# erfc(u), which is smooth and cannot underflow for u >= 0:
#     Phi(a) = erfcx(u)/2 * e^(-a*a/2),  log Phi(a) = log(erfcx(u)/2) - a*a/2.
# erfcx/2 is one rational in u on [0, 4] and one in s = (4/u)^2 beyond, each
# fitted for minimax relative error against 60-digit mpmath; rounded to
# doubles, and with erfcx(0) = 1 pinned, they are within 1.5e-16 and 6.7e-17.
# Coefficients run from the highest power down; the numerators are halved,
# which is exact.
_HALF_ERFCX_MID = _pairs(
    (0.00021318603082869076, 0.003431155663267872, 0.02592610236373508,
     0.11839508387459799, 0.35259492311797486, 0.6889400669391863,
     0.8297864169981487, 0.5),
    (0.0007557252400732334, 0.012163111251609196, 0.09228389614839716,
     0.42577592129418673, 1.295542794267242, 2.6456134305332895,
     3.5237470907735244, 2.7879520010917895, 1.0),
)
_HALF_ERFCX_TAIL = _pairs(  # of u * erfcx(u) / 2
    (9.237662015549437e-06, 0.0013137202903815714, 0.026329047887435036,
     0.165224354048123, 0.3824304049723325, 0.28209479177387814),
    (0.00010009569774721153, 0.0067728998095767734, 0.10929469087487184,
     0.626116975441883, 1.3869304879931306, 1.0),
)
# Wichura's AS241 (PPND16), Applied Statistics 37 (1988) 477-484: the
# central rational in r = 0.180625 - q^2, then the tails in r = sqrt(-log p)
# minus 1.6 (up to r = 5) and minus 5.
_NDTRI_CENTRAL = _pairs(
    (2509.0809287301227, 33430.57558358813, 67265.7709270087,
     45921.95393154987, 13731.69376550946, 1971.5909503065513,
     133.14166789178438, 3.3871328727963665),
    (5226.495278852854, 28729.085735721943, 39307.89580009271,
     21213.794301586597, 5394.196021424751, 687.1870074920579,
     42.31333070160091, 1.0),
)
_NDTRI_NEAR = _pairs(
    (0.0007745450142783414, 0.022723844989269184, 0.2417807251774506,
     1.2704582524523684, 3.6478483247632045, 5.769497221460691,
     4.630337846156546, 1.4234371107496835),
    (1.0507500716444169e-09, 0.0005475938084995345, 0.015198666563616457,
     0.14810397642748008, 0.6897673349851, 1.6763848301838038,
     2.053191626637759, 1.0),
)
_NDTRI_FAR = _pairs(
    (2.0103343992922881e-07, 2.7115555687434876e-05, 0.0012426609473880784,
     0.026532189526576124, 0.29656057182850487, 1.7848265399172913,
     5.463784911164114, 6.657904643501103),
    (2.0442631033899397e-15, 1.421511758316446e-07, 1.8463183175100548e-05,
     0.0007868691311456133, 0.014875361290850615, 0.1369298809227358,
     0.599832206555888, 1.0),
)


def _ratio(x, pairs, out=None):
    """num(x) / den(x) on a 1-d array: both by Horner's rule side by side in
    one (2, n) array, ``out`` if given, which keeps the quotient in its
    first row."""
    out = np.multiply(pairs[0], x, out=out)
    for c in pairs[1:-1]:
        out += c
        out *= x
    out += pairs[-1]
    return np.divide(out[0], out[1], out=out[0])


def _half_erfcx(u, work=None):
    """erfcx(u)/2 on a 1-d array of u >= 0, +inf included, which it
    overwrites; the result is the first row of ``work``, a (2, n) buffer,
    if given.  The [0, 4] rational runs on every element, clipped, since
    most arguments lie there; the tail one only on the rest, and first,
    while ``work`` is free."""
    if work is None:
        work = np.empty((2, u.size))
    tail = u > 4.0
    t = u[tail]
    if t.size:
        s = 4.0 / t
        s *= s
        t = np.divide(_ratio(s, _HALF_ERFCX_TAIL, work[:, :t.size]), t, out=s)
        np.minimum(u, 4.0, out=u)
    out = _ratio(u, _HALF_ERFCX_MID, work)
    out[tail] = t
    return out


def _exp_minus_half_square(x):
    """e^(-x*x/2) on a 1-d array of |x| <= 40, which it overwrites, with
    full relative accuracy: Cody's split x*x/2 = hi*hi/2 + lo*(x + hi)/2,
    with hi = x cut to 1/256 so that hi*hi is exact."""
    hi = x * 256.0
    np.trunc(hi, out=hi)
    hi /= 256.0
    lo = x + hi
    x -= hi
    lo *= x
    lo *= -0.5
    out = np.exp(lo, out=lo)
    hi *= hi
    hi *= -0.5
    out *= np.exp(hi, out=hi)
    return out


def _ndtr(x):
    """Phi(x) for x <= 0, with full relative accuracy down to where it
    underflows (below x = -38.5)."""
    x = np.maximum(np.asarray(x, dtype=float), -40.0)  # off exp's slow path
    shape, x = x.shape, x.reshape(-1)
    out = _half_erfcx(x * -_RSQRT2)
    out *= _exp_minus_half_square(x)
    return out.reshape(shape)


def _log_ndtr(a, work=None):
    """log Phi(a), elementwise.  With r = erfcx(|a|/sqrt(2))/2 this is
    log(r) - a*a/2 for a <= 0, so the deep tail never leaves log space, and
    log1p(-r e^(-a*a/2)) = log1p(-Phi(-a)) for a > 0.

    ``work``, a (3, a.size) buffer, holds every full-size temporary:
    |a|/sqrt(2), later a*a/2, in its first row, the rational's numerator,
    then the result, and its denominator in the others."""
    a = np.asarray(a, dtype=float)
    shape, a = a.shape, a.reshape(-1)
    if work is None:
        work = np.empty((3, a.size))
    u = np.abs(a, out=work[0])
    u *= _RSQRT2
    out = _half_erfcx(u, work[1:])
    pos = a > 0.0
    upper = out[pos]
    with np.errstate(divide="ignore", over="ignore"):  # a = -inf, |a| > 1e154
        np.log(out, out=out)
        np.multiply(a, a, out=u)  # u is spent
        u *= 0.5
        out -= u
    if upper.size:
        x = a[pos]
        upper *= _exp_minus_half_square(np.minimum(x, 40.0, out=x))
        np.negative(upper, out=upper)
        out[pos] = np.log1p(upper, out=upper)
    return out.reshape(shape)


def _ndtri(p):
    """The inverse of Phi on [0, 1], by AS241: -inf at 0 and +inf at 1."""
    p = np.asarray(p, dtype=float)
    shape, p = p.shape, p.reshape(-1)
    q = p - 0.5
    c = np.clip(q, -0.425, 0.425)
    out = c * _ratio(0.180625 - c * c, _NDTRI_CENTRAL)
    tail = np.abs(q) > 0.425
    if tail.any():
        pt = p[tail]
        # 1 - p is exact for p >= 1/2; each tail rational is taken on every
        # tail element and the one off its range dropped
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
            x = np.where(r <= 5.0, _ratio(r - 1.6, _NDTRI_NEAR),
                         _ratio(r - 5.0, _NDTRI_FAR))
        x[r == math.inf] = math.inf
        out[tail] = np.copysign(x, q[tail])
    return out.reshape(shape)


class Gaussian(NoiseMechanism):
    """Zero-mean Gaussian noise."""

    def __init__(self, sigma: float):
        self.sigma = _require_finite_positive(sigma, "sigma")

    @classmethod
    def from_privacy(cls, params: PrivacyParams, sens: float) -> "Gaussian":
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
        return self.sigma * _ndtri(u)

    def _upper_mass(self, a, b):
        # _ndtr only ever sees arguments <= 0, where it is small and fully
        # accurate, so deep-tail slices do not cancel against 1.
        return _ndtr(-a / self.sigma) - _ndtr(-b / self.sigma)

    @property
    def expected_amplitude(self) -> float:
        return _gaussian_cost(self.sigma, CostKind.AMPLITUDE)

    @property
    def expected_power(self) -> float:
        return _gaussian_cost(self.sigma, CostKind.POWER)


def _gaussian_cost(sigma, kind: CostKind):
    """E|X| or E[X^2] of zero-mean Gaussian noise of this sigma, which
    must be finite and > 0: the one formula for :class:`Gaussian` (a float)
    and for the sweep (a float array, one cost per sigma).  For the first
    sigma whose cost is refused, raises the error that sigma alone raises."""
    power = kind is CostKind.POWER
    with np.errstate(over="ignore"):
        cost = sigma * (sigma if power else _SQRT_2_OVER_PI)
    ok = (0.0 < sigma) & (sigma < math.inf)
    if power:
        ok = ok & (_NORMAL_MIN <= cost) & (cost < math.inf)
    if not np.all(ok):
        first = sigma if np.ndim(sigma) == 0 else sigma[np.argmin(ok)].item()
        first = _require_finite_positive(first, "sigma")
        _cost_in_range(first * first, 2, first)
    return cost


def _log_terms(sigma, epsilon, sens: float, work=None):
    """log Phi(sens/(2 sigma) - eps sigma/sens) and
    eps + log Phi(-sens/(2 sigma) - eps sigma/sens), elementwise: the two
    terms of the Gaussian privacy profile, the smallest delta for which
    noise of this sigma is (eps, delta)-private at this sensitivity,

        Phi(sens/(2 sigma) - eps sigma/sens)
            - e^eps * Phi(-sens/(2 sigma) - eps sigma/sens),

    taken in log space so that the e^eps factor cannot overflow and the
    difference keeps relative accuracy deep into the tails.

    ``work``, a buffer of 4 rows and at least 2 n columns for n sigmas,
    holds both arguments and the kernel's temporaries; the two results are
    views into it, good until it is lent again."""
    # -(s / (2 sigma)) is exactly (-s) / (2 sigma), so both arguments share
    # both quotients, and one kernel call takes them side by side
    half = sens / (2.0 * sigma)
    m = 2 * np.size(half)
    if work is None:
        work = np.empty((4, m))
    args = np.multiply.outer(
        (1.0, -1.0), half, out=work[0, :m].reshape((2,) + np.shape(half))
    )
    args -= epsilon * sigma / sens
    log_hi, log_lo = _log_ndtr(args, work[1:, :m])
    log_lo += epsilon
    return log_hi, log_lo


def _exact_profile(log_hi, log_lo) -> list:
    """The privacy profile from its two log terms, :func:`_log_terms`, in
    double precision."""
    # math's exp and expm1, not numpy's: numpy's SIMD versions can round
    # differently, and the bisection compares this value against delta.
    return [
        0.0 if lo >= hi else -math.exp(hi) * math.expm1(lo - hi)
        for lo, hi in zip(np.ravel(log_lo).tolist(), np.ravel(log_hi).tolist())
    ]


# numpy's exp and expm1 stay within a few ulp of math's, far inside this
# relative band around delta.
_GUARD = 1e-12


def _excess(sigma, epsilon, delta, sens: float, work=None) -> np.ndarray:
    """The privacy profile minus delta, elementwise and up to rounding,
    with the sign of every element exactly as :func:`_exact_profile`'s;
    the sign is all the bisection reads.

    The profile is taken in numpy and taken again with math's functions
    only where numpy's rounding could move the sign: within ``_GUARD``
    relative of delta, and below the smallest normal double, where
    relative error bounds fail.  The caller sets the error state, and may
    lend :func:`_log_terms` its buffer.
    """
    log_hi, log_lo = _log_terms(sigma, epsilon, sens, work)
    # -e^hi expm1(lo - hi), and 0 where lo >= hi, in place in one array
    profile = np.subtract(log_lo, log_hi)
    np.expm1(profile, out=profile)
    profile *= np.exp(log_hi)
    np.negative(profile, out=profile)
    profile[log_lo >= log_hi] = 0.0
    near = ~(
        (np.abs(profile - delta) > _GUARD * delta) & (profile >= _NORMAL_MIN)
    )
    if near.any():
        profile[near] = _exact_profile(log_hi[near], log_lo[near])
    return profile - delta


def analytic_gaussian_sigma(params: PrivacyParams, sens: float) -> float:
    """Minimal sigma whose privacy profile meets the target, by bisection.

    Bracketing starts at [sens * 1e-6 / eps, sens / eps]; the upper end is
    doubled until it satisfies the target (at most 200 doublings, then
    :class:`ConvergenceError`).  Bisection runs to 1e-12 relative width and
    returns the feasible endpoint: feasible as the double-precision profile
    (:func:`_exact_profile`) decides it.

    The exact profile at the result exceeds delta by that profile's error,
    which grows as eps shrinks.  Against 60-digit mpmath, over delta from
    1e-300 to 0.49, it is below 1e-9 relative for eps >= 0.3, ~3e-6 near
    eps = 1e-4, 18% at (eps, delta) = (1e-9, 1e-300) and 1,536 times delta
    at (1e-20, 1e-20); below eps ~ 2e-10 the result can be far too small.
    """
    return float(_analytic_sigmas([params.epsilon], [params.delta], sens)[0])


def _analytic_sigmas(epsilon, delta, sens: float) -> np.ndarray:
    """:func:`analytic_gaussian_sigma` at every (epsilon[i], delta[i]).

    The bracketing and the bisection run in lockstep over the points still
    active.  Each point keeps its own bracket and leaves a loop exactly where
    a one-point run would, so it sees the same midpoints and ends on the same
    float.  A failing point is set aside, and once all points are done the
    error of the first failing one is raised, as point-by-point order would.
    """
    sens = _require_finite_positive(sens, "sensitivity")
    epsilon = np.asarray(epsilon, dtype=float)
    delta = np.asarray(delta, dtype=float)
    failed = np.zeros(epsilon.shape, dtype=bool)
    errors: dict[int, Exception] = {}
    # one buffer for the log terms of every round, not a fresh one each
    work = np.empty((4, 2 * epsilon.size))

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
        return idx, _excess(sigma[idx], epsilon[idx], delta[idx], sens, work)

    def bracket(end: np.ndarray, moves, factor: float, side: str) -> None:
        # Scale ``end`` by ``factor`` at the points where moves(excess, 0)
        # holds, up to 201 times; hi takes each end it leaves (a no-op when
        # ``end`` is hi).
        idx = np.flatnonzero(~failed)
        for _ in range(201):
            idx, over = excess(end, idx)
            idx = idx[moves(over, 0.0)]
            if not idx.size:
                return
            hi[idx] = end[idx]
            end[idx] *= factor
        fail(idx, ConvergenceError(
            f"could not bracket the Gaussian calibration from {side}"
        ))

    with np.errstate(all="ignore"):
        lo = sens * 1e-6 / epsilon
        hi = sens / epsilon
        bracket(hi, np.greater, 2.0, "above")
        # The profile tends to 1 as sigma -> 0, so a violating lower end
        # always exists; shrink towards it where the default is feasible.
        bracket(lo, np.less_equal, 0.5, "below")
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
            up = _excess(mid, eps, dlt, sens, work) > 0.0
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
    def from_privacy(cls, params: PrivacyParams, sens: float) -> "BoundedUniform":
        """Half-width sensitivity / (2 delta), the epsilon -> 0 limit;
        epsilon unused."""
        half_width = _require_finite_positive(sens, "sensitivity") / (2.0 * params.delta)
        if half_width == math.inf:  # a subnormal delta, or a huge sensitivity
            raise DomainError(
                "half-width sensitivity/(2 delta) overflows: delta is too small "
                "for this sensitivity"
            )
        return cls(half_width)

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
