"""Brute-force privacy verification on a discretized distribution.

The check is mechanism-agnostic ground truth: cut the noise density into
cells of width ``step``, and for every shift of up to one sensitivity in
either direction measure the worst cell-set privacy violation

    violation(j) = sum_i max(0, p_i - e^eps * p_{i+j}).

This is the exact supremum of ``P(S) - e^eps P(S + j*step)`` over sets built
from whole cells, hence a lower bound on the continuous supremum; the
reported tolerance bounds what the cell granularity can hide.

For efficiency, grids whose cell masses are log-concave and exactly
mirrored (those of every mechanism this package ships) use an exact fast
path.  There shift -j mirrors +j, so only positive shifts are checked; the
optimal cell set for each is a run of cells ending at the support edge,
found by binary search on the monotone mass-ratio sequence and summed via
suffix sums.  Edge cells — which carry folded-in tail mass and may break
log-concavity — are accounted for separately and exactly.  Every other grid
falls back to the direct scan of both directions.  Both paths return the
same sums.

Cell masses come from the mechanism (``NoiseMechanism.grid_masses``): the
exponential mechanisms give them in closed form, the others take the
positive half from their half-line mass and mirror it.  The grid-wide
kernels (the log-concavity gate and the tolerance) walk the grid in
fixed-size blocks, so apart from the masses and their suffix sums no
temporary grows with the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DomainError,
    NoiseMechanism,
    PrivacyParams,
    Sensitivity,
    as_sensitivity,
)

__all__ = [
    "DiscretizedDist",
    "discretize",
    "max_violation",
    "dp_check",
    "ViolationReport",
]

_MAX_CELLS = 400_000_000  # refuse grids that cannot fit in memory
_BLOCK = 1 << 15  # cells per block of the grid-wide kernels (L2-sized temporaries)


def _width_jitter(n_cells: int) -> float:
    """Relative wobble of cell widths caused by float grid geometry.

    Cell edges are ``origin + step*arange``, so the outermost edges of an
    n-cell grid centered near zero round at ``ulp((n/2)*step)``.  Individual
    cell widths — and with them the cell masses of a smooth density — then
    wobble by up to about ``2**-52 * 2n`` relative, even when the density
    itself is evaluated exactly.  Every float-slack constant in this module
    scales with this quantity.
    """
    return 2.0**-52 * 2.0 * float(n_cells)


@dataclass
class DiscretizedDist:
    """Cell masses of a noise distribution on a regular grid.

    Cell ``i`` covers ``[origin + i*step, origin + (i+1)*step)``; a shift of
    the underlying variable by one sensitivity moves mass by exactly
    ``shift_cells`` cells.
    """

    origin: float
    step: float
    masses: np.ndarray
    shift_cells: int

    # derived, filled in __post_init__
    _run: tuple[int, int] = field(init=False, repr=False)
    _fast_ok: bool = field(init=False, repr=False)
    _mirrored: bool = field(init=False, repr=False)
    _suffix: "np.ndarray | None" = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise DomainError(f"step must be finite and > 0, got {self.step!r}")
        if int(self.shift_cells) < 1:
            raise DomainError("shift_cells must be a positive integer")
        self.shift_cells = int(self.shift_cells)
        self.masses = np.asarray(self.masses, dtype=float)
        if self.masses.ndim != 1 or self.masses.size == 0:
            raise DomainError("masses must be a non-empty 1-d array")
        # min/max reject negatives, NaN (min is NaN) and infinities without
        # a grid-sized temporary.
        if not (self.masses.min() >= 0.0 and self.masses.max() < math.inf):
            raise DomainError("masses must be finite and non-negative")
        positive = self.masses > 0.0
        s = int(np.argmax(positive))
        if not positive[s]:
            raise DomainError("masses must carry some probability")
        e = self.masses.size - 1 - int(np.argmax(positive[::-1]))
        self._run = (s, e)
        contiguous = bool(positive[s : e + 1].all())
        self._fast_ok = contiguous and self._interior_log_concave(s, e)
        self._mirrored = bool(np.array_equal(self.masses, self.masses[::-1]))

    def _interior_log_concave(self, s: int, e: int) -> bool:
        # Edge cells may hold folded tail mass, so only the interior run is
        # required to be log-concave; the fast path treats edges explicitly.
        # The slack absorbs grid geometry (see _width_jitter); a density
        # whose log-concavity defect sits below that scale is numerically
        # indistinguishable from a log-concave one on this grid.
        inner = self.masses[s + 1 : e]
        if inner.size < 3:
            return True
        slack = max(1e-10, 8.0 * _width_jitter(self.masses.size))
        use_logs = inner.min() < 1e-150  # products could underflow; stay honest
        # Cells i-1, i, i+1 for the middle cells i of each block; adjacent
        # blocks overlap by two cells.
        for lo in range(0, inner.size - 2, _BLOCK):
            m = inner[lo : lo + _BLOCK + 2]
            if use_logs:
                logs = np.log(m)
                ok = np.all(2.0 * logs[1:-1] >= logs[:-2] + logs[2:] - slack)
            else:
                ok = np.all(m[1:-1] * m[1:-1] >= m[:-2] * m[2:] * (1.0 - slack))
            if not ok:
                return False
        return True

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def _sums(self) -> np.ndarray:
        """Suffix partial sums, cached: ``suffix[t]`` is the mass of cells
        ``t..K-1``, accumulated from the right edge so that it is
        relatively accurate where the small violation sums are read off."""
        if self._suffix is None:
            K = self.masses.size
            suffix = np.empty(K + 1)
            suffix[K] = 0.0
            np.cumsum(self.masses[::-1], out=suffix[:K][::-1])
            self._suffix = suffix
        return self._suffix


def discretize(
    mech: NoiseMechanism,
    sens: "Sensitivity | float",
    step: "float | None" = None,
    radius: "float | None" = None,
) -> DiscretizedDist:
    """Cut a mechanism's density into cells of width ``step``.

    ``step`` must divide the sensitivity into at least 10 cells (default:
    1/1000th of it).  ``radius`` defaults to the support edge for bounded
    mechanisms and to the two-sided 1 - 1e-12 quantile range otherwise; any
    mass beyond the outermost cells is folded into them, so the cell masses
    always account for the full distribution.
    """
    sens_value = as_sensitivity(sens).value
    if step is None:
        step = sens_value / 1000.0
    if not (math.isfinite(step) and step > 0.0):
        raise DomainError(f"step must be finite and > 0, got {step!r}")
    shift_cells = round(sens_value / step)
    if shift_cells < 10 or abs(shift_cells * step - sens_value) > 1e-9 * sens_value:
        raise DomainError(
            "step must divide the sensitivity into an integer number of "
            f"cells, at least 10 (got sensitivity/step = {sens_value / step!r})"
        )
    if radius is None:
        lo, hi = mech.support
        if math.isfinite(lo) and math.isfinite(hi):
            radius = max(abs(lo), abs(hi))
        else:
            radius = float(
                max(mech.quantile(1.0 - 5e-13), -mech.quantile(5e-13))
            )
    if not (math.isfinite(radius) and radius > 0.0):
        raise DomainError(f"radius must be finite and > 0, got {radius!r}")
    half_cells = int(math.ceil(radius / step - 1e-12))
    if 2 * half_cells > _MAX_CELLS:
        raise DomainError(
            f"grid of {2 * half_cells} cells is too large; increase step "
            "or decrease radius"
        )
    origin = -half_cells * step
    masses = mech.grid_masses(step, half_cells)
    return DiscretizedDist(
        origin=origin, step=step, masses=masses, shift_cells=shift_cells
    )


# ---------------------------------------------------------------------------
# Violation sums


def _direct_violation(masses: np.ndarray, c: float, j: int) -> float:
    """sum_i max(0, p_i - c * p_{i+j}) by full scan; shifted-out cells are 0."""
    K = masses.size
    jj = abs(j)
    if jj == 0:
        return 0.0  # c = e^eps >= 1
    if jj >= K:
        return float(masses.sum())
    if j > 0:
        overlap = np.maximum(masses[: K - jj] - c * masses[jj:], 0.0).sum()
        spill = masses[K - jj :].sum()
    else:
        overlap = np.maximum(masses[jj:] - c * masses[: K - jj], 0.0).sum()
        spill = masses[:jj].sum()
    return float(overlap + spill)


def _fast_forward_violations(
    masses: np.ndarray,
    suffix: np.ndarray,
    s: int,
    e: int,
    c: float,
    max_shift: int,
) -> np.ndarray:
    """Exact violations for shifts +1..max_shift on a log-concave run.

    The optimal positive cell set decomposes as:
      * a suffix of the interior found by binary search on the monotone
        ratio p_i / p_{i+j} (strictly thresholded so float-level ties fall
        out of the set, where they contribute nothing anyway),
      * the one interior cell whose shifted target is the (possibly
        fold-inflated) right edge cell, taken explicitly,
      * all cells shifted past the support (they contribute their own mass),
      * the (possibly fold-inflated) left edge cell, taken explicitly.
    """
    K = masses.size
    # Strictness keeps float-level ties (ratio exactly e^eps up to grid
    # jitter) out of the suffix: they contribute nothing to the true sum,
    # and excluding them keeps the searched predicate monotone.
    strict = 1.0 + max(1e-9, 4.0 * _width_jitter(K))
    j = np.arange(1, max_shift + 1, dtype=np.int64)
    dip = e - j  # the index whose target is the right edge cell
    dom_hi = np.maximum(dip, s + 1)  # past-the-end sentinel of the search

    lo = np.full(j.shape, s + 1, dtype=np.int64)
    hi = dom_hi.copy()
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) // 2
        pred = masses[mid] > c * masses[np.minimum(mid + j, K - 1)] * strict
        take = active & pred
        skip = active & ~pred
        hi[take] = mid[take]
        lo[skip] = mid[skip] + 1
    boundary = lo

    # Window around the boundary absorbs float-level jitter in the predicate.
    viol_interior = np.zeros(j.shape)
    for w in (-2, -1, 0, 1, 2):
        start = np.clip(boundary + w, s + 1, dom_hi)
        src = suffix[start] - suffix[dom_hi]
        tgt = suffix[np.minimum(start + j, K)] - suffix[np.minimum(dom_hi + j, K)]
        viol_interior = np.maximum(viol_interior, src - c * tgt)
    viol_interior = np.maximum(viol_interior, 0.0)

    dip_valid = dip >= s + 1
    d_dip = masses[np.clip(dip, 0, K - 1)] - c * masses[e]
    dip_term = np.where(dip_valid, np.maximum(d_dip, 0.0), 0.0)

    past = suffix[np.clip(dip + 1, s + 1, e + 1)] - suffix[e + 1]

    left_target = np.where(s + j <= e, masses[np.minimum(s + j, K - 1)], 0.0)
    d_left = masses[s] - c * left_target
    left_term = np.maximum(d_left, 0.0)

    return viol_interior + dip_term + past + left_term


def _exp_epsilon(epsilon: float) -> float:
    """e^epsilon; DomainError where it overflows a double."""
    try:
        return math.exp(epsilon)
    except OverflowError:
        msg = f"epsilon = {epsilon!r} is too large to verify: e^epsilon overflows"
        raise DomainError(msg) from None


def max_violation(dist: DiscretizedDist, epsilon: float, shift_cells: int) -> float:
    """sum_i max(0, p_i - e^epsilon * p_{i + shift_cells}), the exact worst
    cell-set violation for one shift."""
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise DomainError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    j = int(shift_cells)
    if abs(j) > dist.shift_cells:
        raise DomainError(
            f"|shift_cells| must be <= {dist.shift_cells}, got {shift_cells!r}"
        )
    return _direct_violation(dist.masses, _exp_epsilon(epsilon), j)


@dataclass
class ViolationReport:
    """Outcome of a full privacy check of a discretized mechanism."""

    max_violation: float
    worst_shift: float  # in noise units (the worst cell shift times step)
    passed: bool
    step: float
    tolerance: float
    epsilon: float
    delta: float
    cells: int  # grid size K
    path: str  # "fast" (log-concave run) or "direct" (full scan)

    def to_dict(self) -> dict:
        return {
            "max_violation": self.max_violation,
            "worst_shift": self.worst_shift,
            "pass": self.passed,
            "h": self.step,
            "tolerance": self.tolerance,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "cells": self.cells,
            "path": self.path,
        }


def _straddle_tolerance(masses: np.ndarray, c: float, j: int) -> float:
    """Bound on the violation mass that cell granularity can hide.

    The continuous-worst set can beat the cell-granular one only inside
    cells where the density difference g = f - e^eps*shift(f) changes sign.
    Cells whose summed difference sits below float noise (|d| <= eta) are a
    flat stretch of g; partially including them gains at most their |d|
    bound eta.  At a genuine sign flip the crossing lies in one of the two
    adjacent cells, and for the single-crossing, cell-scale-smooth densities
    this verifier targets the hidden lobe there is bounded by the smaller of
    the two cells' |d|.  On top of that comes the verifier's own arithmetic:
    cell masses are evaluated and then accumulated in floats, so each of the
    two mass sums carries absolute rounding of order 2^-53 per cell.
    """
    K = masses.size
    jj = abs(j)
    if jj == 0 or jj >= K:
        return 1e-12
    eta_rel = max(1e-12, 2.0 * _width_jitter(K))
    tol = 0.0
    # (d > 0, |d|) of the last non-flat cell so far, so that flips across a
    # block boundary are counted too.
    last = None
    for lo in range(0, K, _BLOCK):
        hi = min(lo + _BLOCK, K)
        # scaled[i] = c * masses[i + j], 0 where i + j falls off the grid
        src_lo, src_hi = max(lo + j, 0), min(hi + j, K)
        scaled = np.zeros(hi - lo)
        if src_lo < src_hi:
            dst = src_lo - lo - j
            np.multiply(
                masses[src_lo:src_hi], c, out=scaled[dst : dst + src_hi - src_lo]
            )
        m = masses[lo:hi]
        d = m - scaled
        eta = np.maximum(m, scaled, out=scaled)
        eta *= eta_rel
        flat = np.abs(d) <= eta
        tol += float(eta[flat].sum())
        dn = d[~flat]
        if dn.size == 0:
            continue
        up = dn > 0.0
        mag = np.abs(dn)
        flips = np.flatnonzero(up[:-1] != up[1:])
        tol += float(np.minimum(mag[flips], mag[flips + 1]).sum())
        if last is not None and last[0] != up[0]:
            tol += min(last[1], float(mag[0]))
        last = (bool(up[-1]), float(mag[-1]))
    tol += 4.0 * (1.0 + c) * 2.0**-53 * K  # evaluation + summation rounding
    return tol + 1e-12


def dp_check(dist: DiscretizedDist, params: PrivacyParams) -> ViolationReport:
    """Check a discretized mechanism against a privacy target.

    Scans every cell-multiple shift ``j`` in [-shift_cells, shift_cells]
    (on the fast path only ``j > 0``, which mirror ``j < 0``), reports the
    worst violation, and passes iff it is at most ``delta + tolerance``
    where the tolerance covers what the grid cannot resolve.  Worst shifts
    of the mechanisms in scope occur at the full sensitivity, which is
    exactly representable on the grid.
    """
    c = _exp_epsilon(params.epsilon)
    m = dist.shift_cells
    masses = dist.masses
    K = masses.size
    s, e = dist._run
    fast = dist._fast_ok and dist._mirrored

    if fast:
        violations = _fast_forward_violations(masses, dist._sums(), s, e, c, m)
        worst_j = int(np.argmax(violations)) + 1
        worst = float(violations[worst_j - 1])
        if worst <= 0.0:
            worst, worst_j = 0.0, 0
    else:
        worst, worst_j = 0.0, 0
        for j in range(-m, m + 1):
            v = _direct_violation(masses, c, j)
            if v > worst:
                worst, worst_j = v, j

    tolerance = _straddle_tolerance(masses, c, worst_j)
    if not math.isfinite(tolerance):
        raise DomainError(
            f"epsilon = {params.epsilon!r} is too large to verify: the "
            "tolerance overflows"
        )
    return ViolationReport(
        max_violation=worst,
        worst_shift=worst_j * dist.step,
        passed=worst <= params.delta + tolerance,
        step=dist.step,
        tolerance=tolerance,
        epsilon=params.epsilon,
        delta=params.delta,
        cells=K,
        path="fast" if fast else "direct",
    )
