"""Brute-force privacy verification on a discretized distribution.

The check is mechanism-agnostic ground truth: cut the noise density into
cells of width ``step``, and for every shift of up to one sensitivity in
either direction measure the worst cell-set privacy violation

    violation(j) = sum_i max(0, d_i),   d_i = p_i - e^eps * p_{i+j}.

This is the exact supremum of ``P(S) - e^eps P(S + j*step)`` over sets built
from whole cells, hence a lower bound on the continuous supremum; the
reported tolerance bounds what the cell granularity and the arithmetic can
hide.  It has four parts, reported separately and summed:

* flat: a cell whose d_i sits within eta times the larger of its two terms
  (eta twice the relative error the mechanism states for its masses, plus a
  few roundings) may hide up to that much; together at most
  ``eta * M / (1 - eta)`` for total mass M, whatever the cell count;
* straddle: at a sign flip of d between non-flat cells the crossing lies in
  one of the two cells, which may hide the smaller of their |d|;
* rounding: ``gamma_n * sum|terms|`` over the sums actually read (Higham,
  *Accuracy and Stability of Numerical Algorithms*, ch. 4), plus the masses'
  own error on those terms;
* fold: the tail mass ``discretize`` folded into the edge cells, weighted
  by ``(1 + e^eps) / 2``; 0 for a bounded support.

A check that would pass with a tolerance above half its delta cannot tell
delta from delta/2, and ``dp_check`` refuses it with a DomainError.

For efficiency, grids whose cell masses are log-concave (those of every
mechanism this package ships) use an exact fast path.  The optimal cell set
for each shift is a run of cells ending at the support edge, found by
binary search on the monotone mass-ratio sequence and summed via suffix
sums.  Each shift's search range is first probed at its top cell: the
searched predicate rises once along the range, so where it fails at the
top it fails throughout and the search would end at the range's end, which
the probe sets directly; every boundary is the search's own.  On a
truncated Laplacian or Laplace grid the mass ratio across a shift stays
within e^eps inside the support, so the probe settles every shift and the
search does not run.  Edge cells — which carry folded-in tail mass and may
break log-concavity — are accounted for separately and exactly.  On such a
grid d changes sign once outside the flat band, at the crossing the search
finds, so the fast path takes its tolerance from O(shift_cells + log K)
cells and M.  Every other grid falls back to the direct scan and a full
scan of the same tolerance formula, over whole arrays.

Every grid is symmetric about 0, as the noise of every mechanism here is
(and symmetrizing a mechanism keeps both its privacy and its cost).  Its
right half is the positive half the mechanism states
(``NoiseMechanism._grid_masses``: the exponential mechanisms in closed form,
the others from their half-line mass) and its left half is the mirror
image.  Shift -j then gives the terms of +j in reverse order, so both paths
check the shifts 1..shift_cells only.  The grid's gates (finite and
non-negative, the support run and log-concavity) and M are one blocked
pass over the left half, which writes each left-half block as the mirror
of the right half just before it reads it.  The fast path then sums only
the tail it reads (for a truncated Laplacian, about one sensitivity at the
support edge), so after ``_grid_masses`` a fast-path grid has its right
half read once, by the mirror copy, each left-half block gated while it is
in cache, and that tail.  A grid caches its result per e^eps, so a second
check at the same epsilon only compares it with its delta.  On the fast
path, apart from the masses and that tail, no temporary outgrows a byte per
cell.
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
    _ULP,
    _as_count,
    _as_real,
    _require_finite_positive,
    _width_jitter,
    as_sensitivity,
)

__all__ = [
    "DiscretizedDist",
    "discretize",
    "dp_check",
    "ViolationReport",
]

_MAX_CELLS = 400_000_000  # refuse grids that cannot fit in memory
_BLOCK = 1 << 15  # cells per block of the grid-wide kernels (L2-sized temporaries)
_PROBE = 3  # cells read on either side of each searched sign change
_PARTS = ("flat", "straddle", "rounding", "fold")


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), the relative error bound of a recursive
    sum of n non-negative terms."""
    return n * _ULP / (1.0 - n * _ULP)


_set = object.__setattr__  # sets a field of a frozen grid while it is built


@dataclass(frozen=True, eq=False)
class DiscretizedDist:
    """Cell masses of a noise distribution on a regular grid, symmetric
    about 0.

    ``masses`` holds an even number 2H of cells, and cell ``i`` covers
    ``[(i - H)*step, (i - H + 1)*step)``.  Only the right half
    ``masses[H:]`` is read: the positive half, as
    ``NoiseMechanism._grid_masses`` states it.  The left half is
    overwritten with its mirror image while the grid is gated (a
    read-only array is copied first).  A shift of the underlying variable
    by one sensitivity moves mass by exactly ``shift_cells`` cells.
    ``mass_error`` bounds the relative error of each mass (0: the masses
    are exact as given) and ``fold`` is the tail mass folded into the two
    edge cells; ``discretize`` takes both from the mechanism.

    A grid is frozen: the facts the checks derive from the masses are
    cached on it, so its fields cannot be set and ``masses`` is a read-only
    view.  The array passed in stays writable and must not be changed while
    the grid is in use.  Two grids are equal only if they are the same
    object.
    """

    step: float
    masses: np.ndarray
    shift_cells: int
    mass_error: float = 0.0
    fold: float = 0.0

    # derived, filled in __post_init__ and by the checks
    _run: tuple[int, int] = field(init=False, repr=False)
    _fast_ok: bool = field(init=False, repr=False)
    _mass: float = field(init=False, repr=False)  # M, summed by the gate pass
    _by_c: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        _set(self, "step", _require_finite_positive(self.step, "step"))
        _set(self, "shift_cells", _as_count(self.shift_cells, "shift_cells"))
        mass_error = _as_real(self.mass_error, "mass_error")
        if not 0.0 <= mass_error < 0.25:
            raise DomainError(f"mass_error must lie in [0, 0.25), got {mass_error!r}")
        _set(self, "mass_error", mass_error)
        fold = _as_real(self.fold, "fold")
        if not 0.0 <= fold < math.inf:
            raise DomainError(f"fold must be finite and >= 0, got {fold!r}")
        _set(self, "fold", fold)
        masses = np.asarray(self.masses, dtype=float)
        if masses.ndim != 1 or masses.size == 0 or masses.size % 2:
            raise DomainError(
                "masses must be a 1-d array of an even, non-zero number of "
                f"cells, got shape {masses.shape}"
            )
        if not masses.flags.writeable:
            masses = masses.copy()
        view = masses.view()
        view.flags.writeable = False
        _set(self, "masses", view)
        # The gates read only the stated right half: the first positive
        # cell mirrors the right half's last one.
        stated = masses[masses.size // 2 :]
        s = _first_positive(stated[::-1])
        if s < 0:
            # min/max reject negatives, NaN (min is NaN) and infinities
            # without a grid-sized temporary.
            if not (stated.min() >= 0.0 and stated.max() < math.inf):
                raise DomainError("masses must be finite and non-negative")
            raise DomainError("masses must carry some probability")
        e = masses.size - 1 - s
        _set(self, "_run", (s, e))
        self._gate_pass(masses, s, e)

    def _gate_pass(self, m: np.ndarray, s: int, e: int) -> None:
        """The gates and M in one blocked pass over the left half of ``m``.

        Edge cells may hold folded tail mass, so only the interior run is
        required to be log-concave; the fast path treats edges explicitly.
        The slack absorbs grid geometry (see _width_jitter); a density
        whose log-concavity defect sits below that scale is numerically
        indistinguishable from a log-concave one on this grid.  The pass
        writes each left-half block, and the cell its last triple reads,
        as the mirror of the right half just before reading it.  The right
        half is then read only by that copy: its masses are the left
        half's, and the log-concavity triple around cell i has its
        mirror's factors in the other order, so the left half decides.
        """
        K = m.size
        half = K // 2
        # centres of the interior triples in the left half
        lo_c, hi_c = s + 2, min(e - 1, half)
        state = _GateState(max(1e-10, 8.0 * _width_jitter(K)), min(_BLOCK, half))
        for lo in range(0, half, _BLOCK):
            hi = min(lo + _BLOCK, half)
            top = min(hi + 1, half)
            m[lo:top] = m[K - top : K - lo][::-1]
            state.block(m, lo, hi, s, e, lo_c, hi_c)
        _set(self, "_mass", 2.0 * state.total)
        _set(self, "_fast_ok", state.contiguous and state.log_concave(m, lo_c, hi_c))


def _first_positive(masses: np.ndarray) -> int:
    """Index of the first positive cell, read block by block; -1 if none."""
    for lo in range(0, masses.size, _BLOCK):
        positive = masses[lo : lo + _BLOCK] > 0.0
        if positive.any():
            return lo + int(np.argmax(positive))
    return -1


class _GateState:
    """What the gate pass has found so far, block by block."""

    def __init__(self, slack: float, cells: int):
        self.slack = slack
        self.total = 0.0
        self.contiguous = True
        self.products_ok = True  # the log-concavity test on products
        self.smallest = math.inf  # smallest cell any triple read
        # the product test's operands, reused by every block of up to
        # ``cells`` cells
        self._squares = np.empty(cells)
        self._products = np.empty(cells)
        self._ok = np.empty(cells, dtype=bool)

    def block(self, m, lo, hi, s, e, lo_c, hi_c) -> None:
        """Cells [lo, hi): finite and non-negative, positive inside the
        support run, their mass, and the triples centred among them."""
        if lo >= hi:
            return
        b = m[lo:hi]
        low, mass = b.min(), b.sum()
        # a NaN fails the min; an infinity makes the sum non-finite (as may
        # an overflowing sum of finite masses, which the max then clears)
        if not (low >= 0.0 and (math.isfinite(mass) or b.max() < math.inf)):
            raise DomainError("masses must be finite and non-negative")
        self.total += float(mass)
        a, z = max(lo, s), min(hi, e + 1)
        if a < z:
            inside = low if (a, z) == (lo, hi) else m[a:z].min()
            self.contiguous = self.contiguous and bool(inside > 0.0)
        a, z = max(lo, lo_c), min(hi, hi_c)
        if a < z:
            # the triples read cells a-1..z: a whole block and its two
            # neighbours, or part of one
            if (a, z) == (lo, hi):
                read = min(float(low), float(m[a - 1]), float(m[z]))
            else:
                read = float(m[a - 1 : z + 1].min())
            self.smallest = min(self.smallest, read)
            if self.products_ok:
                n = z - a
                mid = m[a:z]
                squares = np.multiply(mid, mid, out=self._squares[:n])
                products = np.multiply(
                    m[a - 1 : z - 1], m[a + 1 : z + 1], out=self._products[:n]
                )
                products *= 1.0 - self.slack
                ok = np.greater_equal(squares, products, out=self._ok[:n])
                self.products_ok = bool(ok.all())

    def log_concave(self, m, lo_c, hi_c) -> bool:
        if self.smallest >= 1e-150:
            return self.products_ok
        # products could underflow; stay honest and compare logs instead
        for lo in range(lo_c, hi_c, _BLOCK):
            logs = np.log(m[lo - 1 : min(lo + _BLOCK, hi_c) + 1])
            if not np.all(2.0 * logs[1:-1] >= logs[:-2] + logs[2:] - self.slack):
                return False
        return True


def discretize(
    mech: NoiseMechanism,
    sens: "Sensitivity | float",
    step: "float | None" = None,
) -> DiscretizedDist:
    """Cut a mechanism's density into cells of width ``step``.

    ``step`` must divide the sensitivity into at least 10 cells (default:
    1/1000th of it).  The grid reaches the support edge of a bounded
    mechanism, and otherwise a third of a sensitivity beyond the two-sided
    1 - 1e-12 quantile range.  Any mass beyond the outermost cells is folded
    into them, so the cell masses always account for the full distribution,
    and the grid records that mass as its ``fold``.  The masses and their
    relative error are the mechanism's ``_grid_masses`` and
    ``_grid_mass_error``.

    The margin is for noise narrower than the sensitivity, which is checked
    at a large epsilon: cells that a shift moves past the grid's edge are
    counted with no target mass, which overstates their violation by up to
    e^eps times the tail they would land on.  For a Gaussian calibrated at
    epsilon 20 (sigma about 0.29 sensitivities) the margin is 1.15 sigma,
    and the tail falls from 5e-13 to below 1e-16 a side.
    """
    sens_value = as_sensitivity(sens).value
    if step is None:
        step = sens_value / 1000.0
    step = _require_finite_positive(step, "step")
    cells = sens_value / step
    # a tiny step overflows the quotient, which round() cannot take; 0 is
    # refused below
    shift_cells = round(cells) if cells < math.inf else 0
    if shift_cells < 10 or abs(shift_cells * step - sens_value) > 1e-9 * sens_value:
        raise DomainError(
            "step must divide the sensitivity into an integer number of "
            f"cells, at least 10 (got sensitivity/step = {cells!r})"
        )
    lo, hi = mech.support
    if math.isfinite(lo) and math.isfinite(hi):
        radius = max(abs(lo), abs(hi))
    else:
        radius = sens_value / 3.0 + float(
            max(mech.quantile(1.0 - 5e-13), -mech.quantile(5e-13))
        )
    radius = _require_finite_positive(radius, "radius")
    half_cells = int(math.ceil(radius / step - 1e-12))
    if 2 * half_cells > _MAX_CELLS:
        raise DomainError(
            f"grid of {2 * half_cells} cells is too large; increase step"
        )
    masses = np.empty(2 * half_cells)
    mech._grid_masses(step, masses[half_cells:])
    return DiscretizedDist(
        step=step,
        masses=masses,
        shift_cells=shift_cells,
        mass_error=mech._grid_mass_error(step, half_cells),
        fold=2.0 * float(mech.cdf(-half_cells * step)),
    )


# ---------------------------------------------------------------------------
# Violation sums


def _direct_violation(masses: np.ndarray, c: float, j: int) -> float:
    """sum_i max(0, p_i - c * p_{i+j}) for a shift j >= 1 by full scan;
    shifted-out cells are 0."""
    K = masses.size
    if j >= K:
        return float(masses.sum())
    overlap = np.maximum(masses[: K - j] - c * masses[j:], 0.0).sum()
    return float(overlap + masses[K - j :].sum())


def _fast_forward_violations(
    dist: DiscretizedDist, c: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Exact violations for shifts +1..shift_cells on a log-concave run.

    The optimal positive cell set decomposes as:
      * a suffix of the interior found by binary search on the monotone
        ratio p_i / p_{i+j} (strictly thresholded so float-level ties fall
        out of the set, where they contribute nothing anyway); each
        shift's range is probed at its top cell first, and a range whose
        top fails the predicate fails it throughout, so its suffix is
        empty, as the search would find, and only the other shifts are
        searched,
      * the one interior cell whose shifted target is the (possibly
        fold-inflated) right edge cell, taken explicitly,
      * all cells shifted past the support (they contribute their own mass),
      * the (possibly fold-inflated) left edge cell, taken explicitly.

    Returns the violations, and for each shift the leftmost suffix start
    read and the sum of the magnitudes its sums read, with the number of
    cells summed into the suffix tail.
    """
    masses = dist.masses
    K = masses.size
    s, e = dist._run
    # Strictness keeps float-level ties (ratio exactly e^eps up to grid
    # jitter) out of the suffix: they contribute nothing to the true sum,
    # and excluding them keeps the searched predicate monotone.
    strict = 1.0 + max(1e-9, 4.0 * _width_jitter(K))
    j = np.arange(1, dist.shift_cells + 1, dtype=np.int64)
    dip = e - j  # the index whose target is the right edge cell
    dom_hi = np.maximum(dip, s + 1)  # past-the-end sentinel of the search

    def searched(i):  # the predicate at candidate i of each shift
        return masses[i] > c * masses[np.minimum(i + j, K - 1)] * strict

    lo = np.full(j.shape, s + 1, dtype=np.int64)
    hi = dom_hi.copy()
    # Probe each range's last candidate: where the predicate fails there it
    # fails on the whole range, and the search would end at hi.
    settled = ~searched(hi - 1)
    lo[settled] = hi[settled]
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) // 2
        pred = searched(mid)
        take = active & pred
        skip = active & ~pred
        hi[take] = mid[take]
        lo[skip] = mid[skip] + 1
    boundary = lo

    # tail[t - first] is the mass of cells t..K-1 from the window's left end
    # on (the cells shifted past the support start further right), summed
    # from the right edge, so it is relatively accurate where the small
    # violation sums are read off and equals the whole-grid suffix sum.
    lead = np.clip(boundary - 2, s + 1, dom_hi)
    first = int(lead.min())
    tail = np.zeros(K + 1 - first)
    np.cumsum(masses[first:][::-1], out=tail[:-1][::-1])

    def suffix(t):
        return tail[t - first]

    # Window around the boundary absorbs float-level jitter in the predicate.
    viol_interior = np.zeros(j.shape)
    for w in (-2, -1, 0, 1, 2):
        start = np.clip(boundary + w, s + 1, dom_hi)
        src = suffix(start) - suffix(dom_hi)
        tgt = suffix(np.minimum(start + j, K)) - suffix(np.minimum(dom_hi + j, K))
        viol_interior = np.maximum(viol_interior, src - c * tgt)
    viol_interior = np.maximum(viol_interior, 0.0)

    dip_valid = dip >= s + 1
    p_dip = masses[np.clip(dip, 0, K - 1)]
    d_dip = p_dip - c * masses[e]
    dip_term = np.where(dip_valid, np.maximum(d_dip, 0.0), 0.0)

    past = suffix(np.clip(dip + 1, s + 1, e + 1)) - suffix(e + 1)

    left_target = np.where(s + j <= e, masses[np.minimum(s + j, K - 1)], 0.0)
    d_left = masses[s] - c * left_target
    left_term = np.maximum(d_left, 0.0)

    # Every suffix read is at most suffix(lead), and every target suffix at
    # most suffix(lead + j): two of each per window difference, and the past
    # cells read two more source suffixes.
    reads = (
        4.0 * suffix(lead)
        + 2.0 * c * suffix(np.minimum(lead + j, K))
        + np.where(dip_valid, p_dip + c * masses[e], 0.0)
        + masses[s]
        + c * left_target
    )
    return viol_interior + dip_term + past + left_term, reads, lead, K - first


def _exp_epsilon(epsilon: float) -> float:
    """e^epsilon; DomainError where it overflows a double."""
    try:
        return math.exp(epsilon)
    except OverflowError:
        msg = f"epsilon = {epsilon!r} is too large to verify: e^epsilon overflows"
        raise DomainError(msg) from None


@dataclass
class ViolationReport:
    """Outcome of a full privacy check of a discretized mechanism."""

    max_violation: float
    worst_shift: float  # in noise units (the worst cell shift, >= 1, times step)
    passed: bool
    step: float
    tolerance: float
    tolerance_parts: dict  # flat, straddle, rounding and fold; they sum to tolerance
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
            "tolerance_parts": dict(self.tolerance_parts),
            "epsilon": self.epsilon,
            "delta": self.delta,
            "cells": self.cells,
            "path": self.path,
        }


# ---------------------------------------------------------------------------
# Tolerance


def _flat_band(dist: DiscretizedDist) -> float:
    """eta: two masses' relative error, plus the roundings of e^eps, the
    product and the difference in d."""
    return 2.0 * dist.mass_error + 8.0 * _ULP


def _scan_tolerance(
    masses: np.ndarray, c: float, j: int, eta: float
) -> tuple[float, float, float]:
    """(flat, straddle, read) for shift j by a full scan.

    flat sums eta * max(p_i, c p_{i+j}) over the flat cells, |d_i| below it;
    straddle sums the smaller |d| of the two non-flat cells at each sign
    flip, flat cells skipped; read sums p_i + c p_{i+j} over the cells with
    d_i > 0, the terms of the violation sum.
    """
    K = masses.size
    # scaled[i] = c * masses[i + j], 0 where i + j falls off the grid
    scaled = np.zeros(K)
    if abs(j) < K:
        np.multiply(masses[max(j, 0) : K + min(j, 0)], c,
                    out=scaled[max(-j, 0) : K - max(j, 0)])
    d = masses - scaled
    up = d > 0.0
    read = float(masses[up].sum() + scaled[up].sum())
    band = np.maximum(masses, scaled, out=scaled)
    band *= eta
    is_flat = np.abs(d) <= band
    flat = float(band[is_flat].sum())
    dn = d[~is_flat]
    up = dn > 0.0
    mag = np.abs(dn)
    flips = np.flatnonzero(up[:-1] != up[1:])
    straddle = float(np.minimum(mag[flips], mag[flips + 1]).sum())
    return flat, straddle, read


def _fast_straddle(
    dist: DiscretizedDist, c: float, j: int, eta: float, lead: int
) -> float:
    """The straddle of ``_scan_tolerance`` at shift j > 0 on a fast-path
    grid, from the cells where a sign can change.

    In index order the non-flat cells are: the cells left of the support
    (negative), the left edge cell, the interior — where the ratio
    p_i / p_{i+j} rises, so its non-flat cells are negative, then positive —
    the dip cell and the cells shifted past the support (positive).  Binary
    search finds where the interior stops being negative and starts being
    positive; the cells around those two points, the ends of the interior
    and the neighbours of the runs decide every flip.  Also counted: the
    positive interior cells left of ``lead`` that the violation's suffix
    search leaves out as ties.
    """
    m = dist.masses
    K = m.size
    s, e = dist._run

    def cell(i: int) -> float:  # d_i, or 0.0 where cell i is flat
        p = float(m[i])
        scaled = c * float(m[i + j]) if i + j < K else 0.0
        d = p - scaled
        return 0.0 if abs(d) <= eta * max(p, scaled) else d

    def search(lo: int, hi: int, pred) -> int:  # first i in [lo, hi) with pred
        while lo < hi:
            mid = (lo + hi) // 2
            if pred(cell(mid)):
                hi = mid
            else:
                lo = mid + 1
        return lo

    probes = set()
    left = min(s - 1, e - j)  # the last cell left of the support with a target in it
    if left >= max(0, s - j):
        probes.add(left)
    gap = 0.0
    g_hi = e - j  # cells s..g_hi have their target inside the support
    if g_hi >= s:
        neg_end = search(s + 1, g_hi, lambda d: d >= 0.0)
        pos_start = search(neg_end, g_hi, lambda d: d > 0.0)
        for i in (s + _PROBE, neg_end, pos_start, g_hi - _PROBE):
            probes.update(range(max(s, i - _PROBE), min(g_hi, i + _PROBE) + 1))
        if pos_start < lead:
            d = m[pos_start:lead] - c * m[pos_start + j : lead + j]
            gap = float(np.maximum(d, 0.0).sum())
    if max(s, g_hi + 1) <= e:
        probes.add(max(s, g_hi + 1))  # the first cell shifted past the support
    straddle, prev = 0.0, 0.0
    for i in sorted(probes):
        d = cell(i)
        if d == 0.0:
            continue
        if (d > 0.0) != (prev > 0.0) and prev != 0.0:
            straddle += min(abs(prev), abs(d))
        prev = d
    return straddle + gap


def _fast_result(dist: DiscretizedDist, c: float):
    violations, reads, lead, n = _fast_forward_violations(dist, c)
    worst_j = int(np.argmax(violations)) + 1
    worst = float(violations[worst_j - 1])
    eta = _flat_band(dist)
    flat = eta * dist._mass / (1.0 - eta)
    straddle = _fast_straddle(dist, c, worst_j, eta, int(lead[worst_j - 1]))
    rounding = (_gamma(n + 4) + dist.mass_error) * float(reads[worst_j - 1])
    return worst, worst_j, (flat, straddle, rounding, _fold_part(dist, c))


def _direct_result(dist: DiscretizedDist, c: float):
    shifts = range(1, dist.shift_cells + 1)
    violations = [_direct_violation(dist.masses, c, j) for j in shifts]
    worst = max(violations)
    worst_j = violations.index(worst) + 1
    flat, straddle, read = _scan_tolerance(dist.masses, c, worst_j, _flat_band(dist))
    rounding = (_gamma(dist.masses.size + 2) + dist.mass_error) * read
    return worst, worst_j, (flat, straddle, rounding, _fold_part(dist, c))


def _fold_part(dist: DiscretizedDist, c: float) -> float:
    # folded mass can sit on either side of the compared sets
    return 0.5 * (1.0 + c) * dist.fold


def dp_check(dist: DiscretizedDist, params: PrivacyParams) -> ViolationReport:
    """Check a discretized mechanism against a privacy target.

    Scans every cell-multiple shift ``j`` in 1..shift_cells (on the
    symmetric grid shift -j gives the terms of +j in reverse order),
    reports the worst violation, and passes iff it is at most ``delta +
    tolerance`` where the tolerance covers what the grid cannot resolve.
    The fast path runs iff the grid is log-concave.  Worst shifts
    of the mechanisms in scope occur at the full sensitivity, which is
    exactly representable on the grid.  Raises DomainError where the check
    would pass with a tolerance above delta/2: such a grid cannot tell delta
    from delta/2.  A violation beyond delta + tolerance fails whatever the
    tolerance.
    """
    if not (isinstance(dist, DiscretizedDist) and isinstance(params, PrivacyParams)):
        raise DomainError(
            "dp_check takes a DiscretizedDist and a PrivacyParams, got "
            f"{type(dist).__name__} and {type(params).__name__}"
        )
    c = _exp_epsilon(params.epsilon)
    fast = dist._fast_ok
    # The worst violation, its shift and the tolerance depend on the grid
    # and c alone, so a check at another delta only compares.
    if c not in dist._by_c:
        dist._by_c[c] = (_fast_result if fast else _direct_result)(dist, c)
    worst, worst_j, parts = dist._by_c[c]
    tolerance = sum(parts)
    if not math.isfinite(tolerance):
        raise DomainError(
            f"epsilon = {params.epsilon!r} is too large to verify: the "
            "tolerance overflows"
        )
    passed = worst <= params.delta + tolerance
    if passed and tolerance > 0.5 * params.delta:
        raise DomainError(
            f"epsilon = {params.epsilon!r}, delta = {params.delta!r}: this grid "
            f"cannot tell delta from delta/2 (tolerance {tolerance:.3g})"
        )
    return ViolationReport(
        max_violation=worst,
        worst_shift=worst_j * dist.step,
        passed=passed,
        step=dist.step,
        tolerance=tolerance,
        tolerance_parts=dict(zip(_PARTS, parts)),
        epsilon=params.epsilon,
        delta=params.delta,
        cells=dist.masses.size,
        path="fast" if fast else "direct",
    )
