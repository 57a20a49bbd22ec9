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
check the shifts 1..shift_cells only.  A grid that ``discretize`` cuts is
never laid out whole: its cells are read from a copy of the mechanism made
when the grid is cut, a run or a gather at a time, and a cell reads the
same bits however it is read.  A grid is built in one blocked pass over
its left half, each block read once into one block-sized buffer: the
gates (finite and non-negative, the support run and log-concavity) and M,
with a log re-read of the interior only where a cell its log-concavity
test reads is below 1e-150.  The fast path then reads the cells its
probes and searches ask for, and sums only the tail it reads (for a
truncated Laplacian, about one sensitivity at the support edge), filling
it a block at a time: besides that tail, and a run of tied cells the
straddle may read, it holds O(_BLOCK + shift_cells) cells, whatever the
grid's size.
The direct path lays the whole grid out as one array, which
``discretize``'s cell cap keeps within reach; a grid built from an array
keeps a copy of its right half.  A grid caches its result per e^eps, so a
second check at the same epsilon only compares it with its delta.
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

_MAX_CELLS = 400_000_000  # refuse grids whose direct path could not lay them out
_BLOCK = 1 << 15  # cells per block of the grid-wide kernels (L2-sized temporaries)
_PROBE = 3  # cells read on either side of each searched sign change
_PARTS = ("flat", "straddle", "rounding", "fold")


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), the relative error bound of a recursive
    sum of n non-negative terms."""
    return n * _ULP / (1.0 - n * _ULP)


_set = object.__setattr__  # sets a field of a frozen grid while it is built


class _Cells:
    """The cell masses of a grid, read through its positive half.

    ``size`` is the cell count K = 2H; cell ``H + k`` and its mirror
    ``H - 1 - k`` both hold cell ``k`` of the positive half, which
    ``cells(k, out)`` states (see ``NoiseMechanism._grid_masses``).  It is
    read a run or a gather at a time and never held whole, except by
    ``np.asarray``, which lays out all K cells.  Read-only.
    """

    __slots__ = ("size", "_cells")

    def __init__(self, size: int, cells):
        self.size = size
        self._cells = cells

    def __len__(self) -> int:
        return self.size

    def __setitem__(self, key, value):
        raise ValueError("a grid's masses are read-only")

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a grid's masses are laid out anew on each read")
        H = self.size // 2
        full = np.empty(self.size)
        self._cells(0, full[H:])
        full[:H] = full[H:][::-1]
        return full if dtype is None else full.astype(dtype, copy=False)

    def run(self, lo: int, hi: int, out: "np.ndarray | None" = None) -> np.ndarray:
        """Cells lo..hi-1, into ``out`` if given."""
        H = self.size // 2
        out = np.empty(hi - lo) if out is None else out
        left = max(0, min(hi, H) - lo)  # how many lie in the negative half
        if left:
            self._cells(H - lo - left, out[left - 1 :: -1])
        if left < out.size:
            self._cells(max(lo, H) - H, out[left:])
        return out

    def take(self, i: np.ndarray) -> np.ndarray:
        """The cells at the indices of the int array ``i``."""
        H = self.size // 2
        return self._cells(np.where(i < H, H - 1 - i, i - H), np.empty(i.shape))


def _array_cells(half: np.ndarray):
    """``cells(k, out)`` of a positive half given as an array."""

    def cells(k, out: np.ndarray) -> np.ndarray:
        out[...] = half[k] if isinstance(k, np.ndarray) else half[k : k + out.size]
        return out

    return cells


@dataclass(frozen=True, eq=False)
class DiscretizedDist:
    """Cell masses of a noise distribution on a regular grid, symmetric
    about 0.

    The grid has an even number K = 2H of cells, and cell ``i`` covers
    ``[(i - H)*step, (i - H + 1)*step)``.  Its right half is the positive
    half the mechanism states (``NoiseMechanism._grid_masses``) and its
    left half the mirror image.  ``masses`` may be given as an array of all
    K cells, of which only the right half ``masses[H:]`` is read and
    copied; ``discretize`` gives the mechanism's cells instead, which are
    read as they are needed, and never stored, from a copy of the
    mechanism made when the grid is cut: a later change to the
    mechanism's parameters leaves the grid as it was.  Either way
    ``masses`` becomes a read-only object with ``size`` K whose
    ``np.asarray`` is the whole mirrored grid, and the grid is built in one
    blocked pass over its left half (``_gate_pass``), with a log re-read
    only below 1e-150.  A shift of the underlying variable by one
    sensitivity moves mass by exactly ``shift_cells`` cells.  ``mass_error`` bounds the relative error of each mass (0: the
    masses are exact as given) and ``fold`` is the tail mass folded into
    the two edge cells; ``discretize`` takes both from the mechanism.

    A grid is frozen: the facts the checks derive from the masses are
    cached on it, so its fields cannot be set.  Two grids are equal only
    if they are the same object.
    """

    step: float
    masses: _Cells
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
        cells = self.masses
        if not isinstance(cells, _Cells):
            masses = np.asarray(cells, dtype=float)
            if masses.ndim != 1 or masses.size == 0 or masses.size % 2:
                raise DomainError(
                    "masses must be a 1-d array of an even, non-zero number of "
                    f"cells, got shape {masses.shape}"
                )
            cells = _Cells(masses.size, _array_cells(masses[masses.size // 2 :].copy()))
            _set(self, "masses", cells)
        self._gate_pass(cells)

    def _gate_pass(self, cells: _Cells) -> None:
        """The gates, the support run and M in one blocked pass over the
        left half.

        Each block is read once, with the cell on either side that its
        triples read, into one buffer.  Every cell must be finite and
        non-negative, and some cell positive; the support run starts at the
        first positive cell s and, the grid being symmetric, ends at its
        mirror.  The fast path needs the run contiguous and its interior
        log-concave: edge cells may hold folded tail mass, so the triples
        are centred from s + 2.  The slack absorbs grid geometry (see
        _width_jitter); a density whose log-concavity defect sits below that
        scale is numerically indistinguishable from a log-concave one on
        this grid.  The triple around a right-half cell has its mirror's
        factors in the other order, so the left half decides.  Where a cell
        the triples read is below 1e-150, their products could underflow,
        and the interior is read again to compare logs instead.
        """
        half = cells.size // 2
        slack = max(1e-10, 8.0 * _width_jitter(cells.size))
        n = min(_BLOCK, half)
        window, squares, products = np.empty(n + 2), np.empty(n), np.empty(n)
        ok = np.empty(n, dtype=bool)
        # s < 0 until a positive cell is found; smallest is the least cell
        # after s: the cells the triples read (cell `half` mirrors `half - 1`)
        s, total, smallest, products_ok = -1, 0.0, math.inf, True
        for lo in range(0, half, _BLOCK):
            hi = min(lo + _BLOCK, half)
            a = max(lo - 1, 0)  # the window holds cells a..hi
            m = cells.run(a, hi + 1, window[: hi + 1 - a])
            b = m[lo - a : hi - a]
            low, mass = b.min(), b.sum()
            # a NaN fails the min; an infinity makes the sum non-finite (as may
            # an overflowing sum of finite masses, which the max then clears)
            if not (low >= 0.0 and (math.isfinite(mass) or b.max() < math.inf)):
                raise DomainError("masses must be finite and non-negative")
            total += float(mass)
            if s < 0:
                if mass == 0.0:  # non-negative cells summing to 0 are all 0
                    continue
                s = lo + int(np.argmax(b > 0.0))
            after = low if s < lo else b[s + 1 - lo :].min(initial=math.inf)
            smallest = min(smallest, after)
            t = max(lo, s + 2) - a  # the block's first triple centre, in m
            k = hi - a - t
            if products_ok and k > 0:
                np.multiply(m[t : t + k], m[t : t + k], out=squares[:k])
                np.multiply(m[t - 1 : t + k - 1], m[t + 1 : t + k + 1],
                            out=products[:k])
                products[:k] *= 1.0 - slack
                np.greater_equal(squares[:k], products[:k], out=ok[:k])
                products_ok = bool(ok[:k].all())
        if s < 0:
            raise DomainError("masses must carry some probability")
        _set(self, "_run", (s, cells.size - 1 - s))
        _set(self, "_mass", 2.0 * total)
        fast = smallest > 0.0 and products_ok  # a 0 after s breaks the run
        if 0.0 < smallest < 1e-150:
            fast = all(
                np.all(2.0 * logs[1:-1] >= logs[:-2] + logs[2:] - slack)
                for logs in (np.log(cells.run(c - 1, min(c + _BLOCK, half) + 1))
                             for c in range(s + 2, half, _BLOCK))
            )
        _set(self, "_fast_ok", bool(fast))


def discretize(
    mech: NoiseMechanism,
    sens: "Sensitivity | float",
    step: "float | None" = None,
) -> DiscretizedDist:
    """Cut a mechanism's density into cells of width ``step``.

    ``step`` must divide the sensitivity into at least 10 cells (default:
    1/1000th of it).  The grid reaches the support edge of a bounded
    mechanism, and otherwise a third of a sensitivity beyond the two-sided
    1 - 1e-12 quantile range, and has at least one cell a side.  Any mass
    beyond the outermost cells is folded into them, so the cell masses
    always account for the full distribution, and the grid records that
    mass as its ``fold``.  The masses and their relative error are the
    mechanism's ``_grid_masses`` and ``_grid_mass_error``; noise so narrow
    against the grid's reach that this error is 1/4 or more is refused.

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
        # the unchecked formula, whose overflow to inf is refused below
        with np.errstate(over="ignore", divide="ignore"):
            reach = max(mech._quantile(np.array(1.0 - 5e-13)),
                        -mech._quantile(np.array(5e-13)))
        radius = sens_value / 3.0 + float(reach)
    if not radius / step < math.inf:
        raise DomainError(
            "the noise is too wide to discretize: a grid of step "
            f"{step!r} would reach {radius!r}"
        )
    half_cells = max(1, int(math.ceil(radius / step - 1e-12)))
    if 2 * half_cells > _MAX_CELLS:
        raise DomainError(
            f"grid of {2 * half_cells} cells is too large; increase step"
        )
    mass_error = mech._grid_mass_error(step, half_cells)
    if not mass_error < 0.25:  # NaN too
        raise DomainError(
            f"the noise is too narrow to discretize: {mech!r} at step {step!r} "
            f"states cell masses within a relative error of {mass_error:.3g}, "
            "not below 0.25"
        )
    import copy  # loaded with dataclasses; only this line needs it

    # The grid reads its cells from a copy of the mechanism, so a later
    # change to the mechanism's parameters does not reach a grid whose gates
    # and checks were computed on the old ones.
    return DiscretizedDist(
        step=step,
        masses=_Cells(2 * half_cells, copy.copy(mech)._grid_masses(step, half_cells)),
        shift_cells=shift_cells,
        mass_error=mass_error,
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
    cells = dist.masses
    K = cells.size
    s, e = dist._run
    # Strictness keeps float-level ties (ratio exactly e^eps up to grid
    # jitter) out of the suffix: they contribute nothing to the true sum,
    # and excluding them keeps the searched predicate monotone.
    strict = 1.0 + max(1e-9, 4.0 * _width_jitter(K))
    j = np.arange(1, dist.shift_cells + 1, dtype=np.int64)
    dip = e - j  # the index whose target is the right edge cell
    dom_hi = np.maximum(dip, s + 1)  # past-the-end sentinel of the search

    def searched(i):  # the predicate at candidate i of each shift
        p = cells.take(np.concatenate([i, np.minimum(i + j, K - 1)]))
        return p[: j.size] > c * p[j.size :] * strict

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
    tail = _tail_sums(cells, first)

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

    # the cells read one by one: the dip cell and the left edge's target
    # for each shift, then the two edge cells
    p = cells.take(
        np.concatenate([np.clip(dip, 0, K - 1), np.minimum(s + j, K - 1), [e, s]])
    )
    p_dip, p_target, (p_e, p_s) = p[: j.size], p[j.size : -2], p[-2:]
    dip_valid = dip >= s + 1
    d_dip = p_dip - c * p_e
    dip_term = np.where(dip_valid, np.maximum(d_dip, 0.0), 0.0)

    past = suffix(np.clip(dip + 1, s + 1, e + 1)) - suffix(e + 1)

    left_target = np.where(s + j <= e, p_target, 0.0)
    d_left = p_s - c * left_target
    left_term = np.maximum(d_left, 0.0)

    # Every suffix read is at most suffix(lead), and every target suffix at
    # most suffix(lead + j): two of each per window difference, and the past
    # cells read two more source suffixes.
    reads = (
        4.0 * suffix(lead)
        + 2.0 * c * suffix(np.minimum(lead + j, K))
        + np.where(dip_valid, p_dip + c * p_e, 0.0)
        + p_s
        + c * left_target
    )
    return viol_interior + dip_term + past + left_term, reads, lead, K - first


def _tail_sums(cells: _Cells, first: int) -> np.ndarray:
    """The masses of cells t..K-1 for t = first..K, summed from the right
    edge a block at a time, each block's sum carried into the next: bit
    for bit one running sum of the tail."""
    K = cells.size
    tail = np.zeros(K + 1 - first)
    for hi in range(K, first, -_BLOCK):
        lo = max(first, hi - _BLOCK)
        block = cells.run(lo, hi, tail[lo - first : hi - first])[::-1]
        if hi < K:
            block[0] += tail[hi - first]
        np.cumsum(block, out=block)
    return tail


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
    cells = dist.masses
    K = cells.size
    s, e = dist._run

    def d_at(i):  # d at each cell of the int array i, 0.0 where it is flat
        p = cells.take(np.concatenate([i, np.minimum(i + j, K - 1)]))
        p, scaled = p[: i.size], np.where(i + j < K, c * p[i.size :], 0.0)
        d = p - scaled
        return np.where(np.abs(d) <= eta * np.maximum(p, scaled), 0.0, d)

    probes = set()
    left = min(s - 1, e - j)  # the last cell left of the support with a target in it
    if left >= max(0, s - j):
        probes.add(left)
    gap = 0.0
    g_hi = e - j  # cells s..g_hi have their target inside the support
    if g_hi >= s:
        # where the suffix search ended, and the centre, where the ratio of
        # a grid with geometric halves reaches e^eps
        neg_end = _bisect(s + 1, g_hi, lambda i: d_at(i) >= 0.0, (lead + 2, K // 2))
        pos_start = _bisect(neg_end, g_hi, lambda i: d_at(i) > 0.0, (lead + 2,))
        for i in (s + _PROBE, neg_end, pos_start, g_hi - _PROBE):
            probes.update(range(max(s, i - _PROBE), min(g_hi, i + _PROBE) + 1))
        if pos_start < lead:
            d = cells.run(pos_start, lead) - c * cells.run(pos_start + j, lead + j)
            gap = float(np.maximum(d, 0.0).sum())
    if max(s, g_hi + 1) <= e:
        probes.add(max(s, g_hi + 1))  # the first cell shifted past the support
    straddle, prev = 0.0, 0.0
    for d in d_at(np.array(sorted(probes), dtype=np.int64)).tolist():
        if d == 0.0:
            continue
        if (d > 0.0) != (prev > 0.0) and prev != 0.0:
            straddle += min(abs(prev), abs(d))
        prev = d
    return straddle + gap


def _bisect(lo: int, hi: int, holds, guesses: tuple = ()) -> int:
    """The first i in [lo, hi) where ``holds`` does, as the binary search
    with midpoints (lo + hi) // 2 finds it.  ``holds`` tests an int array
    of cells at once.  Each call asks for the midpoints of the whole path
    the search takes if the first i is lo, hi or one of ``guesses``, so
    that a search that ends where one of them says takes one call, and
    one that strays takes another from where it strayed."""
    while lo < hi:
        mids = set()
        for x in (lo, hi, *guesses):
            a, b = lo, hi
            while a < b:
                mid = (a + b) // 2
                mids.add(mid)
                a, b = (a, mid) if mid >= x else (mid + 1, b)
        index = np.fromiter(mids, dtype=np.int64, count=len(mids))
        found = dict(zip(index.tolist(), holds(index).tolist()))
        while lo < hi and (lo + hi) // 2 in found:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if found[mid] else (mid + 1, hi)
    return lo


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
    masses = np.asarray(dist.masses)  # the whole grid, K <= _MAX_CELLS
    shifts = range(1, dist.shift_cells + 1)
    violations = [_direct_violation(masses, c, j) for j in shifts]
    worst = max(violations)
    worst_j = violations.index(worst) + 1
    flat, straddle, read = _scan_tolerance(masses, c, worst_j, _flat_band(dist))
    rounding = (_gamma(masses.size + 2) + dist.mass_error) * read
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
