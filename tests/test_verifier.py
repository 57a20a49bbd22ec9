import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtr

from dpnoise.baselines import BoundedUniform, Gaussian, Laplace, analytic_gaussian_sigma
from dpnoise.core import DomainError, PrivacyParams
from dpnoise.query import MECHANISM_NAMES, make_mechanism
from dpnoise.trunclap import TruncatedLaplace
from dpnoise import verifier
from dpnoise.verifier import (
    _BLOCK,
    DiscretizedDist,
    ViolationReport,
    _direct_violation,
    _exp_epsilon,
    _flat_band,
    _gamma,
    _scan_tolerance,
    _width_jitter,
    discretize,
    dp_check,
    max_violation,
)


def brute_violation(p, c, j):
    """Reference implementation: plain shifted scan, shifted-out cells are 0."""
    p = np.asarray(p, dtype=float)
    K = p.size
    shifted = np.zeros(K)
    if j > 0:
        shifted[: K - j] = p[j:]
    elif j < 0:
        shifted[-j:] = p[: K + j]
    else:
        shifted = p
    return float(np.maximum(p - c * shifted, 0.0).sum())


def brute_tolerance(masses, c, j, eta):
    """Reference full scan of the tolerance formula over whole arrays:
    (flat, straddle, read) for shift j with flat band eta."""
    K = masses.size
    jj = abs(j)
    shifted = np.zeros(K)
    if jj < K:
        if j >= 0:
            shifted[: K - jj] = masses[jj:]
        else:
            shifted[jj:] = masses[: K - jj]
    scaled = c * shifted
    d = masses - scaled
    up = d > 0.0
    read = float(masses[up].sum() + scaled[up].sum())
    band = eta * np.maximum(masses, scaled)
    sign = np.zeros(K, dtype=np.int8)
    sign[d > band] = 1
    sign[d < -band] = -1
    flat = float(band[sign == 0].sum())
    straddle = 0.0
    nonzero = np.flatnonzero(sign)
    if nonzero.size:
        signs = sign[nonzero]
        flips = np.flatnonzero(signs[:-1] != signs[1:])
        a = nonzero[flips]
        b = nonzero[flips + 1]
        straddle = float(np.minimum(np.abs(d[a]), np.abs(d[b])).sum())
    return flat, straddle, read


def brute_fast_ok(masses):
    """Reference fast-path gate: a contiguous support run whose interior is
    log-concave up to the grid slack, checked over full arrays."""
    positive = np.flatnonzero(masses > 0.0)
    s, e = int(positive[0]), int(positive[-1])
    if not np.all(masses[s : e + 1] > 0.0):
        return False
    inner = masses[s + 1 : e]
    if inner.size < 3:
        return True
    slack = max(1e-10, 8.0 * _width_jitter(masses.size))
    if np.any(inner < 1e-150):
        logs = np.log(inner)
        return bool(np.all(2.0 * logs[1:-1] >= logs[:-2] + logs[2:] - slack))
    return bool(
        np.all(inner[1:-1] * inner[1:-1] >= inner[:-2] * inner[2:] * (1.0 - slack))
    )


def brute_suffix(masses):
    """Whole-grid suffix sums, accumulated from the right edge."""
    K = masses.size
    suffix = np.empty(K + 1)
    suffix[K] = 0.0
    np.cumsum(masses[::-1], out=suffix[:K][::-1])
    return suffix


def brute_fast_forward_violations(masses, suffix, s, e, c, max_shift):
    """The fast path over whole-grid suffix sums, kept verbatim from before
    it read only the tail, as the reference."""
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


def brute_dp_check(masses, shift_cells, params):
    """The search of dp_check with whole-grid gates and suffix sums and
    nothing cached, kept verbatim from before the tail-only sums, as the
    reference: (worst violation, worst shift in cells, fast path?)."""
    masses = np.asarray(masses, dtype=float)
    c = _exp_epsilon(params.epsilon)
    m = shift_cells
    positive = np.flatnonzero(masses > 0.0)
    s, e = int(positive[0]), int(positive[-1])
    fast = brute_fast_ok(masses) and np.array_equal(masses, masses[::-1])

    if fast:
        violations = brute_fast_forward_violations(
            masses, brute_suffix(masses), s, e, c, m
        )
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
    return worst, worst_j, fast


def check_tolerance_parts(dist, c, worst_j, parts, fast):
    """A check's tolerance parts against the full-scan reference: at least
    it on the fast path, equal to it (summed in another order) otherwise."""
    flat, straddle, read = brute_tolerance(dist.masses, c, worst_j, _flat_band(dist))
    assert parts[3] == 0.5 * (1.0 + c) * dist.fold
    if fast:
        assert parts[0] >= flat and parts[1] >= straddle
    else:
        rounding = (_gamma(dist.masses.size + 2) + dist.mass_error) * read
        expected = (flat, straddle, rounding)
        assert parts[:3] == pytest.approx(expected, rel=1e-12, abs=0.0)


def make_dist(masses, step=0.1, shift_cells=2, **grid):
    masses = np.asarray(masses, dtype=float)
    return DiscretizedDist(
        origin=-0.5 * step * masses.size,
        step=step,
        masses=masses,
        shift_cells=shift_cells,
        **grid,
    )


def bimodal_dist():
    """Two far-apart humps: not log-concave, so dp_check scans directly."""
    x = np.linspace(-6, 6, 241)[:-1]
    p = np.exp(-((x - 3.0) ** 2) / 0.5) + np.exp(-((x + 3.0) ** 2) / 0.5)
    p /= p.sum()
    return DiscretizedDist(origin=-6.0, step=0.05, masses=p, shift_cells=20)


class TestDiscretizedDist:
    def test_validation(self):
        with pytest.raises(DomainError):
            make_dist([0.5, 0.5], step=0.0)
        with pytest.raises(DomainError):
            make_dist([0.5, 0.5], shift_cells=0)
        with pytest.raises(DomainError):
            make_dist([])
        with pytest.raises(DomainError):
            make_dist([[0.5], [0.5]])
        with pytest.raises(DomainError):
            make_dist([0.5, -0.1])
        with pytest.raises(DomainError):
            make_dist([0.5, math.nan])
        with pytest.raises(DomainError):
            make_dist([0.0, 0.0])

    def test_total_mass(self):
        d = make_dist([0.25, 0.5, 0.25])
        assert d.total_mass == 1.0

    def test_fast_flag_log_concave(self):
        x = np.linspace(-3, 3, 101)
        p = np.exp(-x * x)
        assert make_dist(p / p.sum())._fast_ok is True

    def test_fast_flag_bimodal(self):
        x = np.linspace(-6, 6, 201)
        p = np.exp(-((x - 3.0) ** 2)) + np.exp(-((x + 3.0) ** 2))
        assert make_dist(p / p.sum())._fast_ok is False

    def test_fast_flag_interior_zero(self):
        assert make_dist([0.3, 0.0, 0.3, 0.4])._fast_ok is False

    def test_masses_are_frozen(self):
        # the gates, the suffix sums and the per-epsilon results are cached
        # from the masses, so a grid's masses cannot be written
        p = np.array([0.25, 0.5, 0.25])
        d = make_dist(p)
        with pytest.raises(ValueError):
            d.masses[0] = 1.0
        p[0] = 0.3  # the caller's own array stays writable
        assert p.flags.writeable


class TestMaxViolation:
    def test_matches_reference_scan(self):
        rng = np.random.default_rng(11)
        p = rng.random(37)
        p /= p.sum()
        d = make_dist(p, shift_cells=5)
        for eps in (0.0, 0.2, 1.0):
            c = math.exp(eps)
            for j in range(-5, 6):
                assert max_violation(d, eps, j) == pytest.approx(
                    brute_violation(p, c, j), rel=1e-13, abs=1e-300
                )

    def test_zero_shift_is_zero(self):
        d = make_dist([0.2, 0.3, 0.5], shift_cells=1)
        assert max_violation(d, 0.7, 0) == 0.0

    def test_symmetric_masses_symmetric_shifts(self):
        p = np.array([0.05, 0.2, 0.5, 0.2, 0.05])
        d = make_dist(p, shift_cells=2)
        for j in (1, 2):
            assert max_violation(d, 0.4, j) == max_violation(d, 0.4, -j)

    def test_rejects_bad_arguments(self):
        d = make_dist([0.5, 0.5], shift_cells=1)
        with pytest.raises(DomainError):
            max_violation(d, -0.1, 1)
        with pytest.raises(DomainError):
            max_violation(d, math.inf, 1)
        with pytest.raises(DomainError):
            max_violation(d, 0.5, 2)


class TestDiscretize:
    def test_rejects_coarse_or_misaligned_step(self):
        mech = Laplace(1.0)
        with pytest.raises(DomainError):
            discretize(mech, 1.0, step=0.5)  # only 2 cells per sensitivity
        with pytest.raises(DomainError):
            discretize(mech, 1.0, step=0.3)  # 3.33 cells: not an integer
        with pytest.raises(DomainError):
            discretize(mech, 1.0, step=-0.01)

    def test_rejects_bad_radius(self):
        with pytest.raises(DomainError):
            discretize(Laplace(1.0), 1.0, step=0.1, radius=-2.0)

    def test_grid_geometry(self):
        d = discretize(Gaussian(1.0), 1.0, step=0.01, radius=3.0)
        assert d.shift_cells == 100
        assert d.masses.size == 600
        assert d.origin == pytest.approx(-3.0, rel=1e-15)

    def test_bounded_support_sets_radius(self):
        mech = TruncatedLaplace.from_privacy(PrivacyParams(1.0, 1e-5), 1.0)
        d = discretize(mech, 1.0, step=0.01)
        half = math.ceil(mech.radius / 0.01 - 1e-12)
        assert d.masses.size == 2 * half
        assert d.origin == pytest.approx(-half * 0.01, rel=1e-15)

    def test_unbounded_radius_from_quantiles(self):
        d = discretize(Gaussian(1.0), 1.0, step=0.01)
        # two-sided 1e-12 tail of a unit Gaussian sits near 7.03
        assert 6.5 < -d.origin < 7.6

    def test_default_outer_cell_holds_its_exact_tail(self):
        # The default masses come from the upper half line, so the right
        # outermost cell is one small ndtr, not a 1 - cdf that cancels.
        sigma = analytic_gaussian_sigma(PrivacyParams(1.0, 1e-4), 1.0)
        d = discretize(Gaussian(sigma), 1.0, step=1e-3)
        half = d.masses.size // 2
        tail = float(ndtr(-(half - 1) * 1e-3 / sigma))
        assert d.masses[-1] == pytest.approx(tail, rel=1e-13)
        assert np.array_equal(d.masses, d.masses[::-1])
        u = discretize(BoundedUniform.from_privacy(PrivacyParams(1.0, 1e-3), 1.0), 1.0, step=1e-2)
        assert np.array_equal(u.masses, u.masses[::-1])

    def test_radius_below_one_cell_is_a_domain_error(self):
        with pytest.raises(DomainError):
            discretize(Gaussian(1.0), 1.0, step=0.1, radius=1e-14)

    def test_mass_is_conserved(self):
        for mech in (
            Gaussian(0.8),
            Laplace(1.3),
            TruncatedLaplace.from_privacy(PrivacyParams(0.5, 1e-4), 1.0),
        ):
            d = discretize(mech, 1.0, step=0.05)
            assert d.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_tail_folding_lands_in_edge_cells(self):
        d = discretize(Gaussian(1.0), 1.0, step=0.1, radius=2.0)
        # each edge cell holds its own slice plus the entire folded tail
        g = Gaussian(1.0)
        expected = float(g.cdf(-1.9))
        assert d.masses[0] == pytest.approx(expected, rel=1e-12)
        assert d.masses[-1] == pytest.approx(expected, rel=1e-12)
        # and the grid records the folded tails
        assert d.fold == pytest.approx(2.0 * float(g.cdf(-2.0)), rel=1e-12)

    def test_bounded_support_folds_nothing(self):
        p = PrivacyParams(1.0, 1e-5)
        trunclap = discretize(TruncatedLaplace.from_privacy(p, 1.0), 1.0, step=0.01)
        uniform = discretize(BoundedUniform.from_privacy(p, 1.0), 1.0, step=0.1)
        assert trunclap.fold == uniform.fold == 0.0
        # cut inside the support, the tail beyond the grid is folded
        cut = discretize(TruncatedLaplace.from_privacy(p, 1.0), 1.0, step=0.01, radius=5.0)
        assert cut.fold > 0.0

    def test_stated_mass_error(self):
        # the closed form states a few ulp per unit of the grid's reach over
        # the scale; generic edges state the grid's width jitter
        p = PrivacyParams(1.0, 1e-5)
        mech = TruncatedLaplace.from_privacy(p, 1.0)
        d = discretize(mech, 1.0, step=0.01)
        reach = d.masses.size // 2 * 0.01 / mech.scale
        assert d.mass_error == 4.0 * 2.0**-53 * (1.0 + reach)
        g = discretize(Gaussian(1.0), 1.0, step=0.01)
        assert g.mass_error == 2.0 * _width_jitter(g.masses.size)

    def test_rejects_bad_mass_error_and_fold(self):
        for bad in (-1e-16, 0.25, math.nan):
            with pytest.raises(DomainError):
                make_dist([0.5, 0.5], mass_error=bad)
        for bad in (-1e-16, math.inf, math.nan):
            with pytest.raises(DomainError):
                make_dist([0.5, 0.5], fold=bad)


class TestDpCheck:
    def test_report_shape(self):
        mech = TruncatedLaplace.from_privacy(PrivacyParams(1.0, 1e-4), 1.0)
        report = dp_check(discretize(mech, 1.0, step=0.05), PrivacyParams(1.0, 1e-4))
        assert isinstance(report, ViolationReport)
        d = report.to_dict()
        assert set(d) == {
            "max_violation",
            "worst_shift",
            "pass",
            "h",
            "tolerance",
            "tolerance_parts",
            "epsilon",
            "delta",
            "cells",
            "path",
        }
        assert d["h"] == 0.05
        assert d["cells"] == report.cells == 2 * math.ceil(
            mech.radius / 0.05 - 1e-12
        )
        assert d["path"] == "fast"
        assert report.passed == (
            report.max_violation <= report.delta + report.tolerance
        )
        parts = d["tolerance_parts"]
        assert list(parts) == ["flat", "straddle", "rounding", "fold"]
        assert sum(parts.values()) == d["tolerance"]
        assert parts["fold"] == 0.0  # a bounded support folds nothing

    def test_trunclap_passes_its_own_target(self):
        p = PrivacyParams(1.0, 1e-4)
        mech = TruncatedLaplace.from_privacy(p, 1.0)
        report = dp_check(discretize(mech, 1.0, step=0.01), p)
        assert report.passed
        # the calibration is tight: the measured violation is delta itself
        assert report.max_violation == pytest.approx(1e-4, rel=1e-6)
        assert abs(report.worst_shift) == pytest.approx(1.0, rel=1e-12)

    def test_trunclap_fails_a_halved_delta(self):
        p = PrivacyParams(1.0, 1e-4)
        mech = TruncatedLaplace.from_privacy(p, 1.0)
        report = dp_check(
            discretize(mech, 1.0, step=0.01), PrivacyParams(1.0, 5e-5)
        )
        assert not report.passed

    def test_laplace_is_pure_dp(self):
        mech = Laplace(1.0 / 0.8)
        report = dp_check(
            discretize(mech, 1.0, step=0.02), PrivacyParams(0.8, 1e-9)
        )
        assert report.passed
        assert report.max_violation <= report.tolerance + 1e-9

    def test_gaussian_analytic_calibration_passes(self):
        p = PrivacyParams(1.0, 1e-5)
        report = dp_check(
            discretize(Gaussian(analytic_gaussian_sigma(p, 1.0)), 1.0, step=0.02), p
        )
        assert report.passed

    def test_gaussian_undersized_sigma_fails(self):
        p = PrivacyParams(1.0, 1e-5)
        sigma = 0.9 * analytic_gaussian_sigma(p, 1.0)
        report = dp_check(discretize(Gaussian(sigma), 1.0, step=0.02), p)
        assert not report.passed

    def test_uniform_limit_violation_is_delta(self):
        mech = BoundedUniform.from_privacy(PrivacyParams(1.0, 0.01), 1.0)
        d = discretize(mech, 1.0, step=0.01)
        report = dp_check(d, PrivacyParams(0.4, 0.01))
        assert report.passed
        assert report.max_violation == pytest.approx(0.01, rel=1e-9)
        report_tight = dp_check(d, PrivacyParams(0.4, 0.005))
        assert not report_tight.passed

    @pytest.mark.parametrize(
        "mech",
        [
            TruncatedLaplace.from_privacy(PrivacyParams(1.0, 1e-5), 1.0),
            Gaussian(3.7306),
            Laplace(1.0),
        ],
        ids=["trunclap", "gaussian", "laplace"],
    )
    def test_fast_path_agrees_with_direct_scan(self, mech):
        d = discretize(mech, 1.0, step=0.02)
        assert d._fast_ok
        p = PrivacyParams(1.0, 1e-5)
        report = dp_check(d, p)
        c = math.exp(p.epsilon)
        direct = max(
            brute_violation(d.masses, c, j)
            for j in range(-d.shift_cells, d.shift_cells + 1)
        )
        # for a pure-epsilon mechanism both sides are float crumbs; they may
        # disagree at the crumb scale, which the check's own tolerance covers
        assert report.max_violation == pytest.approx(
            direct, rel=1e-9, abs=report.tolerance
        )

    def test_slow_path_on_bimodal_masses(self):
        d = bimodal_dist()
        assert not d._fast_ok
        target = PrivacyParams(0.5, 1e-3)
        report = dp_check(d, target)
        c = math.exp(0.5)
        direct = max(brute_violation(d.masses, c, j) for j in range(-20, 21))
        assert report.max_violation == pytest.approx(direct, rel=1e-12)
        assert not report.passed  # two far-apart humps leak badly

    @pytest.mark.parametrize(
        "make, path",
        [
            (
                lambda: discretize(
                    TruncatedLaplace.from_privacy(PrivacyParams(1.0, 1e-4), 1.0),
                    1.0,
                    step=0.05,
                ),
                "fast",
            ),
            (lambda: discretize(Gaussian(2.0), 1.0, step=0.05), "fast"),
            (bimodal_dist, "direct"),
        ],
        ids=["trunclap", "gaussian", "bimodal"],
    )
    def test_worst_shift_realises_the_violation(self, make, path):
        d = make()
        eps = 1.0
        report = dp_check(d, PrivacyParams(eps, 1e-4))
        assert report.path == path
        c = math.exp(eps)
        j = round(report.worst_shift / d.step)
        assert j != 0
        assert brute_violation(d.masses, c, j) == pytest.approx(
            report.max_violation, rel=1e-9
        )
        for k in range(-d.shift_cells, d.shift_cells + 1):
            assert (
                brute_violation(d.masses, c, k)
                <= report.max_violation + report.tolerance
            )

    @pytest.mark.parametrize("name", MECHANISM_NAMES)
    @pytest.mark.parametrize(
        # the uniform grid has 1/(delta*step) cells
        "eps, delta, step", [(1.0, 1e-3, 1e-2), (0.5, 1e-2, 1e-3), (2.0, 0.05, 0.05)]
    )
    def test_every_mechanism_grid_is_mirrored_and_fast(
        self, name, eps, delta, step
    ):
        p = PrivacyParams(eps, delta)
        d = discretize(make_mechanism(name, p, 1.0), 1.0, step=step)
        assert np.array_equal(d.masses, d.masses[::-1])
        assert dp_check(d, p).path == "fast"

    def test_asymmetric_log_concave_grid_scans_both_directions(self):
        # Half-Gaussians of different widths meet at their common mode, so
        # the masses are log-concave but not mirrored; the reversed grid
        # moves the worst shift to the other side.
        x = np.linspace(-4.0, 4.0, 400)
        p = np.exp(-0.5 * np.where(x < 0.0, x, 2.0 * x) ** 2)
        p /= p.sum()
        signs = set()
        for masses in (p, p[::-1].copy()):
            d = make_dist(masses, step=0.02, shift_cells=50)
            assert d._fast_ok
            for eps, delta in [(0.5, 1e-3), (1.0, 1e-4)]:
                report = dp_check(d, PrivacyParams(eps, delta))
                assert report.path == "direct"
                c = math.exp(eps)
                shifts = range(-d.shift_cells, d.shift_cells + 1)
                brute = [brute_violation(masses, c, j) for j in shifts]
                assert report.max_violation == pytest.approx(max(brute), rel=1e-12)
                worst_j = round(report.worst_shift / d.step)
                assert brute[worst_j + d.shift_cells] == pytest.approx(
                    max(brute), rel=1e-12
                )
                signs.add(np.sign(worst_j))
        assert signs == {-1, 1}

    def test_tolerance_scales_with_grid(self):
        p = PrivacyParams(1.0, 1e-5)
        mech = TruncatedLaplace.from_privacy(p, 1.0)
        coarse = dp_check(discretize(mech, 1.0, step=0.1), p)
        fine = dp_check(discretize(mech, 1.0, step=0.01), p)
        assert coarse.tolerance > 0.0
        assert fine.tolerance > 0.0
        assert fine.passed and coarse.passed


class TestBlockedKernels:
    """The block-wise kernels against their full-array references, on grids
    longer than three blocks."""

    @staticmethod
    def _peaked_at_boundary(rng):
        # Rising up to cell _BLOCK, falling after: for shift +1 and c = 1 the
        # sign of p_i - p_(i+1) flips exactly between the first two blocks.
        K = 3 * _BLOCK + 517
        up = np.cumsum(rng.uniform(1.0, 2.0, _BLOCK + 1))
        down = up[-1] - np.cumsum(rng.uniform(0.1, 0.3, K - _BLOCK - 1))
        return np.concatenate([up, down]) / 1e6

    def test_tolerance_matches_reference(self):
        rng = np.random.default_rng(5)
        trunclap = discretize(
            TruncatedLaplace.from_privacy(PrivacyParams(0.01, 1e-4), 1.0), 1.0, step=1e-3
        ).masses
        assert trunclap.size > 3 * _BLOCK
        noisy = rng.random(3 * _BLOCK + 1001)
        holes = rng.random(4 * _BLOCK + 3)
        holes[_BLOCK - 40 : _BLOCK + 40] = 0.0  # interior zeros across a boundary
        holes[2 * _BLOCK + 7 : 2 * _BLOCK + 9000] = 0.0
        peaked = self._peaked_at_boundary(rng)
        plateau = peaked.copy()
        plateau[_BLOCK - 6 : _BLOCK + 6] = plateau[_BLOCK]  # flat cells at the flip
        cases = [
            (trunclap, math.exp(0.01), [1000, -1000, 1, -1, 999]),
            (noisy, math.exp(0.3), [1, -1, 3, -7, _BLOCK, -_BLOCK - 1]),
            (holes, math.exp(0.5), [7, -7, 1, -1, 40, -80]),
            (peaked, 1.0, [1, -1, 2, -3]),
            (plateau, 1.0, [1, -1]),
        ]
        for masses, c, shifts in cases:
            K = masses.size
            for eta in (8.0 * 2.0**-53, 1e-9):
                for j in shifts + [0, K, -K, K + 5]:
                    assert _scan_tolerance(masses, c, j, eta) == pytest.approx(
                        brute_tolerance(masses, c, j, eta), rel=1e-14, abs=0.0
                    ), (K, c, j)

    def test_flip_at_block_boundary_is_counted(self):
        masses = self._peaked_at_boundary(np.random.default_rng(6))
        d = masses[:-1] - masses[1:]
        assert np.all(d[:_BLOCK] < 0.0) and np.all(d[_BLOCK:] > 0.0)
        flip = min(-d[_BLOCK - 1], d[_BLOCK])
        assert flip > 1e-7
        assert _scan_tolerance(masses, 1.0, 1, 8.0 * 2.0**-53)[1] >= flip

    def test_fast_flag_matches_reference(self):
        x = np.linspace(-4.0, 4.0, 3 * _BLOCK + 333)
        bell = np.exp(-x * x)
        deep = np.exp(-((5.5 * x) ** 2))  # tails far below 1e-150: log test
        assert deep.min() < 1e-150
        cases = [bell, deep]
        for base in (bell, deep):
            # a dip breaks log-concavity at the last middle cell of the first
            # block, at the first middle cell of the second, or mid-block
            for cell in (_BLOCK, _BLOCK + 1, _BLOCK + 2, 2 * _BLOCK - 5):
                dipped = base.copy()
                dipped[cell] *= 0.99
                # times its mirror image, the grid is exactly mirrored, so
                # only its left half and centre are checked
                cases += [dipped, dipped * dipped[::-1]]
        for base in (bell, deep, bell[1:]):
            # mirrored, with a dip only at the centre cell (odd sizes) or
            # the centre pair (even sizes)
            centre = base * base[::-1]
            centre[(base.size - 1) // 2 : base.size // 2 + 1] *= 0.99
            cases.append(centre)
        holed = bell.copy()
        holed[2 * _BLOCK] = 0.0
        cases.append(holed)
        flags = []
        for masses in cases:
            d = make_dist(masses, shift_cells=10)
            assert d._fast_ok == brute_fast_ok(masses)
            assert d._mirrored == np.array_equal(masses, masses[::-1])
            assert d._mass == pytest.approx(masses.sum(), rel=1e-14)
            flags.append(d._fast_ok)
        assert flags[:2] == [True, True] and not any(flags[2:])


@st.composite
def log_concave(draw, mirrored):
    """Masses rising log-concavely to a peak and, mirrored, falling back, or
    falling with another slope profile; edge cells may carry folded tail
    mass, and the support may sit inside zero cells."""
    n = draw(st.integers(1, 40))
    rises = sorted(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    left = np.exp(np.cumsum(rises[::-1]))
    if mirrored:
        right = left[::-1] if draw(st.booleans()) else left[-2::-1]
    else:
        k = draw(st.integers(1, 40))
        falls = sorted(draw(st.lists(st.floats(0.0, 3.0), min_size=k, max_size=k)))
        right = left[-1] * np.exp(-np.cumsum(falls))
    masses = np.concatenate([left, right])
    fold = draw(st.floats(1.0, 5.0))
    masses[0] *= fold
    if mirrored:
        masses[-1] *= fold
    pad = np.zeros(draw(st.integers(0, 3)))
    masses = np.concatenate([pad, masses, pad])
    return masses / masses.sum()


ANY_MASSES = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=80).filter(
    lambda p: max(p) > 0.0
).map(np.array)
# mirrored about a cell boundary or about a centre cell
MIRRORED_MASSES = ANY_MASSES.flatmap(
    lambda p: st.sampled_from(
        [np.concatenate([p, p[::-1]]), np.concatenate([p, p[-2::-1]])]
    )
)


class TestFastPathReference:
    """dp_check against the whole-grid, uncached reference, report for report
    and bit for bit, over a sequence of checks that hits the cache."""

    @staticmethod
    def _check_against_reference(masses, step, shift_cells, eps, delta, **grid):
        d = DiscretizedDist(
            origin=0.0, step=step, masses=masses, shift_cells=shift_cells, **grid
        )
        assert d._fast_ok == brute_fast_ok(masses)
        assert d._mirrored == np.array_equal(masses, masses[::-1])
        assert d._mass == pytest.approx(masses.sum(), rel=1e-13)
        paths = set()
        for params in (
            PrivacyParams(eps, delta),
            PrivacyParams(eps, delta / 2.0),
            PrivacyParams(eps / 3.0, delta),
            PrivacyParams(eps, delta / 7.0),
        ):
            worst, worst_j, fast = brute_dp_check(masses, shift_cells, params)
            c = _exp_epsilon(params.epsilon)
            try:
                report = dp_check(d, params)
            except DomainError as exc:
                assert "cannot tell delta from delta/2" in str(exc)
                report = None
            assert d._by_c[c][:2] == (worst, worst_j)
            parts = d._by_c[c][2]
            check_tolerance_parts(d, c, worst_j, parts, fast)
            tolerance = sum(parts)
            passed = worst <= params.delta + tolerance
            if report is None:
                assert passed and tolerance > params.delta / 2.0
                paths.add("fast" if d._fast_ok and d._mirrored else "direct")
                continue
            assert report.max_violation == worst
            assert report.worst_shift == worst_j * step
            assert report.path == ("fast" if fast else "direct")
            assert report.tolerance == tolerance
            assert report.passed == passed
            assert not passed or tolerance <= params.delta / 2.0
            paths.add(report.path)
        return paths

    @settings(max_examples=150, deadline=None)
    @given(
        masses=log_concave(mirrored=True),
        shift=st.integers(1, 50),
        eps=st.floats(0.01, 3.0),
        delta=st.floats(1e-9, 0.49),
    )
    @example(masses=np.array([0.3, 0.4, 0.3]), shift=1, eps=0.5, delta=0.1)
    @example(masses=np.array([0.0, 0.2, 0.6, 0.2, 0.0]), shift=4, eps=1.0, delta=0.01)
    @example(masses=np.array([1.0]), shift=2, eps=1.0, delta=0.01)
    def test_mirrored_log_concave_grids(self, masses, shift, eps, delta):
        paths = self._check_against_reference(masses, 0.1, shift, eps, delta)
        assert paths == {"fast"}

    @settings(max_examples=200, deadline=None)
    @given(
        masses=st.one_of(log_concave(mirrored=False), ANY_MASSES, MIRRORED_MASSES),
        shift=st.integers(1, 50),
        eps=st.floats(0.01, 3.0),
        delta=st.floats(1e-9, 0.49),
    )
    # mirrored grids whose only log-concavity breach is at the centre
    @example(masses=np.array([0.1, 0.3, 0.1, 0.3, 0.1]), shift=2, eps=0.5, delta=0.1)
    @example(
        masses=np.array([0.1, 0.2, 0.3, 0.25, 0.25, 0.3, 0.2, 0.1]),
        shift=2, eps=0.5, delta=0.1,
    )
    def test_other_grids(self, masses, shift, eps, delta):
        paths = self._check_against_reference(masses, 0.1, shift, eps, delta)
        mirrored = np.array_equal(masses, masses[::-1])
        fast = mirrored and brute_fast_ok(masses)
        assert paths == {"fast" if fast else "direct"}

    @pytest.mark.parametrize("name", MECHANISM_NAMES)
    @settings(max_examples=12, deadline=None)
    @given(
        eps=st.floats(0.2, 3.0),
        delta=st.floats(1e-3, 0.2),
        step=st.sampled_from([0.05, 0.02, 0.01]),
    )
    def test_every_mechanism(self, name, eps, delta, step):
        p = PrivacyParams(eps, delta)
        d = discretize(make_mechanism(name, p, 1.0), 1.0, step=step)
        paths = self._check_against_reference(
            d.masses, d.step, d.shift_cells, eps, delta,
            mass_error=d.mass_error, fold=d.fold,
        )
        assert paths == {"fast"}

    def test_same_epsilon_other_delta(self):
        eps, delta = 0.5, 1e-4
        d = discretize(
            TruncatedLaplace.from_privacy(PrivacyParams(eps, delta), 1.0),
            1.0,
            step=1e-2,
        )
        accept = dp_check(d, PrivacyParams(eps, delta))
        reject = dp_check(d, PrivacyParams(eps, delta / 2.0))
        for field in ("max_violation", "worst_shift", "tolerance"):
            assert getattr(accept, field) == getattr(reject, field)
        assert (accept.delta, reject.delta) == (delta, delta / 2.0)
        assert accept.passed and not reject.passed
        for report in (accept, reject):
            assert report.passed == (
                report.max_violation <= report.delta + report.tolerance
            )


class TestDiscrimination:
    """The tolerance tells delta from delta/2 at tiny delta, or the check
    refuses; the calibration identity (the truncated Laplacian's exact
    profile at its own epsilon is delta) is the reference."""

    @pytest.mark.parametrize(
        # tolerance / delta was 116, 5973, 35 and 5.5 with a cell-count slack
        "eps, delta", [(1.0, 1e-12), (0.01, 1e-12), (1e-3, 1e-9), (0.1, 1e-10)]
    )
    def test_accepts_delta_and_rejects_half(self, eps, delta):
        p = PrivacyParams(eps, delta)
        mech = TruncatedLaplace.from_privacy(p, 1.0)
        d = discretize(mech, 1.0, step=1e-3)
        accept = dp_check(d, p)
        reject = dp_check(d, PrivacyParams(eps, delta / 2.0))
        assert accept.path == "fast"
        assert accept.tolerance < 0.5 * delta
        assert accept.passed and not reject.passed
        exact = float(mech.interval_mass(mech.radius - 1.0, mech.radius))
        assert exact == pytest.approx(delta, rel=1e-12)
        assert abs(accept.max_violation - exact) <= accept.tolerance

    def test_unresolvable_pass_is_refused(self):
        p = PrivacyParams(10.0, 1e-15)
        d = discretize(TruncatedLaplace.from_privacy(p, 1.0), 1.0, step=1e-3)
        with pytest.raises(DomainError, match="cannot tell delta from delta/2"):
            dp_check(d, p)
        # a violation beyond delta + tolerance fails whatever the tolerance
        report = dp_check(d, PrivacyParams(5.0, 1e-15))
        assert report.tolerance > 0.5e-15
        assert report.max_violation > 1e-15 + report.tolerance
        assert not report.passed

    def test_folded_tail_counts(self):
        # a Gaussian grid folds about 1e-12 into its edge cells, so it
        # cannot resolve a delta near that
        p = PrivacyParams(1.0, 1e-5)
        d = discretize(Gaussian(analytic_gaussian_sigma(p, 1.0)), 1.0, step=0.02)
        assert dp_check(d, p).tolerance_parts["fold"] == pytest.approx(
            0.5 * (1.0 + math.e) * d.fold, rel=1e-15
        )
        with pytest.raises(DomainError, match="cannot tell delta from delta/2"):
            dp_check(d, PrivacyParams(20.0, 1e-300))


class TestFastPathCost:
    @pytest.mark.parametrize("name", MECHANISM_NAMES)
    def test_fast_path_never_scans_the_tolerance(self, name, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("full-scan tolerance called")

        monkeypatch.setattr(verifier, "_scan_tolerance", refuse)
        p = PrivacyParams(0.5, 1e-4)
        d = discretize(make_mechanism(name, p, 1.0), 1.0, step=0.01)
        for eps in (0.5, 0.1, 2.0):
            assert dp_check(d, PrivacyParams(eps, 1e-4)).path == "fast"
        with pytest.raises(AssertionError, match="full-scan"):
            dp_check(bimodal_dist(), p)

    @pytest.mark.parametrize(
        "mech",
        [TruncatedLaplace.from_privacy(PrivacyParams(1.0, 1e-5), 1.0), Laplace(1.3)],
        ids=["trunclap", "laplace"],
    )
    def test_discretize_never_calls_interval_mass(self, mech, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("interval_mass called")

        monkeypatch.setattr(type(mech), "interval_mass", refuse)
        d = discretize(mech, 1.0, step=1e-3)
        assert d.total_mass == pytest.approx(1.0, abs=1e-14)
        assert d._fast_ok

    def test_traced_peak_per_cell(self):
        # Suffix sums cover only the tail the fast path reads and every
        # other kernel works in blocks or on half the grid, so an
        # accept/reject pair adds little to the masses themselves.
        p = PrivacyParams(0.01, 1e-5)
        mech = TruncatedLaplace.from_privacy(p, 1.0)
        tracemalloc.start()
        try:
            d = discretize(mech, 1.0, step=1e-3)
            accept = dp_check(d, p)
            reject = dp_check(d, PrivacyParams(0.01, 5e-6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cells = d.masses.size
        assert cells > 1_000_000
        assert accept.passed and not reject.passed
        assert accept.path == "fast" and accept.cells == cells
        assert peak <= 1.5 * d.masses.nbytes
