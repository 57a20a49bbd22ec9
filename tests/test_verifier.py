import dataclasses
import math
import tracemalloc
from fractions import Fraction

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
)
from test_core import NOT_REAL


def brute_violation(p, c, j):
    """Reference implementation: plain shifted scan, shifted-out cells are 0."""
    p = np.asarray(p, dtype=float)
    K = p.size
    shifted = np.zeros(K)
    jj = min(abs(j), K)  # a shift past the grid moves every cell out
    if j > 0:
        shifted[: K - jj] = p[jj:]
    elif j < 0:
        shifted[jj:] = p[: K - jj]
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


def block_order_mass(masses):
    """M as the gate pass sums it: twice the running float sum of the
    left half's block sums, from cell 0 in blocks of _BLOCK."""
    half = masses[: masses.size // 2]
    total = 0.0
    for lo in range(0, half.size, _BLOCK):
        total += float(half[lo : lo + _BLOCK].sum())
    return 2.0 * total


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


def brute_grid_masses(mech, step, half_cells):
    """The full grid as the mechanisms built it when each wrote all 2H
    cells and mirrored them itself, kept verbatim as the reference: the
    truncated Laplacian's closed form, and the default from the half-line
    mass for the others."""
    H = int(half_cells)
    masses = np.empty(2 * H)
    pos = masses[H:]
    if isinstance(mech, TruncatedLaplace):
        t = step / mech.scale
        if math.isinf(mech.radius):
            full, span = H - 1, math.inf
        else:
            radius, h = Fraction(mech.radius), Fraction(step)
            full = min(H - 1, math.floor(radius / h))
            span = float(radius - full * h) / mech.scale
        full = max(0, full)
        inner = np.exp(-t * np.arange(4096))
        head = mech._area * -math.expm1(-t)
        for lo in range(0, full, 4096):
            hi = min(lo + 4096, full)
            np.multiply(head * math.exp(-t * lo), inner[: hi - lo], out=pos[lo:hi])
        k = np.arange(full, H)
        spans = np.where(k == full, span, 0.0)
        pos[full:] = mech._area * np.exp(-k * t) * -np.expm1(-spans)
    else:
        edges = step * np.arange(H + 1, dtype=float)
        edges[-1] = math.inf
        pos[:] = np.maximum(mech._upper_mass(edges[:-1], edges[1:]), 0.0)
    masses[:H] = pos[::-1]
    return masses


def brute_dp_check(masses, shift_cells, params):
    """The search of dp_check with whole-grid gates and suffix sums and
    nothing cached, as the reference: on the fast path kept verbatim from
    before the tail-only sums, otherwise the plain scan of both directions.
    Returns (worst violation, worst shift in cells or None where both
    directions were scanned, fast path?)."""
    masses = np.asarray(masses, dtype=float)
    c = _exp_epsilon(params.epsilon)
    m = shift_cells
    positive = np.flatnonzero(masses > 0.0)
    s, e = int(positive[0]), int(positive[-1])
    if brute_fast_ok(masses):
        violations = brute_fast_forward_violations(
            masses, brute_suffix(masses), s, e, c, m
        )
        worst_j = int(np.argmax(violations)) + 1
        return float(violations[worst_j - 1]), worst_j, True
    return max(brute_violation(masses, c, j) for j in range(-m, m + 1)), None, False


def check_tolerance_parts(dist, c, worst_j, parts, fast):
    """A check's tolerance parts against the full-scan reference: at least
    it on the fast path, equal to it (summed in another order) otherwise."""
    masses = np.asarray(dist.masses)
    flat, straddle, read = brute_tolerance(masses, c, worst_j, _flat_band(dist))
    assert parts[3] == 0.5 * (1.0 + c) * dist.fold
    if fast:
        assert parts[0] >= flat and parts[1] >= straddle
    else:
        rounding = (_gamma(masses.size + 2) + dist.mass_error) * read
        expected = (flat, straddle, rounding)
        assert parts[:3] == pytest.approx(expected, rel=1e-12, abs=0.0)


def mirror(half):
    """The symmetric grid whose right half is ``half``."""
    half = np.asarray(half, dtype=float)
    return np.concatenate([half[::-1], half])


def make_dist(half, step=0.1, shift_cells=2, **grid):
    """A grid built by hand from its right half."""
    return DiscretizedDist(
        step=step, masses=mirror(half), shift_cells=shift_cells, **grid
    )


def bimodal_dist():
    """Two far-apart humps at -3 and 3 on [-6, 6): not log-concave, so
    dp_check scans directly."""
    x = 0.025 + 0.05 * np.arange(120)
    p = np.exp(-((x - 3.0) ** 2) / 0.5) + np.exp(-((x + 3.0) ** 2) / 0.5)
    return make_dist(p / (2.0 * p.sum()), step=0.05, shift_cells=20)


class TestDiscretizedDist:
    def test_validation(self):
        with pytest.raises(DomainError):
            make_dist([0.5], step=0.0)
        with pytest.raises(DomainError):
            make_dist([0.5], shift_cells=0)
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

    @pytest.mark.parametrize("size", [1, 3, 241])
    def test_odd_sizes_are_refused(self, size):
        # a grid is a stated right half and its mirror
        with pytest.raises(DomainError, match=r"^masses must be a 1-d array of an even"):
            DiscretizedDist(step=0.1, masses=np.full(size, 1.0 / size), shift_cells=1)

    def test_left_half_is_the_mirror_of_the_right(self):
        # only the stated right half is read: NaN, a negative or an infinity
        # in the left half is neither read nor written, and the right half
        # is copied, so the caller's array stays as it was
        right = np.array([0.3, 0.15, 0.05])
        for junk in (math.nan, -1.0, math.inf):
            p = np.concatenate([np.full(3, junk), right])
            before = p.tobytes()
            d = DiscretizedDist(step=0.1, masses=p, shift_cells=1)
            assert np.asarray(d.masses).tobytes() == mirror(right).tobytes()
            assert d._run == (0, 5) and d._fast_ok and d._mass == 1.0
            p[3:] = 0.0
            assert np.asarray(d.masses).tobytes() == mirror(right).tobytes()
            p[3:] = right
            assert p.tobytes() == before
        # a read-only array is accepted, left unwritten, and mirrored too
        p = np.concatenate([np.full(3, math.nan), right])
        p.flags.writeable = False
        d = DiscretizedDist(step=0.1, masses=p, shift_cells=1)
        assert np.isnan(p[:3]).all()
        assert np.asarray(d.masses).tobytes() == mirror(right).tobytes()

    def test_a_grid_has_no_origin(self):
        # the origin was always -H * step, and nothing read it
        assert not hasattr(make_dist([0.5]), "origin")
        with pytest.raises(TypeError):
            DiscretizedDist(origin=-0.1, step=0.1, masses=[0.5, 0.5], shift_cells=1)

    def test_equality_and_hash_are_identity(self):
        # the generated __eq__ compared the masses arrays inside a tuple,
        # so a == b raised ValueError and hash(a) raised TypeError
        a = make_dist([0.25, 0.25])
        b = make_dist([0.25, 0.25])
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a)
        assert len({a, b}) == 2 and {a: 1}[a] == 1

    def test_total_mass(self):
        # M, the total the gate pass sums, and the masses' own sum
        d = make_dist([0.25, 0.125, 0.125])
        assert d._mass == 1.0
        assert np.asarray(d.masses).sum() == 1.0

    def test_fast_flag_log_concave(self):
        x = (np.arange(50) + 0.5) * 0.06
        p = np.exp(-x * x)
        assert make_dist(p / (2.0 * p.sum()))._fast_ok is True

    def test_fast_flag_bimodal(self):
        x = (np.arange(100) + 0.5) * 0.06
        p = np.exp(-((x - 3.0) ** 2)) + np.exp(-((x + 3.0) ** 2))
        assert make_dist(p / (2.0 * p.sum()))._fast_ok is False

    def test_fast_flag_interior_zero(self):
        assert make_dist([0.3, 0.0, 0.2])._fast_ok is False

    @pytest.mark.parametrize(
        "bad", [True, False, 2.5, 1.9999, 2.0, 0, -3, np.int64(0), "2", None]
    )
    def test_shift_cells_must_be_an_integer_of_at_least_one(self, bad):
        # a float or a bool was truncated, so the grid checked a shift other
        # than the sensitivity the caller stated
        with pytest.raises(DomainError, match=r"^shift_cells must be an integer >= 1"):
            make_dist([0.25, 0.25], shift_cells=bad)
        d = make_dist([0.25, 0.25], shift_cells=np.int64(3))
        assert d.shift_cells == 3 and type(d.shift_cells) is int

    def test_fields_are_frozen(self):
        # the checks cache their results per epsilon from these fields, so a
        # field set after a check would mix old results with new fields
        p = PrivacyParams(1.0, 1e-4)
        d = discretize(TruncatedLaplace.from_privacy(p, 1.0), 1.0, step=0.05)
        before = dp_check(d, p)
        for name, value in [
            ("step", 0.01), ("masses", np.ones(4)), ("shift_cells", 50),
            ("mass_error", 0.2), ("fold", 0.1), ("_run", (0, 1)),
        ]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(d, name, value)
        assert d.shift_cells == 20 and d.fold == 0.0
        assert dp_check(d, p) == before

    def test_masses_are_frozen(self):
        # the gates, the suffix sums and the per-epsilon results are cached
        # from the masses, so a grid's masses cannot be written
        p = np.array([0.25, 0.25, 0.25, 0.25])
        d = DiscretizedDist(step=0.1, masses=p, shift_cells=2)
        with pytest.raises(ValueError):
            d.masses[0] = 1.0
        p[0] = 0.3  # the caller's own array stays writable
        assert p.flags.writeable


class TestMaxViolation:
    """The full scan of one shift, which dp_check's direct path runs."""

    def test_matches_reference_scan(self):
        rng = np.random.default_rng(11)
        masses = np.asarray(make_dist(rng.random(19), shift_cells=5).masses)
        for eps in (0.0, 0.2, 1.0):
            c = math.exp(eps)
            for j in range(1, 6):
                v = _direct_violation(masses, c, j)
                # on the symmetric grid, shift -j sums the terms of +j in
                # reverse order
                for shift in (j, -j):
                    assert v == pytest.approx(
                        brute_violation(masses, c, shift), rel=1e-13, abs=1e-300
                    )

    def test_shift_past_the_grid_moves_out_everything(self):
        masses = np.asarray(make_dist([0.25, 0.125, 0.125], shift_cells=1).masses)
        assert brute_violation(masses, math.exp(0.7), 6) == 1.0
        for j in (6, 7):
            assert _direct_violation(masses, math.exp(0.7), j) == 1.0


class TestDiscretize:
    def test_rejects_coarse_or_misaligned_step(self):
        mech = Laplace(1.0)
        with pytest.raises(DomainError):
            discretize(mech, 1.0, step=0.5)  # only 2 cells per sensitivity
        with pytest.raises(DomainError):
            discretize(mech, 1.0, step=0.3)  # 3.33 cells: not an integer
        with pytest.raises(DomainError):
            discretize(mech, 1.0, step=-0.01)

    @pytest.mark.parametrize("sens, step", [(1.0, 1e-320), (1e300, 1e-10), (1.0, 5e-324)])
    def test_rejects_a_step_whose_cell_count_overflows(self, sens, step):
        # sens/step is infinite: round() raised OverflowError
        with pytest.raises(DomainError, match=r"sensitivity/step = inf\)$"):
            discretize(Laplace(1.0), sens, step=step)

    def test_cell_cap_refuses_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated or filled a refused grid")

        monkeypatch.setattr(verifier.np, "empty", refuse)
        monkeypatch.setattr(Laplace, "_grid_masses", refuse)
        # a third of a sensitivity beyond the 1 - 1e-12 range is 27.96 a side
        with pytest.raises(
            DomainError, match=r"^grid of 559287532 cells is too large; increase step$"
        ):
            discretize(Laplace(1.0), 1.0, step=1e-7)

    def test_grid_geometry(self):
        d = discretize(BoundedUniform(3.0), 1.0, step=0.01)
        assert d.shift_cells == 100
        assert d.masses.size == 600  # cells -300 .. 299 of width 0.01

    def test_bounded_support_sets_radius(self):
        mech = TruncatedLaplace.from_privacy(PrivacyParams(1.0, 1e-5), 1.0)
        d = discretize(mech, 1.0, step=0.01)
        half = math.ceil(mech.radius / 0.01 - 1e-12)
        assert d.masses.size == 2 * half

    def test_unbounded_radius_from_quantiles(self):
        d = discretize(Gaussian(1.0), 1.0, step=0.01)
        # two-sided 1e-12 tail of a unit Gaussian sits near 7.03
        assert 6.5 < d.masses.size // 2 * d.step < 7.6

    def test_default_outer_cell_holds_its_exact_tail(self):
        # The default masses come from the upper half line, so the right
        # outermost cell is one small ndtr, not a 1 - cdf that cancels.
        sigma = analytic_gaussian_sigma(PrivacyParams(1.0, 1e-4), 1.0)
        d = np.asarray(discretize(Gaussian(sigma), 1.0, step=1e-3).masses)
        half = d.size // 2
        tail = float(ndtr(-(half - 1) * 1e-3 / sigma))
        assert d[-1] == pytest.approx(tail, rel=1e-13)
        assert np.array_equal(d, d[::-1])
        u = discretize(BoundedUniform.from_privacy(PrivacyParams(1.0, 1e-3), 1.0), 1.0, step=1e-2)
        assert np.array_equal(np.asarray(u.masses), np.asarray(u.masses)[::-1])

    def test_mass_is_conserved(self):
        for mech in (
            Gaussian(0.8),
            Laplace(1.3),
            TruncatedLaplace.from_privacy(PrivacyParams(0.5, 1e-4), 1.0),
        ):
            d = discretize(mech, 1.0, step=0.05)
            assert np.asarray(d.masses).sum() == pytest.approx(1.0, abs=1e-12)

    def test_tail_folding_lands_in_edge_cells(self):
        g = Gaussian(1.0)
        d = discretize(g, 1.0, step=0.1)
        edge = d.masses.size // 2 * 0.1
        # each edge cell holds its own slice plus the entire folded tail
        expected = float(g.cdf(0.1 - edge))
        masses = np.asarray(d.masses)
        assert masses[0] == pytest.approx(expected, rel=1e-12)
        assert masses[-1] == pytest.approx(expected, rel=1e-12)
        # and the grid records the folded tails
        assert d.fold == pytest.approx(2.0 * float(g.cdf(-edge)), rel=1e-12)

    def test_bounded_support_folds_nothing(self):
        p = PrivacyParams(1.0, 1e-5)
        trunclap = discretize(TruncatedLaplace.from_privacy(p, 1.0), 1.0, step=0.01)
        uniform = discretize(BoundedUniform.from_privacy(p, 1.0), 1.0, step=0.1)
        assert trunclap.fold == uniform.fold == 0.0

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

    @pytest.mark.parametrize(
        "mech", [BoundedUniform(1e-20), TruncatedLaplace(1.0, 1e-16, 0.5e16)],
        ids=["uniform", "trunclap"],
    )
    def test_support_inside_one_cell_gets_one_cell_a_side(self, mech):
        # ceil(radius/step - 1e-12) was 0 cells a side, which the gates
        # refused as carrying no probability
        d = discretize(mech, 1.0, step=1e-3)
        assert np.asarray(d.masses).tolist() == [0.5, 0.5]
        assert d._run == (0, 1) and d._fast_ok and d._mass == 1.0 and d.fold == 0.0
        hand = make_dist([0.5], step=1e-3, shift_cells=1000, mass_error=d.mass_error)
        for params in (PrivacyParams(1.0, 1e-3), PrivacyParams(0.1, 0.4)):
            report = dp_check(d, params)
            # every shift of two or more cells moves all the mass off the grid
            assert report.max_violation == 1.0 and not report.passed
            assert report.cells == 2 and report.path == "fast"
            assert report == dp_check(hand, params)

    def test_noise_too_narrow_is_refused_naming_it(self):
        # the refusal named mass_error, a field the caller never set
        with pytest.raises(
            DomainError,
            match=r"^the noise is too narrow to discretize: Laplace\(scale=1e-300\) at "
            r"step 0\.001 states cell masses within a relative error of 1\.48e\+284, "
            r"not below 0\.25$",
        ):
            discretize(Laplace(1e-300), 1.0)

    def test_rejects_bad_mass_error_and_fold(self):
        for bad in (-1e-16, 0.25, math.nan):
            with pytest.raises(DomainError):
                make_dist([0.5], mass_error=bad)
        for bad in (-1e-16, math.inf, math.nan):
            with pytest.raises(DomainError):
                make_dist([0.5], fold=bad)


def test_dp_check_refuses_wrong_argument_types():
    # these escaped as AttributeError (_fast_ok, then epsilon)
    grid, params = make_dist([0.4, 0.2, 0.1]), PrivacyParams(1.0, 1e-5)
    message = "^dp_check takes a DiscretizedDist and a PrivacyParams, got "
    with pytest.raises(DomainError, match=message + "str and PrivacyParams$"):
        dp_check("x", params)
    with pytest.raises(DomainError, match=message + "DiscretizedDist and tuple$"):
        dp_check(grid, (1, 1e-5))


@pytest.mark.parametrize("bad", NOT_REAL)
@pytest.mark.parametrize("name", ["mass_error", "fold"])
def test_mass_error_and_fold_must_be_real_numbers(name, bad):
    # float() took "0.1" and True, and raised OverflowError for 10**400
    with pytest.raises(DomainError, match=f"^{name} must be a real number"):
        make_dist([0.5], **{name: bad})


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
        assert report.worst_shift == pytest.approx(1.0, rel=1e-12)

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
        assert 1 <= j <= d.shift_cells
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
        masses = np.asarray(d.masses)
        assert np.array_equal(masses, masses[::-1])
        assert dp_check(d, p).path == "fast"

    def test_tie_gap_is_covered_by_the_straddle(self):
        # A geometric grid whose cell-to-cell ratio is a hair steeper than
        # e^-eps per sensitivity: at the full shift every interior cell
        # violates by ~1e-10 relative, but the suffix search counts them as
        # ties, so the fast path's max_violation is ~3.6e-18 against a
        # whole-cell violation of ~2.5e-10.  Only the gap term of the
        # straddle covers the difference.
        H = 4000
        ratio = (math.e * (1.0 + 5e-10)) ** (-1.0 / 100)
        masses = mirror(ratio ** np.arange(H))
        masses /= masses.sum()
        dist = DiscretizedDist(step=0.01, masses=masses, shift_cells=100)
        report = dp_check(dist, PrivacyParams(1.0, 1e-6))
        brute = max(brute_violation(masses, math.e, j) for j in range(1, 101))
        assert report.path == "fast"
        assert report.max_violation < 1e-15 < 1e-10 < brute
        assert report.max_violation <= brute <= report.max_violation + report.tolerance

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
        trunclap = np.asarray(discretize(
            TruncatedLaplace.from_privacy(PrivacyParams(0.01, 1e-4), 1.0), 1.0, step=1e-3
        ).masses)
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
        # right halves whose mirror, the left half the gate pass reads,
        # spans more than two blocks
        H = 2 * _BLOCK + 333
        x = (np.arange(H) + 0.5) * (4.0 / H)
        bell = np.exp(-x * x)
        deep = np.exp(-((5.5 * x) ** 2))  # tails far below 1e-150: log test
        assert deep.min() < 1e-150
        cases = [bell, deep]
        for base in (bell, deep):
            # a dip in left-half cell `cell` breaks log-concavity at the last
            # middle cell of the first block, at the first middle cell of the
            # second, mid-block, or at the centre pair, whose triple reads
            # the stated right half
            for cell in (_BLOCK, _BLOCK + 1, _BLOCK + 2, 2 * _BLOCK - 5, H - 1):
                dipped = base.copy()
                dipped[H - 1 - cell] *= 0.99
                cases.append(dipped)
        holed = bell.copy()
        holed[H - 1 - 2 * _BLOCK] = 0.0
        cases.append(holed)
        flags = []
        for half in cases:
            d = make_dist(half, shift_cells=10)
            masses = np.asarray(d.masses)
            assert masses.tobytes() == mirror(half).tobytes()
            assert d._fast_ok == brute_fast_ok(masses)
            assert np.float64(d._mass).tobytes() == np.float64(block_order_mass(masses)).tobytes()
            flags.append(d._fast_ok)
        assert flags[:2] == [True, True] and not any(flags[2:])

    @staticmethod
    def _zero_led(s, edit=None, deep=False):
        """The right half of a bell whose left half starts with s zero cells,
        with the change ``edit`` makes in left-half cell s + 2, s + 1 or s."""
        x = (np.arange(_BLOCK + 45) + 0.5) * (4.0 / (_BLOCK + 45))
        bell = np.exp(-((5.5 * x) ** 2 if deep else x * x))
        half = np.concatenate([bell, np.zeros(s)])
        H = half.size
        if edit == "dip":  # breaks the first triple, centred on s + 2
            half[H - 1 - (s + 2)] *= 0.99
        elif edit == "hole":  # the cell after s, which the first triple reads
            half[H - 1 - (s + 1)] = 0.0
        elif edit == "fold":  # folded tail mass in edge cell s, no triple's centre
            half[H - 1 - s] *= 5.0
        return half

    @pytest.mark.parametrize(
        "s",
        [0, 1, _BLOCK - 3, _BLOCK - 2, _BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2 * _BLOCK + 7,
         3 * _BLOCK - 1, 3 * _BLOCK],
    )
    @pytest.mark.parametrize("edit", [None, "fold", "dip", "hole"])
    @pytest.mark.parametrize("deep", [False, True], ids=["products", "logs"])
    def test_leading_zeros_match_reference(self, s, edit, deep):
        # zeros fill 0 to 3 whole blocks before the run starts at s; at
        # s = _BLOCK - 2 and _BLOCK - 1 the first triple centre s + 2 lies
        # in the block after s's, and `deep` takes the log test
        d = make_dist(self._zero_led(s, edit, deep), shift_cells=10)
        masses = np.asarray(d.masses)
        assert (masses.min(initial=1.0, where=masses > 0.0) < 1e-150) == deep
        assert d._run == (s, masses.size - 1 - s)
        assert d._fast_ok == brute_fast_ok(masses) == (edit in (None, "fold"))
        assert np.float64(d._mass).tobytes() == np.float64(block_order_mass(masses)).tobytes()

    @pytest.mark.parametrize(
        "run, left, message",
        [
            (True, {3: math.nan}, "be finite and non-negative"),  # in a block of zeros
            (True, {_BLOCK + 9: -1.0}, "be finite and non-negative"),  # s's block, before s
            (True, {_BLOCK + 12: math.inf}, "be finite and non-negative"),  # at s
            (True, {_BLOCK + 100: math.nan}, "be finite and non-negative"),  # after s
            (False, {}, "carry some probability"),
            (False, {2 * _BLOCK + 2: -1.0}, "be finite and non-negative"),
        ],
    )
    def test_refusal_text_around_the_first_positive_cell(self, run, left, message):
        # a left half of 2 * _BLOCK + 3 cells, whose run starts at s =
        # _BLOCK + 12 or which is all 0
        H = 2 * _BLOCK + 3
        mirrored = np.zeros(2 * H)
        if run:
            mirrored[_BLOCK + 12 : 2 * H - _BLOCK - 12] = 1.0 / (2 * H - 2 * _BLOCK - 24)
        for cell, value in left.items():
            mirrored[cell] = mirrored[2 * H - 1 - cell] = value
        with pytest.raises(DomainError, match=f"^masses must {message}$"):
            DiscretizedDist(step=0.1, masses=mirrored, shift_cells=2)


class TestDirectPath:
    """dp_check's direct path, on symmetric grids that are not log-concave,
    against the plain scan of both directions and the full-array tolerance:
    it scans the shifts 1..shift_cells only."""

    @staticmethod
    def _random():
        return make_dist(np.random.default_rng(8).random(_BLOCK + 77), shift_cells=7)

    @staticmethod
    def _peaked():
        # its left half rises up to cell _BLOCK and falls after, so for
        # shift +1 the sign of d flips exactly at a block boundary
        half = TestBlockedKernels._peaked_at_boundary(np.random.default_rng(6))[::-1]
        return make_dist(half, step=0.01, shift_cells=1)

    @pytest.mark.parametrize(
        "make, eps, delta",
        [(bimodal_dist, 0.5, 1e-3), (_random, 0.3, 0.1), (_peaked, 1e-9, 0.1)],
        ids=["bimodal", "random", "flip_at_block"],
    )
    def test_matches_both_direction_references(self, make, eps, delta):
        d = make()
        assert not d._fast_ok
        report = dp_check(d, PrivacyParams(eps, delta))
        assert report.path == "direct"
        c = math.exp(eps)
        m = d.shift_cells
        both = [brute_violation(d.masses, c, j) for j in range(-m, m + 1)]
        assert report.max_violation == pytest.approx(max(both), rel=1e-12)
        j = round(report.worst_shift / d.step)
        assert 1 <= j <= m
        assert both[m + j] == pytest.approx(max(both), rel=1e-12)
        assert both[m - j] == pytest.approx(max(both), rel=1e-12)
        parts = d._by_c[c][2]
        check_tolerance_parts(d, c, j, parts, fast=False)
        # shift -j has the terms of +j in reverse order, so the same tolerance
        flat, straddle, _ = brute_tolerance(np.asarray(d.masses), c, -j, _flat_band(d))
        assert parts[:2] == pytest.approx((flat, straddle), rel=1e-12, abs=0.0)

    def test_flip_at_block_boundary_is_counted(self):
        d = self._peaked()
        c = math.exp(1e-9)
        dp_check(d, PrivacyParams(1e-9, 0.1))
        masses = np.asarray(d.masses)
        diff = masses[:-1] - c * masses[1:]
        assert np.all(diff[:_BLOCK] < 0.0) and diff[_BLOCK] > 0.0
        flip = min(-diff[_BLOCK - 1], diff[_BLOCK])
        assert flip > 1e-7
        assert d._by_c[c][2][1] >= flip


def _outcome(dist, params):
    """dp_check's report, or the message of the DomainError it raises."""
    try:
        return dp_check(dist, params)
    except DomainError as exc:
        return str(exc)


class _StatedHalf(Laplace):
    """Laplace noise whose stated positive half has cells overwritten."""

    def __init__(self, edits):
        super().__init__(1.0)
        self.edits = edits

    def _grid_masses(self, step, half_cells):
        half = super()._grid_masses(step, half_cells)(0, np.empty(half_cells))
        for key, value in self.edits:
            half[key] = value
        return verifier._array_cells(half)


# (eps, delta, step); the uniform grid has 1/(delta*step) cells, so it skips
# the last point, whose trunclap grid spans a dozen gate blocks
_MIRROR_POINTS = [(1.0, 1e-3, 1e-2), (0.5, 1e-2, 1e-3), (2.0, 0.05, 0.05), (0.05, 1e-6, 1e-3)]


def stated_dist(mech, step, half_cells):
    """A grid of ``half_cells`` a side built by hand from the positive half
    the mechanism states, at sensitivity 1."""
    half = mech._grid_masses(step, half_cells)(0, np.empty(half_cells))
    return make_dist(half, step=step, shift_cells=round(1.0 / step))


class TestMirrorFromTheRightHalf:
    """discretize's grids, and hand-built grids of a mechanism's stated
    positive half at other extents, whose left half the gate pass writes as
    the mirror of that half, against the full grid the mechanisms used to
    build and a hand-built grid of its right half: masses, gate facts and
    reports bit for bit."""

    @staticmethod
    def _check_against_reference(d, mech, eps, delta):
        ref = brute_grid_masses(mech, d.step, d.masses.size // 2)
        assert np.asarray(d.masses).tobytes() == ref.tobytes()
        stated = ref.copy()
        stated[: ref.size // 2] = math.nan  # overwritten by the mirror
        hand = DiscretizedDist(
            step=d.step, masses=stated, shift_cells=d.shift_cells,
            mass_error=d.mass_error, fold=d.fold,
        )
        assert np.asarray(hand.masses).tobytes() == ref.tobytes()
        positive = np.flatnonzero(ref > 0.0)
        assert d._run == hand._run == (positive[0], positive[-1])
        assert d._fast_ok == hand._fast_ok == brute_fast_ok(ref)
        assert np.float64(d._mass).tobytes() == np.float64(hand._mass).tobytes()
        assert d._mass == pytest.approx(ref.sum(), rel=1e-13)
        for params in (PrivacyParams(eps, delta), PrivacyParams(eps, delta / 2.0)):
            assert _outcome(d, params) == _outcome(hand, params)
        assert d._by_c == hand._by_c
        return d

    @pytest.mark.parametrize(
        "name, eps, delta, step",
        [
            (name, *point)
            for name in MECHANISM_NAMES
            for point in _MIRROR_POINTS
            if name != "uniform" or point[1] * point[2] >= 1e-6
        ],
    )
    def test_every_mechanism(self, name, eps, delta, step):
        mech = make_mechanism(name, PrivacyParams(eps, delta), 1.0)
        d = self._check_against_reference(discretize(mech, 1.0, step=step), mech, eps, delta)
        # the unbounded grids end in a cell that holds the folded tail
        assert (d.fold > 0.0) == name.startswith(("gaussian", "laplace"))

    @pytest.mark.parametrize("cut", [0.5, 0.9, 1.5])
    def test_trunclap_radius_cut(self, cut):
        # inside the support the outer cell holds the rest; beyond it the
        # outer cells are 0 and the run ends inside the grid
        mech = TruncatedLaplace.from_privacy(PrivacyParams(1.0, 1e-5), 1.0)
        half_cells = math.ceil(cut * mech.radius / 1e-3 - 1e-12)
        d = self._check_against_reference(stated_dist(mech, 1e-3, half_cells), mech, 1.0, 1e-5)
        assert (d._run[1] < d.masses.size - 1) == (cut > 1.0)

    def test_half_a_whole_number_of_blocks(self):
        # 2 * _BLOCK cells a side, and Laplace masses that underflow to 0
        # long before the edge
        mech = Laplace(1.3)
        d = self._check_against_reference(stated_dist(mech, 1 / 64, 2 * _BLOCK), mech, 1.0, 1e-3)
        assert d.masses.size == 4 * _BLOCK and d._run[1] < d.masses.size - 1

    def test_no_grid_is_compared_with_its_mirror(self, monkeypatch):
        calls = []
        array_equal = np.array_equal

        def counted(*args, **kwargs):
            calls.append(None)
            return array_equal(*args, **kwargs)

        monkeypatch.setattr(np, "array_equal", counted)
        p = PrivacyParams(0.5, 1e-2)
        for name in MECHANISM_NAMES:
            d = discretize(make_mechanism(name, p, 1.0), 1.0, step=1e-3)
            assert dp_check(d, p).path == "fast"
        assert make_dist([0.4, 0.2, 0.1])._fast_ok
        assert dp_check(bimodal_dist(), p).path == "direct"
        assert calls == []

    @pytest.mark.parametrize(
        "edits",
        [
            [(0, math.nan)],
            [(17, -0.25)],
            [(-1, -1e-300)],
            [(-1, math.inf)],
            [(slice(None), 0.0)],
            [(slice(None), 0.0), (-1, math.nan)],
            [(slice(None), 0.0), (3, -1.0)],
        ],
    )
    def test_a_bad_stated_half_keeps_its_message(self, edits):
        mech = _StatedHalf(edits)
        half_cells = discretize(Laplace(1.0), 1.0, step=0.1).masses.size // 2
        half = mech._grid_masses(0.1, half_cells)(0, np.empty(half_cells))
        with pytest.raises(DomainError) as by_hand:
            make_dist(half, step=0.1, shift_cells=10)
        with pytest.raises(DomainError) as stated:
            discretize(mech, 1.0, step=0.1)
        assert str(stated.value) == str(by_hand.value)
        assert str(stated.value) in (
            "masses must be finite and non-negative",
            "masses must carry some probability",
        )


@st.composite
def log_concave(draw):
    """A symmetric grid whose masses rise log-concavely to the centre pair
    and fall back; the edge cells may carry folded tail mass, and the
    support may sit inside zero cells."""
    n = draw(st.integers(1, 40))
    rises = sorted(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    half = np.exp(np.cumsum(rises[::-1]))[::-1]
    half[-1] *= draw(st.floats(1.0, 5.0))
    masses = mirror(np.concatenate([half, np.zeros(draw(st.integers(0, 3)))]))
    return masses / masses.sum()


# the symmetric grid of any right half
SYMMETRIC_MASSES = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40).filter(
    lambda p: max(p) > 0.0
).map(mirror)


class TestFastPathReference:
    """dp_check against the whole-grid, uncached reference, report for report
    and bit for bit, over a sequence of checks that hits the cache."""

    @staticmethod
    def _check_against_reference(masses, step, shift_cells, eps, delta, **grid):
        d = DiscretizedDist(step=step, masses=masses, shift_cells=shift_cells, **grid)
        assert np.asarray(d.masses).tobytes() == masses.tobytes()
        assert d._fast_ok == brute_fast_ok(masses)
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
            got, got_j, parts = d._by_c[c]
            assert 1 <= got_j <= shift_cells
            if fast:
                assert (got, got_j) == (worst, worst_j)
            else:
                # the plain scan of both directions sums in another order
                assert got == pytest.approx(worst, rel=1e-12)
                assert brute_violation(masses, c, got_j) == pytest.approx(
                    worst, rel=1e-12
                )
                worst = got
            check_tolerance_parts(d, c, got_j, parts, fast)
            tolerance = sum(parts)
            passed = worst <= params.delta + tolerance
            if report is None:
                assert passed and tolerance > params.delta / 2.0
                paths.add("fast" if d._fast_ok else "direct")
                continue
            assert report.max_violation == worst
            assert report.worst_shift == got_j * step
            assert report.path == ("fast" if fast else "direct")
            assert report.tolerance == tolerance
            assert report.passed == passed
            assert not passed or tolerance <= params.delta / 2.0
            paths.add(report.path)
        return paths

    @settings(max_examples=150, deadline=None)
    @given(
        masses=log_concave(),
        shift=st.integers(1, 50),
        eps=st.floats(0.01, 3.0),
        delta=st.floats(1e-9, 0.49),
    )
    @example(masses=mirror([0.3, 0.2]), shift=1, eps=0.5, delta=0.1)
    @example(masses=mirror([0.3, 0.2, 0.0]), shift=4, eps=1.0, delta=0.01)
    @example(masses=mirror([0.5]), shift=2, eps=1.0, delta=0.01)
    def test_mirrored_log_concave_grids(self, masses, shift, eps, delta):
        paths = self._check_against_reference(masses, 0.1, shift, eps, delta)
        assert paths == {"fast"}

    @settings(max_examples=200, deadline=None)
    @given(
        masses=st.one_of(log_concave(), SYMMETRIC_MASSES),
        shift=st.integers(1, 50),
        eps=st.floats(0.01, 3.0),
        delta=st.floats(1e-9, 0.49),
    )
    # grids whose only log-concavity breach is at the centre pair
    @example(masses=mirror([0.1, 0.3, 0.1]), shift=2, eps=0.5, delta=0.1)
    @example(masses=mirror([0.25, 0.3, 0.2, 0.1]), shift=2, eps=0.5, delta=0.1)
    def test_other_grids(self, masses, shift, eps, delta):
        paths = self._check_against_reference(masses, 0.1, shift, eps, delta)
        assert paths == {"fast" if brute_fast_ok(masses) else "direct"}

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
            np.asarray(d.masses), d.step, d.shift_cells, eps, delta,
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


def probe_outcome(dist, c):
    """For each shift 1..shift_cells of a fast-path grid: whether the
    searched predicate fails at the top of its range (so the probe settles
    it), and the first cell of its range where the predicate holds, found
    by a plain scan (the range's end if none)."""
    m = np.asarray(dist.masses)
    K = m.size
    s, e = dist._run
    strict = 1.0 + max(1e-9, 4.0 * _width_jitter(K))
    settled, boundary = [], []
    for j in range(1, dist.shift_cells + 1):
        i = np.arange(s + 1, max(e - j, s + 1))
        pred = m[i] > c * m[np.minimum(i + j, K - 1)] * strict
        settled.append(not (pred.size and pred[-1]))
        boundary.append(int(i[np.argmax(pred)]) if pred.any() else s + 1 + i.size)
    return np.array(settled), np.array(boundary)


class TestFastPathProbe:
    """The fast path probes each shift's search range at its top before the
    binary search.  Against the reference search, bit for bit, on grids
    where the probe settles every shift and on grids where it leaves most
    to the search."""

    @staticmethod
    def _check_against_reference(d, eps):
        c = _exp_epsilon(eps)
        s, e = d._run
        violations, _, lead, _ = verifier._fast_forward_violations(d, c)
        masses = np.asarray(d.masses)
        ref = brute_fast_forward_violations(
            masses, brute_suffix(masses), s, e, c, d.shift_cells
        )
        assert violations.tobytes() == ref.tobytes()
        settled, boundary = probe_outcome(d, c)
        j = np.arange(1, d.shift_cells + 1)
        dom_hi = np.maximum(e - j, s + 1)
        assert np.array_equal(lead, np.clip(boundary - 2, s + 1, dom_hi))
        return settled, boundary, dom_hi

    @pytest.mark.parametrize("name", ["trunclap", "laplace"])
    @pytest.mark.parametrize("eps", [0.1, 1.0, 5.0])
    def test_geometric_grids_are_settled_by_the_probe(self, name, eps):
        p = PrivacyParams(eps, 1e-5)
        d = discretize(make_mechanism(name, p, 1.0), 1.0, step=1e-2)
        settled, _, _ = self._check_against_reference(d, eps)
        assert settled.all()

    @pytest.mark.parametrize("eps", [0.1, 1.0, 5.0])
    def test_gaussian_grids_leave_shifts_to_the_search(self, eps):
        p = PrivacyParams(eps, 1e-5)
        d = discretize(make_mechanism("gaussian-analytic", p, 1.0), 1.0, step=1e-2)
        settled, _, _ = self._check_against_reference(d, eps)
        assert not settled.all()

    def test_interior_crossing(self):
        # a bell with no folded tail: for most shifts the ratio crosses e^eps
        # strictly inside the searched range
        x = 0.025 + 0.05 * np.arange(200)
        half = np.exp(-0.5 * x * x)
        d = make_dist(half / (2.0 * half.sum()), step=0.05, shift_cells=20)
        assert d._fast_ok
        settled, boundary, dom_hi = self._check_against_reference(d, 1.0)
        inside = (boundary > d._run[0] + 1) & (boundary < dom_hi)
        assert settled.sum() < 5 and inside.sum() > 15

    @pytest.mark.parametrize(
        "mech",
        [
            TruncatedLaplace.from_privacy(PrivacyParams(0.01, 1e-6), 1.0),
            TruncatedLaplace.from_privacy(PrivacyParams(1.0, 1e-3), 1.0),
            Laplace(0.7),
        ],
        ids=["wide", "cut", "laplace"],
    )
    @pytest.mark.parametrize("half", [10, 4096, 3 * 4096 + 17])
    def test_grid_masses_into_strided_and_reversed_out(self, mech, half):
        # the whole rows of the fill are a reshaped view of ``out``; a
        # strided or reversed ``out`` must receive the same bits
        cells = mech._grid_masses(1e-3, half)
        contiguous = cells(0, np.empty(half))
        strided = np.full(2 * half, math.nan)[::2]
        reversed_ = np.full(half, math.nan)[::-1]
        assert cells(0, strided) is strided
        assert cells(0, reversed_) is reversed_
        assert strided.tobytes() == contiguous.tobytes()
        assert reversed_.tobytes() == contiguous.tobytes()

    @given(
        lo=st.integers(0, 50),
        width=st.integers(0, 5000),
        at=st.integers(-5, 5010),
        guesses=st.lists(st.integers(-10, 5100), max_size=3),
        guessed=st.booleans(),
    )
    def test_straddle_search_is_the_plain_binary_search(self, lo, width, at, guesses, guessed):
        # the straddle's search reads several candidate paths per gather,
        # but ends where the one-cell-at-a-time binary search ends, and in
        # one gather when that is lo, hi or a guess
        hi = lo + width
        guesses = tuple(guesses) + ((lo + at,) if guessed else ())
        gathers = []

        def holds(i):
            gathers.append(i.size)
            return i >= lo + at

        a, b = lo, hi
        while a < b:
            mid = (a + b) // 2
            a, b = (a, mid) if mid >= lo + at else (mid + 1, b)
        assert verifier._bisect(lo, hi, holds, guesses) == a
        if a in (lo, hi, *guesses):
            assert len(gathers) <= 1


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
        exact = float(mech._upper_mass(mech.radius - 1.0, mech.radius))
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
        # the cells' masses are in closed form: the half-line mass is read
        # for the folded tail beyond the grid, never for a cell
        upper_mass = type(mech)._upper_mass

        def tail_only(self, a, b):
            if np.any(np.asarray(b) < math.inf):
                raise AssertionError("interval mass called")
            return upper_mass(self, a, b)

        monkeypatch.setattr(type(mech), "_upper_mass", tail_only)
        d = discretize(mech, 1.0, step=1e-3)
        assert np.asarray(d.masses).sum() == pytest.approx(1.0, abs=1e-14)
        assert d._fast_ok

    def test_traced_peak_per_cell(self):
        # The grid's cells are read from the mechanism a block at a time and
        # never stored whole, and the fast path sums only the tail it reads,
        # so discretize and an accept/reject pair peak at the same few MB
        # on 1.2M cells as on 78.6M (629 MB as one float array).
        for eps, delta, cells in [(0.01, 1e-5, 1_244_322), (1e-4, 1e-6, 78_637_494)]:
            p = PrivacyParams(eps, delta)
            mech = TruncatedLaplace.from_privacy(p, 1.0)
            tracemalloc.start()
            try:
                d = discretize(mech, 1.0, step=1e-3)
                accept = dp_check(d, p)
                reject = dp_check(d, PrivacyParams(eps, delta / 2.0))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert d.masses.size == cells
            assert accept.passed and not reject.passed
            assert accept.path == "fast" and accept.cells == cells
            assert peak <= 3e6


class TestStreamedGrid:
    """A grid cut by discretize holds its mechanism's cells, not an array of
    them: what ``masses`` still offers, and where its reads could drift."""

    @staticmethod
    def _grid():
        mech = TruncatedLaplace.from_privacy(PrivacyParams(0.01, 1e-5), 1.0)
        return discretize(mech, 1.0, step=1e-3), mech

    def test_size_and_len_allocate_nothing(self):
        d, _ = self._grid()
        tracemalloc.start()
        try:
            size, n = d.masses.size, len(d.masses)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size == n == 1_244_322
        assert peak < 1024  # an int object at most, not a cell

    def test_asarray_is_the_mirrored_grid(self):
        d, mech = self._grid()
        full = np.asarray(d.masses)
        ref = brute_grid_masses(mech, d.step, d.masses.size // 2)
        assert full.tobytes() == ref.tobytes()
        assert np.array_equal(full, full[::-1])
        assert np.asarray(d.masses, dtype=float).tobytes() == ref.tobytes()
        with pytest.raises(ValueError):
            np.asarray(d.masses, copy=False)

    def test_masses_cannot_be_written(self):
        d, _ = self._grid()
        with pytest.raises(ValueError):
            d.masses[0] = 1.0
        full = np.asarray(d.masses)
        full[:] = 0.0  # a copy: the grid reads its mechanism
        assert np.asarray(d.masses).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "name, attr", [("gaussian-analytic", "sigma"), ("uniform", "half_width")]
    )
    def test_the_mechanism_is_read_as_it_was_cut(self, name, attr):
        # the default hook reads the mechanism's parameters: a grid reads
        # them as they were when it was cut, whatever is set on it later
        p = PrivacyParams(1.0, 1e-3)
        mech, twin = make_mechanism(name, p, 1.0), make_mechanism(name, p, 1.0)
        d = discretize(mech, 1.0, step=1e-2)
        before = np.asarray(d.masses).tobytes()
        first = dp_check(d, p)
        setattr(mech, attr, 5.0 * getattr(mech, attr))
        assert np.asarray(d.masses).tobytes() == before
        ref = discretize(twin, 1.0, step=1e-2)
        assert dp_check(d, p) == first == dp_check(ref, p)
        # a new epsilon runs the fast path again, on the cells as cut
        later = PrivacyParams(0.9, 1e-3)
        assert _outcome(d, later) == _outcome(ref, later)
        assert d._by_c == ref._by_c

    def test_a_dented_mechanism_takes_the_direct_path(self):
        # a stated half with a dip is not log-concave: the direct path lays
        # the grid out whole and reports what its hand-built twin reports
        mech = _StatedHalf([(17, 1e-3)])
        d = discretize(mech, 1.0, step=0.1)
        half_cells = d.masses.size // 2
        half = mech._grid_masses(0.1, half_cells)(0, np.empty(half_cells))
        hand = make_dist(half, step=0.1, shift_cells=10, mass_error=d.mass_error, fold=d.fold)
        assert not d._fast_ok and not hand._fast_ok
        assert d._run == hand._run
        assert np.float64(d._mass).tobytes() == np.float64(hand._mass).tobytes()
        for params in (PrivacyParams(1.0, 1e-3), PrivacyParams(0.3, 0.1)):
            report = _outcome(d, params)
            assert report == _outcome(hand, params) and report.path == "direct"
        assert d._by_c == hand._by_c

    @pytest.mark.parametrize(
        "mech, step, eps, delta",
        [
            # its binary search reads cells in 46 of the 67 blocks of its
            # positive half
            (Gaussian(analytic_gaussian_sigma(PrivacyParams(0.01, 1e-6), 1.0)), 1e-3, 0.01, 1e-6),
            # 108,703 cells a side: neither whole rows of the closed form
            # nor whole gate blocks
            (TruncatedLaplace.from_privacy(PrivacyParams(0.1, 1e-6), 1.0), 1e-3, 0.1, 1e-6),
            # cells fall below 1e-150 inside the run: the log-concavity test
            # compares logs, over two gate blocks
            (Laplace(1e-3), 1e-5, 5.0, 1e-3),
        ],
        ids=["gaussian", "trunclap", "log_fallback"],
    )
    def test_reads_match_the_whole_grid(self, mech, step, eps, delta):
        d = discretize(mech, 1.0, step=step)
        H = d.masses.size // 2
        s, e = d._run
        if isinstance(mech, Gaussian):
            assert H > 60 * _BLOCK
        elif isinstance(mech, Laplace):
            assert H > _BLOCK and float(np.asarray(d.masses)[s + 1 : e].min()) < 1e-150
        else:
            assert H % 4096 and H % _BLOCK and H > 3 * _BLOCK
        assert d._fast_ok
        TestMirrorFromTheRightHalf._check_against_reference(d, mech, eps, delta)


class TestTooWideToDiscretize:
    @pytest.mark.parametrize("mech", [Laplace(1e307), Gaussian(1e308)], ids=["laplace", "gaussian"])
    def test_refused_naming_the_reach(self, mech):
        # the 1 - 1e-12 quantile overflowed with a numpy RuntimeWarning, and
        # the refusal named a radius parameter discretize does not take
        with pytest.raises(
            DomainError,
            match=r"^the noise is too wide to discretize: a grid of step 0\.1 would reach inf$",
        ):
            discretize(mech, 1.0, step=0.1)
