import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from dpnoise import baselines
from dpnoise.baselines import (
    BoundedUniform,
    Gaussian,
    Laplace,
    analytic_gaussian_sigma,
)
from dpnoise.core import (
    ConvergenceError,
    CostKind,
    DomainError,
    NoiseMechanism,
    PrivacyParams,
)
from dpnoise.verifier import discretize


def brute_profiles(sigmas, epsilons, sens):
    """The scalar privacy profile at each (sigma, epsilon), in math's exp and
    expm1.  The log terms come from the kernel's own primitive,
    ``baselines._log_ndtr``, in one array call; it works element by element
    (``TestNormalKernels`` checks that bit for bit).  A sigma the profile
    refuses gives its DomainError in place of a value."""
    sigmas = [float(s) for s in sigmas]
    ok = [math.isfinite(s) and s > 0.0 for s in sigmas]
    a, b = [], []
    for sigma, eps, good in zip(sigmas, epsilons, ok):
        sigma = sigma if good else 1.0  # refused below
        a.append(sens / (2.0 * sigma) - eps * sigma / sens)
        b.append(-sens / (2.0 * sigma) - eps * sigma / sens)
    values = []
    for sigma, eps, good, log_hi, log_b in zip(
        sigmas, epsilons, ok,
        baselines._log_ndtr(a).tolist(), baselines._log_ndtr(b).tolist(),
    ):
        if not good:
            values.append(DomainError(f"sigma must be finite and > 0, got {sigma!r}"))
            continue
        log_lo = eps + log_b
        if log_lo >= log_hi:
            values.append(0.0)
        else:
            values.append(-math.exp(log_hi) * math.expm1(log_lo - log_hi))
    return values


def brute_profile(sigma, params, sens):
    """:func:`brute_profiles` at one point; raises what it refuses."""
    [value] = brute_profiles([sigma], [params.epsilon], sens)
    if isinstance(value, Exception):
        raise value
    return value


def exact_profile(sigma, params, sens):
    """The privacy profile in double precision, the one the bisection
    decides feasibility with: the smallest delta for which Gaussian noise
    of this sigma is (epsilon, delta)-private at this sensitivity."""
    with np.errstate(all="ignore"):
        log_terms = baselines._log_terms(np.float64(sigma), params.epsilon, sens)
        return baselines._exact_profile(*log_terms)[0]


def brute_bisection(params, sens):
    """The one-point bisection that analytic_gaussian_sigma ran before it
    became a lockstep kernel over arrays, kept verbatim as the reference,
    except that it yields each sigma whose excess over delta it needs and is
    sent that excess back (by :func:`brute_outcomes`)."""
    lo = sens * 1e-6 / params.epsilon
    hi = sens / params.epsilon
    doublings = 0
    while (yield hi) > 0.0:
        hi *= 2.0
        doublings += 1
        if doublings > 200:
            raise ConvergenceError(
                "could not bracket the Gaussian calibration from above"
            )
    shrinks = 0
    while (yield lo) <= 0.0:
        hi = lo
        lo *= 0.5
        shrinks += 1
        if shrinks > 200:
            raise ConvergenceError(
                "could not bracket the Gaussian calibration from below"
            )
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if (yield mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def brute_outcomes(points, sens):
    """Each point's reference sigma, or the type and message of what it
    raised.  The points' bisections run side by side, and each round takes
    the profiles they ask for from one call of :func:`brute_profiles`."""
    runs = [brute_bisection(p, sens) for p in points]
    asks = {i: next(run) for i, run in enumerate(runs)}
    outcomes = [None] * len(points)
    while asks:
        idx = list(asks)
        profiles = brute_profiles(
            [asks[i] for i in idx], [points[i].epsilon for i in idx], sens
        )
        for i, profile in zip(idx, profiles):
            try:
                if isinstance(profile, Exception):
                    raise profile
                asks[i] = runs[i].send(profile - points[i].delta)
                continue
            except StopIteration as done:
                outcomes[i] = done.value
            except (ConvergenceError, DomainError) as exc:
                outcomes[i] = (type(exc), str(exc))
            del asks[i]
    return outcomes


def brute_outcome(params, sens):
    """:func:`brute_outcomes` at one point."""
    [outcome] = brute_outcomes([params], sens)
    return outcome


def _frozen_laplace_grid_masses(scale, step, half_cells):
    """Laplace's closed-form grid masses as its own formula gave them,
    before Laplace became the truncated Laplacian with an infinite radius."""
    H = half_cells
    t = step / scale
    masses = np.empty(2 * H)
    pos = masses[H:]
    full = H - 1
    inner = np.exp(-t * np.arange(4096))
    head = 0.5 * -math.expm1(-t)
    for lo in range(0, full, 4096):
        hi = min(lo + 4096, full)
        np.multiply(head * math.exp(-t * lo), inner[: hi - lo], out=pos[lo:hi])
    k = np.arange(full, H)
    width = np.where(k < H - 1, t, math.inf)
    span = np.clip(np.minimum(width, math.inf - k * t), 0.0, None)
    pos[full:] = 0.5 * np.exp(-k * t) * -np.expm1(-span)
    masses[:H] = pos[::-1]
    return masses


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestLaplace:
    @pytest.mark.parametrize("scale", [1.3, 49.0, 1e150])
    def test_matches_its_own_former_formulas(self, scale):
        # bit for bit, with the half-line mass exactly 1/2 rather than
        # height * scale, which is an ulp off at scale 49
        lap = Laplace(scale)
        step, half = scale / 700.0, 5000  # crosses a 4096-cell block edge
        assert _bits(lap._grid_masses(step, half)(0, np.empty(half))) == _bits(
            _frozen_laplace_grid_masses(scale, step, half)[half:]
        )
        u = np.array([2.0**-53, 1e-9, 0.25, 0.5 - 1e-12, 0.5,
                      0.5 + 1e-12, 0.75, 1.0 - 1e-9, 1.0 - 2.0**-53])
        former = -scale * np.sign(u - 0.5) * np.log1p(-2.0 * np.abs(u - 0.5))
        assert _bits(lap.quantile(u)) == _bits(former)
        a = scale * np.array([0.0, 0.0, 1e-9, 0.5, 3.0, 700.0, 30.0])
        b = scale * np.array([0.0, 1.0, 2e-9, 0.75, 3.5, 701.0, math.inf])
        former = 0.5 * np.exp(-a / scale) * -np.expm1(-(b - a) / scale)
        assert _bits(lap._upper_mass(a, b)) == _bits(former)
        assert _bits(lap.expected_amplitude) == _bits(scale)
        assert _bits(lap.expected_power) == _bits(2 * (scale * scale) * 1.0)

    def test_rejects_bad_scale(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                Laplace(bad)

    def test_pdf_cdf_quantile(self):
        lap = Laplace(2.0)
        assert lap.pdf(0.0) == pytest.approx(0.25, rel=1e-15)
        assert lap.cdf(0.0) == pytest.approx(0.5, abs=1e-16)
        assert lap.cdf(2.0) == pytest.approx(1.0 - 0.5 * math.exp(-1.0), rel=1e-15)
        assert lap.quantile(0.5) == 0.0
        u = np.linspace(0.01, 0.99, 21)
        np.testing.assert_allclose(lap.cdf(lap.quantile(u)), u, rtol=1e-13)

    def test_quantile_rejects_endpoints(self):
        # the symmetric-fold form has no finite value at u in {0, 1}
        lap = Laplace(1.0)
        with pytest.raises(DomainError):
            lap.quantile(0.0)
        with pytest.raises(DomainError):
            lap.quantile(1.0)

    def test_moments(self):
        lap = Laplace(3.0)
        assert lap.expected_amplitude == 3.0
        assert lap.expected_power == 18.0
        assert Laplace(1e150).expected_power == pytest.approx(2e300, rel=1e-15)
        with pytest.raises(
            DomainError,
            match=r"^expected power leaves double range at noise scale 1e\+200$",
        ):
            Laplace(1e200).expected_power  # scale**2 overflowed

    def test_interval_mass_bulk_matches_cdf_difference(self):
        lap = Laplace(1.5)
        lo = np.array([0.0, 0.5, 1.0, 2.0])
        hi = np.array([0.5, 3.0, 1.5, 4.0])
        ref = np.asarray(lap.cdf(hi)) - np.asarray(lap.cdf(lo))
        np.testing.assert_allclose(lap._upper_mass(lo, hi), ref, rtol=1e-12)

    def test_interval_mass_deep_tail_exact(self):
        # cdf differencing would return 0 out here; the one-sided form keeps
        # full relative accuracy, and so does the cdf's far left tail
        lap = Laplace(1.0)
        lo, hi = 700.0, 701.0
        exact = 0.5 * math.exp(-lo) * -math.expm1(-(hi - lo))
        # abs=0: approx's default abs=1e-12 would pass any value near 5e-305
        assert lap._upper_mass(lo, hi) == pytest.approx(exact, rel=1e-14, abs=0)
        assert lap.cdf(-lo) == pytest.approx(0.5 * math.exp(-lo), rel=1e-14, abs=0)

    def test_interval_mass_straddling_zero(self):
        # an interval across 0 is the sum of its parts on either half line
        lap = Laplace(2.0)
        assert lap._upper_mass(0.0, 5.0) + lap._upper_mass(0.0, 3.0) == pytest.approx(
            lap.cdf(5.0) - lap.cdf(-3.0), rel=1e-14
        )
        assert 2.0 * lap._upper_mass(0.0, 200.0) == pytest.approx(1.0, rel=1e-15)

    def test_grid_masses_closed_form(self):
        lap, step = Laplace(1.3), 1e-3
        # discretize lays the negative half out as the mirror image
        grid = np.asarray(discretize(lap, 1.0, step=step).masses)
        half = grid.size // 2
        fast = lap._grid_masses(step, half)(0, np.empty(half))
        ref = NoiseMechanism._grid_masses(lap, step, half)(0, np.empty(half))
        assert fast.shape == ref.shape == (half,)
        np.testing.assert_allclose(fast[:-1], ref[:-1], rtol=1e-10, atol=0.0)
        # The outermost cell holds its whole unbounded tail.  The default
        # path folds the tail in as 1 - cdf, which rounds at ulp(1).
        tail = 0.5 * math.exp(-(half - 1) * step / 1.3)
        assert fast[-1] == pytest.approx(tail, rel=1e-14, abs=0)
        assert abs(fast[-1] - ref[-1]) <= 2.0**-52
        assert _bits(grid[half:]) == _bits(fast)
        assert grid[0] == pytest.approx(ref[-1], rel=1e-10)
        assert np.array_equal(grid, grid[::-1])
        assert abs(float(grid.sum()) - 1.0) <= 1e-14
        np.testing.assert_allclose(
            fast[1:-1] / fast[:-2], math.exp(-step / 1.3), rtol=1e-14, atol=0.0
        )

    def test_gaussian_and_uniform_keep_the_default_grid_masses(self):
        for cls in (Gaussian, BoundedUniform):
            assert cls._grid_masses is NoiseMechanism._grid_masses

    def test_factory(self):
        mech = Laplace.from_privacy(PrivacyParams(0.5, 1e-5), 2.0)
        assert isinstance(mech, Laplace)
        assert mech.scale == 4.0
        # pure epsilon-privacy: delta plays no part
        assert Laplace.from_privacy(PrivacyParams(0.5, 0.1), 2.0).scale == 4.0


_TINY = 2.0**-1074  # the spacing of doubles below the smallest normal one


class TestNormalKernels:
    """The Gaussian's numpy kernels for Phi, log Phi and the inverse of Phi,
    against 50-digit mpmath."""

    @pytest.fixture(autouse=True)
    def mp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            yield mpmath

    @staticmethod
    def assert_within(got, ref, rel):
        # relative, and one spacing of the subnormals where ref is below
        # the smallest normal double and no relative bound can hold
        err = np.abs(got - ref)
        assert np.all(err <= rel * np.abs(ref) + _TINY), np.max(err / np.abs(ref))

    def test_log_ndtr_to_the_far_left(self, mp):
        a = -np.concatenate([np.linspace(0.0, 40.0, 801), np.geomspace(1e-300, 1e8, 800)])
        ref = np.array([float(mp.log(mp.ncdf(x))) for x in a.tolist()])
        self.assert_within(baselines._log_ndtr(a), ref, 2e-15)

    def test_log_ndtr_right_of_zero(self, mp):
        # scipy's own log_ndtr is 1.4e-14 off near a = 8.6
        a = np.concatenate([np.linspace(0.0, 38.0, 801)[1:], np.geomspace(1e-300, 38.0, 800)])
        ref = np.array([float(mp.log1p(-mp.ncdf(-x))) for x in a.tolist()])
        self.assert_within(baselines._log_ndtr(a), ref, 2e-14)

    def test_ndtr(self, mp):
        x = -np.concatenate([np.linspace(0.0, 38.0, 801), np.geomspace(1e-300, 38.0, 800)])
        ref = np.array([float(mp.ncdf(v)) for v in x.tolist()])
        self.assert_within(baselines._ndtr(x), ref, 2e-15)

    def test_ndtri(self, mp):
        p = np.concatenate([
            np.geomspace(1e-300, 0.5, 500), 1.0 - np.geomspace(2.0**-53, 0.5, 500),
            np.linspace(0.0, 1.0, 201)[1:-1],
        ])
        got = baselines._ndtri(p)

        def root(u, x):  # Newton on Phi(x) = u from the kernel's value
            x = mp.mpf(x)
            for _ in range(3):
                x -= (mp.ncdf(x) - u) / mp.npdf(x)
            return float(x)

        ref = np.array([root(u, x) for u, x in zip(p.tolist(), got.tolist())])
        self.assert_within(got, ref, 2e-15)

    def test_agrees_with_scipy_where_scipy_is_accurate(self):
        special = pytest.importorskip("scipy.special")
        a = np.linspace(-30.0, 5.0, 3501)
        np.testing.assert_allclose(baselines._log_ndtr(a), special.log_ndtr(a), rtol=1e-14)
        p = np.linspace(0.0, 1.0, 1001)[1:-1]
        np.testing.assert_allclose(baselines._ndtri(p), special.ndtri(p), rtol=1e-14)

    def test_exact_values(self):
        assert baselines._log_ndtr(0.0) == math.log(0.5)
        assert baselines._log_ndtr(-math.inf) == -math.inf
        assert baselines._log_ndtr(math.inf) == 0.0
        assert baselines._ndtr(0.0) == 0.5
        assert baselines._ndtr(-math.inf) == 0.0
        assert baselines._ndtri(0.5) == 0.0
        assert baselines._ndtri(0.0) == -math.inf
        assert baselines._ndtri(1.0) == math.inf

    def test_extremes_are_silent(self):
        # warnings are errors under pytest, and Gaussian._upper_mass calls
        # _ndtr outside any errstate
        big = np.array([math.inf, 1e308, 1e155, 40.0, 5e-324, 0.0])
        for values in (
            baselines._log_ndtr(big), baselines._log_ndtr(-big), baselines._ndtr(-big),
            baselines._ndtri([0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0]),
        ):
            assert not np.isnan(values).any()

    def test_elementwise_bit_for_bit(self):
        # an array call gives each element exactly what a scalar call, or a
        # call on a few elements, does
        rng = np.random.default_rng(21)
        a = np.concatenate([rng.uniform(-40.0, 40.0, 600), -np.geomspace(1e-300, 1e8, 200)])
        for kernel, x in [
            (baselines._log_ndtr, a), (baselines._ndtr, -np.abs(a)),
            (baselines._ndtri, rng.random(800)),
        ]:
            whole = kernel(x)
            single = [float(kernel(v)) for v in x.tolist()]
            assert _bits(whole) == _bits(single)
            assert _bits(whole[:5]) == _bits(kernel(x[:5]))


class TestGaussian:
    def test_rejects_bad_sigma(self):
        for bad in (0.0, -2.0, math.inf):
            with pytest.raises(DomainError):
                Gaussian(bad)

    def test_moments(self):
        g = Gaussian(2.0)
        assert g.expected_amplitude == pytest.approx(
            2.0 * math.sqrt(2.0 / math.pi), rel=1e-15
        )
        assert g.expected_power == 4.0
        with pytest.raises(
            DomainError,
            match=r"^expected power leaves double range at noise scale 1e\+200$",
        ):
            Gaussian(1e200).expected_power  # sigma * sigma overflowed

    @pytest.mark.parametrize("kind", list(CostKind))
    def test_cost_of_an_array_is_the_cost_of_each_sigma(self, kind):
        # the sweep's Gaussian column: each value and the first refusal are
        # those of the sigma on its own
        sigmas = np.array([1e-160, 0.3, 1.0 / 3.0, 2.0, 1e150, 1e200, 5e-324])
        expected = []
        for sigma in sigmas.tolist():
            try:
                expected.append(baselines._gaussian_cost(sigma, kind))
            except DomainError as exc:
                expected.append((type(exc), str(exc)))
        costs = [c for c in expected if isinstance(c, float)]
        refused = [c for c in expected if not isinstance(c, float)]
        good = np.array([not isinstance(c, tuple) for c in expected])
        got = baselines._gaussian_cost(sigmas[good], kind)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == costs
        for k in np.flatnonzero(~good):
            with pytest.raises(DomainError) as info:
                baselines._gaussian_cost(sigmas[k:], kind)
            assert (info.type, str(info.value)) == expected[k]
        assert len(refused) == (3 if kind is CostKind.POWER else 0)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="^sigma must be finite and > 0"):
                baselines._gaussian_cost(np.array([1.0, bad, 1e200]), kind)

    def test_quantile_round_trip(self):
        g = Gaussian(1.3)
        u = np.linspace(0.01, 0.99, 21)
        np.testing.assert_allclose(g.cdf(g.quantile(u)), u, rtol=1e-12)
        with pytest.raises(DomainError):
            g.quantile(1.0)

    def test_pdf_integrates_to_cdf(self):
        g = Gaussian(0.7)
        area, _ = quad(g.pdf, -10.0, 0.35, epsabs=0.0, epsrel=1e-12)
        assert g.cdf(0.35) == pytest.approx(area, rel=1e-11)

    def test_interval_mass_bulk(self):
        g = Gaussian(1.0)
        lo = np.array([0.0, 0.3, 1.0])
        hi = np.array([0.4, 2.2, 2.0])
        ref = ndtr(hi) - ndtr(lo)
        np.testing.assert_allclose(g._upper_mass(lo, hi), ref, rtol=1e-11)

    def test_interval_mass_deep_tail(self):
        # scipy's ndtr(-36) - ndtr(-37) is itself 1.1e-13 off out here
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            exact = float(mpmath.ncdf(-36) - mpmath.ncdf(-37))
        g = Gaussian(1.0)
        # abs=0: approx's default abs=1e-12 would pass any value near 1e-283
        assert g._upper_mass(36.0, 37.0) == pytest.approx(exact, rel=1e-14, abs=0)
        assert g.cdf(-36.0) - g.cdf(-37.0) == pytest.approx(exact, rel=1e-14, abs=0)
        assert g._upper_mass(36.0, 37.0) > 0.0

    def test_interval_mass_total(self):
        g = Gaussian(2.5)
        assert 2.0 * g._upper_mass(0.0, 1e3) == pytest.approx(1.0, rel=1e-15)


class TestGaussianPrivacyProfile:
    def test_monotone_decreasing_in_sigma(self):
        p = PrivacyParams(1.0, 1e-5)
        vals = [exact_profile(s, p, 1.0) for s in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_matches_direct_formula_in_easy_range(self):
        p = PrivacyParams(1.0, 1e-5)
        sigma, sens = 2.0, 1.0
        a = sens / (2 * sigma) - p.epsilon * sigma / sens
        b = -sens / (2 * sigma) - p.epsilon * sigma / sens
        direct = float(ndtr(a)) - math.exp(p.epsilon) * float(ndtr(b))
        assert exact_profile(sigma, p, sens) == pytest.approx(
            direct, rel=1e-12
        )

    def test_huge_sigma_reaches_zero(self):
        assert exact_profile(1e6, PrivacyParams(5.0, 1e-5), 1.0) == 0.0

    def test_no_overflow_at_large_epsilon(self):
        val = exact_profile(0.1, PrivacyParams(500.0, 1e-5), 1.0)
        assert math.isfinite(val)
        assert 0.0 <= val <= 1.0


class TestAnalyticGaussianSigma:
    def test_frozen_reference(self):
        sigma = analytic_gaussian_sigma(PrivacyParams(1.0, 1e-5), 1.0)
        assert sigma == pytest.approx(3.730631634818047, rel=1e-11)

    def test_result_is_feasible_and_tight(self):
        for eps, delta in [(0.1, 1e-6), (0.5, 1e-4), (2.0, 1e-8)]:
            p = PrivacyParams(eps, delta)
            sigma = analytic_gaussian_sigma(p, 1.0)
            assert exact_profile(sigma, p, 1.0) <= delta
            # shrinking by 0.1% must break the target: the answer is minimal
            assert exact_profile(0.999 * sigma, p, 1.0) > delta

    def test_never_worse_than_classic_in_proof_range(self):
        # The textbook sigma = sens * sqrt(2 ln(1.25/delta)) / eps is proven
        # for eps in (0, 1) only; the exact calibration never exceeds it there.
        for eps in (0.1, 0.3, 0.7, 0.95):
            p = PrivacyParams(eps, 1e-6)
            textbook = math.sqrt(2.0 * math.log(1.25 / p.delta)) / eps
            assert analytic_gaussian_sigma(p, 1.0) <= textbook

    @pytest.mark.parametrize(
        "eps, textbook_excess", [(10.0, 2.265374), (20.0, 152.6695), (50.0, 58618.4)]
    )
    def test_textbook_under_noises_above_proof_range(self, eps, textbook_excess):
        # Above eps = 1 the textbook sigma = sens * sqrt(2 ln(1.25/delta)) / eps
        # falls below the exact one, and its real delta exceeds the target.
        p = PrivacyParams(eps, 1e-5)
        textbook = math.sqrt(2.0 * math.log(1.25 / p.delta)) / eps
        sigma = analytic_gaussian_sigma(p, 1.0)
        assert textbook < sigma
        assert exact_profile(sigma, p, 1.0) <= p.delta
        assert exact_profile(textbook, p, 1.0) / p.delta == (
            pytest.approx(textbook_excess, rel=1e-5)
        )

    @staticmethod
    def exact_excess(eps, delta):
        """The 60-digit mpmath profile at the calibrated sigma over delta,
        minus 1."""
        mpmath = pytest.importorskip("mpmath")
        sigma = analytic_gaussian_sigma(PrivacyParams(eps, delta), 1.0)
        with mpmath.workdps(60):
            s, e = mpmath.mpf(sigma), mpmath.mpf(eps)
            exact = mpmath.ncdf(1 / (2 * s) - e * s) - mpmath.exp(e) * mpmath.ncdf(
                -1 / (2 * s) - e * s
            )
            return float(exact / mpmath.mpf(delta) - 1)

    @pytest.mark.parametrize("delta", [1e-300, 1e-5, 0.49])
    @pytest.mark.parametrize("eps", [0.3, 1.0, 30.0])
    def test_meets_the_exact_target_to_rounding(self, eps, delta):
        # the promise holds where the double-precision profile is accurate
        assert self.exact_excess(eps, delta) <= 1e-9

    @pytest.mark.xfail(
        strict=True,
        reason="the bisection trusts the double-precision profile, which cancels at tiny eps",
    )
    @pytest.mark.parametrize("eps, delta", [(1e-9, 1e-300), (1e-20, 1e-20)])
    def test_meets_the_exact_target_at_tiny_eps(self, eps, delta):
        # the exact profile is 1.18 and 1,536 times delta here
        assert self.exact_excess(eps, delta) <= 0.0

    @pytest.mark.parametrize("name", ["classic_gaussian_sigma", "RangeWarning"])
    def test_textbook_names_are_gone(self, name):
        import dpnoise

        assert not hasattr(baselines, name)
        assert not hasattr(dpnoise, name)
        assert name not in dpnoise.__all__

    def test_sensitivity_scaling(self):
        p = PrivacyParams(0.8, 1e-5)
        one = analytic_gaussian_sigma(p, 1.0)
        three = analytic_gaussian_sigma(p, 3.0)
        assert three == pytest.approx(3.0 * one, rel=1e-9)


class TestBoundedUniform:
    def test_rejects_bad_half_width(self):
        with pytest.raises(DomainError):
            BoundedUniform(0.0)
        with pytest.raises(DomainError):
            BoundedUniform(math.inf)

    def test_surface(self):
        u = BoundedUniform(4.0)
        assert u.support == (-4.0, 4.0)
        assert u.pdf(0.0) == 0.125
        assert u.pdf(4.0) == 0.125
        assert u.pdf(4.0000001) == 0.0
        assert u.cdf(-4.0) == 0.0
        assert u.cdf(0.0) == 0.5
        assert u.cdf(5.0) == 1.0
        assert u.quantile(0.0) == -4.0
        assert u.quantile(1.0) == 4.0
        assert u.quantile(0.75) == pytest.approx(2.0, rel=1e-15)

    def test_moments(self):
        u = BoundedUniform(6.0)
        assert u.expected_amplitude == 3.0
        assert u.expected_power == 12.0

    def test_limit_factory(self):
        mech = BoundedUniform.from_privacy(PrivacyParams(1.0, 0.05), 1.0)
        assert isinstance(mech, BoundedUniform)
        assert mech.half_width == 10.0
        # density over the support is delta / sens
        assert mech.pdf(0.0) == pytest.approx(0.05, rel=1e-15)

    def test_limit_factory_rejects_out_of_range_delta(self):
        # PrivacyParams refuses the delta before from_privacy sees it
        for delta in (0.0, 0.5):
            with pytest.raises(DomainError, match="delta must lie"):
                BoundedUniform.from_privacy(PrivacyParams(1.0, delta), 1.0)

    @pytest.mark.parametrize("delta", [1e-310, 1e-320, 5e-324])
    def test_limit_factory_names_delta_where_the_half_width_overflows(self, delta):
        # refused as "half_width must be finite and > 0, got inf"
        with pytest.raises(DomainError) as info:
            BoundedUniform.from_privacy(PrivacyParams(1.0, delta), 1.0)
        assert str(info.value) == (
            "half-width sensitivity/(2 delta) overflows: delta is too small "
            "for this sensitivity"
        )

    def test_limit_sampling_support(self):
        mech = BoundedUniform.from_privacy(PrivacyParams(1.0, 0.1), 1.0)
        x = mech.sample(np.random.default_rng(0), 5000)
        assert np.all(np.abs(x) <= mech.half_width)
        assert np.std(x) == pytest.approx(
            math.sqrt(mech.expected_power), rel=0.05
        )


# The sweep's default 100 x 100 grid, and a wide one from the float extremes
# of delta to eps = 50.
GRIDS = {
    "default": (np.geomspace(1e-4, 10.0, 100), np.geomspace(1e-6, 0.1, 100)),
    "wide": (np.geomspace(1e-9, 50.0, 150), np.geomspace(1e-300, 0.49, 150)),
}


class TestAnalyticSigmaKernel:
    """The lockstep kernel against the one-point bisection, bit for bit."""

    @pytest.mark.parametrize("sens", [1.0, 3.0])
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_grid_matches_reference_bit_for_bit(self, grid, sens):
        eps_axis, delta_axis = GRIDS[grid]
        eps = np.repeat(eps_axis, delta_axis.size)
        delta = np.tile(delta_axis, eps_axis.size)
        kernel = baselines._analytic_sigmas(eps, delta, sens).tolist()
        brute = brute_outcomes(
            [PrivacyParams(e, d) for e, d in zip(eps.tolist(), delta.tolist())],
            sens,
        )
        assert kernel == brute
        # the one-point call is the same kernel; a stride keeps it quick
        for i in range(0, eps.size, 97):
            p = PrivacyParams(eps[i], delta[i])
            assert analytic_gaussian_sigma(p, sens) == brute[i]

    def test_lo_shrink_point(self):
        # sens * 1e-6 / eps is already feasible, so the lower end shrinks
        # about 165 times before the bisection starts
        p = PrivacyParams(1e-60, 1e-5)
        sigma = analytic_gaussian_sigma(p, 1.0)
        assert sigma < 1e-6 / p.epsilon / 2.0**160
        assert sigma == brute_outcome(p, 1.0)

    @pytest.mark.parametrize(
        "eps, message",
        [
            (1e-100, "could not bracket the Gaussian calibration from below"),
            (1e200, "could not bracket the Gaussian calibration from above"),
        ],
    )
    def test_bracketing_failure_raises(self, eps, message):
        p = PrivacyParams(eps, 1e-5)
        assert brute_outcome(p, 1.0) == (ConvergenceError, message)
        with pytest.raises(ConvergenceError, match=message):
            analytic_gaussian_sigma(p, 1.0)

    def test_overflowing_sigma_is_a_domain_error(self):
        p = PrivacyParams(1e-310, 1e-5)  # sens / eps is already inf
        assert brute_outcome(p, 1.0) == (
            DomainError, "sigma must be finite and > 0, got inf"
        )
        with pytest.raises(DomainError, match="got inf"):
            analytic_gaussian_sigma(p, 1.0)

    def test_first_failing_point_in_order_is_raised(self):
        # point 1 fails while shrinking, point 2 earlier in time while
        # doubling; point-by-point order raises point 1's error
        eps = [1.0, 1e-100, 1e200, 1e-310]
        with pytest.raises(ConvergenceError, match="from below"):
            baselines._analytic_sigmas(eps, [1e-5] * 4, 1.0)
        with pytest.raises(DomainError, match="got inf"):
            baselines._analytic_sigmas(eps[::-1], [1e-5] * 4, 1.0)

    def test_profile_wrapper_matches_reference_bit_for_bit(self):
        for sigma, eps, delta, sens in [
            (3.7, 1.0, 1e-5, 1.0), (0.1, 500.0, 1e-5, 1.0), (1e6, 5.0, 1e-5, 1.0),
            (1e-320, 1.0, 1e-5, 1.0), (2.0, 1e-9, 0.1, 3.0),
        ]:
            p = PrivacyParams(eps, delta)
            expected = brute_profile(sigma, p, sens)
            assert exact_profile(sigma, p, sens) == expected


def numpy_profile(sigma, eps, sens):
    """The privacy profile in numpy's exp and expm1, which can round
    differently from math's."""
    a = sens / (2.0 * sigma) - eps * sigma / sens
    b = -sens / (2.0 * sigma) - eps * sigma / sens
    log_hi = baselines._log_ndtr(a)
    log_lo = eps + baselines._log_ndtr(b)
    with np.errstate(all="ignore"):
        return np.where(
            log_lo >= log_hi, 0.0, -np.exp(log_hi) * np.expm1(log_lo - log_hi)
        )


class TestGuardBand:
    """The bisection reads only the sign of profile - delta.  The kernel takes
    the profile in numpy, and must still decide every sign as math's
    profile does, also where delta is math's profile to the last bit."""

    @staticmethod
    def assert_same_signs(sigma, eps, delta, sens):
        with np.errstate(all="ignore"):
            kernel = baselines._excess(sigma, np.full(sigma.shape, eps), delta, sens)
        exact = [
            p - d
            for p, d in zip(
                brute_profiles(sigma.tolist(), [eps] * sigma.size, sens),
                delta.tolist(),
            )
        ]
        assert (kernel > 0.0).tolist() == [e > 0.0 for e in exact]
        assert (kernel <= 0.0).tolist() == [e <= 0.0 for e in exact]

    @pytest.mark.parametrize("sens", [1.0, 3.0])
    @pytest.mark.parametrize("eps", [0.01, 0.5, 5.0])
    def test_delta_at_the_math_profile(self, eps, sens):
        sigma = sens * np.geomspace(0.05, 500.0, 3000) / math.sqrt(eps)
        exact = np.array(brute_profiles(sigma.tolist(), [eps] * sigma.size, sens))
        # where numpy's profile differs from math's (a few percent of these
        # sigmas here), delta = math's value is on the edge of the decision
        pick = (numpy_profile(sigma, eps, sens) != exact) & (exact > 0.0)
        sigma, delta = sigma[pick], exact[pick]
        for d in (delta, np.nextafter(delta, 0.0), np.nextafter(delta, 1.0)):
            self.assert_same_signs(sigma, eps, d, sens)

    def test_subnormal_delta(self):
        # profiles and deltas below the smallest normal double, where
        # relative rounding bounds no longer hold
        sigma = np.geomspace(30.0, 60.0, 2000)
        exact = np.array(brute_profiles(sigma.tolist(), [1.0] * sigma.size, 1.0))
        tiny = (exact > 0.0) & (exact < 2.2250738585072014e-308)
        assert tiny.any()
        self.assert_same_signs(sigma[tiny], 1.0, exact[tiny], 1.0)
        for d in (1e-300, 1e-308, 1e-310, 1e-320, 5e-324):
            self.assert_same_signs(sigma, 1.0, np.full(sigma.shape, d), 1.0)
