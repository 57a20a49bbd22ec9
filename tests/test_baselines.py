import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import log_ndtr, ndtr

from dpnoise import baselines
from dpnoise.baselines import (
    BoundedUniform,
    Gaussian,
    Laplace,
    analytic_gaussian_sigma,
    gaussian_privacy_profile,
    laplace_mechanism,
    uniform_limit_mechanism,
)
from dpnoise.core import ConvergenceError, DomainError, NoiseMechanism, PrivacyParams


def brute_profile(sigma, params, sens):
    """The scalar privacy profile, in math's exp and expm1."""
    if not math.isfinite(sigma) or sigma <= 0.0:
        raise DomainError(f"sigma must be finite and > 0, got {sigma!r}")
    a = sens / (2.0 * sigma) - params.epsilon * sigma / sens
    b = -sens / (2.0 * sigma) - params.epsilon * sigma / sens
    log_hi = float(log_ndtr(a))
    log_lo = params.epsilon + float(log_ndtr(b))
    if log_lo >= log_hi:
        return 0.0
    return -math.exp(log_hi) * math.expm1(log_lo - log_hi)


def brute_analytic_sigma(params, sens):
    """The one-point bisection that analytic_gaussian_sigma ran before it
    became a lockstep kernel over arrays, kept verbatim as the reference."""

    def excess(sigma):
        return brute_profile(sigma, params, sens) - params.delta

    lo = sens * 1e-6 / params.epsilon
    hi = sens / params.epsilon
    doublings = 0
    while excess(hi) > 0.0:
        hi *= 2.0
        doublings += 1
        if doublings > 200:
            raise ConvergenceError(
                "could not bracket the Gaussian calibration from above"
            )
    shrinks = 0
    while excess(lo) <= 0.0:
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
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def brute_outcome(params, sens):
    """The reference sigma, or the type and message of what it raised."""
    try:
        return brute_analytic_sigma(params, sens)
    except (ConvergenceError, DomainError) as exc:
        return type(exc), str(exc)


class TestLaplace:
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
        with pytest.raises(DomainError, match="expected power .*too small$"):
            Laplace(1e200).expected_power  # scale**2 overflowed

    def test_interval_mass_bulk_matches_cdf_difference(self):
        lap = Laplace(1.5)
        lo = np.array([-4.0, -1.0, 0.0, 0.5])
        hi = np.array([-2.0, 1.0, 0.5, 3.0])
        ref = np.asarray(lap.cdf(hi)) - np.asarray(lap.cdf(lo))
        np.testing.assert_allclose(lap.interval_mass(lo, hi), ref, rtol=1e-12)

    def test_interval_mass_deep_tail_exact(self):
        # cdf differencing would return 0 out here; the one-sided form keeps
        # full relative accuracy
        lap = Laplace(1.0)
        lo, hi = 700.0, 701.0
        exact = 0.5 * math.exp(-lo) * -math.expm1(-(hi - lo))
        assert lap.interval_mass(lo, hi) == pytest.approx(exact, rel=1e-14)
        assert lap.interval_mass(-hi, -lo) == pytest.approx(exact, rel=1e-14)

    def test_interval_mass_straddling_zero(self):
        lap = Laplace(2.0)
        assert lap.interval_mass(-3.0, 5.0) == pytest.approx(
            lap.cdf(5.0) - lap.cdf(-3.0), rel=1e-14
        )
        assert lap.interval_mass(-200.0, 200.0) == pytest.approx(1.0, rel=1e-15)

    def test_grid_masses_closed_form(self):
        lap, step = Laplace(1.3), 1e-3
        radius = float(lap.quantile(1.0 - 5e-13))  # discretize's default
        half = math.ceil(radius / step - 1e-12)
        fast = lap.grid_masses(step, half)
        ref = NoiseMechanism.grid_masses(lap, step, half)
        assert fast.shape == ref.shape == (2 * half,)
        np.testing.assert_allclose(fast[1:-1], ref[1:-1], rtol=1e-10, atol=0.0)
        # Each outermost cell holds its whole unbounded tail.  The default
        # path folds the right tail in as 1 - cdf, which rounds at ulp(1).
        tail = 0.5 * math.exp(-(half - 1) * step / 1.3)
        assert fast[-1] == pytest.approx(tail, rel=1e-14)
        assert abs(fast[-1] - ref[-1]) <= 2.0**-52
        assert fast[0] == pytest.approx(ref[0], rel=1e-10)
        assert np.array_equal(fast, fast[::-1])
        assert abs(float(fast.sum()) - 1.0) <= 1e-14
        pos = fast[half:]
        np.testing.assert_allclose(
            pos[1:-1] / pos[:-2], math.exp(-step / 1.3), rtol=1e-14, atol=0.0
        )

    def test_gaussian_and_uniform_keep_the_default_grid_masses(self):
        for cls in (Gaussian, BoundedUniform):
            assert cls.grid_masses is NoiseMechanism.grid_masses

    def test_factory(self):
        mech = laplace_mechanism(0.5, 2.0)
        assert isinstance(mech, Laplace)
        assert mech.scale == 4.0


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
        with pytest.raises(DomainError, match="expected power .*too small$"):
            Gaussian(1e200).expected_power  # sigma * sigma overflowed

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
        lo = np.array([-2.0, -0.3, 0.1])
        hi = np.array([-1.0, 0.4, 2.2])
        ref = ndtr(hi) - ndtr(lo)
        np.testing.assert_allclose(g.interval_mass(lo, hi), ref, rtol=1e-11)

    def test_interval_mass_deep_tail(self):
        g = Gaussian(1.0)
        exact = ndtr(-36.0) - ndtr(-37.0)  # both args negative: full accuracy
        assert g.interval_mass(36.0, 37.0) == pytest.approx(exact, rel=1e-13)
        assert g.interval_mass(-37.0, -36.0) == pytest.approx(exact, rel=1e-13)
        assert g.interval_mass(36.0, 37.0) > 0.0

    def test_interval_mass_total(self):
        g = Gaussian(2.5)
        assert g.interval_mass(-1e3, 1e3) == pytest.approx(1.0, rel=1e-15)


class TestGaussianPrivacyProfile:
    def test_rejects_bad_sigma(self):
        with pytest.raises(DomainError):
            gaussian_privacy_profile(0.0, PrivacyParams(1.0, 1e-5), 1.0)

    def test_monotone_decreasing_in_sigma(self):
        p = PrivacyParams(1.0, 1e-5)
        vals = [gaussian_privacy_profile(s, p, 1.0) for s in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_matches_direct_formula_in_easy_range(self):
        p = PrivacyParams(1.0, 1e-5)
        sigma, sens = 2.0, 1.0
        a = sens / (2 * sigma) - p.epsilon * sigma / sens
        b = -sens / (2 * sigma) - p.epsilon * sigma / sens
        direct = float(ndtr(a)) - math.exp(p.epsilon) * float(ndtr(b))
        assert gaussian_privacy_profile(sigma, p, sens) == pytest.approx(
            direct, rel=1e-12
        )

    def test_huge_sigma_reaches_zero(self):
        assert gaussian_privacy_profile(1e6, PrivacyParams(5.0, 1e-5), 1.0) == 0.0

    def test_no_overflow_at_large_epsilon(self):
        val = gaussian_privacy_profile(0.1, PrivacyParams(500.0, 1e-5), 1.0)
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
            assert gaussian_privacy_profile(sigma, p, 1.0) <= delta
            # shrinking by 0.1% must break the target: the answer is minimal
            assert gaussian_privacy_profile(0.999 * sigma, p, 1.0) > delta

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
        assert gaussian_privacy_profile(sigma, p, 1.0) <= p.delta
        assert gaussian_privacy_profile(textbook, p, 1.0) / p.delta == (
            pytest.approx(textbook_excess, rel=1e-5)
        )

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
        mech = uniform_limit_mechanism(0.05, 1.0)
        assert isinstance(mech, BoundedUniform)
        assert mech.half_width == 10.0
        # density over the support is delta / sens
        assert mech.pdf(0.0) == pytest.approx(0.05, rel=1e-15)

    def test_limit_factory_rejects_out_of_range_delta(self):
        with pytest.raises(DomainError):
            uniform_limit_mechanism(0.0, 1.0)
        with pytest.raises(DomainError):
            uniform_limit_mechanism(0.5, 1.0)

    def test_limit_sampling_support(self):
        mech = uniform_limit_mechanism(0.1, 1.0)
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
        brute = [
            brute_analytic_sigma(PrivacyParams(e, d), sens)
            for e, d in zip(eps.tolist(), delta.tolist())
        ]
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
        assert sigma == brute_analytic_sigma(p, 1.0)

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
            assert gaussian_privacy_profile(sigma, p, sens) == expected
