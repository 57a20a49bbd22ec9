import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from test_core import _Triangle

from dpnoise.baselines import BoundedUniform, Gaussian, Laplace
from dpnoise.core import DomainError, NoiseMechanism, PrivacyParams, Sensitivity
from dpnoise.trunclap import TruncatedLaplace, TruncLapParams, calibrate

P_REF = PrivacyParams(1.0, 1e-5)
SENS = Sensitivity(1.0)


class TestCalibrate:
    def test_reference_shape(self):
        """Frozen calibration at (eps=1, delta=1e-5, sens=1)."""
        shape = calibrate(P_REF, SENS)
        assert shape.scale == 1.0
        assert shape.radius == pytest.approx(11.361114778489599, rel=1e-15)
        assert shape.height == pytest.approx(0.5000058197670687, rel=1e-14)

    def test_scale_is_sens_over_eps(self):
        shape = calibrate(PrivacyParams(0.25, 1e-4), 2.0)
        assert shape.scale == 8.0
        assert shape.sensitivity == 2.0

    def test_radius_scales_with_sensitivity(self):
        base = calibrate(P_REF, 1.0)
        doubled = calibrate(P_REF, 2.0)
        assert doubled.radius == pytest.approx(2.0 * base.radius, rel=1e-15)
        assert doubled.height == pytest.approx(0.5 * base.height, rel=1e-15)

    def test_params_validate(self):
        with pytest.raises(DomainError):
            TruncLapParams(scale=1.0, radius=-1.0, height=1.0, sensitivity=1.0)

    def test_total_mass_is_one(self):
        shape = calibrate(PrivacyParams(0.3, 1e-3), SENS)
        mech = TruncatedLaplace(shape)
        total, _ = quad(
            mech.pdf, -shape.radius, shape.radius, epsabs=0.0, epsrel=1e-12
        )
        assert total == pytest.approx(1.0, rel=1e-11)


class TestDistributionSurface:
    @pytest.fixture
    def mech(self):
        return TruncatedLaplace.from_privacy(P_REF, SENS)

    def test_pdf_includes_endpoints(self, mech):
        A = mech.params.radius
        edge = mech.params.height * math.exp(-A / mech.params.scale)
        assert mech.pdf(A) == pytest.approx(edge, rel=1e-14)
        assert mech.pdf(-A) == pytest.approx(edge, rel=1e-14)
        assert mech.pdf(np.nextafter(A, math.inf)) == 0.0

    def test_pdf_zero_outside(self, mech):
        A = mech.params.radius
        assert mech.pdf(A + 1.0) == 0.0
        np.testing.assert_array_equal(
            mech.pdf(np.array([-A - 2.0, A + 2.0])), [0.0, 0.0]
        )

    def test_pdf_symmetry(self, mech):
        xs = np.linspace(0.0, mech.params.radius, 13)
        np.testing.assert_allclose(mech.pdf(xs), mech.pdf(-xs), rtol=1e-15)

    def test_cdf_edges_and_center(self, mech):
        A = mech.params.radius
        assert mech.cdf(-A - 1e-9) == 0.0
        assert mech.cdf(A) == 1.0
        assert mech.cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_cdf_left_tail_keeps_relative_accuracy(self, mech):
        A = mech.params.radius
        x = -A + 0.25
        direct, _ = quad(mech.pdf, -A, x, epsabs=0.0, epsrel=1e-13)
        assert mech.cdf(x) == pytest.approx(direct, rel=1e-10)

    def test_quantile_round_trip(self, mech):
        u = np.linspace(0.001, 0.999, 41)
        np.testing.assert_allclose(mech.cdf(mech.quantile(u)), u, rtol=1e-12)

    def test_quantile_edges_and_median(self, mech):
        A = mech.params.radius
        assert mech.quantile(0.5) == 0.0
        # the endpoint round-trips through log1p/expm1, so only ~1e-13 of
        # relative agreement with the radius survives
        assert mech.quantile(0.0) == pytest.approx(-A, rel=1e-12)
        assert mech.quantile(1.0) == pytest.approx(A, rel=1e-12)
        assert abs(mech.quantile(1.0)) <= A
        assert mech.quantile(0.75) == pytest.approx(0.6931355412290223, rel=1e-13)

    def test_quantile_rejects_outside_unit_interval(self, mech):
        with pytest.raises(DomainError):
            mech.quantile(-0.01)
        with pytest.raises(DomainError):
            mech.quantile(np.array([0.2, 1.01]))

    def test_interval_mass_matches_cdf_difference_in_bulk(self, mech):
        lo = np.array([-2.0, -0.5, 0.0, 1.0])
        hi = np.array([-1.0, 0.5, 2.0, 3.0])
        ref = np.asarray(mech.cdf(hi)) - np.asarray(mech.cdf(lo))
        np.testing.assert_allclose(mech.interval_mass(lo, hi), ref, rtol=1e-12)

    def test_interval_mass_tail_relative_accuracy(self, mech):
        # the outermost sensitivity-wide slice carries exactly delta
        A = mech.params.radius
        assert mech.interval_mass(A - 1.0, A) == pytest.approx(1e-5, rel=1e-13)
        assert mech.interval_mass(-A, -A + 1.0) == pytest.approx(1e-5, rel=1e-13)

    def test_interval_mass_rejects_reversed(self, mech):
        # the one shared interval_mass rejects it for every mechanism, for
        # scalars and for any reversed element of an array
        for m in (mech, Laplace(1.0), Gaussian(1.0), BoundedUniform(1.0), _Triangle()):
            with pytest.raises(DomainError):
                m.interval_mass(0.5, -0.5)
            with pytest.raises(DomainError):
                m.interval_mass(np.array([-1.0, 0.5]), np.array([0.0, -0.5]))

    def test_moments_against_quadrature(self, mech):
        A = mech.params.radius
        amp, _ = quad(
            lambda x: x * mech.pdf(x), 0.0, A, epsabs=0.0, epsrel=1e-12
        )
        pwr, _ = quad(
            lambda x: x * x * mech.pdf(x), 0.0, A, epsabs=0.0, epsrel=1e-12
        )
        assert mech.expected_amplitude == pytest.approx(2.0 * amp, rel=1e-11)
        assert mech.expected_power == pytest.approx(2.0 * pwr, rel=1e-11)

    @pytest.mark.parametrize(
        "eps, delta, cost",
        [(1e-200, 1e-5, "amplitude"), (1e-200, 1e-5, "power"),
         (1e-120, 0.4, "power")],
    )
    def test_costs_out_of_double_range_are_domain_errors(
        self, eps, delta, cost
    ):
        # scale**2 overflowed (an OverflowError), or a shrink factor
        # underflowed and the cost came out as 0.0
        tiny = TruncatedLaplace.from_privacy(PrivacyParams(eps, delta), SENS)
        with pytest.raises(DomainError, match=f"expected {cost} .*too small$"):
            tiny.cost(cost)

    def test_frozen_moments(self, mech):
        assert mech.expected_amplitude == pytest.approx(
            0.9998677619166971, rel=1e-14
        )
        assert mech.expected_power == pytest.approx(
            1.9982331517909016, rel=1e-14
        )


class TestGridMasses:
    """The closed-form cell masses against the default interval_mass path."""

    STEP = 1e-3

    @staticmethod
    def _half_cells(radius, step):
        return math.ceil(radius / step - 1e-12)

    @pytest.mark.parametrize(
        "eps, delta", [(1.0, 1e-5), (0.1, 0.1), (10.0, 1e-6)]
    )
    def test_matches_default_path(self, eps, delta):
        mech = TruncatedLaplace.from_privacy(PrivacyParams(eps, delta), 1.0)
        half = self._half_cells(mech.params.radius, self.STEP)
        fast = mech.grid_masses(self.STEP, half)
        ref = NoiseMechanism.grid_masses(mech, self.STEP, half)
        assert fast.shape == ref.shape == (2 * half,)
        np.testing.assert_allclose(fast, ref, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize(
        "eps, delta", [(1.0, 1e-5), (0.1, 0.1), (10.0, 1e-6)]
    )
    def test_symmetry_total_and_geometric_ratio(self, eps, delta):
        mech = TruncatedLaplace.from_privacy(PrivacyParams(eps, delta), 1.0)
        half = self._half_cells(mech.params.radius, self.STEP)
        m = mech.grid_masses(self.STEP, half)
        assert np.array_equal(m, m[::-1])
        assert abs(float(m.sum()) - 1.0) <= 1e-14
        # equal-width interior cells: each holds e^(-h/scale) of the previous
        pos = m[half:]
        np.testing.assert_allclose(
            pos[1:-1] / pos[:-2],
            math.exp(-self.STEP / mech.params.scale),
            rtol=1e-14,
            atol=0.0,
        )

    def test_radius_below_support_folds_the_rest(self):
        mech = TruncatedLaplace.from_privacy(P_REF, 1.0)
        half = self._half_cells(0.5 * mech.params.radius, self.STEP)
        fast = mech.grid_masses(self.STEP, half)
        ref = NoiseMechanism.grid_masses(mech, self.STEP, half)
        np.testing.assert_allclose(fast, ref, rtol=1e-10, atol=0.0)
        assert abs(float(fast.sum()) - 1.0) <= 1e-14

    def test_radius_above_support_leaves_zero_cells(self):
        mech = TruncatedLaplace.from_privacy(P_REF, 1.0)
        half = self._half_cells(1.5 * mech.params.radius, self.STEP)
        fast = mech.grid_masses(self.STEP, half)
        ref = NoiseMechanism.grid_masses(mech, self.STEP, half)
        np.testing.assert_allclose(fast, ref, rtol=1e-10, atol=0.0)
        outside = half - math.ceil(mech.params.radius / self.STEP)
        assert outside > 1000
        assert np.all(fast[:outside] == 0.0)
        assert np.all(fast[-outside:] == 0.0)
        assert fast[outside] > 0.0


class TestPrivacyStructure:
    """The two identities the calibration is built around."""

    @pytest.mark.parametrize("eps", [1e-4, 0.01, 0.5, 2.0, 10.0])
    @pytest.mark.parametrize("delta", [1e-6, 1e-3, 0.1])
    def test_tail_slice_mass_equals_delta(self, eps, delta):
        mech = TruncatedLaplace.from_privacy(PrivacyParams(eps, delta), SENS)
        A = mech.params.radius
        assert mech.interval_mass(A - 1.0, A) == pytest.approx(delta, rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-4, 0.01, 0.5, 2.0, 10.0])
    def test_density_decay_over_one_sensitivity(self, eps):
        mech = TruncatedLaplace.from_privacy(PrivacyParams(eps, 1e-4), SENS)
        A = mech.params.radius
        xs = np.linspace(0.0, A - 1.0, 9)
        ratio = np.asarray(mech.pdf(xs)) / np.asarray(mech.pdf(xs + 1.0))
        np.testing.assert_allclose(ratio, math.exp(eps), rtol=1e-12)


class TestSampling:
    def test_deterministic_under_seed(self):
        mech = TruncatedLaplace.from_privacy(P_REF, SENS)
        a = mech.sample(np.random.default_rng(2024), 256)
        b = mech.sample(np.random.default_rng(2024), 256)
        np.testing.assert_array_equal(a, b)

    def test_support_is_respected(self):
        mech = TruncatedLaplace.from_privacy(PrivacyParams(0.5, 1e-3), SENS)
        x = mech.sample(np.random.default_rng(5), 20_000)
        A = mech.params.radius
        assert np.all(x >= -A)
        assert np.all(x <= A)

    def test_median_draw_is_zero(self):
        class Median:
            def random(self, size=()):
                return np.full(size, 0.5) if size != () else 0.5

        mech = TruncatedLaplace.from_privacy(P_REF, SENS)
        assert mech.sample(Median()) == 0.0

    def test_kolmogorov_smirnov(self):
        mech = TruncatedLaplace.from_privacy(P_REF, SENS)
        n = 50_000
        x = np.sort(mech.sample(np.random.default_rng(99), n))
        u = np.asarray(mech.cdf(x))
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - u), np.max(u - (i - 1) / n))
        assert ks < 1.63 / math.sqrt(n)  # alpha ~ 0.01


class TestUpperBoundHelpers:
    """The mechanism's costs, which bound_pair reports as the upper bound."""

    def test_sensitivity_scaling(self):
        p = PrivacyParams(0.2, 1e-4)
        one = TruncatedLaplace.from_privacy(p, 1.0)
        two = TruncatedLaplace.from_privacy(p, 2.0)
        assert two.expected_amplitude == pytest.approx(
            2.0 * one.expected_amplitude, rel=1e-14
        )
        assert two.expected_power == pytest.approx(
            4.0 * one.expected_power, rel=1e-14
        )

    def test_extreme_parameters_stay_finite(self):
        # deep-delta and tiny-epsilon corners must not overflow or go NaN
        for p in (
            PrivacyParams(1.0, 1e-300),
            PrivacyParams(1e-9, 1e-6),
            PrivacyParams(50.0, 1e-12),
        ):
            mech = TruncatedLaplace.from_privacy(p, SENS)
            assert math.isfinite(mech.expected_amplitude)
            assert math.isfinite(mech.expected_power)


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(min_value=1e-4, max_value=10.0),
    delta=st.floats(min_value=1e-9, max_value=0.4),
)
def test_quantile_cdf_inverse_property(eps, delta):
    mech = TruncatedLaplace.from_privacy(PrivacyParams(eps, delta), SENS)
    for u in (0.01, 0.3, 0.5, 0.77, 0.99):
        assert mech.cdf(mech.quantile(u)) == pytest.approx(u, abs=1e-11)
