import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from test_core import NOT_REAL

from dpnoise.core import DomainError, NoiseMechanism, PrivacyParams, Sensitivity
from dpnoise.trunclap import TruncatedLaplace
from dpnoise.verifier import discretize

P_REF = PrivacyParams(1.0, 1e-5)
SENS = Sensitivity(1.0)


class TestCalibrate:
    def test_reference_shape(self):
        """Frozen calibration at (eps=1, delta=1e-5, sens=1)."""
        shape = TruncatedLaplace.from_privacy(P_REF, SENS)
        assert shape.scale == 1.0
        assert shape.radius == pytest.approx(11.361114778489599, rel=1e-15)
        assert shape.height == pytest.approx(0.5000058197670687, rel=1e-14)

    def test_scale_is_sens_over_eps(self):
        shape = TruncatedLaplace.from_privacy(PrivacyParams(0.25, 1e-4), 2.0)
        assert shape.scale == 8.0

    def test_radius_scales_with_sensitivity(self):
        base = TruncatedLaplace.from_privacy(P_REF, 1.0)
        doubled = TruncatedLaplace.from_privacy(P_REF, 2.0)
        assert doubled.radius == pytest.approx(2.0 * base.radius, rel=1e-15)
        assert doubled.height == pytest.approx(0.5 * base.height, rel=1e-15)

    def test_params_validate(self):
        # each of scale, radius and height in turn
        messages = (
            "scale must be finite and > 0",
            "radius must be > 0",
            "height must be finite and > 0",
        )
        for field, message in enumerate(messages):
            for bad in (0.0, -1.0, math.nan, math.inf):
                if field == 1 and bad == math.inf:
                    continue  # an infinite radius is the Laplace mechanism
                shape = [1.0, 1.0, 1.0]
                shape[field] = bad
                with pytest.raises(DomainError, match=message):
                    TruncatedLaplace(*shape)
        assert TruncatedLaplace(1.0, 2.0, 3.0).parameters == {
            "scale": 1.0, "radius": 2.0, "height": 3.0
        }

    @pytest.mark.parametrize("bad", NOT_REAL)
    def test_radius_must_be_a_real_number(self, bad):
        # 10**400 raised OverflowError and None a TypeError from float()
        with pytest.raises(DomainError, match="^radius must be a real number"):
            TruncatedLaplace(1.0, bad, 1.0)
        assert type(TruncatedLaplace(1.0, 2, 1.0).radius) is float
        assert TruncatedLaplace(1.0, math.inf, 0.5).radius == math.inf

    def test_total_mass_is_one(self):
        mech = TruncatedLaplace.from_privacy(PrivacyParams(0.3, 1e-3), SENS)
        total, _ = quad(
            mech.pdf, -mech.radius, mech.radius, epsabs=0.0, epsrel=1e-12
        )
        assert total == pytest.approx(1.0, rel=1e-11)


class TestDistributionSurface:
    @pytest.fixture
    def mech(self):
        return TruncatedLaplace.from_privacy(P_REF, SENS)

    def test_pdf_includes_endpoints(self, mech):
        A = mech.radius
        edge = mech.height * math.exp(-A / mech.scale)
        assert mech.pdf(A) == pytest.approx(edge, rel=1e-14)
        assert mech.pdf(-A) == pytest.approx(edge, rel=1e-14)
        assert mech.pdf(np.nextafter(A, math.inf)) == 0.0

    def test_pdf_zero_outside(self, mech):
        A = mech.radius
        assert mech.pdf(A + 1.0) == 0.0
        np.testing.assert_array_equal(
            mech.pdf(np.array([-A - 2.0, A + 2.0])), [0.0, 0.0]
        )

    def test_pdf_symmetry(self, mech):
        xs = np.linspace(0.0, mech.radius, 13)
        np.testing.assert_allclose(mech.pdf(xs), mech.pdf(-xs), rtol=1e-15)

    def test_cdf_edges_and_center(self, mech):
        A = mech.radius
        assert mech.cdf(-A - 1e-9) == 0.0
        assert mech.cdf(A) == 1.0
        assert mech.cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_cdf_left_tail_keeps_relative_accuracy(self, mech):
        A = mech.radius
        x = -A + 0.25
        direct, _ = quad(mech.pdf, -A, x, epsabs=0.0, epsrel=1e-13)
        assert mech.cdf(x) == pytest.approx(direct, rel=1e-10)

    def test_quantile_round_trip(self, mech):
        u = np.linspace(0.001, 0.999, 41)
        np.testing.assert_allclose(mech.cdf(mech.quantile(u)), u, rtol=1e-12)

    def test_quantile_edges_and_median(self, mech):
        A = mech.radius
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
        # the half-line mass P(a < X <= b) is the cdf's difference
        lo = np.array([0.0, 0.5, 1.0, 2.0])
        hi = np.array([0.5, 2.0, 3.0, mech.radius])
        ref = np.asarray(mech.cdf(hi)) - np.asarray(mech.cdf(lo))
        np.testing.assert_allclose(mech._upper_mass(lo, hi), ref, rtol=1e-12)

    def test_interval_mass_tail_relative_accuracy(self, mech):
        # the outermost sensitivity-wide slice carries exactly delta
        A = mech.radius
        assert mech._upper_mass(A - 1.0, A) == pytest.approx(1e-5, rel=1e-13)
        assert mech.cdf(-A + 1.0) == pytest.approx(1e-5, rel=1e-13)

    def test_moments_against_quadrature(self, mech):
        A = mech.radius
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
        message = f"expected {cost} leaves double range at noise scale {1 / eps!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            tiny.cost(cost)

    def test_huge_radius_costs_are_untruncated(self):
        # radius/scale = 1e200 made the power factor NaN, reported as a
        # range error at noise scale 1.0
        mech = TruncatedLaplace.from_privacy(PrivacyParams(1e200, 1e-5), 1e200)
        assert (mech.scale, mech.radius) == (1.0, 1e200)
        assert (mech.expected_amplitude, mech.expected_power) == (1.0, 2.0)

    def test_frozen_moments(self, mech):
        assert mech.expected_amplitude == pytest.approx(
            0.9998677619166971, rel=1e-14
        )
        assert mech.expected_power == pytest.approx(
            1.9982331517909016, rel=1e-14
        )


class TestGridMasses:
    """The closed-form positive half against the default _upper_mass path,
    and the full grid that discretize mirrors from it."""

    STEP = 1e-3

    @staticmethod
    def _half_cells(radius, step):
        return math.ceil(radius / step - 1e-12)

    @pytest.mark.parametrize(
        "eps, delta", [(1.0, 1e-5), (0.1, 0.1), (10.0, 1e-6)]
    )
    def test_matches_default_path(self, eps, delta):
        mech = TruncatedLaplace.from_privacy(PrivacyParams(eps, delta), 1.0)
        half = self._half_cells(mech.radius, self.STEP)
        fast = mech._grid_masses(self.STEP, half)(0, np.empty(half))
        ref = NoiseMechanism._grid_masses(mech, self.STEP, half)(0, np.empty(half))
        assert fast.shape == ref.shape == (half,)
        np.testing.assert_allclose(fast, ref, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize(
        "eps, delta", [(1.0, 1e-5), (0.1, 0.1), (10.0, 1e-6)]
    )
    def test_symmetry_total_and_geometric_ratio(self, eps, delta):
        mech = TruncatedLaplace.from_privacy(PrivacyParams(eps, delta), 1.0)
        half = self._half_cells(mech.radius, self.STEP)
        m = np.asarray(discretize(mech, 1.0, step=self.STEP).masses)
        assert m.size == 2 * half
        assert np.array_equal(m, m[::-1])
        assert abs(float(m.sum()) - 1.0) <= 1e-14
        # equal-width interior cells: each holds e^(-h/scale) of the previous
        pos = m[half:]
        np.testing.assert_allclose(
            pos[1:-1] / pos[:-2],
            math.exp(-self.STEP / mech.scale),
            rtol=1e-14,
            atol=0.0,
        )

    @pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("eps", [0.01, 0.1, 1.0, 10.0])
    def test_edge_cell_within_stated_error(self, eps, delta):
        # The width of the cell that holds the support edge, taken as
        # radius/scale - k*step/scale, cancels: up to 2.5M ulp off.
        mpmath = pytest.importorskip("mpmath")
        mech = TruncatedLaplace.from_privacy(PrivacyParams(eps, delta), 1.0)
        half = self._half_cells(mech.radius, self.STEP)
        masses = np.asarray(discretize(mech, 1.0, step=self.STEP).masses)
        assert masses.size == 2 * half
        assert masses[0] == masses[-1]
        with mpmath.workdps(40):
            scale, radius = mpmath.mpf(mech.scale), mpmath.mpf(mech.radius)
            left = (half - 1) * mpmath.mpf(self.STEP)
            exact = (
                mpmath.mpf(mech.height)
                * scale
                * (mpmath.exp(-left / scale) - mpmath.exp(-radius / scale))
            )
            error = float(abs(masses[-1] - exact) / exact)
        assert error <= mech._grid_mass_error(self.STEP, half)

    def test_radius_below_support_folds_the_rest(self):
        mech = TruncatedLaplace.from_privacy(P_REF, 1.0)
        half = self._half_cells(0.5 * mech.radius, self.STEP)
        fast = mech._grid_masses(self.STEP, half)(0, np.empty(half))
        ref = NoiseMechanism._grid_masses(mech, self.STEP, half)(0, np.empty(half))
        np.testing.assert_allclose(fast, ref, rtol=1e-10, atol=0.0)
        assert abs(float(fast.sum()) - 0.5) <= 0.5e-14

    def test_radius_above_support_leaves_zero_cells(self):
        mech = TruncatedLaplace.from_privacy(P_REF, 1.0)
        radius = 1.5 * mech.radius
        half = self._half_cells(radius, self.STEP)
        fast = mech._grid_masses(self.STEP, half)(0, np.empty(half))
        ref = NoiseMechanism._grid_masses(mech, self.STEP, half)(0, np.empty(half))
        np.testing.assert_allclose(fast, ref, rtol=1e-10, atol=0.0)
        outside = half - math.ceil(mech.radius / self.STEP)
        assert outside > 1000
        assert np.all(fast[-outside:] == 0.0)
        assert fast[-outside - 1] > 0.0


class TestPrivacyStructure:
    """The two identities the calibration is built around."""

    @pytest.mark.parametrize("eps", [1e-4, 0.01, 0.5, 2.0, 10.0])
    @pytest.mark.parametrize("delta", [1e-6, 1e-3, 0.1])
    def test_tail_slice_mass_equals_delta(self, eps, delta):
        mech = TruncatedLaplace.from_privacy(PrivacyParams(eps, delta), SENS)
        A = mech.radius
        assert mech._upper_mass(A - 1.0, A) == pytest.approx(delta, rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-4, 0.01, 0.5, 2.0, 10.0])
    def test_density_decay_over_one_sensitivity(self, eps):
        mech = TruncatedLaplace.from_privacy(PrivacyParams(eps, 1e-4), SENS)
        A = mech.radius
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
        A = mech.radius
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
