import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dpnoise.baselines import BoundedUniform, Gaussian, Laplace
from dpnoise.core import (
    ConvergenceError,
    CostKind,
    DomainError,
    InvariantError,
    NoiseMechanism,
    PrivacyParams,
    Sensitivity,
    as_sensitivity,
)
from dpnoise.query import MECHANISM_NAMES, make_mechanism
from dpnoise.trunclap import TruncatedLaplace


# float() took True as 1.0 and "0.5" as 0.5, refused 1j with TypeError, and
# raised OverflowError for a real number too large for a float
NOT_REAL = [
    True, False, np.bool_(True), "0.5", b"0.5", None, 1j, [0.5],
    10**400, -(10**400), Fraction(10**400, 3),
]


class TestPrivacyParams:
    def test_accepts_interior_values(self):
        p = PrivacyParams(1.0, 1e-5)
        assert p.epsilon == 1.0
        assert p.delta == 1e-5

    def test_coerces_to_float(self):
        p = PrivacyParams(2, 1e-3)
        assert isinstance(p.epsilon, float)
        assert isinstance(p.delta, float)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_epsilon(self, eps):
        with pytest.raises(DomainError, match="epsilon"):
            PrivacyParams(eps, 1e-5)

    @pytest.mark.parametrize("delta", [0.0, 0.5, 0.7, -1e-9, math.nan])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(DomainError, match="delta"):
            PrivacyParams(1.0, delta)

    @pytest.mark.parametrize("bad", NOT_REAL)
    def test_refuses_what_is_not_a_real_number(self, bad):
        with pytest.raises(DomainError, match="^epsilon must be a real number"):
            PrivacyParams(bad, 1e-5)
        with pytest.raises(DomainError, match="^delta must be a real number"):
            PrivacyParams(0.5, bad)

    @pytest.mark.parametrize(
        "value", [Fraction(1, 4), np.float64(0.25), np.float32(0.25)]
    )
    def test_takes_any_real_number(self, value):
        p = PrivacyParams(value, value)
        assert type(p.epsilon) is float and type(p.delta) is float
        assert p.epsilon == p.delta == 0.25
        assert type(PrivacyParams(np.int64(2), 1e-5).epsilon) is float

    def test_delta_range_is_open(self):
        # values arbitrarily close to the edges are fine
        PrivacyParams(1.0, 1e-300)
        PrivacyParams(1.0, 0.5 - 1e-12)

    def test_frozen(self):
        p = PrivacyParams(1.0, 1e-5)
        with pytest.raises(AttributeError):
            p.epsilon = 2.0


class TestSensitivity:
    def test_value_and_float(self):
        s = Sensitivity(2.5)
        assert s.value == 2.5
        assert float(s) == 2.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(DomainError):
            Sensitivity(bad)

    def test_as_sensitivity_passthrough_and_coercion(self):
        s = Sensitivity(1.0)
        assert as_sensitivity(s) is s
        assert as_sensitivity(3).value == 3.0
        assert as_sensitivity(np.int64(3)).value == 3.0

    @pytest.mark.parametrize("bad", NOT_REAL)
    def test_refuses_what_is_not_a_real_number(self, bad):
        with pytest.raises(DomainError, match="^sensitivity must be a real number"):
            Sensitivity(bad)
        with pytest.raises(DomainError, match="^sensitivity must be a real number"):
            as_sensitivity(bad)  # float() ran before the check


class TestCostKind:
    def test_parse_strings(self):
        assert CostKind.parse("amplitude") is CostKind.AMPLITUDE
        assert CostKind.parse(" Power ") is CostKind.POWER
        assert CostKind.parse(CostKind.POWER) is CostKind.POWER

    def test_parse_rejects_unknown(self):
        # not AttributeError for inputs that are not strings
        for text in ("variance", 3, None, b"power", ["power"]):
            with pytest.raises(DomainError, match="unknown cost kind"):
                CostKind.parse(text)


def test_exception_hierarchy():
    # DomainError participates in ValueError handling, InvariantError is a
    # failed internal assertion, ConvergenceError is a runtime failure.
    assert issubclass(DomainError, ValueError)
    assert issubclass(InvariantError, AssertionError)
    assert issubclass(ConvergenceError, RuntimeError)


class _Triangle(NoiseMechanism):
    """Minimal concrete mechanism for exercising the ABC plumbing.

    Symmetric triangular density on [-1, 1]: f(x) = 1 - |x|.
    """

    @property
    def support(self):
        return (-1.0, 1.0)

    def _pdf(self, x):
        arr = np.asarray(x, dtype=float)
        return np.where(np.abs(arr) <= 1.0, 1.0 - np.abs(arr), 0.0)

    def _upper_mass(self, a, b):
        a = np.minimum(a, 1.0)
        b = np.minimum(b, 1.0)
        return 0.5 * ((1.0 - a) ** 2 - (1.0 - b) ** 2)

    def _quantile(self, u):
        arr = np.asarray(u, dtype=float)
        left = np.sqrt(2.0 * arr) - 1.0
        right = 1.0 - np.sqrt(2.0 * (1.0 - arr))
        out = np.where(arr < 0.5, left, right)
        return float(out[()]) if out.ndim == 0 else out

    @property
    def expected_amplitude(self):
        return 1.0 / 3.0

    @property
    def expected_power(self):
        return 1.0 / 6.0


class TestNoiseMechanismContract:
    def test_cost_dispatch(self):
        mech = _Triangle()
        assert mech.cost(CostKind.AMPLITUDE) == mech.expected_amplitude
        assert mech.cost("power") == mech.expected_power

    def test_parameters_default_to_empty(self):
        assert _Triangle().parameters == {}

    def test_default_interval_mass_is_cdf_difference(self):
        # the cdf comes from the half-line mass alone, by symmetry
        mech = _Triangle()
        x = np.array([-1.5, -1.0, -0.5, 0.0, 0.25, 1.0, 2.0])
        xc = np.clip(x, -1.0, 1.0)
        exact = np.where(xc < 0.0, 0.5 * (1.0 + xc) ** 2, 1.0 - 0.5 * (1.0 - xc) ** 2)
        np.testing.assert_allclose(mech.cdf(x), exact, rtol=1e-15, atol=0.0)
        lo = np.array([0.0, 0.25, 0.5, 0.0])
        hi = np.array([0.5, 0.75, 2.0, 2.0])
        expected = mech.cdf(hi) - mech.cdf(lo)
        np.testing.assert_allclose(mech._upper_mass(lo, hi), expected, rtol=1e-15)
        # scalar in, scalar out
        assert isinstance(mech.cdf(0.25), float)

    def test_cdf_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            _Triangle().cdf(math.nan)
        with pytest.raises(DomainError):
            _Triangle().cdf(np.array([0.5, math.inf]))

    @pytest.mark.parametrize(
        "n", [2.7, 3.0, -1.0, -1, math.nan, math.inf, -math.inf, True, "3",
              np.float64(2.0), 1j]
    )
    def test_sample_count_is_an_integer(self, n):
        # 2.7 drew 2 samples; -1.0, NaN and "3" escaped as numpy's
        # ValueError or TypeError, and an infinite n as OverflowError
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError, match=r"^n must be an integer >= 0, got "):
            _Triangle().sample(rng, n)
        assert _Triangle().sample(rng, np.int64(3)).shape == (3,)
        assert _Triangle().sample(rng, 0).shape == (0,)

    @pytest.mark.parametrize("n", [10**400, 2**62, 2**60])
    def test_sample_count_beyond_numpy_is_refused(self, n):
        # numpy refused these with its own ValueError; nothing is drawn
        class Refuse:
            def random(self, size=()):
                raise AssertionError("drew for a refused count")

        with pytest.raises(DomainError, match=r"^n must be at most 1152921504606846975 draws$"):
            _Triangle().sample(Refuse(), n)

    def test_sample_is_deterministic_under_seed(self):
        mech = _Triangle()
        a = mech.sample(np.random.default_rng(11), 64)
        b = mech.sample(np.random.default_rng(11), 64)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (64,)

    def test_sample_scalar_mode(self):
        value = _Triangle().sample(np.random.default_rng(3))
        assert np.isscalar(value) or np.ndim(value) == 0

    def test_sample_accepts_stub_generator(self):
        class Median:
            def random(self, size=()):
                return np.full(size, 0.5) if size != () else 0.5

        assert _Triangle().sample(Median()) == pytest.approx(0.0)

    def test_sample_handles_zero_uniform(self):
        # a generator returning exactly 0.0 must not blow up the quantile,
        # for any mechanism (Laplace's released -inf from a draw of 5e-324)
        class Zero:
            def random(self, size=()):
                return np.zeros(size) if size != () else 0.0

        value = _Triangle().sample(Zero())
        assert math.isfinite(value)
        params = PrivacyParams(1.0, 1e-5)
        for name in MECHANISM_NAMES:
            mech = make_mechanism(name, params, 1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scalar = mech.sample(Zero())
                vector = mech.sample(Zero(), 3)
            assert math.isfinite(scalar), name
            assert np.all(np.isfinite(vector)) and vector.shape == (3,), name


@pytest.mark.parametrize(
    "make",
    [
        _Triangle,
        lambda: TruncatedLaplace.from_privacy(PrivacyParams(1.0, 1e-5), 1.0),
        lambda: BoundedUniform(2.0),
        lambda: Laplace(1.0),
        lambda: Gaussian(1.0),
    ],
    ids=["Triangle", "TruncatedLaplace", "BoundedUniform", "Laplace", "Gaussian"],
)
def test_quantile_domain_follows_the_support(make):
    mech = make()
    # a bounded support maps u = 0 and u = 1 to its edges, up to rounding;
    # an unbounded one has no finite quantile there
    lo, hi = mech.support
    if math.isfinite(hi):
        edges = mech.quantile(np.array([0.0, 1.0]))
        np.testing.assert_allclose(edges, [lo, hi], rtol=1e-12)
        assert lo <= edges[0] and edges[1] <= hi
        assert mech.quantile(1.0) == edges[1]
        bad, message = [-1e-300, 1.0 + 2.0**-52], r"\[0, 1\]"
    else:
        bad, message = [0.0, 1.0, -0.5, 1.5], r"\(0, 1\)"
    for u in bad:
        with pytest.raises(DomainError, match=f"^quantile argument must lie in {message}$"):
            mech.quantile(u)
        with pytest.raises(DomainError, match=message):
            mech.quantile(np.array([0.5, u]))
    with pytest.raises(DomainError, match="u must be finite"):
        mech.quantile(math.nan)


_MECH = TruncatedLaplace.from_privacy(PrivacyParams(1.0, 1e-5), 1.0)


@pytest.mark.parametrize(
    "bad",
    [bad for bad in NOT_REAL if not isinstance(bad, list)]
    + [np.array(["0.5"]), np.array([1j]), np.array([True]), np.array([0.5], dtype=object)],
)
@pytest.mark.parametrize("method", ["pdf", "cdf", "quantile"])
def test_distribution_input_must_be_real_numbers(method, bad):
    # pdf("1") was a density; 10**400 escaped as OverflowError and 1j as
    # TypeError
    name = "u" if method == "quantile" else "x"
    with pytest.raises(DomainError, match=f"^{name} must (be a real number|hold real numbers)"):
        getattr(_MECH, method)(bad)


@pytest.mark.parametrize("method", ["pdf", "cdf", "quantile"])
def test_distribution_input_takes_real_arrays_and_scalars(method):
    f = getattr(_MECH, method)
    expected = f(np.array([0.25, 0.5]))
    for same in ([0.25, 0.5], (0.25, 0.5), np.array([0.25, 0.5], dtype=np.float32)):
        assert f(same).tobytes() == expected.tobytes()
    for scalar in (0.5, np.float64(0.5), np.float32(0.5), Fraction(1, 2), np.array(0.5)):
        value = f(scalar)
        assert type(value) is float and value == expected[1]
    assert f(np.array([1, 0])).tobytes() == f(np.array([1.0, 0.0])).tobytes()


class TestBeyondTheDoubleRange:
    """pdf, cdf and quantile emit no numpy warning: a value beyond the
    double range is refused naming the noise, and one that overflows only
    on the way to a finite result is returned."""

    def test_trunclap_quantile_at_a_capped_tail_is_the_support_edge(self):
        # the half-line area rounds to 1/2, so the capped tail is exactly 1
        # and log1p(-1) divided by zero
        mech = TruncatedLaplace.from_privacy(PrivacyParams(1.0, 1e-20), 1.0)
        assert mech._area == 0.5
        assert mech.quantile(1.0) == mech.radius
        assert mech.quantile(0.0) == -mech.radius

    @pytest.mark.parametrize(
        "mech, u, name",
        [(Laplace(1e307), 1.0 - 5e-13, r"Laplace\(scale=1e\+307\)"),
         (Gaussian(1e308), 0.999, r"Gaussian\(sigma=1e\+308\)")],
        ids=["laplace", "gaussian"],
    )
    def test_quantile_overflow_is_refused(self, mech, u, name):
        # it overflowed with a RuntimeWarning and returned inf
        with pytest.raises(DomainError, match=f"^the quantile leaves the double range for {name}$"):
            mech.quantile(u)
        with pytest.raises(DomainError, match=name):
            mech.quantile(np.array([0.5, u]))

    def test_gaussian_density_overflow_is_refused(self):
        with pytest.raises(
            DomainError, match=r"^the density leaves the double range for Gaussian\(sigma=1e-310\)$"
        ):
            Gaussian(1e-310).pdf(0.0)

    def test_bounded_uniform_density_overflow_is_refused(self):
        # its height 1/(2 half_width) was inf, returned with no warning
        mech = BoundedUniform(1e-320)
        with pytest.raises(
            DomainError,
            match=r"^the density leaves the double range for BoundedUniform\(half_width=1e-320\)$",
        ):
            mech.pdf(0.0)
        assert mech.pdf(1.0) == 0.0  # off the support the density is 0

    @pytest.mark.parametrize(
        "mech, x, expected",
        [(Laplace(1e-300), -1e10, 0.0), (Gaussian(1e-310), 1.0, 1.0)],
        ids=["laplace", "gaussian"],
    )
    def test_cdf_whose_argument_overflows_is_exact(self, mech, x, expected):
        # x / scale overflowed with a RuntimeWarning on the way to the cdf
        assert mech.cdf(x) == expected
        assert mech.cdf(np.array([x, -x])).tolist() == [expected, 1.0 - expected]

    def test_repr_names_the_parameters(self):
        assert repr(Laplace(2.0)) == "Laplace(scale=2.0)"
        assert repr(_Triangle()) == "_Triangle()"
