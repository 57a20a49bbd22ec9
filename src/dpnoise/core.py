"""Shared domain types and the abstract additive-noise-mechanism contract.

Every mechanism class calibrates itself, ``cls.from_privacy(params, sens)``,
from a validated ``(PrivacyParams, Sensitivity)`` pair.  Validation happens
at construction time, so downstream code never has to re-check ranges: if
you hold a ``PrivacyParams`` it is a usable one.
"""

from __future__ import annotations

import math
import numbers
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DomainError",
    "InvariantError",
    "ConvergenceError",
    "PrivacyParams",
    "Sensitivity",
    "CostKind",
    "NoiseMechanism",
    "as_sensitivity",
]


class DomainError(ValueError):
    """An input is outside the mathematical domain of an operation."""


class InvariantError(AssertionError):
    """An internal consistency property failed; indicates an implementation bug."""


class ConvergenceError(RuntimeError):
    """An iterative routine failed to bracket or converge."""


def _as_real(value: float, name: str) -> float:
    """``value`` as a float, if it is a real number a float can hold:
    ``float()`` alone would also take a bool (an int) or a numeric string,
    and raise OverflowError for an int beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # its repr may be too long to print
        raise DomainError(f"{name} must be a real number within the float "
                          f"range; this {type(value).__name__} is beyond it") from None


def _as_count(value, name: str, least: int = 1, kind: type = numbers.Integral) -> int:
    """``value`` as an int, if it is an integer of at least ``least`` (an
    instance of ``kind`` and not a bool): ``int()`` would cut 2.7 to 2
    and take True as 1."""
    if isinstance(value, bool) or not isinstance(value, kind) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _require_finite_positive(value: float, name: str) -> float:
    if type(value) is not float:  # the common case skips the ABC check
        value = _as_real(value, name)
    if not math.isfinite(value) or value <= 0.0:
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")
    return value


@dataclass(frozen=True)
class PrivacyParams:
    """A validated privacy target: epsilon > 0 and delta in (0, 1/2).

    delta = 0 (pure epsilon-privacy) and epsilon = 0 (pure delta-privacy)
    are deliberately excluded here; the corresponding limiting mechanisms
    are available in :mod:`dpnoise.baselines` as explicit constructions.
    """

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "epsilon", _require_finite_positive(self.epsilon, "epsilon")
        )
        object.__setattr__(self, "delta", _check_delta(self.delta))


def _check_delta(delta: float) -> float:
    if type(delta) is not float:
        delta = _as_real(delta, "delta")
    if not math.isfinite(delta) or not 0.0 < delta < 0.5:
        raise DomainError(f"delta must lie strictly inside (0, 0.5), got {delta!r}")
    return delta


@dataclass(frozen=True)
class Sensitivity:
    """The worst-case absolute change of the query output, > 0."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "value", _require_finite_positive(self.value, "sensitivity")
        )

    def __float__(self) -> float:
        return self.value


def as_sensitivity(sens: "Sensitivity | float") -> Sensitivity:
    """Coerce a bare float into a validated :class:`Sensitivity`."""
    if isinstance(sens, Sensitivity):
        return sens
    return Sensitivity(sens)


class CostKind(Enum):
    """Which noise cost is being measured or bounded."""

    AMPLITUDE = "amplitude"  # expected |noise|, the first absolute moment
    POWER = "power"  # expected noise^2, the second moment

    @classmethod
    def parse(cls, text: "str | CostKind") -> "CostKind":
        if isinstance(text, CostKind):
            return text
        if isinstance(text, str):
            try:
                return cls(text.strip().lower())
            except ValueError:
                pass
        raise DomainError(
            f"unknown cost kind {text!r}; expected one of "
            f"{[k.value for k in cls]}"
        )


def _as_checked_array(x, name: str = "x") -> tuple[np.ndarray, bool]:
    """``x`` as a float ndarray, and whether it is a scalar.  A scalar must
    be a real number (see _as_real), an array must hold real numbers (not
    bool, str, bytes, complex or object), and every value must be finite."""
    if not isinstance(x, np.ndarray) and np.ndim(x) == 0:
        x = _as_real(x, name)
    arr = np.asarray(x)
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    arr = arr.astype(float, copy=False)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return arr, arr.ndim == 0


def _scalar_or_array(values: np.ndarray, scalar: bool):
    return float(values) if scalar else values


_NORMAL_MIN = sys.float_info.min  # the smallest double with full precision
_ULP = 2.0**-53  # unit roundoff of a double
_MAX_DRAWS = sys.maxsize // 8  # float64 elements whose byte count fits an intp


def _width_jitter(n_cells: int) -> float:
    """Relative wobble of cell widths caused by float grid geometry.

    Cell edges are ``step*arange``, so the outermost edges of an n-cell grid
    centered near zero round at ``ulp((n/2)*step)``.  Individual cell widths
    — and with them the cell masses of a smooth density — then wobble by up
    to about ``2**-52 * 2n`` relative, even when the density itself is
    evaluated exactly.
    """
    return 2.0**-52 * 2.0 * float(n_cells)


def _cost_in_range(value: float, k: int, scale: float, factor: float = 1.0) -> float:
    """``value``, the E|X| (k = 1) or E[X^2] (k = 2) of a mechanism whose
    noise scale is ``scale``, with ``factor`` the shrink factor it
    multiplies by (1 for none).

    Raises DomainError, naming ``scale``, where the value or ``factor``
    leaves the normal double range (a power of ``scale`` overflows, or the
    value or ``factor`` underflows), which a scale of sensitivity over a
    tiny epsilon or delta, or an extreme sensitivity, reaches; the result
    would otherwise be infinite, 0 or inaccurate.
    """
    if factor >= _NORMAL_MIN and _NORMAL_MIN <= value < math.inf:
        return value
    cost = "amplitude" if k == 1 else "power"
    raise DomainError(
        f"expected {cost} leaves double range at noise scale {scale!r}"
    )


class NoiseMechanism(ABC):
    """Symmetric additive noise distribution centred at zero.

    Implementations state the array formulas ``_pdf`` and ``_quantile``,
    the two closed-form noise costs, and the half-line mass ``_upper_mass``;
    ``pdf`` and ``quantile`` check their input and call the formulas, and
    ``cdf`` and the default ``_grid_masses`` follow from the half-line mass
    by symmetry.  ``pdf``, ``cdf`` and ``quantile`` refuse a result beyond
    the double range with a DomainError that names the noise.  The public
    surface is the distribution and its costs.
    ``_grid_masses`` and ``_grid_mass_error``, which only
    :func:`dpnoise.verifier.discretize` calls, state the positive half of a
    verifier grid cell by cell; its negative half is the mirror image by
    this symmetry.
    ``sample`` is inverse-transform sampling on a
    caller-supplied uniform generator, so a fixed seed fixes the output and
    the generator can be replaced by a stub (e.g. one that always yields
    the median) in tests.
    """

    @abstractmethod
    def _pdf(self, x: np.ndarray):
        """Density at every element of the finite array ``x``."""

    @abstractmethod
    def _upper_mass(self, a, b):
        """P(a < X <= b) for ``0 <= a <= b <= +inf`` (arrays or scalars that
        broadcast), evaluated from the endpoints themselves so that slices
        far out in the tail keep full relative accuracy."""

    @abstractmethod
    def _quantile(self, u: np.ndarray):
        """Inverse cdf at every element of ``u``, which :meth:`quantile`
        has checked to lie in its domain."""

    @property
    @abstractmethod
    def support(self) -> tuple[float, float]:
        """(lower, upper) edge of the support; infinite edges allowed."""

    @property
    @abstractmethod
    def expected_amplitude(self) -> float:
        """E|X|."""

    @property
    @abstractmethod
    def expected_power(self) -> float:
        """E[X^2]."""

    @property
    def parameters(self) -> dict[str, float]:
        """The numbers that pin this distribution down, by name."""
        return {}

    def cost(self, kind: CostKind) -> float:
        kind = CostKind.parse(kind)
        if kind is CostKind.AMPLITUDE:
            return self.expected_amplitude
        return self.expected_power

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}" for name, value in self.parameters.items())
        return f"{type(self).__name__}({args})"

    def _evaluated(self, what: str, formula, arr: np.ndarray, scalar: bool):
        """``formula(arr)``, as _scalar_or_array returns it, evaluated without
        numpy's overflow and divide warnings; DomainError, naming the noise,
        where a value is beyond the double range."""
        with np.errstate(over="ignore", divide="ignore"):
            values = formula(arr)
        if not np.all(np.isfinite(values)):
            raise DomainError(f"the {what} leaves the double range for {self!r}")
        return _scalar_or_array(values, scalar)

    def pdf(self, x):
        """Density at ``x`` (scalar or array)."""
        return self._evaluated("density", self._pdf, *_as_checked_array(x))

    def quantile(self, u):
        """Inverse cdf on the mechanism's support (scalar or array).

        ``u`` must lie in [0, 1] where the support is bounded, so 0 and 1
        map to its edges, and in (0, 1) where it is not.
        """
        arr, scalar = _as_checked_array(u, "u")
        if all(map(math.isfinite, self.support)):
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise DomainError("quantile argument must lie in [0, 1]")
        elif np.any(arr <= 0.0) or np.any(arr >= 1.0):
            raise DomainError("quantile argument must lie in (0, 1)")
        return self._evaluated("quantile", self._quantile, arr, scalar)

    def cdf(self, x):
        """P(X <= x) (scalar or array), from the mass beyond ``|x|``: that
        mass itself for x < 0, one minus it otherwise."""

        def formula(arr):
            tail = self._upper_mass(np.abs(arr), math.inf)
            return np.where(arr < 0.0, tail, 1.0 - tail)

        return self._evaluated("cdf", formula, *_as_checked_array(x))

    def _grid_masses(self, step: float, half_cells: int):
        """The positive half of a grid of width ``step`` and ``half_cells``
        cells, as a function ``cells(k, out)`` that fills ``out`` and
        returns it: with the cells ``k, k+1, ...`` for an int ``k``, or with
        the cells at the indices of an int array ``k`` of ``out``'s shape.

        Cell ``k`` covers ``[k*step, (k+1)*step)`` and the outermost one,
        ``k = half_cells - 1``, holds the whole tail beyond its left edge,
        so the masses account for the full half line.  The negative half is
        the mirror image, which the verifier reads through.  A cell's
        bits do not depend on which run or indices it is read with.  The
        default takes the masses from ``_upper_mass`` on the edges
        ``step*k``, with the outer edge at +inf; subclasses override it
        where the density's structure gives the masses in closed form.
        """
        last = int(half_cells) - 1

        def cells(k, out: np.ndarray) -> np.ndarray:
            if not isinstance(k, np.ndarray):
                k = np.arange(k, k + out.size)
            upper = np.where(k < last, step * (k + 1), math.inf)
            return np.maximum(self._upper_mass(step * k, upper), 0.0, out=out)

        return cells

    def _grid_mass_error(self, step: float, half_cells: int) -> float:
        """Relative error bound of each of :meth:`_grid_masses`' masses.

        The default masses are differences of the half-line mass at the
        rounded edges ``step*k``, so they carry the grid's width jitter.
        """
        return 2.0 * _width_jitter(2 * int(half_cells))

    def sample(self, rng, n: "int | None" = None):
        """Draw ``n`` samples (or a single scalar when ``n`` is None); ``n``
        must be an integer >= 0 and at most ``_MAX_DRAWS``, the largest
        float64 array numpy can size.

        ``rng`` only needs a ``random(size)`` method returning uniforms in
        [0, 1); ``numpy.random.Generator`` qualifies.
        """
        size = () if n is None else _as_count(n, "n", least=0)
        if n is not None and size > _MAX_DRAWS:  # numpy would refuse the size
            raise DomainError(f"n must be at most {_MAX_DRAWS} draws")
        u = np.asarray(rng.random(size), dtype=float)
        # random() may return exactly 0.0; nudge it onto the open interval
        # so mechanisms with unbounded support keep finite quantiles.  2^-53
        # is the smallest positive draw of numpy's Generator.random, so no
        # other draw moves, and unlike 5e-324 it leaves |u - 1/2| below 1/2.
        u = np.maximum(u, 2.0**-53)
        values = self.quantile(u)
        return values
