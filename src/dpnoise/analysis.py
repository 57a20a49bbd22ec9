"""Parameter sweeps and their output formats.

A sweep tabulates, over an (epsilon, delta) grid, the universal lower
bound on noise cost, the truncated-Laplace upper bound, and the analytic
Gaussian baseline, so the gap between what is achievable and what is
achieved can be plotted directly.  The table is held as columns, one list
per :class:`SweepRow` field; `run_sweep` makes rows of it for library
callers, and ``dpnoise sweep`` writes it as it is.  One emitter renders a
table of columns as CSV, JSON, or a standalone SVG heatmap; `emit` splits
a list of dataclass rows into columns and renders those.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .baselines import _analytic_sigmas, _gaussian_cost
from .bounds import _bound_table
from .core import (
    CostKind,
    DomainError,
    _check_delta,
    _require_finite_positive,
    as_sensitivity,
)

__all__ = [
    "SweepConfig",
    "SweepRow",
    "run_sweep",
    "emit",
]


@dataclass(frozen=True)
class SweepConfig:
    """Grid and cost conventions for a bounds-vs-baselines sweep."""

    eps_min: float = 1e-4
    eps_max: float = 10.0
    eps_points: int = 20
    delta_min: float = 1e-6
    delta_max: float = 0.1
    delta_points: int = 20
    sensitivity: float = 1.0
    cost: CostKind = CostKind.AMPLITUDE
    fractional_steps: bool = True

    def __post_init__(self) -> None:
        for name in ("eps_min", "eps_max", "delta_min", "delta_max"):
            value = _require_finite_positive(getattr(self, name), name)
            object.__setattr__(self, name, value)
        if self.eps_min > self.eps_max or self.delta_min > self.delta_max:
            raise DomainError("grid bounds must satisfy min <= max")
        for name in ("eps_points", "delta_points"):
            # np.geomspace refuses a float count late, and takes True as 1
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise DomainError(f"{name} must be an integer >= 1, got {value!r}")
        object.__setattr__(
            self, "sensitivity", as_sensitivity(self.sensitivity).value
        )
        object.__setattr__(self, "cost", CostKind.parse(self.cost))
        if not isinstance(self.fractional_steps, bool):
            # a truthy string such as "floor" would pass for the fractional
            # bound
            raise DomainError(
                f"fractional_steps must be a bool, got {self.fractional_steps!r}"
            )

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        eps = np.geomspace(self.eps_min, self.eps_max, self.eps_points)
        deltas = np.geomspace(self.delta_min, self.delta_max, self.delta_points)
        return eps, deltas


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep; costs follow the sweep's cost kind."""

    epsilon: float
    delta: float
    q_lower: float
    q_upper: float
    tl_cost: float
    gauss_analytic: float
    ratio_bounds: float
    ratio_tl_gauss: float


def _sweep_table(config: SweepConfig) -> list[list[float]]:
    """The sweep as one list per :class:`SweepRow` field, in field order.

    The upper bound is the calibrated truncated Laplacian's cost, so
    ``q_upper`` and ``tl_cost`` are one list object.  The grid runs
    epsilon-major through one bounds pass (:func:`dpnoise.bounds._bound_table`)
    and one Gaussian calibration pass, with no mechanism built per point;
    the costs and ratios after them are array arithmetic, each value the
    one float operation a point on its own would do.  A refused point
    raises what a point-by-point sweep would raise first.
    """
    sens = as_sensitivity(config.sensitivity)
    kind = config.cost
    eps_axis, delta_axis = (axis.tolist() for axis in config.axes())
    # The epsilons lie between SweepConfig's finite, positive bounds, but a
    # delta of 1/2 or more is out of range; point by point, it is refused
    # first in the first row.
    stop, refusal = len(eps_axis) * len(delta_axis), None
    for j, dlt in enumerate(delta_axis):
        try:
            _check_delta(dlt)
        except DomainError as exc:
            stop, refusal = j, exc
            break
    epsilon = [eps for eps in eps_axis for _ in delta_axis][:stop]
    delta = (delta_axis * len(eps_axis))[:stop]
    lower, lower_floor, upper, error = _bound_table(epsilon, delta, sens.value, kind)
    if error is None:
        error = refusal
    # Calibrate every point the bounds got through, even when they stopped
    # on an error: point by point, a failed calibration at an earlier point
    # would have been raised first.
    sigmas = _analytic_sigmas(epsilon[: len(upper)], delta[: len(upper)], sens)
    if error is not None:
        raise error
    q_lower = lower if config.fractional_steps else lower_floor
    gauss = _gaussian_cost(sigmas, kind)
    tl_cost = np.array(upper)
    return [
        epsilon, delta, q_lower, upper, upper,  # q_upper and tl_cost: one list
        gauss.tolist(),
        (np.array(q_lower) / tl_cost).tolist(),
        (tl_cost / gauss).tolist(),
    ]


def run_sweep(config: SweepConfig = SweepConfig()) -> list[SweepRow]:
    """Tabulate bounds and the analytic Gaussian baseline over the grid,
    one :class:`SweepRow` per point, epsilon-major; each row's ``q_upper``
    and ``tl_cost`` are the same number, kept as two columns for readers of
    either."""
    return list(map(SweepRow, *_sweep_table(config)))


# ---------------------------------------------------------------------------
# Output formats


_SWEEP_FIELDS = tuple(f.name for f in dataclasses.fields(SweepRow))

# A sweep's rows share their grid coordinates: one float object for every
# row of an epsilon-run, and the delta axis's objects in every run.
_AXES = ("epsilon", "delta")


def _texts(names: list[str], columns: list, spec: str) -> list[list[str]]:
    """Every column's values formatted by ``spec``, each distinct column
    object once (a sweep's ``q_upper`` and ``tl_cost`` are one), and in a
    grid coordinate column each distinct float object once.  Every value
    must be a finite float, as every value of a sweep is."""
    texts: dict[int, list[str]] = {}
    for name, column in zip(names, columns):
        if id(column) in texts:
            continue
        if set(map(type, column)) - {float} or not all(map(math.isfinite, column)):
            raise DomainError("csv and json rows must hold finite floats only")
        if name in _AXES:
            # keyed by identity: a key by value would take 0.0 and -0.0 as one
            ids = list(map(id, column))
            text = {i: spec % v for i, v in dict(zip(ids, column)).items()}
            texts[id(column)] = list(map(text.__getitem__, ids))
        else:
            texts[id(column)] = list(map(spec.__mod__, column))
    return [texts[id(column)] for column in columns]


def _csv(names: list[str], columns: list) -> bytes:
    # "%.17g" is format(value, ".17g")
    rows = map(",".join, zip(*_texts(names, columns, "%.17g")))
    return ("\n".join([",".join(names), *rows]) + "\n").encode("utf-8")


def _json(names: list[str], columns: list) -> bytes:
    # json.dumps(payload, indent=2)'s layout, with its key escaping and its
    # text for a finite float, float.__repr__ (which %r gives)
    row = "  {\n" + ",\n".join(f"    {json.dumps(n)}: %s" for n in names) + "\n  }"
    rows = map(row.__mod__, zip(*_texts(names, columns, "%r")))
    return ("[\n" + ",\n".join(rows) + "\n]\n").encode("utf-8")


_VIRIDIS = np.array([
    (0.267, 0.005, 0.329),
    (0.283, 0.141, 0.458),
    (0.254, 0.265, 0.530),
    (0.207, 0.372, 0.553),
    (0.164, 0.471, 0.558),
    (0.128, 0.567, 0.551),
    (0.135, 0.659, 0.518),
    (0.267, 0.749, 0.441),
    (0.478, 0.821, 0.318),
    (0.741, 0.873, 0.150),
    (0.993, 0.906, 0.144),
])


def _colors(v: np.ndarray) -> list[str]:
    """The ``#rrggbb`` viridis colour of each value, clamped to [0, 1]:
    the two nearest stops mixed linearly, each channel rounded half to
    even."""
    v = np.minimum(np.maximum(v, 0.0), 1.0)
    pos = v * (len(_VIRIDIS) - 1)
    i = np.minimum(pos.astype(np.intp), len(_VIRIDIS) - 2)
    t = (pos - i)[:, None]
    rgb = np.rint(255 * ((1 - t) * _VIRIDIS[i] + t * _VIRIDIS[i + 1])).astype(np.intp)
    return list(map("#%06x".__mod__, (rgb @ [65536, 256, 1]).tolist()))


def _svg(epsilon: list, delta: list, ratio: list) -> bytes:
    """Standalone SVG heatmap of the lower/upper bound ratio.  A value that
    is not finite, or ratios whose span overflows a float, would have no
    place or shade, and are refused."""
    eps_values = sorted(set(epsilon))
    delta_values = sorted(set(delta))
    cell = dict(zip(zip(epsilon, delta), ratio))
    vmin = min(cell.values())
    vmax = max(cell.values())
    span = (vmax - vmin) or 1.0
    if not all(map(math.isfinite, [*eps_values, *delta_values, *ratio, span])):
        raise DomainError(
            "svg rows must hold finite epsilon, delta and ratio_bounds, "
            "with ratios that span less than the float range"
        )

    left, top, width, height = 90, 50, 560, 400
    cw = width / len(eps_values)
    ch = height / len(delta_values)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="540" '
        'viewBox="0 0 800 540" font-family="sans-serif" font-size="12">',
        '<rect width="800" height="540" fill="white"/>',
        '<text x="370" y="24" text-anchor="middle" font-size="15">'
        "Achievable-vs-optimal noise cost ratio (lower/upper bound)</text>",
    ]
    # each column's x and epsilon and each row's y and delta are formatted
    # once, not once per cell
    columns = [
        (eps, f"{left + ix * cw:.2f}", f"{eps:.6g}")
        for ix, eps in enumerate(eps_values)
    ]
    # delta grows upward
    rows_y = [
        (delta, f"{top + height - (iy + 1) * ch:.2f}", f"{delta:.6g}")
        for iy, delta in enumerate(delta_values)
    ]
    cells = [
        (x, y, eps_text, delta_text, cell.get((eps, delta)))
        for eps, x, eps_text in columns
        for delta, y, delta_text in rows_y
    ]
    cells = [c for c in cells if c[-1] is not None]
    # every cell's colour and the colorbar's, in one pass
    bar_x, bar_w, steps = left + width + 30, 18, 32
    shades = (np.array([c[-1] for c in cells], dtype=float) - vmin) / span
    fills = _colors(np.concatenate([shades, np.arange(steps) / (steps - 1)]))
    rect = (
        f'<rect x="%s" y="%s" width="{cw + 0.3:.2f}" height="{ch + 0.3:.2f}" '
        'fill="%s"><title>eps=%s, delta=%s, ratio=%.6g</title></rect>'
    )
    parts += [
        rect % (x, y, fill, eps_text, delta_text, r)
        for (x, y, eps_text, delta_text, r), fill in zip(cells, fills)
    ]
    # axes
    for ix in range(0, len(eps_values), max(1, len(eps_values) // 8)):
        eps = eps_values[ix]
        x = left + (ix + 0.5) * cw
        parts.append(
            f'<text x="{x:.2f}" y="{top + height + 18}" text-anchor="middle">'
            f"{eps:.1e}</text>"
        )
    for iy in range(0, len(delta_values), max(1, len(delta_values) // 8)):
        delta = delta_values[iy]
        y = top + height - (iy + 0.5) * ch
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.2f}" text-anchor="end">'
            f"{delta:.1e}</text>"
        )
    parts.append(
        f'<text x="{left + width / 2}" y="{top + height + 44}" '
        'text-anchor="middle">epsilon</text>'
    )
    parts.append(
        f'<text x="20" y="{top + height / 2}" text-anchor="middle" '
        f'transform="rotate(-90 20 {top + height / 2})">delta</text>'
    )
    # colorbar
    for k, fill in enumerate(fills[len(cells):]):
        y = top + height * (1 - (k + 1) / steps)
        parts.append(
            f'<rect x="{bar_x}" y="{y:.2f}" width="{bar_w}" '
            f'height="{height / steps + 0.3:.2f}" fill="{fill}"/>'
        )
    for frac, value in ((0.0, vmin), (0.5, vmin + span / 2), (1.0, vmax)):
        y = top + height * (1 - frac)
        parts.append(
            f'<text x="{bar_x + bar_w + 6}" y="{y + 4:.2f}">{value:.3g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts).encode("utf-8")


def _emit_table(columns: list, fmt: str, names=_SWEEP_FIELDS) -> bytes:
    """Render a table of columns, by default a sweep's, as "csv", "json"
    or "svg" bytes."""
    if fmt == "svg":
        by_name = dict(zip(names, columns))
        return _svg(by_name["epsilon"], by_name["delta"], by_name["ratio_bounds"])
    return (_csv if fmt == "csv" else _json)(names, columns)


def emit(rows: list, fmt: str = "csv") -> bytes:
    """Render rows, instances of one dataclass, as csv, json, or svg bytes
    (svg for sweep rows only); csv and json refuse a value that is not a
    finite float, and svg an epsilon, delta or ratio_bounds that is not
    finite, with DomainError."""
    if not rows:
        raise DomainError("no rows to emit")
    fmt = fmt.lower() if isinstance(fmt, str) else fmt
    if fmt not in ("csv", "json", "svg"):
        raise DomainError(f"unknown output format {fmt!r}")
    row_type = type(rows[0])
    fields = dataclasses.fields(row_type) if dataclasses.is_dataclass(row_type) else ()
    if not fields or set(map(type, rows)) != {row_type}:
        raise DomainError("rows must be instances of one dataclass with fields")
    if fmt == "svg" and not issubclass(row_type, SweepRow):
        raise DomainError("svg output is only defined for sweep rows")
    names = [f.name for f in fields]
    return _emit_table([list(map(attrgetter(n), rows)) for n in names], fmt, names)
