"""Parameter sweeps and their output formats.

A sweep tabulates, over an (epsilon, delta) grid, the universal lower
bound on noise cost, the truncated-Laplace upper bound, and the analytic
Gaussian baseline, so the gap between what is achievable and what is
achieved can be plotted directly.  `run_sweep` returns the table as
named columns, one list of floats per column, and `emit` renders it as
CSV, JSON, or a standalone SVG heatmap of the bound ratio.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .baselines import _analytic_sigmas, _gaussian_cost
from .bounds import _bound_table
from .core import (
    CostKind,
    DomainError,
    _as_count,
    _check_delta,
    _require_finite_positive,
    as_sensitivity,
)

__all__ = [
    "SweepConfig",
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
            # np.geomspace refuses a float count late, and takes True as 1;
            # the config keeps the count it is given, so a Python int
            _as_count(getattr(self, name), name, kind=int)
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


# The sweep's columns, in order.
_COLUMNS = (
    "epsilon", "delta", "q_lower", "q_upper", "tl_cost", "gauss_analytic",
    "ratio_bounds", "ratio_tl_gauss",
)


def run_sweep(config: SweepConfig = SweepConfig()) -> dict[str, list[float]]:
    """Tabulate the bounds and the analytic Gaussian baseline over the grid:
    one list of floats per column, keyed by the column names in order,
    epsilon-major and delta-minor.  Costs follow the config's cost kind.

    The upper bound is the calibrated truncated Laplacian's cost, so
    ``q_upper`` and ``tl_cost`` are one list object, kept as two columns
    for readers of either.  The grid runs through one bounds pass
    (:func:`dpnoise.bounds._bound_table`) and one Gaussian calibration
    pass, with no mechanism built per point; the costs and ratios after
    them are array arithmetic, each value the one float operation a point
    on its own would do.  A refused point raises what a point-by-point
    sweep would raise first.
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
    return dict(zip(_COLUMNS, [
        epsilon, delta, q_lower, upper, upper,  # q_upper and tl_cost: one list
        gauss.tolist(),
        (np.array(q_lower) / tl_cost).tolist(),
        (tl_cost / gauss).tolist(),
    ]))


# ---------------------------------------------------------------------------
# Output formats


def _texts(columns: list, spec: str) -> list[list[str]]:
    """Every column's values formatted by ``spec``, each distinct column
    object once (a sweep's ``q_upper`` and ``tl_cost`` are one).  A sweep's
    points share their grid coordinates, one float object for every point
    of an epsilon-run and the delta axis's objects in every run, so the
    epsilon and delta columns format each distinct float object once."""
    texts: dict[int, list[str]] = {}
    for k, column in enumerate(columns):
        if id(column) in texts:
            continue
        if k < 2:  # epsilon and delta, keyed by identity: a key by value
            # would take 0.0 and -0.0 as one
            ids = list(map(id, column))
            text = {i: spec % v for i, v in dict(zip(ids, column)).items()}
            texts[id(column)] = list(map(text.__getitem__, ids))
        else:
            texts[id(column)] = list(map(spec.__mod__, column))
    return [texts[id(column)] for column in columns]


def _csv(columns: list) -> bytes:
    # "%.17g" is format(value, ".17g")
    rows = map(",".join, zip(*_texts(columns, "%.17g")))
    return ("\n".join([",".join(_COLUMNS), *rows]) + "\n").encode("utf-8")


# json.dumps(payload, indent=2)'s layout for one point, with its key
# escaping and its text for a finite float, float.__repr__ (which %r gives)
_JSON_ROW = (
    "  {\n" + ",\n".join(f"    {json.dumps(n)}: %s" for n in _COLUMNS) + "\n  }"
)


def _json(columns: list) -> bytes:
    rows = map(_JSON_ROW.__mod__, zip(*_texts(columns, "%r")))
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
    """Standalone SVG heatmap of the lower/upper bound ratio.  Ratios whose
    span overflows a float would have no shade, and are refused."""
    eps_values = sorted(set(epsilon))
    delta_values = sorted(set(delta))
    cell = dict(zip(zip(epsilon, delta), ratio))
    vmin = min(cell.values())
    vmax = max(cell.values())
    span = (vmax - vmin) or 1.0
    if not math.isfinite(span):
        raise DomainError("svg ratios must span less than the float range")

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


def emit(table: dict, fmt: str = "csv") -> bytes:
    """Render a sweep's table, as :func:`run_sweep` returns it, as "csv",
    "json" or "svg" bytes.

    Refuses with DomainError an unknown format, a table that is not a
    sweep's columns (a dict of equal-length lists, named and ordered as
    :func:`run_sweep` names them), an empty one, and a value that is not a
    finite float.
    """
    columns = list(table.values()) if isinstance(table, dict) else None
    if columns is None or tuple(table) != _COLUMNS or not all(
        type(column) is list and len(column) == len(columns[0]) for column in columns
    ):
        raise DomainError(
            "a table to emit must be a sweep's columns: equal-length lists "
            f"named {', '.join(_COLUMNS)}"
        )
    if not columns[0]:
        raise DomainError("no rows to emit")
    fmt = fmt.lower() if isinstance(fmt, str) else fmt
    if fmt not in ("csv", "json", "svg"):
        raise DomainError(f"unknown output format {fmt!r}")
    for column in columns:
        if set(map(type, column)) - {float} or not all(map(math.isfinite, column)):
            raise DomainError(f"{fmt} rows must hold finite floats only")
    if fmt == "svg":
        return _svg(table["epsilon"], table["delta"], table["ratio_bounds"])
    return (_csv if fmt == "csv" else _json)(columns)
