"""Parameter sweeps and their output formats.

`run_sweep` tabulates, over an (epsilon, delta) grid, the universal lower
bound on noise cost, the truncated-Laplace upper bound, and the analytic
Gaussian baseline, so the gap between what is achievable and what is
achieved can be plotted directly.  `emit` renders row lists as CSV, JSON,
or a standalone SVG heatmap.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from itertools import chain
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


def run_sweep(config: SweepConfig = SweepConfig()) -> list[SweepRow]:
    """Tabulate bounds and the analytic Gaussian baseline over the grid.

    The upper bound is the calibrated truncated Laplacian's cost, so each
    row's ``q_upper`` and ``tl_cost`` are the same number, kept as two
    columns for readers of either.  The grid runs epsilon-major through one
    bounds pass (:func:`dpnoise.bounds._bound_table`, which takes the terms
    of epsilon alone once per run of equal epsilon and checks the order of
    the bounds) and one Gaussian calibration pass, whose sigmas give each
    row's Gaussian cost directly, with no mechanism built per row; a
    refused point raises what a point-by-point sweep would raise first.
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
    done = len(upper)
    sigmas_analytic = _analytic_sigmas(epsilon[:done], delta[:done], sens).tolist()
    if error is not None:
        raise error
    rows: list[SweepRow] = []
    q_lowers = lower if config.fractional_steps else lower_floor
    for eps, dlt, q_lower, tl_cost, sigma_analytic in zip(
        epsilon, delta, q_lowers, upper, sigmas_analytic
    ):
        gauss_analytic = _gaussian_cost(sigma_analytic, kind)
        # positional, in field order: keywords double the cost of a row
        rows.append(
            SweepRow(
                eps,
                dlt,
                q_lower,
                tl_cost,  # q_upper
                tl_cost,
                gauss_analytic,
                q_lower / tl_cost,
                tl_cost / gauss_analytic,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Output formats


# A sweep's rows share their grid coordinates: one float object for every
# row of an epsilon-run, and the delta axis's objects in every run.
_AXES = ("epsilon", "delta")


def _float_table(rows: list, spec: str) -> tuple[list[str], list[str], list]:
    """The field names of ``rows`` and every row's values of them, row
    after row, in one flat list, with the %-conversion for each field:
    ``spec``, but ``%s`` for the grid coordinates, which the list holds
    already formatted by ``spec``, each distinct float object once.  Every
    value must be a finite float, as every field of a sweep row is."""
    names = [f.name for f in dataclasses.fields(rows[0])]
    values = list(chain.from_iterable(map(attrgetter(*names), rows)))
    if set(map(type, values)) - {float} or not all(map(math.isfinite, values)):
        raise DomainError("csv and json rows must hold finite floats only")
    specs = [spec] * len(names)
    for k, name in enumerate(names):
        if name in _AXES:
            # keyed by identity: a key by value would take 0.0 and -0.0 as one
            column = values[k :: len(names)]
            ids = list(map(id, column))
            text = {i: spec % v for i, v in dict(zip(ids, column)).items()}
            values[k :: len(names)] = map(text.__getitem__, ids)
            specs[k] = "%s"
    return names, specs, values


# Each emitter below fills one %-template for the whole table, with the
# grid coordinates formatted once per distinct object by _float_table.


def _rows_to_csv(rows: list) -> bytes:
    names, specs, values = _float_table(rows, "%.17g")  # format(value, ".17g")
    line = ",".join(specs) + "\n"
    body = (line * len(rows)) % tuple(values)
    return (",".join(names) + "\n" + body).encode("utf-8")


def _rows_to_json(rows: list) -> bytes:
    # json.dumps(payload, indent=2)'s layout, with its key escaping and its
    # text for a finite float, float.__repr__ (which %r gives)
    names, specs, values = _float_table(rows, "%r")
    row = "  {\n" + ",\n".join(
        f"    {json.dumps(n)}: {c}" for n, c in zip(names, specs)
    ) + "\n  }"
    body = ",\n".join([row] * len(rows)) % tuple(values)
    return ("[\n" + body + "\n]\n").encode("utf-8")


_VIRIDIS = [
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
]


def _color(v: float) -> str:
    v = min(max(v, 0.0), 1.0)
    pos = v * (len(_VIRIDIS) - 1)
    i = min(int(pos), len(_VIRIDIS) - 2)
    t = pos - i
    s = 1 - t
    (r0, g0, b0), (r1, g1, b1) = _VIRIDIS[i], _VIRIDIS[i + 1]
    return "#%02x%02x%02x" % (
        round(255 * (s * r0 + t * r1)),
        round(255 * (s * g0 + t * g1)),
        round(255 * (s * b0 + t * b1)),
    )


def _rows_to_svg(rows: list[SweepRow]) -> bytes:
    """Standalone SVG heatmap of the lower/upper bound ratio."""
    eps_values = sorted({r.epsilon for r in rows})
    delta_values = sorted({r.delta for r in rows})
    cell = {(r.epsilon, r.delta): r.ratio_bounds for r in rows}
    vmin = min(cell.values())
    vmax = max(cell.values())
    span = (vmax - vmin) or 1.0

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
    cell_w, cell_h = f"{cw + 0.3:.2f}", f"{ch + 0.3:.2f}"
    for eps, x, eps_text in columns:
        for delta, y, delta_text in rows_y:
            ratio = cell.get((eps, delta))
            if ratio is None:
                continue
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_w}" '
                f'height="{cell_h}" fill="{_color((ratio - vmin) / span)}">'
                f"<title>eps={eps_text}, delta={delta_text}, "
                f"ratio={ratio:.6g}</title></rect>"
            )
    # axes
    every_x = max(1, len(eps_values) // 8)
    for ix, eps in enumerate(eps_values):
        if ix % every_x:
            continue
        x = left + (ix + 0.5) * cw
        parts.append(
            f'<text x="{x:.2f}" y="{top + height + 18}" text-anchor="middle">'
            f"{eps:.1e}</text>"
        )
    every_y = max(1, len(delta_values) // 8)
    for iy, delta in enumerate(delta_values):
        if iy % every_y:
            continue
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
    bar_x, bar_w, steps = left + width + 30, 18, 32
    for k in range(steps):
        frac = k / (steps - 1)
        y = top + height * (1 - (k + 1) / steps)
        parts.append(
            f'<rect x="{bar_x}" y="{y:.2f}" width="{bar_w}" '
            f'height="{height / steps + 0.3:.2f}" fill="{_color(frac)}"/>'
        )
    for frac, value in ((0.0, vmin), (0.5, vmin + span / 2), (1.0, vmax)):
        y = top + height * (1 - frac)
        parts.append(
            f'<text x="{bar_x + bar_w + 6}" y="{y + 4:.2f}">{value:.3g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts).encode("utf-8")


def emit(rows: list, fmt: str = "csv") -> bytes:
    """Render sweep rows as csv, json, or svg bytes; csv and json take any
    dataclass rows and refuse a value that is not a finite float with
    DomainError."""
    if not rows:
        raise DomainError("no rows to emit")
    fmt = fmt.lower() if isinstance(fmt, str) else fmt
    if fmt == "csv":
        return _rows_to_csv(rows)
    if fmt == "json":
        return _rows_to_json(rows)
    if fmt == "svg":
        if not isinstance(rows[0], SweepRow):
            raise DomainError("svg output is only defined for sweep rows")
        return _rows_to_svg(rows)
    raise DomainError(f"unknown output format {fmt!r}")
