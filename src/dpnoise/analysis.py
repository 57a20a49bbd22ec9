"""Parameter sweeps and asymptotic-tightness curves.

`run_sweep` tabulates, over an (epsilon, delta) grid, the universal lower
bound on noise cost, the truncated-Laplace upper bound, and the analytic
Gaussian baseline, so the gap between what is achievable and what is
achieved can be plotted directly.  `tightness_curve` follows the three
regimes in which the bound gap has a known limit and tabulates the ratio
against its predicted limit.  `emit` renders row lists as CSV, JSON, or a
standalone SVG heatmap.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .baselines import Gaussian, _analytic_sigmas
from .bounds import bound_pair
from .core import (
    CostKind,
    DomainError,
    PrivacyParams,
    Sensitivity,
    as_sensitivity,
)

__all__ = [
    "SweepConfig",
    "SweepRow",
    "run_sweep",
    "LimitRegime",
    "TightnessRow",
    "tightness_curve",
    "emit",
]

log = logging.getLogger(__name__)


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
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be finite and > 0, got {v!r}")
        if self.eps_min > self.eps_max or self.delta_min > self.delta_max:
            raise DomainError("grid bounds must satisfy min <= max")
        if self.eps_points < 1 or self.delta_points < 1:
            raise DomainError("grid must have at least one point per axis")

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
    columns for readers of either.  :func:`bound_pair` checks the order of
    the bounds.
    """
    sens = as_sensitivity(config.sensitivity)
    kind = config.cost
    eps_values, delta_values = config.axes()
    grid: list[PrivacyParams] = []
    closed_forms: list[tuple[float, float]] = []
    try:
        for eps in eps_values:
            for delta in delta_values:
                params = PrivacyParams(float(eps), float(delta))
                pair = bound_pair(params, sens, kind)
                q_lower = pair.lower if config.fractional_steps else pair.lower_floor
                grid.append(params)
                closed_forms.append((q_lower, pair.upper))
    finally:
        # Calibrate every point the loop got through, even when it stopped on
        # an error: point by point, a failed calibration at an earlier point
        # would have been raised first.
        sigmas_analytic = _analytic_sigmas(
            [p.epsilon for p in grid], [p.delta for p in grid], sens
        ).tolist()
    rows: list[SweepRow] = []
    for params, (q_lower, tl_cost), sigma_analytic in zip(
        grid, closed_forms, sigmas_analytic
    ):
        gauss_analytic = Gaussian(sigma_analytic).cost(kind)
        rows.append(
            SweepRow(
                epsilon=params.epsilon,
                delta=params.delta,
                q_lower=q_lower,
                q_upper=tl_cost,
                tl_cost=tl_cost,
                gauss_analytic=gauss_analytic,
                ratio_bounds=q_lower / tl_cost,
                ratio_tl_gauss=tl_cost / gauss_analytic,
            )
        )
    return rows


class LimitRegime(Enum):
    """Asymptotic regime followed by a tightness curve."""

    EPS_TO_ZERO = "eps-to-zero"
    DELTA_TO_ZERO = "delta-to-zero"
    DIAGONAL = "diagonal"


@dataclass(frozen=True)
class TightnessRow:
    epsilon: float
    delta: float
    q_lower: float
    q_upper: float
    ratio: float
    limit_prediction: float


def _ratio_limit(regime: LimitRegime, kind: CostKind, anchor: float) -> float:
    """Known limit of q_lower / q_upper in each regime."""
    if regime is LimitRegime.EPS_TO_ZERO:
        delta = anchor
        if kind is CostKind.AMPLITUDE:
            return 1.0 - 2.0 * delta
        return (1.0 - delta) * (1.0 - 2.0 * delta)
    if regime is LimitRegime.DELTA_TO_ZERO:
        eps = anchor
        if kind is CostKind.AMPLITUDE:
            return eps / math.expm1(eps)
        return eps * eps * (1.0 + math.exp(eps)) / (2.0 * math.expm1(eps) ** 2)
    return 1.0


def tightness_curve(
    regime: LimitRegime,
    cost: "CostKind | str" = CostKind.AMPLITUDE,
    anchor: "float | None" = None,
    points: int = 12,
    sensitivity: "Sensitivity | float" = 1.0,
    values: "np.ndarray | None" = None,
) -> list[TightnessRow]:
    """Follow one asymptotic regime and tabulate the bound ratio.

    ``anchor`` is the quantity held fixed: the delta for EPS_TO_ZERO
    (default 1e-3), the epsilon for DELTA_TO_ZERO (default 1.0), and for
    DIAGONAL the proportionality constant kappa in delta = kappa*(e^eps - 1)
    (default 1.0).  ``values`` overrides the default geometric schedule of
    the swept variable (epsilon, delta, and epsilon respectively).

    Uses the fractional-step lower bound; the ratio should close in on the
    prediction as the sweep advances, and a drift away from it over the
    last few points is logged as a warning rather than raised, since it
    signals accumulated roundoff rather than a wrong bound.
    """
    sens = as_sensitivity(sensitivity)
    cost = CostKind.parse(cost)
    if points < 2:
        raise DomainError("a tightness curve needs at least 2 points")
    if regime is LimitRegime.EPS_TO_ZERO:
        anchor = 1e-3 if anchor is None else float(anchor)
        swept = np.geomspace(0.1, 1e-7, points) if values is None else values
        pairs = [(float(v), anchor) for v in swept]
    elif regime is LimitRegime.DELTA_TO_ZERO:
        anchor = 1.0 if anchor is None else float(anchor)
        swept = np.geomspace(1e-2, 1e-12, points) if values is None else values
        pairs = [(anchor, float(v)) for v in swept]
    elif regime is LimitRegime.DIAGONAL:
        anchor = 1.0 if anchor is None else float(anchor)
        swept = np.geomspace(0.1, 1e-8, points) if values is None else values
        pairs = [(float(v), anchor * math.expm1(float(v))) for v in swept]
    else:  # pragma: no cover - exhaustive over the enum
        raise DomainError(f"unknown regime {regime!r}")

    prediction = _ratio_limit(regime, cost, anchor)
    rows: list[TightnessRow] = []
    for eps, delta in pairs:
        pair = bound_pair(PrivacyParams(eps, delta), sens, cost)
        rows.append(
            TightnessRow(
                epsilon=eps,
                delta=delta,
                q_lower=pair.lower,
                q_upper=pair.upper,
                ratio=pair.ratio,
                limit_prediction=prediction,
            )
        )

    gaps = [abs(r.ratio - prediction) for r in rows]
    tail = gaps[len(gaps) // 2 :]
    if any(b > a * (1.0 + 1e-9) + 1e-15 for a, b in zip(tail, tail[1:])):
        log.warning(
            "tightness ratio drifts away from its %s limit over the last "
            "points; the swept variable may be past float precision",
            regime.value,
        )
    return rows


# ---------------------------------------------------------------------------
# Output formats


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _rows_to_csv(rows: list) -> bytes:
    names = [f.name for f in dataclasses.fields(rows[0])]
    lines = [",".join(names)]
    for row in rows:
        lines.append(
            ",".join(_format_value(getattr(row, n)) for n in names)
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def _rows_to_json(rows: list) -> bytes:
    # A shallow dict per row: the fields are plain values, and asdict's deep
    # copy is most of the emitter's time on a large sweep.
    names = [f.name for f in dataclasses.fields(rows[0])]
    payload = [{n: getattr(row, n) for n in names} for row in rows]
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


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
    rgb = [
        round(255 * ((1 - t) * _VIRIDIS[i][k] + t * _VIRIDIS[i + 1][k]))
        for k in range(3)
    ]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


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
    for ix, eps in enumerate(eps_values):
        for iy, delta in enumerate(delta_values):
            ratio = cell.get((eps, delta))
            if ratio is None:
                continue
            x = left + ix * cw
            # delta grows upward
            y = top + height - (iy + 1) * ch
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw + 0.3:.2f}" '
                f'height="{ch + 0.3:.2f}" fill="{_color((ratio - vmin) / span)}">'
                f"<title>eps={eps:.6g}, delta={delta:.6g}, "
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
    """Render sweep or tightness rows as csv, json, or svg bytes."""
    if not rows:
        raise DomainError("no rows to emit")
    fmt = fmt.lower()
    if fmt == "csv":
        return _rows_to_csv(rows)
    if fmt == "json":
        return _rows_to_json(rows)
    if fmt == "svg":
        if not isinstance(rows[0], SweepRow):
            raise DomainError("svg output is only defined for sweep rows")
        return _rows_to_svg(rows)
    raise DomainError(f"unknown output format {fmt!r}")
