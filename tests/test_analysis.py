import csv
import dataclasses
import io
import json
import logging
import math
import xml.etree.ElementTree as ET
from collections import Counter

import numpy as np
import pytest

from dpnoise.analysis import SweepConfig, emit, run_sweep
from dpnoise import bounds
from dpnoise.baselines import Gaussian, analytic_gaussian_sigma
from dpnoise.bounds import BoundPair
from dpnoise.cli import main
from dpnoise.core import ConvergenceError, CostKind, DomainError, PrivacyParams
from dpnoise.trunclap import TruncatedLaplace
from test_bounds import REGIME_PATHS
from test_core import NOT_REAL

COLUMNS = [
    "epsilon",
    "delta",
    "q_lower",
    "q_upper",
    "tl_cost",
    "gauss_analytic",
    "ratio_bounds",
    "ratio_tl_gauss",
]

# The reference emitters below read rows: one per point, a field per column.
Row = dataclasses.make_dataclass("Row", COLUMNS, frozen=True)


def rows_of(table):
    return list(map(Row, *table.values()))


def table_of(*points):
    """A sweep's table from its points, each a value per column."""
    return dict(zip(COLUMNS, map(list, zip(*points))))


SMALL = SweepConfig(
    eps_min=0.1,
    eps_max=2.0,
    eps_points=3,
    delta_min=1e-5,
    delta_max=1e-3,
    delta_points=3,
)


class TestSweepConfig:
    def test_defaults(self):
        cfg = SweepConfig()
        eps, deltas = cfg.axes()
        assert eps.size == 20 and deltas.size == 20
        assert eps[0] == pytest.approx(1e-4) and eps[-1] == pytest.approx(10.0)
        assert deltas[0] == pytest.approx(1e-6)
        assert deltas[-1] == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(DomainError):
            SweepConfig(eps_min=0.0)
        with pytest.raises(DomainError):
            SweepConfig(eps_min=2.0, eps_max=1.0)
        with pytest.raises(DomainError):
            SweepConfig(delta_points=0)
        with pytest.raises(DomainError):
            SweepConfig(delta_min=math.nan)
        with pytest.raises(DomainError, match="fractional_steps must be a bool"):
            SweepConfig(fractional_steps="floor")  # took the fractional bound

    @pytest.mark.parametrize("bad", [True, "1", None, 0.0, math.inf])
    def test_sensitivity_is_checked_at_construction(self, bad):
        # True swept at sensitivity 1.0, and "1" failed only in run_sweep
        with pytest.raises(DomainError, match="^sensitivity must be"):
            SweepConfig(sensitivity=bad)
        assert type(SweepConfig(sensitivity=2).sensitivity) is float

    @pytest.mark.parametrize("bad", NOT_REAL)
    @pytest.mark.parametrize(
        "name", ["eps_min", "eps_max", "delta_min", "delta_max", "sensitivity"]
    )
    def test_refuses_what_is_not_a_real_number(self, name, bad):
        # 10**400 raised OverflowError
        with pytest.raises(DomainError, match=f"^{name} must be a real number"):
            SweepConfig(**{name: bad})

    @pytest.mark.parametrize("axis", ["eps_points", "delta_points"])
    @pytest.mark.parametrize(
        "count", [2.5, 3.0, True, False, 0, -1, "3", None, np.int64(3)]
    )
    def test_point_counts_are_ints(self, axis, count):
        # 2.5 passed construction and ended in np.geomspace's TypeError;
        # True made a 1-point axis
        with pytest.raises(DomainError, match=rf"^{axis} must be an integer >= 1"):
            SweepConfig(**{axis: count})

    @pytest.mark.parametrize("cost", list(CostKind))
    def test_string_cost_is_the_enum(self, cost):
        # a string cost took the power branch of the bounds pass, while the
        # Gaussian column parsed it: ratio_tl_gauss read 11147.9 for 0.6698
        # at (1e-4, 1e-6)
        by_text = SweepConfig(cost=f" {cost.value.upper()} ")
        assert by_text.cost is cost
        assert run_sweep(by_text) == run_sweep(SweepConfig(cost=cost))
        with pytest.raises(DomainError, match="unknown cost kind"):
            SweepConfig(cost="variance")

    def test_single_point_axis(self):
        cfg = SweepConfig(eps_min=0.5, eps_max=0.5, eps_points=1)
        eps, _ = cfg.axes()
        np.testing.assert_array_equal(eps, [0.5])


class TestRunSweep:
    def test_grid_shape_and_order(self):
        table = run_sweep(SMALL)
        assert list(table) == COLUMNS
        assert all(type(column) is list for column in table.values())
        # the upper bound is the truncated Laplacian's cost: one list
        assert table["q_upper"] is table["tl_cost"]
        rows = rows_of(table)
        assert len(rows) == 9
        # epsilon-major, delta-minor ordering
        assert rows[0].epsilon == rows[1].epsilon == rows[2].epsilon
        assert rows[0].delta < rows[1].delta < rows[2].delta
        assert rows[0].epsilon < rows[3].epsilon

    def test_row_invariants(self):
        for row in rows_of(run_sweep(SMALL)):
            assert 0.0 < row.q_lower <= row.q_upper
            assert row.ratio_bounds == pytest.approx(
                row.q_lower / row.q_upper, rel=1e-15
            )
            assert row.ratio_bounds < 1.0
            assert row.tl_cost == row.q_upper
            assert row.ratio_tl_gauss == pytest.approx(
                row.tl_cost / row.gauss_analytic, rel=1e-15
            )

    def test_truncated_laplace_beats_gaussian(self):
        assert all(r < 1.0 for r in run_sweep(SMALL)["ratio_tl_gauss"])

    def test_analytic_gaussian_beats_classic_in_proof_range(self):
        # The textbook sigma = sens * sqrt(2 ln(1.25/delta)) / eps is proven
        # for eps in (0, 1) only.
        for row in rows_of(run_sweep(SMALL)):
            if row.epsilon < 1.0:
                textbook = math.sqrt(2.0 * math.log(1.25 / row.delta)) / row.epsilon
                assert row.gauss_analytic <= Gaussian(textbook).cost(SMALL.cost)

    def test_floor_steps_variant_is_weaker(self):
        frac = rows_of(run_sweep(SMALL))
        floor = rows_of(run_sweep(
            SweepConfig(**{**SMALL.__dict__, "fractional_steps": False})
        ))
        for a, b in zip(floor, frac):
            assert a.q_lower <= b.q_lower
            assert a.q_upper == b.q_upper

    def test_power_cost_kind(self):
        rows = rows_of(
            run_sweep(SweepConfig(**{**SMALL.__dict__, "cost": CostKind.POWER}))
        )
        for row in rows:
            # power costs are sigma^2 for the Gaussian entries
            assert row.gauss_analytic > 0.0
            assert row.q_lower <= row.q_upper

    def test_logs_nothing_and_warns_nothing(self, caplog):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with caplog.at_level(logging.DEBUG, logger="dpnoise"):
                run_sweep(SMALL)  # grid reaches eps=2 > 1
        assert caplog.records == []

    def test_failed_calibration_outranks_a_later_closed_form_error(self):
        # At eps = 1e-140 every Gaussian calibration fails and the closed
        # forms fail from the 7th delta on; point by point, the first
        # point's calibration error comes first.
        config = SweepConfig(
            eps_min=1e-140, eps_max=1e-140, eps_points=1,
            delta_min=1e-300, delta_max=0.49, delta_points=12,
        )
        with pytest.raises(ConvergenceError, match="from below"):
            run_sweep(config)

    @pytest.mark.parametrize(
        "eps_min, message",
        [
            (0.1, r"^delta must lie strictly inside \(0, 0\.5\), got 0\.7$"),
            (1e-170, r"^epsilon=1e-170 is too small"),
        ],
    )
    def test_first_refused_point_is_the_point_by_point_one(self, eps_min, message):
        # the last delta is out of range; with eps_min = 1e-170 the closed
        # forms refuse point 0 before that delta is reached
        config = SweepConfig(
            eps_min=eps_min, eps_max=2.0, eps_points=3,
            delta_min=0.1, delta_max=0.7, delta_points=4,
        )
        with pytest.raises(DomainError, match=message):
            run_sweep(config)

    @pytest.mark.parametrize("sens", [1.0, 3.0])
    @pytest.mark.parametrize("cost", [CostKind.AMPLITUDE, CostKind.POWER])
    def test_gauss_analytic_is_the_one_point_calibration(self, cost, sens, caplog):
        config = SweepConfig(
            eps_points=15, delta_points=15, sensitivity=sens, cost=cost
        )
        with caplog.at_level(logging.DEBUG, logger="dpnoise"):
            rows = rows_of(run_sweep(config))
        for row in rows:
            sigma = analytic_gaussian_sigma(PrivacyParams(row.epsilon, row.delta), sens)
            assert row.gauss_analytic == Gaussian(sigma).cost(cost)
        # 3 of the 15 epsilons are >= 1, where nothing is logged either
        assert caplog.records == []


@pytest.fixture(scope="module")
def table():
    return run_sweep(SMALL)


class TestEmit:
    def test_csv_round_trip(self, table):
        blob = emit(table, "csv")
        reader = csv.DictReader(io.StringIO(blob.decode("utf-8")))
        parsed = list(reader)
        rows = rows_of(table)
        assert len(parsed) == len(rows)
        assert reader.fieldnames == COLUMNS
        # %.17g serialization round-trips float64 exactly
        for rec, row in zip(parsed, rows):
            assert float(rec["q_lower"]) == row.q_lower
            assert float(rec["ratio_bounds"]) == row.ratio_bounds

    def test_csv_deterministic(self, table):
        assert emit(table, "csv") == emit(table, "csv")

    def test_json(self, table):
        payload = json.loads(emit(table, "json"))
        assert len(payload) == len(table["epsilon"])
        assert payload[0]["epsilon"] == table["epsilon"][0]
        assert list(payload[0]) == COLUMNS

    def test_svg_well_formed(self, table):
        blob = emit(table, "svg")
        root = ET.fromstring(blob)
        assert root.tag.endswith("svg")
        rects = root.findall(".//{http://www.w3.org/2000/svg}rect")
        assert len(rects) >= len(table["epsilon"])
        text = blob.decode("utf-8")
        assert "epsilon" in text and "delta" in text

    def test_svg_deterministic(self, table):
        assert emit(table, "svg") == emit(table, "svg")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["epsilon", "delta", "ratio_bounds"])
    def test_svg_refuses_what_has_no_place_or_shade(self, field, value):
        # a NaN or infinite ratio ended in int(NaN)'s bare ValueError, and
        # an epsilon or delta that is not finite was drawn as "nan" or "inf"
        good = dict(zip(COLUMNS, [0.1, 1e-5, 1.0, 2.0, 2.0, 4.0, 0.5, 0.5]))
        bad = {**good, "epsilon": 0.2, field: value}
        with pytest.raises(DomainError, match="^svg rows must hold finite"):
            emit(table_of(good.values(), bad.values()), "svg")
        # ratios a float holds, but whose span it does not
        far = table_of({**good, "ratio_bounds": 1e308}.values(),
                       {**good, "epsilon": 0.2, "ratio_bounds": -1e308}.values())
        with pytest.raises(DomainError, match="span less than the float range"):
            emit(far, "svg")

    def test_svg_only_for_sweeps(self):
        # a table of other columns has no place in any format: csv and json
        # took rows of any dataclass, svg only a sweep's
        points = {"epsilon": [0.1, 0.2], "delta": [1e-5, 1e-5], "ratio": [0.5, 0.75]}
        for fmt in ("csv", "json", "svg"):
            with pytest.raises(DomainError, match="sweep's columns"):
                emit(points, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    def test_table_must_be_a_sweeps_columns(self, table, fmt):
        # the eight columns by name and in order, as equal-length lists
        reordered = dict(zip(COLUMNS[::-1], table.values()))
        for bad in (rows_of(table), [1.0], {}, None, tuple(table.values()),
                    {n: table[n] for n in COLUMNS[:-1]},
                    {**table, "ratio": table["ratio_bounds"]}, reordered,
                    {**table, "delta": table["delta"][:-1]},
                    {**table, "q_lower": tuple(table["q_lower"])},
                    {**table, "gauss_analytic": np.array(table["gauss_analytic"])}):
            with pytest.raises(DomainError, match="sweep's columns"):
                emit(bad, fmt)

    def test_rejects_empty_and_unknown(self, table):
        with pytest.raises(DomainError, match="^no rows to emit$"):
            emit({name: [] for name in COLUMNS}, "csv")
        with pytest.raises(DomainError):
            emit([], "csv")
        with pytest.raises(DomainError):
            emit(table, "pdf")
        with pytest.raises(DomainError, match="unknown output format None"):
            emit(table, None)  # was an AttributeError from None.lower()


class TestSweepBuildsNoPerPointObjects:
    """A timer-free performance guard: the number of parameter, mechanism
    and bound objects a sweep builds does not grow with its grid."""

    COUNTED = [
        (PrivacyParams, "__init__"),
        (TruncatedLaplace, "__init__"),
        (Gaussian, "__init__"),
        (BoundPair, "__init__"),
        (bounds, "bound_pair"),
    ]

    @staticmethod
    def counter(monkeypatch, counted):
        counts = Counter()
        for owner, name in counted:
            original = getattr(owner, name)
            key = getattr(owner, "__name__", "") + "." + name

            def counting(*args, _original=original, _key=key, **kwargs):
                counts[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
        return counts

    def test_counts_do_not_grow_with_the_grid(self, monkeypatch):
        counts = self.counter(monkeypatch, self.COUNTED)
        by_size = {}
        for points in (10, 30):
            counts.clear()
            run_sweep(SweepConfig(eps_points=points, delta_points=points))
            by_size[points] = dict(counts)
        assert by_size[10] == by_size[30]
        # the counters see these objects where they are built
        counts.clear()
        bounds.bound_pair(PrivacyParams(1.0, 1e-5), 1.0)
        TruncatedLaplace.from_privacy(PrivacyParams(1.0, 1e-5), 1.0)
        Gaussian(1.0)
        assert set(counts) == {
            "PrivacyParams.__init__", "TruncatedLaplace.__init__",
            "Gaussian.__init__", "BoundPair.__init__",
            "dpnoise.bounds.bound_pair",
        }

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    def test_cli_sweep_builds_no_rows(self, monkeypatch, tmp_path, fmt):
        # the command writes from the sweep's columns, and builds no
        # per-point object on the way
        counts = self.counter(monkeypatch, self.COUNTED)
        by_size = {}
        for points in (10, 30):
            counts.clear()
            assert main(["sweep", "--eps-points", str(points), "--delta-points",
                         str(points), "--format", fmt,
                         "--out", str(tmp_path / "sweep")]) == 0
            by_size[points] = dict(counts)
        assert by_size[10] == by_size[30]


# ---------------------------------------------------------------------------
# The emitters as they were before they filled one template per table, kept
# verbatim as the byte-for-byte reference.


def brute_format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def brute_rows_to_csv(rows):
    names = [f.name for f in dataclasses.fields(rows[0])]
    lines = [",".join(names)]
    for row in rows:
        lines.append(
            ",".join(brute_format_value(getattr(row, n)) for n in names)
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def brute_rows_to_json(rows):
    names = [f.name for f in dataclasses.fields(rows[0])]
    payload = [{n: getattr(row, n) for n in names} for row in rows]
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


BRUTE_VIRIDIS = [
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


def brute_color(v):
    v = min(max(v, 0.0), 1.0)
    pos = v * (len(BRUTE_VIRIDIS) - 1)
    i = min(int(pos), len(BRUTE_VIRIDIS) - 2)
    t = pos - i
    rgb = [
        round(255 * ((1 - t) * BRUTE_VIRIDIS[i][k] + t * BRUTE_VIRIDIS[i + 1][k]))
        for k in range(3)
    ]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def brute_rows_to_svg(rows):
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
                f'height="{ch + 0.3:.2f}" fill="{brute_color((ratio - vmin) / span)}">'
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
            f'height="{height / steps + 0.3:.2f}" fill="{brute_color(frac)}"/>'
        )
    for frac, value in ((0.0, vmin), (0.5, vmin + span / 2), (1.0, vmax)):
        y = top + height * (1 - frac)
        parts.append(
            f'<text x="{bar_x + bar_w + 6}" y="{y + 4:.2f}">{value:.3g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts).encode("utf-8")


BRUTE_EMITTERS = {
    "csv": brute_rows_to_csv,
    "json": brute_rows_to_json,
    "svg": brute_rows_to_svg,
}

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1e308,
           0.1, 1.0 / 3.0, 2.5e-7, 123456789.0]
FINITE_SPECIAL = [v for v in SPECIAL if math.isfinite(v)]


def special_sweep_points(ratios_finite, finite=False):
    """A 4 x 3 grid of sweep points holding every special value (with
    ``finite``, every finite one) in every column; with ``ratios_finite``
    the heatmap's ratios stay finite."""
    special = FINITE_SPECIAL if finite else SPECIAL
    points = []
    for k in range(12):
        values = [special[(k + j) % len(special)] for j in range(8)]
        if ratios_finite:
            values[6] = [0.25, -0.0, 5e-324, 0.75, 1e308, 0.5][k % 6]
        points.append((0.5 * (k // 3 + 1), 1e-3 * (k % 3 + 1), *values[2:]))
    return points


def path_table(regime, cost):
    """The sweep's columns along a high-privacy regime's path, one
    one-point sweep per point: values from 1e-12 to 1."""
    points = [
        run_sweep(SweepConfig(eps_min=eps, eps_max=eps, eps_points=1,
                              delta_min=delta, delta_max=delta, delta_points=1,
                              cost=cost))
        for eps, delta in REGIME_PATHS[regime]
    ]
    return {name: [v for point in points for v in point[name]] for name in COLUMNS}


def outcome(emitter, table):
    try:
        return emitter(table)
    except Exception as exc:
        return type(exc), str(exc)


def reference(fmt):
    return lambda table: BRUTE_EMITTERS[fmt](rows_of(table))


class TestEmittersMatchTheReference:
    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    @pytest.mark.parametrize("cost", [CostKind.AMPLITUDE, CostKind.POWER])
    @pytest.mark.parametrize("points", [3, 20, 100])
    def test_sweep_rows(self, points, cost, fmt):
        table = run_sweep(
            SweepConfig(eps_points=points, delta_points=points, cost=cost)
        )
        assert emit(table, fmt) == reference(fmt)(table)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("regime", list(REGIME_PATHS))
    def test_regime_path_rows(self, regime, fmt):
        # values from 1e-12 to 1, off any geometric grid
        table = path_table(regime, CostKind.POWER)
        assert emit(table, fmt) == reference(fmt)(table)

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    @pytest.mark.parametrize("ratios_finite", [True, False])
    def test_special_values(self, ratios_finite, fmt):
        # csv and json get finite values only (refusals: see the test
        # below); svg refuses with DomainError a chunk holding a value that
        # is not finite, where the reference draws one outside the ratios
        # and ends in int(NaN)'s ValueError on a ratio
        points = special_sweep_points(ratios_finite, finite=fmt != "svg")
        for chunk in [points, *([p] for p in points)]:  # one point at a time, too
            got = outcome(lambda t: emit(t, fmt), table_of(*chunk))
            if all(map(math.isfinite, np.ravel(chunk))):
                assert got == outcome(reference(fmt), table_of(*chunk))
            else:
                assert fmt == "svg" and got[0] is DomainError

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_shared_and_distinct_axis_objects(self, fmt):
        # the emitters format each grid coordinate object once: points that
        # share a float object and points that hold an equal but distinct
        # one, with 0.0 and -0.0 (equal as values, not as text) among them
        def fresh(x):
            return float.fromhex(x.hex())

        zero, neg_zero, half = 0.0, -0.0, fresh(0.5)
        eps = [zero, zero, neg_zero, neg_zero, fresh(0.0), fresh(-0.0),
               half, half, fresh(0.5), zero]
        delta = [neg_zero, fresh(1e-5), zero, fresh(-0.0), neg_zero, zero,
                 fresh(1e-5), neg_zero, zero, fresh(0.0)]
        assert eps[0] is eps[1] and eps[6] is eps[7]
        assert eps[0] == eps[2] and eps[0] is not eps[4] and eps[6] is not eps[8]
        points = [
            (e, d, *[0.25 * (k + 1) - j for j in range(6)])
            for k, (e, d) in enumerate(zip(eps, delta))
        ]
        for table in (table_of(*points), table_of(*points[::-1])):
            assert emit(table, fmt) == reference(fmt)(table)

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    def test_rows_holding_more_than_floats(self, fmt):
        # every format writes finite floats and refuses anything else: the
        # reference writes the str "a,b" as two csv fields and NaN as json
        # that strict parsers reject, and svg's str epsilon was a TypeError
        # from math.isfinite
        bad = [3, True, "a,b", None, np.float64(0.1), math.nan, math.inf, -math.inf]
        for value in bad:
            for field in range(8):
                values = [0.5] * 8
                values[field] = value
                table = table_of((0.1, 1e-5, 1.0, 2.0, 2.0, 4.0, 0.5, 0.5), values)
                with pytest.raises(DomainError, match="finite floats"):
                    emit(table, fmt)


class TestCliSweepMatchesTheReference:
    """``dpnoise sweep`` writes its table without building rows; its bytes
    are the reference emitters' over the rows of :func:`run_sweep`'s
    table."""

    CASES = {
        **{
            f"3x3-{cost.value}-{fmt}": (
                dataclasses.replace(SMALL, cost=cost), fmt
            )
            for cost in CostKind
            for fmt in BRUTE_EMITTERS
        },
        **{
            f"100x100-power-{fmt}": (
                SweepConfig(eps_points=100, delta_points=100,
                            cost=CostKind.POWER),
                fmt,
            )
            for fmt in BRUTE_EMITTERS
        },
        **{
            f"floor-sens-2.5-{fmt}": (
                dataclasses.replace(SMALL, fractional_steps=False,
                                    sensitivity=2.5),
                fmt,
            )
            for fmt in BRUTE_EMITTERS
        },
    }

    @pytest.mark.parametrize("case", CASES)
    def test_bytes(self, tmp_path, case):
        config, fmt = self.CASES[case]
        out = tmp_path / f"sweep.{fmt}"
        argv = ["sweep", "--format", fmt, "--out", str(out),
                "--cost", config.cost.value,
                "--n-mode", "frac" if config.fractional_steps else "floor"]
        for name in ("eps_min", "eps_max", "eps_points", "delta_min",
                     "delta_max", "delta_points", "sensitivity"):
            flag = "--sens" if name == "sensitivity" else "--" + name.replace("_", "-")
            argv += [flag, repr(getattr(config, name))]
        assert main(argv) == 0
        assert out.read_bytes() == reference(fmt)(run_sweep(config))


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


TABLE_SOURCES = {
    "sweep-amplitude": lambda: run_sweep(SweepConfig()),
    "sweep-power": lambda: run_sweep(SweepConfig(cost=CostKind.POWER)),
    **{
        f"path-{regime}-{cost.value}": (
            lambda regime=regime, cost=cost: path_table(regime, cost)
        )
        for regime in REGIME_PATHS
        for cost in CostKind
    },
}


class TestEmittedTextParses:
    """What emit writes for sweep tables, on their grids and along the
    regime paths, is strict csv and json."""

    @pytest.mark.parametrize("source", TABLE_SOURCES)
    def test_csv(self, source):
        table = TABLE_SOURCES[source]()
        text = emit(table, "csv").decode("utf-8")
        header, *records = csv.reader(io.StringIO(text))
        assert header == COLUMNS
        assert len(records) == len(table["epsilon"])
        assert all(len(record) == len(header) for record in records)
        assert [list(map(float, record)) for record in records] == [
            list(point) for point in zip(*table.values())
        ]

    @pytest.mark.parametrize("source", TABLE_SOURCES)
    def test_json(self, source):
        table = TABLE_SOURCES[source]()
        payload = json.loads(emit(table, "json"), parse_constant=refuse_constant)
        assert payload == [dict(zip(COLUMNS, point)) for point in zip(*table.values())]
