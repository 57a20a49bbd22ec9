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

from dpnoise.analysis import SweepConfig, SweepRow, emit, run_sweep
from dpnoise import bounds
from dpnoise.baselines import Gaussian, analytic_gaussian_sigma
from dpnoise.bounds import BoundPair
from dpnoise.cli import main
from dpnoise.core import ConvergenceError, CostKind, DomainError, PrivacyParams
from dpnoise.trunclap import TruncatedLaplace
from test_bounds import REGIME_PATHS
from test_core import NOT_REAL

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
        rows = run_sweep(SMALL)
        assert len(rows) == 9
        # epsilon-major, delta-minor ordering
        assert rows[0].epsilon == rows[1].epsilon == rows[2].epsilon
        assert rows[0].delta < rows[1].delta < rows[2].delta
        assert rows[0].epsilon < rows[3].epsilon

    def test_row_invariants(self):
        for row in run_sweep(SMALL):
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
        assert all(r.ratio_tl_gauss < 1.0 for r in run_sweep(SMALL))

    def test_analytic_gaussian_beats_classic_in_proof_range(self):
        # The textbook sigma = sens * sqrt(2 ln(1.25/delta)) / eps is proven
        # for eps in (0, 1) only.
        for row in run_sweep(SMALL):
            if row.epsilon < 1.0:
                textbook = math.sqrt(2.0 * math.log(1.25 / row.delta)) / row.epsilon
                assert row.gauss_analytic <= Gaussian(textbook).cost(SMALL.cost)

    def test_floor_steps_variant_is_weaker(self):
        frac = run_sweep(SMALL)
        floor = run_sweep(
            SweepConfig(**{**SMALL.__dict__, "fractional_steps": False})
        )
        for a, b in zip(floor, frac):
            assert a.q_lower <= b.q_lower
            assert a.q_upper == b.q_upper

    def test_power_cost_kind(self):
        rows = run_sweep(SweepConfig(**{**SMALL.__dict__, "cost": CostKind.POWER}))
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
            rows = run_sweep(config)
        for row in rows:
            sigma = analytic_gaussian_sigma(PrivacyParams(row.epsilon, row.delta), sens)
            assert row.gauss_analytic == Gaussian(sigma).cost(cost)
        # 3 of the 15 epsilons are >= 1, where nothing is logged either
        assert caplog.records == []


@pytest.fixture(scope="module")
def rows():
    return run_sweep(SMALL)


class TestEmit:
    def test_csv_round_trip(self, rows):
        blob = emit(rows, "csv")
        reader = csv.DictReader(io.StringIO(blob.decode("utf-8")))
        parsed = list(reader)
        assert len(parsed) == len(rows)
        assert reader.fieldnames == [
            "epsilon",
            "delta",
            "q_lower",
            "q_upper",
            "tl_cost",
            "gauss_analytic",
            "ratio_bounds",
            "ratio_tl_gauss",
        ]
        # %.17g serialization round-trips float64 exactly
        for rec, row in zip(parsed, rows):
            assert float(rec["q_lower"]) == row.q_lower
            assert float(rec["ratio_bounds"]) == row.ratio_bounds

    def test_csv_deterministic(self, rows):
        assert emit(rows, "csv") == emit(rows, "csv")

    def test_json(self, rows):
        payload = json.loads(emit(rows, "json"))
        assert len(payload) == len(rows)
        assert payload[0]["epsilon"] == rows[0].epsilon
        assert set(payload[0]) == {
            "epsilon",
            "delta",
            "q_lower",
            "q_upper",
            "tl_cost",
            "gauss_analytic",
            "ratio_bounds",
            "ratio_tl_gauss",
        }

    def test_svg_well_formed(self, rows):
        blob = emit(rows, "svg")
        root = ET.fromstring(blob)
        assert root.tag.endswith("svg")
        rects = root.findall(".//{http://www.w3.org/2000/svg}rect")
        assert len(rects) >= len(rows)
        text = blob.decode("utf-8")
        assert "epsilon" in text and "delta" in text

    def test_svg_deterministic(self, rows):
        assert emit(rows, "svg") == emit(rows, "svg")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["epsilon", "delta", "ratio_bounds"])
    def test_svg_refuses_what_has_no_place_or_shade(self, field, value):
        # a NaN or infinite ratio ended in int(NaN)'s bare ValueError, and
        # an epsilon or delta that is not finite was drawn as "nan" or "inf"
        good = SweepRow(0.1, 1e-5, 1.0, 2.0, 2.0, 4.0, 0.5, 0.5)
        bad = dataclasses.replace(good, **{"epsilon": 0.2, field: value})
        with pytest.raises(DomainError, match="^svg rows must hold finite"):
            emit([good, bad], "svg")
        # ratios a float holds, but whose span it does not
        far = [dataclasses.replace(good, ratio_bounds=1e308),
               dataclasses.replace(good, epsilon=0.2, ratio_bounds=-1e308)]
        with pytest.raises(DomainError, match="span less than the float range"):
            emit(far, "svg")

    def test_svg_only_for_sweeps(self):
        @dataclasses.dataclass(frozen=True)
        class Point:
            epsilon: float
            delta: float
            ratio: float

        points = [Point(0.1, 1e-5, 0.5), Point(0.2, 1e-5, 0.75)]
        # csv and json take any dataclass rows of floats
        for fmt in ("csv", "json"):
            assert emit(points, fmt) == BRUTE_EMITTERS[fmt](points)
        assert emit(points, "csv").startswith(b"epsilon,delta,ratio\n")
        with pytest.raises(DomainError):
            emit(points, "svg")

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    def test_rows_must_be_one_dataclass(self, rows, fmt):
        # a float row was a TypeError from dataclasses.fields, and a mixed
        # list an AttributeError
        @dataclasses.dataclass
        class Empty:
            pass

        path_row = PathRow(0.1, 1e-5, 0.25, 0.25, 0.5, 0.5)
        for bad in ([1.0], [rows[0], 1.0], [rows[0], path_row], [SweepRow],
                    [(0.1, 1e-5)], [Empty(), Empty()]):
            with pytest.raises(DomainError, match="one dataclass"):
                emit(bad, fmt)

    def test_rejects_empty_and_unknown(self, rows):
        with pytest.raises(DomainError):
            emit([], "csv")
        with pytest.raises(DomainError):
            emit(rows, "pdf")
        with pytest.raises(DomainError, match="unknown output format None"):
            emit(rows, None)  # was an AttributeError from None.lower()


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
        # the command writes from the sweep's columns: no SweepRow at all
        counts = self.counter(monkeypatch, [*self.COUNTED, (SweepRow, "__init__")])
        by_size = {}
        for points in (10, 30):
            counts.clear()
            assert main(["sweep", "--eps-points", str(points), "--delta-points",
                         str(points), "--format", fmt,
                         "--out", str(tmp_path / "sweep")]) == 0
            by_size[points] = dict(counts)
        assert by_size[10] == by_size[30]
        assert "SweepRow.__init__" not in by_size[10]
        # the counter sees the rows run_sweep builds for library callers
        run_sweep(SweepConfig(eps_points=2, delta_points=3))
        assert counts["SweepRow.__init__"] == 6


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


def special_sweep_rows(ratios_finite, finite=False):
    """A 4 x 3 grid of sweep rows holding every special value (with
    ``finite``, every finite one) in every column; with ``ratios_finite``
    the heatmap's ratios stay finite."""
    special = FINITE_SPECIAL if finite else SPECIAL
    rows = []
    for k in range(12):
        values = [special[(k + j) % len(special)] for j in range(8)]
        if ratios_finite:
            values[6] = [0.25, -0.0, 5e-324, 0.75, 1e308, 0.5][k % 6]
        rows.append(SweepRow(0.5 * (k // 3 + 1), 1e-3 * (k % 3 + 1), *values[2:]))
    return rows


@dataclasses.dataclass(frozen=True)
class PathRow:
    """A row of six floats beside SweepRow's eight: ``bound_pair`` at one
    point of a high-privacy regime's path."""

    epsilon: float
    delta: float
    lower: float
    lower_floor: float
    upper: float
    ratio: float


def path_rows(regime, cost):
    rows = []
    for eps, delta in REGIME_PATHS[regime]:
        pair = bounds.bound_pair(PrivacyParams(eps, delta), 1.0, cost)
        rows.append(PathRow(eps, delta, pair.lower, pair.lower_floor,
                            pair.upper, pair.ratio))
    return rows


def outcome(emitter, rows):
    try:
        return emitter(rows)
    except Exception as exc:
        return type(exc), str(exc)


class TestEmittersMatchTheReference:
    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    @pytest.mark.parametrize("cost", [CostKind.AMPLITUDE, CostKind.POWER])
    @pytest.mark.parametrize("points", [3, 20, 100])
    def test_sweep_rows(self, points, cost, fmt):
        rows = run_sweep(
            SweepConfig(eps_points=points, delta_points=points, cost=cost)
        )
        assert emit(rows, fmt) == BRUTE_EMITTERS[fmt](rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("regime", list(REGIME_PATHS))
    def test_regime_path_rows(self, regime, fmt):
        # values from 1e-12 to 1 on another row shape
        rows = path_rows(regime, CostKind.POWER)
        assert emit(rows, fmt) == BRUTE_EMITTERS[fmt](rows)

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    @pytest.mark.parametrize("ratios_finite", [True, False])
    def test_special_values(self, ratios_finite, fmt):
        # csv and json refuse non-finite values (see the test below); svg
        # refuses a non-finite ratio with DomainError, where the reference
        # ends in int(NaN)'s ValueError
        rows = special_sweep_rows(ratios_finite, finite=fmt != "svg")
        for chunk in [rows, *([row] for row in rows)]:  # one row at a time, too
            got = outcome(lambda r: emit(r, fmt), chunk)
            if fmt == "svg" and not all(math.isfinite(r.ratio_bounds) for r in chunk):
                assert got[0] is DomainError
            else:
                assert got == outcome(BRUTE_EMITTERS[fmt], chunk)

    @pytest.mark.parametrize("row_type", [SweepRow, PathRow])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_shared_and_distinct_axis_objects(self, fmt, row_type):
        # the emitters format each grid coordinate object once: rows that
        # share a float object and rows that hold an equal but distinct one,
        # with 0.0 and -0.0 (equal as values, not as text) among them
        def fresh(x):
            return float.fromhex(x.hex())

        zero, neg_zero, half = 0.0, -0.0, fresh(0.5)
        eps = [zero, zero, neg_zero, neg_zero, fresh(0.0), fresh(-0.0),
               half, half, fresh(0.5), zero]
        delta = [neg_zero, fresh(1e-5), zero, fresh(-0.0), neg_zero, zero,
                 fresh(1e-5), neg_zero, zero, fresh(0.0)]
        assert eps[0] is eps[1] and eps[6] is eps[7]
        assert eps[0] == eps[2] and eps[0] is not eps[4] and eps[6] is not eps[8]
        fields = len(dataclasses.fields(row_type)) - 2
        rows = [
            row_type(e, d, *[0.25 * (k + 1) - j for j in range(fields)])
            for k, (e, d) in enumerate(zip(eps, delta))
        ]
        assert emit(rows, fmt) == BRUTE_EMITTERS[fmt](rows)
        assert emit(rows[::-1], fmt) == BRUTE_EMITTERS[fmt](rows[::-1])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_holding_more_than_floats(self, fmt):
        # csv and json write finite floats and refuse anything else: the
        # reference writes the str "a,b" as two csv fields and NaN as json
        # that strict parsers reject
        bad = [3, True, "a,b", None, np.float64(0.1), math.nan, math.inf, -math.inf]
        for value in bad:
            for field in range(8):
                values = [0.5] * 8
                values[field] = value
                rows = [
                    SweepRow(0.1, 1e-5, 1.0, 2.0, 2.0, 4.0, 0.5, 0.5),
                    SweepRow(*values),
                ]
                with pytest.raises(DomainError, match="finite floats"):
                    emit(rows, fmt)


class TestCliSweepMatchesTheReference:
    """``dpnoise sweep`` writes its table without building rows; its bytes
    are the reference emitters' over :func:`run_sweep`'s rows."""

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
        assert out.read_bytes() == BRUTE_EMITTERS[fmt](run_sweep(config))


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


ROW_SOURCES = {
    "sweep-amplitude": lambda: run_sweep(SweepConfig()),
    "sweep-power": lambda: run_sweep(SweepConfig(cost=CostKind.POWER)),
    **{
        f"path-{regime}-{cost.value}": (
            lambda regime=regime, cost=cost: path_rows(regime, cost)
        )
        for regime in REGIME_PATHS
        for cost in CostKind
    },
}


class TestEmittedTextParses:
    """What emit writes for sweep rows and for rows of ``bound_pair``
    values is strict csv and json."""

    @pytest.mark.parametrize("source", ROW_SOURCES)
    def test_csv(self, source):
        rows = ROW_SOURCES[source]()
        text = emit(rows, "csv").decode("utf-8")
        header, *records = csv.reader(io.StringIO(text))
        assert header == [f.name for f in dataclasses.fields(rows[0])]
        assert len(records) == len(rows)
        assert all(len(record) == len(header) for record in records)
        assert [list(map(float, record)) for record in records] == [
            list(dataclasses.astuple(row)) for row in rows
        ]

    @pytest.mark.parametrize("source", ROW_SOURCES)
    def test_json(self, source):
        rows = ROW_SOURCES[source]()
        payload = json.loads(emit(rows, "json"), parse_constant=refuse_constant)
        assert payload == [dataclasses.asdict(row) for row in rows]
