import csv
import io
import json
import logging
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dpnoise.analysis import (
    LimitRegime,
    SweepConfig,
    SweepRow,
    TightnessRow,
    emit,
    run_sweep,
    tightness_curve,
)
from dpnoise.baselines import Gaussian, analytic_gaussian_sigma
from dpnoise.core import ConvergenceError, CostKind, DomainError, PrivacyParams

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


class TestTightnessCurve:
    @pytest.mark.parametrize("cost", [CostKind.AMPLITUDE, CostKind.POWER])
    @pytest.mark.parametrize(
        "regime",
        [LimitRegime.EPS_TO_ZERO, LimitRegime.DELTA_TO_ZERO, LimitRegime.DIAGONAL],
    )
    def test_ratio_converges_to_prediction(self, regime, cost):
        rows = tightness_curve(regime, cost=cost)
        gaps = [abs(r.ratio - r.limit_prediction) for r in rows]
        assert gaps[-1] < 1e-6
        assert gaps[0] > 100.0 * gaps[-1]
        assert all(r.ratio <= 1.0 + 1e-12 for r in rows)

    def test_eps_to_zero_prediction(self):
        rows = tightness_curve(LimitRegime.EPS_TO_ZERO, anchor=1e-3)
        assert rows[0].limit_prediction == pytest.approx(0.998, rel=1e-15)
        pw = tightness_curve(
            LimitRegime.EPS_TO_ZERO, cost=CostKind.POWER, anchor=1e-3
        )
        assert pw[0].limit_prediction == pytest.approx(
            0.999 * 0.998, rel=1e-12
        )

    def test_delta_to_zero_prediction(self):
        rows = tightness_curve(LimitRegime.DELTA_TO_ZERO, anchor=1.0)
        assert rows[0].limit_prediction == pytest.approx(
            1.0 / math.expm1(1.0), rel=1e-15
        )
        assert rows[-1].ratio == pytest.approx(1.0 / math.expm1(1.0), abs=1e-9)

    def test_diagonal_prediction_is_one(self):
        rows = tightness_curve(LimitRegime.DIAGONAL, anchor=1.0)
        assert rows[0].limit_prediction == 1.0
        assert rows[-1].ratio == pytest.approx(1.0, abs=1e-6)
        # the swept epsilon fixes delta through the diagonal coupling
        for r in rows:
            assert r.delta == pytest.approx(math.expm1(r.epsilon), rel=1e-15)

    def test_values_override(self):
        vals = np.array([0.05, 0.01, 0.002])
        rows = tightness_curve(LimitRegime.EPS_TO_ZERO, values=vals)
        assert [r.epsilon for r in rows] == pytest.approx(list(vals))

    def test_needs_two_points(self):
        with pytest.raises(DomainError):
            tightness_curve(LimitRegime.DIAGONAL, points=1)


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

    def test_svg_only_for_sweeps(self):
        tight = tightness_curve(LimitRegime.DIAGONAL, points=3)
        with pytest.raises(DomainError):
            emit(tight, "svg")

    def test_tightness_rows_emit_csv(self):
        tight = tightness_curve(LimitRegime.DIAGONAL, points=3)
        blob = emit(tight, "csv")
        header = blob.decode("utf-8").splitlines()[0]
        assert header == "epsilon,delta,q_lower,q_upper,ratio,limit_prediction"

    def test_rejects_empty_and_unknown(self, rows):
        with pytest.raises(DomainError):
            emit([], "csv")
        with pytest.raises(DomainError):
            emit(rows, "pdf")
