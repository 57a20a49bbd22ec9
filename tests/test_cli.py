import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpnoise
from dpnoise import cli
from dpnoise.cli import main
from dpnoise._stable import radius_scale_ratio
from dpnoise.bounds import _EPS_MIN
from dpnoise.core import (
    MECHANISM_NAMES,
    CostKind,
    InvariantError,
    NoiseMechanism,
    PrivacyParams,
    make_mechanism,
)
from dpnoise.query import QUERY_MECHANISMS
from test_bounds import check_lower_bounds, mpmath_bounds, mpmath_upper

# what a ledger line holds: never the aggregate, the noise or the seed
LEDGER_KEYS = {"query_id", "epsilon", "delta", "timestamp"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCalibrate:
    def test_trunclap_json(self, capsys):
        code, out, err = run(
            capsys, "calibrate", "--eps", "1.0", "--delta", "1e-5"
        )
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["mechanism"] == "trunclap"
        assert payload["sensitivity"] == 1.0
        assert payload["parameters"]["scale"] == 1.0
        assert payload["parameters"]["radius"] == pytest.approx(
            11.361114778489599, rel=1e-14
        )
        assert payload["expected_amplitude"] == pytest.approx(
            0.9998677619166971, rel=1e-14
        )
        assert payload["expected_power"] == pytest.approx(
            1.9982331517909016, rel=1e-14
        )

    def test_each_mechanism_has_parameters(self, capsys):
        for mech, key in [
            ("laplace", "scale"),
            ("gaussian-analytic", "sigma"),
            ("uniform", "half_width"),
        ]:
            code, out, _ = run(
                capsys,
                "calibrate", "--eps", "0.5", "--delta", "1e-4", "--mech", mech,
            )
            assert code == 0
            assert key in json.loads(out)["parameters"]

    def test_invalid_delta_is_exit_2(self, capsys):
        code, out, err = run(
            capsys, "calibrate", "--eps", "1.0", "--delta", "0.7"
        )
        assert code == 2
        assert out == ""  # stdout stays clean on errors
        assert "delta" in err

    @pytest.mark.parametrize("mech", ["trunclap", "laplace"])
    def test_tiny_epsilon_is_exit_2(self, capsys, mech):
        # was an OverflowError traceback, exit 1
        code, out, err = run(
            capsys,
            "calibrate", "--eps", "1e-200", "--delta", "1e-5", "--mech", mech,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: expected ")
        assert err.endswith(" leaves double range at noise scale 1e+200\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("mech", MECHANISM_NAMES)
    @pytest.mark.parametrize(
        "eps, delta", [("1", "1e-300"), ("1e-200", "1e-5")]
    )
    def test_costs_out_of_range_are_exit_2_or_valid_json(
        self, capsys, mech, eps, delta
    ):
        # uniform at (1, 1e-300) was an OverflowError traceback
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        code, out, err = run(
            capsys,
            "calibrate", "--eps", eps, "--delta", delta, "--mech", mech,
        )
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert code == 0
            json.loads(out, parse_constant=reject)

    @pytest.mark.parametrize(
        "mech, sens",
        [("trunclap", "1e-170"), ("laplace", "1e-200"),
         ("gaussian-analytic", "1e-200")],
    )
    def test_underflowing_power_is_exit_2(self, capsys, mech, sens):
        # printed "expected_power": 0.0 with exit 0
        code, out, err = run(
            capsys,
            "calibrate", "--eps", "1", "--delta", "1e-5", "--sens", sens,
            "--mech", mech,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: expected power leaves double range")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [["calibrate"], ["sample", "--seed", "3"]])
    def test_laplace_height_overflow_names_the_scale(self, capsys, command):
        # below ~2.8e-309 the Laplace density height 1/(2 scale) overflows
        code, out, err = run(
            capsys, *command, "--eps", "1", "--delta", "1e-5",
            "--sens", "1e-310", "--mech", "laplace",
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: density height 1/(2 scale) overflows at noise scale 1e-310\n"
        )

    @pytest.mark.parametrize(
        "command", [["calibrate", "--mech", "trunclap"], ["bounds"]]
    )
    def test_underflowing_scale_is_exit_2(self, capsys, command):
        # sensitivity/epsilon rounds to 0: was a ZeroDivisionError
        # traceback, exit 1
        code, out, err = run(
            capsys, *command, "--sens", "5e-324", "--eps", "2", "--delta", "1e-5"
        )
        assert code == 2
        assert out == ""
        assert err == "error: scale must be finite and > 0, got 0.0\n"

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "calibrate", "--eps", "1.0")
        assert code == 2
        assert "--delta" in err


class TestSample:
    @pytest.mark.usefixtures("zero_noise")
    def test_zero_noise_prints_zeros(self, capsys):
        code, out, err = run(
            capsys,
            "sample", "--eps", "1.0", "--delta", "1e-5",
            "--n", "3", "--seed", "42",
        )
        assert code == 0
        assert out.splitlines() == ["0", "0", "0"]

    def test_median_seed_is_exit_2(self, capsys, monkeypatch):
        # 'median' drew zero noise; it is no seed
        argv = ["sample", "--eps", "1.0", "--delta", "1e-5", "--n", "3"]
        for extra, env in ((["--seed", "median"], None), ([], "median")):
            if env is not None:
                monkeypatch.setenv("DPNL_SEED", env)
            code, out, err = run(capsys, *argv, *extra)
            assert code == 2
            assert out == ""
            assert err == "error: seed must be a 64-bit unsigned integer, got 'median'\n"

    def test_unseeded_draws_differ(self, capsys, monkeypatch):
        monkeypatch.delenv("DPNL_SEED", raising=False)
        argv = ["sample", "--eps", "1.0", "--delta", "1e-5", "--n", "4"]
        first, second = run(capsys, *argv), run(capsys, *argv)
        assert first[0] == second[0] == 0
        assert len(first[1].splitlines()) == 4
        assert first[1] != second[1]

    def test_deterministic_under_seed(self, capsys):
        argv = [
            "sample", "--eps", "0.5", "--delta", "1e-4",
            "--n", "5", "--seed", "42",
        ]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        values = [float(line) for line in first.splitlines()]
        assert len(values) == 5
        assert any(v != 0.0 for v in values)

    def test_env_seed_fallback(self, capsys, monkeypatch):
        argv = ["sample", "--eps", "1.0", "--delta", "1e-5", "--n", "2"]
        _, flagged, _ = run(capsys, *argv, "--seed", "42")
        monkeypatch.setenv("DPNL_SEED", "42")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == flagged
        assert len(out.splitlines()) == 2

    def test_nonpositive_n_rejected(self, capsys):
        code, _, err = run(
            capsys,
            "sample", "--eps", "1.0", "--delta", "1e-5", "--n", "0",
        )
        assert code == 2
        assert "--n" in err

    @pytest.mark.parametrize(
        "message, line",
        [
            ("Unable to allocate 7.28 TiB for an array",
             "error: Unable to allocate 7.28 TiB for an array\n"),
            ("", "error: out of memory\n"),
        ],
        ids=["numpy", "bare"],
    )
    def test_memory_error_is_exit_2(self, capsys, monkeypatch, message, line):
        # was a traceback and exit 1, the privacy-check-failed code
        def refuse(self, rng, n=None):
            raise MemoryError(message)

        monkeypatch.setattr(NoiseMechanism, "sample", refuse)
        code, out, err = run(
            capsys,
            "sample", "--eps", "1", "--delta", "1e-5", "--n", "1000000000000",
            "--seed", "3",
        )
        assert code == 2
        assert out == ""
        assert err == line


class TestBounds:
    def test_frozen_reference_point(self, capsys):
        code, out, _ = run(capsys, "bounds", "--eps", "0.1", "--delta", "0.05")
        assert code == 0
        payload = json.loads(out)
        assert payload["cost"] == "amplitude"
        assert payload["lower"] == pytest.approx(2.674948670796755, rel=1e-14)
        assert payload["upper"] == pytest.approx(3.166616726021703, rel=1e-14)
        assert payload["ratio"] == pytest.approx(0.8447339549543016, rel=1e-13)
        assert payload["steps_fractional"] == pytest.approx(
            7.186731924870721, rel=1e-14
        )
        assert payload["steps_floor"] == 7
        assert payload["lower_floor"] == pytest.approx(
            2.556638908351247, rel=1e-14
        )

    def test_floor_mode_selects_floor_value(self, capsys):
        _, out, _ = run(
            capsys,
            "bounds", "--eps", "0.1", "--delta", "0.05", "--n-mode", "floor",
        )
        payload = json.loads(out)
        assert payload["lower"] == payload["lower_floor"]

    @pytest.mark.parametrize("n_mode", ["frac", "floor"])
    @pytest.mark.parametrize("cost", ["amplitude", "power"])
    def test_step_counts_keep_their_json_types(self, capsys, cost, n_mode):
        code, out, _ = run(
            capsys,
            "bounds", "--eps", "0.1", "--delta", "0.05",
            "--cost", cost, "--n-mode", n_mode,
        )
        assert code == 0
        payload = json.loads(out)
        assert type(payload["steps_floor"]) is int
        assert payload["steps_floor"] == 7
        assert type(payload["steps_fractional"]) is float

    def test_sensitivity_doubles_amplitude_bounds(self, capsys):
        _, out1, _ = run(capsys, "bounds", "--eps", "0.1", "--delta", "0.05")
        _, out2, _ = run(
            capsys, "bounds", "--eps", "0.1", "--delta", "0.05", "--sens", "2",
        )
        a, b = json.loads(out1), json.loads(out2)
        assert b["lower"] == pytest.approx(2.0 * a["lower"], rel=1e-14)
        assert b["upper"] == pytest.approx(2.0 * a["upper"], rel=1e-14)
        assert b["ratio"] == pytest.approx(a["ratio"], rel=1e-13)

    def test_power_cost(self, capsys):
        code, out, _ = run(
            capsys,
            "bounds", "--eps", "0.1", "--delta", "0.05", "--cost", "power",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cost"] == "power"
        assert 0.0 < payload["lower"] <= payload["upper"]

    @pytest.mark.parametrize("cost", ["amplitude", "power"])
    def test_tiny_epsilon_is_exit_2(self, capsys, cost):
        # was a ZeroDivisionError traceback, exit 1
        code, out, err = run(
            capsys,
            "bounds", "--eps", "1e-200", "--delta", "1e-5", "--cost", cost,
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: epsilon=1e-200 is too small for the closed-form lower "
            "bounds: (1 - e^-epsilon)^2 leaves double range\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            # sensitivity^2 overflowed: an OverflowError traceback, exit 1
            ["bounds", "--sens", "1.4e154"],
            ["sweep", "--sens", "1e200"],
            # the costs underflowed to 0 and lower/upper divided 0 by 0
            ["bounds", "--sens", "1e-170"],
            ["sweep", "--sens", "1e-300", "--eps-points", "1",
             "--delta-points", "1"],
            # bound_pair returned subnormals with their digits lost
            ["bounds", "--sens", "1e-155"],
        ],
    )
    def test_power_out_of_double_range_is_exit_2(self, capsys, argv):
        if argv[0] == "bounds":
            argv += ["--eps", "1", "--delta", "1e-5"]
        code, out, err = run(capsys, *argv, "--cost", "power")
        assert code == 2
        assert out == ""
        assert err.startswith("error: expected power leaves double range")
        assert err.count("\n") == 1

    def test_tiny_epsilon_whole_step_bound_is_exit_0(self, capsys):
        # the former amplitude closed form cancelled at this eps: it printed
        # "lower": -1.19e+134, then exited 4; values from 60-digit mpmath
        code, out, err = run(
            capsys,
            "bounds", "--eps", "1e-150", "--delta", "1e-5", "--n-mode", "floor",
        )
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["steps_floor"] == 49999
        assert payload["lower"] == payload["lower_floor"]
        assert payload["lower"] == pytest.approx(24998.500020000002, rel=1e-14)
        assert payload["lower_fractional"] == pytest.approx(
            24999.499999999998, rel=1e-14
        )
        assert payload["upper"] == 24999.999999999996

    @pytest.mark.parametrize("eps", ["1e-20", "1e-6"])
    def test_power_bound_near_half_delta_is_exit_0(self, capsys, eps):
        # the former power closed form cancelled here: it printed "lower":
        # -4.5e+23 (eps 1e-20) and then exited 4, as it did with -3.26e-10
        # (eps 1e-6); values from 60-digit mpmath, whose 1 - 2 delta = 0.02
        # costs two digits
        code, out, err = run(
            capsys,
            "bounds", "--eps", eps, "--delta", "0.49", "--cost", "power",
        )
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        expected = {"1e-20": 0.0035401915868388205, "1e-6": 0.003540189639663036}
        assert payload["lower"] == pytest.approx(expected[eps], rel=5e-13)
        assert payload["lower_floor"] == 0.0
        assert payload["steps_floor"] == 1

    def test_power_bound_near_half_delta_in_floor_mode_is_exit_0(self, capsys):
        # floor mode reports the whole-step bound, which has one step and is
        # 0 here; the fractional one beside it is checked too
        code, out, err = run(
            capsys,
            "bounds", "--eps", "1e-20", "--delta", "0.49", "--cost", "power",
            "--n-mode", "floor",
        )
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["lower"] == payload["lower_floor"] == 0.0
        assert payload["ratio"] == 0.0
        assert payload["lower_fractional"] == pytest.approx(
            0.0035401915868388205, rel=5e-13
        )

    def test_unknown_cost(self, capsys):
        code, _, err = run(
            capsys,
            "bounds", "--eps", "0.1", "--delta", "0.05", "--cost", "variance",
        )
        assert code == 2
        assert "--cost" in err

    def test_internal_check_failure_is_exit_4(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise InvariantError("lower bound above upper bound")

        monkeypatch.setattr(cli, "bound_pair", broken)
        code, out, err = run(
            capsys, "bounds", "--eps", "0.1", "--delta", "0.05"
        )
        assert code == 4
        assert out == ""
        assert err == (
            "error: internal check failed: lower bound above upper bound\n"
        )

    # A subnormal delta, where (1 - e^-eps)/(2 delta) overflows a double,
    # gets the bounds mpmath gives.
    def test_subnormal_delta_bounds_match_mpmath(self, capsys):
        code, out, _ = run(capsys, "bounds", "--eps", "1", "--delta", "1e-310")
        assert code == 0
        payload = strict_json(out)
        lower, lower_floor, upper = (
            payload[key] for key in ("lower", "lower_floor", "upper")
        )
        check_lower_bounds(
            1.0, 1e-310, 1.0, CostKind.AMPLITUDE, lower, lower_floor, upper
        )
        assert upper == pytest.approx(
            mpmath_upper(1.0, 1e-310, 1.0, CostKind.AMPLITUDE), rel=1e-14
        )

    def test_sweep_to_a_subnormal_delta_matches_mpmath(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--delta-min", "1e-320", "--eps-points", "2",
            "--delta-points", "2",
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert float(rows[0]["delta"]) < 1e-319 and len(rows) == 4
        for row in rows:
            eps, delta = float(row["epsilon"]), float(row["delta"])
            whole = math.floor(radius_scale_ratio(eps, delta) / eps)
            (lower, _), _ = mpmath_bounds(eps, delta, whole)
            assert float(row["q_lower"]) == pytest.approx(float(lower), rel=1e-14)
            assert float(row["q_upper"]) == pytest.approx(
                mpmath_upper(eps, delta, 1.0, CostKind.AMPLITUDE), rel=1e-14
            )


class TestVerify:
    ARGS = ["--eps", "1.0", "--delta", "1e-4", "--grid-step", "0.01"]

    def test_trunclap_passes_own_target(self, capsys):
        code, out, _ = run(capsys, "verify", *self.ARGS)
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["h"] == 0.01
        assert payload["max_violation"] == pytest.approx(1e-4, rel=1e-6)
        assert payload["path"] == "fast"
        assert payload["cells"] > 0

    def test_tighter_target_fails_with_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", *self.ARGS, "--target-delta", "5e-5"
        )
        assert code == 1
        payload = json.loads(out)  # the report is still printed
        assert payload["pass"] is False
        assert payload["delta"] == 5e-5

    def test_gaussian_analytic_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--eps", "1.0", "--delta", "1e-4",
            "--mech", "gaussian-analytic", "--grid-step", "0.02",
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_unknown_mechanism(self, capsys):
        code, _, err = run(
            capsys, "verify", *self.ARGS, "--mech", "exponential"
        )
        assert code == 2
        assert "--mech" in err

    @pytest.mark.parametrize(
        "args, eps",
        [
            (["--eps", "800", "--delta", "1e-5"], "800.0"),
            (["--eps", "1", "--delta", "1e-5", "--target-eps", "750"], "750.0"),
            (
                [
                    "--mech", "gaussian-analytic", "--eps", "1",
                    "--delta", "1e-5", "--target-delta", "1e-300",
                    "--target-eps", "709",
                ],
                "709.0",
            ),
            (["--eps", "1", "--delta", "1e-5", "--target-eps", "709.5"], "709.5"),
        ],
    )
    def test_epsilon_beyond_double_range_is_exit_2(self, capsys, args, eps):
        # e^eps overflows a double above eps ~ 709.78; this was an
        # OverflowError traceback with exit 1, the "check failed" code.
        # Just below that, at 709.5, the tolerance's parts overflow, which
        # printed "tolerance": Infinity (not JSON) with exit 0.  At 709 the
        # tolerance is finite but above delta/2.
        reasons = {
            "800.0": "e^epsilon overflows",
            "750.0": "e^epsilon overflows",
            "709.0": "cannot tell delta from delta/2",
            "709.5": "the tolerance overflows",
        }
        code, out, err = run(capsys, "verify", *args)
        assert code == 2
        assert out == ""
        assert err.startswith("error: epsilon = " + eps)
        assert reasons[eps] in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "args",
        [
            # passed with tolerance 0.0115 when the tolerance grew with the
            # cell count and with e^eps
            [
                "--mech", "gaussian-analytic", "--eps", "1", "--delta", "1e-5",
                "--target-eps", "20", "--target-delta", "1e-300",
            ],
            ["--eps", "10", "--delta", "1e-15"],
        ],
        ids=["gaussian-target-eps-20", "trunclap-1e-15"],
    )
    def test_unresolvable_target_is_exit_2(self, capsys, args):
        code, out, err = run(capsys, "verify", *args)
        assert code == 2
        assert out == ""
        assert "cannot tell delta from delta/2" in err
        assert err.count("\n") == 1

    def test_halved_tiny_delta_fails_with_tolerance_parts(self, capsys):
        # passed with tolerance 116 delta when the tolerance grew with the
        # cell count
        code, out, _ = run(
            capsys, "verify", "--eps", "1", "--delta", "1e-12",
            "--target-delta", "5e-13",
        )
        assert code == 1
        payload = json.loads(out)
        parts = payload["tolerance_parts"]
        assert set(parts) == {"flat", "straddle", "rounding", "fold"}
        assert sum(parts.values()) == payload["tolerance"] < 2.5e-13

    def test_misaligned_grid_step(self, capsys):
        code, _, err = run(
            capsys,
            "verify", "--eps", "1.0", "--delta", "1e-4", "--grid-step", "0.3",
        )
        assert code == 2
        assert "step" in err


def strict_json(text):
    """json.loads that refuses Infinity, -Infinity and NaN, which are not JSON."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("eps, delta", [("1", "1e-4"), ("0.5", "1e-5")])
class TestStrictJson:
    @pytest.mark.parametrize("mech", MECHANISM_NAMES)
    def test_calibrate(self, capsys, eps, delta, mech):
        code, out, _ = run(
            capsys, "calibrate", "--mech", mech, "--eps", eps, "--delta", delta
        )
        assert code == 0
        strict_json(out)

    @pytest.mark.parametrize("cost", ["amplitude", "power"])
    @pytest.mark.parametrize("n_mode", ["frac", "floor"])
    def test_bounds(self, capsys, eps, delta, cost, n_mode):
        code, out, _ = run(
            capsys, "bounds", "--eps", eps, "--delta", delta,
            "--cost", cost, "--n-mode", n_mode,
        )
        assert code == 0
        strict_json(out)

    @pytest.mark.parametrize("mech", MECHANISM_NAMES)
    def test_verify(self, capsys, eps, delta, mech):
        # the uniform grid has 1/(delta*step) cells
        code, out, _ = run(
            capsys, "verify", "--mech", mech, "--eps", eps, "--delta", delta,
            "--grid-step", "0.1",
        )
        assert code in (0, 1)
        strict_json(out)


    @pytest.mark.parametrize("mech", QUERY_MECHANISMS)
    @pytest.mark.usefixtures("zero_noise")
    def test_query_mean_of_no_rows(self, capsys, tmp_path, eps, delta, mech):
        # a mean whose noisy count is not positive is NaN, printed as null;
        # it printed NaN, which is not JSON
        empty = tmp_path / "empty.csv"
        empty.write_text("id,spend\n")
        code, out, _ = run(
            capsys, "query", "--input", str(empty), "--column", "spend",
            "--aggregate", "mean", "--clip-lo", "0", "--clip-hi", "25",
            "--mech", mech, "--eps", eps, "--delta", delta, "--seed", "0",
            "--ledger", str(tmp_path / "ledger.jsonl"),
        )
        assert code == 0
        assert strict_json(out)["noisy_value"] is None


@pytest.mark.parametrize("delta", ["1e-300", "1e-310", "1e-320", "5e-324", "0.49"])
@pytest.mark.parametrize("eps", ["1e-300", "1e-3", "1", "40", "800"])
@pytest.mark.parametrize(
    "argv",
    [["calibrate", "--mech", mech] for mech in MECHANISM_NAMES]
    + [["bounds", "--cost", cost] for cost in ("amplitude", "power")],
    ids=lambda argv: f"{argv[0]}-{argv[2]}",
)
def test_extreme_inputs_print_strict_json_or_one_error(capsys, argv, eps, delta):
    # a subnormal delta printed "radius": Infinity, and its bounds were
    # refused; the closed forms hold for every epsilon above their floor
    code, out, err = run(capsys, *argv, "--eps", eps, "--delta", delta)
    if argv[0] == "bounds" and float(eps) >= _EPS_MIN:
        assert code == 0, err
    if code == 0:
        strict_json(out)
        assert err == ""
    else:
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: [^\n]+\n", err)


# Every flag's small valid value: the refusal contract is tried one flag at
# a time, with the others at these.
_VALID = {
    "eps": "1", "delta": "1e-4", "sens": "1", "mech": "trunclap",
    "cost": "amplitude", "n": "2", "seed": "1", "grid-step": "0.01",
    "out": "out.txt", "format": "csv", "n-mode": "frac", "target-eps": "1",
    "target-delta": "1e-4", "eps-min": "0.5", "eps-max": "1", "eps-points": "2",
    "delta-min": "1e-5", "delta-max": "1e-4", "delta-points": "2",
    "input": "rows.csv", "column": "spend", "aggregate": "sum", "clip-lo": "0",
    "clip-hi": "10", "ledger": "ledger.jsonl", "budget-eps": "100",
    "budget-delta": "1",
}
_HOSTILE = ("nan", "inf", "1e400", "1e-320", "0x", "-0", "1_0", "\u0663", "")


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, (_, _, flags) in cli._COMMANDS.items()
     for flag in (*flags, "config")],
    ids=lambda value: value,
)
def test_a_hostile_flag_value_exits_0_to_4_with_one_error_line(
    capsys, monkeypatch, tmp_path, command, flag
):
    # every subcommand, given any one flag any of these strings with the
    # others valid, exits 0-4 with no traceback; a refusal writes one
    # "error:" line (or argparse's usage), and nothing else, to stderr
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rows.csv").write_text("id,spend\n1,2\n2,3\n")
    flags = cli._COMMANDS[command][2]
    for value in _HOSTILE:
        for leftover in ("ledger.jsonl", "out.txt"):
            (tmp_path / leftover).unlink(missing_ok=True)
        argv = [command, f"--{flag}={value}"] + [
            f"--{other}={_VALID[other]}" for other in flags if other != flag
        ]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the command line
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3, 4), (argv, code)
        if code in (0, 1):
            assert err == "", argv
        else:
            assert re.fullmatch(r"error: [^\n]+\n", err) or err.startswith("usage:"), (
                argv, err
            )
            assert out == "", argv


SWEEP_ARGS = [
    "sweep",
    "--eps-min", "0.1", "--eps-max", "1.0", "--eps-points", "2",
    "--delta-min", "1e-5", "--delta-max", "1e-4", "--delta-points", "2",
]


class TestSweep:
    def test_csv_stdout(self, capsys):
        code, out, _ = run(capsys, *SWEEP_ARGS)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "epsilon,delta,q_lower,q_upper,tl_cost,gauss_analytic,"
            "ratio_bounds,ratio_tl_gauss"
        )
        assert len(lines) == 5  # header + 2x2 grid

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, out, _ = run(capsys, *SWEEP_ARGS)
        target = tmp_path / "sweep.csv"
        code, empty, _ = run(capsys, *SWEEP_ARGS, "--out", str(target))
        assert code == 0
        assert empty == ""
        assert target.read_bytes().decode("utf-8") == out

    def test_repeat_runs_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, *SWEEP_ARGS, "--out", str(a))
        run(capsys, *SWEEP_ARGS, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_svg_and_json_formats(self, capsys, tmp_path):
        svg = tmp_path / "sweep.svg"
        code, _, _ = run(
            capsys, *SWEEP_ARGS, "--format", "svg", "--out", str(svg)
        )
        assert code == 0
        assert svg.read_bytes().startswith(b"<svg")
        code, out, _ = run(capsys, *SWEEP_ARGS, "--format", "json")
        assert code == 0
        assert len(json.loads(out)) == 4

    def test_tiny_eps_min_is_exit_2(self, capsys):
        # was a ZeroDivisionError traceback, exit 1
        code, out, err = run(
            capsys,
            "sweep", "--eps-min", "1e-320", "--eps-max", "1e200",
            "--eps-points", "7", "--delta-points", "3",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: epsilon=1e-320 is too small")
        assert err.count("\n") == 1

    def test_power_sweep_up_to_half_delta_is_exit_0(self, capsys):
        # the former power closed form exited 4 at (1e-6, 0.49), a corner
        # of this grid
        code, out, err = run(
            capsys,
            "sweep", "--eps-min", "1e-6", "--delta-max", "0.49",
            "--cost", "power",
        )
        assert code == 0
        assert err == ""
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 400
        for row in rows:
            assert 0.0 < float(row["q_lower"]) <= float(row["q_upper"])

    def test_bad_grid(self, capsys):
        code, _, err = run(
            capsys,
            "sweep", "--eps-min", "1.0", "--eps-max", "0.5",
            "--eps-points", "2",
        )
        assert code == 2
        assert "grid" in err


class TestQuery:
    def base(self, spend_csv, ledger_path, *extra):
        return [
            "query",
            "--input", str(spend_csv),
            "--column", "spend",
            "--eps", "0.5", "--delta", "1e-5",
            "--seed", "7",
            "--ledger", str(ledger_path),
            *extra,
        ]

    @pytest.mark.usefixtures("zero_noise")
    def test_count_flow(self, capsys, spend_csv, ledger_path):
        code, out, _ = run(capsys, *self.base(spend_csv, ledger_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["noisy_value"] == 100.0
        assert payload["epsilon_spent"] == 0.5
        assert ledger_path.exists()
        assert len(ledger_path.read_text().splitlines()) == 1

    def test_sum_needs_clip(self, capsys, spend_csv, ledger_path):
        code, _, err = run(
            capsys,
            *self.base(spend_csv, ledger_path, "--aggregate", "sum"),
        )
        assert code == 2
        assert "clip" in err

    def test_spend_beyond_the_double_range_is_a_malformed_line(
        self, capsys, spend_csv, ledger_path
    ):
        line = '{"query_id": "%s", "epsilon": %s, "delta": 0, "timestamp": "t"}\n'
        ledger_path.write_text(line % ("a", "0.5") + line % ("b", "1" + "0" * 400))
        before = ledger_path.read_bytes()
        code, out, err = run(capsys, *self.base(spend_csv, ledger_path))
        assert (code, out) == (2, "")
        assert err == f"error: malformed ledger line 2 in {ledger_path}\n"
        assert ledger_path.read_bytes() == before

    def test_a_ledger_line_that_is_not_utf8_is_malformed(
        self, capsys, spend_csv, ledger_path
    ):
        # exited 1 with a UnicodeDecodeError traceback
        before = (b'{"query_id": "aa", "epsilon": 0.1, "delta": 0.0, "timestamp": "t"}\n'
                  b"\xff\xfe\n")
        ledger_path.write_bytes(before)
        code, out, err = run(capsys, *self.base(spend_csv, ledger_path))
        assert (code, out) == (2, "")
        assert err == f"error: malformed ledger line 2 in {ledger_path}\n"
        assert ledger_path.read_bytes() == before

    def test_half_clip_pair_rejected(self, capsys, spend_csv, ledger_path):
        code, _, err = run(
            capsys,
            *self.base(spend_csv, ledger_path, "--clip-lo", "0.0"),
        )
        assert code == 2
        assert "together" in err

    @pytest.mark.usefixtures("zero_noise")
    def test_mean_flow(self, capsys, spend_csv, ledger_path):
        code, out, _ = run(
            capsys,
            *self.base(
                spend_csv, ledger_path,
                "--aggregate", "mean", "--clip-lo", "0", "--clip-hi", "25",
            ),
        )
        assert code == 0
        noisy = json.loads(out)["noisy_value"]
        assert 10.0 < noisy < 15.0  # spend is uniform on [0, 25)

    def test_budget_exhaustion_is_exit_3(self, capsys, spend_csv, ledger_path):
        argv = self.base(spend_csv, ledger_path, "--budget-eps", "0.75")
        assert run(capsys, *argv)[0] == 0
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "budget" in err
        # the failed attempt must not be charged
        assert len(ledger_path.read_text().splitlines()) == 1

    @pytest.mark.parametrize("aggregate", ["count", "sum"])
    def test_csv_that_is_not_utf8_is_exit_2(
        self, capsys, tmp_path, ledger_path, aggregate
    ):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"id,spend\n1,2\n2,\xff3\n")
        argv = self.base(path, ledger_path, "--aggregate", aggregate,
                         "--clip-lo", "0", "--clip-hi", "5")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: cannot read {path}:3: not UTF-8\n"
        assert not ledger_path.exists() or ledger_path.read_text() == ""

    @pytest.mark.parametrize("flag", ["--budget-eps", "--budget-delta"])
    def test_negative_cap_is_exit_2(self, capsys, spend_csv, ledger_path, flag):
        code, out, err = run(capsys, *self.base(spend_csv, ledger_path, flag, "-1"))
        assert code == 2
        assert out == ""
        assert "must be a number" in err
        assert not ledger_path.exists()

    def test_unseeded_query_draws_os_entropy(
        self, capsys, spend_csv, ledger_path, monkeypatch
    ):
        # no seed is needed: each release then draws fresh OS entropy, and
        # the ledger holds nothing that could draw it again
        monkeypatch.delenv("DPNL_SEED", raising=False)
        argv = [
            "query",
            "--input", str(spend_csv), "--column", "spend",
            "--eps", "0.5", "--delta", "1e-5",
            "--ledger", str(ledger_path),
        ]
        released = []
        for _ in range(2):
            code, out, err = run(capsys, *argv)
            assert code == 0
            assert err == ""
            released.append(json.loads(out)["noisy_value"])
        assert released[0] != released[1]
        lines = ledger_path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert set(json.loads(line)) == LEDGER_KEYS

    @pytest.mark.parametrize("where", ["flag", "env"])
    def test_median_seed_is_refused_before_the_ledger_and_the_data(
        self, capsys, spend_csv, ledger_path, monkeypatch, where
    ):
        # 'median' released the exact aggregate and charged epsilon for it
        reads = []
        monkeypatch.setattr(dpnoise.query, "_read_column", reads.append)
        argv = self.base(spend_csv, ledger_path)
        if where == "flag":
            argv[argv.index("--seed") + 1] = "median"
        else:
            del argv[argv.index("--seed"):argv.index("--seed") + 2]
            monkeypatch.setenv("DPNL_SEED", "median")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: seed must be a 64-bit unsigned integer, got 'median'\n"
        assert not ledger_path.exists()
        assert reads == []

    def test_bad_seed_is_refused_before_the_ledger_and_the_data(
        self, capsys, spend_csv, ledger_path, monkeypatch
    ):
        reads = []
        monkeypatch.setattr(dpnoise.query, "_read_column", reads.append)
        argv = self.base(spend_csv, ledger_path, "--seed", "not-a-seed")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "seed must be" in err
        assert not ledger_path.exists()
        assert reads == []

    def test_env_seed_accepted(self, capsys, spend_csv, ledger_path, monkeypatch):
        monkeypatch.setenv("DPNL_SEED", "7")
        argv = [
            "query",
            "--input", str(spend_csv), "--column", "spend",
            "--eps", "0.5", "--delta", "1e-5",
            "--ledger", str(ledger_path),
        ]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        # the release draws again from (DPNL_SEED, query_id)
        rng = np.random.default_rng([7, int(payload["query_id"], 16)])
        noise = make_mechanism("trunclap", PrivacyParams(0.5, 1e-5), 1.0).sample(rng)
        assert payload["noisy_value"] == 100.0 + float(noise)


class TestNoLeak:
    # The un-noised aggregate appears in no output: not as the release, and
    # not in the ledger, whose lines hold only what was spent and when.
    @pytest.mark.parametrize("aggregate", ["count", "sum", "mean"])
    @pytest.mark.parametrize("mech", QUERY_MECHANISMS)
    def test_release_is_not_the_aggregate(
        self, capsys, spend_csv, ledger_path, mech, aggregate
    ):
        with open(spend_csv, newline="") as fh:
            spend = [float(row["spend"]) for row in csv.DictReader(fh)]
        exact = {"count": float(len(spend)), "sum": sum(spend),
                 "mean": sum(spend) / len(spend)}[aggregate]
        code, out, err = run(
            capsys, "query", "--input", str(spend_csv), "--column", "spend",
            "--aggregate", aggregate, "--clip-lo", "0", "--clip-hi", "25",
            "--mech", mech, "--eps", "0.5", "--delta", "1e-5",
            "--seed", "2024", "--ledger", str(ledger_path),
        )
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert set(payload) == {
            "noisy_value", "epsilon_spent", "delta_spent", "query_id"
        }
        assert payload["noisy_value"] != pytest.approx(exact, rel=1e-9, abs=0)
        (line,) = ledger_path.read_text().splitlines()
        assert set(json.loads(line)) == LEDGER_KEYS


class TestConfigFile:
    def test_config_supplies_flags(self, capsys, tmp_path):
        conf = tmp_path / "dp.conf"
        conf.write_text(
            "# reference point\n"
            "eps = 0.1\n"
            "delta = 0.05\n"
            "\n"
            "cost = amplitude\n"
        )
        code, out, _ = run(capsys, "bounds", "--config", str(conf))
        assert code == 0
        assert json.loads(out)["lower"] == pytest.approx(
            2.674948670796755, rel=1e-14
        )

    def test_hash_inside_a_value_is_kept(self, capsys, tmp_path, spend_csv):
        # every line was cut at its first '#', so this charged, and created,
        # a ledger named 'runs'
        ledger = tmp_path / "runs#2.jsonl"
        conf = tmp_path / "dp.conf"
        conf.write_text(
            "# the ledger of the second run\n"
            f"ledger = {ledger}  # a comment after whitespace\n"
            "eps = 1\t# and after a tab\n"
            "delta = 1e-5\n"
        )
        code, out, err = run(
            capsys, "query", "--input", str(spend_csv), "--column", "spend",
            "--seed", "7", "--config", str(conf),
        )
        assert code == 0, err
        assert json.loads(out)["epsilon_spent"] == 1.0
        (line,) = ledger.read_text().splitlines()
        assert json.loads(line)["epsilon"] == 1.0
        assert not (tmp_path / "runs").exists()

    def test_full_line_comment_may_hold_anything(self, capsys, tmp_path):
        conf = tmp_path / "dp.conf"
        conf.write_text(
            "#eps = 7\n"
            "  # delta = 0.3 # no key = value here\n"
            "eps = 0.1\n"
            "delta = 0.05\n"
        )
        code, out, err = run(capsys, "bounds", "--config", str(conf))
        assert code == 0, err
        payload = json.loads(out)
        assert (payload["epsilon"], payload["delta"]) == (0.1, 0.05)

    def test_explicit_flag_wins(self, capsys, tmp_path):
        conf = tmp_path / "dp.conf"
        conf.write_text("eps = 0.1\ndelta = 0.05\n")
        _, out, _ = run(
            capsys, "bounds", "--config", str(conf), "--eps", "0.2"
        )
        assert json.loads(out)["epsilon"] == 0.2

    def test_malformed_config_line(self, capsys, tmp_path):
        conf = tmp_path / "dp.conf"
        conf.write_text("eps 0.1\n")
        code, _, err = run(capsys, "bounds", "--config", str(conf))
        assert code == 2
        assert "key = value" in err

    def test_unknown_key_is_refused(self, capsys, tmp_path, spend_csv, ledger_path):
        # a mistyped budget cap was dropped, and every query ran uncapped
        conf = tmp_path / "dp.conf"
        conf.write_text("eps = 1\ndelta = 1e-5\nbudget_eps = 0.5\n")
        code, out, err = run(
            capsys, "query", "--input", str(spend_csv), "--column", "spend",
            "--seed", "7", "--ledger", str(ledger_path),
            "--config", str(conf),
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {conf}:3: unknown key 'budget_eps'\n"
        assert not ledger_path.exists()

    def test_keys_of_other_subcommands_are_accepted(self, capsys, tmp_path):
        # one file can serve several subcommands
        conf = tmp_path / "dp.conf"
        conf.write_text("eps = 0.1\ndelta = 0.05\ncost = power\nn = 3\n")
        code, out, _ = run(capsys, "calibrate", "--config", str(conf))
        assert code == 0
        assert json.loads(out)["epsilon"] == 0.1

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "bounds", "--config", str(tmp_path / "nope.conf")
        )
        assert code == 2
        assert "config" in err


class TestTextbookGaussianIsGone:
    # The textbook sigma = sqrt(2 ln(1.25/delta))/eps is a guarantee only for
    # eps < 1; at eps = 20 it released a value whose real delta was 153
    # times the delta the ledger charged.
    @pytest.mark.parametrize("command", ["calibrate", "sample", "verify", "query"])
    def test_mechanism_name_is_refused(
        self, capsys, spend_csv, ledger_path, command
    ):
        argv = [command, "--mech", "gaussian-classic", "--eps", "20",
                "--delta", "1e-5"]
        if command in ("sample", "query"):
            argv += ["--seed", "7"]
        if command == "query":
            argv += ["--input", str(spend_csv), "--column", "spend",
                     "--ledger", str(ledger_path)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --mech must be one of ")
        assert err.count("\n") == 1
        assert not ledger_path.exists()

    @pytest.mark.parametrize("command", ["calibrate", "sample", "verify", "query"])
    def test_exact_gaussian_at_large_eps_is_silent(
        self, capsys, spend_csv, ledger_path, command
    ):
        # where the textbook sigma printed a range warning, the exact
        # calibration holds and has nothing to say
        argv = [command, "--mech", "gaussian-analytic", "--eps", "20",
                "--delta", "1e-5"]
        if command in ("sample", "query"):
            argv += ["--seed", "7"]
        if command == "query":
            argv += ["--input", str(spend_csv), "--column", "spend",
                     "--ledger", str(ledger_path)]
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert err == ""
        json.loads(out)
        if command == "query":
            assert len(ledger_path.read_text().splitlines()) == 1


class TestImports:
    def test_no_call_loads_scipy(self, spend_csv, ledger_path):
        # A fresh interpreter: no command, for any mechanism, loads scipy.
        # The probe looks after each mechanism's calls and after a sweep,
        # and last after importing scipy itself, to show it can see a load.
        # Neither the import nor any call loads logging (numpy does not) or
        # uuid (a query id is 48 bits of os.urandom).
        script = f"""
import sys
import dpnoise, dpnoise.cli
from dpnoise.cli import main

logging_loaded = ["logging" in sys.modules]
uuid_loaded = ["uuid" in sys.modules]

loaded = []
def probe():
    loaded.append(any(name.split(".")[0] == "scipy" for name in sys.modules))

for mech in ("trunclap", "laplace", "gaussian-analytic"):
    assert main(["calibrate", "--eps", "1", "--delta", "1e-5", "--mech", mech]) == 0
    assert main(["verify", "--eps", "1", "--delta", "1e-4", "--mech", mech]) == 0
    assert main(["sample", "--eps", "1", "--delta", "1e-5", "--n", "1000",
                 "--seed", "7", "--mech", mech]) == 0
    assert main(["query", "--input", {str(spend_csv)!r}, "--column", "spend",
                 "--aggregate", "sum", "--clip-lo", "0", "--clip-hi", "25",
                 "--eps", "0.5", "--delta", "1e-5", "--seed", "7",
                 "--mech", mech, "--ledger", {str(ledger_path)!r}]) == 0
    probe()
assert main(["sweep", "--eps-points", "5", "--delta-points", "5"]) == 0
probe()
logging_loaded.append("logging" in sys.modules)
uuid_loaded.append("uuid" in sys.modules)
import scipy.special
probe()
import logging
logging_loaded.append("logging" in sys.modules)
print("scipy loaded:", loaded, file=sys.stderr)
print("logging loaded:", logging_loaded, file=sys.stderr)
print("uuid loaded:", uuid_loaded, file=sys.stderr)
"""
        src = str(Path(dpnoise.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, timeout=120, check=True,
        )
        assert "scipy loaded: [False, False, False, False, True]" in proc.stderr
        assert "logging loaded: [False, False, True]" in proc.stderr
        assert "uuid loaded: [False, False]" in proc.stderr


class TestHelp:
    """The flag and subcommand tables against what ``--help`` shows."""

    FLAGS = {
        "calibrate": {"--eps", "--delta", "--sens", "--mech"},
        "sample": {"--eps", "--delta", "--sens", "--mech", "--n", "--seed"},
        "bounds": {"--eps", "--delta", "--sens", "--cost", "--n-mode"},
        "verify": {
            "--eps", "--delta", "--sens", "--mech", "--grid-step",
            "--target-eps", "--target-delta",
        },
        "sweep": {
            "--eps-min", "--eps-max", "--eps-points", "--delta-min",
            "--delta-max", "--delta-points", "--sens", "--cost", "--n-mode",
            "--format", "--out",
        },
        "query": {
            "--input", "--column", "--aggregate", "--clip-lo", "--clip-hi",
            "--mech", "--eps", "--delta", "--seed", "--ledger", "--budget-eps",
            "--budget-delta",
        },
    }

    @staticmethod
    def help_text(capsys, *argv):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--help"])
        assert exit_info.value.code == 0
        return capsys.readouterr().out

    def listed_flags(self, capsys, command):
        text = self.help_text(capsys, command)
        return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text)) - {"--help"}

    def test_top_level_lists_every_subcommand(self, capsys):
        text = self.help_text(capsys)
        assert "{" + ",".join(self.FLAGS) + "}" in text

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_subcommand_lists_its_flags_and_config(self, capsys, command):
        assert self.listed_flags(capsys, command) == self.FLAGS[command] | {"--config"}

    def test_every_config_key_belongs_to_a_subcommand(self, capsys):
        # a key of no subcommand would be accepted in a config file and
        # read by nothing
        listed = set().union(*(self.listed_flags(capsys, c) for c in self.FLAGS))
        assert listed == {f"--{name}" for name in cli._FLAGS}
