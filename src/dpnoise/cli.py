"""Command-line surface: calibrate, sample, bounds, verify, sweep, query.

Exit codes: 0 success (and privacy check passed), 1 privacy-check failure,
2 invalid flags/config/input (or not enough memory for the request),
3 budget cap would be exceeded, 4 an internal consistency check failed (a
bug, not a privacy verdict).  Stdout carries data only (JSON, CSV, SVG, or
samples); diagnostics go to stderr as one ``error: ...`` line each.

Every flag can also come from a flat ``key = value`` config file passed as
``--config`` (keys mirror the flag names without the leading dashes, and a
key that names no flag is an error; a ``#`` at the start of a line or after
whitespace begins a comment, so ``ledger = runs#2.jsonl`` names that file);
explicit flags win over the file.
``DPNL_SEED`` supplies a default seed: a 64-bit unsigned secret that, with
the ledger's query ids, reproduces every release.  Without a seed, `query`
and `sample` draw fresh OS entropy, which nothing recorded can reproduce.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from enum import Enum

from .analysis import SweepConfig, _emit_table, _sweep_table
from .bounds import bound_pair
from .core import (
    ConvergenceError,
    CostKind,
    DomainError,
    InvariantError,
    PrivacyParams,
    as_sensitivity,
)
from .query import (
    AggregateKind,
    BudgetError,
    MECHANISM_NAMES,
    QuerySpec,
    make_mechanism,
    make_rng,
    run_query,
)
from .verifier import discretize, dp_check

__all__ = ["main"]


# Every flag of every subcommand, with its help text.  A config file key
# must name one of them; it may belong to another subcommand, so one file
# can serve several.
_FLAGS = {
    "eps": dict(help="privacy parameter epsilon"),
    "delta": dict(help="privacy parameter delta, in (0, 1/2)"),
    "sens": dict(help="query sensitivity (default 1)"),
    "mech": dict(help=f"mechanism: one of {', '.join(MECHANISM_NAMES)}"),
    "cost": dict(help="cost kind: amplitude or power"),
    "n": dict(help="number of samples"),
    "seed": dict(help="64-bit unsigned secret seed (default: fresh OS entropy)"),
    "grid-step": dict(help="verifier cell width h; must divide sens"),
    "out": dict(help="output file (default stdout)"),
    "format": dict(help="output format: csv, json, or svg"),
    "config": dict(help="flat key = value config file; flags override"),
    "n-mode": dict(help="lower-bound step count: frac or floor"),
    "target-eps": dict(help="epsilon target to verify against"),
    "target-delta": dict(help="delta target to verify against"),
    "eps-min": {}, "eps-max": {}, "eps-points": {},
    "delta-min": {}, "delta-max": {}, "delta-points": {},
    "input": dict(help="input CSV path (header row required)"),
    "column": dict(help="target column name"),
    "aggregate": dict(help="count, sum, or mean"),
    "clip-lo": dict(
        help="lower clip bound; write a negative one in exponent form "
        "as --clip-lo=-1e3"
    ),
    "clip-hi": dict(help="upper clip bound"),
    "ledger": dict(help="budget ledger path (JSON lines)"),
    "budget-eps": dict(help="cap on total epsilon spend"),
    "budget-delta": dict(help="cap on total delta spend"),
}


def _load_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                # a '#' inside a value, as in a path, is part of it
                line = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DomainError(
                        f"{path}:{lineno}: expected 'key = value', got {line!r}"
                    )
                key, value = line.split("=", 1)
                key = key.strip()
                if key not in _FLAGS:
                    # a mistyped key would drop its flag, a budget cap say
                    raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
                cfg[key] = value.strip()
    except OSError as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from None
    return cfg


class _Options:
    """Flag values merged with the config file; flags take priority."""

    def __init__(self, args: argparse.Namespace) -> None:
        self._args = args
        config = getattr(args, "config", None)
        self._cfg = _load_config(config) if config else {}

    def raw(self, name: str, default=None):
        value = getattr(self._args, name.replace("-", "_"), None)
        if value is not None:
            return value
        return self._cfg.get(name, default)

    def number(self, name: str, default=None, required: bool = False):
        value = self.raw(name, default)
        if value is None:
            if required:
                raise DomainError(f"missing required option --{name}")
            return None
        try:
            return float(value)
        except (TypeError, ValueError):
            raise DomainError(f"--{name} expects a number, got {value!r}") from None

    def integer(self, name: str, default=None, required: bool = False):
        value = self.raw(name, default)
        if value is None:
            if required:
                raise DomainError(f"missing required option --{name}")
            return None
        try:
            return int(str(value), 0)
        except ValueError:
            raise DomainError(f"--{name} expects an integer, got {value!r}") from None

    def choice(self, name: str, choices, default=None):
        value = self.raw(name, default)
        if value not in choices:
            raise DomainError(
                f"--{name} must be one of {list(choices)}, got {value!r}"
            )
        return value

    def member(self, name: str, kind: "type[Enum]", default: Enum):
        """The member of ``kind`` whose value the option names."""
        return kind(self.choice(name, [k.value for k in kind], default.value))

    def seed(self):
        value = self.raw("seed")
        if value is None:
            value = os.environ.get("DPNL_SEED")
        return value  # None means fresh entropy


def _params(opt: _Options) -> PrivacyParams:
    return PrivacyParams(
        opt.number("eps", required=True), opt.number("delta", required=True)
    )


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_calibrate(args: argparse.Namespace) -> int:
    opt = _Options(args)
    name = opt.choice("mech", MECHANISM_NAMES, default="trunclap")
    params = _params(opt)
    sens = as_sensitivity(opt.number("sens", default=1.0))
    mech = make_mechanism(name, params, sens)
    _print_json(
        {
            "mechanism": name,
            "epsilon": params.epsilon,
            "delta": params.delta,
            "sensitivity": sens.value,
            "parameters": mech.parameters,
            "expected_amplitude": mech.expected_amplitude,
            "expected_power": mech.expected_power,
        }
    )
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    opt = _Options(args)
    name = opt.choice("mech", MECHANISM_NAMES, default="trunclap")
    params = _params(opt)
    sens = as_sensitivity(opt.number("sens", default=1.0))
    n = opt.integer("n", default=1)
    if n < 1:
        raise DomainError(f"--n must be at least 1, got {n}")
    mech = make_mechanism(name, params, sens)
    values = mech.sample(make_rng(opt.seed()), n)
    out = sys.stdout
    for v in values:
        out.write(format(float(v), ".17g") + "\n")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    opt = _Options(args)
    params = _params(opt)
    sens = as_sensitivity(opt.number("sens", default=1.0))
    cost = opt.member("cost", CostKind, CostKind.AMPLITUDE)
    n_mode = opt.choice("n-mode", ("frac", "floor"), default="frac")
    pair = bound_pair(params, sens, cost)
    lower = pair.lower if n_mode == "frac" else pair.lower_floor
    _print_json(
        {
            "epsilon": params.epsilon,
            "delta": params.delta,
            "sensitivity": sens.value,
            "cost": pair.cost.value,
            "lower": lower,
            "upper": pair.upper,
            "ratio": lower / pair.upper,
            "steps_fractional": pair.steps_fractional,
            "steps_floor": pair.steps_floor,
            "lower_fractional": pair.lower,
            "lower_floor": pair.lower_floor,
        }
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    opt = _Options(args)
    name = opt.choice("mech", MECHANISM_NAMES, default="trunclap")
    params = _params(opt)
    sens = as_sensitivity(opt.number("sens", default=1.0))
    step = opt.number("grid-step")  # None: discretize's default
    target = PrivacyParams(
        opt.number("target-eps", default=params.epsilon),
        opt.number("target-delta", default=params.delta),
    )
    mech = make_mechanism(name, params, sens)
    dist = discretize(mech, sens, step=step)
    report = dp_check(dist, target)
    _print_json(report.to_dict())
    return 0 if report.passed else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    opt = _Options(args)
    grid = {
        "eps_min": opt.number("eps-min"),
        "eps_max": opt.number("eps-max"),
        "eps_points": opt.integer("eps-points"),
        "delta_min": opt.number("delta-min"),
        "delta_max": opt.number("delta-max"),
        "delta_points": opt.integer("delta-points"),
        "sensitivity": opt.number("sens"),
    }
    config = SweepConfig(
        # only the flags given: SweepConfig holds the defaults
        **{name: value for name, value in grid.items() if value is not None},
        cost=opt.member("cost", CostKind, CostKind.AMPLITUDE),
        fractional_steps=opt.choice("n-mode", ("frac", "floor"), default="frac")
        == "frac",
    )
    fmt = opt.choice("format", ("csv", "json", "svg"), default="csv")
    data = _emit_table(_sweep_table(config), fmt)  # builds no SweepRow
    out_path = opt.raw("out")
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    opt = _Options(args)
    clip_lo = opt.number("clip-lo")
    clip_hi = opt.number("clip-hi")
    if (clip_lo is None) != (clip_hi is None):
        raise DomainError("--clip-lo and --clip-hi must be given together")
    clip = None if clip_lo is None else (clip_lo, clip_hi)
    input_path = opt.raw("input")
    column = opt.raw("column")
    if input_path is None:
        raise DomainError("missing required option --input")
    if column is None:
        raise DomainError("missing required option --column")
    spec = QuerySpec(
        input_path=input_path,
        column=column,
        aggregate=opt.member("aggregate", AggregateKind, AggregateKind.COUNT),
        mechanism=opt.choice("mech", MECHANISM_NAMES, default="trunclap"),
        params=_params(opt),
        seed=opt.seed(),
        clip=clip,
    )
    result = run_query(
        spec,
        ledger_path=opt.raw("ledger", default="dpnoise-ledger.jsonl"),
        budget_eps=opt.number("budget-eps"),
        budget_delta=opt.number("budget-delta"),
    )
    if math.isnan(result["noisy_value"]):
        result["noisy_value"] = None  # NaN is not JSON
    _print_json(result)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(f"--{name}", default=None, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpnoise",
        description="Noise mechanisms for differential privacy: calibration, "
        "bounds, verification, sweeps, and private CSV aggregates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="calibrate a mechanism, print parameters and costs")
    _add_common(p, "eps", "delta", "sens", "mech", "config")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("sample", help="print n noise samples, one per line")
    _add_common(p, "eps", "delta", "sens", "mech", "n", "seed", "config")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("bounds", help="print lower/upper cost bounds and their ratio")
    _add_common(p, "eps", "delta", "sens", "cost", "n-mode", "config")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="discretized privacy check; exit 1 on failure")
    _add_common(
        p, "eps", "delta", "sens", "mech", "grid-step",
        "target-eps", "target-delta", "config",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="bounds-vs-baselines table as csv/json/svg")
    _add_common(
        p, "eps-min", "eps-max", "eps-points", "delta-min", "delta-max",
        "delta-points", "sens", "cost", "n-mode", "format", "out", "config",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("query", help="differentially private CSV aggregate")
    _add_common(
        p, "input", "column", "aggregate", "clip-lo", "clip-hi", "mech",
        "eps", "delta", "seed", "ledger", "budget-eps", "budget-delta",
        "config",
    )
    p.set_defaults(func=cmd_query)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
