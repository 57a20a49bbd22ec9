"""Command-line surface: calibrate, sample, bounds, verify, sweep, query.

Exit codes: 0 success (and privacy check passed), 1 privacy-check failure,
2 invalid flags/config/input (or not enough memory for the request),
3 budget cap would be exceeded, 4 an internal consistency check failed (a
bug, not a privacy verdict).  Stdout carries data only (JSON, CSV, SVG, or
samples); diagnostics go to stderr as one ``error: ...`` line each.

Every flag can also come from a flat ``key = value`` config file passed as
``--config``: its keys are the names of the flag table, ``_FLAGS`` (the
flag names without the leading dashes), and a key that names no flag is an
error; a ``#`` at the start of a line or after whitespace begins a comment,
so ``ledger = runs#2.jsonl`` names that file.  Explicit flags win over the
file.
``DPNL_SEED`` supplies a default seed: a 64-bit unsigned secret that, with
the ledger's query ids, reproduces every release.  Without a seed, `query`
and `sample` draw fresh OS entropy, which nothing recorded can reproduce.

A call imports this module's flag tables, the mechanisms and the query
pipeline (numpy with them), and then only what its subcommand uses: the
bounds, the verifier and the sweep are imported by the handler that first
needs them (`_DEFERRED`).  With ``PYTHONDONTWRITEBYTECODE=1``, so that
the package is compiled in every call, a call in a fresh process takes
145–180 ms, 3–30 ms less than when every module was imported up front;
numpy is 80–100 ms of it (the README has the table).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from enum import Enum

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

__all__ = ["main"]


# The names of the bounds, the verifier and the sweep, each imported (by
# the package, from its module) when a handler first needs it and kept in
# this module's globals, where the handler looks it up: a call compiles
# only the modules its subcommand uses, and a name set here (a test's
# stand-in, say) is the one called.
_DEFERRED = ("bound_pair", "discretize", "dp_check", "SweepConfig", "run_sweep", "emit")


def __getattr__(name: str):
    """A `_DEFERRED` name, imported and kept in the globals."""
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[__package__], name)
    globals()[name] = value
    return value


def _load(*names: str) -> None:
    """Put each `_DEFERRED` name in the globals, unless it is there."""
    for name in names:
        if name not in globals():
            __getattr__(name)


# Every flag of every subcommand: (reader, default, help).  The reader is
# float, int (any base prefix), str, a tuple of the accepted texts or an
# Enum whose values they are.  A default of None leaves the value to the
# library (SweepConfig's grid, discretize's step) or to the handler.  A
# config file key must name a flag; it may belong to another subcommand,
# so one file can serve several.
_FLAGS = {
    "eps": (float, None, "privacy parameter epsilon"),
    "delta": (float, None, "privacy parameter delta, in (0, 1/2)"),
    "sens": (float, None, "query sensitivity (default 1)"),
    "mech": (MECHANISM_NAMES, "trunclap",
             f"mechanism: one of {', '.join(MECHANISM_NAMES)}"),
    "cost": (CostKind, CostKind.AMPLITUDE, "cost kind: amplitude or power"),
    "n": (int, 1, "number of samples"),
    "seed": (str, None, "64-bit unsigned secret seed (default: fresh OS entropy)"),
    "grid-step": (float, None, "verifier cell width h; must divide sens"),
    "out": (str, None, "output file (default stdout)"),
    "format": (("csv", "json", "svg"), "csv", "output format: csv, json, or svg"),
    "config": (str, None, "flat key = value config file; flags override"),
    "n-mode": (("frac", "floor"), "frac", "lower-bound step count: frac or floor"),
    "target-eps": (float, None, "epsilon target to verify against"),
    "target-delta": (float, None, "delta target to verify against"),
    "eps-min": (float, None, None), "eps-max": (float, None, None),
    "eps-points": (int, None, None),
    "delta-min": (float, None, None), "delta-max": (float, None, None),
    "delta-points": (int, None, None),
    "input": (str, None, "input CSV path (header row required)"),
    "column": (str, None, "target column name"),
    "aggregate": (AggregateKind, AggregateKind.COUNT, "count, sum, or mean"),
    "clip-lo": (float, None, "lower clip bound; write a negative one in exponent "
                "form as --clip-lo=-1e3"),
    "clip-hi": (float, None, "upper clip bound"),
    "ledger": (str, "dpnoise-ledger.jsonl", "budget ledger path (JSON lines)"),
    "budget-eps": (float, None, "cap on total epsilon spend"),
    "budget-delta": (float, None, "cap on total delta spend"),
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
        self._cfg = _load_config(args.config) if args.config else {}

    def get(self, name: str, required: bool = False):
        """``--name`` read by its reader; its default if it is not given.
        A seed not given comes from ``DPNL_SEED``; None means fresh
        entropy."""
        reader, default, _ = _FLAGS[name]
        value = getattr(self._args, name.replace("-", "_"), None)
        if value is None:
            value = self._cfg.get(name)
        if value is None and name == "seed":
            value = os.environ.get("DPNL_SEED")
        if value is None:
            if required:
                raise DomainError(f"missing required option --{name}")
            return default
        if isinstance(reader, tuple) or issubclass(reader, Enum):
            choices = reader if isinstance(reader, tuple) else [k.value for k in reader]
            if value not in choices:
                raise DomainError(
                    f"--{name} must be one of {list(choices)}, got {value!r}"
                )
            return value if isinstance(reader, tuple) else reader(value)
        try:
            return int(value, 0) if reader is int else reader(value)
        except ValueError:
            kind = "an integer" if reader is int else "a number"
            raise DomainError(f"--{name} expects {kind}, got {value!r}") from None


def _params(opt: _Options) -> PrivacyParams:
    eps = opt.get("eps", required=True)
    return PrivacyParams(eps, opt.get("delta", required=True))


def _sens(opt: _Options):
    # 1 when not given; a sweep leaves it to SweepConfig
    sens = opt.get("sens")
    return as_sensitivity(1.0 if sens is None else sens)


def _mechanism(opt: _Options) -> tuple:
    """(name, params, sensitivity) of the mechanism to build, read from
    --mech, --eps, --delta and --sens in that order."""
    return opt.get("mech"), _params(opt), _sens(opt)


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# Subcommands: the order in which each reads its flags decides which error
# a command line with several is refused for.


def cmd_calibrate(opt: _Options) -> int:
    name, params, sens = _mechanism(opt)
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


def cmd_sample(opt: _Options) -> int:
    name, params, sens = _mechanism(opt)
    n = opt.get("n")
    if n < 1:
        raise DomainError(f"--n must be at least 1, got {n}")
    mech = make_mechanism(name, params, sens)
    values = mech.sample(make_rng(opt.get("seed")), n)
    out = sys.stdout
    for v in values:
        out.write(format(float(v), ".17g") + "\n")
    return 0


def cmd_bounds(opt: _Options) -> int:
    params, sens = _params(opt), _sens(opt)
    cost = opt.get("cost")
    n_mode = opt.get("n-mode")
    _load("bound_pair")
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


def cmd_verify(opt: _Options) -> int:
    name, params, sens = _mechanism(opt)
    step = opt.get("grid-step")  # None: discretize's default
    target_eps, target_delta = opt.get("target-eps"), opt.get("target-delta")
    target = PrivacyParams(
        params.epsilon if target_eps is None else target_eps,
        params.delta if target_delta is None else target_delta,
    )
    mech = make_mechanism(name, params, sens)
    _load("discretize", "dp_check")
    dist = discretize(mech, sens, step=step)
    report = dp_check(dist, target)
    _print_json(report.to_dict())
    return 0 if report.passed else 1


def cmd_sweep(opt: _Options) -> int:
    grid = {name.replace("-", "_"): opt.get(name) for name in (
        "eps-min", "eps-max", "eps-points", "delta-min", "delta-max", "delta-points")}
    grid["sensitivity"] = opt.get("sens")
    _load("SweepConfig", "run_sweep", "emit")
    config = SweepConfig(
        # only the flags given: SweepConfig holds the defaults
        **{name: value for name, value in grid.items() if value is not None},
        cost=opt.get("cost"),
        fractional_steps=opt.get("n-mode") == "frac",
    )
    fmt = opt.get("format")
    data = emit(run_sweep(config), fmt)
    out_path = opt.get("out")
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return 0


def cmd_query(opt: _Options) -> int:
    clip_lo = opt.get("clip-lo")
    clip_hi = opt.get("clip-hi")
    if (clip_lo is None) != (clip_hi is None):
        raise DomainError("--clip-lo and --clip-hi must be given together")
    spec = QuerySpec(
        input_path=opt.get("input", required=True),
        column=opt.get("column", required=True),
        aggregate=opt.get("aggregate"),
        mechanism=opt.get("mech"),
        params=_params(opt),
        seed=opt.get("seed"),
        clip=None if clip_lo is None else (clip_lo, clip_hi),
    )
    result = run_query(
        spec,
        ledger_path=opt.get("ledger"),
        budget_eps=opt.get("budget-eps"),
        budget_delta=opt.get("budget-delta"),
    )
    if math.isnan(result["noisy_value"]):
        result["noisy_value"] = None  # NaN is not JSON
    _print_json(result)
    return 0


# ---------------------------------------------------------------------------
# Parser and exit codes


# Every subcommand: (handler, help, flags in --help order); each also takes
# --config.
_COMMANDS = {
    "calibrate": (
        cmd_calibrate, "calibrate a mechanism, print parameters and costs",
        ("eps", "delta", "sens", "mech"),
    ),
    "sample": (
        cmd_sample, "print n noise samples, one per line",
        ("eps", "delta", "sens", "mech", "n", "seed"),
    ),
    "bounds": (
        cmd_bounds, "print lower/upper cost bounds and their ratio",
        ("eps", "delta", "sens", "cost", "n-mode"),
    ),
    "verify": (
        cmd_verify, "discretized privacy check; exit 1 on failure",
        ("eps", "delta", "sens", "mech", "grid-step", "target-eps", "target-delta"),
    ),
    "sweep": (
        cmd_sweep, "bounds-vs-baselines table as csv/json/svg",
        ("eps-min", "eps-max", "eps-points", "delta-min", "delta-max",
         "delta-points", "sens", "cost", "n-mode", "format", "out"),
    ),
    "query": (
        cmd_query, "differentially private CSV aggregate",
        ("input", "column", "aggregate", "clip-lo", "clip-hi", "mech", "eps",
         "delta", "seed", "ledger", "budget-eps", "budget-delta"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpnoise",
        description="Noise mechanisms for differential privacy: calibration, "
        "bounds, verification, sweeps, and private CSV aggregates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in (*flags, "config"):
            # default None: a flag not given falls back to the config file
            p.add_argument(f"--{name}", default=None, help=_FLAGS[name][2])
        p.set_defaults(func=handler)
    return parser


# Each refusal: (exit code, text before its message).  A MemoryError may
# come without a message.
_EXITS = {
    BudgetError: (3, ""),
    DomainError: (2, ""), ConvergenceError: (2, ""), OSError: (2, ""),
    MemoryError: (2, ""),
    InvariantError: (4, "internal check failed: "),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_Options(args))
    except tuple(_EXITS) as exc:
        code, prefix = next(v for kind, v in _EXITS.items() if isinstance(exc, kind))
        print(f"error: {prefix}{str(exc) or 'out of memory'}", file=sys.stderr)
        return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
