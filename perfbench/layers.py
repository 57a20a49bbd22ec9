"""Which public dpnoise names the traced run wraps, and the per-module
metrics derived from their spans.

Each name is wrapped in the namespace its callers look it up in: the
harness calls `dpnoise.verifier.discretize`, `cli.cmd_verify` calls
`dpnoise.cli.discretize`, `run_sweep` calls `dpnoise.analysis.*`, and so
on.  A metric whose spans never occur on a workload reads 0 there; that is
the bypass the README's layer table predicts.
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import Tracer

BOUNDS_FUNCTIONS = (
    "lower_bound_params",
    "amplitude_upper_bound",
    "power_upper_bound",
    "amplitude_lower_bound",
    "power_lower_bound",
)
SUBCOMMANDS = ("calibrate", "sample", "bounds", "verify", "sweep", "query")

UNITS = {
    "verifier.discretize_s": "s",
    "verifier.discretize_ns_per_cell": "ns/cell",
    "verifier.discretize_self_ns_per_cell": "ns/cell",
    "verifier.dp_check_s": "s",
    "verifier.dp_check_ns_per_cell": "ns/cell",
    "verifier.largest_grid_peak_alloc_mb": "MB",
    "verifier.bytes_per_cell": "B/cell",
    "verifier.cells": "count",
    "verifier.checks": "count",
    "trunclap.interval_mass_ns_per_cell": "ns/cell",
    "trunclap.calibrate_us": "us",
    "baselines.gaussian_interval_mass_ns_per_cell": "ns/cell",
    "baselines.analytic_gaussian_sigma_us": "us",
    "baselines.classic_gaussian_sigma_us": "us",
    "bounds.bound_pair_us": "us",
    "analysis.run_sweep_s": "s",
    "analysis.emit_csv_ms": "ms",
    "analysis.emit_json_ms": "ms",
    "analysis.emit_svg_ms": "ms",
    "analysis.rows": "count",
    "query.run_query_s": "s",
    "query.read_us_per_row": "us/row",
    "query.ledger_totals_ms": "ms",
    "query.ledger_append_us": "us",
    "query.ledger_entries": "count",
    "query.make_mechanism_us": "us",
    "core.sample_ns_per_draw": "ns/draw",
    "core.sample_scalar_us": "us",
    "cli.interp_s": "s",
    "cli.import_s": "s",
    **{f"cli.main_ms.{sub}": "ms" for sub in SUBCOMMANDS},
    "cli.calls": "count",
    "trace.overhead_ratio": "ratio",
}


def _sample_size(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("n")


def _emit_format(args, kwargs) -> str:
    fmt = args[1] if len(args) > 1 else kwargs.get("fmt", "csv")
    return "analysis.emit_" + str(fmt).lower()


def install(tracer: Tracer, rows_by_path: dict) -> None:
    """Wrap every public name the per-module metrics are built from."""
    from dpnoise import analysis, baselines, cli, core, query, trunclap, verifier

    def cells(args, kwargs, result):
        return int(result.masses.size)

    def checked_cells(args, kwargs, result):
        return int(args[0].masses.size)

    def edges(args, kwargs, result):
        return int(np.size(args[1]))

    for ns in (verifier, cli):
        tracer.wrap(ns, "discretize", "verifier.discretize", cells)
        tracer.wrap(ns, "dp_check", "verifier.dp_check", checked_cells)
    tracer.wrap(trunclap.TruncatedLaplace, "interval_mass", "trunclap.interval_mass", edges)
    tracer.wrap(baselines.Gaussian, "interval_mass", "baselines.gaussian_interval_mass", edges)
    tracer.wrap(trunclap, "calibrate", "trunclap.calibrate")
    for ns in (analysis, cli):
        for name in BOUNDS_FUNCTIONS:
            tracer.wrap(ns, name, "bounds." + name)
    for ns in (analysis, query):
        for name in ("analytic_gaussian_sigma", "classic_gaussian_sigma"):
            tracer.wrap(ns, name, "baselines." + name)
    for ns in (query, cli):
        tracer.wrap(ns, "make_mechanism", "query.make_mechanism")
    tracer.wrap(cli, "run_query", "query.run_query",
                lambda args, kwargs, result: rows_by_path.get(str(args[0].input_path), 0))
    tracer.wrap(query.BudgetLedger, "totals", "query.ledger_totals")
    tracer.wrap(query.BudgetLedger, "append", "query.ledger_append")
    tracer.wrap(
        core.NoiseMechanism, "sample",
        lambda args, kwargs: "core.sample_" + ("scalar" if _sample_size(args, kwargs) is None else "vector"),
        lambda args, kwargs, result: int(np.size(result)),
    )
    tracer.wrap(cli, "run_sweep", "analysis.run_sweep", lambda args, kwargs, result: len(result))
    tracer.wrap(cli, "emit", _emit_format)
    tracer.wrap(cli, "main", lambda args, kwargs: "cli.main." + str(args[0][0]))


def metrics(tr: Tracer) -> dict[str, float]:
    """Per-module metrics from the spans of one traced round."""
    disc = tr.stats("verifier.discretize")
    check = tr.stats("verifier.dp_check")
    bounds = [tr.stats("bounds." + name) for name in BOUNDS_FUNCTIONS]
    points = bounds[0].calls  # one lower_bound_params call per bound pair
    sweep = tr.stats("analysis.run_sweep")
    run_query = tr.stats("query.run_query")
    mains = {sub: tr.stats("cli.main." + sub) for sub in SUBCOMMANDS}
    return {
        "verifier.discretize_s": disc.total_ns / 1e9,
        "verifier.discretize_ns_per_cell": disc.per_work(1),
        # verifier self time: discretize minus the mechanism's interval_mass
        "verifier.discretize_self_ns_per_cell":
            tr.self_ns("verifier.discretize") / disc.work if disc.work else 0.0,
        "verifier.dp_check_s": check.total_ns / 1e9,
        "verifier.dp_check_ns_per_cell": check.per_work(1),
        "verifier.cells": disc.work,
        "verifier.checks": check.calls,
        "trunclap.interval_mass_ns_per_cell": tr.stats("trunclap.interval_mass").per_work(1),
        "trunclap.calibrate_us": tr.stats("trunclap.calibrate").mean(1e3),
        "baselines.gaussian_interval_mass_ns_per_cell":
            tr.stats("baselines.gaussian_interval_mass").per_work(1),
        "baselines.analytic_gaussian_sigma_us":
            tr.stats("baselines.analytic_gaussian_sigma").mean(1e3),
        "baselines.classic_gaussian_sigma_us":
            tr.stats("baselines.classic_gaussian_sigma").mean(1e3),
        "bounds.bound_pair_us": sum(b.total_ns for b in bounds) / points / 1e3 if points else 0.0,
        "analysis.run_sweep_s": sweep.mean(1e9),
        **{f"analysis.emit_{fmt}_ms": tr.stats("analysis.emit_" + fmt).mean(1e6)
           for fmt in ("csv", "json", "svg")},
        "analysis.rows": sweep.work,
        "query.run_query_s": run_query.mean(1e9),
        # CSV reading is what run_query does outside the ledger, the
        # mechanism factory and the sampler.
        "query.read_us_per_row":
            tr.self_ns("query.run_query") / run_query.work / 1e3 if run_query.work else 0.0,
        "query.ledger_totals_ms": tr.stats("query.ledger_totals").mean(1e6),
        "query.ledger_append_us": tr.stats("query.ledger_append").mean(1e3),
        "query.make_mechanism_us": tr.stats("query.make_mechanism").mean(1e3),
        "core.sample_ns_per_draw": tr.stats("core.sample_vector").per_work(1),
        "core.sample_scalar_us": tr.stats("core.sample_scalar").mean(1e3),
        **{f"cli.main_ms.{sub}": statistics.median(s.durations_ns) / 1e6 if s.calls else 0.0
           for sub, s in mains.items()},
        "cli.calls": sum(s.calls for s in mains.values()),
    }
