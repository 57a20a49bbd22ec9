"""The four workloads: one client in a closed loop, one op at a time.

Each workload builds its inputs from the seed in `prepare` (untimed), and
`ops` lists one round of ops.  An op runs, times itself, and checks its own
output; it returns (seconds, work items, ok).  The checks assert only what
holds for any correct release: no noise value is pinned, extra JSON keys are
ignored, and every release draws from its own seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

import datagen
from dpnoise import cli, verifier
from dpnoise.core import PrivacyParams
from dpnoise.trunclap import TruncatedLaplace

# The acceptance verify grid (tests/test_acceptance.py, criterion 02).
VERIFY_EPS = np.geomspace(1e-3, 10.0, 10)
VERIFY_DELTA = np.geomspace(1e-6, 0.1, 10)
GRID_STEP = 1e-3
QUERY_EPS, QUERY_DELTA = 0.5, 1e-5
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Scale:
    rows: int
    head_rows: int
    ledger_entries: int
    verify_points: tuple
    sweep_points: int
    session_sweep_points: int
    setup_samples: int


_GRID = tuple((float(e), float(d)) for e in VERIFY_EPS for d in VERIFY_DELTA)
FULL = Scale(1_000_000, 10_000, 20_000, _GRID, 100, 20, 5)
# Smallest setting, for the harness self-test: the four grid points with
# the largest epsilon and delta, and inputs a fiftieth of the full size.
SMOKE = Scale(
    20_000, 2_000, 400,
    tuple((float(e), float(d)) for e in VERIFY_EPS[-2:] for d in VERIFY_DELTA[-2:]),
    10, 5, 2,
)


@dataclass
class Context:
    seed: int
    scale: Scale
    work: Path  # generated inputs and op outputs
    env: dict  # environment for child processes
    rows_by_path: dict = field(default_factory=dict)  # for rows-per-query counts
    ledger_sizes: list = field(default_factory=list)  # entries before each query
    op_index: int = 0

    def release_seed(self) -> int:
        """A distinct 64-bit seed for each release, from (seed, op index)."""
        self.op_index += 1
        state = np.random.SeedSequence([self.seed, self.op_index]).generate_state(1, np.uint64)
        return int(state[0])


def call_main(argv: list[str]) -> tuple[int, str, float]:
    """Run ``dpnoise.cli.main`` in-process; (exit code, stdout, seconds)."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
        out.flush()
    return code, out.buffer.getvalue().decode("utf-8"), seconds


def call_child(ctx: Context, argv: list[str]) -> tuple[int, str, float]:
    """Run the ``dpnoise`` command in a fresh interpreter, timed from here."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "dpnoise.cli", *argv],
        capture_output=True, text=True, env=ctx.env, timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Output checks


def trunclap_radius(eps: float, delta: float, sens: float) -> float:
    """Support half-width A of the truncated Laplacian (Geng et al.)."""
    return sens / eps * math.log1p(math.expm1(eps) / (2.0 * delta))


def release_window(aggregate: str, truth: datagen.Truth) -> tuple[float, float]:
    """Where a trunclap release must land: within ±A of the true aggregate."""
    n, s = truth.rows, truth.clipped_sum
    sens = max(abs(v) for v in datagen.CLIP)
    if aggregate == "count":
        a = trunclap_radius(QUERY_EPS, QUERY_DELTA, 1.0)
        lo, hi = n - a, n + a
    elif aggregate == "sum":
        a = trunclap_radius(QUERY_EPS, QUERY_DELTA, sens)
        lo, hi = s - a, s + a
    else:  # noisy sum over noisy count, half the budget each
        a_sum = trunclap_radius(QUERY_EPS / 2, QUERY_DELTA / 2, sens)
        a_count = trunclap_radius(QUERY_EPS / 2, QUERY_DELTA / 2, 1.0)
        if n <= a_count:
            raise ValueError("the input is too small for a mean query at this budget")
        corners = [(s + x) / (n + y) for x in (-a_sum, a_sum) for y in (-a_count, a_count)]
        lo, hi = min(corners), max(corners)
    slack = 1e-9 * max(abs(lo), abs(hi), 1.0)
    return lo - slack, hi + slack


class Ledger:
    """Reads what each query appends to a ledger file."""

    def __init__(self, path: Path, entries: int = 0) -> None:
        self.path = path
        self.entries = entries
        self._offset = path.stat().st_size if path.exists() else 0

    def appended(self) -> list[str]:
        with open(self.path, "rb") as fh:
            fh.seek(self._offset)
            data = fh.read()
        self._offset += len(data)
        lines = data.decode("utf-8").splitlines()
        self.entries += len(lines)
        return lines


def query_ok(code: int, stdout: str, aggregate: str, truth, ledger: Ledger) -> bool:
    """Exit 0, a finite release within ±A, and exactly one new ledger line at ε."""
    new = ledger.appended()
    if code != 0:
        return False
    noisy = float(json.loads(stdout)["noisy_value"])
    lo, hi = release_window(aggregate, truth)
    return (
        math.isfinite(noisy)
        and lo <= noisy <= hi
        and len(new) == 1
        and float(json.loads(new[0])["epsilon"]) == QUERY_EPS
    )


def query_argv(path: Path, aggregate: str, seed: int, ledger: Path) -> list[str]:
    return [
        "query", "--input", str(path), "--column", "spend",
        "--aggregate", aggregate, "--clip-lo", repr(datagen.CLIP[0]),
        "--clip-hi", repr(datagen.CLIP[1]), "--mech", "trunclap",
        "--eps", repr(QUERY_EPS), "--delta", repr(QUERY_DELTA),
        "--seed", str(seed), "--ledger", str(ledger),
    ]


def svg_ratios(data: str) -> list[float]:
    """The bound ratios a sweep heatmap carries in its cell titles."""
    titles = ET.fromstring(data).iter("{http://www.w3.org/2000/svg}title")
    return [float(t.text.rsplit("ratio=", 1)[1]) for t in titles if "ratio=" in (t.text or "")]


def sweep_ok(data: str, fmt: str, points: int) -> bool:
    """Every point present, 0 < lower/upper <= 1, and trunclap below Gaussian."""
    if fmt == "svg":
        ratios = svg_ratios(data)
        return len(ratios) == points and all(0.0 < r <= 1.0 for r in ratios)
    rows = json.loads(data) if fmt == "json" else list(csv.DictReader(io.StringIO(data)))
    return len(rows) == points and all(
        0.0 < float(r["ratio_bounds"]) <= 1.0
        and float(r["tl_cost"]) < float(r["gauss_analytic"])
        for r in rows
    )


def json_ok(stdout: str) -> bool:
    return isinstance(json.loads(stdout), dict)


def samples_ok(stdout: str, n: int) -> bool:
    values = [float(v) for v in stdout.split()]
    return len(values) == n and all(math.isfinite(v) for v in values)


def svg_ok(stdout: str) -> bool:
    return ET.fromstring(stdout).tag.endswith("svg")


# ---------------------------------------------------------------------------
# Workloads


class VerifyGrid:
    """Each op: calibrate, discretize, accept at delta and reject at delta/2."""

    item = "cells"

    def __init__(self, ctx: Context, in_process: bool) -> None:
        self.ctx = ctx
        points = ctx.scale.verify_points
        order = np.random.default_rng([ctx.seed, 1]).permutation(len(points))
        self.points = [points[i] for i in order]

    def prepare(self) -> list[dict]:
        return [{"name": "verify grid", "points": len(self.points), "step": GRID_STEP,
                 "order": [f"{e:.3g}/{d:.3g}" for e, d in self.points]}]

    def ops(self):
        return [(f"verify {e:.3g} {d:.3g}", partial(self.point, e, d)) for e, d in self.points]

    @staticmethod
    def point(eps: float, delta: float) -> tuple[float, int, bool]:
        start = time.perf_counter()
        params = PrivacyParams(eps, delta)
        dist = verifier.discretize(TruncatedLaplace.from_privacy(params, 1.0), 1.0, step=GRID_STEP)
        accept = verifier.dp_check(dist, params)
        reject = verifier.dp_check(dist, PrivacyParams(eps, delta / 2.0))
        seconds = time.perf_counter() - start
        return seconds, int(dist.masses.size), bool(accept.passed and not reject.passed)

    def probe(self) -> dict:
        """Peak traced allocation of one op at the grid's largest point."""
        eps = min(e for e, _ in self.points)
        delta = min(d for _, d in self.points)
        tracemalloc.start()
        try:
            _, cells, _ = self.point(eps, delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {"verifier.largest_grid_peak_alloc_mb": peak / 1e6,
                "verifier.bytes_per_cell": peak / cells}


class QueryBulk:
    """Each op: one in-process count, sum or mean query on the full CSV."""

    item = "rows"
    aggregates = ("count", "sum", "mean")

    def __init__(self, ctx: Context, in_process: bool) -> None:
        self.ctx = ctx
        self.csv = ctx.work / "bulk.csv"

    def prepare(self) -> list[dict]:
        self.truth = datagen.write_csv(self.ctx.seed, self.ctx.scale.rows, self.csv)
        self.ctx.rows_by_path[str(self.csv)] = self.truth.rows
        return [datagen.describe(self.csv, header_lines=1)]

    def ops(self):
        return [(f"query {a}", partial(self.query, a)) for a in self.aggregates]

    def query(self, aggregate: str) -> tuple[float, int, bool]:
        path = self.ctx.work / "bulk-ledger.jsonl"
        path.unlink(missing_ok=True)  # a fresh ledger for every query
        ledger = Ledger(path)
        self.ctx.ledger_sizes.append(ledger.entries)
        argv = query_argv(self.csv, aggregate, self.ctx.release_seed(), path)
        code, stdout, seconds = call_main(argv)
        return seconds, self.truth.rows, query_ok(code, stdout, aggregate, self.truth, ledger)


class SweepGrid:
    """Each op: one in-process 100 x 100 sweep, written in one format."""

    item = "points"

    def __init__(self, ctx: Context, in_process: bool) -> None:
        self.ctx = ctx
        kinds = [("amplitude", "csv"), ("power", "json"), ("amplitude", "svg")]
        turn = ctx.seed % len(kinds)  # the seed sets which op leads a round
        self.kinds = kinds[turn:] + kinds[:turn]

    def prepare(self) -> list[dict]:
        n = self.ctx.scale.sweep_points
        return [{"name": "sweep grid", "points": n * n, "ops": [f"{c}/{f}" for c, f in self.kinds]}]

    def ops(self):
        return [(f"sweep {c} {f}", partial(self.sweep, c, f)) for c, f in self.kinds]

    def sweep(self, cost: str, fmt: str) -> tuple[float, int, bool]:
        n = self.ctx.scale.sweep_points
        out = self.ctx.work / f"sweep.{fmt}"
        code, _, seconds = call_main([
            "sweep", "--eps-points", str(n), "--delta-points", str(n),
            "--cost", cost, "--format", fmt, "--out", str(out),
        ])
        ok = code == 0 and sweep_ok(out.read_text(encoding="utf-8"), fmt, n * n)
        return seconds, n * n, ok


class CliSession:
    """Each op: one ``dpnoise`` call from a fixed script.

    Calls run in fresh interpreters; the traced run replays the same script
    through ``cli.main`` in-process so spans can see inside each call.
    """

    item = "calls"
    rss_of_children = True  # the calls run in child processes

    def __init__(self, ctx: Context, in_process: bool) -> None:
        self.ctx = ctx
        self.call = call_main if in_process else partial(call_child, ctx)
        self.head = ctx.work / "head.csv"
        self.ledger_path = ctx.work / "session-ledger.jsonl"

    def prepare(self) -> list[dict]:
        scale = self.ctx.scale
        self.truth = datagen.write_head(self.ctx.seed, scale.rows, scale.head_rows, self.head)
        self.ctx.rows_by_path[str(self.head)] = self.truth.rows
        datagen.write_ledger(self.ctx.seed, scale.ledger_entries, self.ledger_path)
        self.ledger = Ledger(self.ledger_path, scale.ledger_entries)
        return [datagen.describe(self.head, header_lines=1),
                datagen.describe(self.ledger_path, header_lines=0)]

    def ops(self):
        n = str(self.ctx.scale.session_sweep_points)

        def call(name, argv, check=json_ok):
            return name, partial(self.run, argv, check)

        return [
            call("calibrate", ["calibrate", "--eps", "1", "--delta", "1e-5"]),
            call("calibrate gaussian", ["calibrate", "--mech", "gaussian-analytic",
                                        "--eps", "1", "--delta", "1e-5"]),
            call("bounds", ["bounds", "--eps", "0.5", "--delta", "1e-5", "--cost", "power"]),
            ("sample", self.sample),
            call("verify", ["verify", "--eps", "1", "--delta", "1e-4"]),
            call("verify gaussian", ["verify", "--mech", "gaussian-analytic",
                                     "--eps", "1", "--delta", "1e-4"]),
            call("sweep", ["sweep", "--eps-points", n, "--delta-points", n,
                           "--format", "svg"], svg_ok),
        ] + [(f"query {a}", partial(self.query, a)) for a in QueryBulk.aggregates]

    def run(self, argv, check) -> tuple[float, int, bool]:
        code, stdout, seconds = self.call(argv)
        return seconds, 1, code == 0 and check(stdout)

    def sample(self) -> tuple[float, int, bool]:
        argv = ["sample", "--eps", "1", "--delta", "1e-5", "--n", "1000",
                "--seed", str(self.ctx.release_seed())]
        return self.run(argv, partial(samples_ok, n=1000))

    def query(self, aggregate: str) -> tuple[float, int, bool]:
        self.ctx.ledger_sizes.append(self.ledger.entries)
        argv = query_argv(self.head, aggregate, self.ctx.release_seed(), self.ledger_path)
        code, stdout, seconds = self.call(argv)
        return seconds, 1, query_ok(code, stdout, aggregate, self.truth, self.ledger)


WORKLOADS = {
    "verify_grid": VerifyGrid,
    "query_bulk": QueryBulk,
    "cli_session": CliSession,
    "sweep_grid": SweepGrid,
}
