"""Deterministic benchmark inputs, generated from the workload seed.

The CSV is written in fixed-size chunks, each drawn from its own generator
seeded by (seed, chunk index), so the head file is exactly the first rows of
the full file and memory stays at one chunk.  Spend is drawn in whole cents,
so the harness knows the exact float value the CSV parser will read back
and can compute the true aggregates itself.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

HEADER = "id,region,spend,visits,member,day"
REGIONS = ("eu", "us", "ap", "sa", "af")
CHUNK_ROWS = 100_000
CLIP = (0.0, 25.0)


@dataclass(frozen=True)
class Truth:
    """Un-noised aggregates of the spend column, computed by the harness."""

    rows: int
    clipped_sum: float


def _chunk_lines(seed: int, index: int, n: int) -> tuple[list[str], list[int]]:
    rng = np.random.default_rng([seed, index])
    region = rng.integers(0, len(REGIONS), n).tolist()
    cents = np.rint(rng.gamma(2.0, 500.0, n)).astype(np.int64).tolist()
    visits = rng.poisson(4.0, n).tolist()
    member = rng.integers(0, 2, n).tolist()
    day = rng.integers(1, 366, n).tolist()
    first = index * CHUNK_ROWS + 1
    lines = [
        f"{first + i},{REGIONS[r]},{c // 100}.{c % 100:02d},{v},{m},{d}\n"
        for i, (r, c, v, m, d) in enumerate(zip(region, cents, visits, member, day))
    ]
    return lines, cents


def _clipped(cents: list[int]) -> np.ndarray:
    # cents / 100 is the correctly rounded double, the same value float()
    # reads back from the "%d.%02d" text.
    return np.clip(np.asarray(cents, dtype=float) / 100.0, *CLIP)


def write_csv(seed: int, rows: int, path: Path) -> Truth:
    """Write the ``rows``-row CSV for ``seed``; return its true aggregates."""
    parts: list[float] = []
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HEADER + "\n")
        for index in range(math.ceil(rows / CHUNK_ROWS)):
            lines, cents = _chunk_lines(seed, index, min(CHUNK_ROWS, rows - index * CHUNK_ROWS))
            fh.writelines(lines)
            parts.append(math.fsum(_clipped(cents).tolist()))
    return Truth(rows, math.fsum(parts))


def write_head(seed: int, rows: int, head_rows: int, path: Path) -> Truth:
    """Write the header and first ``head_rows`` rows of `write_csv`'s file."""
    lines, cents = _chunk_lines(seed, 0, min(CHUNK_ROWS, rows))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HEADER + "\n")
        fh.writelines(lines[:head_rows])
    return Truth(head_rows, math.fsum(_clipped(cents[:head_rows]).tolist()))


def write_ledger(seed: int, entries: int, path: Path) -> None:
    """A budget ledger of ``entries`` lines at epsilon 1e-4, delta 1e-9 each."""
    rng = np.random.default_rng([seed, 1 << 20])
    ids = rng.integers(0, 1 << 48, entries, dtype=np.int64).tolist()
    start = datetime(2026, 1, 1, tzinfo=timezone.utc)
    with open(path, "w", encoding="utf-8") as fh:
        for i, qid in enumerate(ids):
            stamp = (start + timedelta(seconds=i)).isoformat()
            fh.write(
                json.dumps(
                    {"query_id": f"{qid:012x}", "epsilon": 1e-4,
                     "delta": 1e-9, "timestamp": stamp}
                )
                + "\n"
            )


def describe(path: Path, header_lines: int) -> dict:
    """Read a generated file once, untimed, and record its size and digest.

    This read also leaves the file in the page cache, so every timed read
    of it is warm.
    """
    digest = hashlib.sha256()
    size = lines = 0
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
            size += len(block)
            lines += block.count(b"\n")
    return {
        "name": path.name,
        "rows": lines - header_lines,
        "bytes": size,
        "sha256": digest.hexdigest(),
    }
