"""Differentially private aggregates over CSV columns.

A query clips the target column, computes count/sum/mean, adds noise
calibrated to the aggregate's sensitivity, and appends what was spent to an
append-only JSON-lines budget ledger (plain sequential composition: budgets
add up).  The un-noised aggregate is never returned, printed, or logged.

The header is read with `csv.reader`; the rest of the file goes to numpy's
C reader (`np.loadtxt`, which follows the same quoting rules and rounds
floats as `float()` does) into one float64 array, clipped in place.  Count
reads one character of each row's first cell, so it parses no number.
Only a file the C reader rejects, or one with a NaN cell, is read a second
time by the streaming `csv.reader` loop, which names the bad line and
accepts the rest of `float()`'s grammar (underscores, non-ASCII digits).
Such input mostly ends in an error; otherwise it gives the same release,
a little more slowly.  A cell that does not parse or parses to NaN, or a
field `csv.reader` refuses as too long, is an error naming its line, raised
before the ledger is touched; infinite cells are clipped to the bounds.

Mean is released as noisy sum divided by noisy count with the budget split
evenly between the two draws, so the dataset size itself stays protected;
a non-positive noisy count yields NaN rather than a data-dependent fallback.
"""

from __future__ import annotations

import csv
import json
import math
import uuid
import warnings
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

import numpy as np

from .baselines import (
    Gaussian,
    analytic_gaussian_sigma,
    laplace_mechanism,
    uniform_limit_mechanism,
)
from .core import (
    DomainError,
    NoiseMechanism,
    PrivacyParams,
    Sensitivity,
    as_sensitivity,
)
from .trunclap import TruncatedLaplace

__all__ = [
    "AggregateKind",
    "BudgetError",
    "BudgetLedger",
    "LedgerEntry",
    "MECHANISM_NAMES",
    "QUERY_MECHANISMS",
    "QuerySpec",
    "make_mechanism",
    "make_rng",
    "run_query",
]


class BudgetError(RuntimeError):
    """A configured privacy-budget cap would be exceeded."""


class AggregateKind(Enum):
    COUNT = "count"
    SUM = "sum"
    MEAN = "mean"

    @classmethod
    def parse(cls, text: str) -> "AggregateKind":
        try:
            return cls(str(text).lower())
        except ValueError:
            raise DomainError(
                f"unknown aggregate {text!r}; expected one of "
                f"{[k.value for k in cls]}"
            ) from None


_FACTORIES = {
    "trunclap": TruncatedLaplace.from_privacy,
    "laplace": lambda params, sens: laplace_mechanism(params.epsilon, sens),
    "gaussian-analytic": lambda params, sens: Gaussian(
        analytic_gaussian_sigma(params, sens)
    ),
    "uniform": lambda params, sens: uniform_limit_mechanism(params.delta, sens),
}
MECHANISM_NAMES = tuple(_FACTORIES)
# The query pipeline sticks to mechanisms whose privacy guarantee is the
# requested (epsilon, delta); the uniform distribution is a limit object for
# analysis, not a practical mechanism.
QUERY_MECHANISMS = tuple(name for name in MECHANISM_NAMES if name != "uniform")


def make_mechanism(
    name: str, params: PrivacyParams, sens: "Sensitivity | float"
) -> NoiseMechanism:
    """Build a calibrated noise mechanism by CLI name."""
    sens = as_sensitivity(sens)
    if name not in _FACTORIES:
        raise DomainError(
            f"unknown mechanism {name!r}; expected one of {list(MECHANISM_NAMES)}"
        )
    return _FACTORIES[name](params, sens)


class _MedianDraws:
    """Degenerate generator whose every uniform draw is exactly 1/2.

    Feeding the inverse-cdf sampler the median produces zero noise for all
    the symmetric mechanisms here, which pins down the deterministic
    plumbing around the noise in tests and demos.
    """

    def random(self, size=()):
        if size == ():
            return 0.5
        return np.full(size, 0.5)


def make_rng(seed: "int | str"):
    """A generator for `NoiseMechanism.sample`: u64 seed or "median"."""
    if isinstance(seed, str):
        if seed.lower() == "median":
            return _MedianDraws()
        try:
            seed = int(seed, 0)
        except ValueError:
            raise DomainError(
                f"seed must be a 64-bit unsigned integer or 'median', "
                f"got {seed!r}"
            ) from None
    if not (0 <= int(seed) < 2**64):
        raise DomainError(f"seed must fit in 64 unsigned bits, got {seed!r}")
    return np.random.default_rng(int(seed))


@dataclass(frozen=True)
class QuerySpec:
    """One differentially private aggregate over one CSV column."""

    input_path: str
    column: str
    aggregate: AggregateKind
    mechanism: str
    params: PrivacyParams
    seed: "int | str"
    clip: "tuple[float, float] | None" = None

    def __post_init__(self) -> None:
        if self.mechanism not in QUERY_MECHANISMS:
            raise DomainError(
                f"query mechanism must be one of {list(QUERY_MECHANISMS)}, "
                f"got {self.mechanism!r}"
            )
        if not isinstance(self.aggregate, AggregateKind):
            raise DomainError("aggregate must be an AggregateKind")
        if self.clip is not None:
            lo, hi = self.clip
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise DomainError(
                    f"clip bounds must be finite with lo < hi, got {self.clip!r}"
                )
        elif self.aggregate is not AggregateKind.COUNT:
            raise DomainError(
                f"{self.aggregate.value} queries require clip bounds"
            )

    def sensitivity(self) -> Sensitivity:
        """Worst-case change of the aggregate when one row changes."""
        if self.aggregate is AggregateKind.COUNT:
            return Sensitivity(1.0)
        lo, hi = self.clip  # validated above
        return Sensitivity(max(abs(lo), abs(hi)))


@dataclass(frozen=True)
class LedgerEntry:
    query_id: str
    epsilon: float
    delta: float
    timestamp: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "query_id": self.query_id,
                "epsilon": self.epsilon,
                "delta": self.delta,
                "timestamp": self.timestamp,
            }
        )


class BudgetLedger:
    """Append-only JSON-lines record of (query id, epsilon, delta, time)."""

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)

    def entries(self) -> list[LedgerEntry]:
        if not self.path.exists():
            return []
        out = []
        with open(self.path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    raw = json.loads(line)
                    entry = LedgerEntry(
                        query_id=str(raw["query_id"]),
                        epsilon=float(raw["epsilon"]),
                        delta=float(raw["delta"]),
                        timestamp=str(raw["timestamp"]),
                    )
                    # json.loads accepts NaN and Infinity; a NaN spend
                    # would make every later cap comparison False.
                    if not (
                        0.0 <= entry.epsilon < math.inf
                        and 0.0 <= entry.delta < math.inf
                    ):
                        raise ValueError  # reported as malformed below
                    out.append(entry)
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    raise DomainError(
                        f"malformed ledger line {lineno} in {self.path}"
                    ) from None
        return out

    def totals(self) -> tuple[float, float]:
        entries = self.entries()
        return (
            float(sum(e.epsilon for e in entries)),
            float(sum(e.delta for e in entries)),
        )

    def append(self, entry: LedgerEntry) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(entry.to_json() + "\n")


def _read_column(spec: QuerySpec) -> tuple[int, np.ndarray]:
    """(row count, clipped numeric values); values empty for Count.

    Rows are read the way `csv.DictReader` reads them: blank rows are
    skipped, the last of duplicate header names wins, and a row too short
    to reach the column has the cell None.
    """
    path = Path(spec.input_path)
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise _csv_error(path, reader, exc) from None
        if header is None:
            raise DomainError(f"{path} has no header row")
        if spec.column not in header:
            raise DomainError(
                f"column {spec.column!r} not in {path} header {header}"
            )
        index = len(header) - 1 - header[::-1].index(spec.column)
        counting = spec.aggregate is AggregateKind.COUNT
        try:
            with warnings.catch_warnings():
                # A header-only file is an empty column, not a warning.
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning
                )
                # Count reads one character of the first cell, so it
                # parses no number and its cost does not depend on cells.
                column = np.loadtxt(
                    fh,
                    dtype="U1" if counting else float,
                    delimiter=",",
                    quotechar='"',
                    comments=None,
                    usecols=0 if counting else index,
                    ndmin=1,
                )
        except ValueError:
            pass
        else:
            if counting:
                return column.size, np.empty(0)
            if not np.isnan(column).any():
                return column.size, np.clip(column, *spec.clip, out=column)
        # The C reader rejected a row, or found a NaN cell.  Read again
        # with the streaming reader: it names the bad line, and it accepts
        # the rest of float()'s grammar (underscores, non-ASCII digits).
        fh.seek(0)
        reader = csv.reader(fh)
        try:
            return _stream_column(reader, spec, path, index)
        except csv.Error as exc:
            raise _csv_error(path, reader, exc) from None


def _csv_error(path: Path, reader, exc: csv.Error) -> DomainError:
    # e.g. a field longer than csv.field_size_limit()
    return DomainError(f"cannot read {path}:{reader.line_num}: {exc}")


def _stream_column(
    reader, spec: QuerySpec, path: Path, index: int
) -> tuple[int, np.ndarray]:
    """`_read_column` one row at a time, from a `csv.reader` at the start
    of the file."""
    next(reader)  # the header, checked by the caller
    if spec.aggregate is AggregateKind.COUNT:
        return sum(map(bool, reader)), np.empty(0)
    values = array("d")
    append = values.append
    for row in reader:
        if not row:
            continue
        try:
            value = float(row[index])
        except (IndexError, ValueError):
            value = math.nan
        # Junk and missing cells read as NaN here.  A NaN cell is rejected
        # with them: it would make the release NaN, an output that depends
        # on that one row.
        if value != value:
            cell = row[index] if index < len(row) else None
            raise DomainError(
                f"non-numeric value {cell!r} for column "
                f"{spec.column!r} at {path}:{reader.line_num}"
            )
        append(value)
    clipped = np.frombuffer(values)
    return len(values), np.clip(clipped, *spec.clip, out=clipped)


def _spent(spec: QuerySpec) -> tuple[float, float]:
    # The Laplace mechanism guarantees the stronger delta = 0, so that is
    # what the ledger charges; everything else spends the requested pair.
    delta = 0.0 if spec.mechanism == "laplace" else spec.params.delta
    return spec.params.epsilon, delta


def run_query(
    spec: QuerySpec,
    ledger_path: "str | Path",
    budget_eps: "float | None" = None,
    budget_delta: "float | None" = None,
) -> dict:
    """Execute one private query and append its cost to the ledger.

    Raises BudgetError (before touching the data) if either configured cap
    would be exceeded by this query's spend added to the ledger totals, and
    DomainError (before reading the ledger) for a NaN cap.
    """
    for name, cap in (("budget_eps", budget_eps), ("budget_delta", budget_delta)):
        # a NaN cap would compare False against every spend
        if cap is not None and math.isnan(cap):
            raise DomainError(f"{name} must be a number, got {cap!r}")
    ledger = BudgetLedger(ledger_path)
    eps_spent, delta_spent = _spent(spec)
    total_eps, total_delta = ledger.totals()
    if budget_eps is not None and total_eps + eps_spent > budget_eps * (1 + 1e-12):
        raise BudgetError(
            f"epsilon budget {budget_eps} would be exceeded: "
            f"{total_eps} spent + {eps_spent} requested"
        )
    if budget_delta is not None and total_delta + delta_spent > budget_delta * (
        1 + 1e-12
    ):
        raise BudgetError(
            f"delta budget {budget_delta} would be exceeded: "
            f"{total_delta} spent + {delta_spent} requested"
        )

    count, values = _read_column(spec)
    rng = make_rng(spec.seed)
    if spec.aggregate is AggregateKind.COUNT:
        mech = make_mechanism(spec.mechanism, spec.params, Sensitivity(1.0))
        noisy = count + float(mech.sample(rng))
    elif spec.aggregate is AggregateKind.SUM:
        mech = make_mechanism(spec.mechanism, spec.params, spec.sensitivity())
        noisy = float(values.sum()) + float(mech.sample(rng))
    else:  # MEAN: noisy sum over noisy count, half the budget each
        half = PrivacyParams(
            spec.params.epsilon / 2.0, spec.params.delta / 2.0
        )
        sum_mech = make_mechanism(spec.mechanism, half, spec.sensitivity())
        count_mech = make_mechanism(spec.mechanism, half, Sensitivity(1.0))
        noisy_sum = float(values.sum()) + float(sum_mech.sample(rng))
        noisy_count = count + float(count_mech.sample(rng))
        noisy = noisy_sum / noisy_count if noisy_count > 0.0 else float("nan")

    entry = LedgerEntry(
        query_id=uuid.uuid4().hex[:12],
        epsilon=eps_spent,
        delta=delta_spent,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    ledger.append(entry)
    return {
        "noisy_value": noisy,
        "epsilon_spent": eps_spent,
        "delta_spent": delta_spent,
        "query_id": entry.query_id,
    }
