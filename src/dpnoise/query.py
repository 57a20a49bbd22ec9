"""Differentially private aggregates over CSV columns.

A query clips the target column, computes count/sum/mean, adds noise
calibrated to the aggregate's sensitivity, and appends what was spent to an
append-only JSON-lines budget ledger (plain sequential composition: budgets
add up).  The un-noised aggregate is never returned, printed, or logged.

The header is read with `csv.reader`.  A count of a plain file is then
read from its bytes: the open descriptor is read in 64 KiB blocks, and
each non-empty line after the header is a row, which is what `csv.reader`
counts when the file holds no '"', CR or NUL and is UTF-8.  A file with
any of those, or whose size or mtime changed while it was counted, takes
the route of a sum or a mean: the rest of the file goes to numpy's C
reader (`np.loadtxt`, which follows the same quoting rules and rounds
floats as `float()` does) into one float64 array, clipped in place (a
count keeps one character of each row's first cell, so it parses no
number).  The C reader is given the path, which it reads in large chunks,
and skips the header's physical lines (`csv.reader.line_num`); it never
touches the open handle.  It takes the path only when that names the file
already open, still the same file (device, inode, size, mtime) after the
read.  Both take only a regular file (not a FIFO, which a second open
would split) with no suffix numpy decompresses.  Anything else, and a
file the C reader rejects or with a NaN cell, is read on from just past
the header, once, by the streaming `csv.reader` loop, so a pipe works
too.  That loop names the bad line and accepts the rest of `float()`'s
grammar (underscores, non-ASCII digits); on input both accept it gives the
same release, more slowly.  A line that is not UTF-8, or a cell that does
not parse or parses to NaN, is an error naming its line (a line that is not
UTF-8 is found by reading the file again, so a pipe's is not named), raised
before the ledger is touched; infinite cells are clipped to the bounds.

One field-size rule holds on every route: a header field longer than
`csv.field_size_limit()` is an error naming its line, and a row's cell has
no limit.  The byte count and the C reader have none, so the streaming loop
lifts `csv.field_size_limit()` while it reads the rows, and a cell too long
for `csv.reader` reads the same from a regular file and from a pipe.

A query holds an exclusive `flock` on the ledger from reading its totals to
appending its line, which is fsynced, so two queries cannot both pass a cap
that has room for one.  A final ledger line without a newline, left by a
crash mid-append, is ended under the lock if it parses and cut off if not.

Mean is released as noisy sum divided by noisy count with the budget split
evenly between the two draws, so the dataset size itself stays protected;
a non-positive noisy count yields NaN rather than a data-dependent fallback
(`run_query` returns NaN, and `dpnoise query` prints it as JSON `null`).
"""

from __future__ import annotations

import csv
import fcntl
import json
import math
import os
import stat
import sys
import warnings
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .core import (
    MECHANISM_NAMES,
    AggregateKind,
    BudgetError,
    DomainError,
    PrivacyParams,
    _as_real,
    _parse_seed,
    make_mechanism,
    make_rng,
)

__all__ = [
    "BudgetLedger",
    "LedgerEntry",
    "QUERY_MECHANISMS",
    "QuerySpec",
    "run_query",
]

# The query pipeline sticks to mechanisms whose privacy guarantee is the
# requested (epsilon, delta); the uniform distribution is a limit object for
# analysis, not a practical mechanism.
QUERY_MECHANISMS = tuple(name for name in MECHANISM_NAMES if name != "uniform")


@dataclass(frozen=True)
class QuerySpec:
    """One differentially private aggregate over one CSV column."""

    input_path: str
    column: str
    aggregate: AggregateKind
    mechanism: str
    params: PrivacyParams
    seed: "int | str | None" = None
    clip: "tuple[float, float] | None" = None

    def __post_init__(self) -> None:
        if self.mechanism not in QUERY_MECHANISMS:
            raise DomainError(
                f"query mechanism must be one of {list(QUERY_MECHANISMS)}, "
                f"got {self.mechanism!r}"
            )
        if not isinstance(self.aggregate, AggregateKind):
            raise DomainError("aggregate must be an AggregateKind")
        _parse_seed(self.seed)  # refused before the ledger is opened
        if self.clip is not None:
            try:
                lo, hi = self.clip
            except (TypeError, ValueError):
                raise DomainError(
                    f"clip must be a (lo, hi) pair, got {self.clip!r}"
                ) from None
            lo, hi = _as_real(lo, "clip bound"), _as_real(hi, "clip bound")
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise DomainError(
                    f"clip bounds must be finite with lo < hi, got {self.clip!r}"
                )
            object.__setattr__(self, "clip", (lo, hi))
        elif self.aggregate is not AggregateKind.COUNT:
            raise DomainError(
                f"{self.aggregate.value} queries require clip bounds"
            )

    def sensitivity(self) -> float:
        """Worst-case change of the aggregate when one row is added to or
        removed from the table (add/remove neighbours): 1 for a count and
        max(|lo|, |hi|) for a clipped sum.  Under replace-one neighbours a
        sum's would be hi - lo."""
        if self.aggregate is AggregateKind.COUNT:
            return 1.0
        lo, hi = self.clip  # validated above
        return max(abs(lo), abs(hi))


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


# OverflowError: float() of a JSON integer beyond the double range
_MALFORMED = (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError)
_raw_decode = json.JSONDecoder().raw_decode


def _parse_ledger_line(line: str) -> tuple[str, float, float, str]:
    """(query_id, epsilon, delta, timestamp) of one stripped ledger line;
    one of `_MALFORMED` if it is not one."""
    # json.loads(line) without its wrapper: the line is stripped, so it is
    # one JSON document exactly when the document ends where the line does
    raw, end = _raw_decode(line)
    if end != len(line):
        raise ValueError
    query_id, timestamp = str(raw["query_id"]), str(raw["timestamp"])
    epsilon, delta = float(raw["epsilon"]), float(raw["delta"])
    # json.loads accepts NaN and Infinity; a NaN spend would make every
    # later cap comparison False.
    if not (0.0 <= epsilon < math.inf and 0.0 <= delta < math.inf):
        raise ValueError
    return query_id, epsilon, delta, timestamp


def _repair_torn_tail(fh) -> None:
    """End a final line that has no newline, or cut it off if it is no
    entry.  A crash mid-append leaves such a line; `run_query` appends
    before it returns, so a line cut short was never released."""
    size = fh.seek(0, os.SEEK_END)
    if size == 0:
        return
    fh.seek(size - 1)
    if fh.read(1) == b"\n":
        return
    fh.seek(0)
    data = fh.read()
    start = data.rfind(b"\n") + 1
    try:
        _parse_ledger_line(data[start:].decode("utf-8").strip())
    except _MALFORMED:  # UnicodeDecodeError is a ValueError
        fh.truncate(start)
    else:
        fh.write(b"\n")
    fh.flush()
    os.fsync(fh.fileno())


class BudgetLedger:
    """Append-only JSON-lines record of (query id, epsilon, delta, time)."""

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._locked = None  # the locked handle, inside `locked()`

    @contextmanager
    def locked(self):
        """Hold an exclusive `flock` on the ledger, created if missing,
        for the block; a torn final line is repaired first."""
        with open(self.path, "a+b") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            _repair_torn_tail(fh)
            self._locked = fh
            try:
                yield
            finally:
                self._locked = None

    def _records(self):
        if not self.path.exists():
            return
        # A byte that is not UTF-8 comes in as a lone surrogate, which does
        # not encode back, so such a line is malformed where it stands.
        with open(self.path, encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    if not line.isascii():
                        line.encode("utf-8")
                    record = _parse_ledger_line(line)
                except _MALFORMED:
                    raise DomainError(
                        f"malformed ledger line {lineno} in {self.path}"
                    ) from None
                yield record

    def entries(self) -> list[LedgerEntry]:
        return [LedgerEntry(*record) for record in self._records()]

    def totals(self) -> tuple[float, float]:
        """The spent epsilon and delta, each the correctly rounded sum of
        the entries: a plain running sum drifts with the ledger's length,
        and the cap check allows only a relative 1e-12."""
        epsilons, deltas = [], []
        for _, epsilon, delta, _ in self._records():
            epsilons.append(epsilon)
            deltas.append(delta)
        return math.fsum(epsilons), math.fsum(deltas)

    def append(self, entry: LedgerEntry) -> None:
        """Append and fsync one line, under the lock (taken here if the
        caller does not hold it)."""
        if self._locked is None:
            with self.locked():
                self.append(entry)
            return
        self._locked.write(entry.to_json().encode("utf-8") + b"\n")
        self._locked.flush()
        os.fsync(self._locked.fileno())


def _read_column(spec: QuerySpec) -> tuple[int, np.ndarray]:
    """(row count, clipped numeric values); values empty for Count.

    Rows are read the way `csv.DictReader` reads them: blank rows are
    skipped, the last of duplicate header names wins, and a row too short
    to reach the column has the cell None.
    """
    path = Path(spec.input_path)
    try:
        # utf-8-sig drops a leading byte-order mark, which would otherwise
        # be part of the first column's name; the byte count and the C
        # reader skip the header line by count, mark and all
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise _csv_error(path, reader, exc) from None
        except UnicodeDecodeError:
            raise _not_utf8(path, fh) from None
        if header is None:
            raise DomainError(f"{path} has no header row")
        if spec.column not in header:
            raise DomainError(
                f"column {spec.column!r} not in {path} header {header}"
            )
        index = len(header) - 1 - header[::-1].index(spec.column)
        counting = spec.aggregate is AggregateKind.COUNT
        opened = os.fstat(fh.fileno())
        column = None
        if _plain_file(path, opened):
            if counting:
                rows = _count_rows(fh.fileno(), opened, reader.line_num)
                if rows is not None:
                    return rows, np.empty(0)
            column = _c_read(path, opened, reader.line_num, counting, index)
        if column is not None and (counting or not np.isnan(column).any()):
            if counting:
                return column.size, np.empty(0)
            return column.size, np.clip(column, *spec.clip, out=column)
        # Not read by path, a row the C reader rejects, or a NaN cell: read
        # on from just past the header with the streaming reader, which
        # names the bad line and accepts the rest of float()'s grammar
        # (underscores, non-ASCII digits).
        try:
            with _no_field_limit():
                return _stream_column(reader, spec, path, index)
        except csv.Error as exc:
            raise _csv_error(path, reader, exc) from None
        except UnicodeDecodeError:
            raise _not_utf8(path, fh) from None


def _plain_file(path: Path, opened: os.stat_result) -> bool:
    """Whether the open file with stat ``opened`` is a regular file whose
    name numpy would not decompress."""
    # `Path` folds "scheme://" to "scheme:/", so numpy never takes the name
    # for a URL; it would decompress these suffixes, though.
    return stat.S_ISREG(opened.st_mode) and os.path.splitext(path)[1] not in (
        ".gz", ".bz2", ".xz", ".lzma"
    )


_COUNT_BLOCK = 1 << 16  # bytes a read; a count's memory peak grows with it


def _count_rows(
    fd: int, opened: os.stat_result, header_lines: int
) -> "int | None":
    """The rows after the first ``header_lines`` lines of the regular file
    open as ``fd``, with stat ``opened``, counted from its bytes: each
    non-empty line, ended by LF or by the end of the file, is a row, as
    `csv.reader` reads it when no '"', CR or NUL is anywhere in the file.
    None when one is, when the file is not UTF-8, or when its size or mtime
    changed while it was read."""
    import codecs

    decoder = codecs.getincrementaldecoder("utf-8")()
    rows = offset = 0
    skip = header_lines
    ended = True  # the last byte read after the header ends a line
    try:
        while block := os.pread(fd, _COUNT_BLOCK, offset):
            offset += len(block)
            if b'"' in block or b"\r" in block or b"\0" in block:
                return None
            # a character split across blocks leaves the decoder pending
            if not block.isascii() or decoder.getstate()[0]:
                decoder.decode(block)
            start = 0  # just past the header's lines, once they are all read
            while skip and (start := block.find(b"\n", start) + 1):
                skip -= 1
            if skip:
                continue
            newline = np.frombuffer(block, np.uint8)[start:] == ord("\n")
            if newline.size:
                # a row ends at each "\n" whose byte before is not one
                rows += int(newline[0] and not ended)
                rows += int(np.count_nonzero(newline[1:] > newline[:-1]))
                ended = bool(newline[-1])
        decoder.decode(b"", final=True)
        now = os.fstat(fd)
    except (OSError, ValueError):  # unreadable, or not UTF-8
        return None
    if (now.st_size, now.st_mtime_ns) != (opened.st_size, opened.st_mtime_ns):
        return None
    return rows + (not ended)


def _c_read(
    path: Path, opened: os.stat_result, header_lines: int, counting: bool, index: int
):
    """The rows after the header through `np.loadtxt` on the path of the
    `_plain_file` open with stat ``opened``; None when the path no longer
    names that file after the read, or the C reader rejects a row.  A
    count, which comes here when `_count_rows` declined the file, reads one
    character of each row's first cell, so it parses no number and its cost
    does not depend on cells."""
    name = os.fspath(path)
    try:
        with warnings.catch_warnings():
            # A header-only file is an empty column, not a warning.
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning
            )
            column = np.loadtxt(
                name,
                dtype="U1" if counting else float,
                delimiter=",",
                quotechar='"',
                comments=None,
                usecols=0 if counting else index,
                ndmin=1,
                skiprows=header_lines,
                encoding="utf-8",
            )
        now = os.stat(name)
    except (OSError, ValueError):  # gone, unreadable, or a row it rejects
        return None
    return column if _identity(now) == _identity(opened) else None


def _identity(st: os.stat_result) -> tuple:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _not_utf8(path: Path, fh) -> DomainError:
    """The error for input that is not UTF-8.  The decoder fails a whole
    chunk at a time, so the open file is read again from its start, where
    it can be, for the number of the first line that is not UTF-8, as
    `csv.reader.line_num` counts lines: with errors="surrogateescape" the
    bytes that do not decode come in as lone surrogates, which do not
    encode back."""
    try:
        os.lseek(fh.fileno(), 0, os.SEEK_SET)
        with open(fh.fileno(), newline="", encoding="utf-8",
                  errors="surrogateescape", closefd=False) as again:
            for number, line in enumerate(again, 1):
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    return DomainError(f"cannot read {path}:{number}: not UTF-8")
    except OSError:  # a pipe, which cannot be read again
        pass
    return DomainError(f"cannot read {path}: not UTF-8")


@contextmanager
def _no_field_limit():
    """`csv.field_size_limit()` lifted for the block, and then restored."""
    limit = csv.field_size_limit(sys.maxsize)
    try:
        yield
    finally:
        csv.field_size_limit(limit)


def _csv_error(path: Path, reader, exc: csv.Error) -> DomainError:
    # e.g. a header field longer than csv.field_size_limit()
    return DomainError(f"cannot read {path}:{reader.line_num}: {exc}")


def _stream_column(
    reader, spec: QuerySpec, path: Path, index: int
) -> tuple[int, np.ndarray]:
    """`_read_column` one row at a time, from a `csv.reader` just past the
    header."""
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


def _release(spec: QuerySpec, count: int, values: np.ndarray) -> tuple[str, float]:
    """(query_id, noisy aggregate) of one release."""
    # Each release draws from its own stream, keyed by (seed, query_id):
    # one seed reused across releases would give neighbouring datasets the
    # same noise, so their difference would reveal the row.  The ledger's
    # query_id and the seed, if one was given, reproduce the release.
    query_id = os.urandom(6).hex()  # 48 random bits, 12 hex digits
    rng = make_rng(spec.seed, int(query_id, 16))
    if spec.aggregate is AggregateKind.COUNT:
        mech = make_mechanism(spec.mechanism, spec.params, 1.0)
        return query_id, count + float(mech.sample(rng))
    if spec.aggregate is AggregateKind.SUM:
        mech = make_mechanism(spec.mechanism, spec.params, spec.sensitivity())
        return query_id, float(values.sum()) + float(mech.sample(rng))
    # MEAN: noisy sum over noisy count, half the budget each
    half = PrivacyParams(spec.params.epsilon / 2.0, spec.params.delta / 2.0)
    sum_mech = make_mechanism(spec.mechanism, half, spec.sensitivity())
    count_mech = make_mechanism(spec.mechanism, half, 1.0)
    noisy_sum = float(values.sum()) + float(sum_mech.sample(rng))
    noisy_count = count + float(count_mech.sample(rng))
    noisy = noisy_sum / noisy_count if noisy_count > 0.0 else float("nan")
    return query_id, noisy


def run_query(
    spec: QuerySpec,
    ledger_path: "str | Path",
    budget_eps: "float | None" = None,
    budget_delta: "float | None" = None,
) -> dict:
    """Execute one private query and append its cost to the ledger.

    Raises BudgetError (before touching the data) if either configured cap
    would be exceeded by this query's spend added to the ledger totals, and
    DomainError (before reading the ledger) for a NaN or negative cap.  The
    ledger stays locked from its totals to the append.
    """
    for name, cap in (("budget_eps", budget_eps), ("budget_delta", budget_delta)):
        # a NaN cap would compare False against every spend, and a negative
        # one is no budget but a mistyped input
        if cap is not None and not _as_real(cap, name) >= 0.0:
            raise DomainError(f"{name} must be a number >= 0, got {cap!r}")
    ledger = BudgetLedger(ledger_path)
    eps_spent, delta_spent = _spent(spec)
    with ledger.locked():
        total_eps, total_delta = ledger.totals()
        for name, cap, total, spent in (
            ("epsilon", budget_eps, total_eps, eps_spent),
            ("delta", budget_delta, total_delta, delta_spent),
        ):
            if cap is not None and total + spent > cap * (1 + 1e-12):
                raise BudgetError(
                    f"{name} budget {cap} would be exceeded: "
                    f"{total} spent + {spent} requested"
                )
        count, values = _read_column(spec)
        query_id, noisy = _release(spec, count, values)
        ledger.append(
            LedgerEntry(
                query_id=query_id,
                epsilon=eps_spent,
                delta=delta_spent,
                timestamp=datetime.now(timezone.utc).isoformat(),
            )
        )
    return {
        "noisy_value": noisy,
        "epsilon_spent": eps_spent,
        "delta_spent": delta_spent,
        "query_id": query_id,
    }
