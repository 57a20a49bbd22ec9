import csv
import json
import math
import tracemalloc
import warnings
from array import array
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpnoise.baselines import Gaussian, Laplace
from dpnoise.core import DomainError, PrivacyParams
from dpnoise import query
from dpnoise.query import (
    AggregateKind,
    BudgetError,
    BudgetLedger,
    LedgerEntry,
    MECHANISM_NAMES,
    QUERY_MECHANISMS,
    QuerySpec,
    _read_column,
    make_mechanism,
    make_rng,
    run_query,
)
from dpnoise.trunclap import TruncatedLaplace

P = PrivacyParams(0.5, 1e-5)


def clipped_spend_sum(path, lo, hi):
    with open(path, newline="") as fh:
        vals = [float(r["spend"]) for r in csv.DictReader(fh)]
    return float(np.clip(np.asarray(vals), lo, hi).sum())


class TestAggregateKind:
    def test_parse(self):
        assert AggregateKind.parse("count") is AggregateKind.COUNT
        assert AggregateKind.parse("SUM") is AggregateKind.SUM
        assert AggregateKind.parse("Mean") is AggregateKind.MEAN
        with pytest.raises(DomainError):
            AggregateKind.parse("median")


class TestMakeMechanism:
    def test_dispatch(self):
        assert isinstance(make_mechanism("trunclap", P, 1.0), TruncatedLaplace)
        assert isinstance(make_mechanism("laplace", P, 1.0), Laplace)
        assert isinstance(make_mechanism("gaussian-analytic", P, 1.0), Gaussian)
        assert make_mechanism("uniform", P, 1.0).half_width == pytest.approx(
            1.0 / (2.0 * P.delta)
        )
        for gone in ("exponential", "gaussian-classic"):
            with pytest.raises(DomainError):
                make_mechanism(gone, P, 1.0)

    def test_name_lists(self):
        assert set(QUERY_MECHANISMS) <= set(MECHANISM_NAMES)
        assert "uniform" not in QUERY_MECHANISMS

    def test_laplace_ignores_delta(self):
        a = make_mechanism("laplace", PrivacyParams(0.5, 1e-3), 1.0)
        b = make_mechanism("laplace", PrivacyParams(0.5, 1e-9), 1.0)
        assert a.scale == b.scale == 2.0


class TestMakeRng:
    def test_median_stub(self):
        rng = make_rng("median")
        assert rng.random() == 0.5
        np.testing.assert_array_equal(rng.random(size=3), [0.5, 0.5, 0.5])

    def test_integer_and_string_seeds_agree(self):
        a = make_rng(16).random(size=4)
        b = make_rng("16").random(size=4)
        c = make_rng("0x10").random(size=4)  # base prefixes accepted
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)

    def test_range(self):
        make_rng(0)
        make_rng(2**64 - 1)
        with pytest.raises(DomainError):
            make_rng(-1)
        with pytest.raises(DomainError):
            make_rng(2**64)
        with pytest.raises(DomainError):
            make_rng("not-a-seed")


class TestQuerySpec:
    def test_count_needs_no_clip(self):
        spec = QuerySpec("x.csv", "c", AggregateKind.COUNT, "trunclap", P, 0)
        assert spec.sensitivity().value == 1.0

    @pytest.mark.parametrize("agg", [AggregateKind.SUM, AggregateKind.MEAN])
    def test_sum_and_mean_require_clip(self, agg):
        with pytest.raises(DomainError):
            QuerySpec("x.csv", "c", agg, "trunclap", P, 0)

    def test_clip_ordering(self):
        with pytest.raises(DomainError):
            QuerySpec(
                "x.csv", "c", AggregateKind.SUM, "trunclap", P, 0, clip=(5.0, 5.0)
            )
        with pytest.raises(DomainError):
            QuerySpec(
                "x.csv",
                "c",
                AggregateKind.SUM,
                "trunclap",
                P,
                0,
                clip=(1.0, math.inf),
            )

    def test_sensitivity_is_worst_clip_edge(self):
        spec = QuerySpec(
            "x.csv", "c", AggregateKind.SUM, "trunclap", P, 0, clip=(-30.0, 10.0)
        )
        assert spec.sensitivity().value == 30.0

    def test_uniform_not_allowed_for_queries(self):
        with pytest.raises(DomainError):
            QuerySpec("x.csv", "c", AggregateKind.COUNT, "uniform", P, 0)

    def test_aggregate_must_be_enum(self):
        with pytest.raises(DomainError):
            QuerySpec("x.csv", "c", "count", "trunclap", P, 0)


class TestBudgetLedger:
    def test_missing_file_is_empty(self, ledger_path):
        ledger = BudgetLedger(ledger_path)
        assert ledger.entries() == []
        assert ledger.totals() == (0.0, 0.0)

    def test_append_and_totals(self, ledger_path):
        ledger = BudgetLedger(ledger_path)
        ledger.append(LedgerEntry("q1", 0.5, 1e-5, "2026-01-01T00:00:00+00:00"))
        ledger.append(LedgerEntry("q2", 0.25, 0.0, "2026-01-01T00:01:00+00:00"))
        entries = ledger.entries()
        assert [e.query_id for e in entries] == ["q1", "q2"]
        eps, delta = ledger.totals()
        assert eps == 0.75
        assert delta == 1e-5

    def test_blank_lines_skipped(self, ledger_path):
        ledger_path.write_text(
            '{"query_id": "a", "epsilon": 1.0, "delta": 0.0, '
            '"timestamp": "t"}\n\n'
        )
        assert len(BudgetLedger(ledger_path).entries()) == 1

    def test_malformed_line_reported_with_number(self, ledger_path):
        ledger_path.write_text(
            '{"query_id": "a", "epsilon": 1.0, "delta": 0.0, '
            '"timestamp": "t"}\nnot json\n'
        )
        with pytest.raises(DomainError, match="line 2"):
            BudgetLedger(ledger_path).entries()

    def test_missing_key_is_malformed(self, ledger_path):
        ledger_path.write_text('{"query_id": "a", "epsilon": 1.0}\n')
        with pytest.raises(DomainError, match="line 1"):
            BudgetLedger(ledger_path).entries()

    @pytest.mark.parametrize(
        "spend",
        [
            '"epsilon": NaN, "delta": 0.0',
            '"epsilon": 1.0, "delta": NaN',
            '"epsilon": Infinity, "delta": 0.0',
            '"epsilon": -1.0, "delta": 0.0',
            '"epsilon": 1.0, "delta": -1e-5',
        ],
    )
    def test_non_finite_or_negative_spend_is_malformed(self, ledger_path, spend):
        # json.loads parses NaN and Infinity; such a spend would make the
        # totals, and every cap comparison against them, meaningless.
        ledger_path.write_text(
            '{"query_id": "a", "epsilon": 1.0, "delta": 0.0, "timestamp": "t"}\n'
            f'{{"query_id": "b", {spend}, "timestamp": "t"}}\n'
        )
        with pytest.raises(DomainError, match="malformed ledger line 2"):
            BudgetLedger(ledger_path).entries()


class TestRunQuery:
    def test_count_with_median_seed_is_exact(self, spend_csv, ledger_path):
        spec = QuerySpec(
            str(spend_csv), "spend", AggregateKind.COUNT, "trunclap", P, "median"
        )
        result = run_query(spec, ledger_path)
        assert result["noisy_value"] == 100.0
        assert result["epsilon_spent"] == 0.5
        assert result["delta_spent"] == 1e-5
        assert set(result) == {
            "noisy_value",
            "epsilon_spent",
            "delta_spent",
            "query_id",
        }

    def test_ledger_is_appended(self, spend_csv, ledger_path):
        spec = QuerySpec(
            str(spend_csv), "spend", AggregateKind.COUNT, "trunclap", P, "median"
        )
        r1 = run_query(spec, ledger_path)
        r2 = run_query(spec, ledger_path)
        entries = BudgetLedger(ledger_path).entries()
        assert [e.query_id for e in entries] == [r1["query_id"], r2["query_id"]]
        assert len(r1["query_id"]) == 12
        eps, delta = BudgetLedger(ledger_path).totals()
        assert eps == pytest.approx(1.0)
        assert delta == pytest.approx(2e-5)
        for e in entries:
            datetime.fromisoformat(e.timestamp)  # must parse

    def test_laplace_spends_zero_delta(self, spend_csv, ledger_path):
        spec = QuerySpec(
            str(spend_csv), "spend", AggregateKind.COUNT, "laplace", P, "median"
        )
        result = run_query(spec, ledger_path)
        assert result["delta_spent"] == 0.0
        assert BudgetLedger(ledger_path).totals() == (0.5, 0.0)

    def test_sum_with_median_seed(self, spend_csv, ledger_path):
        spec = QuerySpec(
            str(spend_csv),
            "spend",
            AggregateKind.SUM,
            "trunclap",
            P,
            "median",
            clip=(0.0, 20.0),
        )
        result = run_query(spec, ledger_path)
        assert result["noisy_value"] == clipped_spend_sum(spend_csv, 0.0, 20.0)

    def test_mean_with_median_seed(self, spend_csv, ledger_path):
        spec = QuerySpec(
            str(spend_csv),
            "spend",
            AggregateKind.MEAN,
            "gaussian-analytic",
            P,
            "median",
            clip=(0.0, 25.0),
        )
        result = run_query(spec, ledger_path)
        expected = clipped_spend_sum(spend_csv, 0.0, 25.0) / 100.0
        assert result["noisy_value"] == pytest.approx(expected, rel=1e-15)
        # the ledger charges the full pair, not the per-draw halves
        assert result["epsilon_spent"] == 0.5

    def test_mean_of_empty_table_is_nan(self, tmp_path, ledger_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,spend\n")
        spec = QuerySpec(
            str(path),
            "spend",
            AggregateKind.MEAN,
            "trunclap",
            P,
            "median",
            clip=(0.0, 1.0),
        )
        assert math.isnan(run_query(spec, ledger_path)["noisy_value"])

    def test_deterministic_under_integer_seed(self, spend_csv, ledger_path):
        spec = QuerySpec(
            str(spend_csv), "spend", AggregateKind.COUNT, "trunclap", P, 42
        )
        a = run_query(spec, ledger_path)["noisy_value"]
        b = run_query(spec, ledger_path)["noisy_value"]
        assert a == b
        assert a != 100.0  # real noise this time

    def test_missing_file(self, tmp_path, ledger_path):
        spec = QuerySpec(
            str(tmp_path / "nope.csv"),
            "spend",
            AggregateKind.COUNT,
            "trunclap",
            P,
            0,
        )
        with pytest.raises(DomainError, match="cannot read"):
            run_query(spec, ledger_path)

    def test_missing_column(self, spend_csv, ledger_path):
        spec = QuerySpec(
            str(spend_csv), "wages", AggregateKind.COUNT, "trunclap", P, 0
        )
        with pytest.raises(DomainError, match="wages"):
            run_query(spec, ledger_path)

    def test_non_numeric_cell_names_location(self, tmp_path, ledger_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,spend\n1,3.5\n2,oops\n")
        spec = QuerySpec(
            str(path),
            "spend",
            AggregateKind.SUM,
            "trunclap",
            P,
            0,
            clip=(0.0, 1.0),
        )
        with pytest.raises(DomainError, match=r"bad\.csv:3"):
            run_query(spec, ledger_path)

    def test_count_ignores_bad_cells(self, tmp_path, ledger_path):
        # count never parses the column, so junk cells cannot block it
        path = tmp_path / "bad.csv"
        path.write_text("id,spend\n1,3.5\n2,oops\n")
        spec = QuerySpec(
            str(path), "spend", AggregateKind.COUNT, "trunclap", P, "median"
        )
        assert run_query(spec, ledger_path)["noisy_value"] == 2.0

    @pytest.mark.parametrize(
        "text, line",
        [
            ("id,spend\n\n1,3.5\n\n2,oops\n", 5),  # blank lines count
            ('id,spend\n"a\nb",1\n2,oops\n', 4),  # so do quoted newlines
        ],
        ids=["blank-lines", "quoted-newline"],
    )
    def test_non_numeric_cell_names_file_line(
        self, tmp_path, ledger_path, text, line
    ):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        spec = QuerySpec(
            str(path),
            "spend",
            AggregateKind.SUM,
            "trunclap",
            P,
            0,
            clip=(0.0, 1.0),
        )
        with pytest.raises(DomainError, match=rf"'oops'.*bad\.csv:{line}$"):
            run_query(spec, ledger_path)

    @pytest.mark.parametrize("agg", [AggregateKind.SUM, AggregateKind.MEAN])
    def test_nan_cell_is_rejected_before_spending(
        self, tmp_path, ledger_path, agg
    ):
        # a NaN release would reveal that one row holds NaN
        ledger = BudgetLedger(ledger_path)
        ledger.append(LedgerEntry("q0", 0.5, 0.0, "2026-01-01T00:00:00+00:00"))
        before = ledger_path.read_bytes()
        path = tmp_path / "nan.csv"
        path.write_text("id,spend\n1,3.5\n2,nan\n3,inf\n")
        spec = QuerySpec(
            str(path), "spend", agg, "trunclap", P, 0, clip=(0.0, 1.0)
        )
        with pytest.raises(DomainError, match=r"'nan'.*nan\.csv:3$"):
            run_query(spec, ledger_path)
        assert ledger_path.read_bytes() == before

    @pytest.mark.parametrize(
        "text, line",
        [
            # the NaN cell sends the file to the streaming reader
            ("id,spend\n1,{big}\n2,nan\n", 2),
            ("id,spend,{big}\n1,2,3\n", 1),
        ],
        ids=["cell-on-streaming-path", "header"],
    )
    def test_field_over_csv_limit_names_file_line(
        self, tmp_path, ledger_path, text, line
    ):
        ledger = BudgetLedger(ledger_path)
        ledger.append(LedgerEntry("q0", 0.5, 0.0, "2026-01-01T00:00:00+00:00"))
        before = ledger_path.read_bytes()
        path = tmp_path / "wide.csv"
        path.write_text(text.format(big="0" * 200_000 + "1"))
        with pytest.raises(
            DomainError, match=rf"wide\.csv:{line}: field larger than field limit"
        ):
            run_query(_spec(path), ledger_path)
        assert ledger_path.read_bytes() == before

    def test_infinite_cells_are_clipped(self, tmp_path, ledger_path):
        path = tmp_path / "inf.csv"
        path.write_text("id,spend\n1,inf\n2,-inf\n3,0.25\n")
        spec = QuerySpec(
            str(path),
            "spend",
            AggregateKind.SUM,
            "trunclap",
            P,
            "median",
            clip=(0.0, 1.0),
        )
        assert run_query(spec, ledger_path)["noisy_value"] == 1.25


class TestBudgets:
    def _count_spec(self, spend_csv, eps=0.5):
        return QuerySpec(
            str(spend_csv),
            "spend",
            AggregateKind.COUNT,
            "trunclap",
            PrivacyParams(eps, 1e-5),
            "median",
        )

    def test_budget_respected_then_exceeded(self, spend_csv, ledger_path):
        spec = self._count_spec(spend_csv)
        run_query(spec, ledger_path, budget_eps=1.0)
        run_query(spec, ledger_path, budget_eps=1.0)  # exactly at the cap
        with pytest.raises(BudgetError, match="epsilon budget"):
            run_query(spec, ledger_path, budget_eps=1.0)

    def test_budget_checked_before_reading_data(self, tmp_path, ledger_path):
        BudgetLedger(ledger_path).append(
            LedgerEntry("q0", 1.0, 0.0, "2026-01-01T00:00:00+00:00")
        )
        spec = QuerySpec(
            str(tmp_path / "does-not-exist.csv"),
            "spend",
            AggregateKind.COUNT,
            "trunclap",
            P,
            0,
        )
        with pytest.raises(BudgetError):
            run_query(spec, ledger_path, budget_eps=1.0)

    @pytest.mark.parametrize("cap", ["budget_eps", "budget_delta"])
    def test_nan_cap_is_refused_before_reading_anything(
        self, tmp_path, ledger_path, cap
    ):
        # x > nan is False, so a NaN cap would admit every query.  Neither
        # the (malformed) ledger nor the (missing) CSV may be read first.
        ledger_path.write_text("not json\n")
        spec = QuerySpec(
            str(tmp_path / "does-not-exist.csv"),
            "spend",
            AggregateKind.COUNT,
            "trunclap",
            P,
            "median",
        )
        with pytest.raises(DomainError, match=f"{cap} must be a number"):
            run_query(spec, ledger_path, **{cap: math.nan})
        assert ledger_path.read_text() == "not json\n"

    def test_nan_ledger_line_cannot_lift_the_cap(self, spend_csv, ledger_path):
        ledger_path.write_text(
            '{"query_id": "q0", "epsilon": NaN, "delta": 0.0, "timestamp": "t"}\n'
        )
        spec = self._count_spec(spend_csv, eps=1.0)
        with pytest.raises(DomainError, match="malformed ledger line 1"):
            run_query(spec, ledger_path, budget_eps=1.5)
        assert len(ledger_path.read_text().splitlines()) == 1

    def test_delta_budget(self, spend_csv, ledger_path):
        lap = QuerySpec(
            str(spend_csv), "spend", AggregateKind.COUNT, "laplace", P, "median"
        )
        run_query(lap, ledger_path, budget_delta=0.0)  # laplace spends none
        tl = self._count_spec(spend_csv)
        with pytest.raises(BudgetError, match="delta budget"):
            run_query(tl, ledger_path, budget_delta=0.0)


def _spec(path, aggregate=AggregateKind.SUM, column="spend", clip=(0.0, 10.0)):
    clip = None if aggregate is AggregateKind.COUNT else clip
    return QuerySpec(str(path), column, aggregate, "trunclap", P, 0, clip=clip)


def brute_read_column(spec):
    """The one-pass `csv.reader` loop that `_read_column` ran before it
    tried numpy's C reader first, kept verbatim as the reference."""
    path = Path(spec.input_path)
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DomainError(f"{path} has no header row")
        if spec.column not in header:
            raise DomainError(
                f"column {spec.column!r} not in {path} header {header}"
            )
        if spec.aggregate is AggregateKind.COUNT:
            return sum(map(bool, reader)), np.empty(0)
        index = len(header) - 1 - header[::-1].index(spec.column)
        values = array("d")
        append = values.append
        for row in reader:
            if not row:
                continue
            try:
                value = float(row[index])
            except (IndexError, ValueError):
                value = math.nan
            if value != value:
                cell = row[index] if index < len(row) else None
                raise DomainError(
                    f"non-numeric value {cell!r} for column "
                    f"{spec.column!r} at {path}:{reader.line_num}"
                )
            append(value)
    clipped = np.frombuffer(values)
    return len(values), np.clip(clipped, *spec.clip, out=clipped)


def _outcome(read, spec):
    """(count, dtype, value bits), or (exception type, message)."""
    try:
        count, values = read(spec)
    except Exception as exc:  # both readers must fail alike, however
        return type(exc), str(exc)
    return count, values.dtype, values.tobytes()


@pytest.fixture
def csv_reader_rows(monkeypatch):
    """The rows every `csv.reader` yields from here on, in order."""
    rows = []
    real = csv.reader

    def counting_reader(*args, **kwargs):
        for row in real(*args, **kwargs):
            rows.append(row)
            yield row

    monkeypatch.setattr(csv, "reader", counting_reader)
    return rows


class TestReadColumn:
    """The reader matches csv.DictReader on the corner cases of CSV."""

    def test_short_row_has_no_cell(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("id,spend\n1,3.5\n2\n")
        with pytest.raises(DomainError, match=r"non-numeric value None .*:3$"):
            _read_column(_spec(path))

    def test_duplicate_header_name_selects_last_column(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("spend,id,spend\n1,2,3\n4,5,6\n")
        count, values = _read_column(_spec(path))
        assert count == 2
        np.testing.assert_array_equal(values, [3.0, 6.0])

    def test_quoted_cell_with_comma(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('name,spend\n"Doe, Jane",2.5\n"x",1\n')
        count, values = _read_column(_spec(path))
        assert count == 2
        np.testing.assert_array_equal(values, [2.5, 1.0])

    def test_whitespace_around_number(self, tmp_path):
        path = tmp_path / "space.csv"
        path.write_text("id,spend\n1, 3.5 \n")
        np.testing.assert_array_equal(_read_column(_spec(path))[1], [3.5])

    def test_empty_file_has_no_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DomainError, match="has no header row"):
            _read_column(_spec(path))

    def test_blank_first_line_is_an_empty_header(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("\nid,spend\n1,3.5\n")
        with pytest.raises(DomainError, match=r"not in .* header \[\]$"):
            _read_column(_spec(path))

    def test_count_ignores_short_and_junk_rows(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("id,spend\n1,3.5\n2\n\n3,oops\n4,nan\n")
        count, values = _read_column(_spec(path, AggregateKind.COUNT))
        assert count == 4
        assert values.size == 0

    def test_traced_peak_per_row(self, tmp_path):
        rows = 100_000
        path = tmp_path / "big.csv"
        with open(path, "w", newline="") as fh:
            fh.write("id,spend\n")
            fh.writelines(f"{i},{i % 2500 / 100}\n" for i in range(rows))
        tracemalloc.start()
        try:
            count, values = _read_column(_spec(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == values.size == rows
        assert values.max() == 10.0
        # one float64 a row; a list of float objects would be about 32 B/row
        assert peak / rows < 16.0

    def test_count_traced_peak_per_row(self, tmp_path):
        rows = 100_000
        path = tmp_path / "big.csv"
        with open(path, "w", newline="") as fh:
            fh.write("id,spend\n")
            fh.writelines(f"{i},{i % 2500 / 100}\n" for i in range(rows))
        tracemalloc.start()
        try:
            count, values = _read_column(_spec(path, AggregateKind.COUNT))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == rows
        assert values.size == 0
        assert peak / rows < 16.0


class TestReadPaths:
    """Well-formed files take numpy's C reader; the streaming reader takes
    over only for rows it rejects, with the streaming reader's result."""

    @pytest.mark.parametrize("agg", list(AggregateKind))
    def test_well_formed_file_reads_only_the_header_with_csv(
        self, tmp_path, csv_reader_rows, agg
    ):
        path = tmp_path / "ok.csv"
        path.write_text('id,spend\n1,3.5\n\n2," 4 "\r\n3,-1e1\n4,inf\n')
        count, values = _read_column(_spec(path, agg))
        assert csv_reader_rows == [["id", "spend"]]
        assert count == 4
        if agg is not AggregateKind.COUNT:
            np.testing.assert_array_equal(values, [3.5, 4.0, 0.0, 10.0])

    def test_count_over_a_text_column_reads_only_the_header_with_csv(
        self, tmp_path, csv_reader_rows
    ):
        path = tmp_path / "text.csv"
        path.write_text('id,region\n1,eu\n2,"us, east"\n3,\n')
        spec = _spec(path, AggregateKind.COUNT, column="region")
        assert _read_column(spec)[0] == 3
        assert csv_reader_rows == [["id", "region"]]

    @pytest.mark.parametrize(
        "cell, value",
        [("1_000", 1000.0), ("\uff15", 5.0), ("\u0663.5", 3.5)],
        ids=["underscore", "full-width", "arabic-indic"],
    )
    def test_float_grammar_beyond_the_c_reader(
        self, tmp_path, csv_reader_rows, cell, value
    ):
        path = tmp_path / "grammar.csv"
        path.write_text(f"id,spend\n1,2\n2,{cell}\n", encoding="utf-8")
        count, values = _read_column(_spec(path, clip=(0.0, 1e6)))
        assert count == 2
        np.testing.assert_array_equal(values, [2.0, value])
        assert len(csv_reader_rows) > 1  # the streaming reader took over

    @pytest.mark.parametrize("agg", list(AggregateKind))
    def test_lone_cr_line_ends_read_like_lf(self, tmp_path, agg):
        text = "id,spend\n1,3.5\n\n2,4\n"
        lf, cr = tmp_path / "lf.csv", tmp_path / "cr.csv"
        lf.write_bytes(text.encode())
        cr.write_bytes(text.replace("\n", "\r").encode())
        assert _outcome(_read_column, _spec(cr, agg)) == _outcome(
            _read_column, _spec(lf, agg)
        )
        assert _read_column(_spec(cr, agg))[0] == 2

    def test_quoted_newline_in_header(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text('id,"a\nb",spend\n1,2,3\n4,5,6\n')
        count, values = _read_column(_spec(path))
        assert count == 2
        np.testing.assert_array_equal(values, [3.0, 6.0])
        path.write_text('id,"a\nb",spend\n1,2,3\n4,5,oops\n')
        with pytest.raises(DomainError, match=r"'oops'.*header\.csv:4$"):
            _read_column(_spec(path))

    @pytest.mark.parametrize("agg", list(AggregateKind))
    @pytest.mark.parametrize("body", ["", "\n", "\r\n\n"])
    def test_header_only_file_is_empty_without_warnings(
        self, tmp_path, agg, body
    ):
        path = tmp_path / "head.csv"
        path.write_bytes(b"id,spend\n" + body.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            count, values = _read_column(_spec(path, agg))
        assert count == values.size == 0


_CELLS = st.sampled_from(
    ["1", "2.5", " 3 ", "-4e1", '"5"', '"6,5"', "inf", "-inf", "nan", "NaN",
     "1e400", "1_000", "\uff11\uff12", "", "x", "#1", '1"2', "\t7"]
)
_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
_JUNK = st.text(
    alphabet=list('015.e-+,"\r\n \tnaif_x#') + ["\uff11", "\x0c", "\x00"],
    max_size=6,
)


@st.composite
def _hostile_csv(draw, position):
    """A header with 'spend' at ``position`` among three columns, then rows
    of one to four cells, blank and whitespace-only lines and junk, with
    mixed line ends and perhaps an unclosed quote at the end."""
    header = ["a", "b"]
    header.insert(position, "spend")
    row = st.lists(_CELLS, min_size=1, max_size=4).map(",".join)
    line = st.one_of(row, row, st.sampled_from(["", " ", "\t"]), _JUNK)
    lines = draw(st.lists(st.tuples(line, _ENDS), max_size=6))
    tail = draw(st.sampled_from(["", "\n", '"']))
    return ",".join(header) + "\n" + "".join(a + b for a, b in lines) + tail


@pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("agg", list(AggregateKind))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_read_column_matches_streaming_reference(
    tmp_path_factory, agg, position, data
):
    path = tmp_path_factory.getbasetemp() / f"hostile-{agg.value}-{position}.csv"
    path.write_bytes(data.draw(_hostile_csv(position)).encode("utf-8"))
    spec = _spec(path, agg)
    assert _outcome(_read_column, spec) == _outcome(brute_read_column, spec)
