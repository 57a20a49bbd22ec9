import csv
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from array import array
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dpnoise
from dpnoise.baselines import Gaussian, Laplace
from dpnoise import core, query
from dpnoise.core import (
    MECHANISM_NAMES,
    AggregateKind,
    BudgetError,
    DomainError,
    PrivacyParams,
    make_mechanism,
    make_rng,
)
from dpnoise.query import (
    BudgetLedger,
    LedgerEntry,
    QUERY_MECHANISMS,
    QuerySpec,
    _parse_ledger_line,
    _read_column,
    run_query,
)
from dpnoise.trunclap import TruncatedLaplace

P = PrivacyParams(0.5, 1e-5)


def clipped_spend_sum(path, lo, hi):
    with open(path, newline="") as fh:
        vals = [float(r["spend"]) for r in csv.DictReader(fh)]
    return float(np.clip(np.asarray(vals), lo, hi).sum())


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

    @pytest.mark.parametrize("name", MECHANISM_NAMES)
    def test_builds_the_registered_class(self, name):
        cls = getattr(dpnoise, core._MECHANISMS[name])
        mech = make_mechanism(name, P, 2.0)
        assert type(mech) is cls
        assert mech.parameters == cls.from_privacy(P, 2.0).parameters

    def test_name_lists(self):
        assert set(QUERY_MECHANISMS) <= set(MECHANISM_NAMES)
        assert "uniform" not in QUERY_MECHANISMS

    def test_refuses_wrong_argument_types(self):
        # a list name escaped as TypeError (unhashable), and a tuple of
        # params as AttributeError from from_privacy
        with pytest.raises(DomainError, match=r"^unknown mechanism \[1\.0\]"):
            make_mechanism([1.0], P, 1.0)
        with pytest.raises(DomainError, match="^params must be a PrivacyParams, got tuple$"):
            make_mechanism("trunclap", (1, 1e-5), 1.0)

    def test_laplace_ignores_delta(self):
        a = make_mechanism("laplace", PrivacyParams(0.5, 1e-3), 1.0)
        b = make_mechanism("laplace", PrivacyParams(0.5, 1e-9), 1.0)
        assert a.scale == b.scale == 2.0


class TestMakeRng:
    @pytest.mark.parametrize("seed", ["median", "MEDIAN"])
    def test_median_is_refused(self, seed):
        # it drew zero noise: the exact aggregate, released with no guarantee
        with pytest.raises(DomainError, match="seed must be"):
            make_rng(seed)
        with pytest.raises(DomainError, match="seed must be"):
            QuerySpec("x.csv", "c", AggregateKind.COUNT, "trunclap", P, seed)

    @pytest.mark.parametrize("seed", [1.5, -0.5, 1.0, True, False, b"1", [1]])
    def test_only_ints_and_strings_are_seeds(self, seed):
        # int() truncated 1.5 to 1 and True to 1: another seed's stream
        with pytest.raises(DomainError, match="seed must be"):
            make_rng(seed)
        with pytest.raises(DomainError, match="seed must be"):
            QuerySpec("x.csv", "c", AggregateKind.COUNT, "trunclap", P, seed)

    def test_no_seed_draws_fresh_entropy(self):
        assert not np.array_equal(make_rng(None).random(4), make_rng(None).random(4))
        spec = QuerySpec("x.csv", "c", AggregateKind.COUNT, "trunclap", P)
        assert spec.seed is None

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
        assert spec.sensitivity() == 1.0

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

    @pytest.mark.parametrize(
        "clip", [("a", 1), (None, 1), (0, 1, 2), (1,), 5, "ab", (0, 10**400)]
    )
    def test_clip_must_be_a_pair_of_real_numbers(self, clip, spend_csv, ledger_path):
        # ("a", 1) and (None, 1) raised TypeError, (0, 1, 2) a bare
        # ValueError from unpacking
        BudgetLedger(ledger_path).append(LedgerEntry("q0", 0.5, 0.0, "t"))
        before = ledger_path.read_bytes()
        with pytest.raises(DomainError, match="^clip"):
            run_query(
                QuerySpec(str(spend_csv), "spend", AggregateKind.SUM, "trunclap",
                          P, 0, clip=clip),
                ledger_path,
            )
        assert ledger_path.read_bytes() == before

    def test_clip_is_held_as_floats(self):
        spec = QuerySpec(
            "x.csv", "c", AggregateKind.SUM, "trunclap", P, 0, clip=[np.int64(-3), 2]
        )
        assert spec.clip == (-3.0, 2.0)
        assert all(type(bound) is float for bound in spec.clip)

    def test_sensitivity_is_worst_clip_edge(self):
        spec = QuerySpec(
            "x.csv", "c", AggregateKind.SUM, "trunclap", P, 0, clip=(-30.0, 10.0)
        )
        assert spec.sensitivity() == 30.0

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
            # float() of an integer beyond the double range overflows
            '"epsilon": 1' + "0" * 400 + ', "delta": 0.0',
            '"epsilon": 1.0, "delta": 1' + "0" * 400,
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

    @pytest.mark.parametrize("line", [b"\xff\xfe", b'{"query_id": "\xff"}'],
                             ids=["bare", "in-a-string"])
    @pytest.mark.parametrize("read", ["totals", "entries"])
    def test_a_line_that_is_not_utf8_is_malformed(self, ledger_path, line, read):
        # escaped as UnicodeDecodeError from reading the file
        text = (b'{"query_id": "aa", "epsilon": 0.1, "delta": 0.0, "timestamp": "t"}\n'
                + line + b"\n")
        ledger_path.write_bytes(text)
        with pytest.raises(DomainError, match="^malformed ledger line 2 in "):
            getattr(BudgetLedger(ledger_path), read)()
        assert ledger_path.read_bytes() == text

    def test_totals_are_the_correctly_rounded_sums(self, ledger_path):
        ledger = BudgetLedger(ledger_path)
        for i, eps in enumerate([1e16, 1.0, 1.0, 0.1, 1e-17, 0.3]):
            ledger.append(LedgerEntry(f"q{i}", eps, eps / 7, "t"))
        entries = ledger.entries()
        epsilons = [e.epsilon for e in entries]
        assert ledger.totals() == (
            math.fsum(epsilons),
            math.fsum(e.delta for e in entries),
        )
        # a running sum loses each 1.0 against 1e16
        assert ledger.totals()[0] == 1e16 + 2.0 != sum(epsilons)

    def test_long_ledger_total_does_not_drift_under_the_cap(
        self, spend_csv, ledger_path
    ):
        # 1.0 + 1.1e-16 rounds back to 1.0, so a running sum of these
        # entries stays at 1.0 while the exact total is 1 + 2.2e-12, beyond
        # the cap's slack: the query must be refused
        first = LedgerEntry("q0", 1.0, 0.0, "t").to_json()
        tiny = LedgerEntry("q", 1.1e-16, 0.0, "t").to_json()
        ledger_path.write_text("\n".join([first] + [tiny] * 20_000) + "\n")
        spec = QuerySpec(
            str(spend_csv), "spend", AggregateKind.COUNT, "trunclap",
            PrivacyParams(1e-16, 1e-5), 0,
        )
        with pytest.raises(BudgetError, match="epsilon budget"):
            run_query(spec, ledger_path, budget_eps=1.0 + 1e-12)
        assert len(ledger_path.read_text().splitlines()) == 20_001

    def test_append_is_fsynced(self, ledger_path, monkeypatch):
        synced = []
        monkeypatch.setattr(query.os, "fsync", synced.append)
        BudgetLedger(ledger_path).append(LedgerEntry("q1", 0.5, 0.0, "t"))
        assert len(synced) == 1
        assert len(ledger_path.read_text().splitlines()) == 1


_LINE = '{"query_id": "a", "epsilon": 1.0, "delta": 0.0, "timestamp": "t"}'


class TestTornFinalLine:
    """Under the lock, a final line without a newline is ended if it
    parses and cut off if it does not; any other bad line is an error."""

    def test_parsing_line_is_ended_and_counted(self, ledger_path):
        ledger_path.write_text(_LINE + "\n" + _LINE.replace('"a"', '"b"'))
        ledger = BudgetLedger(ledger_path)
        with ledger.locked():
            assert ledger.totals() == (2.0, 0.0)
            ledger.append(LedgerEntry("c", 0.5, 0.0, "t"))
        assert [e.query_id for e in ledger.entries()] == ["a", "b", "c"]
        assert ledger_path.read_text().endswith("}\n")

    @pytest.mark.parametrize(
        "torn",
        [_LINE[:30], _LINE[:-1], " ", '{"query_id": "b"}',
         _LINE.replace("1.0", "1" + "0" * 400)],
        ids=["mid-value", "no-brace", "blank", "missing-keys", "overflowing-spend"],
    )
    def test_unparsed_line_is_cut(self, ledger_path, spend_csv, torn):
        ledger_path.write_text(_LINE + "\n" + torn)
        spec = QuerySpec(
            str(spend_csv), "spend", AggregateKind.COUNT, "trunclap", P, 0
        )
        result = run_query(spec, ledger_path, budget_eps=1.5)
        lines = ledger_path.read_text().splitlines()
        assert lines[0] == _LINE and len(lines) == 2
        assert json.loads(lines[1])["query_id"] == result["query_id"]

    def test_torn_line_is_left_alone_without_the_lock(self, ledger_path):
        ledger_path.write_text(_LINE + "\n" + _LINE[:30])
        with pytest.raises(DomainError, match="malformed ledger line 2"):
            BudgetLedger(ledger_path).totals()
        assert ledger_path.read_text() == _LINE + "\n" + _LINE[:30]

    @pytest.mark.parametrize(
        "text",
        [f"not json\n{_LINE}", f"{_LINE}\nnot json\n{_LINE}\n"],
        ids=["first-line", "middle-line"],
    )
    def test_other_malformed_lines_still_raise(self, ledger_path, text):
        ledger_path.write_text(text)
        ledger = BudgetLedger(ledger_path)
        with pytest.raises(DomainError, match=r"malformed ledger line \d"):
            with ledger.locked():
                ledger.totals()
        assert ledger_path.read_text() == text + ("" if text.endswith("\n") else "\n")


def json_loads_ledger_line(line):
    """`_parse_ledger_line` as it was, on `json.loads`: the reference."""
    raw = json.loads(line)
    query_id, timestamp = str(raw["query_id"]), str(raw["timestamp"])
    epsilon, delta = float(raw["epsilon"]), float(raw["delta"])
    if not (0.0 <= epsilon < math.inf and 0.0 <= delta < math.inf):
        raise ValueError
    return query_id, epsilon, delta, timestamp


def _parsed(parse, line):
    """The record of a ledger line, stripped as the ledger strips it, or
    "refused"."""
    try:
        return parse(line.strip())
    except (ValueError, KeyError, TypeError, OverflowError):
        return "refused"


def _entry(**fields):
    return json.dumps({"query_id": "a", "epsilon": 0.5, "delta": 1e-6,
                       "timestamp": "t", **fields})


_HOSTILE_LINES = [
    _LINE,
    _LINE + " x",  # trailing data
    _LINE + "}",
    _LINE + _LINE,  # two objects on one line
    _LINE + " " + _LINE,
    _LINE[:-1],
    "[1]", "null", "1", '"a"', "", "{}",
    _entry(epsilon=math.nan), _entry(delta=math.inf), _entry(epsilon=-math.inf),
    _entry(epsilon=-0.5), _entry(delta=-1e-300), _entry(epsilon=-0.0),
    _LINE.replace("1.0", "1" + "0" * 400),  # an integer beyond the double range
    _LINE.replace("1.0", "1" + "0" * 5000),  # and beyond int()'s digit limit
    _LINE.replace("1.0", "1e400"),  # a float literal that overflows to inf
    "\xa0" + _LINE + "\xa0",  # str.strip() padding that json does not strip
    "\ufeff" + _LINE,  # a byte-order mark
    "\u2028" + _LINE,
    _entry(query_id=7), _entry(query_id=None), _entry(query_id=[1, {}]),
    _entry(timestamp=1.5), _entry(epsilon=True), _entry(epsilon="0.25"),
    _entry(epsilon=[1.0]), _entry(delta=None),
    '{"query_id": "a", "query_id": "b", "epsilon": 1, "delta": 0, "timestamp": "t"}',
    '{"query_id": "\\ud800", "epsilon": 1, "delta": 0, "timestamp": "t"}',
    ' { "query_id" : "a" , "epsilon" : 1 , "delta" : 0 , "timestamp" : "t" } ',
]


class TestLedgerLineParse:
    """The ledger parses a line with `JSONDecoder.raw_decode`; it accepts
    and refuses what `json.loads` does, with the same values."""

    @pytest.mark.parametrize("line", _HOSTILE_LINES)
    def test_hostile_line_parses_as_json_loads_does(self, line):
        assert _parsed(_parse_ledger_line, line) == _parsed(
            json_loads_ledger_line, line
        )

    def test_totals_and_refusals_match_json_loads(self, ledger_path):
        accepted = [
            line for line in _HOSTILE_LINES
            if _parsed(json_loads_ledger_line, line) != "refused"
        ]
        refused = [line for line in _HOSTILE_LINES if line not in accepted]
        assert len(accepted) >= 10 and len(refused) >= 20
        ledger_path.write_text("".join(line + "\n" for line in accepted))
        records = [json_loads_ledger_line(line.strip()) for line in accepted]
        totals = BudgetLedger(ledger_path).totals()
        assert totals == (
            math.fsum(r[1] for r in records), math.fsum(r[2] for r in records)
        )
        for line in refused:
            if not line.strip():
                continue  # a blank line is skipped, not refused
            ledger_path.write_text(_LINE + "\n" + line + "\n")
            with pytest.raises(DomainError, match="malformed ledger line 2"):
                BudgetLedger(ledger_path).totals()

    @settings(max_examples=1000, derandomize=True, deadline=None)
    @given(
        line=st.one_of(
            st.text(max_size=12),
            st.lists(
                st.sampled_from(
                    ['{', '}', '[', ']', ',', ':', ' ', '"query_id"', '"epsilon"',
                     '"delta"', '"timestamp"', '"t"', '1', '-0', '0.5', '1e400',
                     '1' + '0' * 400, 'NaN', 'Infinity', 'null', 'true', '\xa0',
                     '\ufeff', _LINE]
                ),
                max_size=12,
            ).map("".join),
        )
    )
    def test_short_strings_parse_as_json_loads_does(self, line):
        assert _parsed(_parse_ledger_line, line) == _parsed(
            json_loads_ledger_line, line
        )


class TestRunQuery:
    @pytest.mark.usefixtures("zero_noise")
    def test_count_with_zero_noise_is_exact(self, spend_csv, ledger_path):
        spec = QuerySpec(
            str(spend_csv), "spend", AggregateKind.COUNT, "trunclap", P, 0
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
            str(spend_csv), "spend", AggregateKind.COUNT, "trunclap", P, 0
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
            str(spend_csv), "spend", AggregateKind.COUNT, "laplace", P, 0
        )
        result = run_query(spec, ledger_path)
        assert result["delta_spent"] == 0.0
        assert BudgetLedger(ledger_path).totals() == (0.5, 0.0)

    @pytest.mark.usefixtures("zero_noise")
    def test_sum_with_zero_noise(self, spend_csv, ledger_path):
        spec = QuerySpec(
            str(spend_csv),
            "spend",
            AggregateKind.SUM,
            "trunclap",
            P,
            0,
            clip=(0.0, 20.0),
        )
        result = run_query(spec, ledger_path)
        assert result["noisy_value"] == clipped_spend_sum(spend_csv, 0.0, 20.0)

    @pytest.mark.usefixtures("zero_noise")
    def test_mean_with_zero_noise(self, spend_csv, ledger_path):
        spec = QuerySpec(
            str(spend_csv),
            "spend",
            AggregateKind.MEAN,
            "gaussian-analytic",
            P,
            0,
            clip=(0.0, 25.0),
        )
        result = run_query(spec, ledger_path)
        expected = clipped_spend_sum(spend_csv, 0.0, 25.0) / 100.0
        assert result["noisy_value"] == pytest.approx(expected, rel=1e-15)
        # the ledger charges the full pair, not the per-draw halves
        assert result["epsilon_spent"] == 0.5

    @pytest.mark.usefixtures("zero_noise")
    def test_mean_of_empty_table_is_nan(self, tmp_path, ledger_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,spend\n")
        spec = QuerySpec(
            str(path),
            "spend",
            AggregateKind.MEAN,
            "trunclap",
            P,
            0,
            clip=(0.0, 1.0),
        )
        assert math.isnan(run_query(spec, ledger_path)["noisy_value"])

    def test_neighbouring_releases_draw_independent_noise(
        self, spend_csv, tmp_path, ledger_path
    ):
        # With one seed, two releases that drew the same noise would differ
        # by exactly the dropped row.
        lines = spend_csv.read_text().splitlines(keepends=True)
        neighbour = tmp_path / "neighbour.csv"
        neighbour.write_text("".join(lines[:-1]))
        released = [
            run_query(
                QuerySpec(str(path), "spend", AggregateKind.COUNT, "trunclap", P, 7),
                ledger_path,
            )["noisy_value"]
            for path in (spend_csv, neighbour)
        ]
        assert released[0] - released[1] != 1.0
        assert 100.0 not in released and 99.0 not in released  # real noise

    def test_release_rebuilds_from_seed_and_query_id(self, spend_csv, ledger_path):
        spec = QuerySpec(
            str(spend_csv), "spend", AggregateKind.MEAN, "trunclap", P, "0x2a",
            clip=(0.0, 10.0),
        )
        result = run_query(spec, ledger_path)
        (entry,) = BudgetLedger(ledger_path).entries()
        assert entry.query_id == result["query_id"]
        rng = np.random.default_rng(
            np.random.SeedSequence([42, int(entry.query_id, 16)])
        )
        half = PrivacyParams(P.epsilon / 2.0, P.delta / 2.0)
        noisy_sum = clipped_spend_sum(spend_csv, 0.0, 10.0) + float(
            make_mechanism("trunclap", half, 10.0).sample(rng)
        )
        noisy_count = 100 + float(make_mechanism("trunclap", half, 1.0).sample(rng))
        assert result["noisy_value"] == noisy_sum / noisy_count

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

    @pytest.mark.usefixtures("zero_noise")
    def test_count_ignores_bad_cells(self, tmp_path, ledger_path):
        # count never parses the column, so junk cells cannot block it
        path = tmp_path / "bad.csv"
        path.write_text("id,spend\n1,3.5\n2,oops\n")
        spec = QuerySpec(
            str(path), "spend", AggregateKind.COUNT, "trunclap", P, 0
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
        [("id,spend,{big}\n1,2,3\n", 1)],
        ids=["header"],
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

    @pytest.mark.usefixtures("zero_noise")
    def test_infinite_cells_are_clipped(self, tmp_path, ledger_path):
        path = tmp_path / "inf.csv"
        path.write_text("id,spend\n1,inf\n2,-inf\n3,0.25\n")
        spec = QuerySpec(
            str(path),
            "spend",
            AggregateKind.SUM,
            "trunclap",
            P,
            0,
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
            0,
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
            0,
        )
        with pytest.raises(DomainError, match=f"{cap} must be a number"):
            run_query(spec, ledger_path, **{cap: math.nan})
        assert ledger_path.read_text() == "not json\n"

    @pytest.mark.parametrize("cap", ["budget_eps", "budget_delta"])
    def test_negative_cap_is_refused_before_reading_anything(
        self, tmp_path, ledger_path, cap
    ):
        # A negative cap is invalid input, not an exhausted budget.
        ledger_path.write_text("not json\n")
        spec = QuerySpec(
            str(tmp_path / "does-not-exist.csv"),
            "spend",
            AggregateKind.COUNT,
            "trunclap",
            P,
            0,
        )
        with pytest.raises(DomainError, match=f"{cap} must be a number >= 0"):
            run_query(spec, ledger_path, **{cap: -1.0})
        assert ledger_path.read_text() == "not json\n"

    @pytest.mark.parametrize("bad", ["1", b"1", True, 10**400])
    @pytest.mark.parametrize("cap", ["budget_eps", "budget_delta"])
    def test_cap_must_be_a_real_number(self, spend_csv, ledger_path, cap, bad):
        # "1" raised TypeError from the comparison, True capped at 1, and
        # 10**400 passed the check and overflowed against the spend
        BudgetLedger(ledger_path).append(LedgerEntry("q0", 0.5, 0.0, "t"))
        before = ledger_path.read_bytes()
        with pytest.raises(DomainError, match=f"^{cap} must be a real number"):
            run_query(self._count_spec(spend_csv), ledger_path, **{cap: bad})
        assert ledger_path.read_bytes() == before

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
            str(spend_csv), "spend", AggregateKind.COUNT, "laplace", P, 0
        )
        run_query(lap, ledger_path, budget_delta=0.0)  # laplace spends none
        tl = self._count_spec(spend_csv)
        with pytest.raises(BudgetError, match="delta budget"):
            run_query(tl, ledger_path, budget_delta=0.0)


_RACER = """
import sys, time
from dpnoise import query
from dpnoise.core import PrivacyParams

read_column = query._read_column

def slow_read_column(spec):
    time.sleep(0.5)  # inside the locked window, after the totals read
    return read_column(spec)

query._read_column = slow_read_column
csv_path, ledger_path = sys.argv[1:]
spec = query.QuerySpec(
    csv_path, "spend", query.AggregateKind.COUNT, "trunclap",
    PrivacyParams(0.5, 1e-5), 0,
)
print("ready", flush=True)
sys.stdin.readline()
try:
    query.run_query(spec, ledger_path, budget_eps=0.75)
except query.BudgetError:
    print("budget")
else:
    print("released")
"""


class TestLedgerLock:
    def test_two_processes_cannot_both_spend_the_last_room(
        self, spend_csv, ledger_path
    ):
        # The cap leaves room for one query.  Both processes start their
        # query together; the one that waits for the lock must see the
        # other's spend.
        env = dict(os.environ, PYTHONPATH=str(Path(query.__file__).parents[1]))
        racers = [
            subprocess.Popen(
                [sys.executable, "-c", _RACER, str(spend_csv), str(ledger_path)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
                text=True,
            )
            for _ in range(2)
        ]
        try:
            for racer in racers:
                assert racer.stdout.readline() == "ready\n"
            for racer in racers:
                racer.stdin.write("go\n")
                racer.stdin.flush()
            outcomes = sorted(racer.communicate(timeout=60)[0] for racer in racers)
        finally:
            for racer in racers:
                racer.kill()
                racer.wait()
        assert outcomes == ["budget\n", "released\n"]
        assert [r.returncode for r in racers] == [0, 0]
        assert len(BudgetLedger(ledger_path).entries()) == 1


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

    class CountingReader:
        def __init__(self, *args, **kwargs):
            self._reader = real(*args, **kwargs)

        def __iter__(self):
            return self

        def __next__(self):
            row = next(self._reader)
            rows.append(row)
            return row

        @property
        def line_num(self):
            return self._reader.line_num

    monkeypatch.setattr(csv, "reader", CountingReader)
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

    @pytest.mark.parametrize("rows", [100_000, 400_000])
    def test_count_traced_peak_does_not_grow_with_rows(self, tmp_path, rows):
        # a count holds a few blocks of the file, not a cell a row
        path = tmp_path / "big.csv"
        path.write_text(_rows_csv(rows))
        tracemalloc.start()
        try:
            count = _read_column(_spec(path, AggregateKind.COUNT))[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == rows
        assert peak < 16 * 100_000  # the bound above, at 100k rows


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
    @pytest.mark.parametrize(
        "data, line",
        [(b"id,spend\n1,2\n2,\xff3\n", 3), (b"id,sp\xe9nd\n1,2\n", 1),
         (b"id,spend\r1,2\r2,3\r4,\xc3(\r", 4)],
        ids=["cell", "header", "lone-cr"],
    )
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, agg, data, line):
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        with pytest.raises(DomainError, match=rf"latin1\.csv:{line}: not UTF-8$"):
            _read_column(_spec(path, agg))

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

    @pytest.mark.parametrize("agg", list(AggregateKind))
    @pytest.mark.parametrize("column", ["a", "b"])
    @pytest.mark.parametrize(
        "text, streamed",
        [("a,b\n1,2\n3.5,4\n", False), ("a,b\n1,2\n1_000,4\n", True),
         ("a,b\n1,2\noops,4\n", True)],
        ids=["clean", "underscore", "junk"],
    )
    def test_byte_order_mark_reads_like_none(
        self, tmp_path, csv_reader_rows, agg, column, text, streamed
    ):
        # a file saved with a BOM (Excel's "CSV UTF-8") hid its first column
        # behind the name '\\ufeffa'; one path for both files, so that the
        # errors name the same file
        path = tmp_path / "rows.csv"
        path.write_bytes(text.encode())
        spec = _spec(path, agg, column=column, clip=(0.0, 1e6))
        plain = _outcome(_read_column, spec)
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        csv_reader_rows.clear()
        assert _outcome(_read_column, spec) == plain
        numeric = agg is not AggregateKind.COUNT and column == "a"
        if numeric:
            # the underscore and the junk cell take the streaming reader
            assert (len(csv_reader_rows) > 1) is streamed
        assert plain[0] == (DomainError if numeric and "oops" in text else 2)

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


def _rows_csv(rows):
    """A header, then ``rows`` rows of 'id,spend' with spend in [0, 25)."""
    return "id,spend\n" + "".join(f"{i},{i % 2500 / 100}\n" for i in range(rows))


@pytest.fixture
def loadtxt_sources(monkeypatch):
    """What each `np.loadtxt` call reads: a path (str) or a handle."""
    sources = []
    real = np.loadtxt

    def spy(source, *args, **kwargs):
        sources.append(source if isinstance(source, str) else "handle")
        return real(source, *args, **kwargs)

    monkeypatch.setattr(query.np, "loadtxt", spy)
    return sources


def _through_fifo(fifo, text, read):
    """``read()`` while a thread writes ``text``, str or bytes, into the new
    FIFO ``fifo``."""
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb" if isinstance(text, bytes) else "w") as fh:
            fh.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return read()
    finally:
        writer.join(timeout=30)
        assert not writer.is_alive()


class TestCReaderSource:
    """numpy's C reader gets the path only when the path still names the
    file that is open; otherwise the streaming reader reads on from the
    open handle, once."""

    @pytest.mark.parametrize("agg", list(AggregateKind))
    def test_regular_file_is_read_by_path(self, tmp_path, loadtxt_sources, agg):
        path = tmp_path / "rows.csv"
        path.write_text(_rows_csv(1000))
        read = _outcome(_read_column, _spec(path, agg))
        # a count of a plain file is read from its bytes, with no C reader
        counting = agg is AggregateKind.COUNT
        assert loadtxt_sources == ([] if counting else [str(path)])
        assert read == _outcome(brute_read_column, _spec(path, agg))

    @pytest.mark.parametrize("agg", list(AggregateKind))
    def test_fifo_reads_like_the_regular_file(
        self, tmp_path, loadtxt_sources, agg
    ):
        # Far more than a pipe buffer: a second open of the FIFO would see
        # only what the first reader had not taken.
        text = _rows_csv(20_000)
        regular = tmp_path / "rows.csv"
        regular.write_text(text)
        fifo = tmp_path / "rows.fifo"
        from_fifo = _through_fifo(
            fifo, text, lambda: _outcome(_read_column, _spec(fifo, agg))
        )
        assert loadtxt_sources == []
        assert from_fifo == _outcome(_read_column, _spec(regular, agg))
        assert from_fifo[0] == 20_000

    @pytest.mark.parametrize("agg", list(AggregateKind))
    def test_cell_over_csv_limit_reads_alike_on_every_route(self, tmp_path, agg):
        # One rule: a row's cell has no size limit.  The byte count and the
        # C reader have none, so the streaming reader lifts csv's for rows.
        limit = csv.field_size_limit()
        text = "id,spend\n1," + "0" * 200_000 + "1\n2,3\n"  # 1.0, then 3.0
        regular = tmp_path / "wide.csv"
        regular.write_text(text)
        fifo = tmp_path / "wide.fifo"
        from_fifo = _through_fifo(
            fifo, text.encode(), lambda: _outcome(_read_column, _spec(fifo, agg))
        )
        assert from_fifo == _outcome(_read_column, _spec(regular, agg))
        assert from_fifo[0] == 2
        if agg is AggregateKind.SUM:
            assert np.frombuffer(from_fifo[2]).tolist() == [1.0, 3.0]
        # a NaN cell sends a sum or a mean of the regular file to the
        # streaming reader, which reads past the long cell to the NaN
        regular.write_text(text + "3,nan\n")
        if agg is AggregateKind.COUNT:
            assert _read_column(_spec(regular, agg))[0] == 3
        else:
            with pytest.raises(DomainError, match=r"'nan' .* at \S*wide\.csv:4$"):
                _read_column(_spec(regular, agg))
        assert csv.field_size_limit() == limit

    @pytest.mark.parametrize("cell", ["nan", "x"])
    def test_fifo_bad_cell_names_its_line(self, tmp_path, loadtxt_sources, cell):
        # A pipe cannot be rewound, so the bad cell is found in one pass.
        fifo = tmp_path / "rows.fifo"
        with pytest.raises(
            DomainError,
            match=rf"^non-numeric value '{cell}' for column 'spend' at .*rows\.fifo:3$",
        ):
            _through_fifo(
                fifo, f"id,spend\n1,2\n2,{cell}\n", lambda: _read_column(_spec(fifo))
            )
        assert loadtxt_sources == []

    @pytest.mark.parametrize("agg", list(AggregateKind))
    def test_fifo_that_is_not_utf8_is_refused(self, tmp_path, agg):
        # A pipe cannot be read again to find the line.
        fifo = tmp_path / "rows.fifo"
        with pytest.raises(DomainError, match=r"rows\.fifo: not UTF-8$"):
            _through_fifo(
                fifo, b"id,spend\n1,2\n2,\xff3\n",
                lambda: _read_column(_spec(fifo, agg)),
            )

    @pytest.mark.parametrize("agg", list(AggregateKind))
    def test_file_renamed_over_reads_the_opened_file(
        self, tmp_path, monkeypatch, agg
    ):
        path = tmp_path / "rows.csv"
        path.write_text(_rows_csv(1000))
        expected = _outcome(_read_column, _spec(path, agg))
        other = tmp_path / "other.csv"
        other.write_text(_rows_csv(10))
        sources = []

        def rename_first(real):
            def read(source, *args, **kwargs):
                # between the header read and the first read of the rows
                if not sources:
                    os.replace(other, path)
                sources.append(source)
                return real(source, *args, **kwargs)
            return read

        monkeypatch.setattr(query.np, "loadtxt", rename_first(np.loadtxt))
        if agg is AggregateKind.COUNT:
            # the byte count reads the open descriptor, and no C reader runs
            monkeypatch.setattr(query.os, "pread", rename_first(os.pread))
        assert _outcome(_read_column, _spec(path, agg)) == expected
        assert expected[0] == 1000
        if agg is AggregateKind.COUNT:
            assert sources and all(isinstance(s, int) for s in sources)
        else:
            assert sources == [str(path)]
        assert path.read_text() == _rows_csv(10)

    def test_file_that_grows_while_counted_is_not_counted(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "rows.csv"
        path.write_text(_rows_csv(1000))
        real = os.pread

        def append_first(fd, size, offset):
            if offset == 0:
                with open(path, "a") as fh:
                    fh.write("1000,1\n")
            return real(fd, size, offset)

        monkeypatch.setattr(query.os, "pread", append_first)
        with open(path, "rb") as fh:
            assert query._count_rows(fh.fileno(), os.fstat(fh.fileno()), 1) is None

    @pytest.mark.parametrize("agg", list(AggregateKind))
    @pytest.mark.parametrize("suffix", [".csv.gz", ".bz2", ".xz", ".lzma"])
    def test_name_numpy_would_decompress_reads_the_handle(
        self, tmp_path, loadtxt_sources, agg, suffix
    ):
        # given the path, numpy opens these with a decompressor
        plain = tmp_path / "rows.csv"
        plain.write_text(_rows_csv(100))
        named = tmp_path / f"rows{suffix}"
        named.write_text(_rows_csv(100))
        assert _outcome(_read_column, _spec(named, agg)) == _outcome(
            brute_read_column, _spec(plain, agg)
        )
        assert loadtxt_sources == []

    def test_url_shaped_name_reads_the_local_file(
        self, tmp_path, monkeypatch, loadtxt_sources
    ):
        # numpy fetches a name with a scheme and a netloc; `Path` folds
        # "http://host" to "http:/host", which numpy opens as a local file
        local = tmp_path / "http:" / "host"
        local.mkdir(parents=True)
        (local / "rows.csv").write_text(_rows_csv(100))
        monkeypatch.chdir(tmp_path)
        spec = _spec("http://host/rows.csv", AggregateKind.SUM)
        assert _read_column(spec)[0] == 100
        assert loadtxt_sources == ["http:/host/rows.csv"]


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
    text = data.draw(_hostile_csv(position)).encode("utf-8")
    path.write_bytes(text)
    spec = _spec(path, agg)
    expected = _outcome(brute_read_column, spec)
    assert _outcome(_read_column, spec) == expected
    # the same bytes through a pipe take the streaming route, with the same
    # outcome but for the name in a message
    fifo = path.with_suffix(".fifo")
    try:
        from_fifo = _through_fifo(
            fifo, text, lambda: _outcome(_read_column, _spec(fifo, agg))
        )
    finally:
        fifo.unlink()
    if isinstance(from_fifo[1], str):
        from_fifo = (from_fifo[0], from_fifo[1].replace(str(fifo), str(path)))
    assert from_fifo == expected


# Lines with no '"' or CR, which the byte count reads: rows, whitespace,
# form feeds, runs of blank lines and multi-byte UTF-8 (two, three and four
# bytes, and a mid-file BOM).
_PIECES = st.sampled_from(
    [b"1", b"22", b",", b",3.5", b" ", b"\t", b"\x0c", b"x", b"\n", b"\n",
     b"\n\n\n", "\u00e9".encode(), "\u20ac".encode(), "\U0001d7d9".encode(),
     "\ufeff".encode()]
)
# Bytes that are not UTF-8 (stray, cut short, cut by a space, an encoded
# surrogate) and NUL.
_UNREAD = st.sampled_from(
    [b"\xff", b"\xc3", b"\xf0\x9f", b"\xc3 \xa9", b"\xed\xa0\x80", b"\x00"]
)


@st.composite
def _quote_free_csv(draw):
    """A header 'id,spend', perhaps after a BOM, then pieces of lines with
    no '"' or CR, perhaps no final "\\n", and perhaps one run of bytes that
    are not UTF-8 or a NUL."""
    pieces = draw(st.lists(_PIECES, max_size=40))
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(pieces)))
        pieces.insert(at, draw(_UNREAD))
    head = draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + b"id,spend"
    return head + (b"\n" + b"".join(pieces) if pieces or draw(st.booleans()) else b"")


@settings(max_examples=200, deadline=None)
@given(data=_quote_free_csv(), block=st.sampled_from([1, 2, 3, 5, 8]))
def test_count_from_bytes_matches_streaming_reference(tmp_path_factory, data, block):
    path = tmp_path_factory.getbasetemp() / "bytes.csv"
    path.write_bytes(data)
    spec = _spec(path, AggregateKind.COUNT)
    fallbacks = []
    real = query._c_read

    def c_read(*args):
        fallbacks.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        # blocks of a few bytes, so that lines and characters cross edges
        mp.setattr(query, "_COUNT_BLOCK", block)
        mp.setattr(query, "_c_read", c_read)
        read = _outcome(_read_column, spec)
        # The header read decodes the first 8 KiB, so in a file this small
        # bytes that are not UTF-8 fail there; the counter is asked alone.
        with open(path, "rb") as fh:
            counted = query._count_rows(fh.fileno(), os.fstat(fh.fileno()), 1)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        assert counted is None
        # `brute_read_column` lets the decoder's error out; the route
        # without the byte count names the line
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(query, "_count_rows", lambda *args: None)
            assert read == _outcome(_read_column, spec)
        assert read[0] is DomainError and read[1].endswith("not UTF-8")
        return
    assert read == _outcome(brute_read_column, spec)
    # the byte count, not a fallback, answers every clean file
    clean = b"\0" not in data
    assert counted == (read[0] if clean else None)
    assert type(read[0]) is int
    assert bool(fallbacks) is not clean
