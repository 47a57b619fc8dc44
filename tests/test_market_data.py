"""Ingestion, validation, and alignment tests."""

from datetime import date

import numpy as np
import pytest

from rebal.errors import AlignmentError, ParseError, ValidationError, WindowError
from rebal.market_data import (
    PriceSeries,
    align_panel,
    clip_panel,
    load_price_series,
    load_sector_manifest,
)

from conftest import trading_days


def write_csv(path, rows, header="date,ticker,adj_close"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def make_series(ticker, days, prices=None):
    if prices is None:
        prices = [100.0 + i for i in range(len(days))]
    return PriceSeries(ticker, tuple(days), prices)


class TestLoadPriceSeries:
    def test_minimal_two_row_file(self, tmp_path):
        path = write_csv(tmp_path / "a.csv",
                         ["2021-01-04,AAA,100.0", "2021-01-05,AAA,101.0"])
        series = load_price_series(path, "AAA")
        assert len(series) == 2
        assert series.dates == (date(2021, 1, 4), date(2021, 1, 5))
        assert series.prices.tolist() == [100.0, 101.0]

    def test_negative_price_names_offending_line(self, tmp_path):
        path = write_csv(tmp_path / "a.csv",
                         ["2021-01-04,AAA,100.0", "2021-01-05,AAA,-5.0"])
        with pytest.raises(ValidationError, match=r"a\.csv:3"):
            load_price_series(path, "AAA")

    def test_unsorted_rows_load_identically_to_sorted(self, tmp_path):
        rows = ["2021-01-04,AAA,100.0", "2021-01-05,AAA,101.0", "2021-01-06,AAA,99.5"]
        sorted_path = write_csv(tmp_path / "sorted.csv", rows)
        shuffled_path = write_csv(tmp_path / "shuffled.csv", [rows[2], rows[0], rows[1]])
        a = load_price_series(sorted_path, "AAA")
        b = load_price_series(shuffled_path, "AAA")
        assert a == b
        bench = make_series("BENCH", a.dates)
        assert align_panel([a], bench) == align_panel([b], bench)

    def test_duplicate_date_rejected(self, tmp_path):
        path = write_csv(tmp_path / "a.csv",
                         ["2021-01-04,AAA,100.0", "2021-01-04,AAA,100.5"])
        with pytest.raises(ValidationError, match="duplicate date"):
            load_price_series(path, "AAA")

    def test_malformed_rows_report_line_numbers(self, tmp_path):
        bad_date = write_csv(tmp_path / "d.csv",
                             ["2021-01-04,AAA,100.0", "not-a-date,AAA,101.0"])
        with pytest.raises(ParseError, match=r"d\.csv:3"):
            load_price_series(bad_date, "AAA")
        bad_price = write_csv(tmp_path / "p.csv",
                              ["2021-01-04,AAA,abc", "2021-01-05,AAA,101.0"])
        with pytest.raises(ParseError, match=r"p\.csv:2"):
            load_price_series(bad_price, "AAA")
        bad_cols = write_csv(tmp_path / "c.csv",
                             ["2021-01-04,AAA,100.0,extra", "2021-01-05,AAA,101.0"])
        with pytest.raises(ParseError, match=r"c\.csv:2"):
            load_price_series(bad_cols, "AAA")

    def test_bad_header_rejected(self, tmp_path):
        path = write_csv(tmp_path / "h.csv", ["2021-01-04,AAA,100.0"],
                         header="day,symbol,close")
        with pytest.raises(ParseError, match="header"):
            load_price_series(path, "AAA")

    def test_long_format_filters_by_ticker(self, tmp_path):
        path = write_csv(tmp_path / "prices.csv", [
            "2021-01-04,AAA,100.0",
            "2021-01-04,BBB,50.0",
            "2021-01-05,AAA,101.0",
            "2021-01-05,BBB,51.0",
        ])
        a = load_price_series(path, "AAA")
        b = load_price_series(path, "BBB")
        assert a.prices.tolist() == [100.0, 101.0]
        assert b.prices.tolist() == [50.0, 51.0]

    def test_unknown_ticker_rejected(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["2021-01-04,AAA,100.0"])
        with pytest.raises(ValidationError, match="ZZZ"):
            load_price_series(path, "ZZZ")

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(
            b"date,ticker,adj_close\r\n2021-01-04,AAA,100.0\r\n2021-01-05,AAA,101.0\r\n"
        )
        assert len(load_price_series(path, "AAA")) == 2

    def test_single_observation_rejected(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["2021-01-04,AAA,100.0"])
        with pytest.raises(ValidationError, match="at least 2"):
            load_price_series(path, "AAA")


class TestOnePassParsing:
    """Long-format files are parsed once per run; errors stay per ticker."""

    LONG = [
        "2021-01-04,AAA,100.0",
        "2021-01-04,BBB,50.0",
        "2021-01-05,AAA,101.0",
        "2021-01-05,BBB,51.0",
        "2021-01-05,ZZZ,-1.0",
        "2021-01-06,ZZZ,7.0",
    ]

    def test_multi_ticker_file_opened_once(self, tmp_path, monkeypatch):
        path = write_csv(tmp_path / "prices.csv", self.LONG)
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr("rebal.market_data.open", counting_open, raising=False)
        parsed = {}
        a = load_price_series(path, "AAA", parsed=parsed)
        b = load_price_series(path, "BBB", parsed=parsed)
        assert load_price_series(path, "AAA", parsed=parsed) is a
        with pytest.raises(ValidationError):
            load_price_series(path, "ZZZ", parsed=parsed)
        assert opened == [path]
        assert a == load_price_series(path, "AAA")
        assert b.prices.tolist() == [50.0, 51.0]

    def test_single_ticker_file_not_kept(self, tmp_path):
        path = write_csv(tmp_path / "AAA.csv",
                         ["2021-01-04,AAA,100.0", "2021-01-05,AAA,101.0"])
        parsed = {}
        assert len(load_price_series(path, "AAA", parsed=parsed)) == 2
        assert parsed == {}

    def test_bad_row_fails_only_its_ticker(self, tmp_path):
        path = write_csv(tmp_path / "prices.csv", self.LONG)
        parsed = {}
        with pytest.raises(ValidationError, match=r"prices\.csv:6: .*ZZZ"):
            load_price_series(path, "ZZZ", parsed=parsed)
        assert load_price_series(path, "AAA", parsed=parsed).prices.tolist() == [100.0, 101.0]
        assert load_price_series(path, "BBB", parsed=parsed).prices.tolist() == [50.0, 51.0]

    def test_errors_rank_by_line_then_after_the_pass(self, tmp_path):
        path = write_csv(tmp_path / "prices.csv", [
            "2021-01-04,AAA,100.0",
            "2021-01-04,BBB,50.0",
            "2021-01-04,ONE,9.0",
            "2021-01-05,AAA,-1.0",          # line 5: AAA's own bad row
            "2021-01-05,BBB,51.0",
            "2021-01-06,BBB,52.0,extra",    # line 7: ragged row
            "2021-01-07,BBB,53.0",
        ])
        parsed = {}
        with pytest.raises(ValidationError, match=r"prices\.csv:5: .*AAA"):
            load_price_series(path, "AAA", parsed=parsed)
        for ticker in ("BBB", "ONE", "MISSING"):
            # fewer than 2 observations and "no rows" rank after the ragged row
            with pytest.raises(ParseError, match=r"prices\.csv:7: expected 3 columns"):
                load_price_series(path, ticker, parsed=parsed)

    def test_bad_header_fails_every_ticker(self, tmp_path):
        path = write_csv(tmp_path / "prices.csv", self.LONG, header="day,symbol,close")
        parsed = {}
        for ticker in ("AAA", "BBB"):
            with pytest.raises(ParseError, match=r"prices\.csv:1: bad header"):
                load_price_series(path, ticker, parsed=parsed)

    def test_dates_shared_across_files(self, tmp_path):
        rows = ["2021-01-04,AAA,100.0", "2021-01-05,AAA,101.0"]
        a = load_price_series(write_csv(tmp_path / "a.csv", rows), "AAA")
        b = load_price_series(write_csv(tmp_path / "b.csv", rows), "AAA")
        assert all(x is y for x, y in zip(a.dates, b.dates))


class TestSectorManifest:
    def test_valid_manifest(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"sector": "auto", "tickers": ["A", "B"], "benchmark": "IX"}')
        manifest = load_sector_manifest(path)
        assert manifest.sector == "auto"
        assert manifest.tickers == ("A", "B")
        assert manifest.benchmark == "IX"

    @pytest.mark.parametrize("payload,match", [
        ('{"sector": "x", "tickers": [], "benchmark": "IX"}', "empty"),
        ('{"sector": "x", "tickers": ["A", "A"], "benchmark": "IX"}', "duplicate"),
        ('{"sector": "x", "tickers": ["A", "IX"], "benchmark": "IX"}', "constituent"),
    ])
    def test_invariant_violations(self, tmp_path, payload, match):
        path = tmp_path / "m.json"
        path.write_text(payload)
        with pytest.raises(ValidationError, match=match):
            load_sector_manifest(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"sector": "x"}')
        with pytest.raises(ParseError, match="missing keys"):
            load_sector_manifest(path)


class TestAlignPanel:
    def test_identical_dates_identity(self):
        days = trading_days(5)
        a = make_series("AAA", days)
        b = make_series("BBB", days)
        bench = make_series("IX", days)
        panel = align_panel([a, b], bench)
        assert panel.calendar == days
        assert panel.tickers == ("AAA", "BBB")
        np.testing.assert_array_equal(panel.columns["AAA"], a.prices)

    def test_intersection_by_hand(self):
        d1, d2, d3, d4 = (date(2021, 3, 1), date(2021, 3, 2),
                          date(2021, 3, 3), date(2021, 3, 4))
        a = make_series("AAA", [d1, d2, d3], [10.0, 11.0, 12.0])
        b = make_series("BBB", [d2, d3, d4], [20.0, 21.0, 22.0])
        bench = make_series("IX", [d1, d2, d3, d4], [1.0, 2.0, 3.0, 4.0])
        panel = align_panel([a, b], bench)
        assert panel.calendar == (d2, d3)
        assert panel.columns["AAA"].tolist() == [11.0, 12.0]
        assert panel.columns["BBB"].tolist() == [20.0, 21.0]
        assert panel.benchmark.tolist() == [2.0, 3.0]

    def test_zero_shared_dates_names_offender(self):
        days = trading_days(6)
        a = make_series("AAA", days[:3])
        b = make_series("BBB", days[3:])
        bench = make_series("IX", days)
        with pytest.raises(AlignmentError) as exc:
            align_panel([a, b], bench)
        # removing either constituent would restore the overlap
        assert "AAA" in str(exc.value) and "BBB" in str(exc.value)

    def test_order_insensitive(self, rng):
        days = trading_days(30)
        names = ["T1", "T2", "T3", "T4"]
        series = []
        for name in names:
            keep = sorted(rng.choice(30, size=20, replace=False))
            series.append(make_series(name, [days[i] for i in keep],
                                      rng.uniform(10, 500, size=20).tolist()))
        bench = make_series("IX", days)
        base = align_panel(series, bench)
        for perm_seed in range(4):
            perm = np.random.default_rng(perm_seed).permutation(len(series))
            assert align_panel([series[i] for i in perm], bench) == base

    def test_random_gapped_calendars_preserve_invariants(self):
        rng = np.random.default_rng(42)
        days = trading_days(120)
        for trial in range(50):
            n_series = int(rng.integers(1, 6))
            series = []
            for k in range(n_series):
                size = int(rng.integers(40, 120))
                keep = sorted(rng.choice(120, size=size, replace=False))
                series.append(make_series(
                    f"T{k}", [days[i] for i in keep],
                    rng.uniform(1, 1000, size=size).tolist()))
            keep = sorted(rng.choice(120, size=int(rng.integers(40, 120)), replace=False))
            bench = make_series("IX", [days[i] for i in keep],
                                rng.uniform(1, 1000, size=len(keep)).tolist())
            try:
                panel = align_panel(series, bench)
            except AlignmentError:
                continue
            n = len(panel.calendar)
            assert n >= 2
            assert all(x < y for x, y in zip(panel.calendar, panel.calendar[1:]))
            assert all(len(panel.columns[t]) == n for t in panel.tickers)
            assert len(panel.benchmark) == n
            shared = set.intersection(*(set(s.dates) for s in series + [bench]))
            assert set(panel.calendar) == shared

    def test_duplicate_tickers_rejected(self):
        days = trading_days(4)
        with pytest.raises(ValidationError, match="duplicate"):
            align_panel([make_series("A", days), make_series("A", days)],
                        make_series("IX", days))


class TestClipPanel:
    def make_panel(self, n=10):
        days = trading_days(n)
        return align_panel(
            [make_series("AAA", days), make_series("BBB", days)],
            make_series("IX", days),
        )

    def test_clip_to_own_bounds_is_identity(self):
        panel = self.make_panel()
        assert clip_panel(panel, panel.calendar[0], panel.calendar[-1]) == panel

    def test_clip_ten_days_to_middle_five(self):
        panel = self.make_panel(10)
        clipped = clip_panel(panel, panel.calendar[2], panel.calendar[6])
        assert len(clipped) == 5
        assert clipped.calendar == panel.calendar[2:7]

    def test_degenerate_window_rejected(self):
        panel = self.make_panel()
        with pytest.raises(WindowError):
            clip_panel(panel, panel.calendar[3], panel.calendar[3])

    def test_start_after_end_rejected(self):
        panel = self.make_panel()
        with pytest.raises(WindowError):
            clip_panel(panel, panel.calendar[5], panel.calendar[2])

    def test_clip_is_idempotent(self):
        panel = self.make_panel(10)
        a, b = panel.calendar[2], panel.calendar[7]
        once = clip_panel(panel, a, b)
        assert clip_panel(once, a, b) == once

    def test_panel_arrays_are_immutable(self):
        panel = self.make_panel()
        with pytest.raises(ValueError):
            panel.columns["AAA"][0] = 1.0
        with pytest.raises(ValueError):
            panel.benchmark[0] = 1.0
