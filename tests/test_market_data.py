"""Ingestion, validation, and alignment tests."""

import os
import random
import re
import subprocess
import sys
import tracemalloc
from datetime import date

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import parse_oracle
import rebal.market_data
from rebal.errors import AlignmentError, ParseError, RebalError, ValidationError, WindowError
from rebal.market_data import (
    _CELLS,
    PriceCache,
    PricePanel,
    PriceSeries,
    align_panel,
    clip_panel,
    load_price_series,
    load_sector_manifest,
)
from rebal.synthetic import business_days, generate_universe

from conftest import trading_days


def write_csv(path, rows, header="date,ticker,adj_close"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def make_series(ticker, days, prices=None):
    if prices is None:
        prices = [100.0 + i for i in range(len(days))]
    return PriceSeries(ticker, days, prices)


class TestLoadPriceSeries:
    def test_minimal_two_row_file(self, tmp_path):
        path = write_csv(tmp_path / "a.csv",
                         ["2021-01-04,AAA,100.0", "2021-01-05,AAA,101.0"])
        series = load_price_series(path, "AAA")
        assert len(series) == 2
        assert series.dates.tolist() == [date(2021, 1, 4), date(2021, 1, 5)]
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

    def test_out_of_order_dates_name_the_first_bad_day(self):
        # datetime64 days print as date.isoformat() does, years below 1000 too
        days = np.array(["0999-01-02", "0999-01-03", "0999-01-01"], dtype="datetime64[D]")
        with pytest.raises(ValidationError,
                           match="^AAA: dates not strictly increasing at 0999-01-01$"):
            PriceSeries("AAA", days, [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError,
                           match="^panel calendar not strictly increasing at 0999-01-03$"):
            PricePanel(days[[0, 1, 1]], ("AAA",), [[1.0, 2.0, 3.0]], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("build, error, message", [
        (lambda d: PriceSeries("AAA", d, [1.0, 2.0]), ValidationError,
         "AAA: 3 dates vs 2 prices"),
        (lambda d: PriceSeries("AAA", d, [1.0, 0.0, 2.0]), ValidationError,
         "AAA: prices must be positive and finite"),
        (lambda d: PricePanel(d[:1], ("AAA",), [[1.0]], [1.0]), ValidationError,
         "panel calendar too short (1 days)"),
        (lambda d: PricePanel(d, ("BBB", "AAA"), [[1.0] * 3] * 2, [1.0] * 3), ValidationError,
         "panel tickers are not sorted"),
        (lambda d: PricePanel(d[:2], ("AAA",), [[1.0] * 3], [1.0] * 2), ValidationError,
         "prices shape (1, 3) != (1, 2)"),
        (lambda d: PricePanel(d, ("AAA", "BBB"), [[1.0] * 3, [1.0, -1.0, 1.0]], [1.0] * 3),
         ValidationError, "'BBB' has non-positive prices"),
        (lambda d: PricePanel(d, ("AAA",), [[1.0] * 3], [1.0] * 2), ValidationError,
         "benchmark length does not match calendar"),
        (lambda d: PricePanel(d, ("AAA",), [[1.0] * 3], [1.0, np.nan, 1.0]), ValidationError,
         "benchmark has non-positive prices"),
        (lambda d: align_panel([], PriceSeries("IX", d, [1.0] * 3)), AlignmentError,
         "no price series to align"),
    ], ids=["series length", "series price", "short calendar", "unsorted tickers",
            "prices shape", "panel price", "benchmark length", "benchmark price", "no series"])
    def test_constructors_check_their_invariants(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build(trading_days(3))

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

    @pytest.mark.parametrize("text, message", [
        ("day,symbol,close\n2021-01-04,AAA,100.0\n",
         "bad header ['day', 'symbol', 'close'], expected date,ticker,adj_close"),
        ("", "empty file, expected header date,ticker,adj_close"),
    ])
    def test_bad_header_rejected(self, tmp_path, text, message):
        path = tmp_path / "h.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(f"h.csv:1: {message}")):
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

    def test_header_only_file_in_a_fresh_process(self, tmp_path):
        # the first file a process reads has no rows: nothing is cached yet
        path = write_csv(tmp_path / "a.csv", [])
        code = ("import sys; from rebal.market_data import load_price_series\n"
                "try:\n    load_price_series(sys.argv[1], 'AAA')\n"
                "except Exception as exc:\n    print(type(exc).__name__, exc)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.startswith("ValidationError") and "no rows for ticker 'AAA'" in out

    def test_single_observation_rejected(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["2021-01-04,AAA,100.0"])
        with pytest.raises(ValidationError, match="at least 2"):
            load_price_series(path, "AAA")

    @pytest.mark.parametrize("row, match", [
        # date.fromisoformat takes these two from Python 3.11 on
        ("20210105,AAA,101.0", "bad date '20210105'"),
        ("2021-W01-2,AAA,101.0", "bad date '2021-W01-2'"),
        # float() takes these two, numpy does not
        ("2021-01-05,AAA,1_000.5", "bad price '1_000.5'"),
        ("2021-01-05,AAA,\u0661\u0662\u0663", "bad price '\u0661\u0662\u0663'"),
    ])
    def test_only_iso_days_and_ascii_decimals(self, tmp_path, row, match):
        path = write_csv(tmp_path / "a.csv", ["2021-01-04,AAA,100.0", row])
        with pytest.raises(ParseError, match=re.escape(f"a.csv:3: {match}")):
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

    def test_errors_name_the_line_their_row_starts_on(self, tmp_path):
        # the row on lines 2-3 is record 2, so the row on line 4 is record 3
        path = tmp_path / "prices.csv"
        path.write_bytes(b'date,ticker,adj_close\n2021-01-04,"A\nB",-1\n2021-01-05,AAA,-1\n')
        parsed = {}
        with pytest.raises(ValidationError, match=r"prices\.csv:4: non-positive price -1 for AAA"):
            load_price_series(path, "AAA", parsed=parsed)
        with pytest.raises(ValidationError, match=r"prices\.csv:2: non-positive price -1 for A"):
            load_price_series(path, "A\nB", parsed=parsed)

    def test_bad_header_fails_every_ticker(self, tmp_path):
        path = write_csv(tmp_path / "prices.csv", self.LONG, header="day,symbol,close")
        parsed = {}
        for ticker in ("AAA", "BBB"):
            with pytest.raises(ParseError, match=r"prices\.csv:1: bad header"):
                load_price_series(path, ticker, parsed=parsed)


# Cells the generated price files draw from, good ones weighted up so that
# most tickers keep a series.  Bad dates and prices cover every kind the row
# parser rejected; tickers include non-ASCII names, names that need quoting
# and one longer than any fixed-width field of the whole-file read.
_DATES = [str(date(2021, 1, 1).fromordinal(date(2021, 1, 1).toordinal() + k))
          for k in range(60)] + ["2020-02-29", "2000-02-29", "0001-01-01", "9999-12-31"] + [
    "2021-02-30", "2021-13-01", "2021-00-10", "2021-04-31", "1900-02-29", "0000-01-01",
    "20210104", "2021-W01-2", "2021-1-4", "2021-01-04T00:00", "", "not-a-date",
    "2021-01-0\uff14",
]
_TICKERS = ["AAA", "BBB", "\u00c4\u00d6\u00dc", "\u682a\u5f0f", "A,B", 'Q"T', "", "X" * 40]
_CLEAN_PRICES = ["100.5", "7", "1e3", ".5", "2.", "+3.25", "1E-3", "98765432109876543210"]
_PRICES = _CLEAN_PRICES * 3 + [
    "0", "-5", "-0", "nan", "inf", "-inf", "1e400", "1_000.5", "\u0661\u0662\u0663",
    "abc", "", "0x10", "1e",
]


@st.composite
def price_files(draw):
    """Bytes of a price CSV: clean ASCII files that the whole-file read takes,
    or files with every kind of fault the row parser knew.

    Hypothesis draws each row's cells; a seeded Random drawn with them lays
    out padding, quoting, blank and ragged rows, line ends and stray bytes.
    """
    clean = draw(st.booleans())
    tickers = ["AAA", "BBB"] * 4 + (_TICKERS[4:7] if clean else _TICKERS)
    rows = draw(st.lists(st.tuples(st.sampled_from(_DATES), st.sampled_from(tickers),
                                   st.sampled_from(_CLEAN_PRICES if clean else _PRICES)),
                         min_size=4, max_size=20))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    pads = [""] * 4 + [" ", "\t", "  "] + ([] if clean else ["\u00a0", "\u3000"])
    ends = [b"\n", b"\r\n"] if clean else [b"\n", b"\r\n", b"\r"]

    def cell(text):
        text = rnd.choice(pads) + text + rnd.choice(pads)
        if rnd.random() < 0.2 or (clean and ("," in text or '"' in text)):
            text = '"' + text.replace('"', '""') + '"'
        raw = text.encode("utf-8")
        if not clean and rnd.random() < 0.03:
            raw = rnd.choice([b"\xff\xfe", raw + b"\x85", raw + b"\0", b"\xc3"])
        return raw

    lines = [b"date,ticker,adj_close"]
    for row in rows:
        if not clean and rnd.random() < 0.05:
            lines.append(rnd.choice([b"", b" ", b"\t"]))
        cells = [cell(text) for text in row]
        if not clean and rnd.random() < 0.04:
            cells = cells[:2] if rnd.random() < 0.5 else cells + [cell("extra")]
        lines.append(b",".join(cells))
    end = rnd.choice(ends)
    body = b"".join(line + (end if clean else rnd.choice(ends)) for line in lines)
    return body if rnd.random() < 0.5 else body.rstrip(b"\r\n")


def _outcome(load, path, ticker, parsed):
    try:
        series = load(path, ticker, parsed=parsed)
    except RebalError as exc:
        return type(exc), str(exc)
    return series.ticker, series.dates.tolist(), series.prices.tolist()


class TestMatchesRowParser:
    """The whole-file parse gives what the csv-module row loop in
    ``tests/parse_oracle.py`` gives: the same series, or the same error."""

    @staticmethod
    def assert_same(path, tickers):
        # a one-ticker file is parsed again for each ticker, the second time
        # on the date column the first parse left in the cache
        ours, theirs = PriceCache(), {}
        for ticker in tickers:
            assert (_outcome(load_price_series, path, ticker, ours)
                    == _outcome(parse_oracle.load_price_series, path, ticker, theirs))

    @settings(max_examples=200, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=price_files())
    def test_generated_files(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "generated.csv"
        path.write_bytes(data)
        self.assert_same(path, [*_TICKERS, "MISSING"])

    @pytest.mark.parametrize("quoted_break", [False, True])
    def test_long_file_split_in_blocks(self, tmp_path, quoted_break):
        # Over 128 KiB, lines reach np.loadtxt 64 KiB at a time; put a line
        # break inside quotes across the first block boundary.
        day0 = date(2000, 1, 1).toordinal()
        rows = [f"{date.fromordinal(day0 + k)},T{k % 7},{k + 1}.5" for k in range(9000)]
        if quoted_break:
            start = 0
            r = next(r for r, row in enumerate(rows) if (start := start + len(row) + 1) > 1 << 16)
            start -= len(rows[r]) + 1
            rows[r] = f'{rows[r][:10]},"Q{"x" * (1 + (1 << 16) - start - 14)}\nQ",1.5'
        path = tmp_path / "prices.csv"
        path.write_text("date,ticker,adj_close\n" + "\n".join(rows) + "\n", encoding="utf-8")
        self.assert_same(path, [f"T{k}" for k in range(7)] + ["MISSING"])

    @pytest.mark.parametrize("body", [
        b"2021-01-04,AAA,1\n2021-01-05,AAA,2\n",                    # clean
        b"2021-01-04,AAA,1\n\n2021-01-05,AAA,2\n \n",               # blank lines
        b'"2021-01-04","AAA","1"\r\n"2021-01-05","A\nA","2"\r\n',    # quoted line break
        b"2021-01-04,AAA,1\r2021-01-05,AAA,-2\r",                   # lone CR, bad price
        b"2021-01-04,AAA,1\n2021-01-05,AAA,2,3\n2021-01-06,BBB,1\n",  # ragged row
        b"2021-01-04,AAA,1\n2021-01-05,AAA\0,2\n",                  # NUL
        b"2021-01-04,\xff,1\n2021-01-05,AAA,2\n",                   # ticker not UTF-8
        b"2021-01-04,AAA,1\n2021-01-05,AAA,\xff\xfe\n",             # price not UTF-8
        b"2021-01-04,AAA,1\n2021-01-05,\xc2\xa0AAA\xe3\x80\x80,2\n",  # Unicode padding
        b"2021-01-04,AAA,1\n" + b"2021-01-05,AAA," + b"9" * 40 + b"\n",  # over-wide price
        # clean ASCII but for one thing that the array read leaves to the row loop
        b"2021-01-04,AAA,1\n 2021-01-05,AAA,2\n",                   # padded date
        b"2021-01-04,AAA,1\n2021-01-05,BBB,1\n2021-01-04,AAA,2\n",  # repeated day
        b'2021-01-04,AAA,1\n2021-01-05,"AAA",2\n',                  # quoted cell
        b"2021-01-04,AAA,1\n2021-01-05,BBB" + b" " * 13 + b",2\n2021-01-06,BBB,3\n",  # 16 bytes
        b"2021-01-04,BBB,1\n2021-01-05,BBB" + b" " * 13 + b"X,2\n2021-01-06,BBB,3\n",  # cut at 16
        b"2021-01-04,AAA,1\n2021-02-30,AAA,2\n2021-01-05,BBB,1\n",  # bad date
        b"2021-01-04,AAA,1\n0000-01-01,AAA,2\n",                   # year 0, which numpy takes
        b'2021-01-04,"A\nB",1\n2021-01-05,AAA,-1\n',                # bad row after a break
    ])
    def test_edge_files(self, tmp_path, body):
        path = tmp_path / "prices.csv"
        path.write_bytes(b"date,ticker,adj_close\n" + body)
        self.assert_same(path, ["AAA", "BBB", "A\nA", "MISSING"])


def test_synthetic_files_take_the_array_read(tmp_path, monkeypatch):
    """Price files as ``rebal.synthetic`` writes them, per ticker or merged
    into one date-interleaved prices.csv, never reach the row loop."""
    data_dir, _ = generate_universe(tmp_path, start=date(2021, 1, 4), end=date(2021, 6, 30),
                                   n_sectors=2, tickers_per_sector=3, seed=5)
    tickers = sorted(path.stem for path in data_dir.glob("*.csv"))
    rows = [row for t in tickers for row in (data_dir / f"{t}.csv").read_text().splitlines()[1:]]
    long_format = tmp_path / "prices.csv"
    write_csv(long_format, sorted(rows, key=lambda row: row[:10]))

    def row_loop(text, path):
        raise AssertionError(f"{path} went to the row loop")

    monkeypatch.setattr(rebal.market_data, "_read_rows", row_loop)
    parsed = {}
    for ticker in tickers:
        series = load_price_series(data_dir / f"{ticker}.csv", ticker)
        assert len(series) == len(business_days(date(2021, 1, 4), date(2021, 6, 30)))
        assert load_price_series(long_format, ticker, parsed=parsed) == series


class TestSharedCalendar:
    """A series on the days the run's PriceCache last decoded takes that array."""

    DAYS = ["2021-01-04", "2021-01-05", "2021-01-06", "2021-01-07"]

    def rows(self, ticker, days=DAYS):
        return [f"{day},{ticker},{100 + i}" for i, day in enumerate(days)]

    def test_per_ticker_files_on_one_calendar(self, tmp_path):
        rows = {t: self.rows(t) for t in ("AAA", "BBB", "REV", "GAP", "DDD")}
        rows["REV"].reverse()  # rows in any order
        del rows["GAP"][1]
        cache = PriceCache()
        series = [load_price_series(write_csv(tmp_path / f"{ticker}.csv", body), ticker,
                                    parsed=cache) for ticker, body in rows.items()]
        first, same, reverse, gap, after = series
        assert same.dates is first.dates and not first.dates.flags.writeable
        # the cache keeps cells in file order, so a file out of order shares none
        assert reverse.dates is not first.dates and np.array_equal(reverse.dates, first.dates)
        assert gap.dates is not first.dates and len(gap) == 3
        assert after.dates is not gap.dates and np.array_equal(after.dates, first.dates)

    @pytest.mark.parametrize("bad", [False, True])
    def test_series_of_one_file_share_their_days(self, tmp_path, bad):
        # a bad price for ZZZ sends the file to the row loop, which shares alike
        rows = self.rows("AAA") + self.rows("BBB") + self.rows("ZZZ")[:2 if bad else 4]
        if bad:
            rows.append("2021-01-06,ZZZ,-1")
        path = write_csv(tmp_path / "prices.csv", sorted(rows))
        parsed = {}
        a, b = (load_price_series(path, t, parsed=parsed) for t in ("AAA", "BBB"))
        assert b.dates is a.dates


class TestDateColumnReuse:
    """A file whose date cells equal the last one-ticker file's takes their
    decode from the run's PriceCache; any other file is decoded anew."""

    @staticmethod
    def rows(ticker, days):
        return [f"{day},{ticker},{100 + i}" for i, day in enumerate(days)]

    @staticmethod
    def days(start, end):
        return [str(day) for day in business_days(start, end)]

    @pytest.fixture
    def decodes(self, monkeypatch):
        """The length of each column ``_iso_days`` decodes, in call order."""
        calls = []
        real = rebal.market_data._iso_days

        def counting(cells):
            calls.append(len(cells))
            return real(cells)

        monkeypatch.setattr(rebal.market_data, "_iso_days", counting)
        return calls

    def test_files_on_one_calendar_decode_once(self, tmp_path, decodes):
        days = self.days(date(2013, 1, 1), date(2013, 3, 29))
        cache = PriceCache()
        for ticker in ("AAA", "BBB", "CCC", "DDD"):
            path = write_csv(tmp_path / f"{ticker}.csv", self.rows(ticker, days))
            assert load_price_series(path, ticker, parsed=cache).dates.tolist() == [
                date.fromisoformat(day) for day in days]
        assert decodes == [len(days)] and cache == {}

    def test_alternating_calendars_decode_at_each_change(self, tmp_path, decodes):
        one = self.days(date(2013, 1, 1), date(2013, 3, 29))
        two = self.days(date(2013, 1, 8), date(2013, 4, 5))  # as many days, a week later
        assert len(one) == len(two)
        cache = PriceCache()
        for k, days in enumerate([one, one, two, two, one, two]):
            path = write_csv(tmp_path / f"T{k}.csv", self.rows(f"T{k}", days))
            assert str(load_price_series(path, f"T{k}", parsed=cache).dates[0]) == days[0]
        assert decodes == [len(one)] * 4

    @pytest.mark.parametrize("last", ["2013-02-21", "2013-02-30"])
    def test_one_byte_off_in_the_last_cell(self, tmp_path, decodes, last):
        # a different valid day, or no day at all: decoded, with what the row
        # parser gives, the same series or the same error on the same line
        days = self.days(date(2013, 1, 1), date(2013, 2, 20))
        cache = PriceCache()
        load_price_series(write_csv(tmp_path / "AAA.csv", self.rows("AAA", days)), "AAA",
                          parsed=cache)
        path = write_csv(tmp_path / "BBB.csv", self.rows("BBB", days[:-1] + [last]))
        ours = _outcome(load_price_series, path, "BBB", cache)
        assert ours == _outcome(parse_oracle.load_price_series, path, "BBB", {})
        if last == "2013-02-21":
            assert ours[1][-1] == date(2013, 2, 21)
        else:
            assert ours == (ParseError, f"{path}:{len(days) + 1}: bad date '2013-02-30'")
        assert decodes == [len(days)] * 2

    def test_no_cache_no_reuse(self, tmp_path, decodes):
        days = self.days(date(2013, 1, 1), date(2013, 1, 31))
        for parsed in (None, {}, {}):
            path = write_csv(tmp_path / "AAA.csv", self.rows("AAA", days))
            load_price_series(path, "AAA", parsed=parsed)
        assert decodes == [len(days)] * 3


def test_long_file_parse_holds_no_row_sized_copies(tmp_path):
    """A date-interleaved file of 30 tickers peaks at about 2.56 times its
    array of cells while it is parsed.  Copying its date column and comparing
    its tickers as a rows x 16 byte matrix took that to 3.36."""
    days = business_days(date(2019, 1, 1), date(2021, 9, 30)).tolist()
    rows = [f"{day},T{k:02d},{100 + k}.25" for day in days for k in range(30)]
    path = write_csv(tmp_path / "prices.csv", rows)
    rebal.market_data._parse_price_file(path, PriceCache())
    tracemalloc.start()
    try:
        parsed = rebal.market_data._parse_price_file(path, PriceCache())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed.error is None and len(parsed.series) == 30
    assert peak < 2.8 * len(rows) * _CELLS.itemsize, peak / (len(rows) * _CELLS.itemsize)


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
        ('{"sector": "x", "tickers": ["../OUTSIDE"], "benchmark": "IX"}', "plain file name"),
        ('{"sector": "x", "tickers": ["A/B"], "benchmark": "IX"}', "plain file name"),
        ('{"sector": "x", "tickers": ["A\\\\B"], "benchmark": "IX"}', "plain file name"),
        ('{"sector": "x", "tickers": [""], "benchmark": "IX"}', "plain file name"),
        ('{"sector": "x", "tickers": ["A"], "benchmark": "."}', "plain file name"),
        ('{"sector": "x", "tickers": ["A"], "benchmark": ".."}', "plain file name"),
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

    @pytest.mark.parametrize("payload,match", [
        ('{"sector": "x", "tickers": ["A", 1], "benchmark": "IX"}', "'tickers' must be a list"),
        ('{"sector": ["x"], "tickers": ["A"], "benchmark": "IX"}', "'sector' must be a string"),
        ('{"sector": "x", "tickers": ["A"], "benchmark": null}', "'benchmark' must be a string"),
        ('{"sector": 7, "tickers": ["A"], "benchmark": 8}', "'sector' must be a string"),
    ])
    def test_names_must_be_json_strings(self, tmp_path, payload, match):
        path = tmp_path / "m.json"
        path.write_text(payload)
        with pytest.raises(ParseError, match=match):
            load_sector_manifest(path)


class TestAlignPanel:
    def test_identical_dates_identity(self):
        days = trading_days(5)
        a = make_series("AAA", days)
        b = make_series("BBB", days)
        bench = make_series("IX", days)
        panel = align_panel([a, b], bench)
        np.testing.assert_array_equal(panel.calendar, days)
        assert panel.tickers == ("AAA", "BBB")
        np.testing.assert_array_equal(panel.prices[0], a.prices)

    def test_intersection_by_hand(self):
        d1, d2, d3, d4 = (date(2021, 3, 1), date(2021, 3, 2),
                          date(2021, 3, 3), date(2021, 3, 4))
        a = make_series("AAA", [d1, d2, d3], [10.0, 11.0, 12.0])
        b = make_series("BBB", [d2, d3, d4], [20.0, 21.0, 22.0])
        bench = make_series("IX", [d1, d2, d3, d4], [1.0, 2.0, 3.0, 4.0])
        panel = align_panel([a, b], bench)
        assert panel.calendar.tolist() == [d2, d3]
        assert panel.prices.tolist() == [[11.0, 12.0], [20.0, 21.0]]  # AAA, BBB
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
            series.append(make_series(name, days[keep],
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
                    f"T{k}", days[keep],
                    rng.uniform(1, 1000, size=size).tolist()))
            keep = sorted(rng.choice(120, size=int(rng.integers(40, 120)), replace=False))
            bench = make_series("IX", days[keep],
                                rng.uniform(1, 1000, size=len(keep)).tolist())
            try:
                panel = align_panel(series, bench)
            except AlignmentError:
                continue
            n = len(panel.calendar)
            assert n >= 2
            assert all(x < y for x, y in zip(panel.calendar, panel.calendar[1:]))
            assert panel.prices.shape == (len(panel.tickers), n)
            assert len(panel.benchmark) == n
            shared = set.intersection(*(set(s.dates.tolist()) for s in series + [bench]))
            assert set(panel.calendar.tolist()) == shared

    def test_duplicate_tickers_rejected(self):
        days = trading_days(4)
        with pytest.raises(ValidationError, match="duplicate"):
            align_panel([make_series("A", days), make_series("A", days)],
                        make_series("IX", days))


    def test_peak_memory_is_about_the_panel(self):
        # 40 tickers over 4000 days, each missing 30 days of its own;
        # concatenating the series and masking a copy peaks near 4x the matrix
        rng = np.random.default_rng(3)
        days = np.datetime64("2010-01-01") + np.arange(4000)
        series = [PriceSeries(f"T{i:02d}", np.delete(days, rng.choice(4000, 30, replace=False)),
                              rng.uniform(10.0, 20.0, 3970)) for i in range(41)]
        tracemalloc.start()
        try:
            panel = align_panel(series[:-1], series[-1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(panel) > 2500
        assert peak < 2 * panel.prices.nbytes, peak / panel.prices.nbytes


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
        np.testing.assert_array_equal(clipped.calendar, panel.calendar[2:7])

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
            panel.prices[0, 0] = 1.0
        with pytest.raises(ValueError):
            panel.calendar[0] = panel.calendar[1]
        with pytest.raises(ValueError):
            panel.benchmark[0] = 1.0
