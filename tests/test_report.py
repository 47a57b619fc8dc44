"""Serialization and plot-data emission tests."""

import csv
import dataclasses
import json
import math
import re
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebal.errors import ParseError, ValidationError
from rebal.metrics import METRIC_NAMES, MetricConfig, TearSheet, box_plot_summary, tear_sheet
from rebal.portfolio import RebalancePolicy, run_backtest
from rebal.report import (
    CHUNK_CELLS,
    NUMBER,
    ROW_BLOCK,
    _count_cells,
    _fraction_cells,
    emit_plot_data,
    export_tear_sheets,
    read_tear_sheets,
)
from rebal.returns import aggregate, simple_returns
from conftest import daily_series, random_returns, with_weight_cells
from test_portfolio import make_panel

CFG = MetricConfig()


def make_sheet(rng, label, n=120):
    portfolio = daily_series(random_returns(rng, n))
    bench = daily_series(random_returns(rng, n))
    return tear_sheet(portfolio, bench, CFG, label)


def json_sheet(window="x", **metrics):
    """A JSON tear sheet of one entry whose metrics are 0.0 but for ``metrics``."""
    return json.dumps([{"window": window, "metrics": dict.fromkeys(METRIC_NAMES, 0.0) | metrics}])


def written_cells(tmp_path, values):
    """The tear-sheet CSV cells of ``values``, one window each."""
    sheets = [TearSheet(**dict.fromkeys(METRIC_NAMES, float(x)), window_label=f"w{i}")
              for i, x in enumerate(values)]
    path = export_tear_sheets(sheets, tmp_path / "ts.csv")
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1][1:]


class TestNumberFormat:
    """Tear-sheet cells use the plot tables' number format."""

    def test_round_trips_within_1e_9(self, rng, tmp_path):
        values = np.concatenate([
            rng.normal(0, 1, 200),
            rng.normal(0, 1e-6, 50),
            rng.normal(0, 1e6, 50),
            [0.0, 1.0, -1.0, 0.1, 2.0 / 3.0],
        ])
        for x, cell in zip(values, written_cells(tmp_path, values)):
            assert math.isclose(float(cell), float(x), rel_tol=1e-9, abs_tol=1e-15)

    def test_short_values_stay_short(self, tmp_path):
        assert written_cells(tmp_path, [0.1, 0.0, -0.0, -0.5, 2.0]) == \
            ["0.1", "0", "0", "-0.5", "2"]

    def test_edge_values_match_the_shortest_12_digit_form(self, tmp_path):
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                  1e-300, -1e-300, 1.7976931348623157e308, math.nan, math.inf, -math.inf,
                  123456789012345.0, 1.0000000000005]
        assert written_cells(tmp_path, values) == \
            ["0" if x == 0.0 else format(x, ".12g") for x in values]


class TestExportTearSheets:
    def test_csv_one_sheet_has_sixteen_lines(self, rng, tmp_path):
        path = export_tear_sheets([make_sheet(rng, "overall")], tmp_path / "ts.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 16
        assert lines[0] == "metric,overall"

    def test_csv_three_windows_have_four_columns(self, rng, tmp_path):
        sheets = [make_sheet(rng, label)
                  for label in ("in_sample", "out_of_sample", "overall")]
        path = export_tear_sheets(sheets, tmp_path / "ts.csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 4 for row in rows)
        assert rows[0] == ["metric", "in_sample", "out_of_sample", "overall"]
        assert [row[0] for row in rows[1:]] == list(METRIC_NAMES)

    def test_json_round_trip_is_lossless(self, rng, tmp_path):
        zeros = daily_series([0.0] * 20)
        sheets = [
            make_sheet(rng, "noisy"),
            tear_sheet(zeros, zeros, CFG, "flat"),  # carries None markers
        ]
        path = export_tear_sheets(sheets, tmp_path / "ts.json")
        back = read_tear_sheets(path)
        assert back == sheets

    def test_csv_round_trip_preserves_none_markers(self, rng, tmp_path):
        zeros = daily_series([0.0] * 20)
        sheets = [tear_sheet(zeros, zeros, CFG, "flat")]
        path = export_tear_sheets(sheets, tmp_path / "ts.csv")
        back = read_tear_sheets(path)
        assert back[0].sharpe is None
        assert back[0].cumulative_return == 0.0

    def test_csv_reparses_within_1e_9(self, rng, tmp_path):
        sheets = [make_sheet(rng, "w")]
        path = export_tear_sheets(sheets, tmp_path / "ts.csv")
        back = read_tear_sheets(path)[0]
        for name in METRIC_NAMES:
            want = getattr(sheets[0], name)
            got = getattr(back, name)
            if want is None:
                assert got is None
            else:
                assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-15)

    def test_unknown_format_rejected(self, rng, tmp_path):
        for name in ("ts.xml", "ts", "ts.csv.bak"):
            with pytest.raises(ValidationError, match="unknown tear-sheet format"):
                export_tear_sheets([make_sheet(rng, "w")], tmp_path / name)
            assert not (tmp_path / name).exists()
        (tmp_path / "ts.xml").write_text("metric,w\n")
        with pytest.raises(ValidationError, match="unknown tear-sheet format 'xml'"):
            read_tear_sheets(tmp_path / "ts.xml")

    def test_suffix_chooses_the_format(self, rng, tmp_path):
        sheets = [make_sheet(rng, "w")]
        as_json = export_tear_sheets(sheets, tmp_path / "ts.json").read_text()
        as_csv = export_tear_sheets(sheets, tmp_path / "ts.csv").read_text()
        assert as_json.startswith("[") and as_csv.startswith("metric,w\n")
        assert read_tear_sheets(tmp_path / "ts.json") == sheets

    @pytest.mark.parametrize("name, text, line", [
        ("ts.json", '[{"window": "x"}]', None),
        ("ts.json", '{"window": "x"}', None),
        ("ts.json", "not json", 1),
        ("ts.json", '[{"window": "x", "metrics": {"sharpe": "abc"}}]', None),
        ("ts.json", "[1]", None),
        ("ts.json", json_sheet(sharpe=math.nan), None),
        # a JSON value is read as the CSV cell of its JSON text
        ("ts.json", json_sheet(sharpe=True), None),
        ("ts.json", json_sheet(sharpe="0.5"), None),
        ("ts.json", json_sheet(sharpe=10 ** 400), None),
        ("ts.json", json_sheet(sharpe=[1.0]), None),
        ("ts.json", json_sheet(bogus=1.0), None),
        ("ts.json", json_sheet(window=3), None),
        ("ts.json", json_sheet(window=None), None),
        ("ts.json", json.dumps([{"window": "x", "metrics": list(METRIC_NAMES)}]), None),
        ("ts.csv", "metric,w\ncumulative_return,abc\n", 2),
        ("ts.csv", b"metric,w\n\xff\n", None),
        ("ts.csv", "metric,w\ncumulative_return,nan\n", 2),
        ("ts.csv", "metric,w\ncumulative_return,1_0\n", 2),
        ("ts.csv", "metric,w\ncumulative_return,\u0661\n".encode(), 2),
        ("ts.csv", "metric,w\ncumulative_return,1e400\n", 2),
        ("ts.csv", "metric,w\ncumulative_return,0\nsharpe,-inf\n", 3),
        ("ts.csv", "metric,w\ncumulative_return,0\nbogus,1\n", 3),
        ("ts.csv", "metric,w\n" + "".join(f"{n},1\n" for n in METRIC_NAMES) + "alpha,2\n",
         len(METRIC_NAMES) + 2),
        ("ts.csv", "window,w\ncumulative_return,0\n", 1),
        ("ts.csv", "", 1),
        ("ts.csv", "metric,w\ncumulative_return,0,1\n", 2),
        ("ts.csv", "metric,w\ncumulative_return,0\n", None),
        # a header over two lines: an error names the line its row is on, not its record
        ("ts.csv", 'metric,"in\nsample",w\ncumulative_return,0,0\nannual_return,0,0\n'
                   "annual_volatility,0,0\nsharpe,abc,1\n", 6),
    ])
    def test_malformed_file_is_a_parse_error(self, tmp_path, name, text, line):
        path = tmp_path / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(str(path))) as caught:
            read_tear_sheets(path)
        assert caught.value.line == line


def encoded(encode, values):
    """(fast-path mask, text of each fast cell) that ``encode`` writes for ``values``."""
    words = np.zeros(values.shape + (6,), np.uint32)
    fast = encode(values, words)
    return fast, [bytes(cell).replace(b"\0", b"").decode() for cell in words[fast]]


def decade_ties():
    """Doubles whose twelve-digit rounding is an exact tie, the odd multiples
    of 2**-(13 + j) at the decade 10**-(j + 1), with both their neighbours."""
    ties = []
    for j in range(4):
        x = np.arange(1, 2 ** (13 + j), 2) / 2 ** (13 + j)
        ties.append(x[(x >= 10.0 ** -(j + 1)) & (x < 10.0 ** -j)])
    ties = np.concatenate(ties)
    assert all(("%.13g" % x).endswith("5") for x in ties)
    return np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, 1)])


def near_tie(digits, decade):
    """The double nearest the decimal tie of the twelve ``digits`` and a 5 at
    ``decade``; its product with a power of ten can round onto the tie."""
    return float(f"{digits}5e{decade - 12}")


_POWERS = 10.0 ** np.arange(-6, 1)
FRACTION_EDGES = np.concatenate([
    _POWERS, np.nextafter(_POWERS, 0), np.nextafter(_POWERS, 2),
    [0.00099999999999995, 0.0099999999999999995, 0.9999999999995, 0.0999999999999995,
     0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf, math.nan,
     -0.25, -1e-3, 1.0, 2.5, 1e300],
    decade_ties(),
    [near_tie(m, e) for m, e in zip(np.random.default_rng(3).integers(10**11, 10**12, 4000),
                                    [-4, -3, -2, -1] * 1000)],
])
COUNT_EDGES = np.array([0, 1, 9, 10, 99, 100, 9999, 10**4, 10**4 + 1, 10**7, 10**8 - 1,
                        10**8, -1, -(2**63), 2**63 - 1], dtype=np.int64)


class TestCellKernels:
    """The shares and weights kernels write NUMBER % (x + 0.0) and "%d" exactly."""

    def check(self, encode, cell, values):
        fast, text = encoded(encode, values)
        assert text == ["," + cell % (x + 0) for x in values[fast].tolist()]
        return fast

    def test_fraction_edges(self):
        fast = self.check(_fraction_cells, NUMBER, FRACTION_EDGES)
        assert fast[np.isin(FRACTION_EDGES, [0.5, 0.125, 0.1, 0.0001])].all()
        assert not fast[np.isin(FRACTION_EDGES, [0.9999999999995, 1.0, -0.25, 0.0])].any()

    def test_count_edges(self):
        fast = self.check(_count_cells, "%d", COUNT_EDGES)
        assert fast.tolist() == [True] * 11 + [False] * 4

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.one_of(st.floats(1e-7, 1e3), st.floats(-7.0, 3.0).map(lambda e: 10.0 ** e),
                              st.builds(near_tie, st.integers(10**11, 10**12 - 1),
                                        st.integers(-4, -1))),
                    min_size=1, max_size=400),
           st.lists(st.integers(-10, 2 * 10**8), min_size=1, max_size=50))
    def test_matches_the_cell_format(self, floats, ints):
        self.check(_fraction_cells, NUMBER, np.array(floats))
        self.check(_count_cells, "%d", np.array(ints, dtype=np.int64))

    def test_typical_cells_take_the_fast_path(self, rng):
        weights = rng.uniform(1e-4, 1.0, (40, 500))
        assert self.check(_fraction_cells, NUMBER, weights).mean() > 0.99
        assert self.check(_count_cells, "%d", rng.integers(0, 10**8, (40, 500))).all()


def old_emit_plot_data(result, benchmark_cum, split_date, out_dir):
    """Reference writer: every cell formatted on its own, rows through csv.

    Restates the cell-at-a-time emitter, and its number format, so that
    the table-at-a-time writer is judged against bytes it cannot change.
    """
    def fmt(x):
        return "0" if x == 0.0 else format(float(x), ".12g")

    def write(name, header, rows):
        with open(out_dir / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

    out_dir.mkdir(parents=True)
    tickers = list(result.tickers)
    calendar = result.calendar.tolist()
    dates = [day.isoformat() for day in calendar]
    write("shares.csv", ["date"] + tickers,
          zip(dates, *[map(str, row.tolist()) for row in result.shares]))
    write("weights.csv", ["date"] + tickers,
          zip(dates, *[map(fmt, row.tolist()) for row in result.weights]))
    portfolio_cum = result.value / result.value[0] - 1.0
    write("cumulative.csv", ["date", "portfolio_cum", "benchmark_cum", "segment"],
          zip(dates, map(fmt, portfolio_cum.tolist()), map(fmt, benchmark_cum.tolist()),
              ["in_sample" if day < split_date else "out_of_sample"
               for day in calendar]))
    daily = simple_returns(result.calendar, result.value)
    rows = []
    for frequency in ("daily", "weekly", "monthly", "annual"):
        series = daily if frequency == "daily" else aggregate(daily, frequency)
        for stat, value in zip(("min", "q1", "median", "q3", "max"),
                               box_plot_summary(series)):
            rows.append((frequency, stat, fmt(value)))
    write("distributions.csv", ["frequency", "stat", "value"], rows)


class TestEmitPlotData:
    def run_small_backtest(self, rng, n=5, tickers=("A", "B")):
        columns = {
            t: (100.0 * (k + 1) * np.cumprod(1 + rng.normal(0.001, 0.01, n))).tolist()
            for k, t in enumerate(tickers)
        }
        panel = make_panel(columns)
        result = run_backtest(panel, RebalancePolicy("daily"))
        benchmark_cum = panel.benchmark / panel.benchmark[0] - 1.0
        return panel, result, benchmark_cum

    def test_shares_file_shape(self, rng, tmp_path):
        panel, result, bench = self.run_small_backtest(rng)
        manifest = emit_plot_data(result, bench, panel.calendar[2], tmp_path)
        with open(manifest["shares"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["date", "A", "B"]
        assert len(rows) == 6  # header + 5 days
        assert all(len(row) == 3 for row in rows)
        for row in rows[1:]:
            assert float(row[1]).is_integer() and float(row[2]).is_integer()

    def test_manifest_covers_all_four_kinds(self, rng, tmp_path):
        panel, result, bench = self.run_small_backtest(rng)
        manifest = emit_plot_data(result, bench, panel.calendar[2], tmp_path)
        assert sorted(manifest) == ["cumulative", "distributions", "shares", "weights"]
        for path in manifest.values():
            assert path.is_file()

    def test_segment_changes_exactly_at_split(self, rng, tmp_path):
        panel, result, bench = self.run_small_backtest(rng, n=40)
        split = panel.calendar[25]
        manifest = emit_plot_data(result, bench, split, tmp_path)
        with open(manifest["cumulative"], newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        for row in rows:
            day = date.fromisoformat(row[0])
            expected = "in_sample" if day < split else "out_of_sample"
            assert row[3] == expected

    def test_weights_rows_sum_to_one_minus_cash_fraction(self, rng, tmp_path):
        panel, result, bench = self.run_small_backtest(rng, n=30)
        manifest = emit_plot_data(result, bench, panel.calendar[10], tmp_path)
        with open(manifest["weights"], newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        for i, row in enumerate(rows):
            total = sum(float(c) for c in row[1:])
            cash_fraction = result.cash[i] / result.value[i]
            assert math.isclose(total, 1.0 - cash_fraction, rel_tol=1e-9, abs_tol=1e-12)

    def test_distribution_file_covers_all_frequencies(self, rng, tmp_path):
        panel, result, bench = self.run_small_backtest(rng, n=40)
        manifest = emit_plot_data(result, bench, panel.calendar[10], tmp_path)
        with open(manifest["distributions"], newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        freqs = {row[0] for row in rows}
        assert freqs == {"daily", "weekly", "monthly", "annual"}
        stats = {row[1] for row in rows}
        assert stats == {"min", "q1", "median", "q3", "max"}

    def test_cumulative_column_reparses_to_values(self, rng, tmp_path):
        panel, result, bench = self.run_small_backtest(rng, n=25)
        manifest = emit_plot_data(result, bench, panel.calendar[10], tmp_path)
        with open(manifest["cumulative"], newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        for i, row in enumerate(rows):
            want = result.value[i] / result.value[0] - 1.0
            assert math.isclose(float(row[1]), want, rel_tol=1e-9, abs_tol=1e-12)
            assert math.isclose(float(row[2]), bench[i], rel_tol=1e-9, abs_tol=1e-12)

    def test_byte_identical_re_emission(self, rng, tmp_path):
        panel, result, bench = self.run_small_backtest(rng, n=30)
        first = emit_plot_data(result, bench, panel.calendar[10], tmp_path / "one")
        second = emit_plot_data(result, bench, panel.calendar[10], tmp_path / "two")
        for kind in first:
            assert first[kind].read_bytes() == second[kind].read_bytes()

    def test_bytes_match_cell_at_a_time_writer(self, rng, tmp_path):
        # names that csv must quote, a ticker too dear to buy (zero shares
        # and weights), and a -0.0 cell that must print as 0
        def walk(start, n=300):
            return (start * np.cumprod(1 + rng.normal(0.0005, 0.02, n))).tolist()

        panel = make_panel({"A": walk(50.0), "BRK,B": walk(300.0),
                            'Q"T': walk(7.5), "ZZ": walk(1e7)})
        result = run_backtest(panel, RebalancePolicy("monthly"))
        assert not result.shares[result.tickers.index("ZZ")].any()
        bench = panel.benchmark / panel.benchmark[0] - 1.0
        bench[7] = -0.0
        split = panel.calendar[120].item()
        manifest = emit_plot_data(result, bench, split, tmp_path / "new")
        old_emit_plot_data(result, bench, split, tmp_path / "old")
        header = manifest["shares"].read_text().splitlines()[0]
        assert header == 'date,A,"BRK,B","Q""T",ZZ'
        for kind, path in manifest.items():
            assert path.read_bytes() == (tmp_path / "old" / path.name).read_bytes(), kind

    @pytest.mark.parametrize("days", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                                      2 * ROW_BLOCK + 1])
    def test_bytes_match_across_row_blocks(self, rng, tmp_path, days):
        panel, result, bench = self.run_small_backtest(rng, n=days, tickers=("A", "B", "C"))
        result = with_weight_cells(result, [(1, -1, -0.0)])  # in the last block: must print as 0
        split = panel.calendar[days // 2].item()
        manifest = emit_plot_data(result, bench, split, tmp_path / "new")
        old_emit_plot_data(result, bench, split, tmp_path / "old")
        for kind, path in manifest.items():
            assert path.read_bytes() == (tmp_path / "old" / path.name).read_bytes(), kind

    @pytest.mark.parametrize("n_tickers, days", [(5, 300), (100, 250)])
    def test_bytes_match_across_chunks(self, rng, tmp_path, n_tickers, days):
        # chunks of ROW_BLOCK days (5 tickers) or of CHUNK_CELLS cells (100),
        # with cells off the fast paths at chunk edges: -0.0, 1, a weight
        # that rounds to 1, nan, a subnormal, share counts past 10**8 and
        # below 0
        tickers = tuple(f"T{i:03d}" for i in range(n_tickers))
        panel, result, bench = self.run_small_backtest(rng, n=days, tickers=tickers)
        step = min(ROW_BLOCK, CHUNK_CELLS // n_tickers)
        assert days > 2 * step + 1
        cells = [(0, step - 1), (1, step), (2, 2 * step), (3, 2 * step + 1), (4, days - 1), (0, 0)]
        shares = result.shares.copy()
        for (i, day), n in zip(cells, [10**8, -1, 2**63 - 1, 0, 10**8 - 1, 10**9]):
            shares[i, day] = n
        result = with_weight_cells(dataclasses.replace(result, shares=shares), [
            (i, day, w) for (i, day), w in zip(cells, [-0.0, 1.0, 0.99999999999999, math.nan,
                                                      5e-324, 0.5])])
        split = panel.calendar[days // 3].item()
        manifest = emit_plot_data(result, bench, split, tmp_path / "new")
        old_emit_plot_data(result, bench, split, tmp_path / "old")
        for kind, path in manifest.items():
            assert path.read_bytes() == (tmp_path / "old" / path.name).read_bytes(), kind

    def test_benchmark_length_mismatch_rejected(self, rng, tmp_path):
        panel, result, bench = self.run_small_backtest(rng)
        with pytest.raises(ValidationError):
            emit_plot_data(result, bench[:-1], panel.calendar[2], tmp_path)
