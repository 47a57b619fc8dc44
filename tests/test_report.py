"""Serialization and plot-data emission tests."""

import csv
import dataclasses
import math
from datetime import date

import numpy as np
import pytest

from rebal.errors import ValidationError
from rebal.metrics import METRIC_NAMES, MetricConfig, box_plot_summary, tear_sheet
from rebal.portfolio import CapitalPlan, RebalancePolicy, run_backtest
from rebal.report import (
    ROW_BLOCK,
    emit_plot_data,
    export_tear_sheets,
    format_number,
    read_tear_sheets,
)
from rebal.returns import aggregate, simple_returns
from conftest import daily_series, random_returns
from test_portfolio import make_panel

CFG = MetricConfig()


def make_sheet(rng, label, n=120):
    portfolio = daily_series(random_returns(rng, n))
    bench = daily_series(random_returns(rng, n))
    return tear_sheet(portfolio, bench, CFG, label)


class TestFormatNumber:
    def test_round_trips_within_1e_9(self, rng):
        values = np.concatenate([
            rng.normal(0, 1, 200),
            rng.normal(0, 1e-6, 50),
            rng.normal(0, 1e6, 50),
            [0.0, 1.0, -1.0, 0.1, 2.0 / 3.0],
        ])
        for x in values:
            back = float(format_number(float(x)))
            assert math.isclose(back, float(x), rel_tol=1e-9, abs_tol=1e-15)

    def test_short_values_stay_short(self):
        assert format_number(0.1) == "0.1"
        assert format_number(0.0) == "0"
        assert format_number(-0.5) == "-0.5"
        assert format_number(2.0) == "2"


class TestExportTearSheets:
    def test_csv_one_sheet_has_sixteen_lines(self, rng, tmp_path):
        path = export_tear_sheets([make_sheet(rng, "overall")],
                                  tmp_path / "ts.csv", "csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 16
        assert lines[0] == "metric,overall"

    def test_csv_three_windows_have_four_columns(self, rng, tmp_path):
        sheets = [make_sheet(rng, label)
                  for label in ("in_sample", "out_of_sample", "overall")]
        path = export_tear_sheets(sheets, tmp_path / "ts.csv", "csv")
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
        path = export_tear_sheets(sheets, tmp_path / "ts.json", "json")
        back = read_tear_sheets(path, "json")
        assert back == sheets

    def test_csv_round_trip_preserves_none_markers(self, rng, tmp_path):
        zeros = daily_series([0.0] * 20)
        sheets = [tear_sheet(zeros, zeros, CFG, "flat")]
        path = export_tear_sheets(sheets, tmp_path / "ts.csv", "csv")
        back = read_tear_sheets(path, "csv")
        assert back[0].sharpe is None
        assert back[0].cumulative_return == 0.0

    def test_csv_reparses_within_1e_9(self, rng, tmp_path):
        sheets = [make_sheet(rng, "w")]
        path = export_tear_sheets(sheets, tmp_path / "ts.csv", "csv")
        back = read_tear_sheets(path, "csv")[0]
        for name in METRIC_NAMES:
            want = getattr(sheets[0], name)
            got = getattr(back, name)
            if want is None:
                assert got is None
            else:
                assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-15)

    def test_unknown_format_rejected(self, rng, tmp_path):
        with pytest.raises(ValidationError):
            export_tear_sheets([make_sheet(rng, "w")], tmp_path / "ts.xml", "xml")


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
        result = run_backtest(panel, CapitalPlan(100_000.0, len(tickers)),
                              RebalancePolicy("daily"))
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
        result = run_backtest(panel, CapitalPlan(100_000.0, 4), RebalancePolicy("monthly"))
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
        weights = result.weights.copy()
        weights[1, -1] = -0.0  # in the last block: must print as 0
        result = dataclasses.replace(result, weights=weights)
        split = panel.calendar[days // 2].item()
        manifest = emit_plot_data(result, bench, split, tmp_path / "new")
        old_emit_plot_data(result, bench, split, tmp_path / "old")
        for kind, path in manifest.items():
            assert path.read_bytes() == (tmp_path / "old" / path.name).read_bytes(), kind

    def test_benchmark_length_mismatch_rejected(self, rng, tmp_path):
        panel, result, bench = self.run_small_backtest(rng)
        with pytest.raises(ValidationError):
            emit_plot_data(result, bench[:-1], panel.calendar[2], tmp_path)
