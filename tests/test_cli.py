"""End-to-end command-line tests on generated synthetic data."""

import ast
import csv
import dataclasses
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rebal.cli
import rebal.market_data
import rebal.report
import rebal.synthetic

from rebal.cli import RunConfig, load_run_config, main, resolve_price_file
from rebal.errors import ConfigError, ParseError
from rebal.market_data import PricePanel
from rebal.metrics import METRIC_NAMES, MetricConfig, tear_sheet
from rebal.portfolio import RebalancePolicy, run_backtest
from rebal.report import ROW_BLOCK, emit_plot_data, export_tear_sheets
from rebal.returns import simple_returns
from rebal.synthetic import generate_universe
from conftest import with_weight_cells


def write_config(root, data_dir, manifests, **overrides):
    payload = {
        "data_dir": str(data_dir),
        "manifests": [str(m) for m in manifests],
        "out_dir": str(root / "out"),
        "start": "2021-01-04",
        "split": "2021-02-01",
        "end": "2021-02-26",
        "frequency": "monthly",
    }
    payload.update(overrides)
    path = root / "run.json"
    path.write_text(json.dumps(payload, indent=2))
    return path


def to_long_format(data_dir):
    """Merge every per-ticker CSV in data_dir into one date-interleaved prices.csv."""
    files = sorted(data_dir.glob("*.csv"))
    rows = []
    for path in files:
        rows += path.read_text().splitlines()[1:]
        path.unlink()
    rows.sort(key=lambda row: row.split(",")[0])
    (data_dir / "prices.csv").write_text("date,ticker,adj_close\n" + "\n".join(rows) + "\n")


def output_tree(out_dir):
    return {p.relative_to(out_dir).as_posix(): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


@pytest.fixture
def two_sector_long(tmp_path):
    """Two sectors of two tickers each, all in one long-format prices.csv."""
    data_dir, manifests = generate_universe(
        tmp_path / "fixture", start=date(2021, 1, 4), end=date(2021, 2, 26),
        n_sectors=2, tickers_per_sector=2, seed=11,
    )
    to_long_format(data_dir)
    return tmp_path, data_dir, manifests


@pytest.fixture
def small_universe(tmp_path):
    """Two tickers, one sector, 40 trading days."""
    data_dir, manifests = generate_universe(
        tmp_path / "fixture", start=date(2021, 1, 4), end=date(2021, 2, 26),
        n_sectors=1, tickers_per_sector=2, seed=11,
    )
    return tmp_path, data_dir, manifests


class TestBacktestCommand:
    def test_smoke_run_writes_all_artifacts(self, small_universe, capsys):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests)
        assert main(["backtest", "--config", str(config)]) == 0
        out_dir = root / "out" / "auto"
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == [
            "cumulative.csv", "distributions.csv", "shares.csv",
            "tear_sheets.csv", "weights.csv",
        ]
        assert "ok: auto" in capsys.readouterr().out

    def test_missing_ticker_file_names_the_ticker(self, small_universe, capsys):
        root, data_dir, manifests = small_universe
        (data_dir / "AUTO02.csv").unlink()
        config = write_config(root, data_dir, manifests)
        assert main(["backtest", "--config", str(config)]) != 0
        err = capsys.readouterr().err
        assert "AUTO02" in err
        assert "auto" in err  # sector named too
        assert not (root / "out" / "auto").exists()  # partial outputs removed

    def test_failed_sector_does_not_block_others(self, tmp_path, capsys):
        data_dir, manifests = generate_universe(
            tmp_path / "fixture", start=date(2021, 1, 4), end=date(2021, 2, 26),
            n_sectors=2, tickers_per_sector=2, seed=11,
        )
        (data_dir / "BANK01.csv").unlink()
        config = write_config(tmp_path, data_dir, manifests)
        assert main(["backtest", "--config", str(config)]) == 1
        assert (tmp_path / "out" / "auto").is_dir()
        assert not (tmp_path / "out" / "banking").exists()

    def test_flag_overrides_beat_config(self, small_universe):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests)
        alt_out = root / "alt_out"
        assert main([
            "backtest", "--config", str(config),
            "--out-dir", str(alt_out), "--frequency", "never",
        ]) == 0
        assert (alt_out / "auto" / "shares.csv").is_file()
        # with frequency=never the share counts never change
        lines = (alt_out / "auto" / "shares.csv").read_text().splitlines()[1:]
        counts = {tuple(line.split(",")[1:]) for line in lines}
        assert len(counts) == 1

    def test_heap_is_trimmed_once_each_sector_has_loaded(self, tmp_path, monkeypatch):
        data_dir, manifests = generate_universe(
            tmp_path / "fixture", start=date(2021, 1, 4), end=date(2021, 2, 26),
            n_sectors=2, tickers_per_sector=2, seed=11,
        )
        config = write_config(tmp_path, data_dir, manifests)
        calls = []
        glibc = types.SimpleNamespace(malloc_trim=calls.append)
        monkeypatch.setattr(rebal.cli, "ctypes", types.SimpleNamespace(pythonapi=glibc))
        assert main(["backtest", "--config", str(config)]) == 0
        assert calls == [0, 0]
        # a C library without malloc_trim runs the same
        monkeypatch.setattr(rebal.cli, "ctypes", types.SimpleNamespace(pythonapi=object()))
        assert main(["backtest", "--config", str(config)]) == 0

    @pytest.mark.parametrize("command", ["backtest", "validate"])
    @pytest.mark.parametrize("level", ["error", "info", "debug", "loud", "INFO"])
    def test_rebal_log_level(self, small_universe, capsys, monkeypatch, command, level):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests)
        monkeypatch.setenv("REBAL_LOG", level)
        assert main([command, "--config", str(config)]) == 0
        loaded = [f"DEBUG rebal: auto: loaded {ticker}: 40 observations from "
                  f"{data_dir / ticker}.csv" for ticker in ("AUTO01", "AUTO02", "INDEX50")]
        info = ["INFO rebal: auto: aligned 2 tickers onto 40 days (2021-01-04..2021-02-26)"]
        if command == "backtest":
            info += ["INFO rebal: auto: backtest over 40 days, 1 rebalances (monthly)",
                     "INFO rebal: auto: wrote and verified 5 files"]
        expected = {"error": [], "info": info, "INFO": info, "debug": loaded + info,
                    "loud": ["warning: unknown REBAL_LOG='loud', using error"]}[level]
        assert capsys.readouterr().err == "".join(line + "\n" for line in expected)

    @pytest.mark.parametrize("levels", [("error", "debug"), ("debug", "info", "error")])
    def test_rebal_log_is_read_at_each_call(self, small_universe, monkeypatch, levels):
        # each main() in one process takes REBAL_LOG and sys.stderr as they are then
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests)
        for level in levels:
            monkeypatch.setenv("REBAL_LOG", level)
            monkeypatch.setattr(sys, "stderr", stderr := io.StringIO())
            assert main(["backtest", "--config", str(config)]) == 0
            lines = stderr.getvalue().splitlines()
            assert len(lines) == {"error": 0, "info": 3, "debug": 6}[level]
            assert all(line.startswith(("INFO rebal: auto: ", "DEBUG rebal: auto: "))
                       for line in lines)
            assert sum(line.startswith("DEBUG ") for line in lines) == 3 * (level == "debug")

    @settings(max_examples=30, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sector=st.lists(st.text(st.characters(exclude_categories=("C", "Z")), max_size=5)
                           | st.sampled_from(" \n\r\t\0\x85\u2028"), max_size=3).map("".join))
    @example(sector="Auto\nINFO rebal: fake: wrote and verified 5 files")
    @example(sector="Auto")
    def test_each_outcome_is_whole_lines(self, small_universe, capsys, monkeypatch, sector):
        # a sector name cannot add, split or forge an ok:, error: or INFO line
        root, data_dir, manifests = small_universe
        payload = json.loads(manifests[0].read_text())
        manifests[0].write_text(json.dumps(dict(payload, sector=sector)))
        monkeypatch.setenv("REBAL_LOG", "info")
        rc = main(["backtest", "--config", str(write_config(root, data_dir, manifests))])
        out, err = (text.splitlines() for text in capsys.readouterr())
        assert rc in (0, 1)
        assert all(line.startswith("ok: ") for line in out)
        assert all(line.startswith(("error: ", "INFO rebal: ")) for line in err)
        if sector.isprintable():
            assert (rc, len(out), len(err)) == (0, 1, 3)
        else:
            assert (rc, out, len(err)) == (1, [], 1) and "failed at stage manifest" in err[0]

    def test_readme_quick_start(self, tmp_path, capsys):
        root = tmp_path / "demo_universe"
        assert rebal.synthetic.main([str(root)]) == 0
        assert capsys.readouterr().out.count("wrote manifest ") == 10
        (root / "run.json").write_text(json.dumps({
            "data_dir": "data",
            "manifests": ["manifests/auto.json", "manifests/banking.json"],
            "out_dir": "out",
            "frequency": "yearly",
        }))
        assert main(["validate", "--config", str(root / "run.json")]) == 0
        assert main(["backtest", "--config", str(root / "run.json")]) == 0
        assert sorted(p.name for p in (root / "out").iterdir()) == ["auto", "banking"]

    def test_json_tear_sheet_format(self, small_universe):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests, tear_sheet_format="json")
        assert main(["backtest", "--config", str(config)]) == 0
        payload = json.loads((root / "out" / "auto" / "tear_sheets.json").read_text())
        assert [entry["window"] for entry in payload] == [
            "in_sample", "out_of_sample", "overall",
        ]
        assert len(payload[0]["metrics"]) == 15


class TestLongFormatIngestion:
    def test_price_file_opened_once_per_run(self, two_sector_long, monkeypatch):
        root, data_dir, manifests = two_sector_long
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(rebal.market_data, "open", counting_open, raising=False)
        config = write_config(root, data_dir, manifests)
        prices = data_dir / "prices.csv"
        assert main(["backtest", "--config", str(config)]) == 0
        assert opened.count(prices) == 1
        opened.clear()
        assert main(["validate", "--config", str(config)]) == 0
        assert opened.count(prices) == 1

    def test_benchmark_file_read_once_across_sectors(self, tmp_path, monkeypatch):
        data_dir, manifests = generate_universe(
            tmp_path / "fixture", start=date(2021, 1, 4), end=date(2021, 2, 26),
            n_sectors=3, tickers_per_sector=2, seed=11,
        )
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(rebal.market_data, "open", counting_open, raising=False)
        benchmark = json.loads(manifests[0].read_text())["benchmark"]
        index = data_dir / f"{benchmark}.csv"
        config = write_config(tmp_path, data_dir, manifests)
        assert main(["backtest", "--config", str(config)]) == 0
        assert opened.count(index) == 1
        assert opened.count(data_dir / "AUTO01.csv") == 1
        opened.clear()
        assert main(["validate", "--config", str(config)]) == 0
        assert opened.count(index) == 1

    def test_bad_row_fails_only_the_sector_using_it(self, two_sector_long, capsys):
        root, data_dir, manifests = two_sector_long
        path = data_dir / "prices.csv"
        lines = path.read_text().splitlines()
        bad = next(i for i, line in enumerate(lines) if ",BANK02," in line)
        lines[bad] = lines[bad].rsplit(",", 1)[0] + ",-3.0"
        path.write_text("\n".join(lines) + "\n")
        config = write_config(root, data_dir, manifests)
        assert main(["backtest", "--config", str(config)]) == 1
        out, err = capsys.readouterr()
        assert "ok: auto" in out
        assert f"prices.csv:{bad + 1}" in err and "BANK02" in err
        assert "'banking' failed at stage load" in err
        assert (root / "out" / "auto").is_dir()
        assert not (root / "out" / "banking").exists()

    def test_ticker_listed_in_two_sectors_loads_in_both(self, two_sector_long, capsys):
        root, data_dir, manifests = two_sector_long
        banking = json.loads(manifests[1].read_text())
        banking["tickers"].append("AUTO01")
        manifests[1].write_text(json.dumps(banking))
        config = write_config(root, data_dir, manifests)
        assert main(["backtest", "--config", str(config)]) == 0
        header = (root / "out" / "banking" / "shares.csv").read_text().splitlines()[0]
        assert "AUTO01" in header.split(",")
        assert "AUTO01" in (root / "out" / "auto" / "shares.csv").read_text().splitlines()[0]

    def test_long_format_gives_identical_outputs(self, tmp_path):
        trees = []
        for name, long_format in (("per_ticker", False), ("long", True)):
            root = tmp_path / name
            data_dir, manifests = generate_universe(
                root / "fixture", start=date(2021, 1, 4), end=date(2021, 2, 26),
                n_sectors=3, tickers_per_sector=3, seed=5,
            )
            if long_format:
                to_long_format(data_dir)
            config = write_config(root, data_dir, manifests)
            assert main(["backtest", "--config", str(config)]) == 0
            trees.append(output_tree(root / "out"))
        assert len(trees[0]) == 15
        assert trees[0] == trees[1]


class TestInputBoundary:
    """Bad price bytes and manifest names fail their sector, never the run."""

    @pytest.mark.parametrize("row, match", [
        (b"2021-03-01,AUTO01,\xff\xfe\n", ":42: bad price '\\udcff\\udcfe'"),
        (b"2021-03-01,AUTO\xff,1.0\n", ":42: ticker is not valid UTF-8"),
    ])
    @pytest.mark.parametrize("command", ["backtest", "validate"])
    def test_non_utf8_row_is_a_parse_error(self, small_universe, capsys, command, row, match):
        root, data_dir, manifests = small_universe
        path = data_dir / "AUTO01.csv"
        path.write_bytes(path.read_bytes() + row)
        config = write_config(root, data_dir, manifests)
        assert main([command, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "failed at stage load" in err
        assert str(path) + match in err
        assert "Traceback" not in err

    def test_manifest_ticker_must_be_a_plain_file_name(self, small_universe, capsys,
                                                       monkeypatch):
        root, data_dir, manifests = small_universe
        (data_dir.parent / "OUTSIDE.csv").write_bytes((data_dir / "AUTO01.csv").read_bytes())
        payload = json.loads(manifests[0].read_text())
        manifests[0].write_text(json.dumps(dict(payload, tickers=["AUTO01", "../OUTSIDE"])))
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr("rebal.market_data.open", counting_open, raising=False)
        config = write_config(root, data_dir, manifests)
        assert main(["backtest", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "failed at stage manifest" in err and "'../OUTSIDE'" in err
        assert opened and all(Path(p).resolve().parent == data_dir.resolve()
                              for p in opened if str(p).endswith(".csv"))
        assert not (root / "out" / "auto").exists()

    @pytest.mark.parametrize("names", [{"sector": ["x"]}, {"benchmark": None}])
    @pytest.mark.parametrize("command", ["backtest", "validate"])
    def test_manifest_names_must_be_strings(self, small_universe, capsys, command, names):
        root, data_dir, manifests = small_universe
        payload = json.loads(manifests[0].read_text())
        manifests[0].write_text(json.dumps(dict(payload, **names)))
        config = write_config(root, data_dir, manifests)
        assert main([command, "--config", str(config)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "failed at stage manifest" in err and "must be a string" in err
        assert "Traceback" not in err
        assert not (root / "out" / "auto").exists()

    @pytest.mark.parametrize("where, line", [("header", 1), ("body", 42)])
    @pytest.mark.parametrize("command", ["backtest", "validate"])
    def test_quote_open_past_the_field_limit_fails_its_sector(self, tmp_path, capsys,
                                                              command, where, line):
        """A quote never closed, with more than csv's 128 KiB field limit after
        it, stops the file at the line its row starts on."""
        data_dir, manifests = generate_universe(
            tmp_path / "fixture", start=date(2021, 1, 4), end=date(2021, 2, 26),
            n_sectors=2, tickers_per_sector=2, seed=11,
        )
        path = data_dir / "AUTO01.csv"
        header, body = path.read_bytes().split(b"\n", 1)
        open_quote = b'"1' + b"0" * 140_000
        if where == "header":
            path.write_bytes(b"date,ticker," + open_quote + b"\n" + body)
        else:
            path.write_bytes(header + b"\n" + body + b"2021-03-01,AUTO01," + open_quote + b"\n")
        config = write_config(tmp_path, data_dir, manifests)
        assert main([command, "--config", str(config)]) == 1
        out, err = capsys.readouterr()
        assert "sector 'auto' failed at stage load" in err and "Traceback" not in err
        assert f"{path}:{line}: " in err and "field larger than field limit (131072)" in err
        assert ("ok: banking" if command == "backtest" else "sector banking:") in out


class TestSectorSlugs:
    """Every manifest is loaded before any sector runs; a clash is rc 2."""

    def test_colliding_slugs_fail_the_second_sector(self, small_universe, capsys):
        root, data_dir, manifests = small_universe
        payload = json.loads(manifests[0].read_text())
        first, second = root / "first.json", root / "second.json"
        first.write_text(json.dumps(dict(payload, sector="Auto Parts")))
        second.write_text(json.dumps(dict(payload, sector="auto-parts")))
        config = write_config(root, data_dir, [first, second])
        assert main(["backtest", "--config", str(config)]) == 2
        out, err = capsys.readouterr()
        assert "ok:" not in out
        assert "'auto-parts'" in err and "'Auto Parts'" in err
        assert not (root / "out" / "auto_parts").exists()
        config = write_config(root, data_dir, [first])
        assert main(["backtest", "--config", str(config),
                     "--out-dir", str(root / "alone")]) == 0
        assert len(output_tree(root / "alone" / "auto_parts")) == 5

    @pytest.mark.parametrize("command", ["backtest", "validate"])
    @pytest.mark.parametrize("clash", ["slug", "repeat"])
    def test_clash_fails_before_any_sector_runs(self, small_universe, capsys,
                                                 command, clash):
        root, data_dir, manifests = small_universe
        payload = json.loads(manifests[0].read_text())
        other = root / "other.json"
        other.write_text(json.dumps(dict(payload, sector=" AUTO ")))
        listed = [manifests[0], other if clash == "slug" else manifests[0]]
        config = write_config(root, data_dir, listed)
        assert main([command, "--config", str(config)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert ("listed twice" if clash == "repeat" else "share the output directory") in err
        assert "Traceback" not in err
        assert not (root / "out").exists()

    @pytest.mark.parametrize("command", ["backtest", "validate"])
    def test_unloadable_manifest_fails_only_its_sector(self, small_universe, capsys,
                                                       command):
        root, data_dir, manifests = small_universe
        broken = root / "broken.json"
        broken.write_text("{not json")
        listed = root / "listed.json"
        listed.write_text(json.dumps([json.loads(manifests[0].read_text())]))
        config = write_config(root, data_dir, [broken, listed, manifests[0]])
        assert main([command, "--config", str(config)]) == 1
        out, err = capsys.readouterr()
        assert "sector 'broken' failed at stage manifest" in err
        assert "sector 'listed' failed at stage manifest" in err
        assert "manifest must be a JSON object" in err
        assert ("ok: auto" if command == "backtest" else "sector auto:") in out


class TestOverflowingStatistics:
    def test_overflowing_annualisation_leaves_empty_cells(self, tmp_path, capsys):
        # two tickers rising 50x and 40x a day: compounding to a year
        # overflows a float, which must give empty cells, not a traceback
        days = [date(2021, 1, d) for d in (4, 5, 6, 7, 8, 11, 12, 13, 14, 15)]
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for ticker, growth in (("UP50", 50.0), ("UP40", 40.0), ("IDX", 1.01)):
            rows = [f"{d.isoformat()},{ticker},{growth ** i!r}" for i, d in enumerate(days)]
            if ticker == "IDX":  # give the benchmark some variance
                rows[3] = f"{days[3].isoformat()},IDX,0.97"
            (data_dir / f"{ticker}.csv").write_text(
                "date,ticker,adj_close\n" + "\n".join(rows) + "\n")
        manifest = tmp_path / "boom.json"
        manifest.write_text(json.dumps(
            {"sector": "boom", "tickers": ["UP50", "UP40"], "benchmark": "IDX"}))
        config = write_config(tmp_path, data_dir, [manifest], start="2021-01-04",
                              split="2021-01-11", end="2021-01-15", frequency="never")
        assert main(["backtest", "--config", str(config)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        with open(tmp_path / "out" / "boom" / "tear_sheets.csv", newline="") as fh:
            table = {row[0]: row[1:] for row in csv.reader(fh)}
        for name in ("annual_return", "calmar", "alpha"):
            assert table[name] == ["", "", ""], name
        assert all(cell for cell in table["cumulative_return"])


class TestNeverHalfWrite:
    @pytest.mark.parametrize("target", ["plot data", "tear sheet"])
    def test_non_finite_output_fails_verify(self, small_universe, monkeypatch,
                                            capsys, target):
        root, data_dir, manifests = small_universe
        if target == "plot data":
            real = rebal.cli.run_backtest

            def nan_weight(*args):
                return with_weight_cells(real(*args), [(-1, -1, float("nan"))])

            monkeypatch.setattr(rebal.cli, "run_backtest", nan_weight)
        else:
            real = rebal.cli.tear_sheet
            monkeypatch.setattr(rebal.cli, "tear_sheet", lambda *args: dataclasses.replace(
                real(*args), sharpe=float("inf")))
        config = write_config(root, data_dir, manifests)
        assert main(["backtest", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "stage verify" in err and "Traceback" not in err
        assert list((root / "out").iterdir()) == []

    @pytest.mark.parametrize("fmt, damaged", [
        ("json", '[{"window": "x"}]'),
        ("json", '{"window": "x"}'),
        ("json", "not json"),
        ("csv", "abc"),
    ])
    def test_tear_sheet_damaged_before_verify_fails_verify(self, small_universe, monkeypatch,
                                                           capsys, fmt, damaged):
        root, data_dir, manifests = small_universe
        real = rebal.cli.export_tear_sheets

        def export_then_damage(sheets, path):
            path = real(sheets, path)
            if fmt == "csv":  # one number cell on line 2
                lines = path.read_text().splitlines()
                lines[1] = lines[1].split(",")[0] + "," + damaged + ",0,0"
                damaged_text = "\n".join(lines) + "\n"
            else:
                damaged_text = damaged
            path.write_text(damaged_text)
            return path

        monkeypatch.setattr(rebal.cli, "export_tear_sheets", export_then_damage)
        config = write_config(root, data_dir, manifests, tear_sheet_format=fmt)
        assert main(["backtest", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "failed at stage verify" in err and "Traceback" not in err
        assert f"tear_sheets.{fmt}" + (":2: could not convert" if fmt == "csv" else "") in err
        assert list((root / "out").iterdir()) == []

    @pytest.mark.parametrize("fmt, emptied", [
        ("json", "[]\n"),
        ("csv", "metric\n" + "".join(f"{name}\n" for name in METRIC_NAMES)),
    ])
    def test_emptied_tear_sheet_fails_verify(self, small_universe, monkeypatch, capsys,
                                             fmt, emptied):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests, tear_sheet_format=fmt)
        assert main(["backtest", "--config", str(config)]) == 0
        first = output_tree(root / "out")
        real = rebal.cli.export_tear_sheets

        def export_then_empty(sheets, path):
            path = real(sheets, path)
            path.write_text(emptied)
            return path

        monkeypatch.setattr(rebal.cli, "export_tear_sheets", export_then_empty)
        assert main(["backtest", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "failed at stage verify" in err and "expected windows" in err
        assert "Traceback" not in err
        assert output_tree(root / "out") == first

    def test_non_utf8_plot_table_fails_verify(self, small_universe, monkeypatch, capsys):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests)
        assert main(["backtest", "--config", str(config)]) == 0
        first = output_tree(root / "out")
        real = rebal.cli.emit_plot_data

        def emit_then_damage(*args):
            files = real(*args)
            data = bytearray(files["weights"].read_bytes())
            data[data.index(b"\n", data.index(b"\n") + 1) + 3] = 0xFF  # on line 3
            files["weights"].write_bytes(bytes(data))
            return files

        monkeypatch.setattr(rebal.cli, "emit_plot_data", emit_then_damage)
        assert main(["backtest", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "failed at stage verify" in err and "Traceback" not in err
        assert "weights.csv:3: non-ASCII text in weights file" in err
        assert output_tree(root / "out") == first

    def test_fractional_share_count_fails_verify(self, small_universe, monkeypatch, capsys):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests)
        assert main(["backtest", "--config", str(config)]) == 0
        first = output_tree(root / "out")
        real = rebal.cli.emit_plot_data

        def emit_then_damage(*args):
            files = real(*args)
            lines = files["shares"].read_text().splitlines()
            damage(lines, 2, "1.5")  # on line 3
            files["shares"].write_text("\n".join(lines) + "\n")
            return files

        monkeypatch.setattr(rebal.cli, "emit_plot_data", emit_then_damage)
        assert main(["backtest", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "failed at stage verify" in err and "Traceback" not in err
        assert "shares.csv:3: malformed shares file" in err
        assert output_tree(root / "out") == first

    def test_failed_rerun_keeps_previous_output(self, small_universe, monkeypatch):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests)
        assert main(["backtest", "--config", str(config)]) == 0
        first = output_tree(root / "out")

        def broken_verify(*args):
            raise ParseError("forced verify failure")

        with monkeypatch.context() as patch:
            patch.setattr(rebal.cli, "_reparse_outputs", broken_verify)
            assert main(["backtest", "--config", str(config), "--frequency", "never"]) == 1
        assert output_tree(root / "out") == first
        assert [p.name for p in (root / "out").iterdir()] == ["auto"]

        # a good rerun replaces the output and leaves no staging directory
        assert main(["backtest", "--config", str(config), "--frequency", "never"]) == 0
        assert output_tree(root / "out") != first
        assert [p.name for p in (root / "out").iterdir()] == ["auto"]

    def test_share_count_beyond_int64_fails_the_sector(self, small_universe, capsys):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests)
        assert main(["backtest", "--config", str(config)]) == 0
        first = output_tree(root / "out")
        assert main(["backtest", "--config", str(config), "--capital", "1e30"]) == 1
        err = capsys.readouterr().err
        assert "sector 'auto' failed at stage backtest" in err
        assert "shares do not fit in int64" in err and "Traceback" not in err
        assert output_tree(root / "out") == first
        assert [p.name for p in (root / "out").iterdir()] == ["auto"]


class TestFileSystemFailures:
    """An OSError fails where a RebalError does: a config, manifest or output
    directory that cannot be used exits 2 before any sector runs; a price
    file, write or final rename that fails fails its sector alone, rc 1."""

    @pytest.mark.parametrize("command", ["backtest", "validate"])
    def test_manifest_in_a_symlink_loop_exits_2(self, small_universe, capsys, command):
        root, data_dir, manifests = small_universe
        (root / "loop.json").symlink_to(root / "pool.json")
        (root / "pool.json").symlink_to(root / "loop.json")
        config = write_config(root, data_dir, [*manifests, root / "loop.json"])
        assert main([command, "--config", str(config)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: [Errno {errno.ELOOP}] ") and "loop.json" in err
        assert err.count("\n") == 1
        assert not (root / "out").exists()

    @pytest.mark.parametrize("command, fault", [
        ("backtest", "config is missing"),
        ("validate", "config is missing"),
        ("backtest", "config is a directory"),
        ("validate", "config is a directory"),
        ("backtest", "manifest is missing"),
        ("validate", "manifest is missing"),
        ("backtest", "manifest is a directory"),
        ("validate", "manifest is a directory"),
        ("backtest", "out_dir is a file"),
    ])
    def test_unusable_path_exits_2_before_any_sector(self, small_universe, capsys,
                                                     command, fault):
        root, data_dir, manifests = small_universe
        bad = {"manifest is missing": [root / "missing.json"],
               "manifest is a directory": [data_dir]}.get(fault, [])
        config = write_config(root, data_dir, [*manifests, *bad])
        if fault == "out_dir is a file":
            (root / "out").write_text("a file\n")
        given = {"config is missing": root / "missing.json",
                 "config is a directory": root}.get(fault, config)
        assert main([command, "--config", str(given)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        if fault == "config is missing":
            assert err.startswith("error: [Errno 2] ")
        if fault == "out_dir is a file":
            assert (root / "out").read_text() == "a file\n"
        else:
            assert not (root / "out").exists()

    @pytest.fixture
    def two_sectors(self, tmp_path):
        """Two sectors, backtested once: (root, config, output tree)."""
        data_dir, manifests = generate_universe(
            tmp_path / "fixture", start=date(2021, 1, 4), end=date(2021, 2, 26),
            n_sectors=2, tickers_per_sector=2, seed=11,
        )
        config = write_config(tmp_path, data_dir, manifests)
        assert main(["backtest", "--config", str(config)]) == 0
        return tmp_path, config, output_tree(tmp_path / "out")

    @pytest.mark.parametrize("stage", ["load", "report", "verify"])
    def test_failure_fails_one_sector_and_keeps_its_output(self, two_sectors, monkeypatch,
                                                           capsys, stage):
        root, config, first = two_sectors
        capsys.readouterr()
        if stage == "load":  # a price file that cannot be opened
            def guarded_open(file, *args, **kwargs):
                if Path(file).name == "AUTO01.csv":
                    raise PermissionError(errno.EACCES, "Permission denied", str(file))
                return open(file, *args, **kwargs)

            monkeypatch.setattr(rebal.market_data, "open", guarded_open, raising=False)
        elif stage == "report":  # a full disk
            real_export = rebal.cli.export_tear_sheets

            def export_to_full_disk(sheets, path):
                if path.parent.parent.name.startswith(".auto."):
                    raise OSError(errno.ENOSPC, "No space left on device")
                return real_export(sheets, path)

            monkeypatch.setattr(rebal.cli, "export_tear_sheets", export_to_full_disk)
        else:  # the rename that publishes the verified tree
            real_rename = Path.rename

            def failing_rename(self, target):
                if self.name == "new" and Path(target).name == "auto":
                    raise OSError(errno.EIO, "Input/output error")
                return real_rename(self, target)

            monkeypatch.setattr(Path, "rename", failing_rename)
        assert main(["backtest", "--config", str(config), "--frequency", "never"]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: sector 'auto' failed at stage {stage}: [Errno ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert out.startswith("ok: banking")
        tree = output_tree(root / "out")
        assert {k: v for k, v in tree.items() if k.startswith("auto/")} == {
            k: v for k, v in first.items() if k.startswith("auto/")}
        assert tree != first  # banking ran again, never rebalancing
        assert sorted(p.name for p in (root / "out").iterdir()) == ["auto", "banking"]

    def test_failed_restore_keeps_the_previous_tree_and_names_it(self, two_sectors,
                                                                 monkeypatch, capsys):
        root, config, first = two_sectors
        capsys.readouterr()
        real_rename = Path.rename

        def failing_rename(self, target):  # neither new nor old can become out/auto
            if Path(target).name == "auto":
                raise OSError(errno.EIO, "Input/output error")
            return real_rename(self, target)

        monkeypatch.setattr(Path, "rename", failing_rename)
        assert main(["backtest", "--config", str(config), "--frequency", "never"]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: sector 'auto' failed at stage verify: [Errno 5] ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert out.startswith("ok: banking")
        kept = Path(err.rstrip("\n").rpartition("the previous output is kept in ")[2])
        assert kept.parent == root / "out" and kept.name.startswith(".auto.")
        assert output_tree(kept) == {k[len("auto/"):]: v for k, v in first.items()
                                     if k.startswith("auto/")}
        assert sorted(p.name for p in (root / "out").iterdir()) == [kept.name, "banking"]

    def test_leftovers_of_a_crashed_run_are_not_in_the_way(self, two_sectors, capsys):
        root, config, first = two_sectors
        stale = [f".auto.partial-{os.getpid()}", f".auto.partial-{os.getpid()}-old"]
        for name in stale:
            (root / "out" / name).mkdir()
            (root / "out" / name / "shares.csv").write_text("stale\n")
        assert main(["backtest", "--config", str(config)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert {k: v for k, v in output_tree(root / "out").items() if k[0] != "."} == first
        names = sorted(p.name for p in (root / "out").iterdir())
        assert names == sorted(["auto", "banking", *stale])  # the run left nothing of its own

    def test_published_tree_keeps_the_umask_mode(self, two_sectors):
        root, _, _ = two_sectors
        umask = os.umask(0)
        os.umask(umask)
        for path in (root / "out" / "auto", root / "out" / "auto" / "shares.csv"):
            mode = 0o777 if path.is_dir() else 0o666
            assert path.stat().st_mode & 0o777 == mode & ~umask


FRACTIONAL_COUNTS = ("1.5", "1e3", "-0.0", "7.000000001")  # not share counts, though floats


def damage(lines, col, how, at=2):
    """Corrupt the CSV ``lines`` in place, at ``lines[at]`` where a line is needed."""
    if how in ("nan", "-inf", "", *FRACTIONAL_COUNTS):
        cells = lines[at].split(",")
        cells[col] = how
        lines[at] = ",".join(cells)
    elif how == "short row":
        lines[at] = lines[at].rsplit(",", 1)[0]
    elif how == "long row":
        lines[at] += ",0"
    elif how == "blank line":
        lines.insert(at, "")
    elif how == "short header":
        lines[0] = lines[0].split(",")[0]
    else:  # no rows
        del lines[1:]


class TestReparseOutputs:
    """Verify rejects each kind of damage in each plot dataset, naming the file."""

    # first numeric column of each plot dataset
    NUMERIC_COLUMN = {"shares": 1, "weights": 1, "cumulative": 1, "distributions": 2}

    @pytest.fixture
    def outputs(self, small_universe):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests)
        assert main(["backtest", "--config", str(config)]) == 0
        out = root / "out" / "auto"
        files = {kind: out / f"{kind}.csv" for kind in self.NUMERIC_COLUMN}
        return files, out / "tear_sheets.csv"

    def test_written_outputs_reparse(self, outputs):
        files, tear_sheets = outputs
        rebal.cli._reparse_outputs(files, tear_sheets)
        text = files["weights"].read_text()  # header names need not be ASCII
        files["weights"].write_text(text.replace("AUTO01", "\u682a\u5f0f", 1), encoding="utf-8")
        rebal.cli._reparse_outputs(files, tear_sheets)

    @pytest.mark.parametrize("kind", ["shares", "weights", "cumulative", "distributions"])
    @pytest.mark.parametrize("how", ["nan", "-inf", "", "short row", "long row",
                                     "blank line", "no rows", "short header"])
    def test_damaged_file_is_a_parse_error(self, outputs, kind, how):
        files, tear_sheets = outputs
        path = files[kind]
        lines = path.read_text().splitlines()
        damage(lines, self.NUMERIC_COLUMN[kind], how)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=re.escape(str(path))) as caught:
            rebal.cli._reparse_outputs(files, tear_sheets)
        assert caught.value.line == {"no rows": None, "short header": 1}.get(how, 3)

    @pytest.mark.parametrize("how", FRACTIONAL_COUNTS)
    def test_share_count_must_be_an_integer(self, outputs, how):
        files, tear_sheets = outputs
        path = files["shares"]
        lines = path.read_text().splitlines()
        damage(lines, 1, how)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}:3: malformed shares file")):
            rebal.cli._reparse_outputs(files, tear_sheets)

    def test_empty_file_is_a_parse_error(self, outputs):
        files, tear_sheets = outputs
        files["weights"].write_text("")
        with pytest.raises(ParseError, match=re.escape(str(files["weights"]))):
            rebal.cli._reparse_outputs(files, tear_sheets)

    @pytest.fixture
    def long_outputs(self, tmp_path):
        """Plot files of 320 days, more than one block of rows."""
        data_dir, manifests = generate_universe(
            tmp_path / "fixture", start=date(2021, 1, 4), end=date(2022, 3, 31),
            n_sectors=1, tickers_per_sector=2, seed=11,
        )
        config = write_config(tmp_path, data_dir, manifests, split="2021-07-01",
                              end="2022-03-31")
        assert main(["backtest", "--config", str(config)]) == 0
        out = tmp_path / "out" / "auto"
        files = {kind: out / f"{kind}.csv" for kind in self.NUMERIC_COLUMN}
        assert len(files["weights"].read_text().splitlines()) > ROW_BLOCK + 30
        return files, out / "tear_sheets.csv"

    @pytest.mark.parametrize("kind", ["shares", "weights", "cumulative"])
    @pytest.mark.parametrize("how", ["nan", "-inf", "blank line", "short row"])
    def test_damage_past_the_first_block_names_its_line(self, long_outputs, kind, how):
        files, tear_sheets = long_outputs
        path = files[kind]
        lines = path.read_text().splitlines()
        at = ROW_BLOCK + 20  # data row ROW_BLOCK + 20, on line ROW_BLOCK + 21
        damage(lines, self.NUMERIC_COLUMN[kind], how, at)
        damage(lines, self.NUMERIC_COLUMN[kind], "nan", at + 5)  # a later fault loses
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}:{at + 1}: ")) as caught:
            rebal.cli._reparse_outputs(files, tear_sheets)
        assert caught.value.line == at + 1
        assert " row " not in str(caught.value)  # the line is the only position given

    @pytest.mark.parametrize("how", ["nan", "blank line", "short row"])
    def test_faults_either_side_of_a_block_boundary_name_their_lines(self, long_outputs, how):
        files, tear_sheets = long_outputs
        path = files["weights"]
        clean = path.read_text().splitlines()
        # line ROW_BLOCK + 1 ends the first block of rows, line ROW_BLOCK + 2 starts the next
        for rows in ([ROW_BLOCK, ROW_BLOCK + 1], [ROW_BLOCK + 1]):
            lines = list(clean)
            for at in reversed(rows):  # the later first, so an inserted line moves neither
                damage(lines, 1, how, at)
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ParseError, match=re.escape(f"{path}:{rows[0] + 1}: ")) as caught:
                rebal.cli._reparse_outputs(files, tear_sheets)
            assert caught.value.line == rows[0] + 1

    @pytest.mark.parametrize("early, late", [
        ("nan", "long row"), ("blank line", "long row"), ("long row", "nan"),
    ])
    def test_earliest_fault_wins(self, long_outputs, early, late):
        # whatever its kind, the first faulty line in file order is the error
        files, tear_sheets = long_outputs
        lines = files["weights"].read_text().splitlines()
        damage(lines, 1, late, ROW_BLOCK + 20)
        damage(lines, 1, early, 5)
        files["weights"].write_text("\n".join(lines) + "\n")
        message = {"nan": "not a finite number", "blank line": "blank line in weights file",
                   "long row": "malformed weights file"}[early]
        with pytest.raises(ParseError, match=f":6: {message}") as caught:
            rebal.cli._reparse_outputs(files, tear_sheets)
        assert caught.value.line == 6

    def test_tear_sheet_must_hold_the_run_windows_in_order(self, outputs):
        files, tear_sheets = outputs
        lines = tear_sheets.read_text().splitlines()
        assert lines[0] == "metric," + ",".join(rebal.cli.WINDOWS)
        lines[0] = "metric,out_of_sample,in_sample,overall"
        tear_sheets.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=re.escape(f"{tear_sheets}:1: expected windows")):
            rebal.cli._reparse_outputs(files, tear_sheets)


def test_a_sector_on_one_calendar_holds_one_dates_array(small_universe, monkeypatch):
    root, data_dir, manifests = small_universe
    aligned = []
    real = rebal.cli.align_panel

    def recording(series, benchmark):
        aligned.append((series, benchmark))
        return real(series, benchmark)

    monkeypatch.setattr(rebal.cli, "align_panel", recording)
    assert main(["validate", "--config", str(write_config(root, data_dir, manifests))]) == 0
    [(series, benchmark)] = aligned
    assert len(series) == 2 and all(s.dates is benchmark.dates for s in series)


def test_runs_in_one_process_each_read_their_own_calendar(tmp_path):
    # equal lengths, different days: a date decode kept past its run would
    # put the first run's days on the second
    calendars = []
    for name, start, end in (("one", date(2021, 1, 4), date(2021, 2, 26)),
                             ("two", date(2021, 3, 1), date(2021, 4, 23))):
        data_dir, manifests = generate_universe(tmp_path / name / "fixture", start=start,
                                                end=end, n_sectors=1, tickers_per_sector=2)
        config = write_config(tmp_path / name, data_dir, manifests, start=str(start),
                              split=str(start.replace(day=20)), end=str(end))
        assert main(["backtest", "--config", str(config)]) == 0
        with open(tmp_path / name / "out" / "auto" / "shares.csv", newline="") as fh:
            calendars.append([row[0] for row in csv.reader(fh)][1:])
    one, two = calendars
    assert len(one) == len(two) == 40
    assert one[0] == "2021-01-04" and two[0] == "2021-03-01" and two[-1] == "2021-04-23"


def test_plot_tables_are_written_and_reread_in_blocks(tmp_path):
    """Writing and verifying the plot files of a 40 x 3000 result holds
    less than its weight matrix at its peak, not whole-table copies."""
    rng = np.random.default_rng(5)
    n, days = 40, 3000
    calendar = np.datetime64("2010-01-04") + np.arange(days)
    # prices near 1000 buy about 100 shares, small ints that Python caches,
    # which keeps the traced run short
    prices = 1000.0 * np.cumprod(1.0 + rng.normal(0.0, 0.01, (n + 1, days)), axis=1)
    panel = PricePanel(calendar, tuple(f"T{i:02d}" for i in range(n)), prices[:-1], prices[-1])
    result = run_backtest(panel, RebalancePolicy("monthly"))
    bench_cum = panel.benchmark / panel.benchmark[0] - 1.0
    sheet = tear_sheet(simple_returns(calendar, result.value),
                       simple_returns(calendar, panel.benchmark), MetricConfig(), "overall")
    sheets = export_tear_sheets([dataclasses.replace(sheet, window_label=label)
                                 for label in rebal.cli.WINDOWS], tmp_path / "tear_sheets.csv")
    tracemalloc.start()
    try:
        files = emit_plot_data(result, bench_cum, calendar[days // 2], tmp_path / "out")
        rebal.cli._reparse_outputs(files, sheets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < result.weights.nbytes, peak / result.weights.nbytes


def test_runs_do_not_import_numpy_ma(tmp_path):
    # a bare np.unique, which takes numpy's hash path, and np.percentile
    # through it import all of numpy.ma, which costs each run about 10 ms and
    # 1 MB of peak RSS for nothing; the sorting path that np.unique takes with
    # return_index, as the long-format reader calls it, does not
    data_dir, manifests = generate_universe(
        tmp_path / "fixture", start=date(2020, 2, 28), end=date(2021, 6, 30),
        n_sectors=2, tickers_per_sector=2, seed=11,
    )
    long_dir, _ = generate_universe(
        tmp_path / "long_fixture", start=date(2020, 2, 28), end=date(2021, 6, 30),
        n_sectors=2, tickers_per_sector=2, seed=11,
    )
    to_long_format(long_dir)  # one prices.csv, whose tickers np.unique separates
    configs = []
    for name, data, frequency in (("yearly", data_dir, "yearly"),
                                  ("monthly", data_dir, "monthly"),
                                  ("long_yearly", long_dir, "yearly")):
        (tmp_path / name).mkdir()
        configs.append(str(write_config(tmp_path / name, data, manifests, start="2020-02-28",
                                        split="2021-01-04", end="2021-06-30",
                                        frequency=frequency)))
    code = ("import sys\nfrom rebal.cli import main\n"
            "for config in sys.argv[1:]:\n"
            "    for command in ('backtest', 'validate'):\n"
            "        assert main([command, '--config', config]) == 0\n"
            "print('numpy.ma' in sys.modules, 'logging' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code, *configs], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("planned rebalances (yearly): 1") == 4  # two sectors, twice
    assert proc.stdout.splitlines()[-1] == "False False"


class TestValidateCommand:
    def test_reports_planned_rebalances_and_writes_nothing(self, small_universe, capsys):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests)
        assert main(["validate", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "sector auto" in out
        assert "planned rebalances (monthly): 1" in out
        assert not (root / "out").exists()

    def test_gappy_series_reports_intersection_size(self, small_universe, capsys):
        root, data_dir, manifests = small_universe
        # drop ten interior rows from one ticker: intersection shrinks
        path = data_dir / "AUTO01.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:20] + lines[30:]) + "\n")
        config = write_config(root, data_dir, manifests)
        assert main(["validate", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "(30 trading days)" in out
        assert "AUTO01=30" in out and "AUTO02=40" in out

    def test_bad_window_is_a_config_error(self, small_universe, capsys):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests,
                              start="2021-02-26", end="2021-01-04",
                              split="2021-03-01")
        assert main(["validate", "--config", str(config)]) == 2
        assert "start < split <= end" in capsys.readouterr().err


class TestRunConfig:
    def test_window_invariant(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig(tmp_path, (), start=date(2022, 1, 1),
                      split=date(2021, 6, 1), end=date(2023, 1, 1))
        with pytest.raises(ConfigError):
            RunConfig(tmp_path, (), start=date(2022, 1, 1),
                      split=date(2022, 6, 1), end=date(2022, 5, 1))

    def test_defaults_mirror_study_window(self, tmp_path):
        config = RunConfig(tmp_path, ())
        assert config.start == date(2021, 1, 4)
        assert config.split == date(2022, 7, 1)
        assert config.end == date(2023, 9, 20)
        assert config.frequency == "yearly"
        assert config.per_asset_capital == 100_000.0
        assert config.cost_rate == 0.0

    def test_defaults_are_the_library_defaults(self, tmp_path):
        config = RunConfig(tmp_path, [tmp_path / "m.json"])
        assert config.policy() == RebalancePolicy()
        assert config.metric_config() == MetricConfig()

    @pytest.mark.parametrize("field, value, message", [
        ("start", 10**5000, "bad date for 'start': <int too long to print>"),
        ("frequency", 10**5000, "unknown frequency <int too long to print>"),
        ("tear_sheet_format", 10**5000, "unknown tear_sheet_format <int too long to print>"),
        ("per_asset_capital", 10**5000, "per_asset_capital must be a finite number, got <int"),
        ("periods_per_year", 10**5000, "periods_per_year must be a positive integer, got <int"),
        ("manifests", [10**5000], "manifests must be a list of paths, got <list too long"),
    ], ids=["start", "frequency", "tear_sheet_format", "per_asset_capital",
            "periods_per_year", "manifests"])
    def test_int_past_the_digit_limit_is_a_config_error(self, tmp_path, field, value, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            RunConfig(**{"data_dir": tmp_path, "manifests": (), field: value})

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "data_dir": ".", "manifests": [], "frequencey": "daily",
        }))
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_run_config(path)

    def test_paths_resolve_relative_to_config_file(self, tmp_path):
        nested = tmp_path / "configs"
        nested.mkdir()
        path = nested / "run.json"
        path.write_text(json.dumps({
            "data_dir": "../data", "manifests": ["../m.json"],
        }))
        config = load_run_config(path)
        assert config.data_dir == nested / ".." / "data"
        assert config.manifests == (nested / ".." / "m.json",)

    def test_missing_config_file(self, tmp_path):
        # raised as it is, like any other config that cannot be read
        with pytest.raises(FileNotFoundError):
            load_run_config(tmp_path / "nope.json")


_EDGES = [0.0, -0.0, 5e-324, 0.05, 0.4999, 0.5, 0.999, 1.0, -1.0, -1.5, -3.0,
          1e308, -1e308, math.nan, math.inf, -math.inf]
# around the largest float, and far beyond it
_HUGE_INTS = st.sampled_from([int(sys.float_info.max), int(sys.float_info.max) + 1,
                              2**1024, -2**1024, 10**400, -10**400])
_IN_RANGE = {
    "per_asset_capital": st.floats(0.0, 1e308, exclude_min=True),
    "cost_rate": st.floats(0.0, 1.0, exclude_max=True),
    "risk_free": st.floats(-1.0, 1e308),
    "var_cutoff": st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    "periods_per_year": st.integers(1, 10**6),
}


@st.composite
def config_numbers(draw):
    """Config numbers, each in its range except for up to two drawn from
    anywhere: any float or an int beyond float range, or for periods_per_year
    any int or a bool."""
    n_wild = draw(st.sampled_from([0, 1, 1, 2]))
    wild = draw(st.sets(st.sampled_from(sorted(_IN_RANGE)), min_size=n_wild, max_size=n_wild))
    anything = {name: st.one_of(st.sampled_from(_EDGES), st.floats(), _HUGE_INTS)
                for name in _IN_RANGE}
    anything["periods_per_year"] = st.one_of(st.sampled_from([0, -1, -252, True, False]),
                                             st.integers(-10**6, 10**6), _HUGE_INTS)
    return {name: draw(anything[name] if name in wild else in_range)
            for name, in_range in _IN_RANGE.items()}


class TestConfigBoundary:
    """Bad values fail as ConfigError (rc 2) before any sector runs."""

    @pytest.mark.parametrize("overrides, match", [
        ({"per_asset_capital": "NaN"}, "per_asset_capital must be a finite number"),
        ({"per_asset_capital": float("inf")}, "per_asset_capital must be a finite number"),
        ({"cost_rate": True}, "cost_rate must be a finite number"),
        ({"risk_free": float("nan")}, "risk_free must be a finite number"),
        ({"omega_threshold": None}, "omega_threshold must be a finite number"),
        ({"var_cutoff": "0.05"}, "var_cutoff must be a finite number"),
        ({"periods_per_year": 252.0}, "periods_per_year must be a positive integer"),
        ({"periods_per_year": True}, "periods_per_year must be a positive integer"),
        ({"periods_per_year": 0}, "periods_per_year must be a positive integer"),
        # JSON integers beyond float range
        ({"per_asset_capital": 10**400}, "per_asset_capital must be a finite number"),
        ({"cost_rate": -10**400}, "cost_rate must be a finite number"),
        ({"risk_free": 10**400}, "risk_free must be a finite number"),
        ({"periods_per_year": 10**400}, "periods_per_year must be a positive integer"),
        ({"manifests": "manifests/auto.json"}, "manifests must be a list of paths"),
        ({"manifests": ["a.json", 3]}, "manifests must be a list of paths"),
        ({"frequency": "weekly"}, "unknown frequency 'weekly'"),
        ({"data_dir": 5}, "not int"),
        ({"tear_sheet_format": "xml"}, "unknown tear_sheet_format 'xml'"),
        ({"manifests": []}, "no sector manifests configured"),
        # a whole file rather than keys over a good one
        ('{"data_dir": "data",', "bad JSON"),
        ('["data", "manifests"]', "config must be a JSON object"),
        ('{"manifests": []}', "config needs 'data_dir' and 'manifests'"),
        ('{"data_dir": "data"}', "config needs 'data_dir' and 'manifests'"),
    ])
    def test_bad_config_value_exits_2(self, small_universe, capsys, overrides, match):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests)
        if isinstance(overrides, dict):
            overrides = json.dumps({**json.loads(config.read_text()), **overrides})
        config.write_text(overrides)
        assert main(["backtest", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert match in err
        assert "Traceback" not in err
        assert not (root / "out").exists()

    @pytest.mark.parametrize("field", ["data_dir", "out_dir", "manifests"])
    @pytest.mark.parametrize("command", ["backtest", "validate"])
    def test_nul_in_a_path_exits_2(self, small_universe, capsys, command, field):
        # and any other character that is not printable, such as a line break
        # that would forge an ok: line
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests)
        good, names = json.loads(config.read_text()), sorted(os.listdir(root))
        for char in "\0\n\r\t\x85\u2028":
            bad = f"{root}/x{char}ok: fake -> y"
            payload = {**good, field: [*good[field], bad] if field == "manifests" else bad}
            config.write_text(json.dumps(payload))
            assert main([command, "--config", str(config)]) == 2
            assert capsys.readouterr() == ("", f"error: path {bad!r} is not printable\n")
            assert sorted(os.listdir(root)) == names  # nothing written

    @pytest.mark.parametrize("flag, value, match", [
        ("--capital", "nan", "per_asset_capital must be a finite number"),
        ("--cost-rate", "inf", "cost_rate must be a finite number"),
        ("--periods-per-year", "0", "periods_per_year must be a positive integer"),
    ])
    def test_bad_flag_override_exits_2(self, small_universe, capsys, flag, value, match):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests)
        assert main(["backtest", "--config", str(config), flag, value]) == 2
        assert match in capsys.readouterr().err
        assert not (root / "out").exists()

    @pytest.mark.parametrize("args, match", [
        (["--capital", "-5"], "per_asset_capital must be positive"),
        (["--cost-rate", "1.5"], "cost_rate must lie in [0, 1)"),
        (["--risk-free", "-3"], "risk_free_rate_annual must be >= -1"),
        ([], "var_cutoff must lie in (0, 0.5)"),
    ])
    @pytest.mark.parametrize("command", ["backtest", "validate"])
    def test_out_of_range_value_exits_2(self, small_universe, capsys, command, args, match):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests,
                              **({} if args else {"var_cutoff": 0.9}))
        assert main([command, "--config", str(config), *args]) == 2
        err = capsys.readouterr().err
        assert match in err
        assert "Traceback" not in err
        assert not (root / "out").exists()

    # Only YYYY-MM-DD, as in price files: date.fromisoformat takes the first
    # two from Python 3.11 on, which would make a config's meaning depend on
    # the interpreter.
    @pytest.mark.parametrize("key, value", [
        ("start", "20210104"), ("split", "2021-W05-1"), ("end", "2021-2-26"),
        ("end", "2021-02-26T00:00"), ("start", 20210104), ("split", None),
    ])
    @pytest.mark.parametrize("command", ["backtest", "validate"])
    def test_config_date_follows_price_file_grammar(self, small_universe, capsys,
                                                     command, key, value):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests, **{key: value})
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"bad date for {key!r}: {value!r}" in err
        assert "Traceback" not in err
        assert not (root / "out").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--start", "2021-W01-2"), ("--split", "20210201"), ("--end", "2021-02-30"),
    ])
    @pytest.mark.parametrize("command", ["backtest", "validate"])
    def test_flag_date_follows_price_file_grammar(self, small_universe, capsys,
                                                   command, flag, value):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests)
        assert main([command, "--config", str(config), flag, value]) == 2
        err = capsys.readouterr().err
        assert f"bad date for {flag[2:]!r}: {value!r}" in err
        assert "Traceback" not in err
        assert not (root / "out").exists()

    def test_flag_dates_override_config(self, small_universe, capsys):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests)
        args = ["--start", "2021-01-11", "--split", "2021-01-25", "--end", "2021-02-19"]
        assert main(["validate", "--config", str(config), *args]) == 0
        assert "calendar 2021-01-11..2021-02-19 (30 trading days)" in capsys.readouterr().out

    def test_risk_free_nan_in_json_writes_nothing(self, small_universe, capsys):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests)
        config.write_text(config.read_text().replace('"frequency"', '"risk_free": NaN, "frequency"'))
        assert main(["validate", "--config", str(config)]) == 2
        assert main(["backtest", "--config", str(config)]) == 2
        assert "risk_free must be a finite number" in capsys.readouterr().err
        assert not (root / "out").exists()

    @pytest.mark.parametrize("value, match", [
        (b"1" + b"0" * 5000, "Exceeds the limit"),  # Python's json allows at most 4300 digits
        (b'"\xff"', "can't decode byte 0xff"),
        (b"[" * 200_000 + b"]" * 200_000, "maximum recursion depth exceeded"),
    ], ids=["int of 5000 digits", "not UTF-8", "nested 200000 deep"])
    @pytest.mark.parametrize("command", ["backtest", "validate"])
    def test_json_refused_with_a_value_error(self, small_universe, capsys, command, value, match):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests)
        config.write_bytes(config.read_bytes().replace(b'"frequency"',
                                                       b'"risk_free": ' + value + b', "frequency"'))
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "bad JSON: " in err and match in err and "Traceback" not in err
        assert not (root / "out").exists()
        manifests[0].write_bytes(b'{"sector": ' + value + b"}")  # fails only its sector
        assert main([command, "--config", str(write_config(root, data_dir, manifests))]) == 1
        err = capsys.readouterr().err
        assert "failed at stage manifest" in err and match in err and "Traceback" not in err

    @settings(max_examples=120, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(numbers=config_numbers())
    def test_fuzzed_numbers_pass_exactly_in_range(self, small_universe, capsys, numbers):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests, **numbers)
        periods = numbers["periods_per_year"]
        in_range = (  # the README's ranges; every number must also be a finite float
            all(abs(number) <= sys.float_info.max for number in numbers.values())
            and 0.0 < numbers["per_asset_capital"] < math.inf
            and 0.0 <= numbers["cost_rate"] < 1.0
            and -1.0 <= numbers["risk_free"] < math.inf
            and 0.0 < numbers["var_cutoff"] < 0.5
            and not isinstance(periods, bool) and periods >= 1
        )
        rc = main(["validate", "--config", str(config)])
        out, err = capsys.readouterr()
        if in_range:
            assert rc == 0 and err == "", err
        else:
            assert rc == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "Traceback" not in err

    def test_numbers_are_stored_as_floats(self, tmp_path):
        config = RunConfig(tmp_path, [], per_asset_capital=5000, cost_rate=0)
        assert config.per_asset_capital == 5000.0
        assert isinstance(config.per_asset_capital, float)
        assert isinstance(config.cost_rate, float)
        assert config.manifests == ()


class TestResolvePriceFile:
    def test_prefers_per_ticker_file(self, tmp_path):
        (tmp_path / "AAA.csv").write_text("date,ticker,adj_close\n")
        (tmp_path / "prices.csv").write_text("date,ticker,adj_close\n")
        assert resolve_price_file(tmp_path, "AAA").name == "AAA.csv"

    def test_falls_back_to_long_format(self, tmp_path):
        (tmp_path / "prices.csv").write_text("date,ticker,adj_close\n")
        assert resolve_price_file(tmp_path, "BBB").name == "prices.csv"

    def test_missing_everything_names_ticker(self, tmp_path):
        with pytest.raises(ConfigError, match="CCC"):
            resolve_price_file(tmp_path, "CCC")


def tracer_names():
    """The rebal.cli attributes that perfbench/tracing.py wraps, from its WRAPPED."""
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text()
    return next(ast.literal_eval(node.value) for node in ast.parse(source).body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "WRAPPED")


def test_benchmark_tracer_names_exist_on_cli():
    """perfbench/tracing.py times the run by wrapping rebal.cli attributes
    by name; a renamed one would only read as missing in a traced run."""
    wrapped = tracer_names()
    assert wrapped
    for attr in wrapped:
        assert callable(getattr(rebal.cli, attr, None)), attr


def test_benchmark_tracer_names_are_called_only_inside_run_sector(two_sector_long,
                                                                   monkeypatch):
    """The tracer makes each ``_run_sector`` call a root span and every other
    wrapped call a span inside one: a wrapped name called outside
    ``_run_sector``, such as a pre-flight read through the ``rebal.cli``
    global, would fail the benchmark's own tests."""
    root, data_dir, manifests = two_sector_long
    calls, inside = [], [0]

    def wrap(attr, fn):
        def wrapper(*args, **kwargs):
            calls.append((attr, inside[0]))
            inside[0] += attr == "_run_sector"
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] -= attr == "_run_sector"
        return wrapper

    for attr in tracer_names():
        monkeypatch.setattr(rebal.cli, attr, wrap(attr, getattr(rebal.cli, attr)))
    assert main(["backtest", "--config", str(write_config(root, data_dir, manifests))]) == 0
    assert {attr for attr, _ in calls} == set(tracer_names())
    assert [attr for attr, depth in calls if depth == 0] == ["_run_sector"] * 2
    assert all(depth == 1 for attr, depth in calls if attr != "_run_sector"), calls
