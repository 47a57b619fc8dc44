"""End-to-end command-line tests on generated synthetic data."""

import json
from datetime import date

import pytest

import rebal.market_data

from rebal.cli import RunConfig, load_run_config, main, resolve_price_file
from rebal.errors import ConfigError
from rebal.synthetic import generate_universe


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


class TestSectorSlugs:
    def test_colliding_slugs_fail_the_second_sector(self, small_universe, capsys):
        root, data_dir, manifests = small_universe
        payload = json.loads(manifests[0].read_text())
        first, second = root / "first.json", root / "second.json"
        first.write_text(json.dumps(dict(payload, sector="Auto Parts")))
        second.write_text(json.dumps(dict(payload, sector="auto-parts")))
        config = write_config(root, data_dir, [first, second])
        assert main(["backtest", "--config", str(config)]) == 1
        out, err = capsys.readouterr()
        assert "ok: Auto Parts" in out
        assert "'auto-parts'" in err and "'Auto Parts'" in err
        kept = output_tree(root / "out" / "auto_parts")
        assert len(kept) == 5
        config = write_config(root, data_dir, [first])
        assert main(["backtest", "--config", str(config),
                     "--out-dir", str(root / "alone")]) == 0
        assert output_tree(root / "alone" / "auto_parts") == kept


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
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(tmp_path / "nope.json")


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
        ({"manifests": "manifests/auto.json"}, "manifests must be a list of paths"),
        ({"manifests": ["a.json", 3]}, "manifests must be a list of paths"),
        ({"frequency": "weekly"}, "unknown frequency 'weekly'"),
    ])
    def test_bad_config_value_exits_2(self, small_universe, capsys, overrides, match):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests)
        config.write_text(json.dumps({**json.loads(config.read_text()), **overrides}))
        assert main(["backtest", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert match in err
        assert "Traceback" not in err
        assert not (root / "out").exists()

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

    def test_risk_free_nan_in_json_writes_nothing(self, small_universe, capsys):
        root, data_dir, manifests = small_universe
        config = write_config(root, data_dir, manifests)
        config.write_text(config.read_text().replace('"frequency"', '"risk_free": NaN, "frequency"'))
        assert main(["validate", "--config", str(config)]) == 2
        assert main(["backtest", "--config", str(config)]) == 2
        assert "risk_free must be a finite number" in capsys.readouterr().err
        assert not (root / "out").exists()

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
