"""Command-line front end: ingestion -> backtest -> metrics -> reports.

Two commands:

* ``rebal backtest --config run.json [flag overrides]`` runs every sector
  manifest named in the config and writes one output directory per sector
  (tear sheets plus the four plot datasets).  Exits 0 only if every
  sector's artifacts were written and reparse cleanly; a failed sector's
  partial outputs are removed.
* ``rebal validate --config run.json`` is a dry run: it loads and aligns
  the data, reports calendar span, per-ticker coverage, and the planned
  rebalance dates, and writes nothing.

Configuration comes from a single JSON file whose keys mirror RunConfig
fields; command-line flags win over the file.  The ``REBAL_LOG``
environment variable (error, info, debug) controls log verbosity.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import shutil
import sys
from dataclasses import dataclass, replace
from datetime import date
from pathlib import Path

from .errors import ConfigError, ParseError, RebalError
from .market_data import (
    align_panel,
    clip_panel,
    load_price_series,
    load_sector_manifest,
)
from .metrics import MetricConfig, tear_sheet
from .portfolio import FREQUENCIES as REBALANCE_FREQUENCIES
from .portfolio import CapitalPlan, RebalancePolicy, rebalance_dates, run_backtest
from .report import emit_plot_data, export_tear_sheets, read_tear_sheets
from .returns import simple_returns, split_sample

logger = logging.getLogger(__name__)

WINDOW_LABELS = ("in_sample", "out_of_sample", "overall")


_FLOAT_FIELDS = ("per_asset_capital", "cost_rate", "risk_free", "omega_threshold", "var_cutoff")


@dataclass(frozen=True)
class RunConfig:
    """One reproducible run: data locations, windows, and parameters."""

    data_dir: Path
    manifests: tuple[Path, ...]
    out_dir: Path = Path("out")
    start: date = date(2021, 1, 4)
    split: date = date(2022, 7, 1)
    end: date = date(2023, 9, 20)
    frequency: str = "yearly"
    per_asset_capital: float = 100_000.0
    cost_rate: float = 0.0
    periods_per_year: int = 252
    risk_free: float = 0.0
    omega_threshold: float = 0.0
    var_cutoff: float = 0.05
    tear_sheet_format: str = "csv"

    def __post_init__(self):
        if not isinstance(self.manifests, (list, tuple)) or not all(
            isinstance(p, (str, os.PathLike)) for p in self.manifests
        ):
            raise ConfigError(f"manifests must be a list of paths, got {self.manifests!r}")
        object.__setattr__(self, "data_dir", Path(self.data_dir))
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        object.__setattr__(self, "manifests", tuple(Path(p) for p in self.manifests))
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and math.isfinite(value)):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        ppy = self.periods_per_year
        if isinstance(ppy, bool) or not isinstance(ppy, int) or ppy < 1:
            raise ConfigError(f"periods_per_year must be a positive integer, got {ppy!r}")
        if self.frequency not in REBALANCE_FREQUENCIES:
            raise ConfigError(
                f"unknown frequency {self.frequency!r}, expected one of "
                f"{', '.join(REBALANCE_FREQUENCIES)}"
            )
        if not (self.start < self.split <= self.end):
            raise ConfigError(
                f"window must satisfy start < split <= end, got "
                f"{self.start} / {self.split} / {self.end}"
            )
        if self.tear_sheet_format not in ("csv", "json"):
            raise ConfigError(f"unknown tear_sheet_format {self.tear_sheet_format!r}")

    def metric_config(self) -> MetricConfig:
        return MetricConfig(
            periods_per_year=self.periods_per_year,
            risk_free_rate_annual=self.risk_free,
            omega_threshold_daily=self.omega_threshold,
            var_cutoff=self.var_cutoff,
        )


_CONFIG_DATES = ("start", "split", "end")
_CONFIG_KEYS = (
    "data_dir", "manifests", "out_dir", "start", "split", "end", "frequency",
    "per_asset_capital", "cost_rate", "periods_per_year", "risk_free",
    "omega_threshold", "var_cutoff", "tear_sheet_format",
)


def load_run_config(path) -> RunConfig:
    """Parse a run-config JSON file."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: bad JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
    if "data_dir" not in raw or "manifests" not in raw:
        raise ConfigError(f"{path}: config needs 'data_dir' and 'manifests'")
    kwargs = dict(raw)
    for key in _CONFIG_DATES:
        if key in kwargs:
            try:
                kwargs[key] = date.fromisoformat(kwargs[key])
            except (TypeError, ValueError):
                raise ConfigError(f"{path}: bad date for {key!r}: {kwargs[key]!r}")
    try:
        config = RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}")
    base = path.parent
    paths = {"data_dir": base / config.data_dir,
             "manifests": tuple(base / m for m in config.manifests)}
    if "out_dir" in raw:
        paths["out_dir"] = base / config.out_dir
    return replace(config, **paths)


def resolve_price_file(data_dir: Path, ticker: str) -> Path:
    """Locate a ticker's price file: <ticker>.csv, else a long-format prices.csv."""
    per_ticker = data_dir / f"{ticker}.csv"
    if per_ticker.is_file():
        return per_ticker
    long_format = data_dir / "prices.csv"
    if long_format.is_file():
        return long_format
    raise ConfigError(f"no price file for ticker {ticker!r} under {data_dir}")


def _sector_slug(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name.strip().lower()) or "sector"


def _stage_error(sector: str, stage: str, exc: RebalError) -> RebalError:
    return RebalError(f"sector {sector!r} failed at stage {stage}: {exc}")


def _load_sector(config: RunConfig, manifest_path: Path, parsed: dict):
    """Manifest -> load -> align -> clip for one sector.

    Returns (manifest, raw series, clipped panel).  ``parsed`` is the run's
    price-file cache (see ``load_price_series``).  Any RebalError is
    re-raised annotated with the sector and the stage that failed.
    """
    stage = "manifest"
    sector = manifest_path.stem
    try:
        manifest = load_sector_manifest(manifest_path)
        sector = manifest.sector
        stage = "load"
        series = [
            load_price_series(resolve_price_file(config.data_dir, t), t, parsed=parsed)
            for t in manifest.tickers
        ]
        benchmark = load_price_series(
            resolve_price_file(config.data_dir, manifest.benchmark), manifest.benchmark,
            parsed=parsed,
        )
        stage = "align"
        panel = align_panel(series, benchmark)
        stage = "clip"
        return manifest, series, clip_panel(panel, config.start, config.end)
    except RebalError as exc:
        raise _stage_error(sector, stage, exc) from exc


# Which columns of each plot dataset hold numbers: a fixed leading span of
# text columns, then numeric columns, with an optional trailing text column.
_NUMERIC_SPANS = {
    "shares": (1, 0),          # date | numbers...
    "weights": (1, 0),
    "cumulative": (1, 1),      # date | numbers... | segment
    "distributions": (2, 0),   # frequency, stat | number
}


def _reparse_outputs(files: dict[str, Path], tear_sheet_path: Path, fmt: str) -> None:
    """Re-read everything just written; raises if any artifact is unreadable."""
    read_tear_sheets(tear_sheet_path, fmt)
    for kind, path in files.items():
        skip_head, skip_tail = _NUMERIC_SPANS[kind]
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if len(rows) < 2:
            raise ParseError(f"{kind} file has no data rows", path)
        header, body = rows[0], rows[1:]
        for lineno, row in enumerate(body, start=2):
            if len(row) != len(header):
                raise ParseError(f"ragged row in {kind} file", path, lineno)
            numeric = row[skip_head: len(row) - skip_tail or None]
            for cell in numeric:
                try:
                    float(cell)
                except ValueError:
                    raise ParseError(f"unparseable number {cell!r}", path, lineno)


def _run_sector(
    config: RunConfig, manifest_path: Path, parsed: dict, written: dict[str, str]
) -> tuple[str, Path]:
    """Backtest one sector manifest and write its artifacts.

    ``written`` maps each output slug already written in this run to its
    sector; a sector whose slug is taken fails before touching the output
    tree.  Returns (sector name, output directory).  Any RebalError is
    re-raised annotated with the pipeline stage that failed.
    """
    manifest, _, panel = _load_sector(config, manifest_path, parsed)
    sector = manifest.sector
    out_dir = None
    stage = "backtest"
    try:
        plan = CapitalPlan(config.per_asset_capital, len(manifest.tickers))
        policy = RebalancePolicy(config.frequency, config.cost_rate)
        result = run_backtest(panel, plan, policy)

        stage = "metrics"
        cfg = config.metric_config()
        portfolio_daily = simple_returns(panel.calendar, result.value)
        benchmark_daily = simple_returns(panel.calendar, panel.benchmark)
        p_split = split_sample(portfolio_daily, config.split)
        b_split = split_sample(benchmark_daily, config.split)
        sheets = [
            tear_sheet(p_split.in_sample, b_split.in_sample, cfg, "in_sample"),
            tear_sheet(p_split.out_of_sample, b_split.out_of_sample, cfg, "out_of_sample"),
            tear_sheet(portfolio_daily, benchmark_daily, cfg, "overall"),
        ]

        stage = "report"
        slug = _sector_slug(sector)
        if slug in written:
            raise ConfigError(
                f"output directory {slug!r} was already written by sector "
                f"{written[slug]!r}"
            )
        out_dir = config.out_dir / slug
        if out_dir.exists():
            shutil.rmtree(out_dir)
        benchmark_cum = panel.benchmark / panel.benchmark[0] - 1.0
        files = emit_plot_data(result, benchmark_cum, config.split, out_dir)
        ts_path = export_tear_sheets(
            sheets, out_dir / f"tear_sheets.{config.tear_sheet_format}",
            config.tear_sheet_format,
        )

        stage = "verify"
        _reparse_outputs(files, ts_path, config.tear_sheet_format)
        return sector, out_dir
    except RebalError as exc:
        if out_dir is not None and out_dir.exists():
            shutil.rmtree(out_dir)
        raise _stage_error(sector, stage, exc) from exc


def cmd_backtest(config: RunConfig) -> int:
    if not config.manifests:
        raise ConfigError("no sector manifests configured")
    config.out_dir.mkdir(parents=True, exist_ok=True)
    parsed: dict = {}
    written: dict[str, str] = {}
    failures = 0
    for manifest_path in config.manifests:
        try:
            sector, out_dir = _run_sector(config, manifest_path, parsed, written)
            written[out_dir.name] = sector
            print(f"ok: {sector} -> {out_dir}")
        except RebalError as exc:
            failures += 1
            print(f"error: {exc}", file=sys.stderr)
    return 0 if failures == 0 else 1


def cmd_validate(config: RunConfig) -> int:
    if not config.manifests:
        raise ConfigError("no sector manifests configured")
    parsed: dict = {}
    status = 0
    for manifest_path in config.manifests:
        try:
            manifest, series, panel = _load_sector(config, manifest_path, parsed)
        except RebalError as exc:
            print(f"error: {manifest_path}: {exc}", file=sys.stderr)
            status = 1
            continue
        calendar = panel.calendar
        print(
            f"sector {manifest.sector}: calendar {calendar[0].isoformat()}"
            f"..{calendar[-1].isoformat()} ({len(calendar)} trading days)"
        )
        coverage = ", ".join(f"{s.ticker}={len(s)}" for s in series)
        print(f"  raw coverage: {coverage}")
        planned = rebalance_dates(calendar, config.frequency)
        print(f"  planned rebalances ({config.frequency}): {len(planned)}")
        for day in planned:
            print(f"    {day.isoformat()}")
    return status


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rebal",
        description="Equal-weight calendar-rebalancing backtester",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("backtest", "run backtests and write reports for every sector"),
        ("validate", "dry-run: check data, report coverage and planned rebalances"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run-config JSON file")
        p.add_argument("--data-dir", help="override price-data directory")
        p.add_argument("--out-dir", help="override output directory")
        p.add_argument("--frequency", choices=("daily", "monthly", "yearly", "never"))
        p.add_argument("--start", type=date.fromisoformat, metavar="YYYY-MM-DD")
        p.add_argument("--split", type=date.fromisoformat, metavar="YYYY-MM-DD")
        p.add_argument("--end", type=date.fromisoformat, metavar="YYYY-MM-DD")
        p.add_argument("--capital", type=float, help="capital per constituent")
        p.add_argument("--cost-rate", type=float, help="fraction of traded notional")
        p.add_argument("--risk-free", type=float, help="annual risk-free rate")
        p.add_argument("--periods-per-year", type=int)
    return parser


_FLAG_FIELDS = {
    "data_dir": "data_dir",
    "out_dir": "out_dir",
    "frequency": "frequency",
    "start": "start",
    "split": "split",
    "end": "end",
    "capital": "per_asset_capital",
    "cost_rate": "cost_rate",
    "risk_free": "risk_free",
    "periods_per_year": "periods_per_year",
}


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    overrides = {}
    for flag, field_name in _FLAG_FIELDS.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field_name] = value
    return replace(config, **overrides) if overrides else config


def _setup_logging() -> None:
    level_name = os.environ.get("REBAL_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        print(f"warning: unknown REBAL_LOG={level_name!r}, using error", file=sys.stderr)
    logging.basicConfig(
        level=levels.get(level_name, logging.ERROR),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _apply_overrides(load_run_config(args.config), args)
        if args.command == "backtest":
            return cmd_backtest(config)
        return cmd_validate(config)
    except RebalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
