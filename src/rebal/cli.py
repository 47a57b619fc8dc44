"""Command-line front end: ingestion -> backtest -> metrics -> reports.

Two commands:

* ``rebal backtest --config run.json [flag overrides]`` runs every sector
  manifest named in the config and writes one output directory per sector
  (tear sheets plus the four plot datasets).  Exits 0 only if every
  sector's artifacts were written and reparse cleanly.  A sector is
  written into a temporary sibling directory and moved into place only
  once verified, so a failed sector leaves any earlier output untouched.
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
import itertools
import json
import logging
import math
import os
import shutil
import sys
from dataclasses import dataclass, fields, replace
from datetime import date
from pathlib import Path

import numpy as np

from . import market_data
from .errors import ConfigError, DomainError, ParseError, RebalError
from .market_data import (
    align_panel,
    clip_panel,
    iso_day,
    load_price_series,
    load_sector_manifest,
)
from .metrics import METRIC_NAMES, MetricConfig, tear_sheet
from .portfolio import REBALANCE_FREQUENCIES, CapitalPlan, RebalancePolicy
from .portfolio import rebalance_dates, run_backtest
from .report import ROW_BLOCK, emit_plot_data, export_tear_sheets, read_tear_sheets
from .returns import simple_returns, split_sample

logger = logging.getLogger(__name__)

_FLOAT_FIELDS = ("per_asset_capital", "cost_rate", "risk_free", "omega_threshold", "var_cutoff")
_CONFIG_DATES = ("start", "split", "end")


@dataclass(frozen=True)
class RunConfig:
    """One reproducible run: data locations, windows, and parameters."""

    data_dir: Path
    manifests: tuple[Path, ...]
    out_dir: Path = Path("out")
    start: np.datetime64 = np.datetime64("2021-01-04")
    split: np.datetime64 = np.datetime64("2022-07-01")
    end: np.datetime64 = np.datetime64("2023-09-20")
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
        for name in _CONFIG_DATES:
            value = getattr(self, name)
            if not isinstance(value, (date, np.datetime64)):
                try:  # the price files' date grammar, on every Python version
                    value = iso_day(value)
                except ValueError:
                    raise ConfigError(f"bad date for {name!r}: {value!r}") from None
            object.__setattr__(self, name, np.datetime64(value, "D"))
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and math.isfinite(value)):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        ppy = self.periods_per_year
        if isinstance(ppy, bool) or not isinstance(ppy, int) or ppy < 1:
            raise ConfigError(f"periods_per_year must be a positive integer, got {ppy!r}")
        try:
            CapitalPlan(self.per_asset_capital, 1)
            RebalancePolicy(self.frequency, self.cost_rate)
            self.metric_config()
        except DomainError as exc:
            raise ConfigError(str(exc)) from None
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


_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


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
    try:
        config = RunConfig(**raw)
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


def _preflight(config: RunConfig) -> None:
    """Reject a manifest listed twice, or two sectors whose names give one
    output directory, before any sector runs.  Each sector reads its manifest
    again as its first stage, where a bad one fails it; this read goes through
    ``market_data``, which perfbench's tracer of this module's names skips."""
    if not config.manifests:
        raise ConfigError("no sector manifests configured")
    seen, slugs = set(), {}
    for path in config.manifests:
        if path.resolve() in seen:
            raise ConfigError(f"manifest {path} is listed twice")
        seen.add(path.resolve())
        try:
            sector = market_data.load_sector_manifest(path).sector
        except RebalError:
            continue
        slug = _sector_slug(sector)
        if slug in slugs:
            raise ConfigError(f"sectors {slugs[slug]!r} and {sector!r} "
                              f"share the output directory {slug!r}")
        slugs[slug] = sector


def _load_sector(config: RunConfig, manifest_path: Path, parsed: dict):
    """Manifest -> load -> align -> clip for one sector.

    Returns (manifest, coverage, clipped panel), where coverage lists each
    ticker with its observation count before alignment; the raw series are
    not kept.  ``parsed`` is the run's price-file cache (see
    ``load_price_series``).  Any RebalError is re-raised annotated with the
    sector and the stage that failed.
    """
    stage = "manifest"
    sector = manifest_path.stem
    try:
        manifest = load_sector_manifest(manifest_path)
        sector = manifest.sector
        stage = "load"
        series = [load_price_series(resolve_price_file(config.data_dir, t), t, parsed=parsed)
                  for t in manifest.tickers]
        benchmark = load_price_series(resolve_price_file(config.data_dir, manifest.benchmark),
                                      manifest.benchmark, parsed=parsed, keep=True)
        stage = "align"
        panel = align_panel(series, benchmark)
        stage = "clip"
        coverage = [(s.ticker, len(s)) for s in series]
        return manifest, coverage, clip_panel(panel, config.start, config.end)
    except RebalError as exc:
        raise _stage_error(sector, stage, exc) from exc


# How many text columns lead and trail each plot dataset's numeric columns.
_TEXT_COLUMNS = {
    "shares": (1, 0),          # date | numbers...
    "weights": (1, 0),
    "cumulative": (1, 1),      # date | numbers... | segment
    "distributions": (2, 0),   # frequency, stat | number
}


def _reparse_table(kind: str, path: Path) -> None:
    """Re-read one plot dataset: every row has the header's column count and
    every numeric cell parses as a finite float.

    The body is parsed ``ROW_BLOCK`` lines at a time, with the errors of one
    whole-body parse: a malformed row wins over a blank line, and a blank
    line over a non-finite cell, wherever they are.
    """
    head, tail = _TEXT_COLUMNS[kind]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{kind} file is empty", path)
        numeric = len(header) - head - tail
        if numeric < 1:
            raise ParseError(f"{kind} header needs at least {head + tail + 1} columns", path, 1)
        strings = [(f"text{i}", str) for i in range(head + tail)]
        dtype = strings[:head] + [("numbers", np.float64, (numeric,))] + strings[head:]
        options = dict(dtype=dtype, delimiter=",", comments=None, ndmin=1)
        line, rows, blank, bad = reader.line_num + 1, 0, None, None
        while block := list(itertools.islice(fh, ROW_BLOCK)):
            empty = [not text.rstrip("\r\n") for text in block]
            if blank is None and any(empty):
                blank = ParseError(f"blank line in {kind} file", path, line + empty.index(True))
            if not all(empty):
                try:
                    table = np.loadtxt(block, **options)
                except ValueError:
                    # np.loadtxt's message numbers the rows of its input: parse
                    # again behind as many good rows as came before this block
                    good = itertools.repeat(",".join(["0"] * len(header)), rows)
                    try:
                        np.loadtxt(itertools.chain(good, block), **options)
                    except ValueError as exc:
                        raise ParseError(f"malformed {kind} file: {exc}", path) from None
                finite = np.isfinite(table["numbers"])
                if bad is None and not finite.all():  # numbered as if no line is blank
                    row, col = np.argwhere(~finite)[0]
                    cell = str(float(table["numbers"][row, col]))
                    bad = ParseError(f"not a finite number: {cell!r}", path, line + int(row))
                rows += len(table)
            line += len(block)
    if not rows:
        raise ParseError(f"{kind} file has no data rows", path)
    if blank or bad:
        raise blank or bad


def _reparse_outputs(files: dict[str, Path], tear_sheet_path: Path, fmt: str) -> None:
    """Re-read everything just written; raises if any artifact is unreadable
    or holds a non-finite number."""
    for sheet in read_tear_sheets(tear_sheet_path, fmt):
        for name in METRIC_NAMES:
            value = getattr(sheet, name)
            if value is not None and not math.isfinite(value):
                raise ParseError(f"non-finite {name} in {sheet.window_label}", tear_sheet_path)
    for kind, path in files.items():
        _reparse_table(kind, path)


def _run_sector(config: RunConfig, manifest_path: Path, parsed: dict) -> tuple[str, Path]:
    """Backtest one sector manifest and write its artifacts into a temporary
    sibling of the output directory, which replaces it once they verify.

    Returns (sector name, output directory).  Any RebalError is re-raised
    annotated with the pipeline stage that failed.
    """
    manifest, _, panel = _load_sector(config, manifest_path, parsed)
    sector = manifest.sector
    staging = None
    stage = "backtest"
    try:
        plan = CapitalPlan(config.per_asset_capital, len(manifest.tickers))
        policy = RebalancePolicy(config.frequency, config.cost_rate)
        result = run_backtest(panel, plan, policy)

        stage = "metrics"
        cfg = config.metric_config()
        portfolio_daily = simple_returns(panel.calendar, result.value)
        benchmark_daily = simple_returns(panel.calendar, panel.benchmark)
        p_in, p_out = split_sample(portfolio_daily, config.split)
        b_in, b_out = split_sample(benchmark_daily, config.split)
        sheets = [
            tear_sheet(p_in, b_in, cfg, "in_sample"),
            tear_sheet(p_out, b_out, cfg, "out_of_sample"),
            tear_sheet(portfolio_daily, benchmark_daily, cfg, "overall"),
        ]

        stage = "report"
        slug = _sector_slug(sector)
        out_dir = config.out_dir / slug
        staging = config.out_dir / f".{slug}.partial-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        benchmark_cum = panel.benchmark / panel.benchmark[0] - 1.0
        files = emit_plot_data(result, benchmark_cum, config.split, staging)
        fmt = config.tear_sheet_format
        ts_path = export_tear_sheets(sheets, staging / f"tear_sheets.{fmt}", fmt)

        stage = "verify"
        _reparse_outputs(files, ts_path, fmt)
        retired = staging.with_name(staging.name + "-old")
        if out_dir.exists():
            out_dir.rename(retired)
        staging.rename(out_dir)
        shutil.rmtree(retired, ignore_errors=True)
        return sector, out_dir
    except RebalError as exc:
        raise _stage_error(sector, stage, exc) from exc
    finally:
        if staging is not None and staging.exists():
            shutil.rmtree(staging)


def cmd_backtest(config: RunConfig) -> int:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    parsed: dict = {}
    failures = 0
    for manifest_path in config.manifests:
        try:
            sector, out_dir = _run_sector(config, manifest_path, parsed)
            print(f"ok: {sector} -> {out_dir}")
        except RebalError as exc:
            failures += 1
            print(f"error: {exc}", file=sys.stderr)
    return 0 if failures == 0 else 1


def cmd_validate(config: RunConfig) -> int:
    parsed: dict = {}
    status = 0
    for manifest_path in config.manifests:
        try:
            manifest, coverage, panel = _load_sector(config, manifest_path, parsed)
        except RebalError as exc:
            print(f"error: {manifest_path}: {exc}", file=sys.stderr)
            status = 1
            continue
        calendar = panel.calendar
        print(f"sector {manifest.sector}: calendar {calendar[0]}..{calendar[-1]} "
              f"({len(calendar)} trading days)")
        coverage = ", ".join(f"{ticker}={n}" for ticker, n in coverage)
        print(f"  raw coverage: {coverage}")
        planned = rebalance_dates(calendar, config.frequency)
        print(f"  planned rebalances ({config.frequency}): {len(planned)}")
        for day in np.datetime_as_string(planned).tolist():
            print(f"    {day}")
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
        p.add_argument("--frequency", choices=REBALANCE_FREQUENCIES)
        p.add_argument("--start", metavar="YYYY-MM-DD")
        p.add_argument("--split", metavar="YYYY-MM-DD")
        p.add_argument("--end", metavar="YYYY-MM-DD")
        p.add_argument("--capital", type=float, dest="per_asset_capital",
                       help="capital per constituent")
        p.add_argument("--cost-rate", type=float, help="fraction of traded notional")
        p.add_argument("--risk-free", type=float, help="annual risk-free rate")
        p.add_argument("--periods-per-year", type=int)
    return parser


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    """Replace config fields with the flags given; each flag's dest is its field name."""
    overrides = {
        name: getattr(args, name) for name in _CONFIG_KEYS
        if getattr(args, name, None) is not None
    }
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
        _preflight(config)
        return (cmd_backtest if args.command == "backtest" else cmd_validate)(config)
    except RebalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
