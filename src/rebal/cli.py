"""Command-line front end: ingestion -> backtest -> metrics -> reports.

Two commands:

* ``rebal backtest --config run.json [flag overrides]`` runs every sector
  manifest named in the config and writes one output directory per sector
  (tear sheets plus the four plot datasets), verified in a temporary
  directory under the output directory before it replaces the last one.
* ``rebal validate --config run.json`` is a dry run: it loads and aligns
  the data, reports calendar span, per-ticker coverage, and the planned
  rebalance dates, and writes nothing.

A config, manifest or output directory that is bad or cannot be read or
made exits 2 before any sector runs.  A failed sector, by a price file,
write or final rename too, prints ``error: ...`` naming it and its stage
and keeps its earlier output; the rest still run, and the exit is 1.

Configuration comes from a single JSON file whose keys mirror RunConfig
fields; command-line flags win over the file.  The ``REBAL_LOG``
environment variable (error, info, debug) controls log verbosity.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import sys
import tempfile
from dataclasses import dataclass, fields, replace
from datetime import date
from pathlib import Path

import numpy as np

from . import market_data
from .errors import ConfigError, DomainError, ParseError, RebalError, require_number
from .market_data import (PriceCache, align_panel, clip_panel, iso_day, load_price_series,
                          load_sector_manifest, resolve_price_file)
from .metrics import MetricConfig, tear_sheet
from .portfolio import REBALANCE_FREQUENCIES, RebalancePolicy, rebalance_dates, run_backtest
from .report import emit_plot_data, export_tear_sheets, read_tear_sheets, reparse_table
from .returns import simple_returns, split_sample

_FLOAT_FIELDS = ("per_asset_capital", "cost_rate", "risk_free", "omega_threshold", "var_cutoff")
_CONFIG_DATES = ("start", "split", "end")
WINDOWS = ("in_sample", "out_of_sample", "overall")  # the tear sheets' windows, in order


@dataclass(frozen=True)
class RunConfig:
    """One reproducible run: data locations, windows, and parameters."""

    data_dir: Path
    manifests: tuple[Path, ...]
    out_dir: Path = Path("out")
    start: np.datetime64 = np.datetime64("2021-01-04")
    split: np.datetime64 = np.datetime64("2022-07-01")
    end: np.datetime64 = np.datetime64("2023-09-20")
    frequency: str = RebalancePolicy.frequency
    per_asset_capital: float = RebalancePolicy.per_asset_capital
    cost_rate: float = RebalancePolicy.cost_rate
    periods_per_year: int = MetricConfig.periods_per_year
    risk_free: float = MetricConfig.risk_free_rate_annual
    omega_threshold: float = MetricConfig.omega_threshold_daily
    var_cutoff: float = MetricConfig.var_cutoff
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
        try:
            for name in _FLOAT_FIELDS:  # named as the config names them
                object.__setattr__(self, name, require_number(name, getattr(self, name)))
            self.policy()
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

    def policy(self) -> RebalancePolicy:
        return RebalancePolicy(self.frequency, self.cost_rate, self.per_asset_capital)

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
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except ValueError as exc:  # not UTF-8, not JSON, or an int of too many digits
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


def _sector_slug(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name.strip().lower()) or "sector"


def _stage_error(sector: str, stage: str, exc: RebalError | OSError) -> RebalError:
    return RebalError(f"sector {sector!r} failed at stage {stage}: {exc}")


def _preflight(config: RunConfig) -> None:
    """Reject a manifest listed twice or that cannot be opened (an OSError), or
    two sectors whose names give one output directory, before any sector runs.
    A manifest that opens but does not load fails its own sector; this read goes
    through ``market_data``, which perfbench's tracer of this module's names skips."""
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
    ``load_price_series``).  Any RebalError or OSError is re-raised annotated
    with the sector and the stage that failed.
    """
    stage = "manifest"
    sector = manifest_path.stem
    try:
        manifest = load_sector_manifest(manifest_path)
        sector = manifest.sector
        stage = "load"
        *series, benchmark = [load_price_series(resolve_price_file(config.data_dir, t), t,
                                                parsed=parsed, keep=t == manifest.benchmark)
                              for t in (*manifest.tickers, manifest.benchmark)]
        stage = "align"
        panel = align_panel(series, benchmark)
        stage = "clip"
        coverage = [(s.ticker, len(s)) for s in series]
        return manifest, coverage, clip_panel(panel, config.start, config.end)
    except (RebalError, OSError) as exc:
        raise _stage_error(sector, stage, exc) from exc


def _reparse_outputs(files: dict[str, Path], tear_sheet_path: Path) -> None:
    """Re-read everything just written; raises a ParseError if an artifact is
    unreadable or holds a non-finite number, or if the tear sheet does not
    hold exactly the run's ``WINDOWS``, in order."""
    windows = tuple(sheet.window_label for sheet in read_tear_sheets(tear_sheet_path))
    if windows != WINDOWS:
        raise ParseError(f"expected windows {WINDOWS}, got {windows}", tear_sheet_path,
                         1 if tear_sheet_path.suffix == ".csv" else None)
    for kind, path in files.items():
        reparse_table(kind, path)


def _run_sector(config: RunConfig, manifest_path: Path, parsed: dict) -> str:
    """Backtest one sector manifest; return ``ok: <sector> -> <output dir>``.

    Artifacts are written into ``new`` in a temporary directory under
    ``out_dir`` (mkdtemp makes that one 0700) and, once verified, renamed
    into place; the previous tree moves to ``old``, and back if that rename
    fails.  A RebalError or OSError is re-raised naming the failed stage.
    """
    manifest, _, panel = _load_sector(config, manifest_path, parsed)
    # glibc only: return the freed raw series' heap pages, so the peak does not hinge on layout
    getattr(ctypes.pythonapi, "malloc_trim", lambda pad: 0)(0)
    stage = "backtest"
    try:
        result = run_backtest(panel, config.policy())

        stage = "metrics"
        cfg = config.metric_config()
        portfolio_daily = simple_returns(panel.calendar, result.value)
        benchmark_daily = simple_returns(panel.calendar, panel.benchmark)
        p_in, p_out = split_sample(portfolio_daily, config.split)
        b_in, b_out = split_sample(benchmark_daily, config.split)
        samples = [(p_in, b_in), (p_out, b_out), (portfolio_daily, benchmark_daily)]
        sheets = [tear_sheet(p, b, cfg, label) for (p, b), label in zip(samples, WINDOWS)]

        stage = "report"
        out_dir = config.out_dir / _sector_slug(manifest.sector)
        with tempfile.TemporaryDirectory(dir=config.out_dir, prefix=f".{out_dir.name}.",
                                         ignore_cleanup_errors=True) as tmp:
            new, old = Path(tmp, "new"), Path(tmp, "old")
            benchmark_cum = panel.benchmark / panel.benchmark[0] - 1.0
            files = emit_plot_data(result, benchmark_cum, config.split, new)
            ts_path = export_tear_sheets(sheets, new / f"tear_sheets.{config.tear_sheet_format}")

            stage = "verify"
            _reparse_outputs(files, ts_path)
            if out_dir.exists():
                out_dir.rename(old)
            try:
                new.rename(out_dir)
            except OSError:
                if old.exists():
                    old.rename(out_dir)
                raise
        return f"ok: {manifest.sector} -> {out_dir}"
    except (RebalError, OSError) as exc:
        raise _stage_error(manifest.sector, stage, exc) from exc


def _validate_sector(config: RunConfig, manifest_path: Path, parsed: dict) -> str:
    """The dry run's report on one sector: span, coverage, planned rebalances."""
    manifest, coverage, panel = _load_sector(config, manifest_path, parsed)
    planned = np.datetime_as_string(rebalance_dates(panel.calendar, config.frequency)).tolist()
    return "\n".join([
        f"sector {manifest.sector}: calendar {panel.calendar[0]}..{panel.calendar[-1]} "
        f"({len(panel)} trading days)",
        "  raw coverage: " + ", ".join(f"{ticker}={n}" for ticker, n in coverage),
        f"  planned rebalances ({config.frequency}): {len(planned)}",
        *(f"    {day}" for day in planned),
    ])


def _each_sector(config: RunConfig, step) -> int:
    """Print ``step(config, manifest_path, parsed)`` for each manifest, with one
    price-file cache; a failed sector prints ``error: <exception>``, naming it
    and its stage, and the rest still run.  Returns 1 if any failed, else 0."""
    parsed = PriceCache()
    status = 0
    for manifest_path in config.manifests:
        try:
            print(step(config, manifest_path, parsed))
        except RebalError as exc:
            status = 1
            print(f"error: {exc}", file=sys.stderr)
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
        if args.command == "validate":
            return _each_sector(config, _validate_sector)
        config.out_dir.mkdir(parents=True, exist_ok=True)
        return _each_sector(config, _run_sector)
    except (RebalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
