"""Conditional reproduction of the published ten-sector NSE results.

The reference tear sheets in ``data/nse_sector_reference.json`` were
recorded from the original study of ten NSE sector portfolios (yearly
rebalancing, INR 1,00,000 per stock, 2021-01-04..2023-09-20, NIFTY 50
benchmark).  Reproducing them needs the actual NSE adjusted-close data,
which is not redistributable, so this module only runs when

    REBAL_NSE_DATA_DIR=/path/to/csvs pytest tests/test_reference_reproduction.py -s

points at a directory of per-ticker price CSVs (or a long-format
``prices.csv``) covering every ticker listed in the reference file plus
the NIFTY50 benchmark.

The comparison REPORTS deviations instead of asserting on them: the
published tables are internally inconsistent in places (the known cells
are excluded below) and their risk-free, annualization, and alpha-unit
conventions are not stated, so cell-level agreement beyond the printed
tolerances cannot be guaranteed from the tables alone.  Guidance
tolerances: 1.5 percentage points on return/volatility-style rows, 0.15
on ratio-style rows.
"""

import json
import os
from datetime import date
from pathlib import Path

import pytest

from rebal.cli import resolve_price_file
from rebal.errors import ConfigError
from rebal.market_data import align_panel, clip_panel, load_price_series
from rebal.metrics import METRIC_NAMES, MetricConfig, tear_sheet
from rebal.portfolio import CapitalPlan, RebalancePolicy, run_backtest
from rebal.returns import simple_returns, split_sample

REFERENCE_PATH = Path(__file__).parent / "data" / "nse_sector_reference.json"
DATA_DIR_ENV = "REBAL_NSE_DATA_DIR"
SECTOR_ORDER = (
    "auto", "banking", "consumer_durables", "fmcg", "it",
    "metal", "pharma", "private_banks", "psu_banks", "realty",
)
RETURN_STYLE_TOLERANCE = 1.5   # percentage points
RATIO_STYLE_TOLERANCE = 0.15


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def compute_windows(data_dir: Path, tickers, benchmark: str, reference: dict):
    """Run the full pipeline for one sector and return its three sheets."""
    series = [load_price_series(resolve_price_file(data_dir, t), t) for t in tickers]
    bench = load_price_series(resolve_price_file(data_dir, benchmark), benchmark)
    panel = align_panel(series, bench)
    panel = clip_panel(panel, date.fromisoformat(reference["start"]),
                       date.fromisoformat(reference["end"]))
    result = run_backtest(panel, CapitalPlan(100_000.0, len(tickers)),
                          RebalancePolicy("yearly"))
    cfg = MetricConfig()
    portfolio = simple_returns(panel.calendar, result.value)
    bench_returns = simple_returns(panel.calendar, panel.benchmark)
    split_day = date.fromisoformat(reference["split"])
    p_in, p_out = split_sample(portfolio, split_day)
    b_in, b_out = split_sample(bench_returns, split_day)
    return {
        "in_sample": tear_sheet(p_in, b_in, cfg, "in_sample"),
        "out_of_sample": tear_sheet(p_out, b_out, cfg, "out_of_sample"),
        "overall": tear_sheet(portfolio, bench_returns, cfg, "overall"),
    }


@pytest.mark.skipif(
    DATA_DIR_ENV not in os.environ,
    reason=f"set {DATA_DIR_ENV} to a directory of NSE adjusted-close CSVs "
           "to run the reproduction report",
)
def test_reproduction_report():
    reference = load_reference()
    data_dir = Path(os.environ[DATA_DIR_ENV])
    percent_metrics = set(reference["percent_metrics"])
    excluded_metrics = set(reference["excluded_metrics"])
    excluded_cells = {tuple(cell) for cell in reference["excluded_cells"]}

    total = within = skipped = failed_sectors = 0
    print()
    for sector in SECTOR_ORDER:
        payload = reference["sectors"][sector]
        try:
            sheets = compute_windows(data_dir, payload["tickers"],
                                     reference["benchmark"], reference)
        except (ConfigError, OSError) as exc:
            failed_sectors += 1
            print(f"{sector}: NOT RUN ({exc})")
            continue
        for window, sheet in sheets.items():
            for name in METRIC_NAMES:
                published = payload["windows"][window][name]
                if name in excluded_metrics or (sector, window, name) in excluded_cells:
                    skipped += 1
                    continue
                computed = getattr(sheet, name)
                if computed is None:
                    print(f"{sector}/{window}/{name}: computed not-available, "
                          f"published {published}")
                    continue
                if name in percent_metrics:
                    deviation = abs(computed * 100.0 - published)
                    tolerance = RETURN_STYLE_TOLERANCE
                    shown = f"{computed * 100.0:.2f} vs {published:.2f} (pp)"
                else:
                    deviation = abs(computed - published)
                    tolerance = RATIO_STYLE_TOLERANCE
                    shown = f"{computed:.2f} vs {published:.2f}"
                total += 1
                if deviation <= tolerance:
                    within += 1
                else:
                    print(f"{sector}/{window}/{name}: {shown}, "
                          f"deviation {deviation:.2f} > {tolerance}")
    print(f"reproduction report: {within}/{total} cells within guidance "
          f"tolerance, {skipped} excluded, {failed_sectors} sectors not run")
    assert failed_sectors < len(SECTOR_ORDER), "no sector could be evaluated"


def test_reference_file_is_complete():
    reference = load_reference()
    assert sorted(reference["sectors"]) == sorted(SECTOR_ORDER)
    for sector in SECTOR_ORDER:
        payload = reference["sectors"][sector]
        assert len(payload["tickers"]) == 10
        assert len(set(payload["tickers"])) == 10
        for window in ("in_sample", "out_of_sample", "overall"):
            cells = payload["windows"][window]
            assert set(cells) == set(METRIC_NAMES)
            assert all(isinstance(v, (int, float)) for v in cells.values())
    for cell in reference["excluded_cells"]:
        sector, window, metric = cell
        assert sector in reference["sectors"]
        assert metric in METRIC_NAMES
