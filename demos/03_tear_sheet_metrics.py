"""Score a backtest with the fifteen-statistic tear sheet.

Runs one yearly-rebalanced portfolio over the full study window, splits
its daily returns into training and evaluation halves, and prints the
tear sheet for each window next to the benchmark-relative regression
(alpha, beta).  Also shows the box-plot summaries behind the return
distribution dataset.  Run:

    python demos/03_tear_sheet_metrics.py
"""

import tempfile
from datetime import date
from pathlib import Path

from rebal import (
    METRIC_NAMES,
    MetricConfig,
    RebalancePolicy,
    aggregate,
    align_panel,
    box_plot_summary,
    load_price_series,
    load_sector_manifest,
    run_backtest,
    simple_returns,
    split_sample,
    tear_sheet,
)
from rebal.synthetic import generate_universe

workdir = Path(tempfile.mkdtemp(prefix="rebal_demo_"))
data_dir, manifest_paths = generate_universe(
    workdir, n_sectors=1, tickers_per_sector=10, seed=2021,
)
manifest = load_sector_manifest(manifest_paths[0])
series = [load_price_series(data_dir / f"{t}.csv", t) for t in manifest.tickers]
benchmark = load_price_series(data_dir / f"{manifest.benchmark}.csv",
                              manifest.benchmark)
panel = align_panel(series, benchmark)

result = run_backtest(panel, RebalancePolicy("yearly", per_asset_capital=100_000.0))
print(f"{manifest.sector}: {len(panel.calendar)} days, "
      f"rebalanced on {', '.join(str(d) for d in result.rebalance_dates)}")

portfolio = simple_returns(panel.calendar, result.value)
bench_returns = simple_returns(panel.calendar, panel.benchmark)
split_day = date(2022, 7, 1)
p_in, p_out = split_sample(portfolio, split_day)
b_in, b_out = split_sample(bench_returns, split_day)

cfg = MetricConfig()  # 252 trading days, zero risk-free, 5% VaR cutoff
sheets = [
    tear_sheet(p_in, b_in, cfg, "in_sample"),
    tear_sheet(p_out, b_out, cfg, "out_of_sample"),
    tear_sheet(portfolio, bench_returns, cfg, "overall"),
]

print(f"\n{'metric':>18} {'in_sample':>12} {'out_of_sample':>14} {'overall':>12}")
for name in METRIC_NAMES:
    cells = []
    for sheet in sheets:
        value = getattr(sheet, name)
        cells.append("n/a" if value is None else f"{value:.4f}")
    print(f"{name:>18} {cells[0]:>12} {cells[1]:>14} {cells[2]:>12}")

print("\nfive-number summaries of the return distribution:")
print(f"{'frequency':>10} {'min':>9} {'q1':>9} {'median':>9} {'q3':>9} {'max':>9}")
for frequency in ("daily", "weekly", "monthly", "annual"):
    series_f = portfolio if frequency == "daily" else aggregate(portfolio, frequency)
    summary = box_plot_summary(series_f)
    print(f"{frequency:>10} " + " ".join(f"{x:>9.4f}" for x in summary))
