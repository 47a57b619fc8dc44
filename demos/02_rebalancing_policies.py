"""Compare buy-and-hold against daily, monthly, and yearly rebalancing.

Builds one equal-weight portfolio (whole shares, fixed capital per
stock) and evolves it under each schedule over the same prices, showing
how often the schedules trade, that value is conserved through every
zero-cost rebalance, and what a transaction-cost rate does.  Run:

    python demos/02_rebalancing_policies.py
"""

import tempfile
from datetime import date
from pathlib import Path

import numpy as np

from rebal import (
    RebalancePolicy,
    align_panel,
    load_price_series,
    load_sector_manifest,
    run_backtest,
)
from rebal.synthetic import generate_universe

workdir = Path(tempfile.mkdtemp(prefix="rebal_demo_"))
data_dir, manifest_paths = generate_universe(
    workdir, start=date(2021, 1, 4), end=date(2022, 12, 30),
    n_sectors=1, tickers_per_sector=5, seed=7,
)
manifest = load_sector_manifest(manifest_paths[0])
series = [load_price_series(data_dir / f"{t}.csv", t) for t in manifest.tickers]
benchmark = load_price_series(data_dir / f"{manifest.benchmark}.csv",
                              manifest.benchmark)
panel = align_panel(series, benchmark)
capital = 100_000.0  # per stock; run_backtest sizes the portfolio from the panel

print(f"{len(panel.tickers)} stocks, {len(panel.calendar)} trading days, "
      f"capital {capital * len(panel.tickers):,.0f}\n")

print(f"{'policy':>10} {'trades':>7} {'final value':>14} {'max |w - 1/n|':>14}")
for frequency in ("never", "yearly", "monthly", "daily"):
    result = run_backtest(panel, RebalancePolicy(frequency, per_asset_capital=capital))
    # worst equal-weight deviation across the run
    n = len(panel.tickers)
    drift = float(np.max(np.abs(result.weights - 1.0 / n)))
    print(f"{frequency:>10} {len(result.rebalance_dates):>7} "
          f"{result.value[-1]:>14,.2f} {drift:>14.4f}")

print("\nvalue is continuous through a zero-cost rebalance:")
result = run_backtest(panel, RebalancePolicy("monthly", per_asset_capital=capital))
day = result.rebalance_dates[0]
i = int(np.searchsorted(panel.calendar, day))
pre = float(result.shares[:, i - 1] @ panel.prices[:, i]) + result.cash[i - 1]
print(f"  {day}: pre-trade mark {pre:,.2f} -> post-trade value "
      f"{result.value[i]:,.2f}")

print("\nshare counts are whole numbers; residual cash stays small:")
i = int(np.searchsorted(panel.calendar, result.rebalance_dates[1]))
for t, row in zip(panel.tickers, result.shares):
    print(f"  {t:>8}: {row[i - 1]:>6d} -> {row[i]:>6d} shares")
print(f"  cash after trade: {result.cash[i]:,.2f}")

print("\na cost rate drags on every trade (same monthly schedule):")
for cost_rate in (0.0, 0.001, 0.005):
    result = run_backtest(panel, RebalancePolicy("monthly", cost_rate, capital))
    print(f"  cost {cost_rate:.3f}: final value {result.value[-1]:,.2f}")
