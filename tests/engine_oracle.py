"""Reference backtest engine: a per-day loop over {ticker: value} dicts.

This is the straightforward formulation of the portfolio mechanics that
``rebal.portfolio.run_backtest`` implements on matrices.  It walks every
calendar day, marks a dict ledger to market with Python's left-to-right
``sum``, and rebalances on schedule dates.  Tests compare the array engine
against it for exact (bitwise) equality.

The schedule comes from the per-day loop in ``calendar_oracle``; nothing
comes from ``rebal.portfolio``, so that a change to the engine cannot
change its judge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from calendar_oracle import rebalance_dates
from rebal.errors import AllocationError, InsolvencyError


@dataclass
class Ledger:
    """Holdings snapshot: whole shares per ticker plus residual cash."""

    shares: dict[str, int]
    cash: float

    def value(self, prices: dict[str, float]) -> float:
        return sum(self.shares[t] * prices[t] for t in self.shares) + self.cash


@dataclass
class OracleResult:
    value: np.ndarray
    cash: np.ndarray
    shares: dict[str, np.ndarray]
    weights: dict[str, np.ndarray]
    rebalance_dates: tuple[date, ...]


def round_half_away_from_zero(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0.0 else -int(math.floor(-x + 0.5))


def clamp_overdraft(shares, prices, targets, cash) -> float:
    """Sell one share at a time of the most overweight ticker (ties by
    name) until cash is non-negative."""
    while cash < 0.0:
        pick = None
        pick_excess = None
        for ticker in sorted(shares):
            if shares[ticker] == 0:
                continue
            excess = shares[ticker] * prices[ticker] - targets[ticker]
            if pick is None or excess > pick_excess:
                pick = ticker
                pick_excess = excess
        if pick is None:
            raise InsolvencyError("cannot clamp overdraft: no shares left to sell")
        shares[pick] -= 1
        cash += prices[pick]
    return cash


def initial_allocation(prices: dict[str, float], per_asset_capital: float) -> Ledger:
    for ticker, price in prices.items():
        if not np.isfinite(price) or price <= 0.0:
            raise AllocationError(f"non-positive price for {ticker!r}: {price}")
    shares = {t: round_half_away_from_zero(per_asset_capital / p) for t, p in prices.items()}
    invested = sum(shares[t] * prices[t] for t in shares)
    cash = per_asset_capital * len(prices) - invested
    targets = {t: per_asset_capital for t in shares}
    return Ledger(shares, clamp_overdraft(shares, prices, targets, cash))


def rebalance(ledger: Ledger, prices: dict[str, float], cost_rate: float) -> Ledger:
    total = ledger.value(prices)
    if total <= 0.0:
        raise InsolvencyError(f"portfolio value {total} is not positive")
    target = total / len(ledger.shares)
    targets = {t: target for t in ledger.shares}
    new_shares = {t: round_half_away_from_zero(target / prices[t]) for t in ledger.shares}
    cash = total - sum(new_shares[t] * prices[t] for t in new_shares)
    cash = clamp_overdraft(new_shares, prices, targets, cash)
    if cost_rate > 0.0:
        traded = sum(abs(new_shares[t] - ledger.shares[t]) * prices[t] for t in new_shares)
        cash -= cost_rate * traded
        cash = clamp_overdraft(new_shares, prices, targets, cash)
    return Ledger(new_shares, cash)


def run_backtest(panel, per_asset_capital: float, frequency: str,
                 cost_rate: float = 0.0) -> OracleResult:
    """Day-by-day simulation over ``panel`` (a rebal PricePanel)."""
    calendar = panel.calendar.tolist()
    n_days = len(calendar)
    schedule = set(rebalance_dates(calendar, frequency))
    value = np.empty(n_days)
    cash = np.empty(n_days)
    shares = {t: np.empty(n_days, dtype=np.int64) for t in panel.tickers}
    weights = {t: np.empty(n_days) for t in panel.tickers}
    ledger = None
    applied = []
    for i, day in enumerate(calendar):
        prices = {t: float(row[i]) for t, row in zip(panel.tickers, panel.prices)}
        if i == 0:
            ledger = initial_allocation(prices, per_asset_capital)
        elif day in schedule:
            ledger = rebalance(ledger, prices, cost_rate)
            applied.append(day)
        marked = ledger.value(prices)
        value[i] = marked
        cash[i] = ledger.cash
        for t in panel.tickers:
            shares[t][i] = ledger.shares[t]
            weights[t][i] = ledger.shares[t] * prices[t] / marked
    return OracleResult(value, cash, shares, weights, tuple(applied))
