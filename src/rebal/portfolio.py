"""Equal-weight integer-share portfolio construction and calendar rebalancing.

Construction allocates a fixed amount of capital per constituent and
rounds the resulting share counts half-away-from-zero to whole shares.
Rounding can overdraw cash by up to half a share per ticker, so an
explicit clamp follows: while cash is negative, sell one share of the
ticker whose position value exceeds its per-asset target by the most
(ties broken by ticker name).  The clamp keeps the holdings solvent and
fully deterministic.

Rebalancing repeats the same construction at the prevailing prices on
schedule dates derived from the trading calendar:

* daily   — every day after the first;
* monthly — the first trading day of each calendar month after the start
  month;
* yearly  — the first trading day on or after each anniversary of the
  start date (Feb 29 anniversaries fall through to Mar 1);
* never   — no rebalancing at all.

The start day itself is never a schedule date; the initial allocation
covers it.  Holdings change only on schedule dates.  Trades execute at
the same closing price used for marking, and residual cash earns
nothing, so with a zero cost rate portfolio value is exactly continuous
across a rebalance.

Calendars and schedules are ``datetime64[D]`` arrays; holdings and
weights are (tickers x days) matrices, rows in the panel's ticker order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import AllocationError, DomainError, InsolvencyError
from .market_data import DAY, PricePanel

logger = logging.getLogger(__name__)

REBALANCE_FREQUENCIES = ("daily", "monthly", "yearly", "never")


@dataclass(frozen=True)
class CapitalPlan:
    """Initial funding: a fixed amount of capital for each constituent."""

    per_asset_capital: float
    n_assets: int

    def __post_init__(self):
        if self.per_asset_capital <= 0.0:
            raise DomainError(f"per_asset_capital must be positive, got {self.per_asset_capital}")
        if self.n_assets < 1:
            raise DomainError(f"n_assets must be at least 1, got {self.n_assets}")

    @property
    def total_capital(self) -> float:
        return self.per_asset_capital * self.n_assets


@dataclass(frozen=True)
class RebalancePolicy:
    """How often to rebalance and what fraction of traded notional it costs."""

    frequency: str = "yearly"
    cost_rate: float = 0.0

    def __post_init__(self):
        if self.frequency not in REBALANCE_FREQUENCIES:
            raise DomainError(
                f"unknown frequency {self.frequency!r}, expected one of "
                f"{', '.join(REBALANCE_FREQUENCIES)}"
            )
        if not 0.0 <= self.cost_rate < 1.0:
            raise DomainError(f"cost_rate must lie in [0, 1), got {self.cost_rate}")


@dataclass(frozen=True)
class BacktestResult:
    """Full daily state of one backtest.

    ``value[t] = sum_i shares[i, t] * price[i, t] + cash[t]`` on every day;
    share vectors are piecewise constant and change only on
    ``rebalance_dates``.  ``shares`` (``int64``) and ``weights``
    (``float64``) are (tickers x days) matrices whose row i is
    ``tickers[i]``; ``calendar`` and ``rebalance_dates`` are
    ``datetime64[D]`` arrays.
    """

    calendar: np.ndarray
    tickers: tuple[str, ...]
    value: np.ndarray
    weights: np.ndarray
    shares: np.ndarray
    cash: np.ndarray
    rebalance_dates: np.ndarray
    initial_capital: float


def _sum_left_to_right(v: np.ndarray) -> float:
    # np.sum sums pairwise, which can differ in the last bit from adding
    # the terms one after another in ticker order; every total here must
    # be the latter so that outputs never depend on the summation scheme.
    return float(np.cumsum(v)[-1])


def _clamp_to_solvency(shares: np.ndarray, prices: np.ndarray, target: float,
                       cash: float) -> float:
    """Sell one share at a time, in place, until cash is non-negative.

    Each step sells the held position whose value exceeds ``target`` by
    the most; ``argmax`` takes the first maximum, i.e. ties go to the
    ticker that sorts first.  Returns the new cash balance.
    """
    while cash < 0.0:
        pick = int(np.argmax(np.where(shares > 0, shares * prices - target, -np.inf)))
        if shares[pick] == 0:
            raise InsolvencyError("cannot clamp overdraft: no shares left to sell")
        shares[pick] -= 1
        cash += float(prices[pick])
    return cash


def allocate(
    prices: np.ndarray,
    target: float,
    total: float,
    held: np.ndarray | None = None,
    cost_rate: float = 0.0,
) -> tuple[np.ndarray, float]:
    """Whole-share equal-weight holdings at one day's prices.

    ``prices`` is one price per ticker in sorted-ticker order.  Each
    position is sized to ``target`` of the ``total`` capital, rounded half
    away from zero to whole shares, and the overdraft clamp restores
    solvency.  When ``held`` (the current share counts) is given and
    ``cost_rate`` is positive, that fraction of the traded notional is
    charged to cash and the clamp runs again; those corrective sales are
    not charged.  Returns (int64 share counts, cash).
    """
    prices = np.asarray(prices, dtype=np.float64)
    if not np.all(np.isfinite(prices)) or np.any(prices <= 0.0):
        raise AllocationError(f"non-positive price in {prices.tolist()}")
    return _allocate(prices, target, total, held, cost_rate)


def _allocate(prices, target, total, held=None, cost_rate=0.0):
    # allocate without its price check, for a PricePanel's checked prices
    if total <= 0.0:
        raise InsolvencyError(f"portfolio value {total} is not positive")
    shares = np.floor(target / prices + 0.5).astype(np.int64)
    cash = _clamp_to_solvency(shares, prices, target, total - _sum_left_to_right(shares * prices))
    if held is not None and cost_rate > 0.0:
        cash -= cost_rate * _sum_left_to_right(np.abs(shares - held) * prices)
        cash = _clamp_to_solvency(shares, prices, target, cash)
    return shares, cash


def rebalance_dates(calendar, frequency: str) -> np.ndarray:
    """Schedule dates for a strictly increasing trading calendar under one
    frequency, as a ``datetime64[D]`` array.

    The first calendar day is never included.
    """
    calendar = np.asarray(calendar, dtype=DAY)
    if not len(calendar):
        raise DomainError("empty calendar")
    if frequency not in REBALANCE_FREQUENCIES:
        raise DomainError(f"unknown rebalance frequency {frequency!r}")
    if frequency == "never":
        return calendar[:0]
    if frequency == "daily":
        return calendar[1:]
    if frequency == "monthly":
        months = calendar.astype("datetime64[M]")
        return calendar[1:][months[1:] != months[:-1]]
    # yearly: first trading day on/after each anniversary of the start date;
    # a Feb 29 start is 28 days after Feb 1, which is Mar 1 in a common year
    start_month = calendar[0].astype("datetime64[M]")
    offset = calendar[0] - start_month.astype(DAY)
    years = int(calendar[-1].astype("datetime64[Y]") - start_month.astype("datetime64[Y]"))
    anniversaries = (start_month + 12 * np.arange(1, years + 1)).astype(DAY) + offset
    anniversaries = anniversaries[anniversaries <= calendar[-1]]
    return calendar[np.unique(np.searchsorted(calendar, anniversaries))]


def run_backtest(panel: PricePanel, plan: CapitalPlan, policy: RebalancePolicy) -> BacktestResult:
    """Simulate the portfolio over a panel's full calendar.

    Day 0 is the initial allocation at day-0 prices; on each schedule date
    the holdings are rebalanced at that day's prices before marking to
    market.  Holdings only change on those trade dates, so each span
    between two of them is filled in one slice, and value and weights are
    computed for the whole run at once.
    """
    if len(panel.tickers) != plan.n_assets:
        raise AllocationError(
            f"plan expects {plan.n_assets} assets, panel has {len(panel.tickers)}"
        )

    n_days = len(panel.calendar)
    applied = rebalance_dates(panel.calendar, policy.frequency)
    bounds = [0, *np.searchsorted(panel.calendar, applied).tolist(), n_days]
    prices = panel.prices
    shares = np.empty(prices.shape, dtype=np.int64)
    cash = np.empty(n_days, dtype=np.float64)

    held, balance = _allocate(prices[:, 0], plan.per_asset_capital, plan.total_capital)
    for lo, hi in zip(bounds, bounds[1:]):
        if lo > 0:
            total = _sum_left_to_right(held * prices[:, lo]) + balance
            held, balance = _allocate(prices[:, lo], total / plan.n_assets, total, held,
                                      policy.cost_rate)
        shares[:, lo:hi] = held[:, None]
        cash[lo:hi] = balance

    # the axis-0 reduction adds ticker rows one after another, in the same
    # order as _sum_left_to_right
    weights = shares * prices
    value = np.add.reduce(weights, axis=0) + cash
    weights /= value

    logger.debug(
        "backtest over %d days, %d tickers, %d rebalances (%s)",
        n_days, len(panel.tickers), len(applied), policy.frequency,
    )
    return BacktestResult(
        calendar=panel.calendar,
        tickers=panel.tickers,
        value=value,
        weights=weights,
        shares=shares,
        cash=cash,
        rebalance_dates=applied,
        initial_capital=plan.total_capital,
    )
