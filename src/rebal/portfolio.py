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

from .errors import AllocationError, DomainError, InsolvencyError, require_number
from .market_data import DAY, PricePanel

logger = logging.getLogger(__name__)

REBALANCE_FREQUENCIES = ("daily", "monthly", "yearly", "never")
BLOCK_CELLS = 8192  # most holdings marked to market at a time


@dataclass(frozen=True)
class RebalancePolicy:
    """Capital per constituent, how often to rebalance, and what fraction of
    traded notional it costs."""

    frequency: str = "yearly"
    cost_rate: float = 0.0
    per_asset_capital: float = 100_000.0

    def __post_init__(self):
        require_number("per_asset_capital", self.per_asset_capital)
        require_number("cost_rate", self.cost_rate)
        if self.per_asset_capital <= 0.0:
            raise DomainError(f"per_asset_capital must be positive, got {self.per_asset_capital}")
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

    ``value[t] = sum_i shares[i, t] * prices[i, t] + cash[t]`` on every day;
    share vectors are piecewise constant and change only on
    ``rebalance_dates``.  ``shares`` (``int64``) and ``prices`` (the
    panel's read-only ``float64`` matrix, not a copy) are (tickers x days)
    matrices whose row i is ``tickers[i]``; ``calendar`` and
    ``rebalance_dates`` are ``datetime64[D]`` arrays.
    """

    calendar: np.ndarray
    tickers: tuple[str, ...]
    value: np.ndarray
    shares: np.ndarray
    prices: np.ndarray
    cash: np.ndarray
    rebalance_dates: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        """``shares * prices / value``, each holding's fraction of its day's value."""
        return self.weights_between(0, len(self.calendar))

    def weights_between(self, lo: int, hi: int) -> np.ndarray:
        """``weights[:, lo:hi]``, computed for those days alone."""
        return self.shares[:, lo:hi] * self.prices[:, lo:hi] / self.value[lo:hi]


def _sum_left_to_right(v: np.ndarray) -> float:
    # Every total adds its terms one after another in ticker order, as the
    # ufunc behind np.cumsum does (called without np.cumsum's wrapper), so
    # outputs never depend on a summation scheme such as np.sum's pairwise one.
    return float(np.add.accumulate(v)[-1])


def _sell_one(shares: np.ndarray, prices: np.ndarray, target: float) -> float:
    """One step of the overdraft clamp: sell one share, in place, and return
    its price.

    It sells the held position whose value exceeds ``target`` by the most;
    ``argmax`` takes the first maximum, i.e. ties go to the ticker that
    sorts first.
    """
    pick = int(np.argmax(np.where(shares > 0, shares * prices - target, -np.inf)))
    if shares[pick] == 0:
        raise InsolvencyError("cannot clamp overdraft: no shares left to sell")
    shares[pick] -= 1
    return float(prices[pick])


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
    return _allocate(prices, prices.min(), target, total, held, cost_rate)


def _allocate(prices, lowest, target, total, held=None, cost_rate=0.0):
    # allocate without its price check, for checked panel prices whose least is ``lowest``
    if total <= 0.0:
        raise InsolvencyError(f"portfolio value {total} is not positive")
    if not target / lowest + 0.5 < 2.0 ** 63:  # the most shares, before the int64 cast
        raise AllocationError(f"{target / lowest:.6g} shares do not fit in int64")
    shares = np.floor(target / prices + 0.5).astype(np.int64)
    cash = total - _sum_left_to_right(shares * prices)
    while cash < 0.0:  # the overdraft clamp, one share at a time
        cash += _sell_one(shares, prices, target)
    if held is not None and cost_rate > 0.0:
        cash -= cost_rate * _sum_left_to_right(np.abs(shares - held) * prices)
        while cash < 0.0:
            cash += _sell_one(shares, prices, target)
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


def run_backtest(panel: PricePanel, policy: RebalancePolicy) -> BacktestResult:
    """Simulate the portfolio over a panel's full calendar.

    Day 0 is the initial allocation at day-0 prices; on each schedule date
    the holdings are rebalanced at that day's prices before marking to
    market.  Holdings only change on those trade dates, so each span
    between two of them is filled in one slice.  Value is then summed
    ``BLOCK_CELLS`` holdings at a time.  Each ticker starts with
    ``policy.per_asset_capital``.
    """
    n_days = len(panel.calendar)
    applied = rebalance_dates(panel.calendar, policy.frequency)
    bounds = [0, *np.searchsorted(panel.calendar, applied).tolist(), n_days]
    prices = panel.prices
    shares = np.empty(prices.shape, dtype=np.int64)
    cash = np.empty(n_days, dtype=np.float64)

    lowest = prices.min(axis=0)  # each day's, for _allocate's int64 bound
    held, balance = _allocate(prices[:, 0], lowest[0], policy.per_asset_capital,
                              policy.per_asset_capital * len(panel.tickers))
    for lo, hi in zip(bounds, bounds[1:]):
        if lo > 0:
            day = prices[:, lo]
            total = _sum_left_to_right(held * day) + balance
            held, balance = _allocate(day, lowest[lo], total / len(panel.tickers), total, held,
                                      policy.cost_rate)
        shares[:, lo:hi] = held[:, None]
        cash[lo:hi] = balance

    # the axis-0 reduction adds ticker rows one after another, in the same
    # order as _sum_left_to_right, but over a single day it sums pairwise:
    # so no block is one day long, the last taking in a lone last day
    value = np.empty(n_days)
    edges = [*range(0, n_days - 1, max(2, BLOCK_CELLS // len(panel.tickers))), n_days]
    for lo, hi in zip(edges, edges[1:]):
        value[lo:hi] = np.add.reduce(shares[:, lo:hi] * prices[:, lo:hi], axis=0)
    value += cash

    logger.debug(
        "backtest over %d days, %d tickers, %d rebalances (%s)",
        n_days, len(panel.tickers), len(applied), policy.frequency,
    )
    return BacktestResult(
        calendar=panel.calendar,
        tickers=panel.tickers,
        value=value,
        shares=shares,
        prices=prices,
        cash=cash,
        rebalance_dates=applied,
    )
