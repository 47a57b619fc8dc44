"""Return series: construction, compounding, aggregation, and sample splits.

Simple returns are v_t / v_{t-1} - 1, dated by a ``datetime64[D]`` array.
Aggregation to coarser frequencies compounds, never sums: a bucket's
return is the product of (1 + r) over its members minus 1, multiplied
left to right.  Buckets are ISO (Monday to Sunday) weeks, calendar
months, and calendar years, each dated at the bucket's last trading day.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, WindowError
from .market_data import DAY, _ArrayRecord, _check_increasing, _frozen

FREQUENCIES = ("daily", "weekly", "monthly", "annual")


@dataclass(frozen=True, eq=False)
class ReturnSeries(_ArrayRecord):
    """Dated simple returns at one stated frequency."""

    dates: np.ndarray
    values: np.ndarray
    frequency: str = "daily"

    def __post_init__(self):
        object.__setattr__(self, "dates", _frozen(self.dates, DAY))
        object.__setattr__(self, "values", _frozen(self.values))
        if self.frequency not in FREQUENCIES:
            raise DomainError(f"unknown frequency {self.frequency!r}")
        if len(self.dates) != len(self.values):
            raise DomainError(
                f"{len(self.dates)} dates vs {len(self.values)} values"
            )
        _check_increasing(self.dates, DomainError, "dates")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("returns must be finite")
        if np.any(self.values <= -1.0):
            raise DomainError("simple returns must exceed -1")

    def __len__(self) -> int:
        return len(self.values)


def simple_returns(dates, values) -> ReturnSeries:
    """Per-step fractional changes of a positive value series, dated at t."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 2:
        raise DomainError(f"need at least 2 values, got {len(values)}")
    if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
        raise DomainError("values must be positive and finite")
    r = values[1:] / values[:-1] - 1.0
    return ReturnSeries(dates[1:], r)


def cumulative_return(initial: float, final: float) -> float:
    """Total fractional gain or loss from an initial to a final value."""
    if initial <= 0.0:
        raise DomainError(f"initial value must be positive, got {initial}")
    return (final - initial) / initial


def aggregate(returns: ReturnSeries, target: str) -> ReturnSeries:
    """Compound daily simple returns into weekly / monthly / annual buckets.

    Weekly buckets are ISO weeks; monthly and annual buckets are calendar
    months and years.  Each bucket is dated at its last trading day.
    """
    if target not in FREQUENCIES[1:]:
        raise DomainError(f"unknown aggregation target {target!r}")
    if returns.frequency != "daily":
        raise DomainError("aggregate expects daily simple returns")
    if len(returns) == 0:
        raise DomainError("cannot aggregate an empty series")
    if target == "weekly":  # Monday-anchored: day 0, 1970-01-01, is a Thursday
        key = (returns.dates.view(np.int64) + 3) // 7
    else:
        key = returns.dates.astype("datetime64[M]" if target == "monthly" else "datetime64[Y]")
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    ends = np.r_[starts[1:], len(key)] - 1
    # a multiply reduction runs left to right, as a running product would
    values = np.multiply.reduceat(1.0 + returns.values, starts) - 1.0
    return ReturnSeries(returns.dates[ends], values, target)


def split_sample(returns: ReturnSeries, split_date) -> tuple[ReturnSeries, ReturnSeries]:
    """Partition a series into dates before the split and on-or-after it.

    Returns (in-sample, out-of-sample).
    """
    n_before = int(np.searchsorted(returns.dates, np.datetime64(split_date, "D")))
    if n_before == 0 or n_before == len(returns):
        raise WindowError(
            f"split {split_date} outside series range "
            f"{returns.dates[0]}..{returns.dates[-1]}"
        )
    return tuple(ReturnSeries(returns.dates[part], returns.values[part], returns.frequency)
                 for part in (slice(n_before), slice(n_before, None)))
