"""Return series: construction, compounding, aggregation, and sample splits.

Simple returns are v_t / v_{t-1} - 1; log returns are ln(v_t / v_{t-1}).
Aggregation to coarser frequencies compounds, never sums: a bucket's
return is the product of (1 + r) over its members minus 1.  Buckets are
ISO weeks, calendar months, and calendar years, each dated at the
bucket's last trading day.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import DomainError, WindowError
from .market_data import _frozen

KINDS = ("simple", "log")
FREQUENCIES = ("daily", "weekly", "monthly", "annual")


@dataclass(frozen=True, eq=False)
class ReturnSeries:
    """Dated returns of one kind at one stated frequency."""

    dates: tuple[date, ...]
    values: np.ndarray
    kind: str = "simple"
    frequency: str = "daily"

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "values", _frozen(self.values))
        if self.kind not in KINDS:
            raise DomainError(f"unknown return kind {self.kind!r}")
        if self.frequency not in FREQUENCIES:
            raise DomainError(f"unknown frequency {self.frequency!r}")
        if len(self.dates) != len(self.values):
            raise DomainError(
                f"{len(self.dates)} dates vs {len(self.values)} values"
            )
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise DomainError(f"dates not strictly increasing at {cur}")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("returns must be finite")
        if self.kind == "simple" and np.any(self.values <= -1.0):
            raise DomainError("simple returns must exceed -1")

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReturnSeries):
            return NotImplemented
        return (
            self.dates == other.dates
            and self.kind == other.kind
            and self.frequency == other.frequency
            and np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True)
class SampleSplit:
    """A return series partitioned at a split date: before / on-or-after."""

    in_sample: ReturnSeries
    out_of_sample: ReturnSeries
    split_date: date

    def __post_init__(self):
        if not (self.in_sample.dates[-1] < self.split_date <= self.out_of_sample.dates[0]):
            raise WindowError(
                f"split {self.split_date} does not separate the two halves"
            )


def _check_values(values: np.ndarray):
    if len(values) < 2:
        raise DomainError(f"need at least 2 values, got {len(values)}")
    if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
        raise DomainError("values must be positive and finite")


def simple_returns(dates, values, frequency: str = "daily") -> ReturnSeries:
    """Per-step fractional changes of a positive value series, dated at t."""
    values = np.asarray(values, dtype=np.float64)
    _check_values(values)
    if len(dates) != len(values):
        raise DomainError("dates and values differ in length")
    r = values[1:] / values[:-1] - 1.0
    return ReturnSeries(tuple(dates[1:]), r, kind="simple", frequency=frequency)


def log_returns(dates, values, frequency: str = "daily") -> ReturnSeries:
    """Per-step log price relatives ln(v_t / v_{t-1}), dated at t."""
    values = np.asarray(values, dtype=np.float64)
    _check_values(values)
    if len(dates) != len(values):
        raise DomainError("dates and values differ in length")
    r = np.log(values[1:] / values[:-1])
    return ReturnSeries(tuple(dates[1:]), r, kind="log", frequency=frequency)


def cumulative_return(initial: float, final: float) -> float:
    """Total fractional gain or loss from an initial to a final value."""
    if initial <= 0.0:
        raise DomainError(f"initial value must be positive, got {initial}")
    return (final - initial) / initial


def cumulative_return_series(returns: ReturnSeries) -> np.ndarray:
    """Running compounded return: c_t = prod_{s<=t}(1 + r_s) - 1.

    Aligned with ``returns.dates``.
    """
    if returns.kind != "simple":
        raise DomainError("cumulative_return_series expects simple returns")
    return np.cumprod(1.0 + returns.values) - 1.0


_BUCKET_KEYS = {
    "weekly": lambda d: d.isocalendar()[:2],
    "monthly": lambda d: (d.year, d.month),
    "annual": lambda d: d.year,
}


def aggregate(returns: ReturnSeries, target: str) -> ReturnSeries:
    """Compound daily simple returns into weekly / monthly / annual buckets.

    Weekly buckets are ISO weeks; monthly and annual buckets are calendar
    months and years.  Each bucket is dated at its last trading day.
    """
    if target not in _BUCKET_KEYS:
        raise DomainError(f"unknown aggregation target {target!r}")
    if returns.kind != "simple" or returns.frequency != "daily":
        raise DomainError("aggregate expects daily simple returns")
    if len(returns) == 0:
        raise DomainError("cannot aggregate an empty series")

    key = _BUCKET_KEYS[target]
    out_dates: list[date] = []
    out_values: list[float] = []
    current = None
    acc = 1.0
    last_day = None
    for day, r in zip(returns.dates, returns.values):
        k = key(day)
        if k != current:
            if current is not None:
                out_dates.append(last_day)
                out_values.append(acc - 1.0)
            current = k
            acc = 1.0
        acc *= 1.0 + r
        last_day = day
    out_dates.append(last_day)
    out_values.append(acc - 1.0)
    return ReturnSeries(tuple(out_dates), out_values, kind="simple", frequency=target)


def split_sample(returns: ReturnSeries, split_date: date) -> SampleSplit:
    """Partition a series into dates before the split and on-or-after it."""
    n_before = sum(1 for d in returns.dates if d < split_date)
    if n_before == 0 or n_before == len(returns):
        raise WindowError(
            f"split {split_date} outside series range "
            f"{returns.dates[0]}..{returns.dates[-1]}"
        )
    head = ReturnSeries(
        returns.dates[:n_before], returns.values[:n_before],
        kind=returns.kind, frequency=returns.frequency,
    )
    tail = ReturnSeries(
        returns.dates[n_before:], returns.values[n_before:],
        kind=returns.kind, frequency=returns.frequency,
    )
    return SampleSplit(head, tail, split_date)
