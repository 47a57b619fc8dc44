"""Reference schedule and aggregation: per-day loops over ``date`` objects.

These are the straightforward formulations of ``rebal.portfolio.rebalance_dates``
and ``rebal.returns.aggregate``, which work on ``datetime64[D]`` arrays with
month keys, anniversary arithmetic, Monday-anchored week numbers and one
``np.multiply.reduceat``.  Tests compare the array versions against these
for equal dates and bit-equal values.
"""

from __future__ import annotations

import bisect
from datetime import date


def _anniversary(start: date, year: int) -> date:
    try:
        return start.replace(year=year)
    except ValueError:  # Feb 29 in a non-leap year
        return date(year, 3, 1)


def rebalance_dates(calendar, frequency: str) -> list[date]:
    """Schedule dates of a sorted calendar of ``date`` objects."""
    calendar = list(calendar)
    if frequency == "never":
        return []
    if frequency == "daily":
        return calendar[1:]
    if frequency == "monthly":
        first_of_month: dict[tuple[int, int], date] = {}
        for day in calendar:
            first_of_month.setdefault((day.year, day.month), day)
        start_month = (calendar[0].year, calendar[0].month)
        return [d for key, d in sorted(first_of_month.items()) if key != start_month]
    # yearly: first trading day on/after each anniversary of the start date
    start = calendar[0]
    out: list[date] = []
    year = start.year + 1
    while True:
        anniversary = _anniversary(start, year)
        if anniversary > calendar[-1]:
            break
        day = calendar[bisect.bisect_left(calendar, anniversary)]
        if not out or day != out[-1]:
            out.append(day)
        year += 1
    return out


_BUCKET_KEYS = {
    "weekly": lambda d: d.isocalendar()[:2],
    "monthly": lambda d: (d.year, d.month),
    "annual": lambda d: d.year,
}


def aggregate(days, values, target: str) -> tuple[list[date], list[float]]:
    """Compound daily returns into buckets by a running product, dating
    each bucket at its last day."""
    key = _BUCKET_KEYS[target]
    out_dates: list[date] = []
    out_values: list[float] = []
    current = None
    acc = 1.0
    last_day = None
    for day, r in zip(days, values):
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
    return out_dates, out_values
