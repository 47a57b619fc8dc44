"""Shared fixtures and helpers for the test suite."""

import dataclasses
from datetime import date

import numpy as np
import pytest
from hypothesis import strategies as st

from rebal.returns import ReturnSeries


def huge_id(value):
    """A test id for an int beyond float range, by its size rather than its
    hundreds of digits; None, pytest's own id, for any other value."""
    if isinstance(value, int) and abs(value) > 2 ** 1024:
        return f"{'-' * (value < 0)}10**{len(str(abs(value))) - 1}"
    return None


def trading_days(n: int, start: date = date(2021, 1, 4)) -> np.ndarray:
    """n consecutive Mon-Fri days starting at ``start``, as datetime64[D]."""
    first = np.busday_offset(np.datetime64(start, "D"), 0, roll="forward")
    return np.busday_offset(first, np.arange(n))


def daily_series(values, start: date = date(2021, 1, 4)) -> ReturnSeries:
    """Wrap raw simple returns in a daily ReturnSeries on a weekday calendar."""
    values = np.asarray(values, dtype=np.float64)
    return ReturnSeries(trading_days(len(values), start), values)


def random_returns(rng: np.random.Generator, n: int,
                   mu: float = 0.0005, sigma: float = 0.02) -> np.ndarray:
    """Plausible daily stock returns, guaranteed above -1."""
    return np.maximum(rng.normal(mu, sigma, size=n), -0.95)


def with_weight_cells(result, cells):
    """A copy of a BacktestResult whose ``weights[i, day]`` is exactly ``w``
    for each ``(i, day, w)`` in ``cells``.

    Weights are derived as ``shares * prices / value``, so the cells are
    made through prices: each such day's value becomes 2**30, its prices
    scale with it, and the cell's price is ``w * 2**30 / shares[i, day]``
    (``w`` itself where no shares are held).  Raises AssertionError if a
    cell comes out other than ``w``, sign of zero included.
    """
    prices, value = result.prices.copy(), result.value.copy()
    for _, day, _ in cells:
        prices[:, day] *= 2.0 ** 30 / value[day]
        value[day] = 2.0 ** 30
    for i, day, w in cells:
        held = float(result.shares[i, day])
        prices[i, day] = w * 2.0 ** 30 / held if held else w
    new = dataclasses.replace(result, prices=prices, value=value)
    rows, days, want = (np.array(column) for column in zip(*cells))
    got = new.weights[rows, days]
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    return new


# Starts where calendar arithmetic has edges: Feb 29, year and month ends,
# and the ISO week 53 of 2015, 2020 and 2026.
_EDGE_STARTS = [
    date(2000, 2, 29), date(2020, 2, 29), date(2024, 2, 29), date(2019, 12, 31),
    date(2021, 1, 29), date(2021, 1, 31), date(2021, 4, 30), date(2023, 8, 31),
    date(2015, 12, 28), date(2016, 1, 1), date(2020, 12, 31), date(2021, 1, 3),
    date(2026, 12, 28), date(2027, 1, 3),
]


@st.composite
def calendars(draw):
    """A strictly increasing datetime64[D] calendar of 1 to 900 days.

    Steps are mostly one to three days, with some long gaps that leave
    months of a single day or skip whole years; half of the calendars then
    keep only Mondays to Fridays after the start.
    """
    start = draw(st.one_of(st.sampled_from(_EDGE_STARTS),
                           st.dates(date(1990, 1, 1), date(2030, 12, 31))))
    n = draw(st.one_of(st.integers(1, 3), st.integers(4, 900)))
    gap_rate = draw(st.sampled_from([0.0, 0.02, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = np.where(rng.random(n - 1) < gap_rate,
                     rng.integers(1, 400, n - 1), rng.integers(1, 4, n - 1))
    days = np.datetime64(start, "D") + np.r_[0, np.cumsum(steps)]
    if draw(st.booleans()):
        days = np.r_[days[:1], days[1:][np.is_busday(days[1:])]]
    return days


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
