"""Return construction, compounding, aggregation, and split tests."""

import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import calendar_oracle
import oracles
from rebal.errors import DomainError, WindowError
from rebal.returns import (
    ReturnSeries,
    aggregate,
    cumulative_return,
    simple_returns,
    split_sample,
)

from conftest import calendars, daily_series, random_returns, trading_days


class TestSimpleReturns:
    def test_ten_percent_step(self):
        days = trading_days(2)
        series = simple_returns(days, [100.0, 110.0])
        assert series.dates.tolist() == days[1:].tolist()
        assert series.values.tolist() == pytest.approx([0.10])
        assert series.frequency == "daily"

    def test_constant_series_is_all_zeros(self):
        series = simple_returns(trading_days(5), [42.0] * 5)
        assert np.all(series.values == 0.0)

    def test_non_positive_value_rejected(self):
        with pytest.raises(DomainError):
            simple_returns(trading_days(2), [100.0, 0.0])
        with pytest.raises(DomainError):
            simple_returns(trading_days(2), [-1.0, 100.0])

    def test_single_value_rejected(self):
        with pytest.raises(DomainError):
            simple_returns(trading_days(1), [100.0])


class TestCumulativeReturn:
    def test_published_380_percent_example(self):
        assert cumulative_return(10_000.0, 48_000.0) == 3.80

    def test_flat_is_zero(self):
        assert cumulative_return(500.0, 500.0) == 0.0

    def test_halving_is_minus_half(self):
        assert cumulative_return(100.0, 50.0) == -0.5

    def test_non_positive_initial_rejected(self):
        with pytest.raises(DomainError):
            cumulative_return(0.0, 10.0)

    def test_matches_compounded_simple_returns(self, rng):
        values = 250.0 * np.cumprod(1.0 + random_returns(rng, 100))
        values = np.concatenate(([250.0], values))
        series = simple_returns(trading_days(101), values)
        path_total = np.cumprod(1.0 + series.values)[-1] - 1.0
        endpoint = cumulative_return(values[0], values[-1])
        assert math.isclose(path_total, endpoint, rel_tol=1e-12, abs_tol=1e-12)


class TestAggregate:
    def test_month_of_zeros_gives_single_zero(self):
        days = trading_days(10, start=date(2021, 3, 1))  # all within March
        series = ReturnSeries(days, [0.0] * 10)
        monthly = aggregate(series, "monthly")
        assert len(monthly) == 1
        assert monthly.values[0] == 0.0
        assert monthly.dates[0] == days[-1]
        assert monthly.frequency == "monthly"

    def test_two_days_compound_within_month(self):
        days = (date(2021, 3, 1), date(2021, 3, 2))
        monthly = aggregate(ReturnSeries(days, [0.1, 0.1]), "monthly")
        assert monthly.values.tolist() == pytest.approx([0.21])

    def test_year_boundary_splits_annual_buckets(self):
        days = (date(2021, 12, 31), date(2022, 1, 3))
        annual = aggregate(ReturnSeries(days, [0.02, 0.03]), "annual")
        assert len(annual) == 2
        assert annual.dates.tolist() == list(days)
        assert annual.values.tolist() == pytest.approx([0.02, 0.03])

    def test_iso_week_boundary(self):
        # Friday 2021-01-08 and Monday 2021-01-11 sit in different ISO weeks
        days = (date(2021, 1, 7), date(2021, 1, 8), date(2021, 1, 11))
        weekly = aggregate(ReturnSeries(days, [0.01, 0.01, 0.05]), "weekly")
        assert len(weekly) == 2
        assert weekly.dates.tolist() == [date(2021, 1, 8), date(2021, 1, 11)]
        assert weekly.values.tolist() == pytest.approx([1.01 * 1.01 - 1.0, 0.05])

    def test_buckets_compound_not_sum(self, rng):
        series = daily_series(random_returns(rng, 400))
        for target in ("weekly", "monthly", "annual"):
            agg = aggregate(series, target)
            total_daily = oracles.cumulative_return(series.values.tolist())
            total_agg = oracles.cumulative_return(agg.values.tolist())
            assert math.isclose(total_daily, total_agg, rel_tol=1e-10, abs_tol=1e-12)

    def test_empty_series_rejected(self):
        empty = ReturnSeries((), [])
        with pytest.raises(DomainError):
            aggregate(empty, "monthly")

    def test_unknown_frequency_or_target_is_named_even_if_unprintable(self):
        series = daily_series([0.01] * 10)
        for value, shown in (("hourly", "'hourly'"), (10**5000, "<int too long to print>")):
            with pytest.raises(DomainError, match=f"unknown aggregation target {shown}$"):
                aggregate(series, value)
            with pytest.raises(DomainError, match=f"unknown frequency {shown}$"):
                ReturnSeries(series.dates, series.values, value)

    def test_weekly_input_rejected(self):
        series = daily_series([0.01] * 10)
        weekly = aggregate(series, "weekly")
        with pytest.raises(DomainError):
            aggregate(weekly, "monthly")


class TestMatchesRunningProduct:
    """aggregate gives the buckets, dates and bit-exact values of the
    per-day running-product loop in ``tests/calendar_oracle.py``."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(days=calendars(), seed=st.integers(0, 2**32 - 1))
    def test_random_calendars(self, days, seed):
        rng = np.random.default_rng(seed)
        values = np.where(rng.random(len(days)) < 0.1, 0.0, random_returns(rng, len(days)))
        series = ReturnSeries(days, values)
        for target in ("weekly", "monthly", "annual"):
            got = aggregate(series, target)
            want_dates, want_values = calendar_oracle.aggregate(
                days.tolist(), values.tolist(), target)
            assert got.dates.tolist() == want_dates
            assert got.values.tobytes() == np.array(want_values).tobytes()


class TestSplitSample:
    def test_two_element_split(self):
        series = daily_series([0.01, 0.02])
        in_sample, out_of_sample = split_sample(series, series.dates[1])
        assert len(in_sample) == 1
        assert len(out_of_sample) == 1

    def test_study_window_split(self):
        # split at 2022-07-01 on a weekday calendar: last in-sample day is
        # Thursday 2022-06-30
        days = trading_days(500, start=date(2021, 1, 4))
        series = ReturnSeries(days, [0.001] * 500)
        in_sample, out_of_sample = split_sample(series, date(2022, 7, 1))
        assert in_sample.dates[-1] == date(2022, 6, 30)
        assert out_of_sample.dates[0] == date(2022, 7, 1)

    def test_split_outside_range_rejected(self):
        series = daily_series([0.01, 0.02, 0.03])
        with pytest.raises(WindowError):
            split_sample(series, series.dates[0])
        with pytest.raises(WindowError):
            split_sample(series, date(2030, 1, 1))

    def test_halves_concatenate_back(self, rng):
        series = daily_series(random_returns(rng, 50))
        in_sample, out_of_sample = split_sample(series, series.dates[20])
        rejoined_dates = np.concatenate([in_sample.dates, out_of_sample.dates])
        np.testing.assert_array_equal(rejoined_dates, series.dates)
        rejoined = np.concatenate([in_sample.values, out_of_sample.values])
        np.testing.assert_array_equal(rejoined, series.values)


class TestReturnSeriesInvariants:
    def test_simple_returns_must_exceed_minus_one(self):
        with pytest.raises(DomainError):
            daily_series([-1.0])

    def test_dates_strictly_increasing(self):
        days = trading_days(3)
        with pytest.raises(DomainError):
            ReturnSeries((days[0], days[0], days[1]), [0.1, 0.2, 0.3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            ReturnSeries(trading_days(2), [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_returns_must_be_finite(self, bad):
        with pytest.raises(DomainError, match="^returns must be finite$"):
            ReturnSeries(trading_days(3), [0.1, bad, 0.3])
