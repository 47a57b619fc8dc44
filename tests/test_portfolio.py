"""Allocation, scheduling, rebalancing, and backtest-loop tests."""

import math
import tracemalloc
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, settings

import calendar_oracle
import engine_oracle
import rebal.portfolio
from rebal.errors import AllocationError, DomainError, InsolvencyError
from rebal.market_data import PricePanel
from rebal.portfolio import (
    REBALANCE_FREQUENCIES,
    RebalancePolicy,
    allocate,
    rebalance_dates,
    run_backtest,
)
from rebal.synthetic import business_days

from conftest import calendars, huge_id, random_returns, trading_days


def make_panel(columns: dict[str, list[float]], days=None, benchmark=None):
    n = len(next(iter(columns.values())))
    days = trading_days(n) if days is None else days
    benchmark = benchmark or [1000.0 + i for i in range(n)]
    tickers = tuple(sorted(columns))
    return PricePanel(
        calendar=days,
        tickers=tickers,
        prices=np.array([columns[t] for t in tickers], dtype=float),
        benchmark=benchmark,
    )


def initial(prices, per_asset_capital=100_000.0):
    """Day-0 allocation of ``per_asset_capital`` to each of ``prices``."""
    prices = np.asarray(prices, dtype=float)
    return allocate(prices, per_asset_capital, per_asset_capital * len(prices))


def rebalanced(held, prices, cash, cost_rate=0.0):
    """Rebalance ``held`` shares plus ``cash`` at ``prices``, as run_backtest does."""
    held = np.asarray(held, dtype=np.int64)
    prices = np.asarray(prices, dtype=float)
    total = float(np.sum(held * prices)) + cash
    return allocate(prices, total / len(prices), total, held, cost_rate)


class TestRounding:
    @pytest.mark.parametrize("x,expected", [
        (0.4, 0), (0.5, 1), (0.6, 1), (1.5, 2), (2.5, 3),
        (12.82, 13), (526.3158, 526),
    ])
    def test_half_away_from_zero(self, x, expected):
        # at price 1 the count is target rounded; capital to spare means
        # the overdraft clamp never runs
        shares, _ = allocate(np.array([1.0]), x, x + 1.0)
        assert shares.tolist() == [expected]


class TestInitialAllocation:
    def test_exact_division_leaves_no_cash(self):
        shares, cash = initial([100_000.0])
        assert shares.tolist() == [1]
        assert cash == 0.0

    def test_hand_arithmetic_round_down(self):
        shares, cash = initial([190.0])
        assert shares.tolist() == [526]
        assert cash == pytest.approx(60.0)
        assert 526 * 190.0 + cash == pytest.approx(100_000.0)

    def test_overdraft_clamp_sells_back_one_share(self):
        # 100000 / 7800 = 12.82 rounds to 13 -> cash -1400, clamp to 12
        shares, cash = initial([7_800.0])
        assert shares.tolist() == [12]
        assert cash == pytest.approx(6_400.0)

    def test_clamp_prefers_most_overweight_ticker(self):
        # both rounded up to 13; A overshoots its 100k target by 2700 vs
        # B's 1400, so the clamp sells A
        prices = np.array([7_900.0, 7_800.0])  # A, B
        pre_clamp = np.floor(100_000.0 / prices + 0.5)
        assert pre_clamp.tolist() == [13, 13]
        shares, cash = initial(prices)
        assert shares.tolist() == [12, 13]
        assert cash == pytest.approx(3_800.0)

    def test_lexicographic_tie_break(self):
        panel = make_panel({"B": [7_800.0] * 2, "A": [7_800.0] * 2})
        result = run_backtest(panel, RebalancePolicy("never"))
        assert dict(zip(result.tickers, result.shares[:, 0].tolist())) == {"B": 13, "A": 12}

    def test_value_is_conserved(self):
        prices = np.array([77.7, 1234.5, 9.99])
        shares, cash = initial(prices)
        value = float(np.sum(shares * prices)) + cash
        assert value == pytest.approx(3 * 100_000.0, rel=1e-12)

    def test_errors(self):
        with pytest.raises(AllocationError):
            initial([-5.0])
        with pytest.raises(DomainError):
            RebalancePolicy(per_asset_capital=0.0)
        # capital is checked first, with the message RunConfig reports
        with pytest.raises(DomainError, match="per_asset_capital must be positive, got -1.0"):
            RebalancePolicy("weekly", 2.0, per_asset_capital=-1.0)
        for capital in (math.nan, math.inf):
            with pytest.raises(DomainError,
                               match=f"per_asset_capital must be a finite number, got {capital}"):
                RebalancePolicy(per_asset_capital=capital)

    @pytest.mark.parametrize("field", ["per_asset_capital", "cost_rate"])
    @pytest.mark.parametrize("value", ["x", None, True, 10**400], ids=huge_id)
    def test_non_numbers_are_domain_errors(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be a finite number, got {value!r}"):
            RebalancePolicy(**{field: value})

    def test_share_count_beyond_int64_is_an_allocation_error(self):
        # 1e30 buys 1e28 shares at 100, which an int64 cast would wrap negative
        with pytest.raises(AllocationError, match="shares do not fit in int64"):
            allocate([100.0, 50.0], 1e30, 2e30)
        panel = make_panel({"A": [100.0, 101.0], "B": [50.0, 49.0]})
        with pytest.raises(AllocationError, match="shares do not fit in int64"):
            run_backtest(panel, RebalancePolicy("daily", per_asset_capital=1e30))
        # the largest count below 2**63 is kept exactly
        shares, _ = allocate([1.0], 2.0 ** 62, 2.0 ** 62)
        assert shares.tolist() == [2 ** 62]


class TestRebalanceDates:
    def test_never_is_empty(self):
        assert rebalance_dates(trading_days(500), "never").tolist() == []

    def test_daily_is_every_day_after_the_first(self):
        days = trading_days(10)
        assert rebalance_dates(days, "daily").tolist() == days[1:].tolist()

    def test_yearly_study_calendar_has_two_anniversaries(self):
        days = business_days(date(2021, 1, 4), date(2023, 9, 20))
        planned = rebalance_dates(days, "yearly")
        assert planned.tolist() == [date(2022, 1, 4), date(2023, 1, 4)]

    def test_yearly_skips_to_next_trading_day(self):
        # anniversary lands on a weekend: 2022-01-01/02; start Jan 1 2021 (Fri)
        days = business_days(date(2021, 1, 1), date(2022, 3, 1))
        planned = rebalance_dates(days, "yearly")
        assert planned.tolist() == [date(2022, 1, 3)]  # first Monday on/after Jan 1

    def test_monthly_march_to_may(self):
        days = business_days(date(2021, 3, 10), date(2021, 5, 31))
        planned = rebalance_dates(days, "monthly")
        assert planned.tolist() == [date(2021, 4, 1), date(2021, 5, 3)]

    def test_start_day_never_included(self):
        days = trading_days(300)
        for frequency in ("daily", "monthly", "yearly", "never"):
            assert days[0] not in rebalance_dates(days, frequency)

    def test_frequency_refinement_on_random_calendars(self):
        # every coarser schedule stays inside "daily"; each yearly date
        # falls in a month that the monthly schedule also rebalances
        rng = np.random.default_rng(8)
        base = trading_days(900)
        for _ in range(20):
            size = int(rng.integers(50, 700))
            keep = sorted(rng.choice(len(base), size=size, replace=False))
            days = base[keep].tolist()
            daily = set(rebalance_dates(days, "daily").tolist())
            monthly = rebalance_dates(days, "monthly").tolist()
            yearly = rebalance_dates(days, "yearly").tolist()
            assert set(monthly) <= daily
            assert set(yearly) <= daily
            monthly_months = {(d.year, d.month) for d in monthly}
            start_month = (days[0].year, days[0].month)
            for day in yearly:
                assert (day.year, day.month) in monthly_months or (
                    (day.year, day.month) == start_month
                )
            assert len(yearly) <= max(1, len(monthly))

    def test_feb_29_anniversary_falls_through_to_march(self):
        days = business_days(date(2024, 2, 29), date(2025, 3, 10))
        planned = rebalance_dates(days, "yearly")
        assert planned.tolist() == [date(2025, 3, 3)]  # Mar 1 2025 is a Saturday

    def test_empty_calendar_rejected(self):
        with pytest.raises(DomainError):
            rebalance_dates([], "daily")

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(days=calendars())
    @example(days=business_days(date(2021, 1, 4), date(2022, 1, 4)))  # ends on an anniversary
    @example(days=np.array(["2020-02-29", "2020-03-02", "2021-03-01"], dtype="datetime64[D]"))
    def test_matches_per_day_loop(self, days):
        # the loop over date objects in tests/calendar_oracle.py is the judge
        for frequency in REBALANCE_FREQUENCIES:
            assert (rebalance_dates(days, frequency).tolist()
                    == calendar_oracle.rebalance_dates(days.tolist(), frequency))


class TestRebalance:
    def test_equal_weight_fixed_point(self):
        shares, cash = rebalanced([5, 5], [10.0, 10.0], 0.0)
        assert shares.tolist() == [5, 5]
        assert cash == 0.0

    def test_hand_worked_two_asset_case(self):
        shares, cash = rebalanced([10, 0], [10.0, 10.0], 0.0)
        assert shares.tolist() == [5, 5]
        assert cash == 0.0

    def test_transaction_cost_triggers_clamp(self):
        shares, cash = rebalanced([10, 0], [10.0, 10.0], 0.0, cost_rate=0.01)
        # traded notional 100 costs 1.0, overdrawing cash; the clamp sells
        # one more share of the (tied, lexicographically first) richer leg
        assert shares.tolist() == [4, 5]
        assert cash == pytest.approx(9.0)

    def test_zero_cost_preserves_value_exactly(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 8))
            held = rng.integers(0, 400, size=n)
            prices = rng.uniform(0.5, 5000, size=n)
            cash = float(rng.uniform(0, 10000))
            before = float(np.sum(held * prices)) + cash
            shares, new_cash = rebalanced(held, prices, cash)
            after = float(np.sum(shares * prices)) + new_cash
            assert math.isclose(before, after, rel_tol=1e-9)

    def test_equal_weight_bound_after_rebalance(self, rng):
        # each post-trade weight sits within half a share of 1/n, plus one
        # share's width for every clamp sale on that ticker
        for _ in range(100):
            n = int(rng.integers(2, 12))
            prices = np.exp(rng.uniform(np.log(1.0), np.log(10_000.0), size=n))
            held = rng.integers(0, 500, size=n)
            cash = float(rng.uniform(0, 50_000))
            total = float(np.sum(held * prices)) + cash
            if total <= 0.0:
                continue
            shares, _ = rebalanced(held, prices, cash)
            target = total / n
            for i in range(n):
                rounded = math.floor(target / prices[i] + 0.5)
                clamp_sales = rounded - shares[i]
                assert clamp_sales >= 0  # the clamp only ever sells
                weight = shares[i] * prices[i] / total
                bound = (0.5 + clamp_sales) * prices[i] / total
                assert abs(weight - 1.0 / n) <= bound + 1e-12

    def test_insolvent_ledger_rejected(self):
        with pytest.raises(InsolvencyError):
            rebalanced([0], [10.0], 0.0)


class TestLedger:
    """Inputs that shape the holdings: the rebalance policy."""

    def test_policy_validation(self):
        with pytest.raises(DomainError):
            RebalancePolicy("weekly")
        with pytest.raises(DomainError):
            RebalancePolicy("daily", cost_rate=1.0)
        with pytest.raises(DomainError):
            RebalancePolicy("daily", cost_rate=-0.1)


class TestRunBacktest:
    def test_constant_prices_hold_initial_capital(self):
        panel = make_panel({"A": [50.0] * 30, "B": [75.0] * 30})
        for frequency in ("daily", "monthly", "yearly", "never"):
            result = run_backtest(panel, RebalancePolicy(frequency))
            np.testing.assert_allclose(result.value, 2 * 100_000.0, rtol=1e-12)
            for row in result.weights:
                assert len(set(row.tolist())) == 1

    def test_never_rebalancing_is_buy_and_hold(self, rng):
        n = 60
        panel = make_panel({
            "A": (100.0 * np.cumprod(1 + rng.normal(0.001, 0.02, n))).tolist(),
            "B": (200.0 * np.cumprod(1 + rng.normal(0.0, 0.01, n))).tolist(),
        })
        result = run_backtest(panel, RebalancePolicy("never"))
        assert result.rebalance_dates.tolist() == []
        for row in result.shares:
            assert np.all(row == row[0])
        assert np.all(result.cash == result.cash[0])

    def test_yearly_rebalance_sells_winner_buys_laggard(self):
        days = business_days(date(2021, 1, 4), date(2022, 1, 10))
        n = len(days)
        # A doubles linearly over the year, B stays flat
        a = np.linspace(100.0, 200.0, n)
        b = np.full(n, 100.0)
        panel = make_panel({"A": a.tolist(), "B": b.tolist()}, days=days,
                           benchmark=np.linspace(1000, 1100, n).tolist())
        result = run_backtest(panel, RebalancePolicy("yearly"))
        assert result.rebalance_dates.tolist() == [date(2022, 1, 4)]
        idx = int(np.searchsorted(days, np.datetime64("2022-01-04")))
        shares_a, shares_b = result.shares  # rows in ticker order: A, B
        assert shares_a[idx] < shares_a[idx - 1]
        assert shares_b[idx] > shares_b[idx - 1]
        # post-trade per-asset values differ by at most one share's price
        value_a = shares_a[idx] * a[idx]
        value_b = shares_b[idx] * b[idx]
        assert abs(value_a - value_b) <= max(a[idx], b[idx]) + 1e-9

    def test_shares_piecewise_constant_between_rebalances(self, rng):
        n = 120
        panel = make_panel({
            "A": (100.0 * np.cumprod(1 + rng.normal(0.0005, 0.02, n))).tolist(),
            "B": (500.0 * np.cumprod(1 + rng.normal(0.0005, 0.015, n))).tolist(),
        })
        result = run_backtest(panel, RebalancePolicy("monthly"))
        schedule = set(result.rebalance_dates.tolist())
        for i in range(1, n):
            changed = any(row[i] != row[i - 1] for row in result.shares)
            if changed:
                assert panel.calendar[i].item() in schedule

    def test_result_invariants_hold_every_day(self, rng):
        n = 90
        panel = make_panel({
            "A": (80.0 * np.cumprod(1 + rng.normal(0, 0.03, n))).tolist(),
            "B": (8000.0 * np.cumprod(1 + rng.normal(0, 0.02, n))).tolist(),
            "C": (1.5 * np.cumprod(1 + rng.normal(0, 0.01, n))).tolist(),
        })
        result = run_backtest(panel, RebalancePolicy("monthly"))
        for i in range(n):
            marked = sum(result.shares[k][i] * panel.prices[k][i]
                         for k in range(len(panel.tickers))) + result.cash[i]
            assert math.isclose(result.value[i], marked, rel_tol=1e-9)
            total = sum(result.weights[k][i] for k in range(len(panel.tickers)))
            total += result.cash[i] / result.value[i]
            assert math.isclose(total, 1.0, rel_tol=1e-9)
            assert result.cash[i] >= 0.0

    def test_bit_identical_reruns(self, rng):
        n = 50
        panel = make_panel({
            "A": (100.0 * np.cumprod(1 + rng.normal(0, 0.02, n))).tolist(),
            "B": (300.0 * np.cumprod(1 + rng.normal(0, 0.02, n))).tolist(),
        })
        r1 = run_backtest(panel, RebalancePolicy("daily"))
        r2 = run_backtest(panel, RebalancePolicy("daily"))
        np.testing.assert_array_equal(r1.value, r2.value)
        np.testing.assert_array_equal(r1.cash, r2.cash)
        np.testing.assert_array_equal(r1.shares, r2.shares)
        np.testing.assert_array_equal(r1.weights, r2.weights)

    def test_portfolio_is_sized_from_the_panel(self):
        panel = make_panel({"A": [50.0] * 5, "B": [75.0] * 5})
        result = run_backtest(panel, RebalancePolicy("never", per_asset_capital=30_000.0))
        assert result.shares[:, 0].tolist() == [600, 400]
        np.testing.assert_array_equal(result.value, 60_000.0)

    def test_concurrent_backtests_on_a_shared_panel(self, rng):
        from concurrent.futures import ThreadPoolExecutor

        n = 260
        panel = make_panel({
            "A": (100.0 * np.cumprod(1 + rng.normal(0.0005, 0.02, n))).tolist(),
            "B": (900.0 * np.cumprod(1 + rng.normal(0.0, 0.02, n))).tolist(),
            "C": (40.0 * np.cumprod(1 + rng.normal(0.0002, 0.01, n))).tolist(),
        })
        frequencies = ("daily", "monthly", "yearly", "never") * 3

        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(
                lambda f: run_backtest(panel, RebalancePolicy(f)), frequencies))
        serial = {f: run_backtest(panel, RebalancePolicy(f))
                  for f in set(frequencies)}
        for frequency, result in zip(frequencies, parallel):
            np.testing.assert_array_equal(result.value, serial[frequency].value)
            np.testing.assert_array_equal(result.cash, serial[frequency].cash)


def oracle_panel(rng, n_tickers, days, start_prices=None):
    """A random-walk panel on ``days`` starting at ``start_prices``
    (tickers T00, T01, ...)."""
    n = len(days)
    if start_prices is None:
        start_prices = np.exp(rng.uniform(np.log(0.5), np.log(20_000.0), n_tickers))
    return make_panel(
        {f"T{k:02d}": p0 * np.cumprod(np.r_[1.0, 1.0 + random_returns(rng, n - 1, sigma=0.04)])
         for k, p0 in enumerate(start_prices)},
        days=days, benchmark=[1000.0] * n,
    )


class TestMatchesDictEngine:
    """run_backtest equals the per-day dict engine in tests/engine_oracle.py
    bit for bit: same value, cash, shares, weights and schedule."""

    def assert_same(self, panel, capital, frequency, cost_rate):
        result = run_backtest(panel, RebalancePolicy(frequency, cost_rate, capital))
        oracle = engine_oracle.run_backtest(panel, capital, frequency, cost_rate)
        np.testing.assert_array_equal(result.value, oracle.value)
        np.testing.assert_array_equal(result.cash, oracle.cash)
        for k, t in enumerate(panel.tickers):
            np.testing.assert_array_equal(result.shares[k], oracle.shares[t])
            np.testing.assert_array_equal(result.weights[k], oracle.weights[t])
        assert result.rebalance_dates.tolist() == list(oracle.rebalance_dates)
        return result

    @pytest.mark.parametrize("frequency", ["daily", "monthly", "yearly", "never"])
    @pytest.mark.parametrize("cost_rate", [0.0, 0.002])
    def test_random_panels(self, frequency, cost_rate):
        rng = np.random.default_rng(4242)
        base = business_days(date(2021, 1, 4), date(2023, 9, 20))
        for _ in range(12):
            size = int(rng.integers(2, 200))
            keep = sorted(rng.choice(len(base), size=size, replace=False))
            panel = oracle_panel(rng, int(rng.integers(1, 15)), base[keep])
            capital = float(np.exp(rng.uniform(np.log(50.0), np.log(1e6))))
            self.assert_same(panel, capital, frequency, cost_rate)

    @pytest.mark.parametrize("step", [2, 7])
    def test_value_blocks_never_sum_one_day_alone(self, monkeypatch, step):
        # blocks of `step` days would leave the last of 8 * step + 1 days
        # alone, and np.add.reduce sums one day's 40 holdings pairwise
        monkeypatch.setattr(rebal.portfolio, "BLOCK_CELLS", 40 * step)
        rng = np.random.default_rng(11)
        for _ in range(4):
            panel = oracle_panel(rng, 40, trading_days(8 * step + 1))
            self.assert_same(panel, 1e6, "monthly", 0.001)

    @pytest.mark.parametrize("frequency", ["daily", "monthly"])
    def test_equal_prices_fire_the_tie_break(self, frequency):
        # every ticker rounds 100000 / 7800 up to 13 shares, 8400 over
        # budget; the clamp sells two shares, each time choosing among equal
        # excesses by ticker name
        rng = np.random.default_rng(7)
        panel = oracle_panel(rng, 6, trading_days(80), start_prices=[7_800.0] * 6)
        assert len(set(panel.prices[:, 0].tolist())) == 1
        result = self.assert_same(panel, 100_000.0, frequency, 0.001)
        assert result.shares[:, 0].tolist() == [12, 12, 13, 13, 13, 13]

    def test_small_capital_sells_several_shares_in_one_clamp(self):
        # 100 / 150 rounds up to one share each: cash starts at -250 and the
        # clamp sells two shares, the first two tickers by name
        rng = np.random.default_rng(9)
        panel = oracle_panel(rng, 5, trading_days(60), start_prices=[150.0] * 5)
        result = self.assert_same(panel, 100.0, "daily", 0.0)
        assert result.shares[:, 0].tolist() == [0, 0, 1, 1, 1]
        for cost_rate in (0.0, 0.01):
            self.assert_same(panel, 100.0, "monthly", cost_rate)

    def test_insolvency_raises_in_both_engines(self):
        # day 0: both legs round 0.5 up, the clamp sells A; day 1: the trade
        # to two A's costs 90% of its 500 notional, more than the portfolio
        panel = make_panel({"A": [100.0, 100.0], "B": [100.0, 300.0]})
        with pytest.raises(InsolvencyError):
            engine_oracle.run_backtest(panel, 50.0, "daily", 0.9)
        with pytest.raises(InsolvencyError):
            run_backtest(panel, RebalancePolicy("daily", 0.9, per_asset_capital=50.0))


def test_backtest_holds_no_matrix_beside_shares():
    """run_backtest keeps the panel's prices, fills the share matrix and sums
    value a block of days at a time: it never allocates a second tickers x
    days matrix, such as a weights copy."""
    panel = oracle_panel(np.random.default_rng(3), 40, trading_days(3000))
    tracemalloc.start()
    try:
        result = run_backtest(panel, RebalancePolicy("monthly"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.prices is panel.prices
    assert peak < 1.5 * result.shares.nbytes, peak / result.shares.nbytes
