"""Tear-sheet statistic tests: worked examples, oracle checks, properties."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from rebal.errors import AlignmentError, DomainError, UndefinedMetricError
from rebal.metrics import (
    METRIC_NAMES,
    _quantiles,
    MetricConfig,
    TearSheet,
    alpha_beta,
    annual_return,
    annual_volatility,
    box_plot_summary,
    cagr,
    calmar,
    daily_var,
    kurtosis,
    max_drawdown,
    omega,
    sharpe,
    skewness,
    sortino,
    stability,
    tail_ratio,
    tear_sheet,
)

from conftest import daily_series, huge_id, random_returns

CFG = MetricConfig()


class TestCagr:
    def test_flat_is_zero_for_any_horizon(self):
        for years in (0.5, 1.0, 3.0, 10.0):
            assert cagr(100.0, 100.0, years) == 0.0

    def test_published_tenfold_example(self):
        # 10k -> 48k over ten years; reference value from a 40-digit
        # arbitrary-precision evaluation of 4.8**0.1 - 1
        assert math.isclose(cagr(10_000.0, 48_000.0, 10.0),
                            0.1698336881100934, rel_tol=1e-12)

    def test_perfect_square(self):
        assert math.isclose(cagr(100.0, 121.0, 2.0), 0.10, rel_tol=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cagr(-1.0, 10.0, 1.0)
        with pytest.raises(DomainError):
            cagr(10.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            cagr(10.0, 11.0, 0.0)


class TestAnnualReturn:
    def test_constructed_twenty_percent_year(self):
        r = 1.2 ** (1.0 / 252.0) - 1.0
        series = daily_series([r] * 252)
        assert math.isclose(annual_return(series, CFG), 0.20, rel_tol=1e-9)

    def test_all_zero_returns(self):
        assert annual_return(daily_series([0.0] * 40), CFG) == 0.0

    def test_full_year_equals_cumulative(self, rng):
        values = random_returns(rng, 252)
        series = daily_series(values)
        cumulative = float(np.prod(1.0 + values)) - 1.0
        assert math.isclose(annual_return(series, CFG), cumulative, rel_tol=1e-12)

    def test_empty_series_rejected(self):
        with pytest.raises(DomainError):
            annual_return(daily_series([]), CFG)


class TestAnnualVolatility:
    def test_constant_returns_give_zero(self):
        assert annual_volatility(daily_series([0.004] * 30), CFG) == 0.0

    def test_alternating_fixture_matches_oracle(self):
        values = [0.01, -0.01] * 4
        expected = oracles.annual_volatility(values)
        assert math.isclose(annual_volatility(daily_series(values), CFG),
                            expected, rel_tol=1e-12)

    def test_scaling_doubles_volatility(self, rng):
        values = random_returns(rng, 100)
        one = annual_volatility(daily_series(values), CFG)
        two = annual_volatility(daily_series(2.0 * values), CFG)
        assert math.isclose(two, 2.0 * one, rel_tol=1e-12)

    def test_single_observation_rejected(self):
        with pytest.raises(DomainError):
            annual_volatility(daily_series([0.01]), CFG)


class TestMaxDrawdown:
    def test_monotone_wealth_has_zero_drawdown(self):
        assert max_drawdown([100.0, 100.0, 105.0, 200.0]) == 0.0

    def test_hand_worked_path(self):
        assert max_drawdown([100.0, 120.0, 60.0, 90.0, 130.0]) == -0.5

    def test_total_loss_is_minus_one(self):
        assert max_drawdown([100.0, 50.0, 0.0, 0.0]) == -1.0

    def test_matches_quadratic_brute_force(self, rng):
        for _ in range(20):
            wealth = 100.0 * np.cumprod(1.0 + random_returns(rng, 200))
            fast = max_drawdown(wealth)
            slow = oracles.max_drawdown(wealth.tolist())
            assert math.isclose(fast, slow, rel_tol=1e-12, abs_tol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            max_drawdown([])

    @pytest.mark.parametrize("wealth", [[100.0, -1.0, 50.0], [100.0, np.nan], [100.0, np.inf],
                                        [0.0, 1.0]])
    def test_negative_non_finite_or_unfunded_wealth_rejected(self, wealth):
        with pytest.raises(DomainError, match="^wealth must be finite, non-negative, and "
                                              "start positive$"):
            max_drawdown(wealth)


class TestSharpe:
    def test_zero_variance_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            sharpe(daily_series([0.01] * 10), CFG)

    def test_four_point_fixture_frozen_from_oracle(self):
        series = daily_series([0.01, -0.005, 0.02, 0.0])
        assert math.isclose(sharpe(series, CFG), 8.949008088202394, rel_tol=1e-9)

    def test_risk_free_translation(self, rng):
        values = random_returns(rng, 150)
        base = sharpe(daily_series(values), CFG)
        rf_cfg = MetricConfig(risk_free_rate_annual=0.07)
        shifted = daily_series(values + rf_cfg.risk_free_daily)
        assert math.isclose(sharpe(shifted, rf_cfg), base, rel_tol=1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_deviation_is_undefined(self):
        # finite returns whose squared deviation overflows: the ratio is
        # not computable, not a meaningless 0.0
        series = daily_series([1e300, -0.5, 0.0, -0.5, 0.0])
        with pytest.raises(UndefinedMetricError):
            sharpe(series, CFG)
        assert tear_sheet(series, series, CFG, "w").sharpe is None


class TestSortino:
    def test_balanced_pair_is_zero(self):
        series = daily_series([0.01, -0.01])
        assert sortino(series, CFG) == pytest.approx(0.0, abs=1e-15)
        # the downside leg alone fixes the denominator at sqrt(0.00005)
        assert math.isclose(
            oracles.sortino([0.01, -0.011]),
            oracles.mean([0.01, -0.011]) / math.sqrt((0.011 ** 2) / 2) * math.sqrt(252),
            rel_tol=1e-12,
        )

    def test_no_downside_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            sortino(daily_series([0.0, 0.01, 0.02]), CFG)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_downside_deviation_is_undefined(self):
        # a huge risk-free rate, not de-annualized, puts every excess return
        # near -1e300, whose square overflows: not computable, not -0.0
        cfg = MetricConfig(periods_per_year=1, risk_free_rate_annual=1e300)
        with pytest.raises(UndefinedMetricError):
            sortino(daily_series([0.01, -0.02, 0.03]), cfg)

    def test_strictly_negative_returns_are_negative(self):
        assert sortino(daily_series([-0.01, -0.02, -0.005]), CFG) < 0.0


class TestCalmar:
    def test_hand_ratio(self):
        # 20% annual return over a -10% drawdown is a Calmar of 2
        values = [0.05, -0.10, 0.08, 0.02]
        series = daily_series(values)
        expected = annual_return(series, CFG) / abs(
            max_drawdown(np.concatenate(([1.0], np.cumprod(1.0 + np.array(values)))))
        )
        assert math.isclose(calmar(series, CFG), expected, rel_tol=1e-12)
        assert math.isclose(oracles.calmar(values), expected, rel_tol=1e-12)

    def test_flat_path_with_drawdown_is_zero(self):
        # round trip down and exactly back: annual return 0, drawdown < 0
        series = daily_series([-0.2, 0.25])
        assert calmar(series, CFG) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_up_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            calmar(daily_series([0.01, 0.02, 0.03]), CFG)


class TestOmega:
    def test_two_to_one_gains(self):
        assert omega(daily_series([0.02, -0.01]), CFG) == pytest.approx(2.0)

    def test_symmetric_returns_give_one(self):
        series = daily_series([0.03, -0.03, 0.01, -0.01])
        assert omega(series, CFG) == pytest.approx(1.0)

    def test_no_downside_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            omega(daily_series([0.01, 0.02]), CFG)

    def test_threshold_shifts_mass(self):
        series = daily_series([0.02, -0.01])
        high_bar = MetricConfig(omega_threshold_daily=0.015)
        assert omega(series, high_bar) < omega(series, CFG)


class TestTailRatio:
    def test_symmetric_sample_is_one(self):
        series = daily_series([-0.02, -0.01, 0.0, 0.01, 0.02])
        assert tail_ratio(series) == pytest.approx(1.0)

    def test_negation_inverts(self, rng):
        values = random_returns(rng, 101)
        ratio = tail_ratio(daily_series(values))
        inverted = tail_ratio(daily_series(-values))
        assert math.isclose(inverted, 1.0 / ratio, rel_tol=1e-9)

    def test_zero_fifth_percentile_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            tail_ratio(daily_series([0.0, 0.0, 0.0, 0.01]))


class TestSkewness:
    def test_symmetric_sample_is_zero(self):
        series = daily_series([-0.02, -0.01, 0.0, 0.01, 0.02])
        assert skewness(series) == pytest.approx(0.0, abs=1e-12)

    def test_right_tail_is_positive(self):
        assert skewness(daily_series([0.0, 0.0, 0.0, 1.0])) > 0.0

    def test_matches_moment_oracle(self, rng):
        values = random_returns(rng, 257)
        assert math.isclose(skewness(daily_series(values)),
                            oracles.skewness(values.tolist()), rel_tol=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(DomainError):
            skewness(daily_series([0.01, 0.02]))

    def test_zero_variance_undefined(self):
        with pytest.raises(UndefinedMetricError):
            skewness(daily_series([0.01, 0.01, 0.01]))


class TestKurtosis:
    def test_two_point_fixture_frozen_from_oracle(self):
        assert kurtosis(daily_series([-0.5, 0.5, -0.5, 0.5])) == pytest.approx(-6.0)
        assert kurtosis(daily_series([-0.5, 0.5] * 4)) == pytest.approx(-2.8)

    def test_heavy_outlier_is_large_positive(self):
        values = [0.0] * 99 + [10.0]
        assert kurtosis(daily_series(values)) > 10.0

    def test_matches_moment_oracle(self, rng):
        values = random_returns(rng, 123)
        assert math.isclose(kurtosis(daily_series(values)),
                            oracles.kurtosis(values.tolist()), rel_tol=1e-12)

    def test_excess_convention_scores_normal_data_near_zero(self):
        # excess convention: a big Gaussian sample sits near 0, not near 3
        values = np.random.default_rng(99).normal(0.0005, 0.02, size=200_000)
        assert abs(kurtosis(daily_series(values))) < 0.1


class TestStability:
    def test_constant_growth_is_perfectly_stable(self):
        series = daily_series([0.01] * 20)
        assert stability(series) == pytest.approx(1.0, abs=1e-12)

    def test_trendless_zigzag_is_zero(self):
        # cumulative log returns trace 0,1,1,0 repeatedly: symmetric about
        # the centre of the time axis, so the fitted slope is exactly zero
        cumlog = np.array([0.0, 1.0, 1.0, 0.0] * 3)
        values = np.exp(np.diff(np.concatenate(([0.0], cumlog)))) - 1.0
        assert stability(daily_series(values)) == pytest.approx(0.0, abs=1e-12)

    def test_equals_squared_pearson_correlation(self, rng):
        values = random_returns(rng, 200)
        r2 = stability(daily_series(values))
        oracle = oracles.stability(values.tolist())
        assert math.isclose(r2, oracle, rel_tol=1e-12, abs_tol=1e-12)

    def test_zero_variance_undefined(self):
        with pytest.raises(UndefinedMetricError):
            stability(daily_series([0.0, 0.0, 0.0]))


class TestSampleRule:
    """Skewness, kurtosis, stability and the regression each need at least n
    values, not all equal, by one rule."""

    @pytest.mark.parametrize("statistic, least, what, names", [
        (lambda p, b: skewness(p), 3, "skewness", ["skewness"]),
        (lambda p, b: kurtosis(p), 4, "kurtosis", ["kurtosis"]),
        (lambda p, b: stability(p), 3, "stability", ["stability"]),
        (lambda p, b: alpha_beta(p, b, CFG), 3, "regression", ["alpha", "beta"]),
    ], ids=["skewness", "kurtosis", "stability", "alpha_beta"])
    def test_too_few_values_or_all_equal(self, rng, statistic, least, what, names):
        # fewer than ``least`` values is a domain error, worded alike in each
        # statistic; a constant sample (the regression's is the benchmark)
        # makes the statistic not computable
        for n in range(1, least):
            short = daily_series(random_returns(rng, n))
            with pytest.raises(DomainError,
                               match=f"^{what} needs at least {least} observations, got {n}$"):
                statistic(short, short)
        enough = daily_series(random_returns(rng, least))
        statistic(enough, enough)
        flat, varied = daily_series([0.0] * 30), daily_series(random_returns(rng, 30))
        portfolio, benchmark = (varied, flat) if what == "regression" else (flat, varied)
        sheet = tear_sheet(portfolio, benchmark, CFG)
        assert [getattr(sheet, name) for name in names] == [None] * len(names)

    @pytest.mark.parametrize("statistic, what", [
        (lambda r: sharpe(r, CFG), "sharpe"),
        (lambda r: annual_volatility(r, CFG), "annual_volatility"),
    ], ids=["sharpe", "annual_volatility"])
    def test_sample_deviation_names_its_statistic(self, statistic, what):
        with pytest.raises(DomainError,
                           match=f"^{what} needs at least 2 observations, got 1$"):
            statistic(daily_series([0.01]))
        # two equal values deviate by exactly 0.0, which leaves sharpe undefined
        flat = daily_series([0.01, 0.01])
        if what == "sharpe":
            with pytest.raises(UndefinedMetricError, match="^zero standard deviation$"):
                statistic(flat)
        else:
            assert statistic(flat) == 0.0


class TestDailyVar:
    def test_worst_five_percent_block(self):
        # ten copies of -2% at the bottom, so the 5th percentile sits flat
        values = [-0.02] * 10 + [0.001 * k for k in range(1, 91)]
        assert daily_var(daily_series(values), CFG) == pytest.approx(-0.02)

    def test_all_zero_returns(self):
        assert daily_var(daily_series([0.0] * 50), CFG) == 0.0

    def test_translation_equivariance(self, rng):
        values = random_returns(rng, 200)
        base = daily_var(daily_series(values), CFG)
        shifted = daily_var(daily_series(values + 0.005), CFG)
        assert math.isclose(shifted, base + 0.005, rel_tol=1e-9, abs_tol=1e-15)

    def test_matches_percentile_oracle(self, rng):
        values = random_returns(rng, 333)
        assert math.isclose(daily_var(daily_series(values), CFG),
                            oracles.daily_var(values.tolist()), rel_tol=1e-12)


class TestAlphaBeta:
    def test_identical_series_give_beta_one_alpha_zero(self, rng):
        values = random_returns(rng, 100)
        series = daily_series(values)
        alpha, beta = alpha_beta(series, series, CFG)
        assert beta == pytest.approx(1.0, abs=1e-12)
        assert alpha == pytest.approx(0.0, abs=1e-9)

    def test_half_beta_construction(self, rng):
        bench = daily_series(random_returns(rng, 150))
        portfolio = daily_series(0.5 * bench.values)
        alpha, beta = alpha_beta(portfolio, bench, CFG)
        assert beta == pytest.approx(0.5, abs=1e-12)
        assert alpha == pytest.approx(0.0, abs=1e-9)

    def test_constant_daily_edge(self, rng):
        bench = daily_series(random_returns(rng, 252))
        portfolio = daily_series(bench.values + 0.0001)
        alpha, beta = alpha_beta(portfolio, bench, CFG)
        assert beta == pytest.approx(1.0, abs=1e-12)
        assert alpha == pytest.approx(1.0001 ** 252 - 1.0, rel=1e-9)

    def test_zero_benchmark_variance_undefined(self):
        bench = daily_series([0.01] * 10)
        portfolio = daily_series([0.02] * 10)
        with pytest.raises(UndefinedMetricError):
            alpha_beta(portfolio, bench, CFG)

    def test_misaligned_dates_rejected(self, rng):
        from datetime import date

        a = daily_series(random_returns(rng, 10))
        b = daily_series(random_returns(rng, 10), start=date(2021, 2, 1))
        with pytest.raises(AlignmentError):
            alpha_beta(a, b, CFG)


class TestBoxPlotSummary:
    def test_one_to_five(self):
        series = daily_series([1.0, 2.0, 3.0, 4.0, 5.0])
        assert box_plot_summary(series) == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_single_value(self):
        series = daily_series([0.7])
        assert box_plot_summary(series) == (0.7, 0.7, 0.7, 0.7, 0.7)

    def test_permutation_invariant(self, rng):
        values = random_returns(rng, 60)
        base = box_plot_summary(daily_series(values))
        shuffled = values.copy()
        rng.shuffle(shuffled)
        assert box_plot_summary(daily_series(shuffled)) == base


@st.composite
def quantile_samples(draw):
    """1 to 700 returns, from all distinct to all tied, with runs of 0.0 and -0.0."""
    n = draw(st.one_of(st.integers(1, 3), st.integers(4, 700)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(0.0, 0.01, n)
    tied = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    values[tied] = rng.choice([0.0, -0.0, 0.0, -0.0, 0.01, -0.02], tied.sum())
    return values


class TestQuantiles:
    """``_quantiles`` is ``np.percentile`` to the bit, signed zeros included:
    a sort-based kernel differs from it in the sign of a zero."""

    FIXED = [0.0, 5.0, 25.0, 50.0, 75.0, 95.0, 100.0]

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(values=quantile_samples(), var_cutoff=st.floats(0.0, 0.5, exclude_min=True,
                                                          exclude_max=True),
           q=st.floats(0.0, 100.0))
    @example(values=np.array([-0.0]), var_cutoff=0.05, q=50.0)
    @example(values=np.array([0.0, -0.0]), var_cutoff=0.05, q=50.0)
    @example(values=np.array([-0.0, -0.0]), var_cutoff=0.05, q=100.0)
    @example(values=np.array([-0.0, 0.0, -0.0]), var_cutoff=0.25, q=99.0)
    @example(values=np.array([0.01, -0.0, 0.01]), var_cutoff=0.05, q=33.3)
    def test_bit_identical_to_numpy_percentile(self, values, var_cutoff, q):
        percents = [*self.FIXED, 100.0 * var_cutoff, q]
        got = np.array(_quantiles(values, percents))
        np.testing.assert_array_equal(got.view(np.int64),
                                      np.percentile(values, percents).view(np.int64))
        # one percent at a time, against the scalar call daily_var made
        one = np.array(_quantiles(values, [100.0 * var_cutoff]))
        want = np.array([np.percentile(values, 100.0 * var_cutoff)])
        np.testing.assert_array_equal(one.view(np.int64), want.view(np.int64))


class TestTearSheet:
    def test_exactly_fifteen_metrics(self):
        assert len(METRIC_NAMES) == 15
        assert [f.name for f in fields(TearSheet)] == list(METRIC_NAMES) + ["window_label"]

    def test_all_zero_returns(self):
        zeros = daily_series([0.0] * 30)
        sheet = tear_sheet(zeros, zeros, CFG, "flat")
        assert sheet.cumulative_return == 0.0
        assert sheet.max_drawdown == 0.0
        assert sheet.annual_volatility == 0.0
        assert sheet.annual_return == 0.0
        assert sheet.daily_var == 0.0
        for name in ("sharpe", "calmar", "sortino", "omega", "tail_ratio",
                     "skewness", "kurtosis", "stability", "alpha", "beta"):
            assert getattr(sheet, name) is None, name

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_statistics_are_not_computable(self, rng):
        # a 1e300 gain annualizes past the largest float, and its squared
        # deviation overflows too: those cells are not-computable, not inf
        portfolio = daily_series([1e300, -0.5, 0.0, -0.5, 0.0])
        bench = daily_series(random_returns(rng, 5))
        with pytest.raises(UndefinedMetricError):
            annual_return(portfolio, CFG)
        with pytest.raises(UndefinedMetricError):
            alpha_beta(portfolio, bench, CFG)
        sheet = tear_sheet(portfolio, bench, CFG, "w")
        for name in ("annual_return", "annual_volatility", "calmar", "alpha", "beta"):
            assert getattr(sheet, name) is None, name
        for name in METRIC_NAMES:
            value = getattr(sheet, name)
            assert value is None or math.isfinite(value), name

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_wealth_is_not_computable(self, rng):
        # each 1e300 gain compounds: wealth passes the largest float on
        # day 3, so cumulative return and drawdown are empty, not an error
        portfolio = daily_series([1e300, 0.0, 1e300, 0.0, 1e300])
        bench = daily_series(random_returns(rng, 5))
        with pytest.raises(UndefinedMetricError):
            calmar(portfolio, CFG)
        sheet = tear_sheet(portfolio, bench, CFG, "w")
        for name in ("cumulative_return", "max_drawdown", "calmar"):
            assert getattr(sheet, name) is None, name
        for name in METRIC_NAMES:
            value = getattr(sheet, name)
            assert value is None or math.isfinite(value), name

    def test_published_cumulative_example(self, rng):
        # any positive path from 10k to 48k reports a 380% cumulative return
        steps = np.exp(rng.normal(0.0, 0.01, size=99))
        values = 10_000.0 * np.concatenate(([1.0], np.cumprod(steps)))
        values *= (48_000.0 / values[-1]) ** (np.arange(100) / 99.0)
        portfolio = daily_series(values[1:] / values[:-1] - 1.0)
        bench = daily_series(random_returns(rng, 99))
        sheet = tear_sheet(portfolio, bench, CFG, "w")
        assert sheet.cumulative_return == pytest.approx(3.80, rel=1e-12)

    def test_every_field_matches_oracles_on_seeded_fixture(self):
        rng = np.random.default_rng(77)
        values = random_returns(rng, 300)
        bench_values = random_returns(rng, 300)
        sheet = tear_sheet(daily_series(values), daily_series(bench_values), CFG, "w")
        r = values.tolist()
        alpha, beta = oracles.alpha_beta(r, bench_values.tolist())
        expected = {
            "annual_return": oracles.annual_return(r),
            "cumulative_return": oracles.cumulative_return(r),
            "annual_volatility": oracles.annual_volatility(r),
            "max_drawdown": oracles.max_drawdown(oracles.wealth_curve(r)),
            "sharpe": oracles.sharpe(r),
            "calmar": oracles.calmar(r),
            "sortino": oracles.sortino(r),
            "omega": oracles.omega(r),
            "tail_ratio": oracles.tail_ratio(r),
            "skewness": oracles.skewness(r),
            "kurtosis": oracles.kurtosis(r),
            "stability": oracles.stability(r),
            "daily_var": oracles.daily_var(r),
            "alpha": alpha,
            "beta": beta,
        }
        for name, want in expected.items():
            got = getattr(sheet, name)
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), name

    def test_misaligned_benchmark_rejected(self, rng):
        from datetime import date

        a = daily_series(random_returns(rng, 20))
        b = daily_series(random_returns(rng, 20), start=date(2022, 1, 3))
        with pytest.raises(AlignmentError):
            tear_sheet(a, b, CFG, "w")


class TestPermutationSensitivity:
    def test_shape_metrics_are_permutation_invariant(self, rng):
        values = random_returns(rng, 101)
        shuffled = values.copy()
        rng.shuffle(shuffled)
        a, b = daily_series(values), daily_series(shuffled)
        for fn in (lambda s: annual_volatility(s, CFG),
                   lambda s: daily_var(s, CFG),
                   lambda s: omega(s, CFG),
                   skewness, kurtosis, tail_ratio):
            assert math.isclose(fn(a), fn(b), rel_tol=1e-9), fn

    def test_path_metrics_are_order_sensitive(self):
        # same return distribution, different path: shuffling moves the
        # drawdown, the trend fit, and the running cumulative series
        rng = np.random.default_rng(5150)
        values = random_returns(rng, 120)
        shuffled = values.copy()
        rng.shuffle(shuffled)
        a, b = daily_series(values), daily_series(shuffled)
        mdd_a = max_drawdown(np.concatenate(([1.0], np.cumprod(1.0 + values))))
        mdd_b = max_drawdown(np.concatenate(([1.0], np.cumprod(1.0 + shuffled))))
        assert not math.isclose(mdd_a, mdd_b, rel_tol=1e-6)
        assert not math.isclose(stability(a), stability(b), rel_tol=1e-6)
        path_a = np.cumprod(1.0 + a.values) - 1.0
        path_b = np.cumprod(1.0 + b.values) - 1.0
        assert not np.allclose(path_a, path_b)
        # .. while the endpoint itself is order-free
        assert math.isclose(path_a[-1], path_b[-1], rel_tol=1e-9)


class TestMetricConfig:
    def test_defaults(self):
        assert CFG.periods_per_year == 252
        assert CFG.risk_free_rate_annual == 0.0
        assert CFG.omega_threshold_daily == 0.0
        assert CFG.var_cutoff == 0.05

    def test_invalid_configs_rejected(self):
        with pytest.raises(DomainError):
            MetricConfig(periods_per_year=0)
        with pytest.raises(DomainError):
            MetricConfig(var_cutoff=0.5)
        with pytest.raises(DomainError):
            MetricConfig(var_cutoff=0.0)
        with pytest.raises(DomainError):
            MetricConfig(risk_free_rate_annual=-1.5)

    @pytest.mark.parametrize("field, value, match", [
        ("risk_free_rate_annual", math.nan,
         "risk_free_rate_annual must be a finite number, got nan"),
        ("risk_free_rate_annual", math.inf,
         "risk_free_rate_annual must be a finite number, got inf"),
        ("risk_free_rate_annual", -math.inf,
         "risk_free_rate_annual must be a finite number, got -inf"),
        ("risk_free_rate_annual", 10**400,
         "risk_free_rate_annual must be a finite number, got 1000"),
        ("omega_threshold_daily", math.nan,
         "omega_threshold_daily must be a finite number, got nan"),
        ("omega_threshold_daily", -10**400,
         "omega_threshold_daily must be a finite number, got -1000"),
        ("var_cutoff", 10**400, "var_cutoff must be a finite number, got 1000"),
        ("periods_per_year", 2.5, "periods_per_year must be a positive integer, got 2.5"),
        ("periods_per_year", 252.0, "periods_per_year must be a positive integer, got 252.0"),
        ("periods_per_year", "12", "periods_per_year must be a positive integer, got '12'"),
        ("periods_per_year", 0, "periods_per_year must be a positive integer, got 0"),
        ("periods_per_year", True, "periods_per_year must be a positive integer, got True"),
        ("periods_per_year", 10**400, "periods_per_year must be a positive integer, got 1000"),
        ("var_cutoff", 10**5000, "var_cutoff must be a finite number, got <int too long"),
        ("var_cutoff", "x", "var_cutoff must be a finite number, got 'x'"),
        ("risk_free_rate_annual", "x", "risk_free_rate_annual must be a finite number, got 'x'"),
        ("omega_threshold_daily", None, "omega_threshold_daily must be a finite number, got None"),
    ], ids=huge_id)
    def test_unusable_numbers_rejected(self, field, value, match):
        with pytest.raises(DomainError, match=match):
            MetricConfig(**{field: value})

    @pytest.mark.parametrize("field, message", [
        ("periods_per_year", "periods_per_year must be a positive integer"),
        ("var_cutoff", "var_cutoff must be a finite number"),
    ])
    def test_int_past_the_digit_limit_is_a_domain_error(self, field, message):
        # repr() of an int of over 4300 digits is itself a ValueError
        for value in (10**5000, -10**5000):
            with pytest.raises(DomainError, match=f"{message}, got <int too long to print>$"):
                MetricConfig(**{field: value})

    def test_numpy_integer_periods_accepted(self):
        assert MetricConfig(periods_per_year=np.int64(12)).periods_per_year == 12
