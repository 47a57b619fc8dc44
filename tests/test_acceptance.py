"""Acceptance suite: one test per release criterion.

Each criterion runs at its stated tolerance and prints a PASS line on
success (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
Expected values come from the independent oracles in ``oracles.py``,
which were written before the engine.
"""

import filecmp
import json
import math
import time
from datetime import date

import numpy as np
import pytest

import oracles
from rebal.cli import main
from rebal.market_data import PricePanel
from rebal.metrics import (
    METRIC_NAMES,
    MetricConfig,
    annual_volatility,
    cagr,
    daily_var,
    kurtosis,
    max_drawdown,
    omega,
    sharpe,
    skewness,
    stability,
    tail_ratio,
    tear_sheet,
)
from rebal.portfolio import RebalancePolicy, run_backtest
from rebal.returns import aggregate, cumulative_return
from rebal.synthetic import business_days, generate_universe

from conftest import daily_series, random_returns, trading_days

CFG = MetricConfig()


def passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def rel_close(a: float, b: float, tol: float) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=1e-12)


def test_criterion_1_metric_oracle_equivalence():
    """Every tear-sheet metric matches its brute-force oracle to 1e-9
    relative, on 50 seeded random series, in under 10 seconds."""
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    for trial in range(50):
        n = int(rng.integers(30, 1001))
        values = random_returns(rng, n)
        bench = random_returns(rng, n)
        sheet = tear_sheet(daily_series(values), daily_series(bench), CFG, "w")
        r = values.tolist()
        alpha, beta = oracles.alpha_beta(r, bench.tolist())
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
        assert set(expected) == set(METRIC_NAMES)
        for name, want in expected.items():
            got = getattr(sheet, name)
            assert got is not None, f"trial {trial}: {name} unexpectedly undefined"
            assert rel_close(got, want, 1e-9), (
                f"trial {trial} n={n}: {name} engine={got!r} oracle={want!r}"
            )
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s"
    passed(1, "metric oracle equivalence")


def all_pairs_drawdown(wealth: np.ndarray) -> float:
    """Quadratic brute force: min over every pair s <= t of w_t/w_s - 1."""
    ratios = wealth[None, :] / wealth[:, None]  # [s, t]
    return float(np.minimum(np.min(np.triu(ratios - 1.0)), 0.0))


def test_criterion_2_drawdown_brute_force():
    """max_drawdown equals the O(n^2) peak-trough scan on 200 random wealth
    paths to 1e-12, including total-loss and monotone edge cases."""
    rng = np.random.default_rng(2002)
    assert max_drawdown([100.0, 50.0, 0.0]) == -1.0
    assert max_drawdown([1.0, 1.5, 2.0, 2.0]) == 0.0
    for trial in range(200):
        n = int(rng.integers(5, 1001))
        wealth = 100.0 * np.cumprod(1.0 + random_returns(rng, n, sigma=0.05))
        fast = max_drawdown(wealth)
        slow = all_pairs_drawdown(wealth)
        assert math.isclose(fast, slow, rel_tol=1e-12, abs_tol=1e-12), (
            f"trial {trial} n={n}: {fast!r} vs {slow!r}"
        )
        if n <= 60:  # cross-check the vectorized scan against pure loops
            assert math.isclose(slow, oracles.max_drawdown(wealth.tolist()),
                                rel_tol=1e-12, abs_tol=1e-15)
    passed(2, "drawdown brute force")


def _random_panel(rng) -> PricePanel:
    n_tickers = int(rng.integers(2, 16))
    if rng.random() < 0.35:
        # multi-year span with gaps, so yearly scheduling fires
        base = business_days(date(2021, 1, 4), date(2023, 9, 20))
        size = int(rng.integers(40, 130))
        keep = sorted(rng.choice(len(base), size=size, replace=False))
        days = base[keep]
    else:
        start = date(2021, 1, 4)
        days = trading_days(int(rng.integers(5, 90)), start)
    n = len(days)
    columns = {}
    for k in range(n_tickers):
        start_price = float(np.exp(rng.uniform(np.log(0.5), np.log(20_000.0))))
        columns[f"T{k:02d}"] = (
            start_price * np.cumprod(1.0 + random_returns(rng, n, sigma=0.04))
        )
    tickers = tuple(sorted(columns))
    return PricePanel(
        calendar=days,
        tickers=tickers,
        prices=np.array([columns[t] for t in tickers]),
        benchmark=1000.0 * np.cumprod(1.0 + random_returns(rng, n, sigma=0.02)),
    )


def test_criterion_3_value_conservation():
    """1000 randomized zero-cost backtests: value continuous at every
    rebalance to 1e-9 relative, cash within [0, sum of prices), integer
    share counts throughout."""
    rng = np.random.default_rng(3003)
    frequencies = ("daily", "monthly", "yearly", "never")
    for trial in range(1000):
        panel = _random_panel(rng)
        policy = RebalancePolicy(frequencies[trial % 4], cost_rate=0.0)
        result = run_backtest(panel, policy)

        day_index = {d: i for i, d in enumerate(panel.calendar.tolist())}
        assert np.all(result.cash >= 0.0)
        assert result.shares.dtype == np.int64
        assert np.all(result.shares >= 0)

        checkpoints = [panel.calendar[0].item()] + result.rebalance_dates.tolist()
        for day in checkpoints:
            i = day_index[day]
            price_sum = sum(panel.prices[k][i] for k in range(len(panel.tickers)))
            assert 0.0 <= result.cash[i] < price_sum, (
                f"trial {trial}: cash {result.cash[i]} outside [0, {price_sum})"
            )

        for day in result.rebalance_dates.tolist():
            i = day_index[day]
            pre_trade = sum(
                result.shares[k][i - 1] * panel.prices[k][i] for k in range(len(panel.tickers))
            ) + result.cash[i - 1]
            assert rel_close(result.value[i], pre_trade, 1e-9), (
                f"trial {trial}: value jumped {pre_trade} -> {result.value[i]}"
            )
    passed(3, "value conservation")


def test_criterion_4_regression_recovery():
    """alpha_beta on constructed series a + b * benchmark recovers b to
    1e-12 and the compounded alpha to 1e-9, for 100 random pairs."""
    from rebal.metrics import alpha_beta

    rng = np.random.default_rng(4004)
    for trial in range(100):
        n = int(rng.integers(30, 400))
        a = float(rng.uniform(-0.004, 0.004))
        b = float(rng.uniform(-2.0, 3.0))
        bench_values = random_returns(rng, n)
        portfolio_values = a + b * bench_values
        if np.any(portfolio_values <= -1.0):
            continue
        bench = daily_series(bench_values)
        portfolio = daily_series(portfolio_values)
        alpha, beta = alpha_beta(portfolio, bench, CFG)
        assert math.isclose(beta, b, rel_tol=1e-12, abs_tol=1e-12), (
            f"trial {trial}: beta {beta!r} != {b!r}"
        )
        expected_alpha = (1.0 + a) ** CFG.periods_per_year - 1.0
        assert rel_close(alpha, expected_alpha, 1e-9), (
            f"trial {trial}: alpha {alpha!r} != {expected_alpha!r}"
        )
    passed(4, "regression recovery")


def test_criterion_5_published_point_values():
    """The published worked example and the growth/return formulas."""
    assert cumulative_return(10_000.0, 48_000.0) == 3.80
    # 4.8 ** 0.1 - 1 evaluated with 40-digit arbitrary precision
    assert math.isclose(cagr(10_000.0, 48_000.0, 10.0),
                        0.1698336881100934, rel_tol=1e-12)
    assert math.isclose(cagr(100.0, 121.0, 2.0), 0.10, rel_tol=1e-12)
    assert cagr(250.0, 250.0, 7.0) == 0.0
    assert cumulative_return(100.0, 50.0) == -0.5
    assert cumulative_return(500.0, 500.0) == 0.0
    passed(5, "published point values")


def test_criterion_6_scaling_translation_invariance():
    """Positive-scaling and translation families, 100 fixtures at 1e-9:
    scale-free statistics are unchanged under r -> k*r, dispersion scales
    by k, VaR translates, Sharpe absorbs a matched risk-free shift, and
    the trend fit is unchanged under scaling of the log returns."""
    rng = np.random.default_rng(6006)
    for trial in range(100):
        n = int(rng.integers(30, 500))
        values = random_returns(rng, n)
        k = float(rng.uniform(0.1, 4.0))
        base = daily_series(values)
        scaled = daily_series(k * values)

        assert rel_close(sharpe(scaled, CFG), sharpe(base, CFG), 1e-9)
        assert rel_close(skewness(scaled), skewness(base), 1e-9)
        assert rel_close(kurtosis(scaled), kurtosis(base), 1e-9)
        assert rel_close(tail_ratio(scaled), tail_ratio(base), 1e-9)
        assert rel_close(omega(scaled, CFG), omega(base, CFG), 1e-9)
        assert rel_close(annual_volatility(scaled, CFG),
                         k * annual_volatility(base, CFG), 1e-9)
        assert rel_close(daily_var(scaled, CFG), k * daily_var(base, CFG), 1e-9)

        # omega sign coupling: above 1 exactly when the mean is positive
        assert (omega(base, CFG) > 1.0) == (float(np.mean(values)) > 0.0)

        # trend consistency is a property of the log-return path, so its
        # scale family multiplies log returns, not simple returns
        log_scaled = daily_series(np.expm1(k * np.log1p(values)))
        assert rel_close(stability(log_scaled), stability(base), 1e-9)

        shift = float(rng.uniform(-0.01, 0.01))
        shifted = daily_series(values + shift)
        assert math.isclose(daily_var(shifted, CFG), daily_var(base, CFG) + shift,
                            rel_tol=1e-9, abs_tol=1e-12)

        rf_cfg = MetricConfig(risk_free_rate_annual=float(rng.uniform(0.0, 0.15)))
        translated = daily_series(values + rf_cfg.risk_free_daily)
        assert rel_close(sharpe(translated, rf_cfg), sharpe(base, CFG), 1e-9)
    passed(6, "scaling and translation invariance")


def test_criterion_7_aggregation_consistency():
    """Compounding daily returns, compounding the monthly aggregates, and
    the overall cumulative return agree to 1e-10 on 100 random fixtures."""
    rng = np.random.default_rng(7007)
    for trial in range(100):
        n = int(rng.integers(10, 600))
        start = date(2021, 1, 4 + int(rng.integers(0, 200)) % 25)
        series = daily_series(random_returns(rng, n), start=start)
        total_daily = float(np.prod(1.0 + series.values)) - 1.0
        monthly = aggregate(series, "monthly")
        total_monthly = float(np.prod(1.0 + monthly.values)) - 1.0
        overall = oracles.cumulative_return(series.values.tolist())
        assert math.isclose(total_daily, total_monthly, rel_tol=1e-10, abs_tol=1e-12)
        assert math.isclose(total_daily, overall, rel_tol=1e-10, abs_tol=1e-12)
    passed(7, "aggregation consistency")


def test_criterion_8_end_to_end_determinism(tmp_path, capsys):
    """Two identical runs over the synthetic ten-sector universe produce
    byte-identical output trees, and a dry run on the default window plans
    exactly two yearly rebalances."""
    data_dir, manifests = generate_universe(tmp_path / "universe")
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({
        "data_dir": str(data_dir),
        "manifests": [str(m) for m in manifests],
        "out_dir": str(tmp_path / "out_a"),
    }))

    assert main(["backtest", "--config", str(config_path)]) == 0
    assert main(["backtest", "--config", str(config_path),
                 "--out-dir", str(tmp_path / "out_b")]) == 0

    tree_a = sorted(p.relative_to(tmp_path / "out_a")
                    for p in (tmp_path / "out_a").rglob("*") if p.is_file())
    tree_b = sorted(p.relative_to(tmp_path / "out_b")
                    for p in (tmp_path / "out_b").rglob("*") if p.is_file())
    assert tree_a == tree_b
    assert len({p.parent for p in tree_a}) == 10  # one directory per sector
    for rel in tree_a:
        a = tmp_path / "out_a" / rel
        b = tmp_path / "out_b" / rel
        assert filecmp.cmp(a, b, shallow=False), f"{rel} differs between runs"
        assert a.read_bytes() == b.read_bytes()

    assert main(["validate", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("planned rebalances (yearly): 2") == 10
    assert "2022-01-04" in out and "2023-01-04" in out
    passed(8, "end-to-end determinism")


def test_criterion_9_reference_reproduction_is_available():
    """The conditional reproduction harness and its reference values ship
    with the suite; the comparison itself runs only when real exchange
    data is supplied (see test_reference_reproduction.py)."""
    import test_reference_reproduction as repro

    reference = repro.load_reference()
    assert sorted(reference["sectors"]) == sorted(repro.SECTOR_ORDER)
    for sector, payload in reference["sectors"].items():
        assert len(payload["tickers"]) == 10
        for window in ("in_sample", "out_of_sample", "overall"):
            assert set(payload["windows"][window]) == set(METRIC_NAMES)
    passed(9, "reference reproduction harness present")
