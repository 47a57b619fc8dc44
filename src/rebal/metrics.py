"""Performance and risk statistics for daily simple return series.

Conventions, fixed here so every number in a report is reproducible:

* Annualization uses ``periods_per_year`` trading days (default 252).
* Dispersion uses the sample (n-1) divisor everywhere: volatility, the
  Sharpe denominator, and the beta regression.
* The risk-free rate is stated annually and de-annualized geometrically:
  rf_daily = (1 + rf_annual)^(1/periods) - 1.
* Percentiles interpolate linearly between closest ranks, uniformly for
  value at risk, the tail ratio, and box summaries.
* Skewness is the adjusted Fisher-Pearson sample statistic; kurtosis is
  reported in excess form (normal data scores 0), sample-adjusted.
* Alpha is the daily regression intercept compounded to an annual
  fraction.
* A statistic whose definition divides by zero on the given input
  (zero variance, zero drawdown, no downside mass, zero 5th percentile),
  or whose annualization, compounded wealth or ratio denominator
  overflows, raises UndefinedMetricError (ratios through ``_ratio``); tear
  sheets record it, and any other non-finite value, as not-computable
  rather than emitting infinities.

All functions are pure; tear sheets for many windows may be computed
concurrently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import AlignmentError, DomainError, UndefinedMetricError, require_number
from .returns import ReturnSeries

TRADING_DAYS_PER_YEAR = 252


@dataclass(frozen=True)
class MetricConfig:
    """Knobs shared by the annualized and threshold-based statistics."""

    periods_per_year: int = TRADING_DAYS_PER_YEAR
    risk_free_rate_annual: float = 0.0
    omega_threshold_daily: float = 0.0
    var_cutoff: float = 0.05

    def __post_init__(self):
        ppy = self.periods_per_year
        if (isinstance(ppy, bool) or not isinstance(ppy, (int, np.integer))
                or not 1 <= ppy <= sys.float_info.max):
            raise DomainError(f"periods_per_year must be a positive integer, got {ppy!r}")
        for name in ("risk_free_rate_annual", "omega_threshold_daily", "var_cutoff"):
            require_number(name, getattr(self, name))
        if not 0.0 < self.var_cutoff < 0.5:
            raise DomainError(f"var_cutoff must lie in (0, 0.5), got {self.var_cutoff}")
        if self.risk_free_rate_annual < -1.0:
            raise DomainError("risk_free_rate_annual must be >= -1")

    @property
    def risk_free_daily(self) -> float:
        return (1.0 + self.risk_free_rate_annual) ** (1.0 / self.periods_per_year) - 1.0


@dataclass(frozen=True)
class TearSheet:
    """One evaluation window's report: fifteen statistics plus a label.

    A ``None`` field means the statistic is not computable on that window
    (for example Sharpe on a zero-variance series).
    """

    annual_return: float | None
    cumulative_return: float | None
    annual_volatility: float | None
    max_drawdown: float | None
    sharpe: float | None
    calmar: float | None
    sortino: float | None
    omega: float | None
    tail_ratio: float | None
    skewness: float | None
    kurtosis: float | None
    stability: float | None
    daily_var: float | None
    alpha: float | None
    beta: float | None
    window_label: str = ""


METRIC_NAMES: tuple[str, ...] = tuple(
    f.name for f in fields(TearSheet) if f.name != "window_label"
)


def _values(returns: ReturnSeries) -> np.ndarray:
    if len(returns) == 0:
        raise DomainError("empty return series")
    return returns.values


def _sample_std(x: np.ndarray) -> float:
    if len(x) < 2:
        raise DomainError(f"need at least 2 observations, got {len(x)}")
    # a constant sample has zero dispersion by definition; computing it
    # numerically would leave ~1e-18 of rounding residue
    if np.all(x == x[0]):
        return 0.0
    return float(np.std(x, ddof=1))


def cagr(initial: float, final: float, years: float) -> float:
    """Compound annual growth rate from initial to final value."""
    if initial <= 0.0 or final <= 0.0:
        raise DomainError(f"values must be positive, got {initial} -> {final}")
    if years <= 0.0:
        raise DomainError(f"years must be positive, got {years}")
    return (final / initial) ** (1.0 / years) - 1.0


def _power(base: float, exponent: float) -> float:
    """``base ** exponent``, undefined when it overflows or is not finite."""
    try:
        out = base ** exponent
    except OverflowError:
        raise UndefinedMetricError(f"{base} ** {exponent} overflows") from None
    if not math.isfinite(out):
        raise UndefinedMetricError(f"{base} ** {exponent} is not finite")
    return out


def annual_return(returns: ReturnSeries, cfg: MetricConfig = MetricConfig()) -> float:
    """Geometric annualization of the window's total compounded return."""
    r = _values(returns)
    total = float(np.prod(1.0 + r))
    return _power(total, cfg.periods_per_year / len(r)) - 1.0


def annual_volatility(returns: ReturnSeries, cfg: MetricConfig = MetricConfig()) -> float:
    """Sample standard deviation of returns scaled by sqrt(periods)."""
    return _sample_std(_values(returns)) * math.sqrt(cfg.periods_per_year)


def max_drawdown(wealth) -> float:
    """Worst peak-to-trough decline of a wealth curve: min(w_t / peak_t - 1).

    Accepts any positive value or cumulative-wealth series; zero values are
    permitted (a total loss scores -1.0).  The result is <= 0, with 0 for a
    curve that never dips below its running peak.
    """
    w = np.asarray(wealth, dtype=np.float64)
    if w.size == 0:
        raise DomainError("empty wealth series")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0) or w[0] <= 0.0:
        raise DomainError("wealth must be finite, non-negative, and start positive")
    peaks = np.maximum.accumulate(w)
    return float(np.min(w / peaks - 1.0))


def _ratio(numerator: float, denominator: float, what: str) -> float:
    """``numerator / denominator``; undefined if ``what``, the denominator, is 0 or not finite."""
    if denominator == 0.0 or not math.isfinite(denominator):
        raise UndefinedMetricError(f"zero {what}" if denominator == 0.0 else f"{what} overflows")
    return numerator / denominator


def _wealth(r: np.ndarray) -> np.ndarray:
    wealth = np.concatenate(([1.0], np.cumprod(1.0 + r)))
    if not np.all(np.isfinite(wealth)):
        raise UndefinedMetricError("compounded wealth overflows")
    return wealth


def sharpe(returns: ReturnSeries, cfg: MetricConfig = MetricConfig()) -> float:
    """Annualized mean excess return over its sample standard deviation."""
    r = _values(returns) - cfg.risk_free_daily
    sd = _sample_std(r)
    return _ratio(float(np.mean(r)), sd, "standard deviation") * math.sqrt(cfg.periods_per_year)


def sortino(returns: ReturnSeries, cfg: MetricConfig = MetricConfig()) -> float:
    """Like Sharpe but with downside deviation in the denominator.

    Downside deviation is the root mean square of min(r - mar, 0) over all
    observations, with the minimum acceptable return set to the daily
    risk-free rate.
    """
    r = _values(returns) - cfg.risk_free_daily
    downside = np.minimum(r, 0.0)
    dd = math.sqrt(float(np.mean(downside * downside)))
    return _ratio(float(np.mean(r)), dd, "downside deviation") * math.sqrt(cfg.periods_per_year)


def calmar(returns: ReturnSeries, cfg: MetricConfig = MetricConfig()) -> float:
    """Annual return relative to the magnitude of the maximum drawdown."""
    mdd = max_drawdown(_wealth(_values(returns)))
    return _ratio(annual_return(returns, cfg), abs(mdd), "drawdown")


def omega(returns: ReturnSeries, cfg: MetricConfig = MetricConfig()) -> float:
    """Probability-weighted gains above the threshold over losses below it."""
    r = _values(returns)
    gains = float(np.sum(np.maximum(r - cfg.omega_threshold_daily, 0.0)))
    losses = float(np.sum(np.maximum(cfg.omega_threshold_daily - r, 0.0)))
    return _ratio(gains, losses, "downside mass below the threshold")


def tail_ratio(returns: ReturnSeries) -> float:
    """|95th percentile| / |5th percentile| of the return distribution."""
    p05, p95 = np.percentile(_values(returns), [5.0, 95.0]).tolist()
    return _ratio(abs(p95), abs(p05), "5th percentile")


def _deviations(returns: ReturnSeries, name: str, least: int):
    """n, the deviations from the mean and their mean square m2, of at least
    ``least`` returns that are not all equal."""
    r = _values(returns)
    n = len(r)
    if n < least:
        raise DomainError(f"{name} needs at least {least} observations, got {n}")
    if np.all(r == r[0]):
        raise UndefinedMetricError("zero variance")
    d = r - np.mean(r)
    return n, d, float(np.mean(d * d))


def skewness(returns: ReturnSeries) -> float:
    """Adjusted Fisher-Pearson sample skewness."""
    n, d, m2 = _deviations(returns, "skewness", 3)
    g1 = float(np.mean(d ** 3)) / m2 ** 1.5
    return g1 * math.sqrt(n * (n - 1)) / (n - 2)


def kurtosis(returns: ReturnSeries) -> float:
    """Sample-adjusted excess kurtosis (normal data scores 0)."""
    n, d, m2 = _deviations(returns, "kurtosis", 4)
    g2 = float(np.mean(d ** 4)) / (m2 * m2) - 3.0
    return ((n + 1) * g2 + 6.0) * (n - 1) / ((n - 2) * (n - 3))


def stability(returns: ReturnSeries) -> float:
    """R-squared of a least-squares line through cumulative log returns.

    Measures how consistently the wealth path trends: 1.0 for a constant
    daily growth rate, near 0 for a trendless path.
    """
    r = _values(returns)
    n = len(r)
    if n < 3:
        raise DomainError(f"stability needs at least 3 observations, got {n}")
    y = np.cumsum(np.log1p(r))
    if np.all(y == y[0]):
        raise UndefinedMetricError("zero variance of cumulative log returns")
    x = np.arange(n, dtype=np.float64)
    xd = x - x.mean()
    yd = y - y.mean()
    sxx = float(np.dot(xd, xd))
    syy = float(np.dot(yd, yd))
    slope = float(np.dot(xd, yd)) / sxx
    resid = yd - slope * xd
    r2 = 1.0 - float(np.dot(resid, resid)) / syy
    return min(max(r2, 0.0), 1.0)


def daily_var(returns: ReturnSeries, cfg: MetricConfig = MetricConfig()) -> float:
    """Historical one-day value at risk: the cutoff percentile of returns."""
    return float(np.percentile(_values(returns), 100.0 * cfg.var_cutoff))


def alpha_beta(
    portfolio: ReturnSeries,
    benchmark: ReturnSeries,
    cfg: MetricConfig = MetricConfig(),
) -> tuple[float, float]:
    """Regression of portfolio excess returns on benchmark excess returns.

    Returns (alpha_annual, beta) where beta is the sample-covariance slope
    and alpha is the daily intercept compounded over one year.
    """
    if not np.array_equal(portfolio.dates, benchmark.dates):
        raise AlignmentError("portfolio and benchmark dates differ")
    rp = _values(portfolio) - cfg.risk_free_daily
    rb = _values(benchmark) - cfg.risk_free_daily
    n = len(rp)
    if n < 3:
        raise DomainError(f"regression needs at least 3 observations, got {n}")
    if np.all(rb == rb[0]):
        raise UndefinedMetricError("zero benchmark variance")
    bd = rb - rb.mean()
    var_b = float(np.dot(bd, bd)) / (n - 1)
    cov = float(np.dot(rp - rp.mean(), bd)) / (n - 1)
    beta = cov / var_b
    alpha_daily = float(np.mean(rp)) - beta * float(np.mean(rb))
    alpha_annual = _power(1.0 + alpha_daily, cfg.periods_per_year) - 1.0
    return alpha_annual, beta


def box_plot_summary(returns: ReturnSeries) -> tuple[float, float, float, float, float]:
    """Five-number summary (min, Q1, median, Q3, max) of a return series."""
    return tuple(np.percentile(_values(returns), [0.0, 25.0, 50.0, 75.0, 100.0]).tolist())


def tear_sheet(
    portfolio: ReturnSeries,
    benchmark: ReturnSeries,
    cfg: MetricConfig = MetricConfig(),
    window_label: str = "",
) -> TearSheet:
    """Compute the full fifteen-statistic report for one window.

    Statistics that are undefined on the window (zero variance, zero
    drawdown, overflow, ...) or not finite come back as None; domain
    errors (too few observations, misaligned benchmark) propagate.
    """
    try:  # first, for its check that the dates match
        alpha, beta = alpha_beta(portfolio, benchmark, cfg)
    except UndefinedMetricError:
        alpha, beta = None, None
    r = _values(portfolio)

    def guarded(fn):
        try:
            value = fn()
        except UndefinedMetricError:
            return None
        return value if math.isfinite(value) else None

    return TearSheet(
        annual_return=guarded(lambda: annual_return(portfolio, cfg)),
        cumulative_return=guarded(lambda: float(np.prod(1.0 + r)) - 1.0),
        annual_volatility=guarded(lambda: annual_volatility(portfolio, cfg)),
        max_drawdown=guarded(lambda: max_drawdown(_wealth(r))),
        sharpe=guarded(lambda: sharpe(portfolio, cfg)),
        calmar=guarded(lambda: calmar(portfolio, cfg)),
        sortino=guarded(lambda: sortino(portfolio, cfg)),
        omega=guarded(lambda: omega(portfolio, cfg)),
        tail_ratio=guarded(lambda: tail_ratio(portfolio)),
        skewness=guarded(lambda: skewness(portfolio)),
        kurtosis=guarded(lambda: kurtosis(portfolio)),
        stability=guarded(lambda: stability(portfolio)),
        daily_var=daily_var(portfolio, cfg),
        alpha=alpha,
        beta=beta,
        window_label=window_label,
    )
