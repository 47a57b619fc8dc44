"""rebal: a deterministic calendar-rebalancing backtester.

Builds equal-weight stock portfolios with whole-share counts, evolves
them under a daily / monthly / yearly rebalancing schedule, and scores
them against a benchmark index with a fifteen-statistic tear sheet.
"""

from .errors import (
    AlignmentError,
    AllocationError,
    ConfigError,
    DomainError,
    InsolvencyError,
    ParseError,
    RebalError,
    UndefinedMetricError,
    ValidationError,
    WindowError,
)
from .market_data import (
    PricePanel,
    PriceSeries,
    SectorManifest,
    align_panel,
    clip_panel,
    load_price_series,
    load_sector_manifest,
)
from .metrics import (
    METRIC_NAMES,
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
from .portfolio import (
    BacktestResult,
    CapitalPlan,
    RebalancePolicy,
    allocate,
    rebalance_dates,
    run_backtest,
)
from .report import (
    emit_plot_data,
    export_tear_sheets,
    format_number,
    read_tear_sheets,
)
from .returns import (
    ReturnSeries,
    aggregate,
    cumulative_return,
    simple_returns,
    split_sample,
)

__version__ = "0.1.0"
