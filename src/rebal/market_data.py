"""Price-series ingestion, validation, and calendar alignment.

Price CSV schema (one file per ticker, or long format with several tickers
in one file):

    date,ticker,adj_close
    2021-01-04,TCS,2928.60

Dates are ISO-8601 calendar days (no timezone), prices are positive
decimals.  UTF-8, LF or CRLF line endings.

Sector manifest schema (JSON):

    {"sector": "auto", "tickers": ["MARUTI", ...], "benchmark": "INDEX50"}

Alignment policy is strict date intersection: a panel's calendar contains
exactly the days on which every constituent and the benchmark traded.  No
forward-filling or imputation is performed.

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import bisect
import csv
import functools
import json
import logging
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import AlignmentError, ParseError, RebalError, ValidationError, WindowError

logger = logging.getLogger(__name__)

PRICE_CSV_HEADER = ("date", "ticker", "adj_close")


def _frozen(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Validated daily adjusted-close series for one ticker."""

    ticker: str
    dates: tuple[date, ...]
    prices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "prices", _frozen(self.prices))
        if len(self.dates) != len(self.prices):
            raise ValidationError(
                f"{self.ticker}: {len(self.dates)} dates vs {len(self.prices)} prices"
            )
        if len(self.dates) < 2:
            raise ValidationError(
                f"{self.ticker}: need at least 2 observations, got {len(self.dates)}"
            )
        for prev, cur in zip(self.dates, self.dates[1:]):
            if cur <= prev:
                raise ValidationError(
                    f"{self.ticker}: dates not strictly increasing at {cur}"
                )
        if not np.all(np.isfinite(self.prices)) or np.any(self.prices <= 0.0):
            raise ValidationError(f"{self.ticker}: prices must be positive and finite")

    def __len__(self) -> int:
        return len(self.dates)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PriceSeries):
            return NotImplemented
        return (
            self.ticker == other.ticker
            and self.dates == other.dates
            and np.array_equal(self.prices, other.prices)
        )


@dataclass(frozen=True)
class SectorManifest:
    """Names the constituents of one sector portfolio and its benchmark."""

    sector: str
    tickers: tuple[str, ...]
    benchmark: str

    def __post_init__(self):
        object.__setattr__(self, "tickers", tuple(self.tickers))
        if not self.tickers:
            raise ValidationError(f"sector {self.sector!r}: empty ticker list")
        if len(set(self.tickers)) != len(self.tickers):
            raise ValidationError(f"sector {self.sector!r}: duplicate tickers")
        if self.benchmark in self.tickers:
            raise ValidationError(
                f"sector {self.sector!r}: benchmark {self.benchmark!r} is also a constituent"
            )


@dataclass(frozen=True, eq=False)
class PricePanel:
    """Constituent prices plus a benchmark on one shared trading calendar.

    Ticker order is canonical (sorted), so two panels built from the same
    series in any input order compare equal field for field.
    """

    calendar: tuple[date, ...]
    tickers: tuple[str, ...]
    columns: dict[str, np.ndarray]
    benchmark: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "calendar", tuple(self.calendar))
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(
            self, "columns", {t: _frozen(v) for t, v in self.columns.items()}
        )
        object.__setattr__(self, "benchmark", _frozen(self.benchmark))
        n = len(self.calendar)
        if n < 2:
            raise ValidationError(f"panel calendar too short ({n} days)")
        for prev, cur in zip(self.calendar, self.calendar[1:]):
            if cur <= prev:
                raise ValidationError(f"panel calendar not strictly increasing at {cur}")
        if tuple(self.columns) != self.tickers:
            raise ValidationError("panel columns do not match ticker order")
        for ticker, col in self.columns.items():
            if len(col) != n:
                raise ValidationError(f"column {ticker!r} length {len(col)} != {n}")
            if not np.all(np.isfinite(col)) or np.any(col <= 0.0):
                raise ValidationError(f"column {ticker!r} has non-positive prices")
        if len(self.benchmark) != n:
            raise ValidationError("benchmark length does not match calendar")
        if not np.all(np.isfinite(self.benchmark)) or np.any(self.benchmark <= 0.0):
            raise ValidationError("benchmark has non-positive prices")

    def __len__(self) -> int:
        return len(self.calendar)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PricePanel):
            return NotImplemented
        return (
            self.calendar == other.calendar
            and self.tickers == other.tickers
            and all(np.array_equal(self.columns[t], other.columns[t]) for t in self.tickers)
            and np.array_equal(self.benchmark, other.benchmark)
        )

    def prices_at(self, idx: int) -> dict[str, float]:
        """Constituent prices on calendar day ``idx``, in ticker order."""
        return {t: float(self.columns[t][idx]) for t in self.tickers}


class _PriceFile(NamedTuple):
    """One pass over a price CSV.

    ``series`` maps each ticker seen to its validated PriceSeries or to the
    first error on one of its rows.  ``error`` is the file's first
    structural error (bad header, ragged row); parsing stops there, so every
    per-ticker error recorded comes from an earlier line.
    """

    series: dict[str, PriceSeries | RebalError]
    error: ParseError | None


# One shared date object per distinct ISO string, across every file of a
# run.  Bounded so a long-lived process does not grow without limit; 2**14
# days is about 45 years of calendar days.
_iso_date = functools.lru_cache(maxsize=1 << 14)(date.fromisoformat)


def _parse_price_file(path: Path) -> _PriceFile:
    rows: dict[str, dict[date, float]] = {}
    failed: dict[str, RebalError] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return _PriceFile({}, ParseError(
                "empty file, expected header date,ticker,adj_close", path, 1))
        if tuple(h.strip() for h in header) != PRICE_CSV_HEADER:
            return _PriceFile({}, ParseError(
                f"bad header {header!r}, expected date,ticker,adj_close", path, 1))
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                error = ParseError(f"expected 3 columns, got {len(row)}", path, lineno)
                return _PriceFile(failed, error)
            raw_date, ticker, raw_price = row
            ticker = ticker.strip()
            if ticker in failed:
                continue
            raw_date = raw_date.strip()
            raw_price = raw_price.strip()
            try:
                day = _iso_date(raw_date)
            except ValueError:
                failed[ticker] = ParseError(f"bad date {raw_date!r}", path, lineno)
                continue
            try:
                price = float(raw_price)
            except ValueError:
                failed[ticker] = ParseError(f"bad price {raw_price!r}", path, lineno)
                continue
            if not math.isfinite(price) or price <= 0.0:
                failed[ticker] = ValidationError(
                    f"{path}:{lineno}: non-positive price {raw_price} for {ticker}"
                )
                continue
            by_day = rows.get(ticker)
            if by_day is None:
                by_day = rows[ticker] = {}
            if day in by_day:
                failed[ticker] = ValidationError(
                    f"{path}:{lineno}: duplicate date {day.isoformat()} for {ticker}"
                )
                continue
            by_day[day] = price
    series: dict[str, PriceSeries | RebalError] = {}
    for ticker, by_day in rows.items():
        if ticker in failed:
            continue
        days = sorted(by_day)
        try:
            series[ticker] = PriceSeries(ticker, tuple(days), [by_day[d] for d in days])
        except ValidationError as exc:
            series[ticker] = exc
    series.update(failed)
    return _PriceFile(series, None)


def load_price_series(path, ticker: str, parsed: dict | None = None) -> PriceSeries:
    """Read one ticker's rows from a price CSV and validate them.

    The file may be per-ticker or long format; only rows whose ticker
    column matches are kept.  Rows may appear in any order; the result is
    sorted by date.  A bad row fails only its own ticker: the error raised
    is the first one on this ticker's rows or the file's first malformed
    row, whichever comes first, then "no rows" or too few observations.

    ``parsed`` is an optional dict owned by the caller for one run.  Files
    holding more than one ticker are parsed once and kept in it, keyed by
    path, so later tickers from the same file are a lookup.  Single-ticker
    files are not kept, since that would hold a per-ticker universe in memory
    for the whole run: they are read once per call.
    """
    path = Path(path)
    parsed_file = parsed.get(path) if parsed is not None else None
    if parsed_file is None:
        parsed_file = _parse_price_file(path)
        if parsed is not None and len(parsed_file.series) > 1:
            parsed[path] = parsed_file
    series = parsed_file.series.get(ticker)
    if series is None:
        if parsed_file.error is not None:
            raise parsed_file.error.with_traceback(None)
        raise ValidationError(f"{path}: no rows for ticker {ticker!r}")
    if isinstance(series, RebalError):
        raise series.with_traceback(None)
    logger.debug("loaded %s: %d observations from %s", ticker, len(series), path)
    return series


def load_sector_manifest(path) -> SectorManifest:
    """Read and validate a sector manifest JSON file."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}", path)
    if not isinstance(raw, dict):
        raise ParseError("manifest must be a JSON object", path)
    missing = [k for k in ("sector", "tickers", "benchmark") if k not in raw]
    if missing:
        raise ParseError(f"manifest missing keys: {', '.join(missing)}", path)
    if not isinstance(raw["tickers"], list) or not all(
        isinstance(t, str) for t in raw["tickers"]
    ):
        raise ParseError("manifest 'tickers' must be a list of strings", path)
    return SectorManifest(str(raw["sector"]), tuple(raw["tickers"]), str(raw["benchmark"]))


def align_panel(series: list[PriceSeries], benchmark: PriceSeries) -> PricePanel:
    """Intersect all date sets and restrict every column to that calendar.

    The calendar is the sorted intersection of every constituent's dates
    with the benchmark's.  Raises AlignmentError naming the tickers that
    destroy the overlap when fewer than 2 shared days remain.
    """
    if not series:
        raise AlignmentError("no price series to align")
    tickers = [s.ticker for s in series]
    if len(set(tickers)) != len(tickers):
        raise ValidationError(f"duplicate tickers in alignment input: {tickers}")

    all_series = list(series) + [benchmark]
    date_sets = {s.ticker: frozenset(s.dates) for s in all_series}
    shared = frozenset.intersection(*date_sets.values())
    if len(shared) < 2:
        offenders = []
        for s in all_series:
            others = [d for t, d in date_sets.items() if t != s.ticker]
            if len(frozenset.intersection(*others)) >= 2:
                offenders.append(s.ticker)
        names = ", ".join(sorted(offenders)) if offenders else ", ".join(sorted(date_sets))
        raise AlignmentError(
            f"fewer than 2 shared trading days across inputs (offending tickers: {names})"
        )

    calendar = tuple(sorted(shared))

    def restrict(s: PriceSeries) -> np.ndarray:
        by_date = dict(zip(s.dates, s.prices))
        return np.array([by_date[d] for d in calendar], dtype=np.float64)

    ordered = sorted(series, key=lambda s: s.ticker)
    columns = {s.ticker: restrict(s) for s in ordered}
    panel = PricePanel(
        calendar=calendar,
        tickers=tuple(s.ticker for s in ordered),
        columns=columns,
        benchmark=restrict(benchmark),
    )
    logger.debug(
        "aligned %d tickers onto %d shared days (%s..%s)",
        len(tickers), len(calendar), calendar[0], calendar[-1],
    )
    return panel


def clip_panel(panel: PricePanel, start: date, end: date) -> PricePanel:
    """Restrict a panel's calendar to [start, end] inclusive."""
    if start > end:
        raise WindowError(f"start {start} after end {end}")
    lo = bisect.bisect_left(panel.calendar, start)
    hi = bisect.bisect_right(panel.calendar, end)
    if hi - lo < 2:
        raise WindowError(
            f"window {start}..{end} leaves {hi - lo} trading days (need at least 2)"
        )
    return PricePanel(
        calendar=panel.calendar[lo:hi],
        tickers=panel.tickers,
        columns={t: v[lo:hi] for t, v in panel.columns.items()},
        benchmark=panel.benchmark[lo:hi],
    )
