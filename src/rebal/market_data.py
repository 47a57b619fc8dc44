"""Price-series ingestion, validation, and calendar alignment.

Price CSV schema (one file per ticker, or long format with several tickers
in one file).  A ticker's prices are read from ``<ticker>.csv`` in the data
directory if it exists, else from the long-format ``prices.csv`` there:

    date,ticker,adj_close
    2021-01-04,TCS,2928.60

Cells are split as the csv module splits them (quoted cells may hold
commas, doubled quotes and line breaks) and stripped of whitespace.  A
date is exactly YYYY-MM-DD in ASCII digits and names a real day; a price
is a positive, finite ASCII decimal as float() reads it, without "_".
UTF-8 with LF, CRLF or CR line ends; bytes that are not UTF-8 make a bad
date or price, or in a ticker cell stop the file like a ragged row, as a
NUL character does.  Manifest tickers must be plain file names.  One
np.loadtxt call reads a clean file (ASCII, unquoted, every row good); any
other file is read again, a csv row at a time, to the same result.  A run's
PriceCache keeps the last one-ticker file's date column decoded, and a file
whose date cells are the same bytes shares those days instead of its own.

Sector manifest schema (JSON):

    {"sector": "auto", "tickers": ["MARUTI", ...], "benchmark": "INDEX50"}

Alignment policy is strict date intersection: a panel's calendar contains
exactly the days on which every constituent and the benchmark traded.  No
forward-filling or imputation is performed.

Dates are ``datetime64[D]`` arrays: ``PriceSeries.dates`` and
``PricePanel.calendar``.  A panel's prices are one read-only
(tickers x days) ``float64`` matrix, rows in sorted-ticker order.

All types but PriceCache, which one run owns, are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import re
from dataclasses import dataclass, fields
from datetime import date
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (AlignmentError, ConfigError, ParseError, RebalError, ValidationError,
                     WindowError)

logger = logging.getLogger(__name__)

PRICE_CSV_HEADER = ("date", "ticker", "adj_close")


DAY = np.dtype("datetime64[D]")


def _frozen(values, dtype=np.float64) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_increasing(days: np.ndarray, error, what: str) -> None:
    """Raise ``error`` naming the first day not after its predecessor."""
    bad = np.flatnonzero(np.diff(days) <= 0)
    if len(bad):
        raise error(f"{what} not strictly increasing at {days[bad[0] + 1]}")


class _ArrayRecord:
    """Equality of dataclass records holding arrays: field by field, by value."""

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


@dataclass(frozen=True, eq=False)
class PriceSeries(_ArrayRecord):
    """Validated daily adjusted-close series for one ticker."""

    ticker: str
    dates: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dates", _frozen(self.dates, DAY))
        object.__setattr__(self, "prices", _frozen(self.prices))
        if len(self.dates) != len(self.prices):
            raise ValidationError(
                f"{self.ticker}: {len(self.dates)} dates vs {len(self.prices)} prices"
            )
        if len(self.dates) < 2:
            raise ValidationError(
                f"{self.ticker}: need at least 2 observations, got {len(self.dates)}"
            )
        _check_increasing(self.dates, ValidationError, f"{self.ticker}: dates")
        if not np.all(np.isfinite(self.prices)) or np.any(self.prices <= 0.0):
            raise ValidationError(f"{self.ticker}: prices must be positive and finite")

    def __len__(self) -> int:
        return len(self.dates)


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
        names = [t for t in (*self.tickers, self.benchmark)
                 if t in ("", ".", "..") or "/" in t or "\\" in t]
        if names:
            raise ValidationError(f"sector {self.sector!r}: {names[0]!r} is not a plain file name")


@dataclass(frozen=True, eq=False)
class PricePanel(_ArrayRecord):
    """Constituent prices plus a benchmark on one shared trading calendar.

    Ticker order is canonical and enforced (sorted), so two panels built
    from the same series in any input order compare equal field for field.
    Row i of ``prices`` is ``tickers[i]`` on every calendar day.
    """

    calendar: np.ndarray
    tickers: tuple[str, ...]
    prices: np.ndarray
    benchmark: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "calendar", _frozen(self.calendar, DAY))
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "prices", _frozen(self.prices))
        object.__setattr__(self, "benchmark", _frozen(self.benchmark))
        n = len(self.calendar)
        if n < 2:
            raise ValidationError(f"panel calendar too short ({n} days)")
        _check_increasing(self.calendar, ValidationError, "panel calendar")
        if list(self.tickers) != sorted(self.tickers):
            raise ValidationError("panel tickers are not sorted")
        if self.prices.shape != (len(self.tickers), n):
            raise ValidationError(
                f"prices shape {self.prices.shape} != ({len(self.tickers)}, {n})")
        bad = ~(np.isfinite(self.prices) & (self.prices > 0.0)).all(axis=1)
        if bad.any():
            raise ValidationError(f"{self.tickers[bad.argmax()]!r} has non-positive prices")
        if len(self.benchmark) != n:
            raise ValidationError("benchmark length does not match calendar")
        if not np.all(np.isfinite(self.benchmark)) or np.any(self.benchmark <= 0.0):
            raise ValidationError("benchmark has non-positive prices")

    def __len__(self) -> int:
        return len(self.calendar)


class PriceCache(dict):
    """A run's price-file cache: ``load_price_series``'s parsed multi-ticker
    files by path, and in ``dates`` the last one-ticker file's date cells as
    uint64 words with the read-only days they name, which its series took.  A
    later file with the same cells takes those days; the pair is replaced whole."""

    dates: tuple[np.ndarray, np.ndarray] | None = None


class _PriceFile(NamedTuple):
    """One pass over a price CSV.

    ``series`` maps each ticker seen to its validated PriceSeries or to the
    first error on one of its rows.  ``error`` is the file's first
    structural error (bad header, ragged row, NUL character, ticker that is
    not UTF-8); parsing stops there, so every per-ticker error recorded
    comes from an earlier line.
    """

    series: dict[str, PriceSeries | RebalError]
    error: ParseError | None


# Fields of the array read.  A cell that fills its field may have been cut
# short, so the row loop then reads the file instead.
_CELLS = np.dtype([("date", "S16"), ("ticker", "S16"), ("price", np.float64)])
_CELL_ENDS = [_CELLS.fields[f][1] + _CELLS[f].itemsize - 1 for f in ("date", "ticker")]
# Less its lowest allowed byte, each byte of a YYYY-MM-DD cell padded to 16
# bytes is at most the span allowed there, in wrapping uint8 arithmetic.
_DATE_LOW = np.frombuffer(b"0000-00-00".ljust(16, b"\0"), dtype=np.uint8)
_DATE_SPAN = np.frombuffer(b"\t\t\t\t\0\t\t\0\t\t".ljust(16, b"\0"), dtype=np.uint8)
_EPOCH = date(1970, 1, 1)  # day 0 of datetime64
_ISO_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _iso_days(cells: np.ndarray) -> np.ndarray:
    """The days YYYY-MM-DD cells name; ValueError if a cell names none."""
    for i in range(0, len(cells), 1 << 13):  # in blocks, to bound the temporaries
        digits = cells[i:i + (1 << 13)].astype("S16").view(np.uint8).reshape(-1, 16)
        if ((digits - _DATE_LOW) > _DATE_SPAN).any():
            raise ValueError("a date cell that is not YYYY-MM-DD")
    days = cells.astype(DAY)  # numpy rejects a month or day out of range
    if days.min() < np.datetime64("0001-01-01"):
        raise ValueError("a date in year 0")
    return days


def _day_number(text) -> int | None:
    """Days from 1970-01-01 to the day one YYYY-MM-DD string names, or None."""
    try:
        return (date.fromisoformat(text) - _EPOCH).days if _ISO_DAY.fullmatch(text) else None
    except (TypeError, ValueError):  # not a string, or no such day
        return None


def iso_day(text) -> np.datetime64:
    """The day a YYYY-MM-DD string names, by the price-file date grammar.

    Raises ValueError for any other value.
    """
    if (number := _day_number(text)) is None:
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return np.datetime64(number, "D")


def _lines(text: str):
    """The lines of text, split 64 KiB at a time to bound memory."""
    ends = [0]
    while ends[-1] < len(text):
        ends.append(text.find("\n", ends[-1] + (1 << 16)) + 1 or len(text))
    return itertools.chain.from_iterable(text[i:j].split("\n") for i, j in zip(ends, ends[1:]))


def _build(groups, calendar=None) -> dict[str, PriceSeries | RebalError]:
    """Each ``(ticker, days, prices)`` of ``groups`` as its series, or why it has none.
    A series on the last one's days, or the first on ``calendar``'s, takes that array."""
    built: dict[str, PriceSeries | RebalError] = {}
    for ticker, days, prices in groups:
        days = np.asarray(days, DAY)
        days = calendar if np.array_equal(days, calendar) else days
        try:
            built[ticker] = PriceSeries(ticker, days, prices)
            calendar = built[ticker].dates
        except ValidationError as exc:  # too few observations
            built[ticker] = exc
    return built


def _rows_equal(words: np.ndarray, like: np.ndarray) -> bool:
    """Whether (rows x 2) uint64 ``words`` equal ``like``, one row or as many
    rows, compared a column at a time, which numpy does faster than a block."""
    return all((words[:, k] == like[..., k]).all() for k in (0, 1))


def _read_cells(fh, cache) -> dict[str, PriceSeries | RebalError]:
    """Each ticker's series from one np.loadtxt call over the clean body in ``fh``.

    A clean body is ASCII with no quote or NUL, and each of its lines is
    empty or a row with no cut cell, a valid date, a positive finite price
    and a (ticker, day) of its own, so no row has an error to report.
    Raises ValueError for any other body.  A series on the date column's days
    takes that array, from a PriceCache ``cache`` if it holds those cells.
    """
    text = fh.read()
    if not text.isascii() or '"' in text or "\0" in text or "," not in text:
        raise ValueError("not an ASCII body of unquoted rows")
    # a ragged row, a bad price or a line of spaces raises ValueError here
    cells = np.loadtxt(_lines(text), dtype=_CELLS, delimiter=",", comments=None, ndmin=1)
    del text  # before the temporaries below: it is as large as a long file
    words = cells.view(np.uint64).reshape(len(cells), -1)  # date 0-1, ticker 2-3, price 4
    one_ticker = _rows_equal(words[:, 2:4], words[0, 2:4])  # the usual layout
    last = getattr(cache, "dates", None)  # read once: it is replaced whole
    if last is not None and len(last[0]) == len(words) and _rows_equal(words[:, :2], last[0]):
        days = last[1]
    else:
        days = _frozen(_iso_days(cells["date"]), DAY)  # a bad date raises ValueError here
        if one_ticker and isinstance(cache, PriceCache):
            cache.dates = (_frozen(words[:, :2].copy(), np.uint64), days)
    tickers, prices = cells["ticker"], cells["price"]
    if (cells.view(np.uint8).reshape(len(cells), -1)[:, _CELL_ENDS].any()
            or not ((prices > 0.0) & (prices < np.inf)).all()):
        raise ValueError("a cut cell or a price that is not positive and finite")
    if one_ticker:
        distinct, group = tickers[:1], np.zeros(len(tickers), dtype=np.intp)
    else:
        distinct, group = np.unique(tickers, return_inverse=True)
    ids: dict[str, int] = {}  # cells that differ only in padding name one ticker
    tid = np.array([ids.setdefault(c.decode().strip(), len(ids)) for c in distinct])[group]
    # Rows by ticker and day, as a day ordinal: from 1 to below 2**22.
    key = (tid.astype(np.int64) << 22) + (days.view(np.int64) + _EPOCH.toordinal())
    order = np.argsort(key, kind="stable")
    key = key[order]
    if not np.diff(key).all():
        raise ValueError("a repeated (ticker, day)")
    groups = np.split(order, np.flatnonzero(np.diff(key >> 22)) + 1)  # one per id, in order
    return _build(((name, days[rows], prices[rows]) for name, rows in zip(ids, groups)), days)


def _read_rows(rows, path: Path) -> _PriceFile:
    """Read the body left in the csv reader ``rows``, its cells stripped.

    A ticker's first bad row is its error, and its later rows are skipped.
    The first ragged row, or row holding a NUL or a ticker that is not
    UTF-8, stops the read.  An error names the line its row starts on.
    """
    by_ticker: dict[str, dict[int, float]] = {}  # each ticker's prices by day number
    bad: dict[str, RebalError] = {}  # each failed ticker's first error
    last = rows.line_num  # the last line of the header
    for row in rows:
        line, last = last + 1, rows.line_num  # the lines the row starts and ends on
        if len(row) < 2 and not "".join(row).strip():
            continue  # a blank line
        if len(row) != 3:
            return _PriceFile(bad, ParseError(f"expected 3 columns, got {len(row)}", path, line))
        day, ticker, price = map(str.strip, row)
        if "\0" in day + ticker + price:
            return _PriceFile(bad, ParseError("NUL character in row", path, line))
        if ticker in bad:
            continue
        if ticker not in by_ticker and re.search("[\udc80-\udcff]", ticker):  # a non-UTF-8 byte
            return _PriceFile(bad, ParseError("ticker is not valid UTF-8", path, line))
        prices = by_ticker.setdefault(ticker, {})
        try:
            value = float(price) if price.isascii() and "_" not in price else None
        except ValueError:
            value = None
        if (number := _day_number(day)) is None:
            bad[ticker] = ParseError(f"bad date {day!r}", path, line)
        elif value is None:
            bad[ticker] = ParseError(f"bad price {price!r}", path, line)
        elif not 0.0 < value < np.inf:
            bad[ticker] = ValidationError(
                f"{path}:{line}: non-positive price {price} for {ticker}")
        elif number in prices:
            bad[ticker] = ValidationError(f"{path}:{line}: duplicate date {day} for {ticker}")
        else:
            prices[number] = value
    # each good ticker's day numbers and prices, in day order
    good = _build((t, *zip(*sorted(p.items()))) for t, p in by_ticker.items() if t not in bad)
    return _PriceFile({**bad, **good}, None)


def _parse_price_file(path: Path, cache) -> _PriceFile:
    # Bytes that are not UTF-8 become lone surrogates, which no cell check accepts.
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            return _PriceFile({}, ParseError(
                "empty file, expected header date,ticker,adj_close", path, 1))
        if tuple(h.strip() for h in header) != PRICE_CSV_HEADER:
            return _PriceFile({}, ParseError(
                f"bad header {header!r}, expected date,ticker,adj_close", path, 1))
        try:
            return _PriceFile(_read_cells(fh, cache), None)
        except ValueError:  # not a clean body: read it again, a row at a time
            fh.seek(0)
            next(rows := csv.reader(fh))  # the header
            return _read_rows(rows, path)


def resolve_price_file(data_dir: Path, ticker: str) -> Path:
    """Locate a ticker's price file: <ticker>.csv, else a long-format prices.csv."""
    per_ticker = data_dir / f"{ticker}.csv"
    if per_ticker.is_file():
        return per_ticker
    long_format = data_dir / "prices.csv"
    if long_format.is_file():
        return long_format
    raise ConfigError(f"no price file for ticker {ticker!r} under {data_dir}")


def load_price_series(path, ticker: str, parsed: dict | None = None,
                      keep: bool = False) -> PriceSeries:
    """Read one ticker's rows from a price CSV and validate them.

    The file may be per-ticker or long format; only rows whose ticker
    column matches are kept.  Rows may appear in any order; the result is
    sorted by date.  A bad row fails only its own ticker: the error raised
    is the first one on this ticker's rows or the file's first malformed
    row, whichever comes first, then "no rows" or too few observations.

    ``parsed`` is an optional dict owned by the caller for one run, such as
    a ``PriceCache``.  Files holding more than one ticker are parsed once and
    kept in it, keyed by path, so later tickers from the same file are a
    lookup.  Single-ticker files are not kept, since that would hold a
    per-ticker universe in memory for the whole run: they are read once per
    call, unless ``keep`` is set for a series the caller reads again, such as
    a benchmark every sector shares.  A PriceCache also keeps the last
    one-ticker file's decoded dates, which a series on the same days shares.
    """
    path = Path(path)
    parsed_file = parsed.get(path) if parsed is not None else None
    if parsed_file is None:
        parsed_file = _parse_price_file(path, parsed)
        if parsed is not None and (keep or len(parsed_file.series) > 1):
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
    except ValueError as exc:  # not UTF-8, not JSON, or an int of too many digits
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
    for key in ("sector", "benchmark"):
        if not isinstance(raw[key], str):
            raise ParseError(f"manifest {key!r} must be a string", path)
    return SectorManifest(raw["sector"], tuple(raw["tickers"]), raw["benchmark"])


def align_panel(series: list[PriceSeries], benchmark: PriceSeries) -> PricePanel:
    """Intersect all date sets and restrict every column to that calendar.

    The calendar is the sorted intersection of every constituent's dates
    with the benchmark's.  Raises AlignmentError naming the tickers that
    destroy the overlap when fewer than 2 shared days remain.

    Series are visited one at a time, adding their days into one count per
    day, then filling their rows of the matrix: no concatenated copy.
    """
    if not series:
        raise AlignmentError("no price series to align")
    tickers = [s.ticker for s in series]
    if len(set(tickers)) != len(tickers):
        raise ValidationError(f"duplicate tickers in alignment input: {tickers}")

    all_series = sorted(series, key=lambda s: s.ticker) + [benchmark]
    n = len(all_series)
    first = min(s.dates[0] for s in all_series)
    last = max(s.dates[-1] for s in all_series)
    counts = np.zeros((last - first).astype(np.int64) + 1, dtype=np.intp)
    for s in all_series:
        # each series holds a day at most once, so a count of n means all hold it
        counts[(s.dates - first).view(np.int64)] += 1
    calendar = np.flatnonzero(counts == n) + first
    if len(calendar) < 2:
        # a series is an offender if the days all the others share number 2
        # or more: the shared days plus the days only it lacks
        near = np.flatnonzero(counts == n - 1) + first
        offenders = [s.ticker for s in all_series
                     if len(calendar) + len(np.setdiff1d(near, s.dates)) >= 2]
        names = sorted(offenders or {s.ticker for s in all_series})
        raise AlignmentError(
            f"fewer than 2 shared trading days across inputs (offending tickers: "
            f"{', '.join(names)})"
        )
    # every series is sorted, so its shared days come in calendar order
    prices = np.empty((n, len(calendar)))
    for row, s in zip(prices, all_series):
        row[:] = s.prices[counts[(s.dates - first).view(np.int64)] == n]
    panel = PricePanel(calendar, tuple(s.ticker for s in all_series[:-1]),
                       prices[:-1], prices[-1])
    logger.debug(
        "aligned %d tickers onto %d shared days (%s..%s)",
        len(tickers), len(calendar), calendar[0], calendar[-1],
    )
    return panel


def clip_panel(panel: PricePanel, start, end) -> PricePanel:
    """Restrict a panel's calendar to [start, end] inclusive."""
    start, end = np.datetime64(start, "D"), np.datetime64(end, "D")
    if start > end:
        raise WindowError(f"start {start} after end {end}")
    lo, hi = np.searchsorted(panel.calendar, [start, end + 1])
    if hi - lo < 2:
        raise WindowError(
            f"window {start}..{end} leaves {hi - lo} trading days (need at least 2)"
        )
    return PricePanel(
        calendar=panel.calendar[lo:hi],
        tickers=panel.tickers,
        prices=panel.prices[:, lo:hi],
        benchmark=panel.benchmark[lo:hi],
    )
