"""Price-series ingestion, validation, and calendar alignment.

Price CSV schema (one file per ticker, or long format with several tickers
in one file):

    date,ticker,adj_close
    2021-01-04,TCS,2928.60

Cells are split as the csv module splits them (quoted cells may hold
commas, doubled quotes and line breaks) and stripped of whitespace.  A
date is exactly YYYY-MM-DD in ASCII digits and names a real day; a price
is a positive, finite ASCII decimal as float() reads it, without "_".
UTF-8 with LF, CRLF or CR line ends; bytes that are not UTF-8 make a bad
date or price, or in a ticker cell stop the file like a ragged row, as a
NUL character does.  Manifest tickers must be plain file names.

Sector manifest schema (JSON):

    {"sector": "auto", "tickers": ["MARUTI", ...], "benchmark": "INDEX50"}

Alignment policy is strict date intersection: a panel's calendar contains
exactly the days on which every constituent and the benchmark traded.  No
forward-filling or imputation is performed.

Dates are ``datetime64[D]`` arrays: ``PriceSeries.dates`` and
``PricePanel.calendar``.  A panel's prices are one read-only
(tickers x days) ``float64`` matrix, rows in sorted-ticker order.

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import logging
from dataclasses import dataclass, fields
from datetime import date
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import AlignmentError, ParseError, RebalError, ValidationError, WindowError

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


# The ASCII characters that str.strip() removes.
_ASCII_SPACE = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
# Fields of the whole-file read.  A cell that fills its field may have been
# cut short, so the csv module then splits the file instead.
_CELLS = np.dtype([("date", "S16"), ("ticker", "S16"), ("price", np.float64)])
_CELL_ENDS = [_CELLS.fields[f][1] + _CELLS[f].itemsize - 1 for f in ("date", "ticker")]
# Less its lowest allowed byte, each byte of a YYYY-MM-DD cell padded to 16
# bytes is at most the span allowed there, in wrapping uint8 arithmetic.
_DATE_LOW = np.frombuffer(b"0000-00-00".ljust(16, b"\0"), dtype=np.uint8)
_DATE_SPAN = np.frombuffer(b"\t\t\t\t\0\t\t\0\t\t".ljust(16, b"\0"), dtype=np.uint8)
# Days in, and before, each month of a common year; months 0 and 13 stand
# for any month out of range.
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 0], dtype=np.int32)
_DAYS_BEFORE_MONTH = np.cumsum(_MONTH_DAYS, dtype=np.int32) - _MONTH_DAYS
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()  # day 0 of datetime64


def _text(cell: bytes) -> str:
    return cell.decode("utf-8", "surrogatepass")


def _iso_ordinals(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Day ordinals of YYYY-MM-DD cells, and which cells are such dates."""
    if len(cells) > 1 << 13:  # in blocks, to bound the temporaries
        parts = [_iso_ordinals(cells[i:i + (1 << 13)]) for i in range(0, len(cells), 1 << 13)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    digits = cells.astype("S16").view(np.uint8).reshape(-1, 16) - _DATE_LOW
    wrong = (digits > _DATE_SPAN).view(np.uint64)
    d = digits.astype(np.int32)
    year = d[:, 0] * 1000 + d[:, 1] * 100 + d[:, 2] * 10 + d[:, 3]
    month, day = np.minimum(d[:, 5] * 10 + d[:, 6], 13), d[:, 8] * 10 + d[:, 9]
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    ok = ((wrong[:, 0] | wrong[:, 1]) == 0) & (year >= 1) & (day >= 1)
    ok &= day <= _MONTH_DAYS[month] + (leap & (month == 2))
    y = year - 1
    ordinal = y * 365 + y // 4 - y // 100 + y // 400 + _DAYS_BEFORE_MONTH[month] + day
    return np.where(ok, ordinal + (leap & (month > 2)), 1), ok


def iso_day(text) -> np.datetime64:
    """The day a YYYY-MM-DD string names, by the price-file date grammar.

    Raises ValueError for any other value.
    """
    plain = isinstance(text, str) and len(text) == 10 and text.isascii()
    ordinal, ok = _iso_ordinals(np.array([text.encode() if plain else b""]))
    if not ok[0]:
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return np.datetime64(int(ordinal[0]) - _EPOCH_ORDINAL, "D")


def _float(cell: bytes) -> float | None:
    """The value of an ASCII decimal cell, or None if it is not one."""
    try:
        return float(cell) if cell.isascii() and b"_" not in cell else None
    except ValueError:
        return None


def _lines(text: str):
    """The lines of text: a list, which np.loadtxt reads fastest, or for a
    text over 128 KiB an iterator that splits 64 KiB at a time, to bound
    memory."""
    if len(text) <= 1 << 17:
        return text.split("\n")
    ends = [0]
    while ends[-1] < len(text):
        ends.append(text.find("\n", ends[-1] + (1 << 16)) + 1 or len(text))
    return itertools.chain.from_iterable(text[i:j].split("\n") for i, j in zip(ends, ends[1:]))


def _split_rows(fh, path: Path):
    """Date, ticker and price columns of the rows after the header, their
    line numbers, and the structural error that stops the split, if any.

    One np.loadtxt call reads an ASCII file whose lines are rows with a
    positive price, or empty.  The csv module splits any other file into
    stripped UTF-8 cells, the prices still text.
    """
    text = fh.read()
    if text.isascii() and "\0" not in text and "," in text:
        n = text.count("\n") + (not text.endswith("\n"))
        try:
            cells = np.loadtxt(_lines(text), dtype=_CELLS, delimiter=",", quotechar='"',
                               comments=None, ndmin=1)
        except ValueError:  # a ragged row, a bad price or a line of spaces
            cells = np.zeros(0, dtype=_CELLS)
        numbers = np.arange(2, n + 2)
        if len(cells) < n and '"' not in text:  # np.loadtxt skipped empty lines
            numbers = 2 + np.flatnonzero([line not in ("", "\r") for line in text.split("\n")])
        if (len(cells) == len(numbers)  # and no line break in quotes
                and not cells.view(np.uint8).reshape(len(cells), -1)[:, _CELL_ENDS].any()
                and ((cells["price"] > 0.0) & (cells["price"] < np.inf)).all()):
            return cells["date"], cells["ticker"], cells["price"], numbers, None
    rows = list(csv.reader(io.StringIO(text, newline="")))
    size = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    blank = size == 0
    ones = np.flatnonzero(size == 1)
    blank[ones] = [not rows[i][0].strip() for i in ones.tolist()]
    # The first row that is ragged, holds a NUL or has a ticker that is not
    # UTF-8 stops the split; the last two are looked for only if present.
    faults = [((size != 3) & ~blank, "expected 3 columns, got {}")]
    if "\0" in text:
        faults.append(([len(r) == 3 and "\0" in "".join(r) for r in rows], "NUL character in row"))
    if text.encode("utf-8", "replace") != text.encode("utf-8", "surrogatepass"):
        faults.append(([len(r) == 3 and r[1].encode("utf-8", "replace")
                        != r[1].encode("utf-8", "surrogatepass") for r in rows],
                       "ticker is not valid UTF-8"))
    stop, error = len(rows), None
    for wrong, message in faults:
        first = np.flatnonzero(wrong)[:1].tolist()
        if first and first[0] < stop:
            stop = first[0]
            error = ParseError(message.format(size[stop]), path, stop + 2)
    numbers = np.flatnonzero(~blank[:stop])
    rows = [rows[i] for i in numbers.tolist()]
    numbers += 2
    cells = np.char.strip(np.array(rows, dtype=str).reshape(-1, 3))  # as str.strip() strips
    cells = cells.astype(bytes) if text.isascii() else np.char.encode(cells, "utf-8", "surrogatepass")
    return *cells.T, numbers, error


def _parse_price_file(path: Path) -> _PriceFile:
    # Bytes that are not UTF-8 become lone surrogates, which no cell check accepts.
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            return _PriceFile({}, ParseError(
                "empty file, expected header date,ticker,adj_close", path, 1))
        if tuple(h.strip() for h in header) != PRICE_CSV_HEADER:
            return _PriceFile({}, ParseError(
                f"bad header {header!r}, expected date,ticker,adj_close", path, 1))
        dates, tickers, prices, lines, error = _split_rows(fh, path)

    if (tickers == tickers[:1]).all():  # one ticker per file, the usual layout
        distinct, group = tickers[:1], np.zeros(len(tickers), dtype=np.intp)
    else:
        distinct, group = np.unique(tickers, return_inverse=True)
    ids: dict[str, int] = {}  # cells that differ only in padding name one ticker
    tid = np.array([ids.setdefault(c.decode().strip(), len(ids)) for c in distinct.tolist()],
                   dtype=np.intp)[group]
    names = list(ids)
    ordinal, date_ok = _iso_ordinals(dates)
    if not date_ok.all():  # padded or bad cells
        dates = np.char.strip(dates, _ASCII_SPACE)
        ordinal, date_ok = _iso_ordinals(dates)
    value, price_bad = prices, np.zeros(len(prices), dtype=bool)
    if prices.dtype.kind == "S":  # split by the csv module: still text
        try:  # one cast when every cell reads as float() reads it; "_" is not allowed
            value, price_bad = prices.astype(np.float64), np.char.find(prices, b"_") >= 0
        except ValueError:
            parsed = [_float(c) for c in prices.tolist()]
            value, price_bad = np.array(parsed, dtype=np.float64), np.equal(parsed, None)
    positive = (value > 0.0) & (value < np.inf)
    good = date_ok & ~price_bad & positive
    # Good rows by ticker, day and line; ordinals are below 2**22.
    key = tid.astype(np.int64) << 22 | ordinal
    order = np.flatnonzero(good)
    if (np.diff(key[order]) <= 0).any():
        order = order[np.argsort(key[order], kind="stable")]
    days = (ordinal - _EPOCH_ORDINAL).astype(DAY)
    bad = ~good
    bad[order[1:][key[order[1:]] == key[order[:-1]]]] = True  # a repeated day
    series: dict[str, PriceSeries | RebalError] = {}
    for row in np.flatnonzero(bad).tolist():  # a ticker's first bad row is its error
        ticker, line = names[tid[row]], int(lines[row])
        if ticker in series:
            continue
        if not date_ok[row]:
            exc = ParseError(f"bad date {_text(dates[row])!r}", path, line)
        elif price_bad[row]:
            exc = ParseError(f"bad price {_text(prices[row])!r}", path, line)
        elif not positive[row]:
            exc = ValidationError(
                f"{path}:{line}: non-positive price {_text(prices[row])} for {ticker}")
        else:
            exc = ValidationError(f"{path}:{line}: duplicate date {days[row]} for {ticker}")
        series[ticker] = exc
    if error is not None:
        return _PriceFile(series, error)
    starts = [0, *(np.flatnonzero(np.diff(tid[order])) + 1).tolist()]
    for lo, hi in zip(starts, starts[1:] + [len(order)]) if len(order) else ():
        rows = order[lo:hi]
        ticker = names[tid[rows[0]]]
        if ticker not in series:
            try:
                series[ticker] = PriceSeries(ticker, days[rows], value[rows])
            except ValidationError as exc:
                series[ticker] = exc
    return _PriceFile(series, None)


def load_price_series(
    path, ticker: str, parsed: dict | None = None, keep: bool = False
) -> PriceSeries:
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
    for the whole run: they are read once per call, unless ``keep`` is set
    for a series the caller reads again, such as a benchmark every sector
    shares.
    """
    path = Path(path)
    parsed_file = parsed.get(path) if parsed is not None else None
    if parsed_file is None:
        parsed_file = _parse_price_file(path)
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
