"""Reference price-CSV parser: the csv-module row loop that
``rebal.market_data`` used before its whole-file parse.

Kept as the oracle for ``tests/test_market_data.py::TestMatchesRowParser``.
It differs from the loop it was taken from only where the accepted grammar
was tightened to be the same on every supported Python version:

* a date must be ``YYYY-MM-DD`` in ASCII digits (``date.fromisoformat``
  also takes ``20210104`` and ``2021-W01-2`` from Python 3.11 on);
* a price must be ASCII without ``_`` (``float`` also takes ``1_000.5``
  and non-ASCII digits such as ``١٢٣``);
* bytes that are not UTF-8 are kept as surrogates, so a row holding them
  fails like any other bad row, and one whose ticker holds them stops the
  parse like a ragged row;
* a NUL character stops the parse like a ragged row (the csv module
  rejects it outright before Python 3.11);
* an error names the line its row starts on, not the row's record number,
  which a quoted line break in an earlier row makes smaller.
"""

from __future__ import annotations

import csv
import math
import re
from datetime import date

from rebal.errors import ParseError, RebalError, ValidationError
from rebal.market_data import PRICE_CSV_HEADER, PriceSeries

_ISO_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_price_file(path):
    """(series, error): each ticker's PriceSeries or first row error, and
    the file's first structural error, as ``market_data`` defines them."""
    rows: dict[str, dict[date, float]] = {}
    failed: dict[str, RebalError] = {}
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return {}, ParseError("empty file, expected header date,ticker,adj_close", path, 1)
        if tuple(h.strip() for h in header) != PRICE_CSV_HEADER:
            return {}, ParseError(
                f"bad header {header!r}, expected date,ticker,adj_close", path, 1)
        last = reader.line_num
        for row in reader:
            lineno, last = last + 1, reader.line_num
            if len(row) != 3:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                return failed, ParseError(f"expected 3 columns, got {len(row)}", path, lineno)
            if any("\0" in cell for cell in row):
                return failed, ParseError("NUL character in row", path, lineno)
            raw_date, ticker, raw_price = row
            ticker = ticker.strip()
            try:
                ticker.encode("utf-8")
            except UnicodeEncodeError:
                return failed, ParseError("ticker is not valid UTF-8", path, lineno)
            if ticker in failed:
                continue
            raw_date = raw_date.strip()
            raw_price = raw_price.strip()
            try:
                if not _ISO_DAY.fullmatch(raw_date):
                    raise ValueError(raw_date)
                day = date.fromisoformat(raw_date)
            except ValueError:
                failed[ticker] = ParseError(f"bad date {raw_date!r}", path, lineno)
                continue
            try:
                if not raw_price.isascii() or "_" in raw_price:
                    raise ValueError(raw_price)
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
    return series, None


def load_price_series(path, ticker: str, parsed: dict | None = None) -> PriceSeries:
    """``market_data.load_price_series`` over the reference parser.

    ``parsed``, if given, keeps each file's parse by path for later calls.
    """
    if parsed is None:
        parsed = {}
    if path not in parsed:
        parsed[path] = parse_price_file(path)
    series, error = parsed[path]
    found = series.get(ticker)
    if found is None:
        if error is not None:
            raise error
        raise ValidationError(f"{path}: no rows for ticker {ticker!r}")
    if isinstance(found, RebalError):
        raise found
    return found
