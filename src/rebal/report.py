"""Serialization of tear sheets and plot-ready CSV datasets.

This package emits plot *data*, not rendered charts; any plotting tool
can consume the files.  All output is deterministic: fixed column order
(sorted tickers), one decimal format (``%.12g``, shortest representation
capped at 12 significant digits, with -0 written as 0), LF line endings.
The same inputs always produce byte-identical files.  Shares and weights
are encoded by array kernels that write those same bytes.
``read_tear_sheets`` and ``reparse_table`` read the files back.

Output schemas:

* tear sheets, CSV  — ``metric,<window...>`` header, one row per metric,
  not-computable cells left empty;
* tear sheets, JSON — ``[{"window": str, "metrics": {name: number|null}}]``;
  a tear-sheet file is CSV or JSON by its suffix, ``.csv`` or ``.json``;
* shares / weights  — ``date,<ticker...>``, one row per trading day;
* cumulative        — ``date,portfolio_cum,benchmark_cum,segment`` where
  segment flips from in_sample to out_of_sample at the split date;
* distributions     — ``frequency,stat,value`` five-number summaries of
  daily, weekly, monthly, and annual returns.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .metrics import METRIC_NAMES, TearSheet, box_plot_summary
from .portfolio import BacktestResult
from .returns import aggregate, simple_returns

logger = logging.getLogger(__name__)

BOX_STATS = ("min", "q1", "median", "q3", "max")
ROW_BLOCK = 128  # lines per block in which a plot file is re-read, and at most written
NUMBER = "%.12g"  # every float cell, of x + 0.0 so that -0.0 prints as 0

PLOT_LAYOUT = {
    "shares": (1, "%d", 0),               # date | shares...
    "weights": (1, NUMBER, 0),            # date | weights...
    "cumulative": (1, NUMBER, 1),         # date | portfolio, benchmark | segment
    "distributions": (2, NUMBER, 0),      # frequency, stat | value
}
"""Plot file -> (text columns before its numbers, number cell format, text columns after)."""


def _tear_sheet_format(path: Path) -> str:
    if path.suffix not in (".csv", ".json"):
        raise ValidationError(f"unknown tear-sheet format {path.suffix[1:]!r}")
    return path.suffix[1:]


def export_tear_sheets(sheets, path) -> Path:
    """Write tear sheets to one file, windows side by side, as CSV or JSON
    by the file's suffix.

    ``sheets`` is a sequence of TearSheet whose window_label fields name
    the columns.  Not-computable metrics become empty CSV cells or JSON
    nulls.
    """
    sheets = list(sheets)
    path = Path(path)
    if _tear_sheet_format(path) == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["metric"] + [s.window_label for s in sheets])
            for name in METRIC_NAMES:
                values = [getattr(sheet, name) for sheet in sheets]
                writer.writerow([name] + ["" if v is None else NUMBER % (v + 0.0)
                                          for v in values])
    else:
        payload = [
            {"window": s.window_label, "metrics": {n: getattr(s, n) for n in METRIC_NAMES}}
            for s in sheets
        ]
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    logger.debug("wrote %d tear sheets to %s", len(sheets), path)
    return path


def _metric(cell: str) -> float | None:
    """A tear-sheet value from its cell: None if empty (not computable), else a
    finite ASCII decimal as float() reads it without "_", as a price is read."""
    value = None if cell == "" else (float(cell) if cell.isascii() and "_" not in cell else np.nan)
    if value is not None and not np.isfinite(value):
        raise ValueError(f"not a finite number: {cell!r}")
    return value


def _json_sheet(entry) -> TearSheet:
    """One JSON tear-sheet entry; each value is read as the cell of its JSON text."""
    if not isinstance(entry["window"], str) or entry["metrics"].keys() != set(METRIC_NAMES):
        raise ValueError("expected a string window and exactly the fifteen metrics")
    return TearSheet(**{n: _metric("" if v is None else json.dumps(v))
                        for n, v in entry["metrics"].items()}, window_label=entry["window"])


def read_tear_sheets(path) -> list[TearSheet]:
    """Parse a tear-sheet file, CSV or JSON by its suffix, back into
    TearSheet objects, each CSV cell or JSON value's JSON text by ``_metric``.
    A CSV must hold each metric row once, a JSON entry a string window and
    exactly the fifteen metrics.  A malformed file is a ParseError naming
    the path, and in a CSV the first faulty line."""
    path = Path(path)
    as_json = _tear_sheet_format(path) == "json"
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            if as_json:
                return [_json_sheet(entry) for entry in json.load(fh)]
            reader = csv.reader(fh)
            rows = [(row, reader.line_num) for row in reader]  # each row and its last line
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", path, exc.lineno) from None
    except (AttributeError, KeyError, TypeError, ValueError, csv.Error) as exc:
        raise ParseError(f"not a tear sheet: {exc!r}", path) from None
    if not rows or rows[0][0][:1] != ["metric"]:
        raise ParseError("bad tear-sheet header", path, 1)
    labels = rows[0][0][1:]
    table: dict[str, list[float | None]] = {}
    for (_, above), (row, _) in zip(rows, rows[1:]):
        lineno = above + 1  # the line the row starts on
        if len(row) != len(labels) + 1:
            raise ParseError(f"expected {len(labels) + 1} columns", path, lineno)
        if row[0] not in METRIC_NAMES or row[0] in table:
            raise ParseError(f"unknown or repeated metric {row[0]!r}", path, lineno)
        try:
            table[row[0]] = [_metric(c) for c in row[1:]]
        except ValueError as exc:
            raise ParseError(str(exc), path, lineno) from None
    missing = [n for n in METRIC_NAMES if n not in table]
    if missing:
        raise ParseError(f"missing metric rows: {missing}", path)
    return [
        TearSheet(**{n: table[n][i] for n in METRIC_NAMES}, window_label=label)
        for i, label in enumerate(labels)
    ]


def _write_table(path: Path, header: list[str], rows) -> None:
    """Write ``header`` as a CSV record, then one line per row, laid out by
    ``PLOT_LAYOUT`` for the file ``path`` names.

    The header goes through ``csv`` so that names needing quotes get them;
    each body line is one ``%``-template, never a per-cell call.  Shares and
    weights, the large tables, go through ``_write_matrix`` instead.
    """
    head, cell, tail = PLOT_LAYOUT[path.stem]
    line = ",".join(["%s"] * head + [cell] * (len(header) - head - tail) + ["%s"] * tail) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(line % row for row in rows)


def _digit_words() -> np.ndarray:
    """The four digits of 0..9999 as uint32 words of text, spelt three ways in
    turn: zero-padded, trailing zeros as NUL, leading zeros but the last as NUL."""
    n = np.arange(10_000, dtype=np.int32)
    digits = np.stack([n // p % 10 + 48 for p in (1000, 100, 10, 1)], axis=1).astype(np.uint8)
    trail = np.stack([n % p != 0 for p in (10_000, 1000, 100, 10)], axis=1)
    lead = np.stack([n >= p for p in (1000, 100, 10, 0)], axis=1)
    return np.concatenate([digits, digits * trail, digits * lead]).view(np.uint32)[:, 0]


_WORDS = _digit_words()
_TRAIL, _LEAD = 10_000, 20_000  # where _WORDS's second and third spellings start
_POW10 = np.array([float(10 ** k) for k in range(17)])  # exact doubles
CHUNK_CELLS = 8192  # most cells of shares or weights encoded at a time


def _count_cells(values: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Write "," and ``"%d"`` of each value in [0, 10**8) into its cell of
    ``words`` (uint32 text, NUL-padded); return the mask of those cells."""
    fast = (values >= 0) & (values < 10 ** 8)
    high = values * fast // 10 ** 4
    words[..., 0] = np.frombuffer(b",\0\0\0", np.uint32)
    words[..., 1] = _WORDS[np.where(high > 0, high + _LEAD, _TRAIL)]  # _TRAIL: no digits
    words[..., 2] = _WORDS[values * fast - high * 10 ** 4 + _LEAD * (high == 0)]
    return fast


def _fraction_cells(values: np.ndarray, words: np.ndarray) -> np.ndarray:
    """As ``_count_cells``, for ``NUMBER`` of the values in [1e-4, 1) that array
    arithmetic gets exactly.  There ``%.12g`` is "0.", -e - 1 zeros and the
    digits of ``rint(x * 10**(11 - e))`` less trailing zeros, at the decade
    e = floor(log10(x)) in [-4, -1].  The power of ten is exact and the product
    rounds once, by under 6.2e-5, so a cell leaves the fast path only within
    2.5e-4 of a tie, outside [1e11, 1e12) (log10 a decade off) or at 1."""
    fast = (values >= 1e-4) & (values < 1.0)
    x = np.where(fast, values, 0.5)
    decade = np.floor(np.log10(x)).astype(np.int64)
    y = x * _POW10[11 - decade]
    fast &= (y >= 1e11) & (y < 1e12) & (np.abs(y - np.floor(y) - 0.5) > 2.5e-4)
    # the fifteen fraction digits, 0 off the fast path (where decade + 4 may be
    # -1); digits of 10**12 carry into the next decade, and to 1 at 10**15
    fraction = (np.rint(y) * fast * _POW10[decade + 4]).astype(np.int64)
    fast &= fraction < 10 ** 15
    words[..., 0] = np.frombuffer(b",0.\0", np.uint32)
    zeros_after = True
    for k in (4, 3, 2, 1):  # four words of four digits, the first a 0
        fraction, group = np.divmod(fraction, 10 ** 4)
        words[..., k] = _WORDS[group + _TRAIL * zeros_after]
        zeros_after = zeros_after & (group == 0)
    words[..., 1] &= np.frombuffer(b"\0\xff\xff\xff", np.uint32)  # drop that 0
    return fast


def _write_matrix(path: Path, header: list[str], days: np.ndarray, columns) -> None:
    """Write the bytes ``_write_table`` would for ``days`` (``S11``, each a
    line break and a date) and a tickers x days matrix whose days lo..hi-1
    are ``columns(lo, hi)``: cells padded with NUL, which ``bytes.translate``
    drops, filled by the file's array kernel at most ``ROW_BLOCK`` days and
    ``CHUNK_CELLS`` cells at a time, and one at a time off its fast path.
    With each line break in front of its row, a cell is only as wide as its
    kernel writes; 20 bytes hold any NUMBER, 24 bytes "," and any "%d"."""
    cell = PLOT_LAYOUT[path.stem][1]
    encode, cell_words = (_count_cells, 3) if cell == "%d" else (_fraction_cells, 5)
    width = len(header) - 1  # tickers
    step = max(1, min(ROW_BLOCK, CHUNK_CELLS // width))  # days per chunk
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="").writerow(header)  # ended by the first row
        fh.flush()
        for lo in range(0, len(days), step):
            block = np.ascontiguousarray(columns(lo, lo + step).T)
            lines = np.zeros((len(block), width + 1, cell_words), np.uint32)
            slow = ~encode(block, lines[:, 1:])
            # adding 0 turns -0.0 into 0.0, which NUMBER prints as 0
            text = [("," + cell % x).encode() for x in (block[slow] + 0).tolist()]
            if max(map(len, text), default=0) > 4 * cell_words:
                lines = np.pad(lines, ((0, 0), (0, 0), (0, 6 - cell_words)))
            lines[:, 1:].view(f"S{4 * lines.shape[2]}")[..., 0][slow] = text
            lines[:, 0].view(np.uint8)[:, :11] = days[lo:lo + step, None].view(np.uint8)
            fh.buffer.write(lines.tobytes().translate(None, b"\0"))
        fh.buffer.write(b"\n")


def reparse_table(kind: str, path: Path) -> None:
    """Re-read one plot dataset that ``emit_plot_data`` wrote: every row is
    ASCII, has the header's column count and every numeric cell parses as a
    finite float, or as an int64 integer where the file's cells are ``%d``.

    The body is parsed ``ROW_BLOCK`` lines at a time.  A block with a blank
    or non-ASCII line, a malformed row or a non-finite cell is checked again
    line by line, by the same rule, and its first faulty line is the error,
    named path:line; so the file's first faulty line wins, whatever its fault.
    """
    head, cell, tail = PLOT_LAYOUT[kind]
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{kind} file is empty", path)
        numeric = len(header) - head - tail
        if numeric < 1:
            raise ParseError(f"{kind} header needs at least {head + tail + 1} columns", path, 1)
        strings = [(f"text{i}", str) for i in range(head + tail)]
        number = np.int64 if cell == "%d" else np.float64
        dtype = strings[:head] + [("numbers", number, (numeric,))] + strings[head:]
        options = dict(dtype=dtype, delimiter=",", comments=None, ndmin=1)

        def fault(lines: list[str]) -> str | None:
            """What is wrong with ``lines``, if anything."""
            if not all(text.rstrip("\r\n") for text in lines):
                return f"blank line in {kind} file"
            if not all(map(str.isascii, lines)):  # bytes that are not UTF-8 read as surrogates
                return f"non-ASCII text in {kind} file"
            try:
                numbers = np.loadtxt(lines, **options)["numbers"]
            except ValueError as exc:  # np.loadtxt's "at row N" counts ``lines``, not the file
                return f"malformed {kind} file: {str(exc).split(' at row ')[0]}"
            bad = numbers[~np.isfinite(numbers)]  # in file order
            return f"not a finite number: {str(bad[0])!r}" if bad.size else None

        first = line = reader.line_num + 1
        while block := list(itertools.islice(fh, ROW_BLOCK)):
            if fault(block):
                for i, text in enumerate(block):
                    if message := fault([text]):
                        raise ParseError(message, path, line + i)
            line += len(block)
    if line == first:
        raise ParseError(f"{kind} file has no data rows", path)


def emit_plot_data(
    result: BacktestResult,
    benchmark_cum: np.ndarray,
    split_date,
    out_dir,
) -> dict[str, Path]:
    """Write the four per-portfolio plot datasets and return the manifest.

    ``benchmark_cum`` must be the benchmark's cumulative return aligned to
    ``result.calendar`` (0.0 on the first day).  Shares and weights are
    encoded a few thousand cells at a time, each chunk of weights derived
    on its own: never a whole-matrix copy.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    benchmark_cum = np.asarray(benchmark_cum, dtype=np.float64)
    if len(benchmark_cum) != len(result.calendar):
        raise ValidationError(f"benchmark series length {len(benchmark_cum)} != calendar "
                              f"length {len(result.calendar)}")
    dates = np.datetime_as_string(result.calendar).tolist()
    manifest = {kind: out_dir / f"{kind}.csv" for kind in PLOT_LAYOUT}
    header, days = ["date", *result.tickers], np.array(["\n" + day for day in dates], "S11")
    _write_matrix(manifest["shares"], header, days, lambda lo, hi: result.shares[:, lo:hi])
    _write_matrix(manifest["weights"], header, days, result.weights_between)

    portfolio_cum = result.value / result.value[0] - 1.0
    segments = np.where(result.calendar < np.datetime64(split_date, "D"),
                        "in_sample", "out_of_sample").tolist()
    _write_table(manifest["cumulative"], ["date", "portfolio_cum", "benchmark_cum", "segment"],
                 zip(dates, portfolio_cum.tolist(), (benchmark_cum + 0.0).tolist(), segments))

    daily = simple_returns(result.calendar, result.value)
    rows = []
    for frequency in ("daily", "weekly", "monthly", "annual"):
        series = daily if frequency == "daily" else aggregate(daily, frequency)
        for stat, value in zip(BOX_STATS, box_plot_summary(series)):
            rows.append((frequency, stat, value + 0.0))
    _write_table(manifest["distributions"], ["frequency", "stat", "value"], rows)

    logger.debug("emitted plot data for %d days into %s", len(result.calendar), out_dir)
    return manifest
