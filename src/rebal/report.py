"""Serialization of tear sheets and plot-ready CSV datasets.

This package emits plot *data*, not rendered charts; any plotting tool
can consume the files.  All output is deterministic: fixed column order
(sorted tickers), one decimal format (``%.12g``, shortest representation
capped at 12 significant digits, with -0 written as 0), LF line endings.
The same inputs always produce byte-identical files.

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
ROW_BLOCK = 128  # days per block in which shares and weights are written and re-read
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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    logger.debug("wrote %d tear sheets to %s", len(sheets), path)
    return path


def read_tear_sheets(path) -> list[TearSheet]:
    """Parse a tear-sheet file, CSV or JSON by its suffix, back into
    TearSheet objects."""
    path = Path(path)
    if _tear_sheet_format(path) == "json":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        return [
            TearSheet(**{n: entry["metrics"][n] for n in METRIC_NAMES},
                      window_label=entry["window"])
            for entry in payload
        ]
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:1] != ["metric"]:
        raise ParseError("bad tear-sheet header", path, 1)
    labels = rows[0][1:]
    table: dict[str, list[float | None]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(labels) + 1:
            raise ParseError(f"expected {len(labels) + 1} columns", path, lineno)
        table[row[0]] = [float(c) if c != "" else None for c in row[1:]]
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
    each body line is one ``%``-template, never a per-cell call.
    """
    head, cell, tail = PLOT_LAYOUT[path.stem]
    line = ",".join(["%s"] * head + [cell] * (len(header) - head - tail) + ["%s"] * tail) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(line % row for row in rows)


def emit_plot_data(
    result: BacktestResult,
    benchmark_cum: np.ndarray,
    split_date,
    out_dir,
) -> dict[str, Path]:
    """Write the four per-portfolio plot datasets and return the manifest.

    ``benchmark_cum`` must be the benchmark's cumulative return aligned to
    ``result.calendar`` (0.0 on the first day).  Shares and weights are
    formatted ``ROW_BLOCK`` days at a time, never as a whole-matrix copy.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    benchmark_cum = np.asarray(benchmark_cum, dtype=np.float64)
    if len(benchmark_cum) != len(result.calendar):
        raise ValidationError(f"benchmark series length {len(benchmark_cum)} != calendar "
                              f"length {len(result.calendar)}")
    header = ["date", *result.tickers]
    dates = np.datetime_as_string(result.calendar).tolist()
    manifest = {kind: out_dir / f"{kind}.csv" for kind in PLOT_LAYOUT}

    # adding 0 turns -0.0 into 0.0, which NUMBER prints as 0, and leaves
    # every other value alone
    for kind, matrix in (("shares", result.shares), ("weights", result.weights)):
        rows = ((day, *row) for lo in range(0, len(dates), ROW_BLOCK)
                for day, row in zip(dates[lo:lo + ROW_BLOCK],
                                    (matrix[:, lo:lo + ROW_BLOCK] + 0).T.tolist()))
        _write_table(manifest[kind], header, rows)

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
