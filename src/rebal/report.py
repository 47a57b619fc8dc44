"""Serialization of tear sheets and plot-ready CSV datasets.

This package emits plot *data*, not rendered charts; any plotting tool
can consume the files.  All output is deterministic: fixed column order
(sorted tickers), fixed decimal formatting (shortest representation
capped at 12 significant digits), LF line endings.  The same inputs
always produce byte-identical files.

Output schemas:

* tear sheets, CSV  — ``metric,<window...>`` header, one row per metric,
  not-computable cells left empty;
* tear sheets, JSON — ``[{"window": str, "metrics": {name: number|null}}]``;
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


def format_number(x: float) -> str:
    """Shortest decimal form capped at 12 significant digits."""
    if x == 0.0:
        return "0"
    return format(float(x), ".12g")


def export_tear_sheets(sheets, path, format: str = "csv") -> Path:
    """Write tear sheets to one file, windows side by side.

    ``sheets`` is a sequence of TearSheet whose window_label fields name
    the columns.  Not-computable metrics become empty CSV cells or JSON
    nulls.
    """
    sheets = list(sheets)
    path = Path(path)
    if format == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["metric"] + [s.window_label for s in sheets])
            for name in METRIC_NAMES:
                row = [name]
                for sheet in sheets:
                    v = getattr(sheet, name)
                    row.append("" if v is None else format_number(v))
                writer.writerow(row)
    elif format == "json":
        payload = [
            {"window": s.window_label, "metrics": {n: getattr(s, n) for n in METRIC_NAMES}}
            for s in sheets
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise ValidationError(f"unknown tear-sheet format {format!r}")
    logger.debug("wrote %d tear sheets to %s (%s)", len(sheets), path, format)
    return path


def read_tear_sheets(path, format: str = "csv") -> list[TearSheet]:
    """Parse a tear-sheet file back into TearSheet objects."""
    path = Path(path)
    if format == "csv":
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
    if format == "json":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        return [
            TearSheet(**{n: entry["metrics"][n] for n in METRIC_NAMES},
                      window_label=entry["window"])
            for entry in payload
        ]
    raise ValidationError(f"unknown tear-sheet format {format!r}")


def _write_table(path: Path, header: list[str], line: str, rows) -> None:
    """Write ``header`` as a CSV record, then ``line % row`` for each row.

    The header goes through ``csv`` so that names needing quotes get them;
    each body line is one ``%``-template, never a per-cell call.
    """
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
    manifest = {kind: out_dir / f"{kind}.csv"
                for kind in ("shares", "weights", "cumulative", "distributions")}

    # %.12g is format_number's format, except that it prints -0.0 as "-0":
    # adding 0 turns -0.0 into 0.0 and leaves every other value alone
    for kind, cell, matrix in (("shares", ",%d", result.shares),
                               ("weights", ",%.12g", result.weights)):
        rows = ((day, *row) for lo in range(0, len(dates), ROW_BLOCK)
                for day, row in zip(dates[lo:lo + ROW_BLOCK],
                                    (matrix[:, lo:lo + ROW_BLOCK] + 0).T.tolist()))
        _write_table(manifest[kind], header, "%s" + cell * len(result.tickers) + "\n", rows)

    portfolio_cum = result.value / result.value[0] - 1.0
    segments = np.where(result.calendar < np.datetime64(split_date, "D"),
                        "in_sample", "out_of_sample").tolist()
    _write_table(
        manifest["cumulative"], ["date", "portfolio_cum", "benchmark_cum", "segment"],
        "%s,%.12g,%.12g,%s\n",
        zip(dates, portfolio_cum.tolist(), (benchmark_cum + 0.0).tolist(), segments),
    )

    daily = simple_returns(result.calendar, result.value)
    rows = []
    for frequency in ("daily", "weekly", "monthly", "annual"):
        series = daily if frequency == "daily" else aggregate(daily, frequency)
        for stat, value in zip(BOX_STATS, box_plot_summary(series)):
            rows.append((frequency, stat, format_number(value)))
    _write_table(manifest["distributions"], ["frequency", "stat", "value"],
                 "%s,%s,%s\n", rows)

    logger.debug("emitted plot data for %d days into %s", len(result.calendar), out_dir)
    return manifest
