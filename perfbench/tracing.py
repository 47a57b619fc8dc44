"""In-process tracing of ``rebal backtest`` at module boundaries.

The tracer wraps, from outside the package, the functions that
``rebal.cli`` calls into each module.  Each call becomes a span (name,
start, end, parent, sector id) kept in memory; counters are computed at the
same boundaries from the arguments and results.  Nothing under ``src/`` is
changed or needs to know about it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

# rebal.cli attribute -> layer span name.  Two functions may share a layer.
WRAPPED = {
    "_run_sector": "cli.run_sector",
    "load_sector_manifest": "market_data.load_sector_manifest",
    "load_price_series": "market_data.load_price_series",
    "align_panel": "market_data.align_panel",
    "clip_panel": "market_data.clip_panel",
    "run_backtest": "portfolio.run_backtest",
    "simple_returns": "returns.split",
    "split_sample": "returns.split",
    "tear_sheet": "metrics.tear_sheet",
    "emit_plot_data": "report.emit_plot_data",
    "export_tear_sheets": "report.export_tear_sheets",
    "_reparse_outputs": "cli.verify",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None     # index of the enclosing span in Tracer.spans
    sector: str | None     # manifest stem of the enclosing cli.run_sector span


class Tracer:
    """Spans and counters for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()     # layers with a function missing from rebal.cli
        self.parsed_files: set[str] = set()
        self.bytes_parsed = 0
        self.rebalances = 0
        self.cell_days = 0
        self._stack: list[int] = []

    @contextmanager
    def installed(self, cli):
        """Wrap the functions of ``cli`` named in WRAPPED; restore them on exit."""
        saved = {}
        for attr, layer in WRAPPED.items():
            fn = getattr(cli, attr, None)
            if fn is None:
                self.absent.add(layer)
                continue
            saved[attr] = fn
            setattr(cli, attr, self._wrap(attr, layer, fn))
        try:
            yield self
        finally:
            for attr, fn in saved.items():
                setattr(cli, attr, fn)

    def _wrap(self, attr, layer, fn):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if attr == "_run_sector":
                sector = Path(args[1]).stem
            else:
                sector = self.spans[parent].sector if parent is not None else None
            if attr == "load_price_series":
                path = os.fspath(args[0])
                self.bytes_parsed += os.path.getsize(path)
                self.parsed_files.add(os.path.realpath(path))
            span = Span(layer, 0.0, 0.0, parent, sector)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if attr == "run_backtest":
                self.rebalances += len(result.rebalance_dates)
                self.cell_days += len(result.calendar) * len(result.tickers)
            return result

        return wrapper

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per layer: total self time (span minus child spans) and call count."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span, covered in zip(self.spans, child):
            seconds[span.name] = seconds.get(span.name, 0.0) + span.end - span.start - covered
            calls[span.name] = calls.get(span.name, 0) + 1
        return seconds, calls

    def layer_metrics(self) -> dict[str, tuple[float | None, str]]:
        """Per-layer metrics of this trace as {name: (value, unit)}.

        A metric whose layer function is absent from rebal.cli, or was never
        called, has value None: it is missing, not zero.
        """
        seconds, calls = self.self_times()

        def entered(layer):
            return bool(calls.get(layer)) and layer not in self.absent

        def s(layer):
            return seconds[layer] if entered(layer) else None

        load = "market_data.load_price_series"
        engine = "portfolio.run_backtest"
        loaded = entered(load)
        ran = entered(engine) and self.cell_days > 0
        return {
            f"{load}.s": (s(load), "s"),
            f"{load}.calls": (calls[load] if loaded else None, "count"),
            "market_data.bytes_parsed": (self.bytes_parsed if loaded else None, "bytes"),
            "market_data.parse_ratio": (
                len(self.parsed_files) / calls[load] if loaded else None, "ratio"),
            "market_data.align_panel.s": (s("market_data.align_panel"), "s"),
            "market_data.clip_panel.s": (s("market_data.clip_panel"), "s"),
            "market_data.load_sector_manifest.s": (s("market_data.load_sector_manifest"), "s"),
            f"{engine}.s": (s(engine), "s"),
            "portfolio.rebalances": (self.rebalances if ran else None, "count"),
            "portfolio.ns_per_cell_day": (
                seconds[engine] * 1e9 / self.cell_days if ran else None, "ns"),
            "returns.split.s": (s("returns.split"), "s"),
            "metrics.tear_sheet.s": (s("metrics.tear_sheet"), "s"),
            "report.emit_plot_data.s": (s("report.emit_plot_data"), "s"),
            "report.export_tear_sheets.s": (s("report.export_tear_sheets"), "s"),
            "cli.verify.s": (s("cli.verify"), "s"),
            "cli.run_sector.self_s": (s("cli.run_sector"), "s"),
        }

    def span_records(self) -> list[dict]:
        return [asdict(span) for span in self.spans]
