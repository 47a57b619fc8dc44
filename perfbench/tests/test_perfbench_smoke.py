"""Smoke test of the benchmark itself, on a tiny universe; takes a few seconds.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import types
from datetime import date
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import rebal.cli as cli  # noqa: E402
from rebal.portfolio import rebalance_dates  # noqa: E402
from rebal.synthetic import business_days  # noqa: E402

import measure  # noqa: E402
import run  # noqa: E402
from tracing import WRAPPED, Tracer  # noqa: E402
from workloads import Workload, prepare  # noqa: E402

START, END = date(2021, 1, 4), date(2021, 3, 31)


def tiny(long_format: bool = False) -> Workload:
    return Workload(
        "tiny", "smoke test", sectors=2, tickers=3, start=START, end=END,
        config=dict(start="2021-01-04", split="2021-02-15", end="2021-03-31",
                    frequency="monthly", cost_rate=0.0),
        long_format=long_format,
    )


def test_long_format_input_gives_the_per_ticker_outputs(tmp_path):
    per_ticker, stats = run.end_to_end(tiny(), seed=3, seconds=0.2, work_dir=tmp_path / "a")
    long_format, _ = run.end_to_end(tiny(True), seed=3, seconds=0.2, work_dir=tmp_path / "b")
    assert per_ticker.correct and long_format.correct
    assert per_ticker.attempted >= 2 * run.MIN_RUNS
    assert per_ticker.reference == long_format.reference
    assert sorted(per_ticker.reference) == ["auto", "banking"]
    assert set(stats) == set(run.END_TO_END_UNITS)
    assert all(s["median"] > 0 and s["n"] >= 1 for s in stats.values())


def test_peak_rss_is_the_childs_own(tmp_path):
    config = prepare(tiny(), 3, tmp_path)
    ballast = bytearray(96 * 2**20)
    ballast[::4096] = b"\1" * (len(ballast) // 4096)   # make the parent's pages resident
    result = measure.backtest_subprocess(config, measure.child_env(ROOT / "src"),
                                         tmp_path / "child.log")
    assert result.rc == 0
    assert 5 < result.peak_rss_mb < 96


def test_long_format_rows_are_interleaved_by_date(tmp_path):
    config = prepare(tiny(True), 3, tmp_path)
    data = config.parent / "data"
    assert [p.name for p in data.iterdir()] == ["prices.csv"]
    rows = (data / "prices.csv").read_text().splitlines()[1:]
    assert len({r.split(",")[1] for r in rows[:7]}) == 7   # 6 tickers + benchmark


def test_tracer_counts_and_spans(tmp_path):
    workload = tiny(True)
    config = prepare(workload, 3, tmp_path)
    tracer = Tracer()
    with tracer.installed(cli):
        result = measure.backtest_in_process(cli, config)
    assert result.rc == 0
    assert cli.load_price_series.__name__ == "load_price_series"   # restored

    metrics = tracer.layer_metrics()
    loads = 2 * (3 + 1)
    assert metrics["market_data.load_price_series.calls"][0] == loads
    assert metrics["market_data.parse_ratio"][0] == 1 / loads
    size = (config.parent / "data" / "prices.csv").stat().st_size
    assert metrics["market_data.bytes_parsed"][0] == loads * size
    assert tracer.cell_days == workload.cell_days()
    planned = rebalance_dates(business_days(START, END), "monthly")
    assert metrics["portfolio.rebalances"][0] == 2 * len(planned)
    assert all(value is not None and value >= 0 for value, _ in metrics.values())

    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.run_sector"] * 2
    assert {s.sector for s in tracer.spans} == {"auto", "banking"}
    assert all(s.start <= s.end for s in tracer.spans)


def test_absent_function_is_missing_not_zero():
    partial = types.SimpleNamespace(
        **{attr: getattr(cli, attr) for attr in WRAPPED if attr != "_reparse_outputs"}
    )
    tracer = Tracer()
    with tracer.installed(partial):
        pass
    assert tracer.absent == {"cli.verify"}
    metrics = tracer.layer_metrics()
    assert metrics["cli.verify.s"][0] is None
    line = json.loads(run.result_line(measure.Checker(["x"], attempted=1), metrics))
    assert "cli.verify.s" not in line["metrics"]


def test_traced_run_reports_every_layer(tmp_path):
    checker, layers, spans, absent = run.traced(tiny(), seed=3, seconds=0.1, work_dir=tmp_path)
    assert checker.correct and not absent and spans
    assert all(value is not None for value, _ in layers.values())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(layers) == [m["name"] for m in benchmark["per_layer"]]
    assert list(run.END_TO_END_UNITS) == [m["name"] for m in benchmark["end_to_end"]]
    assert [{"name": w.name, "why": w.why} for w in run.WORKLOADS.values()] == \
        benchmark["workloads"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sectors_yearly",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
