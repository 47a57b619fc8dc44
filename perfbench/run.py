"""Benchmark of ``rebal backtest`` on synthetic universes.

Run from the repository root:

    python3 perfbench/run.py --workload sectors_yearly --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40 --record perfbench/baseline.json
    python3 perfbench/run.py --write-golden

``--trace 0`` measures what a user sees.  ``rebal backtest`` runs as a fresh
subprocess in a closed loop with one client: each run starts after the
previous one exits.  The loop stops before a run that, at the pace so far,
would end after ``--seconds``, but not before three runs.  Set-up time is a
separate fresh interpreter that imports ``rebal.cli`` and loads the run
config; it is sampled before each backtest run, at least seven times, and
reported as a median like every other timing.

``--trace 1`` gives the per-layer numbers.  In one process it alternates
untraced runs with runs whose ``rebal.cli`` module boundaries are wrapped
by the tracer, and reports per-layer medians over the traced runs; the
spans are written under ``perfbench/_work`` when the benchmark ends.

Every run's output tree is checked per sector: rc 0, an ``ok:`` line, and
a sha256 equal to the golden digest in ``golden.json`` on the golden seed,
or to the first run's digest on any other seed.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"
GOLDEN = BENCH / "golden.json"

if __name__ == "__main__" and not (SRC / "rebal" / "cli.py").is_file():
    sys.exit(f"error: no rebal sources under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import rebal.cli as cli  # noqa: E402

import measure  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, prepare, sector_names  # noqa: E402

SETUP_SAMPLES = 7
MIN_RUNS = 3

END_TO_END_UNITS = {"wall_s": "s", "cell_days_per_s": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def golden() -> dict:
    """{"seed": golden seed, "digests": {workload: {sector: sha256}}}."""
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def golden_digests(workload: str, seed: int) -> dict[str, str] | None:
    """Golden per-sector digests for (workload, seed), if recorded."""
    recorded = golden()
    return recorded["digests"].get(workload) if seed == recorded["seed"] else None


def _next_fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more iteration, at the mean pace so far, ends within seconds."""
    elapsed = perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


def end_to_end(workload: Workload, seed: int, seconds: float, work_dir: Path = WORK):
    """Closed-loop subprocess runs; returns (checker, {metric: summary})."""
    config = prepare(workload, seed, work_dir)
    env = measure.child_env(SRC)
    out_dir = config.parent / "out"
    log = config.parent / "child.log"
    checker = measure.Checker(sector_names(config), golden_digests(workload.name, seed))

    setup, walls, rss = [], [], []

    def set_up():
        run = measure.setup_subprocess(config, env, log)
        if run.rc != 0:
            checker.problems.append(f"setup: rc {run.rc}: {run.stdout.strip()[-200:]}")
        setup.append(run.wall_s)

    measure.setup_subprocess(config, env, log)   # warm-up: bytecode and file caches
    # One set-up sample per backtest run spreads both across the whole window,
    # so a slow spell of the machine cannot land on set-up alone.
    start = perf_counter()
    while len(walls) < MIN_RUNS or _next_fits(start, len(walls), seconds):
        set_up()
        measure.fresh(out_dir)
        run = measure.backtest_subprocess(config, env, log)
        checker.check(run, out_dir)
        walls.append(run.wall_s)
        if run.peak_rss_mb is not None:    # None only if the child was killed
            rss.append(run.peak_rss_mb)
    while len(setup) < SETUP_SAMPLES:
        set_up()

    wall = measure.summary(walls)
    cells = workload.cell_days()
    rate = {"median": cells / wall["median"], "q1": cells / wall["q3"],
            "q3": cells / wall["q1"], "n": wall["n"]}
    stats = {"wall_s": wall, "cell_days_per_s": rate,
             "peak_rss_mb": measure.summary(rss) if rss else None,
             "setup_s": measure.summary(setup)}
    stats = {name: s for name, s in stats.items() if s is not None}
    for name, s in stats.items():
        s["unit"] = END_TO_END_UNITS[name]
    stats["wall_s"]["samples"] = walls
    stats["setup_s"]["samples"] = setup
    return checker, stats


def traced(workload: Workload, seed: int, seconds: float, work_dir: Path = WORK):
    """Alternating untraced and traced in-process runs.

    Returns (checker, {metric: (median value or None, unit)}, span records,
    layers whose function is absent from rebal.cli).
    """
    config = prepare(workload, seed, work_dir)
    out_dir = config.parent / "out"
    checker = measure.Checker(sector_names(config), golden_digests(workload.name, seed))
    plain, walls, per_run, spans = [], [], [], []
    start = perf_counter()
    while not walls or _next_fits(start, len(walls), seconds):
        measure.fresh(out_dir)
        run = measure.backtest_in_process(cli, config)
        checker.check(run, out_dir)
        plain.append(run.wall_s)

        measure.fresh(out_dir)
        tracer = Tracer()
        with tracer.installed(cli):
            run = measure.backtest_in_process(cli, config)
        checker.check(run, out_dir)
        walls.append(run.wall_s)
        metrics = tracer.layer_metrics()
        metrics["report.bytes_written"] = (measure.tree_bytes(out_dir), "bytes")
        per_run.append(metrics)
        spans.append(tracer.span_records())

    layers = {}
    for name, (_, unit) in per_run[0].items():
        values = [m[name][0] for m in per_run]
        layers[name] = (None if None in values else float(np.median(values)), unit)
    layers["trace.overhead_s"] = (float(np.median(walls) - np.median(plain)), "s")
    return checker, layers, spans, tracer.absent


def write_spans(workload: str, seed: int, spans: list) -> None:
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "runs": spans}))


def print_end_to_end(name: str, seed: int, checker, stats) -> None:
    print(f"# {name} (seed {seed}): rebal backtest as a fresh subprocess, "
          f"closed loop, 1 client")
    print(f"{'metric':<18}{'unit':<7}{'median':>14}{'q1':>14}{'q3':>14}{'n':>5}")
    for metric, s in stats.items():
        print(f"{metric:<18}{s['unit']:<7}{s['median']:>14.6g}{s['q1']:>14.6g}"
              f"{s['q3']:>14.6g}{s['n']:>5}")
    ratio = checker.failed / checker.attempted
    print(f"{'failed_ratio':<18}{'ratio':<7}{ratio:>14.6g}"
          f"   ({checker.failed} of {checker.attempted} sector runs)")


def print_layers(name: str, seed: int, layers, absent: set[str]) -> None:
    print(f"# {name} (seed {seed}): per-layer metrics, median over traced in-process runs")
    for metric, (value, unit) in layers.items():
        shown = f"{value:>14.6g}" if value is not None else f"{'missing':>14}"
        print(f"{metric:<38}{unit:<7}{shown}")
    if absent:
        print(f"# not found in rebal.cli: {', '.join(sorted(absent))}")


def result_line(checker, metrics: dict[str, tuple[float | None, str]]) -> str:
    return json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if value is not None},
    })


def report_problems(name: str, checker) -> None:
    for problem in checker.problems:
        print(f"{name}: {problem}", file=sys.stderr)


def run_end_to_end(name: str, seed: int, seconds: float):
    """Measure one workload untraced and print its table."""
    checker, stats = end_to_end(WORKLOADS[name], seed, seconds)
    print_end_to_end(name, seed, checker, stats)
    report_problems(name, checker)
    return checker, stats


def run_traced(name: str, seed: int, seconds: float):
    """Trace one workload, write its spans and print its per-layer table."""
    checker, layers, spans, absent = traced(WORKLOADS[name], seed, seconds)
    write_spans(name, seed, spans)
    print_layers(name, seed, layers, absent)
    report_problems(name, checker)
    return checker, layers, spans


def run_one(name: str, seed: int, seconds: float, trace: bool) -> bool:
    if trace:
        checker, metrics, _ = run_traced(name, seed, seconds)
    else:
        checker, stats = run_end_to_end(name, seed, seconds)
        metrics = {m: (s["median"], s["unit"]) for m, s in stats.items()}
    print(result_line(checker, metrics))
    return checker.correct


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def run_all(seed: int, seconds: float, record: Path | None) -> bool:
    """Every workload, untraced then traced, with tables; optionally a JSON record."""
    good = True
    rows = {}
    for name, workload in WORKLOADS.items():
        checker, stats = run_end_to_end(name, seed, seconds)
        t_checker, layers, spans = run_traced(name, seed, seconds)
        print()
        good &= checker.correct and t_checker.correct
        rows[name] = {
            "why": workload.why,
            "cell_days": workload.cell_days(),
            "end_to_end": stats,
            "failed_ratio": checker.failed / checker.attempted,
            "sector_runs": checker.attempted,
            "traced_runs": len(spans),
            "per_layer": {m: {"value": v, "unit": u} for m, (v, u) in layers.items()},
        }
    if record is not None:
        record.write_text(json.dumps({
            "machine": machine_info(),
            "seed": seed,
            "seconds": seconds,
            "loop": "closed, 1 client, fresh subprocess per run",
            "correct": good,
            "workloads": rows,
        }, indent=2) + "\n")
    return good


def write_golden(seed: int) -> bool:
    """Run every workload once on ``seed`` and record per-sector digests."""
    env = measure.child_env(SRC)
    digests = {}
    for name, workload in WORKLOADS.items():
        config = prepare(workload, seed, WORK)
        out_dir = config.parent / "out"
        measure.fresh(out_dir)
        checker = measure.Checker(sector_names(config))
        checker.check(measure.backtest_subprocess(config, env, config.parent / "child.log"),
                      out_dir)
        report_problems(name, checker)
        if not checker.correct:
            return False
        digests[name] = measure.sector_digests(out_dir)
    GOLDEN.write_text(json.dumps({"seed": seed, "digests": digests}, indent=2) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)} for seed {seed}")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, help="input seed (default: the golden seed)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="with --workload all: write a JSON record")
    parser.add_argument("--write-golden", action="store_true",
                        help="record golden per-sector digests for --seed")
    args = parser.parse_args(argv)
    seed = golden()["seed"] if args.seed is None else args.seed
    if args.write_golden:
        ok = write_golden(seed)
    elif args.workload == "all":
        ok = run_all(seed, args.seconds, args.record)
    elif args.workload:
        ok = run_one(args.workload, seed, args.seconds, bool(args.trace))
    else:
        parser.error("give --workload or --write-golden")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
