"""Benchmark workloads: what each one generates, and how its inputs are cached.

Every workload is a synthetic universe from ``rebal.synthetic.generate_universe``
plus one run config.  Inputs depend only on (workload, seed), are generated
outside any timed region, and are cached under the benchmark's work
directory so that repeated runs on one seed reuse them.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from rebal.synthetic import business_days, generate_universe


@dataclass(frozen=True)
class Workload:
    """One set of inputs for ``rebal backtest``."""

    name: str
    why: str
    sectors: int
    tickers: int
    start: date                      # first generated price day
    end: date                        # last generated price day
    config: dict                     # run.json keys besides paths
    long_format: bool = False        # one interleaved prices.csv, not per-ticker files

    def cell_days(self) -> int:
        """Constituents x aligned trading days, summed over sectors.

        The generator gives every ticker every business day, so the aligned
        calendar is the business days inside both the generated span and
        the configured window.
        """
        lo = max(self.start, date.fromisoformat(self.config["start"]))
        hi = min(self.end, date.fromisoformat(self.config["end"]))
        return self.sectors * self.tickers * len(business_days(lo, hi))


_STUDY = dict(start="2021-01-04", split="2022-07-01", end="2023-09-20",
              frequency="yearly", cost_rate=0.0)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sectors_yearly",
            "the paper's ten-sector study, one CSV per ticker; load, report and "
            "verify dominate, and it is the no-change control for engine work",
            sectors=10, tickers=10, start=date(2021, 1, 4), end=date(2023, 9, 20),
            config=_STUDY,
        ),
        # Three sectors, not ten: the loader rescans the whole file once per
        # ticker, so ten sectors take ~11 s a run, too few runs to steady a median.
        Workload(
            "long_format",
            "the study's first three sectors as one date-interleaved prices.csv; "
            "isolates the load path, which rescans the file once per ticker",
            sectors=3, tickers=10, start=date(2021, 1, 4), end=date(2023, 9, 20),
            config=_STUDY, long_format=True,
        ),
        Workload(
            "panel_daily",
            "one sector of 300 tickers over 2013-2022 rebalanced daily with costs; "
            "stresses the engine, alignment and the large-panel memory case",
            sectors=1, tickers=300, start=date(2013, 1, 1), end=date(2022, 12, 30),
            config=dict(start="2013-01-01", split="2018-01-01", end="2022-12-30",
                        frequency="daily", cost_rate=0.001),
        ),
    )
}


def write_long_format(data_dir: Path) -> None:
    """Replace every per-ticker CSV in ``data_dir`` by one ``prices.csv``.

    Rows are interleaved by date (every ticker's row for a day, then the
    next day), so no ticker's rows form a contiguous block.
    """
    by_day: dict[str, list[str]] = {}
    files = sorted(data_dir.glob("*.csv"))
    for path in files:
        with open(path, encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                by_day.setdefault(line[:10], []).append(line)
    with open(data_dir / "prices.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("date,ticker,adj_close\n")
        for day in sorted(by_day):
            fh.writelines(by_day[day])
    for path in files:
        path.unlink()


def prepare(workload: Workload, seed: int, work_dir: Path) -> Path:
    """Return the run-config path for (workload, seed), generating it if needed.

    A finished universe is renamed into place, so an interrupted generation
    never leaves a half-written cache entry.  Other seeds of the same
    workload are dropped to bound disk use.
    """
    home = work_dir / workload.name
    root = home / f"seed-{seed}"
    config_path = root / "run.json"
    if config_path.is_file():
        return config_path
    for stale in home.glob("*"):
        shutil.rmtree(stale)
    tmp = home / f".tmp-seed-{seed}"
    data_dir, manifests = generate_universe(
        tmp, start=workload.start, end=workload.end, seed=seed,
        n_sectors=workload.sectors, tickers_per_sector=workload.tickers,
    )
    if workload.long_format:
        write_long_format(data_dir)
    config = dict(
        data_dir="data",
        manifests=[str(m.relative_to(tmp)) for m in manifests],
        out_dir="out",
        **workload.config,
    )
    with open(tmp / "run.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
        fh.write("\n")
    tmp.rename(root)
    return config_path


def sector_names(config_path: Path) -> list[str]:
    """Sector names of a prepared universe, in manifest order."""
    config = json.loads(config_path.read_text(encoding="utf-8"))
    return [
        json.loads((config_path.parent / m).read_text(encoding="utf-8"))["sector"]
        for m in config["manifests"]
    ]
