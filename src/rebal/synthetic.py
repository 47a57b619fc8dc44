"""Deterministic synthetic market data for demos and self-contained tests.

Generates a ten-sector universe (ten tickers each plus one shared
benchmark index) of geometric-random-walk adjusted closes on a Mon-Fri
trading calendar, and writes it in the package's price-CSV and manifest
formats.  The same seed always yields byte-identical files, so runs on
this data are reproducible end to end.

Usage:

    python -m rebal.synthetic OUT_DIR [--seed N] [--sectors K] [--tickers N]
"""

from __future__ import annotations

import argparse
import json
from datetime import date
from pathlib import Path

import numpy as np

from .market_data import DAY, iso_day

SECTORS = (
    ("auto", "AUTO"),
    ("banking", "BANK"),
    ("consumer_durables", "CDUR"),
    ("fmcg", "FMCG"),
    ("it", "ITEC"),
    ("metal", "METL"),
    ("pharma", "PHRM"),
    ("private_banks", "PVTB"),
    ("psu_banks", "PSUB"),
    ("realty", "RLTY"),
)
BENCHMARK_TICKER = "INDEX50"

DEFAULT_START = date(2021, 1, 4)
DEFAULT_END = date(2023, 9, 20)
DEFAULT_SEED = 20210104


def business_days(start, end) -> np.ndarray:
    """Mondays through Fridays in [start, end] as ``datetime64[D]``, no
    holiday calendar."""
    days = np.arange(np.datetime64(start, "D"), np.datetime64(end, "D") + 1)
    return days[np.is_busday(days)]


def _random_walk(rng: np.random.Generator, n: int, start_price: float,
                 drift: float, vol: float) -> np.ndarray:
    steps = rng.normal(drift, vol, size=n - 1)
    prices = start_price * np.exp(np.concatenate(([0.0], np.cumsum(steps))))
    return np.maximum(np.round(prices, 2), 0.05)


def write_price_csv(path: Path, ticker: str, days, prices) -> None:
    dates = np.datetime_as_string(np.asarray(days, dtype=DAY)).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("date,ticker,adj_close\n")
        fh.writelines(f"{day},{ticker},{price:.2f}\n" for day, price in zip(dates, prices))


def generate_universe(
    root,
    start=DEFAULT_START,
    end=DEFAULT_END,
    seed: int = DEFAULT_SEED,
    n_sectors: int = 10,
    tickers_per_sector: int = 10,
) -> tuple[Path, list[Path]]:
    """Write the synthetic universe under ``root``.

    Layout: ``root/data/<TICKER>.csv`` price files and
    ``root/manifests/<sector>.json`` sector manifests.  Returns
    (data_dir, manifest_paths).
    """
    if not 1 <= n_sectors <= len(SECTORS):
        raise ValueError(f"n_sectors must be 1..{len(SECTORS)}")
    root = Path(root)
    data_dir = root / "data"
    manifest_dir = root / "manifests"
    data_dir.mkdir(parents=True, exist_ok=True)
    manifest_dir.mkdir(parents=True, exist_ok=True)

    days = business_days(start, end)
    if len(days) < 2:
        raise ValueError(f"window {start}..{end} has fewer than 2 trading days")
    rng = np.random.default_rng(seed)

    bench = _random_walk(rng, len(days), start_price=14000.0, drift=0.0004, vol=0.009)
    write_price_csv(data_dir / f"{BENCHMARK_TICKER}.csv", BENCHMARK_TICKER, days, bench)

    manifest_paths: list[Path] = []
    for sector, prefix in SECTORS[:n_sectors]:
        tickers = [f"{prefix}{i:02d}" for i in range(1, tickers_per_sector + 1)]
        for ticker in tickers:
            start_price = float(np.exp(rng.uniform(np.log(40.0), np.log(9000.0))))
            drift = float(rng.normal(0.0004, 0.0006))
            vol = float(rng.uniform(0.010, 0.030))
            prices = _random_walk(rng, len(days), start_price, drift, vol)
            write_price_csv(data_dir / f"{ticker}.csv", ticker, days, prices)
        manifest = {"sector": sector, "tickers": tickers, "benchmark": BENCHMARK_TICKER}
        path = manifest_dir / f"{sector}.json"
        path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        manifest_paths.append(path)
    return data_dir, manifest_paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", help="directory to create data/ and manifests/ in")
    parser.add_argument("--start", type=iso_day, default=DEFAULT_START)
    parser.add_argument("--end", type=iso_day, default=DEFAULT_END)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--sectors", type=int, default=10)
    parser.add_argument("--tickers", type=int, default=10)
    args = parser.parse_args(argv)
    data_dir, manifests = generate_universe(
        args.out_dir, start=args.start, end=args.end, seed=args.seed,
        n_sectors=args.sectors, tickers_per_sector=args.tickers,
    )
    print(f"wrote price data to {data_dir}")
    for path in manifests:
        print(f"wrote manifest {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
