"""Walk through the data layer: generate prices, load, align, clip.

Generates a small synthetic universe on disk, loads the per-ticker CSVs
back through the validating loader, aligns everything (including a
deliberately gappy series) onto a shared trading calendar, and clips the
panel to a sub-window.  Run:

    python demos/01_data_pipeline.py
"""

import tempfile
from datetime import date
from pathlib import Path

from rebal import align_panel, clip_panel, load_price_series, load_sector_manifest
from rebal.synthetic import generate_universe

workdir = Path(tempfile.mkdtemp(prefix="rebal_demo_"))
data_dir, manifest_paths = generate_universe(
    workdir, start=date(2021, 1, 4), end=date(2021, 6, 30),
    n_sectors=1, tickers_per_sector=4, seed=42,
)
print(f"synthetic data written under {data_dir}")

manifest = load_sector_manifest(manifest_paths[0])
print(f"\nsector {manifest.sector!r}: {', '.join(manifest.tickers)} "
      f"vs benchmark {manifest.benchmark}")

# Load each constituent through the validating CSV reader.
series = [load_price_series(data_dir / f"{t}.csv", t) for t in manifest.tickers]
benchmark = load_price_series(data_dir / f"{manifest.benchmark}.csv",
                              manifest.benchmark)
for s in series + [benchmark]:
    print(f"  {s.ticker:>8}: {len(s)} rows, "
          f"{s.dates[0]}..{s.dates[-1]}, "
          f"first close {s.prices[0]:.2f}")

# Poke holes in one series to show that alignment is a strict date
# intersection: days missing from any input drop out of the calendar.
gappy = series[0]
kept = [i for i in range(len(gappy)) if i % 7 != 3]
from rebal import PriceSeries  # noqa: E402

series[0] = PriceSeries(gappy.ticker, gappy.dates[kept], gappy.prices[kept])
print(f"\ndropped {len(gappy) - len(kept)} scattered rows from {gappy.ticker}")

panel = align_panel(series, benchmark)
print(f"aligned calendar: {len(panel.calendar)} shared days "
      f"({panel.calendar[0]}..{panel.calendar[-1]})")

clipped = clip_panel(panel, date(2021, 2, 1), date(2021, 4, 30))
print(f"clipped to Feb..Apr: {len(clipped.calendar)} days "
      f"({clipped.calendar[0]}..{clipped.calendar[-1]})")
print("\nprice rows stay aligned to the calendar:")
for t, row in zip(clipped.tickers, clipped.prices):
    print(f"  {t:>8}: {row[:3].round(2)} ...")
