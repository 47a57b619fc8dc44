"""End-to-end ten-sector study producing report files on disk.

Generates the full synthetic ten-sector universe over the default
2021-01-04..2023-09-20 window, backtests every sector with yearly
rebalancing through the command-line pipeline, and then ranks the
sectors by reading the emitted tear-sheet files back.  Everything under
the output tree is plot-ready CSV data; rerunning the script reproduces
it byte for byte.  Run:

    python demos/04_sector_study.py
"""

import json
import tempfile
from pathlib import Path

from rebal.cli import main
from rebal.report import read_tear_sheets
from rebal.synthetic import generate_universe

workdir = Path(tempfile.mkdtemp(prefix="rebal_demo_"))
data_dir, manifest_paths = generate_universe(workdir)
out_dir = workdir / "reports"

config_path = workdir / "run.json"
config_path.write_text(json.dumps({
    "data_dir": str(data_dir),
    "manifests": [str(p) for p in manifest_paths],
    "out_dir": str(out_dir),
    "frequency": "yearly",
}, indent=2))
print(f"run config written to {config_path}\n")

status = main(["backtest", "--config", str(config_path)])
assert status == 0, "backtest run failed"

print("\neach sector directory holds the tear sheets plus four plot datasets:")
sample = sorted((out_dir / "auto").iterdir())
for path in sample:
    print(f"  {path.relative_to(workdir)}")

rows = []
for sector_dir in sorted(out_dir.iterdir()):
    sheets = {s.window_label: s
              for s in read_tear_sheets(sector_dir / "tear_sheets.csv")}
    overall = sheets["overall"]
    rows.append((sector_dir.name, overall.cumulative_return,
                 overall.sharpe, overall.max_drawdown))

rows.sort(key=lambda r: r[1], reverse=True)
print("\nsectors ranked by overall cumulative return:")
print(f"{'sector':>18} {'cum return':>12} {'sharpe':>8} {'max dd':>9}")
for sector, cum, sharpe_ratio, mdd in rows:
    sharpe_cell = "n/a" if sharpe_ratio is None else f"{sharpe_ratio:8.2f}"
    print(f"{sector:>18} {cum:>12.2%} {sharpe_cell:>8} {mdd:>9.2%}")

print(f"\nreports left under {out_dir}")
