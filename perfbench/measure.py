"""Timed runs of ``rebal backtest`` and the checks on what they write.

A subprocess run is timed from spawn to exit and reports its own peak
resident memory; an in-process run calls ``rebal.cli.main`` directly, so a
tracer can wrap the module boundaries.  Every run's output tree is
digested per sector and compared with a reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

CHILD_TIMEOUT_S = 150.0

# The child prints its own high-water RSS (VmHWM) on the way out.  The
# parent's os.wait4 rusage cannot be used: on Linux a child's ru_maxrss
# starts from the spawning process's RSS, which here holds numpy and rebal.
_BACKTEST = """\
import sys
try:
    from rebal.cli import main
    rc = main(sys.argv[1:])
finally:
    with open("/proc/self/status") as fh:
        sys.stdout.write("".join(line for line in fh if line.startswith("VmHWM:")))
sys.exit(rc)
"""
_PEAK_RSS = re.compile(r"^VmHWM:\s+(\d+) kB$", re.MULTILINE)
_SETUP = "import sys, rebal.cli; rebal.cli.load_run_config(sys.argv[1])"
_OK_LINE = re.compile(r"^ok: (.+?) -> ", re.MULTILINE)


@dataclass
class Run:
    wall_s: float
    rc: int
    stdout: str
    peak_rss_mb: float | None = None


def child_env(src_dir: Path) -> dict[str, str]:
    """Environment for a child interpreter that imports rebal from ``src_dir``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src_dir), env.get("PYTHONPATH")) if p
    )
    env.pop("REBAL_LOG", None)
    return env


def _spawn(args: list[str], env: dict[str, str], log: Path) -> Run:
    """Run one child interpreter; time it from spawn to exit."""
    with open(log, "w+", encoding="utf-8") as out:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env,
                                stdout=out, stderr=subprocess.STDOUT)
        # A blocking wait, not wait(timeout=), which polls in steps of up to 50 ms.
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            rc = proc.wait()
            wall = perf_counter() - start
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        out.seek(0)
        text = out.read()
    return Run(wall, rc, text)


def backtest_subprocess(config: Path, env: dict[str, str], log: Path) -> Run:
    run = _spawn(["-c", _BACKTEST, "backtest", "--config", str(config)], env, log)
    peak = _PEAK_RSS.search(run.stdout)
    run.peak_rss_mb = int(peak.group(1)) / 1024.0 if peak else None
    return run


def setup_subprocess(config: Path, env: dict[str, str], log: Path) -> Run:
    """A fresh interpreter importing rebal.cli and loading the run config."""
    return _spawn(["-c", _SETUP, str(config)], env, log)


def backtest_in_process(cli, config: Path) -> Run:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        start = perf_counter()
        rc = cli.main(["backtest", "--config", str(config)])
        wall = perf_counter() - start
    return Run(wall, rc, out.getvalue())


def tree_digest(root: Path) -> str:
    """sha256 over the sorted relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\0%d\0" % len(data))
        h.update(data)
    return h.hexdigest()


def sector_digests(out_dir: Path) -> dict[str, str]:
    if not out_dir.is_dir():
        return {}
    return {d.name: tree_digest(d) for d in sorted(out_dir.iterdir()) if d.is_dir()}


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


@dataclass
class Checker:
    """Counts sector outcomes of every run against reference digests.

    A sector fails when the run exits non-zero, does not print ``ok:`` for
    it, or writes a tree whose digest differs from the reference.  With no
    golden reference, the first run's digests become the reference, so the
    check is that repeated runs write byte-identical trees.
    """

    sectors: list[str]
    reference: dict[str, str] | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, run: Run, out_dir: Path) -> None:
        ok = set(_OK_LINE.findall(run.stdout))
        digests = sector_digests(out_dir)
        if self.reference is None:
            self.reference = digests
        for sector in self.sectors:
            self.attempted += 1
            why = None
            if run.rc != 0:
                why = f"rc {run.rc}"
            elif sector not in ok:
                why = "no ok: line"
            elif sector not in digests:
                why = "no output directory"
            elif digests[sector] != self.reference.get(sector):
                why = "output digest differs from the reference"
            if why:
                self.failed += 1
                self.problems.append(f"{sector}: {why}")

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.problems


def fresh(out_dir: Path) -> None:
    if out_dir.exists():
        shutil.rmtree(out_dir)


def summary(values: list[float]) -> dict:
    """Median, first and third quartile, and sample count."""
    values = sorted(values)
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}
