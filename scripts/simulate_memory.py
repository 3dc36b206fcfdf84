"""Run simulate on `scenarios/simulate.cfg` at 2,500 and 80,000 reps in child
processes and fail if the larger run's peak RSS passes the smaller one's by
more than 10 MiB.

`simulate` writes each block of paths to `paths.csv` as soon as it is drawn
and keeps only the terminal values, 8 bytes a path, so its peak resident set
should hardly grow with reps: 78,000 more paths of two components hold about
1.2 MiB of terminal values, while every path's jumps held at once would take
about 90 MiB more. It prints each child's peak RSS and exits 1 when a child
fails or the growth is above ``MAX_GROWTH_MIB``.

Each child's peak is read from its own `os.wait4`, not from
`RUSAGE_CHILDREN`, which is a running maximum over all children. On Linux
that peak is the largest of the child and the worker processes it forked and
reaped, so it covers every process that holds a block. A child's `ru_maxrss`
also includes the RSS of the process it was forked from, so this script
keeps itself small and never reads `paths.csv`.

    PYTHONPATH=src python scripts/simulate_memory.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "scenarios" / "simulate.cfg"
REPS = (2_500, 80_000)
MAX_GROWTH_MIB = 10.0


def peak_rss_mib(reps: int) -> tuple[int, float]:
    """Exit code and peak RSS in MiB of one simulate child at ``reps``."""
    with tempfile.TemporaryDirectory() as out:
        child = subprocess.Popen(
            [sys.executable, "-m", "darkspec", "simulate", "--config", str(CONFIG),
             "--reps", str(reps), "--out", out],
            stdout=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(child.pid, 0)
        # reaped by wait4: tell Popen, so that it does not wait on the pid again
        child.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return child.returncode, usage.ru_maxrss / 1024


def main() -> int:
    failed = False
    peaks = []
    for reps in REPS:
        code, peak = peak_rss_mib(reps)
        print(f"simulate at {reps} reps: exit {code}, peak RSS {peak:.1f} MiB")
        failed |= code != 0
        peaks.append(peak)
    growth = peaks[-1] - peaks[0]
    print(f"growth {growth:.1f} MiB (limit {MAX_GROWTH_MIB:.0f})")
    return 1 if failed or growth > MAX_GROWTH_MIB else 0


if __name__ == "__main__":
    sys.exit(main())
