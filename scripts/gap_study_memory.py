"""Run gap-study at 3M reps in a child process and fail if its peak RSS passes 100 MiB.

The gap-study oracles draw their reps in fixed blocks, so the child's peak
resident set should not grow with reps. At `scenarios/gap.cfg`'s rates, 3M
reps expect 9M + 6M jumps: held at once, their sizes alone would take over
100 MiB. It prints the child's peak RSS and exits 1 when the child fails or
its peak RSS is above ``MAX_RSS_MIB``.

    PYTHONPATH=src python scripts/gap_study_memory.py
"""

from __future__ import annotations

import resource
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "scenarios" / "gap.cfg"
REPS = 3_000_000
MAX_RSS_MIB = 100.0


def main() -> int:
    with tempfile.TemporaryDirectory() as out:
        child = subprocess.run(
            [sys.executable, "-m", "darkspec", "gap-study", "--config", str(CONFIG),
             "--reps", str(REPS), "--out", out],
            check=False,
        )
    # ru_maxrss is in KiB on Linux; the only child waited for is gap-study
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"gap-study at {REPS} reps: exit {child.returncode}, "
          f"peak RSS {peak_mib:.1f} MiB (limit {MAX_RSS_MIB:.0f})")
    return 0 if child.returncode == 0 and peak_mib <= MAX_RSS_MIB else 1


if __name__ == "__main__":
    sys.exit(main())
