"""Run gap-study at 3M and 4M reps in child processes and fail if either
child's peak RSS passes 100 MiB.

The gap-study oracles draw their reps in fixed blocks, so the child's peak
resident set should not grow with reps. At `scenarios/gap.cfg`'s rates, 3M
reps expect 9M + 6M jumps: held at once, their sizes alone would take over
100 MiB. 4M reps expect 12M jumps of one component, past the 10^7 that
`simulate` and `estimate` may draw; gap-study checks that bound per
oracle block instead. It prints the peak RSS after each child and exits 1
when a child fails or the peak RSS is above ``MAX_RSS_MIB``.

    PYTHONPATH=src python scripts/gap_study_memory.py
"""

from __future__ import annotations

import resource
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "scenarios" / "gap.cfg"
REPS = (3_000_000, 4_000_000)
MAX_RSS_MIB = 100.0


def main() -> int:
    failed = False
    for reps in REPS:
        with tempfile.TemporaryDirectory() as out:
            child = subprocess.run(
                [sys.executable, "-m", "darkspec", "gap-study", "--config", str(CONFIG),
                 "--reps", str(reps), "--out", out],
                check=False,
            )
        # ru_maxrss is in KiB on Linux: the largest of the gap-study children so far
        peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        print(f"gap-study at {reps} reps: exit {child.returncode}, "
              f"peak RSS so far {peak_mib:.1f} MiB (limit {MAX_RSS_MIB:.0f})")
        failed |= child.returncode != 0 or peak_mib > MAX_RSS_MIB
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
