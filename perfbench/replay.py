"""Library replay of a persisted round ledger.

    python3 perfbench/replay.py CONFIG LEDGER OUT

Reads LEDGER with `read_ledger`, re-runs every round with `replay_ledger`
under CONFIG's engine settings, and writes the rebuilt ledger to OUT with
`write_ledger`, so the caller can compare the two files byte for byte.
"""

from __future__ import annotations

import sys


def replay(config_path: str, ledger_path: str, out_path: str) -> int:
    """Replay one ledger file; returns the number of rounds replayed."""
    # module attributes, not imported names, so a tracer can wrap them
    from darkspec import config, engine

    settings = config.engine_config(config.load_config_file(config_path))
    persisted = engine.read_ledger(ledger_path)
    rebuilt = engine.replay_ledger(persisted, settings)
    engine.write_ledger(rebuilt, out_path)
    return len(rebuilt.records)


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    print(f"replayed {replay(*sys.argv[1:])} rounds")
