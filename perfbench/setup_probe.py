"""Set-up probe: import the CLI and resolve one workload's config.

    python3 perfbench/setup_probe.py COMMAND CONFIG

Run in a fresh interpreter; its wall time is the benchmark's `setup_s`.
Prints where darkspec was imported from and the numpy version, as JSON.
"""

from __future__ import annotations

import json
import sys


def main(command: str, config_path: str) -> None:
    import darkspec.cli  # noqa: F401  (the import is part of what is timed)
    import numpy
    from darkspec import config

    cfg = config.resolve_config(
        kind=command, config_path=config_path, files=(), seed=None, reps=None,
        out=None, tolerance=None, long_format=False,
    )
    if command == "run-process":
        config.engine_config(cfg.values)
        config.scripted_rounds(cfg.values)
    else:
        config.parse_components(cfg.values)
    print(json.dumps({"darkspec": darkspec.__file__, "numpy": numpy.__version__}))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
