"""Time the round ledger at two lengths and fail if its cost grows faster than linearly.

For each case and each length N, runs ``run_round`` N times over the atlanta
scenario under one 20-row observed feed tuple shared by every round, then
``replay_ledger`` over the result, then ``write_ledger`` and ``read_ledger``
through a file in a temporary directory. In the first case each round imagines a
new risk (the scenario renumbered); in the second the rounds cycle through
40 risk ids, so from round 41 on every round re-speculates a risk and the
running PKRE takes the replaced estimate out. Each time is the fastest of
``REPEATS`` runs. It prints the twelve times and exits 1 when any 10,000-round
time is more than ``MAX_RATIO`` times its 2,500-round time: linear growth
gives about 4-5x, a per-round cost that grows with the ledger's length 16x.

    PYTHONPATH=src python scripts/ledger_scaling.py
"""

from __future__ import annotations

import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from darkspec import (
    CostModel,
    EngineConfig,
    RedLineConfig,
    RoundBenefits,
    RoundLedger,
    UnderwritingResult,
    estimate_from_observation,
    parse_narrative,
    read_ledger,
    replay_ledger,
    run_round,
    write_ledger,
)

LENGTHS = (2_500, 10_000)
MAX_RATIO = 10.0
REPEATS = 3
CASES = (("new risk every round", None), ("40 risks re-speculated", 40))
SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "atlanta.licain"
CONFIG = EngineConfig(
    costs=CostModel.constant(c_write=1.0, c_spec=2.0), redline=RedLineConfig(nu_star=1e6)
)


def timed_ledger(rounds: int, risks: int | None) -> tuple[float, float, float]:
    """(run_round seconds, replay_ledger seconds, write_ledger plus read_ledger
    seconds) over ``rounds`` rounds, the round's risk id cycling through
    ``risks`` ids (None: a new id every round)."""
    narrative = parse_narrative(SCENARIO.read_text(encoding="utf-8"))
    feed = tuple(
        estimate_from_observation(f"obs-{i}", [1.0 + i, 0.5 * i + 0.25], 3.0)
        for i in range(20)
    )
    start = time.perf_counter()
    ledger = RoundLedger()
    for r in range(1, rounds + 1):
        result = UnderwritingResult(lambda_hat=0.001 * (r % 97), xi_hat=1.0 + r % 13)
        risk = r if risks is None else r % risks
        ledger = run_round(
            ledger,
            replace(narrative, round=r, risk_id=f"{narrative.risk_id}-{risk}"),
            lambda _n, result=result: result,
            feed,
            CONFIG,
            RoundBenefits(0.5, 0.25),
        )
    middle = time.perf_counter()
    replayed = replay_ledger(ledger, CONFIG)
    end = time.perf_counter()
    if replayed != ledger:
        raise SystemExit("replay_ledger did not reproduce the ledger")
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "ledger.jsonl"
        trip_start = time.perf_counter()
        write_ledger(ledger, path)
        loaded = read_ledger(path)
        round_trip = time.perf_counter() - trip_start
    if loaded != ledger:
        raise SystemExit("read_ledger did not give back the written ledger")
    return middle - start, end - middle, round_trip


def main() -> int:
    failed = False
    for case, risks in CASES:
        short, long = (
            [min(times) for times in zip(*(timed_ledger(n, risks) for _ in range(REPEATS)))]
            for n in LENGTHS
        )
        for name, a, b in zip(("run_round", "replay_ledger", "ledger round trip"), short, long):
            ratio = b / a
            failed |= ratio > MAX_RATIO
            print(f"{case}, {name}: {LENGTHS[0]} rounds {a:.3f} s, {LENGTHS[1]} rounds "
                  f"{b:.3f} s, ratio {ratio:.1f} (limit {MAX_RATIO:g})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
