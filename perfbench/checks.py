"""Output checks that do not depend on Monte Carlo luck.

Each check takes the files or the captured stdout of one command and
returns a list of problems; an empty list means the output is correct.
Statistical FAIL rows are not problems: `fail_rows` counts them, and a
command that printed one may exit 1.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

_FAIL_ROW = re.compile(r"^\s+\[FAIL\] ", re.MULTILINE)
_ROUND_LINE = re.compile(r"^round (\d+): risk=(\S+) PKRE=(\S+) decision=", re.MULTILINE)
_VERDICT = re.compile(r"^(\S+): (ok \(|(\d+) violation\(s\)$)")
_CODE = re.compile(r"^  \[([a-z0-9-]+)\] ")


def fail_rows(stdout: str) -> int:
    """Statistical FAIL rows a simulate/estimate/gap-study/stopping summary printed."""
    return len(_FAIL_ROW.findall(stdout))


def check_exit(status: int, expected: int | None, stdout: str) -> list[str]:
    """`expected` None means a tolerance report: 0, or 1 exactly when a row FAILs."""
    if expected is None:
        expected = 1 if fail_rows(stdout) else 0
    if status != expected:
        return [f"exit status {status}, expected {expected}"]
    return []


def check_paths_csv(path: Path, reps: int, horizon: float, commencements: dict) -> list[str]:
    """Every path is its jump rows then one terminal row: row count is
    sum(jumps + 1), jump times sorted inside [commencement, horizon],
    sizes finite and >= 0, path indices running 0.. over components in order."""
    if not Path(path).is_file():
        return [f"{path}: missing"]
    order = [cid for cid in commencements for _ in range(reps)]
    problems: list[str] = []
    rows = jumps = 0
    index = 0
    last_time = None
    with open(path, newline="", encoding="utf-8") as source:
        reader = csv.reader(source)
        header = next(reader, None)
        if header != ["component_id", "path_index", "jump_time", "jump_size", "terminal_value"]:
            return [f"{path}: bad header {header!r}"]
        for line_no, row in enumerate(reader, start=2):
            rows += 1
            if len(row) != 5 or index >= len(order):
                problems.append(f"{path}:{line_no}: unexpected row {row!r}")
                break
            cid, pidx, t_text, z_text, terminal = row
            try:
                t, z = float(t_text), float(z_text)
                if int(pidx) != index or cid != order[index]:
                    raise ValueError(f"expected path {index} of {order[index]}")
                if terminal:
                    float(terminal)
                    if t != horizon or z != 0.0:
                        raise ValueError("terminal row must sit at the horizon with size 0")
                    index += 1
                    last_time = None
                    continue
                if not (commencements[cid] <= t <= horizon):
                    raise ValueError(f"jump time {t} outside the window")
                if last_time is not None and t < last_time:
                    raise ValueError("jump times not sorted")
                if not (math.isfinite(z) and z >= 0.0):
                    raise ValueError(f"jump size {z} not finite and >= 0")
            except ValueError as exc:
                problems.append(f"{path}:{line_no}: {exc}")
                break
            last_time = t
            jumps += 1
    if not problems and index != len(order):
        problems.append(f"{path}: {index} complete paths, expected {len(order)}")
    if not problems and rows != jumps + len(order):
        problems.append(f"{path}: {rows} rows, expected sum(jumps + 1) = {jumps + len(order)}")
    return problems


def check_estimates_csv(path: Path, reps: int, horizon: float, commencements: dict) -> list[str]:
    """One observed estimate per component with lambda_hat == n_events / window exactly."""
    if not Path(path).is_file():
        return [f"{path}: missing"]
    with open(path, newline="", encoding="utf-8") as source:
        rows = list(csv.DictReader(source))
    problems = []
    if [r.get("component_id") for r in rows] != list(commencements):
        return [f"{path}: components {[r.get('component_id') for r in rows]}"]
    for row in rows:
        try:
            window = float(row["window"])
            n_events = int(row["n_events"])
            lambda_hat = float(row["lambda_hat"])
        except (TypeError, ValueError) as exc:
            problems.append(f"{path}: {row['component_id']}: {exc}")
            continue
        if window != reps * (horizon - commencements[row["component_id"]]):
            problems.append(f"{path}: {row['component_id']}: window {window}")
        if lambda_hat != n_events / window:
            problems.append(
                f"{path}: {row['component_id']}: lambda_hat {lambda_hat!r} != "
                f"n_events / window = {n_events / window!r}"
            )
        if row["source"] != "observed" or (row["xi_hat"] == "") != (n_events == 0):
            problems.append(f"{path}: {row['component_id']}: bad source or xi_hat")
    return problems


def check_report_csv(path: Path, required: tuple[str, ...] = ()) -> list[str]:
    """A tolerance report exists, parses, and names every `required` row."""
    if not Path(path).is_file():
        return [f"{path}: missing"]
    with open(path, newline="", encoding="utf-8") as source:
        rows = list(csv.DictReader(source))
    if not rows:
        return [f"{path}: no rows"]
    names = {r.get("name") for r in rows}
    return [f"{path}: no {name!r} row" for name in required if name not in names]


def check_narrative_verdicts(stdout: str, labels: dict[str, str]) -> list[str]:
    """Each file's printed verdict and violation codes match its label."""
    verdicts: dict[str, set[str]] = {}
    current = None
    for line in stdout.splitlines():
        match = _VERDICT.match(line)
        if match:
            current = match.group(1)
            verdicts[current] = {"ok"} if match.group(2).startswith("ok") else set()
            continue
        code = _CODE.match(line)
        if code and current is not None:
            verdicts[current].add(code.group(1))
    problems = []
    for name, label in labels.items():
        got = verdicts.get(name)
        if got != {label}:
            problems.append(f"{name}: verdict {sorted(got) if got else None}, label {label!r}")
    extra = set(verdicts) - set(labels)
    if extra:
        problems.append(f"verdicts for unlabelled files: {sorted(extra)[:3]}")
    return problems


def check_run_process(stdout: str, ledger: Path, rounds: int) -> list[str]:
    """The PKRE printed for each round equals the ledger's, bit for bit."""
    if not Path(ledger).is_file():
        return [f"{ledger}: missing"]
    printed = _ROUND_LINE.findall(stdout)
    with open(ledger, encoding="utf-8") as source:
        records = [json.loads(line) for line in source if line.strip()]
    if len(printed) != rounds or len(records) != rounds:
        return [f"{len(printed)} printed rounds, {len(records)} ledger records, expected {rounds}"]
    problems = []
    for (number, risk, pkre), record in zip(printed, records):
        # repr round-trips floats, so equal reprs mean equal bits
        if (int(number), risk, pkre) != (
            record["round"], record["risk_id"], repr(float(record["pkre"]["total"]))
        ):
            ledger_pkre = record["pkre"]["total"]
            problems.append(f"round {number}: printed PKRE {pkre}, ledger {ledger_pkre!r}")
            break
    return problems


def check_same_bytes(path: Path, reference: Path) -> list[str]:
    """The replayed ledger equals the persisted one bit for bit."""
    for p in (path, reference):
        if not Path(p).is_file():
            return [f"{p}: missing"]
    if Path(path).read_bytes() != Path(reference).read_bytes():
        return [f"{path} differs from {reference}"]
    return []
