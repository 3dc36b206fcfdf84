"""darkspec benchmark: seeded workloads through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a darkspec checkout; the program is imported from its
`src/`. The generator writes the workload's inputs under
`perfbench/.work/<workload>/`, then:

* `--trace 0` repeats the workload's command sequence, each command in its
  own subprocess, until about S seconds have passed, checks every output,
  and reports the end-to-end metrics as medians over the repetitions;
* `--trace 1` runs the sequence once untraced and once in-process with the
  per-layer wrappers of `tracer.py`, checks that both give the same output
  digests, and reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Earlier lines give provenance and every metric by name and unit.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import generate  # noqa: E402
import tracer as tracing  # noqa: E402

# one thread per process: the workloads measure single-threaded commands
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5
TIME_LIMIT_S = 150.0  # the whole run must end well inside 180 s
MIB = 1024 * 1024

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("primary.items_per_s", "1/s"),
    ("secondary.items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
)


@dataclass
class Step:
    """One command of a workload's sequence."""

    name: str
    argv: list[str]              # CLI arguments, or the replay script's
    items: int                   # what its throughput counts
    expected_exit: int | None    # None: a tolerance report (0, or 1 with FAIL rows)
    check: Callable[[Path, str], list[str]]
    stdout_is_output: bool = False  # stdout is deterministic and part of the digest
    script: bool = False            # argv runs perfbench/replay.py, not the CLI


@dataclass
class StepRun:
    status: int
    wall: float
    rss_mb: float
    stdout: str
    digest: str
    problems: list[str] = field(default_factory=list)


def plan(manifest: dict) -> tuple[list[Step], str, str, str]:
    """The command sequence, the command whose config the set-up probe
    resolves, and the steps behind the primary and secondary throughputs."""
    workload = manifest["workload"]
    cfg = manifest["config"]
    if workload == "paths-export":
        shape = (manifest["reps"], manifest["horizon"], manifest["commencements"])
        steps = [Step(
            "simulate", ["simulate", "--config", cfg, "--out", "out/simulate"],
            items=manifest["reps"] * len(manifest["commencements"]),
            expected_exit=None,
            check=lambda out, _: checks.check_paths_csv(out / "paths.csv", *shape)
            + checks.check_report_csv(out / "moment_report.csv"),
        )]
        return steps, "simulate", "simulate", "simulate"
    if workload == "pool-estimate":
        shape = (manifest["reps"], manifest["horizon"], manifest["commencements"])
        steps = [
            Step(
                "estimate", ["estimate", "--config", cfg, "--out", "out/estimate"],
                items=manifest["reps"] * len(manifest["commencements"]),
                expected_exit=None,
                check=lambda out, _: checks.check_estimates_csv(out / "estimates.csv", *shape)
                + checks.check_report_csv(out / "estimate_report.csv"),
            ),
            Step(
                "gap-study",
                ["gap-study", "--config", cfg, "--reps", str(manifest["gap_reps"]),
                 "--out", "out/gap-study"],
                items=manifest["gap_reps"],
                expected_exit=None,
                check=lambda out, _: checks.check_report_csv(out / "gap_summary.csv")
                + checks.check_report_csv(out / "gap_report.csv"),
            ),
        ]
        return steps, "estimate", "estimate", "gap-study"
    labels = manifest["labels"]
    rounds = manifest["rounds"]
    steps = [
        Step(
            "narrative-check", ["narrative-check", *manifest["corpus"]],
            items=len(manifest["corpus"]),
            expected_exit=1 if any(v != "ok" for v in labels.values()) else 0,
            check=lambda _, stdout: checks.check_narrative_verdicts(stdout, labels),
            stdout_is_output=True,
        ),
        Step(
            "run-process",
            ["run-process", "--config", cfg, "--out", "out/run-process", *manifest["run_files"]],
            items=rounds,
            expected_exit=0,
            check=lambda out, stdout: checks.check_run_process(
                stdout, out / "ledger.jsonl", rounds),
            stdout_is_output=True,
        ),
        Step(
            "stopping", ["stopping", "--config", cfg, "--out", "out/stopping"],
            items=1,
            expected_exit=0,
            check=lambda out, _: checks.check_report_csv(
                out / "stopping_report.csv", ("gate_vs_brute",)),
        ),
        Step(
            "replay", [cfg, "out/run-process/ledger.jsonl", "out/replay/replay.jsonl"],
            items=rounds,
            expected_exit=0,
            check=lambda out, _: checks.check_same_bytes(
                out / "replay.jsonl", out.parent / "run-process" / "ledger.jsonl"),
            script=True,
        ),
    ]
    return steps, "run-process", "run-process", "replay"


# ---------------------------------------------------------------------------
# running one step


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    env.pop("PYTHONSTARTUP", None)
    return env


def output_digest(out_dir: Path, stdout: str | None) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out_dir)).encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    if stdout is not None:
        digest.update(b"stdout\0" + stdout.encode())
    return digest.hexdigest()


def spawn(cmd: list[str], cwd: Path, log: Path) -> tuple[int, float, float, str]:
    """Run one child; returns exit status, wall seconds, peak RSS (MiB), stdout."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = log.with_suffix(".out").read_text(encoding="utf-8", errors="replace")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout


def finish_step(
    step: Step, work: Path, status: int, stdout: str, check: bool
) -> tuple[str, list[str]]:
    """Digest a step's outputs and list its problems."""
    out_dir = work / "out" / step.name
    problems = checks.check_exit(status, step.expected_exit, stdout)
    if check:
        try:
            problems += step.check(out_dir, stdout)
        except (ValueError, LookupError, TypeError, csv.Error) as exc:  # malformed output
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return output_digest(out_dir, stdout if step.stdout_is_output else None), problems


def run_step(step: Step, work: Path, check: bool) -> StepRun:
    out_dir = work / "out" / step.name
    out_dir.mkdir(parents=True, exist_ok=True)
    if step.script:
        cmd = [sys.executable, str(HERE / "replay.py"), *step.argv]
    else:
        cmd = [sys.executable, "-m", "darkspec", *step.argv]
    status, wall, rss, stdout = spawn(cmd, work, work / "logs" / step.name)
    digest, problems = finish_step(step, work, status, stdout, check)
    return StepRun(status, wall, rss, stdout, digest, problems)


def run_sequence(steps: list[Step], work: Path, check: bool) -> dict[str, StepRun]:
    shutil.rmtree(work / "out", ignore_errors=True)
    return {step.name: run_step(step, work, check) for step in steps}


def csv_rows(path: Path) -> int:
    with open(path, "rb") as source:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: source.read(1 << 20), b"")) - 1


def output_bytes(work: Path) -> int:
    return sum(p.stat().st_size for p in (work / "out").rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# bookkeeping shared by both modes


class Tally:
    """Attempted and failed operations, and the digests seen so far."""

    def __init__(self, key_prefix: str):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[str, str] = {}
        self.cache_path = WORK / "digests.json"
        try:
            self.cache = json.loads(self.cache_path.read_text())
        except (OSError, ValueError):
            self.cache = {}
        self.prefix = key_prefix

    def record(self, name: str, run: StepRun, label: str) -> None:
        """Count one operation; it fails on a bad exit status, a failed
        check, or a digest that differs from an earlier run of the same
        source tree on the same inputs."""
        self.attempted += 1
        problems = list(run.problems)
        expected = self.first.setdefault(name, run.digest)
        cached = self.cache.setdefault(f"{self.prefix}|{name}", run.digest)
        if run.digest != expected or run.digest != cached:
            problems.append("output digest differs from an earlier run with the same inputs")
        if problems:
            self.failed += 1
            self.problems += [f"{label} {name}: {p}" for p in problems]

    def save(self) -> None:
        self.cache_path.write_text(json.dumps(self.cache, indent=1, sort_keys=True) + "\n")


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


# ---------------------------------------------------------------------------
# untraced mode


def setup_times(command: str, config: str, work: Path) -> tuple[list[float], dict]:
    """Fresh-interpreter set-up: one warm-up probe, then SETUP_PROBES timed."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), command, config]
    times, info = [], {}
    for i in range(SETUP_PROBES + 1):
        status, wall, _, stdout = spawn(cmd, work, work / "logs" / "setup")
        if status != 0:
            raise SystemExit(f"error: set-up probe failed with status {status}")
        info = json.loads(stdout.strip().splitlines()[-1])
        if i:
            times.append(wall)
    if not Path(info["darkspec"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: darkspec imported from {info['darkspec']}, not {SRC}")
    return times, info


def untraced(steps, probe, primary, secondary, work, seconds, tally):
    setup, info = setup_times(*probe, work)
    reps: list[dict[str, StepRun]] = []
    out_bytes: list[int] = []
    rows: list[int] = []
    start = time.perf_counter()
    while True:
        runs = run_sequence(steps, work, check=not reps)
        for name, run in runs.items():
            tally.record(name, run, f"rep {len(reps) + 1}")
        reps.append(runs)
        out_bytes.append(output_bytes(work))
        paths_csv = work / "out" / "simulate" / "paths.csv"
        if paths_csv.is_file():
            rows.append(csv_rows(paths_csv))
        elapsed = time.perf_counter() - start
        rep_wall = sum(r.wall for r in runs.values())
        if elapsed + rep_wall / 2 >= seconds or elapsed + rep_wall >= TIME_LIMIT_S:
            break

    step_items = {s.name: s.items for s in steps}

    def rate(name: str, items: list[int] | None = None) -> float:
        counts = items or [step_items[name]] * len(reps)
        return median([n / rep[name].wall for n, rep in zip(counts, reps)])

    # paths-export has one command: its secondary throughput is CSV rows/s
    secondary_rate = rate(secondary, rows) if secondary == primary else rate(secondary)
    metrics = {
        "setup_s": median(setup),
        "wall_s": median([sum(r.wall for r in rep.values()) for rep in reps]),
        "primary.items_per_s": rate(primary),
        "secondary.items_per_s": secondary_rate,
        "peak_rss_mb": median([max(r.rss_mb for r in rep.values()) for rep in reps]),
        "output_mb": median(out_bytes) / MIB,
    }
    # the same numbers under the names of each command, for reading
    named = {
        "simulate.paths_per_s": "simulate",
        "estimate.paths_per_s": "estimate",
        "gap_study.reps_per_s": "gap-study",
        "narrative_check.narratives_per_s": "narrative-check",
        "run_process.rounds_per_s": "run-process",
        "replay.rounds_per_s": "replay",
    }
    by_command = {metric: rate(step) for metric, step in named.items() if step in step_items}
    if rows:
        by_command["simulate.rows_per_s"] = secondary_rate
    for name in step_items:
        by_command[f"{name}.wall_s"] = median([rep[name].wall for rep in reps])
    by_command["cli.check_fail_rows"] = median(
        [sum(checks.fail_rows(r.stdout) for r in rep.values()) for rep in reps])
    details = {
        "repetitions": len(reps),
        "setup_s_samples": setup,
        "wall_s_samples": [sum(r.wall for r in rep.values()) for rep in reps],
        "step_wall_s_samples": {name: [rep[name].wall for rep in reps] for name in step_items},
        "by_command": by_command,
    }
    return metrics, details, info


# ---------------------------------------------------------------------------
# traced mode


def run_in_process(step: Step, work: Path, replay_fn) -> tuple[int, float, str]:
    """Run one step in this interpreter; returns status, wall seconds, stdout."""
    import darkspec.cli

    out_dir = work / "out" / step.name
    out_dir.mkdir(parents=True, exist_ok=True)
    captured = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
            if step.script:
                replay_fn(*step.argv)
                status = 0
            else:
                status = darkspec.cli.main(step.argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a failed operation, not a crash of the run
        print(f"traced {step.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        status = -1
    finally:
        wall = time.perf_counter() - start
        os.chdir(cwd)
    return status, wall, captured.getvalue()


def traced(steps, work, tally):
    baseline = run_sequence(steps, work, check=True)
    for name, run in baseline.items():
        tally.record(name, run, "untraced")
    untraced_wall = sum(r.wall for r in baseline.values())

    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import darkspec
    import numpy
    import replay

    if not Path(darkspec.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: darkspec imported from {darkspec.__file__}, not {SRC}")
    before = tracing.attribute_snapshot()
    tracer = tracing.Tracer()
    shutil.rmtree(work / "out", ignore_errors=True)
    traced_wall = 0.0
    fail_rows = 0
    tracer.install()
    try:
        for step in steps:
            with tracer.span(f"stage.{step.name}"):
                status, wall, stdout = run_in_process(step, work, replay.replay)
            traced_wall += wall
            fail_rows += checks.fail_rows(stdout)
            digest, problems = finish_step(step, work, status, stdout, check=False)
            run = StepRun(status, wall, 0.0, stdout, digest, problems)
            tally.record(step.name, run, "traced")
    finally:
        tracer.uninstall()
    if not tracing.same_snapshot(before, tracing.attribute_snapshot()):
        tally.attempted += 1
        tally.failed += 1
        tally.problems.append("tracer left darkspec attributes changed")
    metrics = tracer.metrics({
        "cli.check_fail_rows": fail_rows,
        "trace.overhead_ratio": traced_wall / untraced_wall,
    })
    (work / "trace.json").write_text(json.dumps(
        {"spans": tracer.spans, "round_latencies_s": tracer.round_latencies}) + "\n")
    info = {"darkspec": darkspec.__file__, "numpy": numpy.__version__}
    details = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
               "spans": len(tracer.spans)}
    return metrics, details, info


# ---------------------------------------------------------------------------


class Terminated(BaseException):
    """SIGTERM: unwinds through spawn(), which stops its child, and past
    the traced run's handlers for the program's own exits."""


def _terminate(*_):
    raise Terminated


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=generate.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "darkspec" / "cli.py").is_file():
        print(f"error: no darkspec sources under {SRC}; run from a darkspec checkout",
              file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    manifest = generate.generate(args.workload, args.seed, work)
    (work / "logs").mkdir()
    steps, probe_command, primary, secondary = plan(manifest)
    src_hash = source_hash()
    tally = Tally(f"{src_hash}|{args.workload}|{args.seed}")

    if args.trace:
        metrics, details, info = traced(steps, work, tally)
        units = dict(tracing.PER_LAYER)
    else:
        metrics, details, info = untraced(
            steps, (probe_command, manifest["config"]), primary, secondary, work,
            args.seconds, tally)
        units = dict(END_TO_END)
    tally.save()

    provenance = {
        "git_commit": git_commit(),
        "source_sha256": src_hash,
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "program_seed": manifest["program_seed"],
        "inputs_sha256": hashlib.sha256(
            json.dumps(manifest["input_sha256"], sort_keys=True).encode()).hexdigest(),
    }
    error_rate = tally.failed / max(tally.attempted, 1)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, value in details.get("by_command", {}).items():
        print(f"  {name} = {value:.6g}")
    print(f"  error_rate = {error_rate:.6g} ({tally.failed}/{tally.attempted})")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    (work / "result.json").write_text(json.dumps({
        "provenance": provenance,
        "inputs_sha256": manifest["input_sha256"],
        "details": details,
        "metrics": metrics,
        "error_rate": error_rate,
        "problems": tally.problems,
    }, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(143)
