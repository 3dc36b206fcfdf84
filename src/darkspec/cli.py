"""Command-line front end.

Subcommands: simulate, estimate, gap-study, narrative-check, run-process,
stopping. Every command is deterministic given (config, seed); reports embed
the seed. Exit status: 0 all checks passed, 1 a tolerance check failed,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from typing import IO, Sequence

from . import oracles
from .baseline import bias_term, variance_gap_term
from .config import (
    ExperimentConfig,
    detection_profile,
    engine_config,
    naming_keys,
    parse_components,
    read_utf8,
    resolve_config,
    scripted_rounds,
    _as_float,
)
from .engine import (
    MAX_STOPPING_HORIZON,
    CostModel,
    RoundDeltas,
    RoundLedger,
    continuation,
    optimal_stopping_brute,
    run_round,
    write_ledger,
)
from .errors import ConfigError, DarkspecError, DomainError, NarrativeSyntaxError, require
from .estimation import (
    estimate_from_observation,
    read_estimates_csv,
    write_estimates_csv,
)
from .narrative import parse_narrative, validate
from .process import (
    block_seeds,
    csv_line,
    sample_blocks,
    simulate_block,
    theoretical_moments,
    write_paths_csv,
)
from .process import derive_seed, sample_path  # unused here; perfbench/tracer.py wraps these names


@dataclass(frozen=True)
class ReportRow:
    name: str
    formula_value: float
    oracle_value: float
    tolerance: float

    @property
    def abs_error(self) -> float:
        return abs(self.oracle_value - self.formula_value)

    @property
    def rel_error(self) -> float:
        scale = abs(self.formula_value)
        return self.abs_error / scale if scale > 0.0 else self.abs_error

    @property
    def passed(self) -> bool:
        # an infinite tolerance or formula would pass anything
        values = (self.formula_value, self.oracle_value, self.tolerance)
        return all(map(math.isfinite, values)) and self.abs_error <= self.tolerance


_REPORT_VALUES = ("formula_value", "oracle_value", "abs_error", "rel_error", "tolerance")


def write_report_csv(rows: Sequence[ReportRow], out: IO[str], long_format: bool) -> None:
    """One row per check (wide), or one ``name,field,value`` row per cell (long)."""
    columns = (*_REPORT_VALUES, "pass")
    out.write(csv_line(["name", "field", "value"] if long_format else ["name", *columns]))
    for row in rows:
        cells = [repr(getattr(row, c)) for c in _REPORT_VALUES]
        cells.append(str(row.passed).lower())
        if long_format:
            out.writelines(csv_line([row.name, c, cell]) for c, cell in zip(columns, cells))
        else:
            out.write(csv_line([row.name, *cells]))


def _write_report(
    rows: Sequence[ReportRow], cfg: ExperimentConfig, start: float, filename: str, title: str
) -> int:
    """Write the report CSV, print its summary, and return the exit code."""
    duration = time.perf_counter() - start
    cfg.out.mkdir(parents=True, exist_ok=True)
    with open(cfg.out / filename, "w", encoding="utf-8") as out:
        write_report_csv(rows, out, cfg.long_format)
    print(f"{title} (seed={cfg.seed}, duration={duration:.2f}s)")
    for row in rows:
        print(
            f"  [{'PASS' if row.passed else 'FAIL'}] {row.name}: "
            f"formula={row.formula_value:.6g} oracle={row.oracle_value:.6g} "
            f"abs_err={row.abs_error:.3g} tol={row.tolerance:.3g}"
        )
    all_pass = all(row.passed for row in rows)
    print("  overall:", "PASS" if all_pass else "FAIL")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# simulate


# the most jumps one component may be expected to draw. `estimate` pools
# every rep's jump sizes: about 240 MB at the 24 bytes a jump costs it
# (times, sizes, pooled sizes). `simulate`'s W workers, one a CPU and at most
# one a block, each hold one block, and its parent keeps at most 2W blocks
# submitted past the last one written, so for it the bound limits a
# component's jump rows in paths.csv: about 470 MB at about 47 bytes a row.
# gap-study applies it to one oracle block. It is also the most reps
# simulate, estimate and gap-study draw, since at jump_rate 0 no jump count
# bounds them: 80 MB a component of simulate's one array of terminal values,
# which its parent keeps
MAX_EXPECTED_JUMPS = 10**7


def _check_expected_jumps(component, elapsed: float, reps: int, window_key: str) -> None:
    """Reject, before any draw, ``reps`` windows of length ``elapsed`` whose
    expected jump count passes MAX_EXPECTED_JUMPS. With reps >= 1 the count
    also bounds each window's Poisson mean, which numpy cannot draw past 1e18."""
    expected = component.jump_rate * elapsed * reps
    if not expected <= MAX_EXPECTED_JUMPS:
        rate_key = f"component.{component.component_id}.jump_rate"
        raise ConfigError(
            f"keys {rate_key!r} and {window_key!r} expect {expected:.3g} jumps over "
            f"{reps} reps, more than the {MAX_EXPECTED_JUMPS:.0e} one component may draw"
        )


def _paths_inputs(cfg: ExperimentConfig):
    """The components and horizon that simulate and estimate draw paths for,
    each checked before any draw: the reps may not pass MAX_EXPECTED_JUMPS,
    simulate's moment formulas need the severity variance, and estimate
    divides by each window pooled over the reps, which must be neither empty
    nor past the largest float."""
    simulating = cfg.kind == "simulate"
    if cfg.reps > MAX_EXPECTED_JUMPS:
        raise ConfigError(
            f"key 'reps' must be at most {MAX_EXPECTED_JUMPS:.0e} under {cfg.kind}, "
            f"got {cfg.reps}"
        )
    specs = parse_components(cfg.values, need_variance=simulating)
    horizon = _as_float(cfg.values, "horizon")
    for spec in specs:
        component = spec.component
        elapsed = horizon - component.commencement
        if elapsed < 0.0 or (elapsed == 0.0 and not simulating):
            raise ConfigError(
                f"keys 'horizon' and 'component.{component.component_id}.commencement': "
                f"horizon {horizon} {'precedes' if elapsed < 0.0 else 'equals'} "
                f"commencement {component.commencement}"
            )
        if not simulating and not cfg.reps * elapsed < math.inf:
            raise ConfigError(
                f"keys 'horizon' and 'component.{component.component_id}.commencement': "
                f"the window pooled over the reps, {cfg.reps} x {elapsed}, is not finite"
            )
        _check_expected_jumps(component, elapsed, cfg.reps, "horizon")
    return specs, horizon


def _worker_count() -> int:
    """The CPUs this process may run on: simulate forks at most this many workers."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask outside Linux
        return os.cpu_count() or 1


# what simulate's workers draw from: its components, horizon and plan, set
# in each by _start_worker, so that fork hands them over and nothing of
# darkspec is pickled
_work = None


def _start_worker(components, horizon: float, plan) -> None:
    global _work
    _work = (components, horizon, plan)


def _draw_block(i: int):
    """The paths.csv bytes and the terminal values of block ``i`` of the
    plan, a (component index, seed, n, first path index)."""
    components, horizon, plan = _work
    index, seed, n, first = plan[i]
    block = simulate_block(components[index], horizon, seed, n)
    with io.TextIOWrapper(io.BytesIO(), encoding="utf-8") as text:
        write_paths_csv(block.paths(), text, first)
        text.flush()
        return text.buffer.getvalue(), block.terminal_values


def cmd_simulate(cfg: ExperimentConfig) -> int:
    import multiprocessing
    from collections import deque
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    import numpy as np
    start = time.perf_counter()
    specs, horizon = _paths_inputs(cfg)
    components = [spec.component for spec in specs]
    # the stream's blocks in paths.csv order: (component index, seed, n, first path index)
    plan = []
    first = 0
    for index, component in enumerate(components):
        for seed, n in block_seeds(component.component_id, cfg.seed, cfg.reps):
            plan.append((index, seed, n, first))
            first += n
    # the parent submits block indices in stream order to W forked workers,
    # at most 2W past the last block written, and each worker takes the next
    # whenever it is free, so a worker that runs slower (its CPU shared, say)
    # holds no other back. The parent writes each block in its turn, keeping
    # at most 2W - 1 that come early, and copies its terminal values into one
    # array for the moment rows. Each worker holds one block, and the bytes
    # do not depend on W or on which worker draws which block.
    workers = min(_worker_count(), len(plan))
    ahead = 2 * workers
    terminal_values = np.empty((len(components), cfg.reps))
    cfg.out.mkdir(parents=True, exist_ok=True)
    # a forked child flushes its copy of any buffered output when it exits
    sys.stdout.flush()
    sys.stderr.flush()
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(components, horizon, plan))
    try:
        with open(cfg.out / "paths.csv", "wb") as out:
            pending = deque(pool.submit(_draw_block, i) for i in range(min(ahead, len(plan))))
            for i, (_, _, n, first) in enumerate(plan):
                data, values = pending.popleft().result()
                out.write(data)
                terminal_values.flat[first:first + n] = values
                if i + ahead < len(plan):
                    pending.append(pool.submit(_draw_block, i + ahead))
    except BrokenProcessPool:
        raise DarkspecError("a simulate worker ended before its last block") from None
    finally:
        pool.shutdown(cancel_futures=True)  # after a fault, no block still waiting is drawn
    rows = []
    for component, terminals in zip(components, terminal_values):
        mean, variance = theoretical_moments(component, horizon)
        emp_mean = float(np.mean(terminals))
        se = (
            float(np.std(terminals, ddof=1) / math.sqrt(cfg.reps))
            if cfg.reps > 1
            else 0.0
        )
        rows.append(
            ReportRow(
                name=f"{component.component_id}.mean",
                formula_value=mean,
                oracle_value=emp_mean,
                tolerance=3.0 * se,
            )
        )
        if cfg.reps > 1:
            emp_var = float(np.var(terminals, ddof=1))
            rows.append(
                ReportRow(
                    name=f"{component.component_id}.variance",
                    formula_value=variance,
                    oracle_value=emp_var,
                    tolerance=cfg.tolerance * abs(variance),
                )
            )
    return _write_report(rows, cfg, start, "moment_report.csv", "simulate")


# ---------------------------------------------------------------------------
# estimate


def cmd_estimate(cfg: ExperimentConfig) -> int:
    import numpy as np
    start = time.perf_counter()
    specs, horizon = _paths_inputs(cfg)
    rows = []
    estimates = []
    for spec in specs:
        component = spec.component
        pooled = np.concatenate(
            [block.jump_sizes for block in sample_blocks(component, horizon, cfg.seed, cfg.reps)]
        )
        window = cfg.reps * (horizon - component.commencement)
        estimate = estimate_from_observation(component.component_id, pooled, window)
        estimates.append(estimate)
        rate_se = math.sqrt(component.jump_rate / window)
        rows.append(
            ReportRow(
                name=f"{component.component_id}.lambda_hat",
                formula_value=component.jump_rate,
                oracle_value=estimate.lambda_hat,
                tolerance=3.0 * rate_se,
            )
        )
        if estimate.xi_hat is not None and estimate.n_events > 1:
            mean_se = math.sqrt(estimate.severity_variance / estimate.n_events)
            rows.append(
                ReportRow(
                    name=f"{component.component_id}.xi_hat",
                    formula_value=component.severity.mean(),
                    oracle_value=estimate.xi_hat,
                    tolerance=3.0 * mean_se,
                )
            )
    cfg.out.mkdir(parents=True, exist_ok=True)
    with open(cfg.out / "estimates.csv", "w", encoding="utf-8") as out:
        write_estimates_csv(estimates, out)
    return _write_report(rows, cfg, start, "estimate_report.csv", "estimate")


# ---------------------------------------------------------------------------
# gap study


def cmd_gap_study(cfg: ExperimentConfig) -> int:
    start = time.perf_counter()
    # the variance oracle's sample variance needs two reps; the oracles' time
    # grows with them, so they share simulate's and estimate's bound
    if not 2 <= cfg.reps <= MAX_EXPECTED_JUMPS:
        raise ConfigError(
            f"key 'reps' must be from 2 to {MAX_EXPECTED_JUMPS:.0e} under gap-study, "
            f"got {cfg.reps}"
        )
    specs = parse_components(cfg.values, need_variance=True)  # the variance-gap formula
    pis = detection_profile(specs)  # validates pi before any simulation
    window = require("key 'window'", _as_float(cfg.values, "window", 1.0), "(0, inf)",
                     ConfigError)
    block = min(cfg.reps, oracles.ORACLE_BLOCK)  # the reps the oracles hold at once
    for spec in specs:
        _check_expected_jumps(spec.component, window, block, "window")
    rows = []
    lines = [csv_line(["component_id", "pi", "bias_formula", "bias_mc", "var_gap_formula",
                       "var_gap_mc", "abs_error", "rel_error"])]
    for offset, (spec, pi) in enumerate(zip(specs, pis)):
        # bias: component-level thinning against bias_term; the variance gap,
        # var(thinned) - var(noisy): event-level thinning against variance_gap_term
        component, s_eps = spec.component, spec.sigma_eps
        xi, s2, rate = component.severity.mean(), component.severity.variance(), component.jump_rate
        bias_formula = bias_term(pi, rate, xi)
        bias = oracles.bias_thinning_mc([rate * xi], [pi], cfg.reps, cfg.seed + 2 * offset)
        var_formula = variance_gap_term(pi, rate, xi, s2, s_eps, window)
        mc = oracles.variance_gap_mc([rate], [component.severity], [pi], window, cfg.reps,
                                     cfg.seed + 2 * offset + 1, [s_eps])
        var_mc = mc.nospec_variance - mc.noisy_variance
        abs_err, scale = abs(var_mc - var_formula), abs(var_formula)
        numbers = (pi, bias_formula, bias.value, var_formula, var_mc, abs_err,
                   abs_err / scale if scale > 0.0 else 0.0)
        lines.append(csv_line([component.component_id, *map(repr, numbers)]))
        for name, formula, oracle in (("bias", bias_formula, bias.value),
                                      ("var_gap", var_formula, var_mc)):
            rows.append(ReportRow(f"{component.component_id}.{name}", formula, oracle,
                                  max(cfg.tolerance * abs(formula), 1e-9)))
    cfg.out.mkdir(parents=True, exist_ok=True)
    with open(cfg.out / "gap_report.csv", "w", encoding="utf-8") as out:
        out.writelines(lines)  # the id as it is, then every number as its round-trip repr
    return _write_report(rows, cfg, start, "gap_summary.csv", "gap-study")


# ---------------------------------------------------------------------------
# narrative check


def _load_narrative(name: str):
    """Read, parse and validate one narrative file; a file that is not UTF-8
    or does not parse is a ConfigError that names it."""
    try:
        narrative = parse_narrative(read_utf8(name))
    except ConfigError as exc:  # a bad byte, named by file and line
        raise ConfigError(f"narrative file {exc}") from exc
    except NarrativeSyntaxError as exc:
        raise ConfigError(f"narrative file {name} does not parse: {exc}") from exc
    return narrative, validate(narrative)


def cmd_narrative_check(cfg: ExperimentConfig) -> int:
    any_violations = False
    for name in cfg.files:
        narrative, report = _load_narrative(name)
        if report.ok:
            print(
                f"{name}: ok (risk={narrative.risk_id}, "
                f"happenings={narrative.happening_count})"
            )
        else:
            any_violations = True
            print(f"{name}: {len(report.violations)} violation(s)")
            for violation in report.violations:
                print(f"  [{violation.code}] {violation.message}")
    return 1 if any_violations else 0


# ---------------------------------------------------------------------------
# run process


def cmd_run_process(cfg: ExperimentConfig) -> int:
    narratives = []
    for name in cfg.files:
        narrative, report = _load_narrative(name)
        if not report.ok:
            # abort before round 1, listing every violation
            lines = "; ".join(f"[{v.code}] {v.message}" for v in report.violations)
            raise ConfigError(f"narrative {name} failed validation: {lines}")
        narratives.append(narrative)
    engine = engine_config(cfg.values)
    rounds = scripted_rounds(cfg.values)
    observed = ()  # one tuple for every round, so the ledger writes the feed once
    if "observed_csv" in cfg.values:
        name = cfg.values["observed_csv"]
        try:
            # newline=None reads "\r" and "\r\n" line ends as a text-mode open() does
            source = io.StringIO(read_utf8(name), newline=None)
            observed = tuple(read_estimates_csv(source))
        except ConfigError as exc:  # a bad byte, named by file and line
            raise ConfigError(f"observed_csv {exc}") from exc
        except (OSError, DomainError) as exc:
            raise ConfigError(f"observed_csv {name}: {exc}") from exc
    ledger = RoundLedger()
    for index, script in enumerate(rounds):
        # a narrative file is one risk: a round that reuses the file
        # re-speculates that risk under the ledger's next round number
        narrative = replace(narratives[index % len(narratives)], round=ledger.next_round)
        ledger = run_round(
            ledger,
            narrative,
            lambda _n, u=script.underwriting: u,
            observed,
            engine,
            script.benefits,
            sponsored=script.sponsored,
        )
        record = ledger.records[-1]
        red = "-" if record.red_line is None else ("RED-LINE" if record.red_line else "ok")
        print(
            f"round {record.round}: risk={record.risk_id} PKRE={record.pkre.total!r} "
            f"decision={record.decision} red_line={red}"
        )
    cfg.out.mkdir(parents=True, exist_ok=True)
    write_ledger(ledger, cfg.out / "ledger.jsonl")
    print(f"ledger: {cfg.out / 'ledger.jsonl'} ({len(ledger.records)} rounds)")
    return 0


# ---------------------------------------------------------------------------
# stopping


def cmd_stopping(cfg: ExperimentConfig) -> int:
    start = time.perf_counter()
    rho = _as_float(cfg.values, "stopping.rho", 1.0)
    if "stopping.utilities" in cfg.values:
        for key in ("stopping.R_max", "stopping.delta_initial", "stopping.delta_decay"):
            if key in cfg.values:
                raise ConfigError(f"keys 'stopping.utilities' and {key!r} cannot both be set")
        text = cfg.values["stopping.utilities"]
        try:
            utilities = [float(u) for u in text.split(",")]
        except ValueError:
            raise ConfigError(f"key 'stopping.utilities' must be numbers, got {text!r}")
        keys = ("stopping.rho", "stopping.utilities")
        costs = None
    else:
        r_max = _as_float(cfg.values, "stopping.R_max", 20.0)
        if not (r_max.is_integer() and 1 <= r_max <= MAX_STOPPING_HORIZON):
            raise ConfigError(
                f"key 'stopping.R_max' must be an integer from 1 to "
                f"{MAX_STOPPING_HORIZON}, got {cfg.values['stopping.R_max']!r}"
            )
        horizon = int(r_max)
        initial = _as_float(cfg.values, "stopping.delta_initial")
        decay = _as_float(cfg.values, "stopping.delta_decay")
        with naming_keys("cost.c_write", "cost.c_spec"):
            costs = CostModel.constant(
                c_write=_as_float(cfg.values, "cost.c_write"),
                c_spec=_as_float(cfg.values, "cost.c_spec"),
            )
        try:
            deltas = [initial * decay**r for r in range(1, horizon + 1)]
        except OverflowError:
            deltas = [math.inf]
        if not all(map(math.isfinite, deltas)):
            raise ConfigError(
                "keys 'stopping.delta_initial' and 'stopping.delta_decay' give a "
                f"round delta that overflows over {horizon} rounds"
            )
        utilities = [d - (costs.c_write + costs.c_spec) for d in deltas]
        if not all(map(math.isfinite, utilities)):
            raise ConfigError(
                "keys 'cost.c_write' and 'cost.c_spec' give a non-finite round utility"
            )
        keys = ("stopping.rho", "stopping.delta_initial", "stopping.delta_decay")
    with naming_keys(*keys):
        tau_star, values = optimal_stopping_brute(utilities, rho)
    cfg.out.mkdir(parents=True, exist_ok=True)
    with open(cfg.out / "stopping.csv", "w", encoding="utf-8") as out:
        out.write(csv_line(["round", "utility", "value_if_stop_here"]))
        for r, u in enumerate(utilities, start=1):
            out.write(csv_line([r, repr(u), repr(values[r])]))
    print(f"tau_star = {tau_star} (horizon {len(utilities)}, rho={rho})")
    rows = []
    if costs is not None and rho == 1.0:
        completed = 0
        for r, delta in enumerate(deltas, start=1):
            # constant costs do not read the happening count
            if not continuation(costs, 1, r, RoundDeltas(delta, 0.0, 0.0)):
                break
            completed = r
        rows.append(
            ReportRow(
                name="gate_vs_brute",
                formula_value=float(tau_star),
                oracle_value=float(completed),
                tolerance=0.0,
            )
        )
    return _write_report(rows, cfg, start, "stopping_report.csv", "stopping")


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "gap-study": cmd_gap_study,
    "narrative-check": cmd_narrative_check,
    "run-process": cmd_run_process,
    "stopping": cmd_stopping,
}


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="flat key=value config file")
    shared.add_argument("--seed", type=int, help="root random seed")
    shared.add_argument("--reps", type=int, help="replication count")
    shared.add_argument("--out", help="output directory")
    shared.add_argument("--tolerance", type=float, help="relative tolerance for checks")
    shared.add_argument(
        "--long", action="store_true", help="emit plot-ready long-format report CSV"
    )
    parser = argparse.ArgumentParser(
        prog="darkspec",
        description="Catastrophic-risk simulation, estimation, and speculation rounds",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub = subparsers.add_parser(name, parents=[shared])
        if name in ("narrative-check", "run-process"):
            sub.add_argument("files", nargs="+", help="narrative files")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(
            kind=args.command,
            config_path=args.config,
            files=tuple(getattr(args, "files", ())),
            seed=args.seed,
            reps=args.reps,
            out=args.out,
            tolerance=args.tolerance,
            long_format=args.long,
        )
        return _COMMANDS[args.command](cfg)
    except Exception as exc:
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return 2


def _error_text(exc: BaseException) -> str:
    """What follows "error: " on main's one stderr line for ``exc``: an
    unforeseen fault is still one line and exit 2, never a traceback, and
    names the exception's type."""
    if isinstance(exc, (DarkspecError, OSError)):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


if __name__ == "__main__":
    raise SystemExit(main())
