"""Timing wrappers installed from outside the darkspec package.

`Tracer.install()` replaces the module attributes through which the CLI
reaches each layer (for example `darkspec.cli.sample_path` and
`darkspec.engine.compute_pkre`) with wrappers that count calls and items
and accumulate busy and self time; `uninstall()` puts the originals back.
Hot per-path calls are only aggregated. Command stages and the rarer calls
also record a span (name, start, end, parent). Everything stays in memory
until the caller asks for `metrics()` and `spans`.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

MODULES = ("cli", "config", "engine", "estimation", "narrative", "oracles", "process", "severity")
SEVERITY_CLASSES = ("Exponential", "LogNormal", "Pareto", "Degenerate", "Mixture")
COMMANDS = ("simulate", "estimate", "gap-study", "narrative-check", "run-process", "stopping")

# Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("severity.sample.draws", "count"),
    ("severity.sample.busy_s", "s"),
    ("process.write_paths_csv.rows", "count"),
    ("process.write_paths_csv.bytes", "bytes"),
    ("process.write_paths_csv.busy_s", "s"),
    ("process.sample_path.calls", "count"),
    ("process.sample_path.self_s", "s"),
    ("process.derive_seed.calls", "count"),
    ("process.derive_seed.busy_s", "s"),
    ("estimation.estimate_from_observation.events", "count"),
    ("estimation.estimate_from_observation.busy_s", "s"),
    ("estimation.compute_pkre.calls", "count"),
    ("estimation.compute_pkre.estimates", "count"),
    ("estimation.compute_pkre.busy_s", "s"),
    ("estimation.read_estimates_csv.rows", "count"),
    ("estimation.read_estimates_csv.busy_s", "s"),
    ("oracles.variance_gap_mc.jumps", "count"),
    ("oracles.variance_gap_mc.busy_s", "s"),
    ("oracles.bias_thinning_mc.reps", "count"),
    ("oracles.bias_thinning_mc.busy_s", "s"),
    ("narrative.parse_narrative.bytes", "bytes"),
    ("narrative.parse_narrative.busy_s", "s"),
    ("narrative.parse_narrative.errors", "count"),
    ("narrative.validate.calls", "count"),
    ("narrative.validate.happenings", "count"),
    ("narrative.validate.busy_s", "s"),
    ("engine.run_round.calls", "count"),
    ("engine.run_round.self_s", "s"),
    ("engine.run_round.p50_us", "us"),
    ("engine.run_round.p99_us", "us"),
    ("engine.run_round.late_early_ratio", "ratio"),
    ("engine.write_ledger.bytes", "bytes"),
    ("engine.write_ledger.busy_s", "s"),
    ("engine.read_ledger.records", "count"),
    ("engine.read_ledger.busy_s", "s"),
    ("engine.replay_ledger.rounds", "count"),
    ("engine.replay_ledger.busy_s", "s"),
    ("engine.optimal_stopping_brute.busy_s", "s"),
    ("config.resolve_config.busy_s", "s"),
    ("config.parse_components.busy_s", "s"),
    ("config.scripted_rounds.busy_s", "s"),
    *(
        (f"cli.{command.replace('-', '_')}.{kind}", "s")
        for command in COMMANDS
        for kind in ("busy_s", "self_s")
    ),
    ("cli.check_fail_rows", "count"),
    ("trace.overhead_ratio", "ratio"),
)


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "errors")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.errors = 0


def _darkspec(name: str):
    return importlib.import_module(f"darkspec.{name}")


def attribute_snapshot() -> dict:
    """Identity of every attribute the tracer may replace, and of all others
    in the same namespaces, so a restore can be checked exactly."""
    snapshot = {}
    for name in MODULES:
        for key, value in vars(_darkspec(name)).items():
            snapshot[(name, key)] = value
    severity = _darkspec("severity")
    for cls in SEVERITY_CLASSES:
        for key, value in vars(getattr(severity, cls)).items():
            snapshot[(cls, key)] = value
    for key, value in _darkspec("cli")._COMMANDS.items():
        snapshot[("_COMMANDS", key)] = value
    return snapshot


def same_snapshot(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[dict] = []
        self.round_latencies: list[float] = []
        self._stack: list[list] = []  # frames: [child seconds, span id, name]
        self._patches: list[tuple[object, str, object]] = []
        self._origin = perf_counter()

    # -- spans ---------------------------------------------------------------

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    @contextmanager
    def span(self, name: str):
        """A stage span around code that is not itself a wrapped call."""
        frame = [0.0, len(self.spans), name]
        record = {"id": frame[1], "name": name, "parent": self._parent_span()}
        self.spans.append(record)
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += end - start
            record["start"] = start - self._origin
            record["end"] = end - self._origin

    # -- wrappers ------------------------------------------------------------

    def wrap(self, owner, key, name, *, span=False, before=None, after=None):
        """Replace `owner`'s `key` (module or class attribute, or dict item)
        with a timing wrapper. `before(args, kwargs)` and
        `after(args, kwargs, result, seconds)` return counter increments."""
        is_dict = isinstance(owner, dict)
        original = owner[key] if is_dict else vars(owner)[key]
        stat = self.stats[name]
        stack = self._stack
        counters = self.counters

        def wrapper(*args, **kwargs):
            if before is not None:
                for counter, value in before(args, kwargs).items():
                    counters[counter] += value
            frame = [0.0, None, name]
            record = None
            if span:
                frame[1] = len(self.spans)
                record = {"id": frame[1], "name": name, "parent": self._parent_span()}
                self.spans.append(record)
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.busy += elapsed
                stat.self_time += elapsed - frame[0]
                if record is not None:
                    record["start"] = start - self._origin
                    record["end"] = start + elapsed - self._origin
            if after is not None:
                for counter, value in after(args, kwargs, result, elapsed).items():
                    counters[counter] += value
            return result

        wrapper.__wrapped__ = original
        if is_dict:
            owner[key] = wrapper
        else:
            setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def install(self) -> None:
        """Wrap the public functions the CLI calls in each layer."""
        cli = _darkspec("cli")
        engine = _darkspec("engine")
        oracles = _darkspec("oracles")
        severity = _darkspec("severity")
        stack = self._stack

        def draws(args, kwargs):
            # a Mixture's inner draws are already counted by the Mixture call
            nested = stack and stack[-1][2] == "severity.sample"
            return {} if nested else {"severity.sample.draws": args[2]}

        for cls in SEVERITY_CLASSES:
            self.wrap(getattr(severity, cls), "sample", "severity.sample", before=draws)
        self.wrap(cli, "derive_seed", "process.derive_seed")
        self.wrap(cli, "sample_path", "process.sample_path")
        self.wrap(
            cli, "write_paths_csv", "process.write_paths_csv", span=True,
            before=lambda a, k: {
                "process.write_paths_csv.rows": sum(p.jump_count + 1 for p in a[0]),
                "process.write_paths_csv.bytes": -a[1].tell(),
            },
            after=lambda a, k, r, s: {"process.write_paths_csv.bytes": a[1].tell()},
        )
        self.wrap(
            cli, "estimate_from_observation", "estimation.estimate_from_observation",
            span=True,
            before=lambda a, k: {"estimation.estimate_from_observation.events": len(a[1])},
        )
        self.wrap(
            engine, "compute_pkre", "estimation.compute_pkre",
            before=lambda a, k: {"estimation.compute_pkre.estimates": len(a[0]) + len(a[1])},
        )
        self.wrap(
            cli, "read_estimates_csv", "estimation.read_estimates_csv", span=True,
            after=lambda a, k, r, s: {"estimation.read_estimates_csv.rows": len(r)},
        )
        # variance_gap_mc's jumps are exactly the severity draws made inside it
        jumps = lambda sign: lambda *_: {
            "oracles.variance_gap_mc.jumps": sign * self.counters["severity.sample.draws"]
        }
        self.wrap(
            oracles, "variance_gap_mc", "oracles.variance_gap_mc", span=True,
            before=jumps(-1), after=jumps(1),
        )
        self.wrap(
            oracles, "bias_thinning_mc", "oracles.bias_thinning_mc", span=True,
            before=lambda a, k: {"oracles.bias_thinning_mc.reps": a[2]},
        )
        self.wrap(
            cli, "parse_narrative", "narrative.parse_narrative",
            before=lambda a, k: {"narrative.parse_narrative.bytes": len(a[0].encode("utf-8"))},
        )
        happenings = lambda a, k: {"narrative.validate.happenings": a[0].happening_count}
        self.wrap(cli, "validate", "narrative.validate", before=happenings)
        self.wrap(engine, "validate", "narrative.validate", before=happenings)
        self.wrap(
            cli, "run_round", "engine.run_round",
            after=lambda a, k, r, s: self.round_latencies.append(s) or {},
        )
        self.wrap(
            cli, "write_ledger", "engine.write_ledger", span=True,
            after=lambda a, k, r, s: {"engine.write_ledger.bytes": Path(a[1]).stat().st_size},
        )
        self.wrap(
            engine, "read_ledger", "engine.read_ledger", span=True,
            after=lambda a, k, r, s: {"engine.read_ledger.records": len(r.records)},
        )
        self.wrap(
            engine, "replay_ledger", "engine.replay_ledger", span=True,
            before=lambda a, k: {"engine.replay_ledger.rounds": len(a[0].records)},
        )
        self.wrap(cli, "optimal_stopping_brute", "engine.optimal_stopping_brute", span=True)
        for name in ("resolve_config", "parse_components", "scripted_rounds"):
            self.wrap(cli, name, f"config.{name}", span=True)
        for command in COMMANDS:
            self.wrap(cli._COMMANDS, command, f"cli.{command.replace('-', '_')}", span=True)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results -------------------------------------------------------------

    def metrics(self, extra: dict[str, float]) -> dict[str, float]:
        """Every PER_LAYER metric; `extra` supplies those measured outside."""
        latencies = self.round_latencies
        tenth = max(1, len(latencies) // 10)
        derived = {
            "engine.run_round.p50_us": _quantile(latencies, 0.50) * 1e6,
            "engine.run_round.p99_us": _quantile(latencies, 0.99) * 1e6,
            "engine.run_round.late_early_ratio": (
                statistics.fmean(latencies[-tenth:]) / statistics.fmean(latencies[:tenth])
                if latencies else 0.0
            ),
        }
        derived.update(extra)
        out = {}
        for metric, _unit in PER_LAYER:
            if metric in derived:
                out[metric] = derived[metric]
                continue
            layer, _, field = metric.rpartition(".")
            stat = self.stats.get(layer)
            if field == "calls":
                out[metric] = stat.calls if stat else 0
            elif field == "busy_s":
                out[metric] = stat.busy if stat else 0.0
            elif field == "self_s":
                out[metric] = stat.self_time if stat else 0.0
            elif field == "errors":
                out[metric] = stat.errors if stat else 0
            else:
                out[metric] = self.counters.get(metric, 0)
        return out


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]
