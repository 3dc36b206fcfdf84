"""Flat key=value experiment configuration.

One `key = value` pair per line, '#' comments. Command-line flags override
file values. Components are declared under `component.<id>.<field>`, engine
settings under `cost.*`, `quality.*`, `weights.*`, `redline.*`, and
`stopping.*`, scripted rounds under `round.<n>.<field>`. A key outside that
grammar is an error, so a misspelt key cannot fall back to a default.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .baseline import ConstantDetection
from .engine import (
    CostModel,
    EngineConfig,
    LossWeights,
    NarrativeQuality,
    PsiShape,
    RedLineConfig,
    RoundBenefits,
    UnderwritingResult,
)
from .errors import ConfigError, DomainError, ParameterError
from .process import LevyComponent
from .severity import (
    Degenerate,
    Exponential,
    LogNormal,
    Pareto,
    SeverityDistribution,
)

_EXPERIMENT_KINDS = (
    "simulate", "estimate", "gap-study", "narrative-check", "run-process", "stopping",
)

_TRUE = {"true", "yes", "1", "on"}
_FALSE = {"false", "no", "0", "off"}


def read_utf8(path: str | Path) -> str:
    """A text file's contents, without the byte-order mark some editors lead
    with; a byte that is not UTF-8 is a ConfigError naming the file and line."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the codec reports the offset in the bytes after the mark; the bad byte
        # stands on the last line of what precedes it, numbered as the parsers
        # number lines, by str.splitlines
        line_no = len((exc.object[:exc.start].decode("utf-8") + "?").splitlines())
        raise ConfigError(f"{path}:{line_no}: not UTF-8 ({exc.reason})") from exc


def load_config_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = read_utf8(path)
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{line_no}: empty key")
        if key in values:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        if not _known_key(key):
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        values[key] = value
    return values


def _as_float(values: Mapping[str, str], key: str, default: float | None = None) -> float:
    if key not in values:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        value = float(values[key])
    except ValueError:
        raise ConfigError(f"key {key!r} must be a number, got {values[key]!r}")
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r} must be a finite number, got {values[key]!r}")
    return value


def _as_int(values: Mapping[str, str], key: str, default: int | None = None) -> int:
    if key not in values:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(values[key])
    except ValueError:
        raise ConfigError(f"key {key!r} must be an integer, got {values[key]!r}")


@contextmanager
def naming_keys(*keys: str):
    """Re-raise a model's ParameterError or DomainError as a ConfigError
    that names the config keys the model was built from."""
    try:
        yield
    except (ParameterError, DomainError) as exc:
        names = ", ".join(repr(key) for key in keys)
        raise ConfigError(f"{'keys' if len(keys) > 1 else 'key'} {names}: {exc}") from exc


def _as_bool(values: Mapping[str, str], key: str, default: bool = False) -> bool:
    if key not in values:
        return default
    text = values[key].lower()
    if text in _TRUE:
        return True
    if text in _FALSE:
        return False
    raise ConfigError(f"key {key!r} must be a boolean, got {values[key]!r}")


@dataclass(frozen=True)
class ComponentSpec:
    """A component plus the counterfactual extras a gap study needs."""

    component: LevyComponent
    pi: float | None = None
    sigma_eps: float = 0.0


# severity family -> its constructor and the config fields of its arguments,
# each read from key <prefix>.severity_<field>
_SEVERITIES = {
    "exponential": (Exponential, ("rate",)),
    "lognormal": (LogNormal, ("mu", "sigma")),
    "pareto": (Pareto, ("scale", "shape")),
    "degenerate": (Degenerate, ("value",)),
}


# the config grammar: one table for every command, since one file may hold the
# keys of several; component.<id>.* and round.<n>.* fields follow the id
_TOP_KEYS = {"seed", "reps", "out", "tolerance", "horizon", "window", "observed_csv"}
_FIELDS = {
    "component": {
        "drift", "diffusion", "jump_rate", "commencement", "pi", "sigma_eps",
        "severity", "severity_mean",
        *(f"severity_{name}" for _, names in _SEVERITIES.values() for name in names),
    },
    "round": {"lambda_hat", "xi_hat", "severity_var", "window", "mitigation", "option",
              "sponsored"},
    "cost": {"variable", "c_write", "c_spec", "c_obs"},
    "weights": {"D1", "D2", "psi_shape", "phi"},
    "quality": {"sigma2_max", "sigma2_min", "eta"},
    "redline": {"nu_star"},
    "stopping": {"rho", "utilities", "R_max", "delta_initial", "delta_decay"},
}


def _known_key(key: str) -> bool:
    section, _, name = key.partition(".")
    if section in ("component", "round"):
        _, _, name = name.partition(".")
    return key in _TOP_KEYS or name in _FIELDS.get(section, ())


def _severity_from(
    values: Mapping[str, str], prefix: str, need_variance: bool
) -> SeverityDistribution:
    family = values.get(f"{prefix}.severity")
    if family is None:
        raise ConfigError(f"missing required key '{prefix}.severity'")
    family = family.lower()
    if family not in _SEVERITIES:
        raise ConfigError(f"key '{prefix}.severity': unknown severity family {family!r}")
    build, fields = _SEVERITIES[family]
    if family == "exponential" and f"{prefix}.severity_mean" in values:
        build, fields = Exponential.from_mean, ("mean",)
    keys = [f"{prefix}.severity_{name}" for name in fields]
    arguments = [_as_float(values, key) for key in keys]
    with naming_keys(*keys):
        severity = build(*arguments)
        if need_variance:
            severity.variance()  # raises where the second moment diverges
    return severity


def parse_components(
    values: Mapping[str, str], need_variance: bool = False
) -> list[ComponentSpec]:
    """Every declared component, each checked as its keys are read. With
    ``need_variance``, a severity whose variance diverges is rejected too, for
    the commands whose formulas use it."""
    ids = sorted(
        {
            key.split(".", 2)[1]
            for key in values
            if key.startswith("component.") and key.count(".") >= 2
        }
    )
    if not ids:
        raise ConfigError("no components declared (component.<id>.<field> keys)")
    specs = []
    for cid in ids:
        prefix = f"component.{cid}"
        drift = _as_float(values, f"{prefix}.drift", 0.0)
        diffusion = _as_float(values, f"{prefix}.diffusion", 0.0)
        jump_rate = _as_float(values, f"{prefix}.jump_rate")
        severity = _severity_from(values, prefix, need_variance)
        commencement = _as_float(values, f"{prefix}.commencement", 0.0)
        given = [
            f"{prefix}.{name}"
            for name in ("drift", "diffusion", "jump_rate", "commencement")
            if f"{prefix}.{name}" in values
        ]
        with naming_keys(*given):
            component = LevyComponent(
                cid, drift, diffusion, jump_rate, severity, commencement=commencement
            )
        pi = None
        if f"{prefix}.pi" in values:
            pi = _as_float(values, f"{prefix}.pi")
        sigma_eps = _as_float(values, f"{prefix}.sigma_eps", 0.0)
        if sigma_eps < 0.0:
            raise ConfigError(f"key '{prefix}.sigma_eps' must be >= 0, got {sigma_eps}")
        specs.append(ComponentSpec(component=component, pi=pi, sigma_eps=sigma_eps))
    return specs


def detection_profile(specs: list[ComponentSpec]) -> ConstantDetection:
    for spec in specs:
        cid = spec.component.component_id
        if spec.pi is None:
            raise ConfigError(f"component {cid!r} needs a 'pi' for a gap study")
        with naming_keys(f"component.{cid}.pi"):
            ConstantDetection((spec.pi,))  # checks this pi alone, so the error names its key
    return ConstantDetection(tuple(spec.pi for spec in specs))


def engine_config(values: Mapping[str, str]) -> EngineConfig:
    if _as_bool(values, "cost.variable", False):
        with naming_keys("cost.c_write", "cost.c_obs"):
            costs = CostModel.variable_cost(
                c_write=_as_float(values, "cost.c_write"),
                c_obs=_as_float(values, "cost.c_obs", 0.0),
            )
    else:
        with naming_keys("cost.c_write", "cost.c_spec", "cost.c_obs"):
            costs = CostModel.constant(
                c_write=_as_float(values, "cost.c_write"),
                c_spec=_as_float(values, "cost.c_spec"),
                c_obs=_as_float(values, "cost.c_obs", 0.0),
            )
    shape_text = values.get("weights.psi_shape", "quadratic").lower()
    try:
        shape = PsiShape(shape_text)
    except ValueError:
        raise ConfigError(f"key 'weights.psi_shape': unknown psi_shape {shape_text!r}")
    with naming_keys("weights.D1", "weights.D2"):
        weights = LossWeights(
            d1=_as_float(values, "weights.D1", 1.0),
            d2=_as_float(values, "weights.D2", 1.0),
            psi_shape=shape,
            phi=_as_float(values, "weights.phi", 1.0),
        )
    quality = None
    if any(key.startswith("quality.") for key in values):
        with naming_keys("quality.sigma2_max", "quality.sigma2_min", "quality.eta"):
            quality = NarrativeQuality(
                sigma2_max=_as_float(values, "quality.sigma2_max"),
                sigma2_min=_as_float(values, "quality.sigma2_min"),
                eta=_as_float(values, "quality.eta"),
            )
    redline = None
    if "redline.nu_star" in values:
        with naming_keys("redline.nu_star"):
            redline = RedLineConfig(nu_star=_as_float(values, "redline.nu_star"))
    with naming_keys("cost.variable", "quality.sigma2_max", "quality.sigma2_min", "quality.eta"):
        return EngineConfig(costs=costs, weights=weights, quality=quality, redline=redline)


@dataclass(frozen=True)
class ScriptedRound:
    underwriting: UnderwritingResult
    benefits: RoundBenefits
    sponsored: bool


def _round_index(key: str) -> int:
    text = key.split(".", 2)[1]
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"key {key!r}: round index must be an integer, got {text!r}")


def _underwriting(values: Mapping[str, str], prefix: str) -> UnderwritingResult:
    """One round's underwriting values, checked against the bounds its risk
    estimate enforces, so that a bad round stops the run before round 1 and
    the message names its key."""
    underwriting = UnderwritingResult(
        lambda_hat=_as_float(values, f"{prefix}.lambda_hat"),
        xi_hat=_as_float(values, f"{prefix}.xi_hat"),
        severity_variance=_as_float(values, f"{prefix}.severity_var", 0.0),
        window=_as_float(values, f"{prefix}.window", 1.0),
    )
    for key, value in (
        ("lambda_hat", underwriting.lambda_hat),
        ("xi_hat", underwriting.xi_hat),
        ("severity_var", underwriting.severity_variance),
    ):
        if value < 0.0:
            raise ConfigError(f"key '{prefix}.{key}' must be >= 0, got {value}")
    if not underwriting.window > 0.0:
        raise ConfigError(f"key '{prefix}.window' must be > 0, got {underwriting.window}")
    return underwriting


def scripted_rounds(values: Mapping[str, str]) -> list[ScriptedRound]:
    indices = sorted(
        {
            _round_index(key)
            for key in values
            if key.startswith("round.") and key.count(".") >= 2
        }
    )
    if not indices:
        raise ConfigError("no scripted rounds declared (round.<n>.<field> keys)")
    if indices != list(range(1, len(indices) + 1)):
        raise ConfigError(f"round indices must run 1..{len(indices)}, got {indices}")
    rounds = []
    for n in indices:
        prefix = f"round.{n}"
        rounds.append(
            ScriptedRound(
                underwriting=_underwriting(values, prefix),
                benefits=RoundBenefits(
                    mitigation=_as_float(values, f"{prefix}.mitigation", 0.0),
                    option=_as_float(values, f"{prefix}.option", 0.0),
                ),
                sponsored=_as_bool(values, f"{prefix}.sponsored", False),
            )
        )
    return rounds


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment settings after file and flag merging."""

    kind: str
    seed: int
    reps: int
    out: Path
    tolerance: float
    long_format: bool
    values: dict[str, str] = field(default_factory=dict)
    files: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in _EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # a relative tolerance past 1 would accept an oracle of either sign
        if not 0.0 < self.tolerance <= 1.0:
            raise ConfigError(f"tolerance must lie in (0, 1], got {self.tolerance}")
        referenced = list(self.files)
        if self.values.get("observed_csv"):
            referenced.append(self.values["observed_csv"])
        for name in referenced:
            if not Path(name).exists():
                raise ConfigError(f"referenced file not found: {name}")


def resolve_config(
    kind: str,
    config_path: str | None,
    files: tuple[str, ...],
    seed: int | None,
    reps: int | None,
    out: str | None,
    tolerance: float | None,
    long_format: bool,
) -> ExperimentConfig:
    values = load_config_file(config_path) if config_path else {}
    if values.get("observed_csv"):
        # a relative feed path is relative to the config file, not to the caller
        values["observed_csv"] = str(Path(config_path).parent / values["observed_csv"])
    return ExperimentConfig(
        kind=kind,
        seed=seed if seed is not None else _as_int(values, "seed", 0),
        reps=reps if reps is not None else _as_int(values, "reps", 10_000),
        out=Path(out if out is not None else values.get("out", ".")),
        tolerance=(
            tolerance if tolerance is not None else _as_float(values, "tolerance", 0.05)
        ),
        long_format=long_format,
        values=dict(values),
        files=files,
    )
