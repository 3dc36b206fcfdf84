"""The speculation round loop and its continuation economics.

Each round: validate a narrative, reclassify its risk out of the SDS set,
collect underwriting estimates, fold in the observed feed, recompute the
PKRE, debit costs, and record a continue/stop decision. Stopping is a
reversible per-round gate; the exhaustive stopping search exists to verify
the gate against the discounted-value optimum, not to drive the runtime.

The ledger is a single-owner sequential state machine: records are strictly
ordered, appended functionally (run_round returns a new ledger), and persist
as replayable newline-delimited JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .errors import DomainError, NarrativeInvalidError, ParameterError, RoundAbortedError
from .estimation import EstimateSource, RiskEstimate, compute_pkre
from .narrative import Narrative, validate

LEDGER_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# cost and value models


@dataclass(frozen=True)
class CostModel:
    """Round costs: narrative writing, speculation, optional sponsored
    observation. Speculation cost is either a constant or ln(1 + H_r)."""

    c_write: float
    c_spec: float | None = None
    c_obs: float = 0.0
    variable: bool = False

    def __post_init__(self):
        if not self.c_write > 0.0 or not math.isfinite(self.c_write):
            raise ParameterError(f"c_write must be > 0, got {self.c_write}")
        if self.c_obs < 0.0 or not math.isfinite(self.c_obs):
            raise ParameterError(f"c_obs must be >= 0, got {self.c_obs}")
        if self.variable:
            if self.c_spec is not None:
                raise ParameterError("variable cost mode does not take c_spec")
        else:
            if self.c_spec is None or not self.c_spec > 0.0 or not math.isfinite(self.c_spec):
                raise ParameterError(
                    f"constant cost mode needs a finite c_spec > 0, got {self.c_spec}"
                )

    @classmethod
    def constant(cls, c_write: float, c_spec: float, c_obs: float = 0.0) -> "CostModel":
        return cls(c_write=c_write, c_spec=c_spec, c_obs=c_obs, variable=False)

    @classmethod
    def variable_cost(cls, c_write: float, c_obs: float = 0.0) -> "CostModel":
        return cls(c_write=c_write, c_spec=None, c_obs=c_obs, variable=True)

    def speculation_cost(self, happening_count: int) -> float:
        if self.variable:
            if happening_count < 1:
                raise DomainError(f"happening count must be >= 1, got {happening_count}")
            return math.log1p(happening_count)
        return float(self.c_spec)


class PsiShape(Enum):
    QUADRATIC = "quadratic"
    ABSOLUTE = "absolute"


@dataclass(frozen=True)
class LossWeights:
    """Per-moment penalties and the gap-shaping function."""

    d1: float = 1.0
    d2: float = 1.0
    psi_shape: PsiShape = PsiShape.QUADRATIC
    phi: float = 1.0

    def __post_init__(self):
        if not self.d1 > 0.0 or not self.d2 > 0.0:
            raise ParameterError("moment penalties d1 and d2 must be > 0")

    def psi(self, gap: float) -> float:
        scaled = self.phi * gap
        if self.psi_shape is PsiShape.QUADRATIC:
            return scaled * scaled
        return abs(scaled)


def statistical_loss(
    weights: LossWeights, gaps: Sequence[tuple[float, float]]
) -> float:
    """Two-moment loss from not speculating.

    ``gaps`` holds one (first-moment gap, second-moment gap) pair per
    component; the shaping function applies per component and the results
    add (additive separability across components).
    """
    return math.fsum(
        weights.d1 * weights.psi(g1) + weights.d2 * weights.psi(g2) for g1, g2 in gaps
    )


@dataclass(frozen=True)
class NarrativeQuality:
    """How narrative thickness buys down underwriting noise.

    noise_variance(H) = sigma2_max - exp(eta * (H - 1)) * sigma2_min,
    clamped into [0, sigma2_max - sigma2_min]: the raw expression goes
    negative for rich narratives, and a variance cannot.
    """

    sigma2_max: float
    sigma2_min: float
    eta: float

    def __post_init__(self):
        if not 0.0 < self.sigma2_min < self.sigma2_max:
            raise ParameterError(
                f"need sigma2_max > sigma2_min > 0, got {self.sigma2_max}, {self.sigma2_min}"
            )
        if not self.eta > 0.0:
            raise ParameterError(f"eta must be > 0, got {self.eta}")

    def noise_variance(self, happening_count: int) -> float:
        if happening_count < 1:
            raise DomainError(f"happening count must be >= 1, got {happening_count}")
        raw = self.sigma2_max - math.exp(self.eta * (happening_count - 1)) * self.sigma2_min
        return min(max(raw, 0.0), self.sigma2_max - self.sigma2_min)


# ---------------------------------------------------------------------------
# continuation gates


@dataclass(frozen=True)
class RoundDeltas:
    """Per-round movements of the gate's benefit terms."""

    statistical: float
    mitigation: float
    option: float

    @property
    def total(self) -> float:
        return self.statistical + self.mitigation + self.option


@dataclass(frozen=True)
class GateDecision:
    continue_: bool
    lhs: float
    rhs: float

    @property
    def decision(self) -> str:
        return "continue" if self.continue_ else "stop"


def continuation_constant(costs: CostModel, deltas: RoundDeltas) -> GateDecision:
    """Constant-cost gate: speculate iff c_write + c_spec <= summed deltas.

    A stop is reversible; a later round may satisfy the inequality again.
    """
    if costs.variable:
        raise DomainError("constant gate needs a constant-cost model")
    lhs = costs.c_write + float(costs.c_spec)
    rhs = deltas.total
    return GateDecision(continue_=lhs <= rhs, lhs=lhs, rhs=rhs)


def continuation_variable(
    costs: CostModel,
    happening_count: int,
    round_index: int,
    deltas: RoundDeltas,
) -> GateDecision:
    """Variable-cost gate with a concave per-round crowding term.

    speculate iff c_write + ln(1 + H) + (ln(R + 2) - ln(R + 1)) <= summed
    deltas, where the caller's second-moment delta was built at this
    narrative's noise variance.
    """
    if not costs.variable:
        raise DomainError("variable gate needs a variable-cost model")
    if happening_count < 1:
        raise DomainError(f"happening count must be >= 1, got {happening_count}")
    if round_index < 1:
        raise DomainError(f"round index must be >= 1, got {round_index}")
    lhs = (
        costs.c_write
        + math.log1p(happening_count)
        + (math.log(round_index + 2) - math.log(round_index + 1))
    )
    return GateDecision(continue_=lhs <= deltas.total, lhs=lhs, rhs=deltas.total)


def statistical_delta_new_risk(
    weights: LossWeights,
    lambda_hat: float,
    xi_hat: float,
    severity_variance: float,
    noise_variance: float = 0.0,
) -> float:
    """Round increment to the two-moment loss from imagining one new risk.

    A risk leaving the SDS set was detectable with probability zero, so the
    round's first-moment gap is the full loss rate and the second-moment gap
    the full loss variance, less whatever underwriting noise remains after
    the narrative's quality buy-down.
    """
    gap1 = -lambda_hat * xi_hat
    gap2 = -lambda_hat * max(
        severity_variance + xi_hat * xi_hat - noise_variance, 0.0
    )
    return statistical_loss(weights, [(gap1, gap2)])


# ---------------------------------------------------------------------------
# red-line and precision conditions


@dataclass(frozen=True)
class HyperEstimate:
    """An overanxious round's maximal-loss parameters."""

    lambda_dot: float
    z_dot: float


@dataclass(frozen=True)
class RedLineConfig:
    nu_star: float

    def __post_init__(self):
        if not self.nu_star > 0.0 or not math.isfinite(self.nu_star):
            raise ParameterError(f"nu_star must be a positive finite real, got {self.nu_star}")


def red_line_check(pkre_total: float, config: RedLineConfig) -> bool:
    """Triggered iff the PKRE total strictly exceeds the threshold."""
    return pkre_total > config.nu_star


def hyperanxiety_avoidance(
    pi: float,
    hyper: HyperEstimate,
    prior_pkre: float,
    config: RedLineConfig,
    round_index: int,
) -> bool:
    """Whether partial detection saves the analyst from a spurious red line.

    Evaluates 1 - pi > (lambda_dot * z_dot - prior) / R - nu_star literally;
    the left side is a probability and the right a loss-scaled quantity, a
    dimensional mismatch that is kept as stated rather than patched.
    """
    if round_index < 1:
        raise DomainError(f"round index must be >= 1, got {round_index}")
    rhs = (hyper.lambda_dot * hyper.z_dot - prior_pkre) / round_index - config.nu_star
    return (1.0 - pi) > rhs


def community_precision_condition(
    dlambda_dbeta: float, lambda_prev: float, round_index: int
) -> bool:
    """Underwriting improves iff d(rate)/d(error) > previous rate / round.

    Evaluated literally. A community whose precision grows with calamity
    size has a negative derivative and can never satisfy this with a
    positive prior rate; that tension is deliberately left in place.
    """
    if round_index < 1:
        raise DomainError(f"round index must be >= 1, got {round_index}")
    return dlambda_dbeta > lambda_prev / round_index


# ---------------------------------------------------------------------------
# brute-force optimal stopping


# exhaustive search and the stopping command's R_max both stop here
MAX_STOPPING_HORIZON = 30


@dataclass(frozen=True)
class StoppingResult:
    tau_star: int
    values: tuple[float, ...]  # values[r] = discounted value of stopping after round r


def optimal_stopping_brute(utilities: Sequence[float], rho: float) -> StoppingResult:
    """Exhaustive search over stop-after-r policies at desk scale.

    Value of stopping after round r is sum_{s<=r} rho^(s-1) u_s (r = 0 means
    stop immediately, value 0). Returns the earliest maximizing round.
    """
    horizon = len(utilities)
    if not 1 <= horizon <= MAX_STOPPING_HORIZON:
        raise DomainError(
            f"horizon must be between 1 and {MAX_STOPPING_HORIZON} rounds, got {horizon}"
        )
    if not 0.0 < rho <= 1.0:
        raise DomainError(f"discount rho must lie in (0, 1], got {rho}")
    if any(not math.isfinite(u) for u in utilities):
        raise DomainError("utilities must be finite")
    values = [0.0]
    running = 0.0
    discount = 1.0
    for u in utilities:
        running += discount * u
        values.append(running)
        discount *= rho
    best = max(range(horizon + 1), key=lambda r: (values[r], -r))
    return StoppingResult(tau_star=best, values=tuple(values))


# ---------------------------------------------------------------------------
# the round ledger


@dataclass(frozen=True)
class UnderwritingResult:
    """What an underwriting call returns for one imagined risk."""

    lambda_hat: float
    xi_hat: float
    severity_variance: float = 0.0
    window: float = 1.0

    def to_estimate(self, risk_id: str, round_index: int) -> RiskEstimate:
        return RiskEstimate(
            component_id=risk_id,
            lambda_hat=self.lambda_hat,
            xi_hat=self.xi_hat,
            severity_variance=self.severity_variance,
            window=self.window,
            n_events=0,
            source=EstimateSource.UNDERWRITING,
            round=round_index,
        )


@dataclass(frozen=True)
class RoundBenefits:
    mitigation: float
    option: float


@dataclass(frozen=True)
class RoundCosts:
    speculation: float
    writing: float
    observation: float

    @property
    def total(self) -> float:
        return self.speculation + self.writing + self.observation


@dataclass(frozen=True)
class RoundRecord:
    round: int
    risk_id: str
    happening_count: int
    underwriting: UnderwritingResult
    observed: tuple[RiskEstimate, ...]
    benefits: RoundBenefits
    sponsored: bool
    newly_imagined: bool
    k_imagined: int
    pkre_total: float
    pkre_observed: float
    pkre_imagined: float
    pkre_variance: float
    costs: RoundCosts
    deltas: RoundDeltas
    decision: str
    red_line: bool | None


@dataclass(frozen=True)
class RoundLedger:
    """Round records plus the latest underwriting estimate per imagined
    risk, in first-seen order. The map is derived state: built from the
    records once when it is not given, read-only, and left out of equality."""

    records: tuple[RoundRecord, ...] = ()
    imagined: Mapping[str, RiskEstimate] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        imagined = self.imagined
        if imagined is None:
            imagined = {
                r.risk_id: r.underwriting.to_estimate(r.risk_id, r.round)
                for r in self.records
            }
        object.__setattr__(self, "imagined", MappingProxyType(imagined))

    @property
    def next_round(self) -> int:
        return self.records[-1].round + 1 if self.records else 1

    def pkre_history(self) -> list[float]:
        return [r.pkre_total for r in self.records]


@dataclass(frozen=True)
class EngineConfig:
    """Everything run_round needs besides the per-round inputs."""

    costs: CostModel
    weights: LossWeights = LossWeights()
    quality: NarrativeQuality | None = None
    redline: RedLineConfig | None = None

    def __post_init__(self):
        if self.costs.variable and self.quality is None:
            raise ParameterError("variable cost mode needs a NarrativeQuality")


def run_round(
    ledger: RoundLedger,
    narrative: Narrative,
    underwriting: Callable[[Narrative], UnderwritingResult],
    observed_feed: Sequence[RiskEstimate],
    config: EngineConfig,
    benefits: RoundBenefits,
    *,
    sponsored: bool = False,
) -> RoundLedger:
    """Execute one speculation round and return the extended ledger.

    The narrative must validate; its risk moves out of the SDS set if not
    already imagined. An underwriting failure aborts the round with the
    ledger untouched. At most one risk leaves SDS per round, so k_imagined
    never grows by more than one.
    """
    report = validate(narrative)
    if not report.ok:
        raise NarrativeInvalidError(report.violations)
    round_index = ledger.next_round
    if narrative.round != round_index:
        raise DomainError(
            f"narrative is for round {narrative.round}, ledger expects {round_index}"
        )
    try:
        result = underwriting(narrative)
    except Exception as exc:
        raise RoundAbortedError(
            f"underwriting failed in round {round_index}: {exc}"
        ) from exc
    return _advance(
        ledger,
        risk_id=narrative.risk_id,
        happening_count=narrative.happening_count,
        underwriting=result,
        observed_feed=tuple(observed_feed),
        benefits=benefits,
        sponsored=sponsored,
        config=config,
    )


def _advance(
    ledger: RoundLedger,
    *,
    risk_id: str,
    happening_count: int,
    underwriting: UnderwritingResult,
    observed_feed: tuple[RiskEstimate, ...],
    benefits: RoundBenefits,
    sponsored: bool,
    config: EngineConfig,
) -> RoundLedger:
    round_index = ledger.next_round
    imagined = dict(ledger.imagined)  # a copy: an aborted round leaves the old map
    newly_imagined = risk_id not in imagined
    imagined[risk_id] = underwriting.to_estimate(risk_id, round_index)
    pkre = compute_pkre(observed_feed, list(imagined.values()), round_index)

    costs = config.costs
    paid = RoundCosts(
        speculation=costs.speculation_cost(happening_count),
        writing=costs.c_write,
        observation=costs.c_obs if sponsored else 0.0,
    )

    noise_variance = (
        config.quality.noise_variance(happening_count) if config.quality else 0.0
    )
    statistical = statistical_delta_new_risk(
        config.weights,
        underwriting.lambda_hat,
        underwriting.xi_hat,
        underwriting.severity_variance,
        noise_variance=noise_variance,
    )
    previous = ledger.records[-1] if ledger.records else None
    deltas = RoundDeltas(
        statistical=statistical,
        mitigation=benefits.mitigation - (previous.benefits.mitigation if previous else 0.0),
        option=benefits.option - (previous.benefits.option if previous else 0.0),
    )
    if costs.variable:
        gate = continuation_variable(costs, happening_count, round_index, deltas)
    else:
        gate = continuation_constant(costs, deltas)

    red_line = (
        red_line_check(pkre.total, config.redline) if config.redline else None
    )
    record = RoundRecord(
        round=round_index,
        risk_id=risk_id,
        happening_count=happening_count,
        underwriting=underwriting,
        observed=observed_feed,
        benefits=benefits,
        sponsored=sponsored,
        newly_imagined=newly_imagined,
        k_imagined=len(imagined),
        pkre_total=pkre.total,
        pkre_observed=pkre.observed_total,
        pkre_imagined=pkre.imagined_total,
        pkre_variance=pkre.variance,
        costs=paid,
        deltas=deltas,
        decision=gate.decision,
        red_line=red_line,
    )
    return RoundLedger(records=ledger.records + (record,), imagined=imagined)


# ---------------------------------------------------------------------------
# persistence and replay


def _estimate_to_dict(est: RiskEstimate) -> dict:
    return {
        "component_id": est.component_id,
        "lambda_hat": est.lambda_hat,
        "xi_hat": est.xi_hat,
        "severity_variance": est.severity_variance,
        "window": est.window,
        "n_events": est.n_events,
        "source": est.source.value,
        "round": est.round,
        "total_loss": est.total_loss,
    }


def _estimate_from_dict(data: dict) -> RiskEstimate:
    return RiskEstimate(
        component_id=data["component_id"],
        lambda_hat=data["lambda_hat"],
        xi_hat=data["xi_hat"],
        severity_variance=data["severity_variance"],
        window=data["window"],
        n_events=data["n_events"],
        source=EstimateSource(data["source"]),
        round=data["round"],
        total_loss=data["total_loss"],
    )


def record_to_dict(record: RoundRecord) -> dict:
    return {
        "schema_version": LEDGER_SCHEMA_VERSION,
        "round": record.round,
        "risk_id": record.risk_id,
        "happening_count": record.happening_count,
        "underwriting": {
            "lambda_hat": record.underwriting.lambda_hat,
            "xi_hat": record.underwriting.xi_hat,
            "severity_variance": record.underwriting.severity_variance,
            "window": record.underwriting.window,
        },
        "observed": [_estimate_to_dict(e) for e in record.observed],
        "benefits": {
            "mitigation": record.benefits.mitigation,
            "option": record.benefits.option,
        },
        "sponsored": record.sponsored,
        "newly_imagined": record.newly_imagined,
        "k_imagined": record.k_imagined,
        "pkre": {
            "total": record.pkre_total,
            "observed": record.pkre_observed,
            "imagined": record.pkre_imagined,
            "variance": record.pkre_variance,
        },
        "costs": {
            "speculation": record.costs.speculation,
            "writing": record.costs.writing,
            "observation": record.costs.observation,
        },
        "deltas": {
            "statistical": record.deltas.statistical,
            "mitigation": record.deltas.mitigation,
            "option": record.deltas.option,
        },
        "decision": record.decision,
        "red_line": record.red_line,
    }


def record_from_dict(data: dict) -> RoundRecord:
    if data.get("schema_version") != LEDGER_SCHEMA_VERSION:
        raise DomainError(
            f"unsupported ledger schema version {data.get('schema_version')!r}"
        )
    return RoundRecord(
        round=data["round"],
        risk_id=data["risk_id"],
        happening_count=data["happening_count"],
        underwriting=UnderwritingResult(**data["underwriting"]),
        observed=tuple(_estimate_from_dict(e) for e in data["observed"]),
        benefits=RoundBenefits(**data["benefits"]),
        sponsored=data["sponsored"],
        newly_imagined=data["newly_imagined"],
        k_imagined=data["k_imagined"],
        pkre_total=data["pkre"]["total"],
        pkre_observed=data["pkre"]["observed"],
        pkre_imagined=data["pkre"]["imagined"],
        pkre_variance=data["pkre"]["variance"],
        costs=RoundCosts(**data["costs"]),
        deltas=RoundDeltas(**data["deltas"]),
        decision=data["decision"],
        red_line=data["red_line"],
    )


def _ledger_line(record: RoundRecord) -> str:
    return json.dumps(record_to_dict(record), sort_keys=True) + "\n"


def write_ledger(ledger: RoundLedger, path: str | Path) -> None:
    """Persist a whole ledger: one JSON object per round, one per line."""
    with open(path, "w", encoding="utf-8") as out:
        for record in ledger.records:
            out.write(_ledger_line(record))


def append_record(record: RoundRecord, path: str | Path) -> None:
    """Append one round to a ledger file; the on-disk format is append-only,
    so a live process can persist each round as it completes."""
    with open(path, "a", encoding="utf-8") as out:
        out.write(_ledger_line(record))


def read_ledger(path: str | Path) -> RoundLedger:
    records = []
    with open(path, "r", encoding="utf-8") as source:
        for line in source:
            line = line.strip()
            if line:
                records.append(record_from_dict(json.loads(line)))
    return RoundLedger(records=tuple(records))


def replay_ledger(persisted: RoundLedger, config: EngineConfig) -> RoundLedger:
    """Re-run every round from its recorded inputs under the same config.

    The result must reproduce each record bit for bit; a mismatch means the
    persisted ledger and the engine disagree.
    """
    rebuilt = RoundLedger()
    for record in persisted.records:
        rebuilt = _advance(
            rebuilt,
            risk_id=record.risk_id,
            happening_count=record.happening_count,
            underwriting=record.underwriting,
            observed_feed=record.observed,
            benefits=record.benefits,
            sponsored=record.sponsored,
            config=config,
        )
    return rebuilt
