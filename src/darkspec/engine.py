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
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum, EnumMeta
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, Sequence, get_args, get_origin, get_type_hints

from .errors import DomainError, NarrativeInvalidError, ParameterError, RoundAbortedError, require
from .estimation import EstimateSource, PKREResult, RiskEstimate, _check_unique, _pkre, _units
from .estimation import compute_pkre  # unused here; perfbench/tracer.py wraps this name
from .narrative import Narrative, validate

LEDGER_SCHEMA_VERSION = 2  # read_ledger also reads version 1


# ---------------------------------------------------------------------------
# cost and value models


@dataclass(frozen=True)
class CostModel:
    """Round costs: narrative writing, speculation, optional sponsored
    observation. Speculation cost is the constant c_spec, or ln(1 + H_r)
    when c_spec is None."""

    c_write: float
    c_spec: float | None = None
    c_obs: float = 0.0

    def __post_init__(self):
        require("c_write", self.c_write, "(0, inf)")
        require("c_obs", self.c_obs, "[0, inf)")
        if not self.variable:
            require("c_spec", self.c_spec, "(0, inf)")

    @property
    def variable(self) -> bool:
        return self.c_spec is None

    @classmethod
    def constant(cls, c_write: float, c_spec: float, c_obs: float = 0.0) -> "CostModel":
        return cls(c_write=c_write, c_spec=c_spec, c_obs=c_obs)

    @classmethod
    def variable_cost(cls, c_write: float, c_obs: float = 0.0) -> "CostModel":
        return cls(c_write=c_write, c_obs=c_obs)

    def speculation_cost(self, happening_count: int) -> float:
        if self.variable:
            require("happening count", happening_count, "[1, inf)", DomainError)
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
        require("d1", self.d1, "(0, inf)")
        require("d2", self.d2, "(0, inf)")
        require("phi", self.phi)

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
        require("sigma2_max", self.sigma2_max)
        require("sigma2_min", self.sigma2_min)
        require("eta", self.eta, "(0, inf)")
        if not 0.0 < self.sigma2_min < self.sigma2_max:
            raise ParameterError(
                f"need sigma2_max > sigma2_min > 0, got {self.sigma2_max}, {self.sigma2_min}"
            )

    def noise_variance(self, happening_count: int) -> float:
        require("happening count", happening_count, "[1, inf)", DomainError)
        raw = self.sigma2_max - math.exp(self.eta * (happening_count - 1)) * self.sigma2_min
        return min(max(raw, 0.0), self.sigma2_max - self.sigma2_min)


# ---------------------------------------------------------------------------
# the continuation gate


@dataclass(frozen=True)
class RoundDeltas:
    """Per-round movements of the gate's benefit terms."""

    statistical: float
    mitigation: float
    option: float

    @property
    def total(self) -> float:
        return self.statistical + self.mitigation + self.option


def continuation(
    costs: CostModel,
    happening_count: int,
    round_index: int,
    deltas: RoundDeltas,
) -> bool:
    """True (speculate) iff c_write + the cost model's speculation cost (plus
    the concave crowding term ln(R + 2) - ln(R + 1) in variable-cost mode) <=
    summed deltas. A stop is reversible; a later round may continue again."""
    require("round index", round_index, "[1, inf)", DomainError)
    lhs = costs.c_write + costs.speculation_cost(happening_count)
    if costs.variable:
        lhs += math.log(round_index + 2) - math.log(round_index + 1)
    return lhs <= deltas.total


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
class RedLineConfig:
    nu_star: float

    def __post_init__(self):
        require("nu_star", self.nu_star, "(0, inf)")


def red_line_check(total: float, config: RedLineConfig) -> bool:
    """Triggered iff the PKRE total strictly exceeds the threshold."""
    return total > config.nu_star


def hyperanxiety_avoidance(
    pi: float,
    lambda_dot: float,
    z_dot: float,
    prior_pkre: float,
    config: RedLineConfig,
    round_index: int,
) -> bool:
    """Whether partial detection saves the analyst from a spurious red line,
    given an overanxious round's maximal-loss rate ``lambda_dot`` and jump
    size ``z_dot``.

    Evaluates 1 - pi > (lambda_dot * z_dot - prior) / R - nu_star literally;
    the left side is a probability and the right a loss-scaled quantity, a
    dimensional mismatch that is kept as stated rather than patched.
    """
    require("round index", round_index, "[1, inf)", DomainError)
    rhs = (lambda_dot * z_dot - prior_pkre) / round_index - config.nu_star
    return (1.0 - pi) > rhs


def community_precision_condition(
    dlambda_dbeta: float, lambda_prev: float, round_index: int
) -> bool:
    """Underwriting improves iff d(rate)/d(error) > previous rate / round.

    Evaluated literally. A community whose precision grows with calamity
    size has a negative derivative and can never satisfy this with a
    positive prior rate; that tension is deliberately left in place.
    """
    require("round index", round_index, "[1, inf)", DomainError)
    return dlambda_dbeta > lambda_prev / round_index


# ---------------------------------------------------------------------------
# brute-force optimal stopping


# exhaustive search and the stopping command's R_max both stop here
MAX_STOPPING_HORIZON = 30


def optimal_stopping_brute(
    utilities: Sequence[float], rho: float
) -> tuple[int, tuple[float, ...]]:
    """Exhaustive search over stop-after-r policies at desk scale.

    Value of stopping after round r is sum_{s<=r} rho^(s-1) u_s (r = 0 means
    stop immediately, value 0). Returns ``(tau_star, values)``: the earliest
    maximizing round, and ``values[r]`` for r = 0 .. len(utilities).
    """
    horizon = len(utilities)
    if not 1 <= horizon <= MAX_STOPPING_HORIZON:
        raise DomainError(
            f"horizon must be between 1 and {MAX_STOPPING_HORIZON} rounds, got {horizon}"
        )
    require("discount rho", rho, "(0, 1]", DomainError)
    for u in utilities:
        require("utilities", u, error=DomainError)
    values = [0.0]
    running = 0.0
    discount = 1.0
    for r, u in enumerate(utilities, start=1):
        running += discount * u
        if not math.isfinite(running):
            raise DomainError(f"the value of stopping after round {r} overflows")
        values.append(running)
        discount *= rho
    best = max(range(horizon + 1), key=lambda r: (values[r], -r))
    return best, tuple(values)


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
    pkre: PKREResult
    costs: RoundCosts
    deltas: RoundDeltas
    decision: str
    red_line: bool | None


class _RunningPKRE:
    """The PKRE state of the newest ledger of a chain, which each round moves
    on in place: the latest underwriting estimate per imagined risk, in
    first-seen order, the feed tuple folded last, and the imagined and the
    observed sums of the loss and the variance terms, as ints in units of
    2**-1074 (estimation._units).

    A round adds its new estimate's units to the imagined sums and takes away
    those of the estimate it replaces. The int sums stay exact, so the PKRE
    has the bits compute_pkre gives over the whole lists.
    """

    def __init__(self, records: tuple[RoundRecord, ...]):
        self.records = records  # those of the ledger this state is for
        self.imagined: dict[str, RiskEstimate] = {}
        for r in records:
            self.imagined[r.risk_id] = r.underwriting.to_estimate(r.risk_id, r.round)
        self.imagined_sums = _units(self.imagined.values())
        self.feed: tuple[RiskEstimate, ...] = ()
        self.observed_sums = (0, 0)

    def pkre_after(
        self,
        feed: tuple[RiskEstimate, ...],
        risk_id: str,
        estimate: RiskEstimate,
    ) -> tuple[PKREResult, tuple[int, int], tuple[int, int]]:
        """(PKRE, observed sums, imagined sums) once ``estimate`` is the
        latest for ``risk_id`` under ``feed``, changing nothing here."""
        if feed is self.feed:  # identity: a tuple of frozen estimates
            observed = self.observed_sums
        else:
            _check_unique(feed, "observed")
            observed = _units(feed)
        replaced = self.imagined.get(risk_id)
        added, taken = _units((estimate,)), _units((replaced,) if replaced else ())
        imagined = tuple(s + a - t for s, a, t in zip(self.imagined_sums, added, taken))
        return _pkre(observed, imagined), observed, imagined

    def ledger(self, records: tuple[RoundRecord, ...]) -> "RoundLedger":
        """The ledger of ``records``, which this state is now for."""
        ledger = RoundLedger(records=records)
        self.records = ledger.records
        object.__setattr__(ledger, "_running", self)
        return ledger


@dataclass(frozen=True)
class RoundLedger:
    """Round records, plus the running PKRE state that keeps a round's PKRE
    work the same however long the ledger is. The state takes no part in
    equality, hash or repr: two ledgers are equal when their records are."""

    records: tuple[RoundRecord, ...] = ()
    _running: _RunningPKRE | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def _state(self) -> _RunningPKRE:
        """This ledger's running state, built from its records when it has
        none yet or when a later ledger has moved the shared one on."""
        state = self._running
        if state is None or state.records is not self.records:
            state = _RunningPKRE(self.records)
            object.__setattr__(self, "_running", state)
        return state

    @property
    def imagined(self) -> Mapping[str, RiskEstimate]:
        """The latest underwriting estimate per imagined risk, in first-seen
        order: a read-only copy of this ledger's map."""
        return MappingProxyType(dict(self._state().imagined))

    @property
    def next_round(self) -> int:
        return self.records[-1].round + 1 if self.records else 1

    def pkre_history(self) -> list[float]:
        return [r.pkre.total for r in self.records]


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
    state = ledger._state()
    record = _next_record(
        state,
        ledger.records[-1] if ledger.records else None,
        risk_id=narrative.risk_id,
        happening_count=narrative.happening_count,
        underwriting=result,
        observed_feed=tuple(observed_feed),
        benefits=benefits,
        sponsored=sponsored,
        config=config,
    )
    return state.ledger(ledger.records + (record,))


def _next_record(
    state: _RunningPKRE,
    previous: RoundRecord | None,
    *,
    risk_id: str,
    happening_count: int,
    underwriting: UnderwritingResult,
    observed_feed: tuple[RiskEstimate, ...],
    benefits: RoundBenefits,
    sponsored: bool,
    config: EngineConfig,
) -> RoundRecord:
    """The record of the round after ``previous``. ``state`` moves on only
    once the record is built, so a round that raises leaves it as it was; an
    estimate, a PKRE or a delta that is not finite raises an error that names
    the round."""
    round_index = previous.round + 1 if previous else 1
    newly_imagined = risk_id not in state.imagined
    noise_variance = (
        config.quality.noise_variance(happening_count) if config.quality else 0.0
    )
    try:
        estimate = underwriting.to_estimate(risk_id, round_index)
        pkre, observed_sums, imagined_sums = state.pkre_after(observed_feed, risk_id, estimate)
        deltas = RoundDeltas(
            statistical=statistical_delta_new_risk(
                config.weights,
                underwriting.lambda_hat,
                underwriting.xi_hat,
                underwriting.severity_variance,
                noise_variance=noise_variance,
            ),
            mitigation=benefits.mitigation - (previous.benefits.mitigation if previous else 0.0),
            option=benefits.option - (previous.benefits.option if previous else 0.0),
        )
        for name, value in vars(deltas).items():
            if not math.isfinite(value):
                raise DomainError(f"the {name} delta is {value}")
    except (DomainError, ParameterError) as exc:
        raise type(exc)(f"round {round_index}: {exc}") from exc

    costs = config.costs
    paid = RoundCosts(
        speculation=costs.speculation_cost(happening_count),
        writing=costs.c_write,
        observation=costs.c_obs if sponsored else 0.0,
    )

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
        k_imagined=len(state.imagined) + newly_imagined,
        pkre=pkre,
        costs=paid,
        deltas=deltas,
        decision=(
            "continue" if continuation(costs, happening_count, round_index, deltas) else "stop"
        ),
        red_line=red_line,
    )
    state.imagined[risk_id] = estimate
    state.feed, state.observed_sums, state.imagined_sums = (
        observed_feed, observed_sums, imagined_sums
    )
    return record


# ---------------------------------------------------------------------------
# persistence and replay


def _codec(hint):
    """(encode, decode) between a record, or a tuple of records, and its JSON
    form, read off the dataclass fields and annotations; None for other types.
    A record's encoder leaves out the fields named in ``omit``; its decoder
    takes fields that are already decoded as keywords."""
    if get_origin(hint) is tuple:  # stored as a list
        enc, dec = _codec(get_args(hint)[0])
        return (lambda items: [enc(i) for i in items]), (lambda items: tuple(map(dec, items)))
    if not is_dataclass(hint):
        return None
    names = tuple(f.name for f in fields(hint))
    hints = get_type_hints(hint)
    enums = tuple((n, hints[n]) for n in names if isinstance(hints[n], EnumMeta))
    # attribute reads, an enum as its value: vars() would keep a __dict__ per instance
    read = attrgetter(*(n + ".value" if isinstance(hints[n], EnumMeta) else n for n in names))
    nested = tuple((n, c) for n in names if (c := _codec(hints[n])))

    def encode(value, omit=()) -> dict:
        data = dict(zip(names, read(value)))
        for name in omit:
            del data[name]
        for name, (encode_field, _) in nested:
            if name not in omit:
                data[name] = encode_field(data[name])
        return data

    def decode(data: dict, **decoded):
        for name, (_, decode_field) in nested:
            if name not in decoded:
                data[name] = decode_field(data[name])
        for name, enum in enums:
            data[name] = enum(data[name])
        return hint(**data, **decoded)

    return encode, decode


_encode_record, _decode_record = _codec(RoundRecord)


def _ledger_line(record: RoundRecord, previous: RoundRecord | None) -> str:
    # the feed is left out when it is the very tuple the line before holds:
    # identity, not equality, since -0.0 == 0.0 and a reader hands the
    # carried line that same tuple back
    carried = previous is not None and record.observed is previous.observed
    line = _encode_record(record, ("observed",) if carried else ())
    line["schema_version"] = LEDGER_SCHEMA_VERSION
    # the tree is built here from scalar fields, so it cannot contain itself;
    # allow_nan=False keeps each line RFC 8259 JSON, which has no Infinity
    return json.dumps(line, sort_keys=True, check_circular=False, allow_nan=False) + "\n"


def _record_from_line(data, previous: RoundRecord | None) -> RoundRecord:
    """Decode one parsed line in place; a missing or unknown key fails in a constructor."""
    if not isinstance(data, dict):
        raise DomainError(f"a ledger line must be a JSON object, got {type(data).__name__}")
    version = data.pop("schema_version", None)
    # an int, not a bool or float: true == 1 and 2.0 == 2
    if type(version) is not int or version not in (1, LEDGER_SCHEMA_VERSION):
        raise DomainError(f"unsupported ledger schema version {version!r}")
    if version != 1 and "observed" not in data and previous is not None:
        # a v2 line without a feed carries the previous record's tuple over
        return _decode_record(data, observed=previous.observed)
    return _decode_record(data)


def write_ledger(ledger: RoundLedger, path: str | Path) -> None:
    """Persist a whole ledger: one JSON object per round, one per line."""
    with open(path, "w", encoding="utf-8") as out:
        previous = None
        for record in ledger.records:
            out.write(_ledger_line(record, previous))
            previous = record


def append_record(record: RoundRecord, path: str | Path, previous: RoundRecord | None) -> None:
    """Append one round to a ledger file, after ``previous``, the record the
    file ends with (None for the first), so appending writes the bytes
    write_ledger does; a live process can persist each round as it completes."""
    with open(path, "a", encoding="utf-8") as out:
        out.write(_ledger_line(record, previous))


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not RFC 8259 JSON")


# what write_ledger's allow_nan=False refuses to write, read_ledger refuses to read
_LEDGER_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def read_ledger(path: str | Path) -> RoundLedger:
    """Load a ledger; a line that is not a valid record, or whose underwriting
    estimate is bad or has a loss term that is not finite, raises DomainError
    at path:line."""
    records = []
    with open(path, "rb") as source:  # decoded per line, so a bad byte has a line too
        for number, line in enumerate(source, start=1):
            try:
                if line.strip():  # blank lines are skipped
                    data = _LEDGER_DECODER.decode(line.decode("utf-8"))
                    record = _record_from_line(data, records[-1] if records else None)
                    _units((record.underwriting.to_estimate(record.risk_id, record.round),))
                    records.append(record)
            except (KeyError, TypeError, ValueError) as exc:
                detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
                raise DomainError(f"{path}:{number}: {detail}") from exc
    return RoundLedger(records=tuple(records))


def replay_ledger(persisted: RoundLedger, config: EngineConfig) -> RoundLedger:
    """Re-run every round from its recorded inputs under the same config.

    The result must reproduce each record bit for bit; a mismatch means the
    persisted ledger and the engine disagree. Each round gets the persisted
    record's feed tuple itself, so the rebuilt ledger writes its feed on the
    same lines the persisted one does.
    """
    state = _RunningPKRE(())
    records: list[RoundRecord] = []
    for record in persisted.records:
        records.append(_next_record(
            state,
            records[-1] if records else None,
            risk_id=record.risk_id,
            happening_count=record.happening_count,
            underwriting=record.underwriting,
            observed_feed=record.observed,
            benefits=record.benefits,
            sponsored=record.sponsored,
            config=config,
        ))
    return state.ledger(tuple(records))
