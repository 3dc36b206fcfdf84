"""Staged catastrophe narratives: parsing, validation, pivots, mitigation.

A narrative is a directed multigraph of happenings arranged in stages, with
typed actors (human, machine, nature) and actions on the edges. The
line-oriented document format:

    # comment
    NARRATIVE round=<int> risk=<id>
    ACTOR <id> kind=human|machine|nature
    ACTION <id> kind=human|machine|joint|force-majeure
    HAPPENING <id> stage=<int> [actualized] "<description>"
    CONTEXT <happening-id> "<detail>"
    ACTOR-AT <actor-id> <happening-id>
    EDGE <from-id> -> <to-id> actor=<id> action=<id>
    PIVOT <happening-id> enables=<action-id> defeat=<action-id>

Serialization is canonical (records sorted by kind then id) and round-trip
stable. Validation checks that the actualized happenings form a single
forward chain and that the five edge/actor flow restrictions hold; a
happening's participant set is its ACTOR-AT declarations plus the actors on
its incident edges.

Narratives are immutable once built; every analysis here is pure and can
run across narratives in parallel.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Sequence

from .errors import (
    DomainError,
    MitigationInvalidError,
    NarrativeInvalidError,
    NarrativeSyntaxError,
    ParameterError,
)
from .estimation import RiskEstimate, expected_jump_loss


class ActorKind(Enum):
    HUMAN = "human"
    MACHINE = "machine"
    NATURE = "nature"


class ActionKind(Enum):
    HUMAN = "human"
    MACHINE = "machine"
    JOINT = "joint"
    FORCE_MAJEURE = "force-majeure"


# action kinds that count as deliberate interventions for pivots/mitigation
_AGENTIVE = frozenset({ActionKind.HUMAN, ActionKind.MACHINE, ActionKind.JOINT})


@dataclass(frozen=True)
class Actor:
    actor_id: str
    kind: ActorKind


@dataclass(frozen=True)
class Action:
    action_id: str
    kind: ActionKind


@dataclass(frozen=True)
class Happening:
    happening_id: str
    stage: int
    description: str
    context: tuple[str, ...] = ()
    actualized: bool = False

    def __post_init__(self):
        if self.stage < 1:
            raise ParameterError(f"stage must be >= 1, got {self.stage}")


@dataclass(frozen=True)
class NarrativeEdge:
    source: str
    target: str
    actor_id: str
    action_id: str


@dataclass(frozen=True)
class PivotAnnotation:
    happening_id: str
    enables: str
    defeat: str


@dataclass(frozen=True)
class Narrative:
    round: int
    risk_id: str
    happenings: tuple[Happening, ...]
    actors: tuple[Actor, ...]
    actions: tuple[Action, ...]
    edges: tuple[NarrativeEdge, ...]
    pivots: tuple[PivotAnnotation, ...]
    participants: Mapping[str, frozenset[str]]

    def happening(self, happening_id: str) -> Happening:
        for h in self.happenings:
            if h.happening_id == happening_id:
                return h
        raise KeyError(happening_id)

    def action(self, action_id: str) -> Action:
        for a in self.actions:
            if a.action_id == action_id:
                return a
        raise KeyError(action_id)

    @property
    def happening_count(self) -> int:
        return len(self.happenings)


def build_narrative(
    round_index: int,
    risk_id: str,
    happenings: Sequence[Happening],
    actors: Sequence[Actor],
    actions: Sequence[Action],
    edges: Sequence[NarrativeEdge],
    pivots: Sequence[PivotAnnotation] = (),
    actor_at: Sequence[tuple[str, str]] = (),
) -> Narrative:
    """Assemble a narrative in canonical order and derive participant sets."""
    participants: dict[str, set[str]] = {h.happening_id: set() for h in happenings}
    for actor_id, happening_id in actor_at:
        participants.setdefault(happening_id, set()).add(actor_id)
    for edge in edges:
        participants.setdefault(edge.source, set()).add(edge.actor_id)
        participants.setdefault(edge.target, set()).add(edge.actor_id)
    return Narrative(
        round=round_index,
        risk_id=risk_id,
        happenings=tuple(sorted(happenings, key=lambda h: (h.stage, h.happening_id))),
        actors=tuple(sorted(actors, key=lambda a: a.actor_id)),
        actions=tuple(sorted(actions, key=lambda a: a.action_id)),
        edges=tuple(
            sorted(edges, key=lambda e: (e.source, e.target, e.actor_id, e.action_id))
        ),
        pivots=tuple(
            sorted(pivots, key=lambda p: (p.happening_id, p.enables, p.defeat))
        ),
        participants={
            hid: frozenset(members) for hid, members in sorted(participants.items())
        },
    )


# ---------------------------------------------------------------------------
# parsing


# a comment, a quoted string, an unterminated quote, or a bare word
_TOKEN = re.compile(r'(#)|"([^"\\]*(?:\\.[^"\\]*)*)"|(")|[^\s"#]+', re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _tokenize(line: str, line_no: int) -> list[tuple[str, int, bool]]:
    """Split one line into (token, column, quoted) triples; '#' starts a comment."""
    tokens = []
    for match in _TOKEN.finditer(line):
        comment, quoted, open_quote = match.groups()
        col = match.start() + 1
        if comment:
            break
        if open_quote:
            raise NarrativeSyntaxError("unterminated string", line_no, col)
        if quoted is None:
            tokens.append((match.group(), col, False))
        else:
            tokens.append((_ESCAPE.sub(r"\1", quoted), col, True))
    return tokens


def _expect_kv(token: tuple[str, int, bool], key: str, line_no: int) -> str:
    text, col, quoted = token
    if quoted or not text.startswith(key + "="):
        raise NarrativeSyntaxError(f"expected {key}=<value>", line_no, col)
    value = text[len(key) + 1 :]
    if not value:
        raise NarrativeSyntaxError(f"empty value for {key}=", line_no, col)
    return value


def _parse_int(text: str, what: str, line_no: int, col: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise NarrativeSyntaxError(f"{what} must be an integer, got {text!r}", line_no, col)


def parse_narrative(text: str) -> Narrative:
    """Parse a narrative document; errors carry line, column, and a code."""
    header: tuple[int, str] | None = None
    happenings: dict[str, Happening] = {}
    actors: dict[str, Actor] = {}
    actions: dict[str, Action] = {}
    edges: list[NarrativeEdge] = []
    pivots: list[PivotAnnotation] = []
    actor_at: list[tuple[str, str]] = []
    contexts: dict[str, list[str]] = {}
    saw_record = False

    def _resolve(table: dict, key: str, what: str, line_no: int, col: int) -> None:
        if key not in table:
            raise NarrativeSyntaxError(
                f"unknown {what} {key!r}", line_no, col, code="dangling-reference"
            )

    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(line, line_no)
        if not tokens:
            continue
        saw_record = True
        keyword, kw_col, quoted = tokens[0]
        if quoted:
            raise NarrativeSyntaxError("record must start with a keyword", line_no, kw_col)
        rest = tokens[1:]

        if keyword == "NARRATIVE":
            if header is not None:
                raise NarrativeSyntaxError("duplicate NARRATIVE header", line_no, kw_col,
                                           code="duplicate-id")
            if len(rest) != 2:
                raise NarrativeSyntaxError("NARRATIVE takes round=<int> risk=<id>",
                                           line_no, kw_col)
            round_text = _expect_kv(rest[0], "round", line_no)
            risk = _expect_kv(rest[1], "risk", line_no)
            header = (_parse_int(round_text, "round", line_no, rest[0][1]), risk)
        elif keyword in ("ACTOR", "ACTION"):
            if keyword == "ACTOR":
                table, kinds, cls = actors, ActorKind, Actor
            else:
                table, kinds, cls = actions, ActionKind, Action
            noun = keyword.lower()
            if len(rest) != 2 or rest[0][2]:
                raise NarrativeSyntaxError(f"{keyword} takes <id> kind=<kind>",
                                           line_no, kw_col)
            record_id = rest[0][0]
            kind_text = _expect_kv(rest[1], "kind", line_no)
            try:
                kind = kinds(kind_text)
            except ValueError:
                raise NarrativeSyntaxError(f"unknown {noun} kind {kind_text!r}",
                                           line_no, rest[1][1])
            if record_id in table:
                raise NarrativeSyntaxError(f"duplicate {noun} id {record_id!r}",
                                           line_no, rest[0][1], code="duplicate-id")
            table[record_id] = cls(record_id, kind)
        elif keyword == "HAPPENING":
            if len(rest) < 3 or rest[0][2]:
                raise NarrativeSyntaxError(
                    'HAPPENING takes <id> stage=<int> [actualized] "<description>"',
                    line_no, kw_col)
            happening_id = rest[0][0]
            stage_text = _expect_kv(rest[1], "stage", line_no)
            stage = _parse_int(stage_text, "stage", line_no, rest[1][1])
            actualized = False
            desc_index = 2
            if not rest[2][2] and rest[2][0] == "actualized":
                actualized = True
                desc_index = 3
            if len(rest) != desc_index + 1 or not rest[desc_index][2]:
                raise NarrativeSyntaxError("HAPPENING needs a quoted description",
                                           line_no, kw_col)
            if happening_id in happenings:
                raise NarrativeSyntaxError(f"duplicate happening id {happening_id!r}",
                                           line_no, rest[0][1], code="duplicate-id")
            if stage < 1:
                raise NarrativeSyntaxError(f"stage must be >= 1, got {stage}",
                                           line_no, rest[1][1])
            happenings[happening_id] = Happening(
                happening_id, stage, rest[desc_index][0], (), actualized
            )
        elif keyword == "CONTEXT":
            if len(rest) != 2 or rest[0][2] or not rest[1][2]:
                raise NarrativeSyntaxError('CONTEXT takes <happening-id> "<detail>"',
                                           line_no, kw_col)
            _resolve(happenings, rest[0][0], "happening", line_no, rest[0][1])
            contexts.setdefault(rest[0][0], []).append(rest[1][0])
        elif keyword == "ACTOR-AT":
            if len(rest) != 2 or rest[0][2] or rest[1][2]:
                raise NarrativeSyntaxError("ACTOR-AT takes <actor-id> <happening-id>",
                                           line_no, kw_col)
            _resolve(actors, rest[0][0], "actor", line_no, rest[0][1])
            _resolve(happenings, rest[1][0], "happening", line_no, rest[1][1])
            actor_at.append((rest[0][0], rest[1][0]))
        elif keyword == "EDGE":
            if (len(rest) != 5 or rest[1][0] != "->" or rest[0][2] or rest[2][2]):
                raise NarrativeSyntaxError(
                    "EDGE takes <from-id> -> <to-id> actor=<id> action=<id>",
                    line_no, kw_col)
            source, target = rest[0][0], rest[2][0]
            actor_id = _expect_kv(rest[3], "actor", line_no)
            action_id = _expect_kv(rest[4], "action", line_no)
            _resolve(happenings, source, "happening", line_no, rest[0][1])
            _resolve(happenings, target, "happening", line_no, rest[2][1])
            _resolve(actors, actor_id, "actor", line_no, rest[3][1])
            _resolve(actions, action_id, "action", line_no, rest[4][1])
            edges.append(NarrativeEdge(source, target, actor_id, action_id))
        elif keyword == "PIVOT":
            if len(rest) != 3 or rest[0][2]:
                raise NarrativeSyntaxError(
                    "PIVOT takes <happening-id> enables=<action-id> defeat=<action-id>",
                    line_no, kw_col)
            happening_id = rest[0][0]
            enables = _expect_kv(rest[1], "enables", line_no)
            defeat = _expect_kv(rest[2], "defeat", line_no)
            _resolve(happenings, happening_id, "happening", line_no, rest[0][1])
            _resolve(actions, enables, "action", line_no, rest[1][1])
            _resolve(actions, defeat, "action", line_no, rest[2][1])
            pivots.append(PivotAnnotation(happening_id, enables, defeat))
        else:
            raise NarrativeSyntaxError(f"unknown keyword {keyword!r}", line_no, kw_col)

    if not saw_record:
        raise NarrativeSyntaxError("document contains no records", 1, 1,
                                   code="empty-document")
    if header is None:
        raise NarrativeSyntaxError("missing NARRATIVE header", 1, 1)

    enriched = [
        replace(h, context=tuple(contexts.get(h.happening_id, ())))
        for h in happenings.values()
    ]
    return build_narrative(
        round_index=header[0],
        risk_id=header[1],
        happenings=enriched,
        actors=list(actors.values()),
        actions=list(actions.values()),
        edges=edges,
        pivots=pivots,
        actor_at=actor_at,
    )


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def serialize_narrative(narrative: Narrative) -> str:
    """Canonical document for a narrative; parse(serialize(n)) == n."""
    lines = [f"NARRATIVE round={narrative.round} risk={narrative.risk_id}"]
    for actor in narrative.actors:
        lines.append(f"ACTOR {actor.actor_id} kind={actor.kind.value}")
    for action in narrative.actions:
        lines.append(f"ACTION {action.action_id} kind={action.kind.value}")
    for h in sorted(narrative.happenings, key=lambda h: h.happening_id):
        mark = " actualized" if h.actualized else ""
        lines.append(
            f"HAPPENING {h.happening_id} stage={h.stage}{mark} {_quote(h.description)}"
        )
        for detail in h.context:
            lines.append(f"CONTEXT {h.happening_id} {_quote(detail)}")
    for happening_id in sorted(narrative.participants):
        for actor_id in sorted(narrative.participants[happening_id]):
            lines.append(f"ACTOR-AT {actor_id} {happening_id}")
    for e in narrative.edges:
        lines.append(
            f"EDGE {e.source} -> {e.target} actor={e.actor_id} action={e.action_id}"
        )
    for p in narrative.pivots:
        lines.append(f"PIVOT {p.happening_id} enables={p.enables} defeat={p.defeat}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    subjects: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}


def validate(narrative: Narrative) -> ValidationReport:
    """Check actualized-chain structure and the five flow restrictions.

    Violations are report entries, never exceptions; each names the broken
    restriction and the offending elements.
    """
    violations: list[Violation] = []
    by_id = {h.happening_id: h for h in narrative.happenings}
    actor_ids = {a.actor_id for a in narrative.actors}
    action_ids = {a.action_id for a in narrative.actions}

    # exactly one actualized happening per populated stage
    stages: dict[int, list[Happening]] = {}
    for h in narrative.happenings:
        stages.setdefault(h.stage, []).append(h)
    for stage, members in sorted(stages.items()):
        marked = [h.happening_id for h in members if h.actualized]
        if len(marked) != 1:
            violations.append(
                Violation(
                    "actualization",
                    f"stage {stage} has {len(marked)} actualized happenings, expected 1",
                    tuple(marked),
                )
            )

    # flow restrictions on edges
    for e in narrative.edges:
        label = f"{e.source}->{e.target}"
        src = by_id.get(e.source)
        dst = by_id.get(e.target)
        if src is None or dst is None or e.source == e.target:
            violations.append(
                Violation(
                    "flow-restriction-1",
                    f"edge {label} must join two distinct happenings of this narrative",
                    (e.source, e.target),
                )
            )
            continue
        if not src.stage < dst.stage:
            violations.append(
                Violation(
                    "flow-restriction-2",
                    f"edge {label} must advance the stage "
                    f"({src.stage} -> {dst.stage})",
                    (e.source, e.target),
                )
            )
        if e.actor_id not in actor_ids:
            violations.append(
                Violation(
                    "flow-restriction-3",
                    f"edge {label} names undeclared actor {e.actor_id!r}",
                    (e.actor_id,),
                )
            )
        if e.action_id not in action_ids:
            violations.append(
                Violation(
                    "flow-restriction-3",
                    f"edge {label} names undeclared action {e.action_id!r}",
                    (e.action_id,),
                )
            )
        src_members = narrative.participants.get(e.source, frozenset())
        dst_members = narrative.participants.get(e.target, frozenset())
        if e.actor_id not in src_members or e.actor_id not in dst_members:
            violations.append(
                Violation(
                    "flow-restriction-4",
                    f"actor {e.actor_id!r} on edge {label} must participate in "
                    "both endpoint happenings",
                    (e.actor_id, e.source, e.target),
                )
            )

    # flow restriction 5: each actor's participation stages are contiguous
    # over the stages that exist in the narrative
    present_stages = sorted(stages)
    for actor_id in sorted(actor_ids):
        appear = sorted(
            {
                by_id[hid].stage
                for hid, members in narrative.participants.items()
                if actor_id in members and hid in by_id
            }
        )
        if len(appear) < 2:
            continue
        low, high = appear[0], appear[-1]
        for stage in present_stages:
            if low < stage < high and stage not in appear:
                violations.append(
                    Violation(
                        "flow-restriction-5",
                        f"actor {actor_id!r} appears at stages {low} and {high} "
                        f"but skips populated stage {stage}",
                        (actor_id, str(stage)),
                    )
                )

    violations.extend(_chain_violations(narrative))
    return ValidationReport(tuple(violations))


def _chain_violations(narrative: Narrative) -> list[Violation]:
    """Actualized happenings must admit a unique forward chain (Kahn with a
    single candidate at every step, which is equivalent to a Hamiltonian
    path through the actualized subgraph)."""
    actual = [h.happening_id for h in narrative.happenings if h.actualized]
    if len(actual) <= 1:
        return []
    actual_set = set(actual)
    succ: dict[str, set[str]] = {hid: set() for hid in actual}
    indegree = {hid: 0 for hid in actual}
    for e in narrative.edges:
        if e.source in actual_set and e.target in actual_set and e.source != e.target:
            if e.target not in succ[e.source]:
                succ[e.source].add(e.target)
                indegree[e.target] += 1
    order = []
    ready = [hid for hid, d in indegree.items() if d == 0]
    while True:
        if len(ready) != 1:
            return [
                Violation(
                    "partial-acyclicity",
                    "actualized happenings do not form a single chain "
                    f"({len(ready)} candidates at step {len(order) + 1})",
                    tuple(sorted(ready)),
                )
            ]
        current = ready[0]
        order.append(current)
        ready = []
        for nxt in succ[current]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
        if len(order) == len(actual):
            return []
        if not ready:
            remaining = sorted(actual_set - set(order))
            return [
                Violation(
                    "partial-acyclicity",
                    "actualized subgraph contains a cycle or a break; "
                    f"unreached: {', '.join(remaining)}",
                    tuple(remaining),
                )
            ]


# ---------------------------------------------------------------------------
# pivots and mitigation


@dataclass(frozen=True)
class Pivot:
    """An actualized happening that an earlier agentive action could defeat."""

    happening: Happening
    enabling_action: Action
    alternative_action: Action


def find_pivots(narrative: Narrative) -> tuple[Pivot, ...]:
    """Pivots of a validated narrative, in canonical annotation order.

    An annotation yields a pivot when its happening is actualized, its
    enabling action is agentive and appears on an edge starting at an
    earlier stage, and its alternative is a distinct agentive action.
    An empty result means the narrative is not counterfactual.
    """
    report = validate(narrative)
    if not report.ok:
        raise NarrativeInvalidError(report.violations)
    by_id = {h.happening_id: h for h in narrative.happenings}
    actions = {a.action_id: a for a in narrative.actions}
    pivots = []
    for note in narrative.pivots:
        target = by_id.get(note.happening_id)
        enabling = actions.get(note.enables)
        alternative = actions.get(note.defeat)
        if target is None or enabling is None or alternative is None:
            continue
        if not target.actualized or target.stage < 2:
            continue
        if enabling.kind not in _AGENTIVE or alternative.kind not in _AGENTIVE:
            continue
        if alternative.action_id == enabling.action_id:
            continue
        enabled_earlier = any(
            e.action_id == enabling.action_id
            and e.source in by_id
            and by_id[e.source].stage < target.stage
            for e in narrative.edges
        )
        if not enabled_earlier:
            continue
        pivots.append(Pivot(target, enabling, alternative))
    return tuple(pivots)


@dataclass(frozen=True)
class MitigationOutcome:
    baseline_loss: float
    mitigated_loss: float
    reduction: float
    pivot: Pivot
    variant: Narrative


def apply_mitigation(
    narrative: Narrative,
    pivot: Pivot,
    baseline_estimate: RiskEstimate,
    mitigated_estimate: RiskEstimate,
) -> MitigationOutcome:
    """Replace the pivotal happening with its averted alternative.

    The mitigated expected loss must be strictly below the baseline;
    anything else raises. The returned variant de-actualizes the pivotal
    happening and splices an actualized alternative into the chain.
    """
    if pivot not in find_pivots(narrative):
        raise DomainError(
            f"happening {pivot.happening.happening_id!r} with actions "
            f"({pivot.enabling_action.action_id}, {pivot.alternative_action.action_id}) "
            "is not a pivot of this narrative"
        )
    baseline_loss = expected_jump_loss(baseline_estimate)
    mitigated_loss = expected_jump_loss(mitigated_estimate)
    if not mitigated_loss < baseline_loss:
        raise MitigationInvalidError(
            f"mitigated loss {mitigated_loss} must be strictly below "
            f"baseline {baseline_loss}"
        )
    old = pivot.happening
    existing = {h.happening_id for h in narrative.happenings}
    alt_id = old.happening_id + "-alt"
    while alt_id in existing:
        alt_id += "-alt"
    alt = Happening(
        happening_id=alt_id,
        stage=old.stage,
        description=(
            f"{pivot.alternative_action.action_id} averts: {old.description}"
        ),
        context=old.context,
        actualized=True,
    )
    new_happenings = [
        replace(h, actualized=False) if h.happening_id == old.happening_id else h
        for h in narrative.happenings
    ] + [alt]
    new_edges = [
        NarrativeEdge(
            source=alt_id if e.source == old.happening_id else e.source,
            target=alt_id if e.target == old.happening_id else e.target,
            actor_id=e.actor_id,
            action_id=e.action_id,
        )
        for e in narrative.edges
    ]
    actor_at = [
        (actor_id, alt_id if hid == old.happening_id else hid)
        for hid, members in narrative.participants.items()
        for actor_id in members
    ]
    variant = build_narrative(
        round_index=narrative.round,
        risk_id=narrative.risk_id,
        happenings=new_happenings,
        actors=narrative.actors,
        actions=narrative.actions,
        edges=new_edges,
        pivots=[p for p in narrative.pivots if p.happening_id != old.happening_id],
        actor_at=actor_at,
    )
    return MitigationOutcome(
        baseline_loss=baseline_loss,
        mitigated_loss=mitigated_loss,
        reduction=baseline_loss - mitigated_loss,
        pivot=pivot,
        variant=variant,
    )


def mitigator_argmin(
    narrative: Narrative, candidate_losses: Mapping[str, float]
) -> Action:
    """Loss-minimizing action among candidates; ties go to the lowest id."""
    if not candidate_losses:
        raise DomainError("mitigator needs at least one candidate action")
    declared = {a.action_id for a in narrative.actions}
    unknown = sorted(set(candidate_losses) - declared)
    if unknown:
        raise DomainError(f"candidate actions not declared in narrative: {unknown}")
    best_id = min(candidate_losses, key=lambda aid: (candidate_losses[aid], aid))
    return narrative.action(best_id)
