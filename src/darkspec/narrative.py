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

import math
import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Sequence

from .errors import (
    DomainError,
    MitigationInvalidError,
    NarrativeInvalidError,
    NarrativeSyntaxError,
    require,
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
        require("stage", self.stage, "[1, inf)")


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


def _split(line: str, line_no: int) -> list[tuple[str, bool]]:
    """Split one line into the (token, quoted) pairs of :func:`_tokenize`.

    A line without a quote, or whose one quoted string ends it with no '#'
    before it and no backslash in it, splits with str methods, which cut at
    the same whitespace as ``_TOKEN``'s ``\\s``; any other line goes through
    :func:`_tokenize`."""
    quote = line.find('"')
    if quote < 0:
        return [(word, False) for word in line.partition("#")[0].split()]
    head = line[:quote]
    body = line[quote + 1 :].rstrip()
    if ("#" in head or "\\" in body or not body.endswith('"')
            or body.find('"') < len(body) - 1):
        return [(text, quoted) for text, _, quoted in _tokenize(line, line_no)]
    return [(word, False) for word in head.split()] + [(body[:-1], True)]


def _error(message: str, line: str, line_no: int, index: int,
           code: str = "syntax") -> NarrativeSyntaxError:
    """An error at the line's index-th token, whose column is found by
    tokenizing the line again: only a failing line pays for columns."""
    return NarrativeSyntaxError(message, line_no, _tokenize(line, line_no)[index][1], code)


def _parse_int(text: str, what: str, line: str, line_no: int, index: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise _error(f"{what} must be an integer, got {text!r}", line, line_no, index)


# each record's operands, as its "<KEYWORD> takes <usage>" error prints them:
# <...> is a bare word, "<...>" a quoted string, key=<...> a key=value pair,
# [...] an optional word and anything else a literal
_USAGE = {
    "NARRATIVE": "round=<int> risk=<id>",
    "ACTOR": "<id> kind=<kind>",
    "ACTION": "<id> kind=<kind>",
    "HAPPENING": '<id> stage=<int> [actualized] "<description>"',
    "CONTEXT": '<happening-id> "<detail>"',
    "ACTOR-AT": "<actor-id> <happening-id>",
    "EDGE": "<from-id> -> <to-id> actor=<id> action=<id>",
    "PIVOT": "<happening-id> enables=<action-id> defeat=<action-id>",
}

# the operands that must name an earlier record, by the kind of record they name
_REFERENCES = {
    "happening": ("<happening-id>", "<from-id>", "<to-id>"),
    "actor": ("<actor-id>", "actor=<id>"),
    "action": ("action=<id>", "enables=<action-id>", "defeat=<action-id>"),
}


def _shape(usage: str) -> tuple:
    """The checks a usage asks for: (least, most operand count; the (position,
    field) of each token part the arity check reads, a token being (text,
    quoted), and the value it wants there: each word's quoted flag,
    True only for "<...>", then each literal's text, so a literal is bare;
    (position, "key=") pairs; (position, kind) references). Words after an
    optional one are the keyword's own to check."""
    words = list(enumerate(usage.partition(" [")[0].split()))
    plain = [(i, w) for i, w in words if "=" not in w]
    literals = [(i, w) for i, w in plain if w[0] not in '<"']
    least = len(usage.split()) - ("[" in usage)
    return (
        least,
        math.inf if "[" in usage else least,
        [(i, 1) for i, w in plain] + [(i, 0) for i, w in literals],
        [w[0] == '"' for i, w in plain] + [w for i, w in literals],
        tuple((i, w[: w.index("=") + 1]) for i, w in words if "=" in w),
        tuple((i, kind) for i, w in words for kind, named in _REFERENCES.items() if w in named),
    )


_SHAPES = {keyword: _shape(usage) for keyword, usage in _USAGE.items()}


def parse_narrative(text: str) -> Narrative:
    """Parse a narrative document; errors carry line, column, and a code."""
    header: tuple[int, str] | None = None
    happenings: dict[str, tuple[int, str, bool]] = {}  # id -> (stage, description, actualized)
    actors: dict[str, Actor] = {}
    actions: dict[str, Action] = {}
    edges: list[NarrativeEdge] = []
    pivots: list[PivotAnnotation] = []
    actor_at: list[tuple[str, str]] = []
    contexts: dict[str, list[str]] = {}
    tables = {"happening": happenings, "actor": actors, "action": actions}

    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = _split(line, line_no)
        if not tokens:
            continue
        keyword, quoted = tokens[0]
        if quoted:
            raise _error("record must start with a keyword", line, line_no, 0)
        shape = _SHAPES.get(keyword)
        if shape is None:
            raise _error(f"unknown keyword {keyword!r}", line, line_no, 0)
        if keyword == "NARRATIVE" and header is not None:
            raise _error("duplicate NARRATIVE header", line, line_no, 0, "duplicate-id")

        # the operand check: arity and quoting, then each key=value, then each
        # reference, all in operand order; operand i is the line's token i + 1
        least, most, fields, wants, keys, references = shape
        rest = tokens[1:]
        if not least <= len(rest) <= most or [rest[i][f] for i, f in fields] != wants:
            raise _error(f"{keyword} takes {_USAGE[keyword]}", line, line_no, 0)
        values = [token[0] for token in rest]
        for i, key in keys:
            word, quoted = rest[i]
            if quoted or not word.startswith(key):
                raise _error(f"expected {key}<value>", line, line_no, i + 1)
            values[i] = word[len(key) :]
            if not values[i]:
                raise _error(f"empty value for {key}", line, line_no, i + 1)
        for i, kind in references:
            if values[i] not in tables[kind]:
                raise _error(f"unknown {kind} {values[i]!r}", line, line_no, i + 1,
                             "dangling-reference")

        if keyword == "NARRATIVE":
            header = (_parse_int(values[0], "round", line, line_no, 1), values[1])
        elif keyword in ("ACTOR", "ACTION"):
            noun = keyword.lower()
            kinds, cls = (ActorKind, Actor) if noun == "actor" else (ActionKind, Action)
            record_id, kind_text = values
            try:
                kind = kinds(kind_text)
            except ValueError:
                raise _error(f"unknown {noun} kind {kind_text!r}", line, line_no, 2)
            if record_id in tables[noun]:
                raise _error(f"duplicate {noun} id {record_id!r}", line, line_no, 1,
                             "duplicate-id")
            tables[noun][record_id] = cls(record_id, kind)
        elif keyword == "HAPPENING":
            stage = _parse_int(values[1], "stage", line, line_no, 2)
            actualized = not rest[2][1] and rest[2][0] == "actualized"
            if len(rest) != 3 + actualized or not rest[-1][1]:
                raise _error("HAPPENING needs a quoted description", line, line_no, 0)
            if values[0] in happenings:
                raise _error(f"duplicate happening id {values[0]!r}", line, line_no, 1,
                             "duplicate-id")
            if stage < 1:
                raise _error(f"stage must be >= 1, got {stage}", line, line_no, 2)
            happenings[values[0]] = (stage, values[-1], actualized)
        elif keyword == "CONTEXT":
            contexts.setdefault(values[0], []).append(values[1])
        elif keyword == "ACTOR-AT":
            actor_at.append((values[0], values[1]))
        elif keyword == "EDGE":
            edges.append(NarrativeEdge(values[0], values[2], values[3], values[4]))
        else:
            pivots.append(PivotAnnotation(*values))

    # every record but the header adds a happening, an actor or an action, or names one
    if header is None and not (happenings or actors or actions):
        raise NarrativeSyntaxError("document contains no records", 1, 1,
                                   code="empty-document")
    if header is None:
        raise NarrativeSyntaxError("missing NARRATIVE header", 1, 1)

    return build_narrative(
        round_index=header[0],
        risk_id=header[1],
        happenings=[
            Happening(hid, stage, description, tuple(contexts.get(hid, ())), actualized)
            for hid, (stage, description, actualized) in happenings.items()
        ],
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


def apply_mitigation(
    narrative: Narrative,
    pivot: Pivot,
    baseline_estimate: RiskEstimate,
    mitigated_estimate: RiskEstimate,
) -> Narrative:
    """Replace the pivotal happening with its averted alternative, and return
    the variant narrative.

    A ``pivot`` not among ``find_pivots(narrative)`` raises DomainError. The
    mitigated expected loss must be strictly below the baseline, or
    MitigationInvalidError is raised. The variant de-actualizes the pivotal
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
    return build_narrative(
        round_index=narrative.round,
        risk_id=narrative.risk_id,
        happenings=new_happenings,
        actors=narrative.actors,
        actions=narrative.actions,
        edges=new_edges,
        pivots=[p for p in narrative.pivots if p.happening_id != old.happening_id],
        actor_at=actor_at,
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
