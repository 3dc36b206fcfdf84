"""Narrative parsing, validation, pivots, and mitigation."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkspec import (
    Action,
    ActionKind,
    Actor,
    ActorKind,
    DomainError,
    EstimateSource,
    Happening,
    MitigationInvalidError,
    Narrative,
    NarrativeEdge,
    NarrativeInvalidError,
    NarrativeSyntaxError,
    PivotAnnotation,
    RiskEstimate,
    apply_mitigation,
    build_narrative,
    find_pivots,
    mitigator_argmin,
    parse_narrative,
    serialize_narrative,
    validate,
)
from darkspec.narrative import _tokenize

AGENTIVE = {ActionKind.HUMAN, ActionKind.MACHINE, ActionKind.JOINT}


def rebuild(narrative: Narrative, **overrides) -> Narrative:
    """Reassemble a narrative with mutations, rederiving participant sets."""
    actor_at = [
        (actor_id, hid)
        for hid, members in narrative.participants.items()
        for actor_id in sorted(members)
    ]
    kwargs = dict(
        round_index=narrative.round,
        risk_id=narrative.risk_id,
        happenings=narrative.happenings,
        actors=narrative.actors,
        actions=narrative.actions,
        edges=narrative.edges,
        pivots=narrative.pivots,
        actor_at=actor_at,
    )
    kwargs.update(overrides)
    return build_narrative(**kwargs)


# ---------------------------------------------------------------------------
# parsing


class TestParsing:
    def test_atlanta_scenario(self, atlanta_text):
        n = parse_narrative(atlanta_text)
        assert n.happening_count == 5
        descriptions = [h.description for h in n.happenings]
        assert "car bomb explosion, 100 pounds of TNT" in descriptions
        assert "15,000 curies of Cesium-137" in descriptions
        assert validate(n).ok

    def test_bioweapon_scenario(self, bioweapon_text):
        n = parse_narrative(bioweapon_text)
        assert n.happening_count == 5
        assert n.happenings[-1].description == "5,000 persons ride in the subway cars"
        kinds = {a.actor_id: a.kind for a in n.actors}
        assert kinds["gamma1"] is ActorKind.HUMAN
        assert kinds["gamma2"] is ActorKind.MACHINE
        assert validate(n).ok

    def test_empty_document_is_a_parse_error(self):
        with pytest.raises(NarrativeSyntaxError) as exc:
            parse_narrative("")
        assert exc.value.code == "empty-document"
        with pytest.raises(NarrativeSyntaxError):
            parse_narrative("# only a comment\n\n")

    def test_unknown_keyword_reports_location(self):
        with pytest.raises(NarrativeSyntaxError) as exc:
            parse_narrative("NARRATIVE round=1 risk=r\nBOGUS x\n")
        assert exc.value.line == 2
        assert exc.value.column == 1

    def test_dangling_reference(self):
        text = (
            "NARRATIVE round=1 risk=r\n"
            "ACTOR a kind=human\n"
            "ACTION go kind=human\n"
            'HAPPENING h1 stage=1 actualized "x"\n'
            "EDGE h1 -> h9 actor=a action=go\n"
        )
        with pytest.raises(NarrativeSyntaxError) as exc:
            parse_narrative(text)
        assert exc.value.code == "dangling-reference"
        assert exc.value.line == 5

    def test_duplicate_happening_id(self):
        text = (
            "NARRATIVE round=1 risk=r\n"
            'HAPPENING h1 stage=1 actualized "x"\n'
            'HAPPENING h1 stage=2 actualized "y"\n'
        )
        with pytest.raises(NarrativeSyntaxError) as exc:
            parse_narrative(text)
        assert exc.value.code == "duplicate-id"

    def test_unterminated_string(self):
        with pytest.raises(NarrativeSyntaxError) as exc:
            parse_narrative('NARRATIVE round=1 risk=r\nHAPPENING h stage=1 "oops\n')
        assert exc.value.line == 2

    def test_missing_header(self):
        with pytest.raises(NarrativeSyntaxError):
            parse_narrative('HAPPENING h stage=1 actualized "x"\n')

    def test_inline_comments_and_quotes(self):
        text = (
            "NARRATIVE round=2 risk=r # trailing comment\n"
            'HAPPENING h stage=1 actualized "a # not a comment \\"quoted\\""\n'
        )
        n = parse_narrative(text)
        assert n.happenings[0].description == 'a # not a comment "quoted"'
        assert n.round == 2

    @pytest.mark.parametrize(
        "body, message, code, line, column",
        [
            ("ACTOR x\n", "ACTOR takes <id> kind=<kind>", "syntax", 2, 1),
            ("ACTOR x kind=human extra\n", "ACTOR takes <id> kind=<kind>", "syntax", 2, 1),
            ('ACTOR "x" kind=human\n', "ACTOR takes <id> kind=<kind>", "syntax", 2, 1),
            ("ACTOR x human\n", "expected kind=<value>", "syntax", 2, 9),
            ("ACTOR x kind=\n", "empty value for kind=", "syntax", 2, 9),
            ("ACTOR x  kind=alien\n", "unknown actor kind 'alien'", "syntax", 2, 10),
            ("ACTOR x kind=human\nACTOR  x kind=human\n", "duplicate actor id 'x'",
             "duplicate-id", 3, 8),
            ("ACTION x\n", "ACTION takes <id> kind=<kind>", "syntax", 2, 1),
            ("ACTION x kind=joint extra\n", "ACTION takes <id> kind=<kind>", "syntax", 2, 1),
            ('ACTION "x" kind=joint\n', "ACTION takes <id> kind=<kind>", "syntax", 2, 1),
            ("ACTION x joint\n", "expected kind=<value>", "syntax", 2, 10),
            ("ACTION x kind=\n", "empty value for kind=", "syntax", 2, 10),
            ("ACTION x  kind=magic\n", "unknown action kind 'magic'", "syntax", 2, 11),
            ("ACTION x kind=joint\nACTION  x kind=joint\n", "duplicate action id 'x'",
             "duplicate-id", 3, 9),
        ],
        ids=[
            f"{kw}-{case}"
            for kw in ("actor", "action")
            for case in ("short", "long", "quoted-id", "missing-kind", "empty-kind",
                         "unknown-kind", "duplicate-id")
        ],
    )
    def test_actor_and_action_errors(self, body, message, code, line, column):
        with pytest.raises(NarrativeSyntaxError) as exc:
            parse_narrative("NARRATIVE round=1 risk=r\n" + body)
        assert str(exc.value) == f"line {line}, column {column}: {message}"
        assert (exc.value.code, exc.value.line, exc.value.column) == (code, line, column)


def reference_tokenize(line, line_no):
    """The character loop the regular-expression tokenizer replaced."""
    tokens = []
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "#":
            break
        col = i + 1
        if ch == '"':
            i += 1
            parts = []
            while i < n:
                c = line[i]
                if c == "\\" and i + 1 < n:
                    parts.append(line[i + 1])
                    i += 2
                    continue
                if c == '"':
                    break
                parts.append(c)
                i += 1
            else:
                raise NarrativeSyntaxError("unterminated string", line_no, col)
            i += 1
            tokens.append(("".join(parts), col, True))
        else:
            j = i
            while j < n and not line[j].isspace() and line[j] not in '"#':
                j += 1
            tokens.append((line[i:j], col, False))
            i = j
    return tokens


def tokenize_outcome(tokenize, line):
    try:
        return tokenize(line, 7)
    except NarrativeSyntaxError as exc:
        return (str(exc), exc.code, exc.line, exc.column)


class TestTokenizer:
    @given(st.text(alphabet='ab"#\\ \t\x1f\u00a0\u2003=->\u00e9', max_size=40))
    @settings(max_examples=2000, deadline=None)
    def test_matches_character_loop(self, line):
        assert tokenize_outcome(_tokenize, line) == tokenize_outcome(reference_tokenize, line)

    def test_whitespace_class_is_str_isspace(self):
        every = "".join(map(chr, range(0x110000)))
        assert re.findall(r"\s", every) == [ch for ch in every if ch.isspace()]

    @pytest.mark.parametrize(
        "line, expected",
        [
            ('a"b c"#d', [("a", 1, False), ("b c", 2, True)]),
            ('"" x', [("", 1, True), ("x", 4, False)]),
            ('"\\\\\\"" y', [('\\"', 1, True), ("y", 8, False)]),
            ("x#y", [("x", 1, False)]),
        ],
    )
    def test_examples(self, line, expected):
        assert _tokenize(line, 1) == expected

    @pytest.mark.parametrize("line, column", [('a "b', 3), ('"a\\"', 1), ('x "\\', 3)])
    def test_unterminated_quote_reports_its_column(self, line, column):
        with pytest.raises(NarrativeSyntaxError) as exc:
            _tokenize(line, 4)
        assert (exc.value.line, exc.value.column) == (4, column)
        assert "unterminated string" in str(exc.value)


# ---------------------------------------------------------------------------
# validation


class TestValidation:
    def test_linear_chain_is_ok(self):
        text = (
            "NARRATIVE round=1 risk=r\n"
            "ACTOR a kind=human\n"
            "ACTION go kind=human\n"
            + "".join(
                f'HAPPENING h{i} stage={i} actualized "step {i}"\n' for i in range(1, 6)
            )
            + "".join(
                f"EDGE h{i} -> h{i+1} actor=a action=go\n" for i in range(1, 5)
            )
        )
        assert validate(parse_narrative(text)).ok

    def test_stage_inversion_breaks_restriction_two(self, atlanta_text):
        n = parse_narrative(atlanta_text)
        swapped = []
        for h in n.happenings:
            if h.stage == 2:
                swapped.append(Happening(h.happening_id, 3, h.description, h.context, True))
            elif h.stage == 3:
                swapped.append(Happening(h.happening_id, 2, h.description, h.context, True))
            else:
                swapped.append(h)
        report = validate(rebuild(n, happenings=swapped))
        assert "flow-restriction-2" in report.codes()

    def test_cycle_insertion_breaks_partial_acyclicity(self, atlanta_text):
        n = parse_narrative(atlanta_text)
        back = NarrativeEdge("theta5", "theta1", "bomber", "detonate")
        report = validate(rebuild(n, edges=list(n.edges) + [back]))
        assert "partial-acyclicity" in report.codes()

    def test_dangling_actor_breaks_restriction_three(self, atlanta_text):
        n = parse_narrative(atlanta_text)
        edges = list(n.edges)
        edges[0] = NarrativeEdge(edges[0].source, edges[0].target, "ghost", edges[0].action_id)
        report = validate(rebuild(n, edges=edges))
        assert "flow-restriction-3" in report.codes()

    def test_actor_gap_breaks_restriction_five(self, atlanta_text):
        n = parse_narrative(atlanta_text)
        actors = list(n.actors) + [Actor("observer", ActorKind.HUMAN)]
        actor_at = [
            (actor_id, hid)
            for hid, members in n.participants.items()
            for actor_id in sorted(members)
        ] + [("observer", "theta1"), ("observer", "theta3")]
        report = validate(rebuild(n, actors=actors, actor_at=actor_at))
        assert "flow-restriction-5" in report.codes()
        subjects = {v.subjects for v in report.violations if v.code == "flow-restriction-5"}
        assert ("observer", "2") in subjects

    def test_split_chain_is_rejected(self):
        text = (
            "NARRATIVE round=1 risk=r\n"
            "ACTOR a kind=human\n"
            "ACTION go kind=human\n"
            'HAPPENING h1 stage=1 actualized "x"\n'
            'HAPPENING h2 stage=2 actualized "y"\n'
            'HAPPENING h3 stage=3 actualized "z"\n'
            "EDGE h1 -> h2 actor=a action=go\n"
        )
        report = validate(parse_narrative(text))
        assert "partial-acyclicity" in report.codes()

    def test_transitive_extra_edge_is_allowed(self):
        text = (
            "NARRATIVE round=1 risk=r\n"
            "ACTOR a kind=human\n"
            "ACTION go kind=human\n"
            'HAPPENING h1 stage=1 actualized "x"\n'
            'HAPPENING h2 stage=2 actualized "y"\n'
            'HAPPENING h3 stage=3 actualized "z"\n'
            "EDGE h1 -> h2 actor=a action=go\n"
            "EDGE h2 -> h3 actor=a action=go\n"
            "EDGE h1 -> h3 actor=a action=go\n"
        )
        assert validate(parse_narrative(text)).ok

    def test_two_actualized_on_one_stage(self, atlanta_text):
        n = parse_narrative(atlanta_text)
        extra = Happening("shadow", 3, "parallel possibility", (), True)
        report = validate(rebuild(n, happenings=list(n.happenings) + [extra]))
        assert "actualization" in report.codes()

    def test_edge_to_unknown_happening_breaks_restriction_one(self, atlanta_text):
        n = parse_narrative(atlanta_text)
        edges = list(n.edges) + [NarrativeEdge("theta1", "theta1", "bomber", "detonate")]
        report = validate(rebuild(n, edges=edges))
        assert "flow-restriction-1" in report.codes()

    def test_restriction_four_on_stripped_participants(self, atlanta_text):
        # rebuild without the wind ACTOR-AT and without deriving it from its
        # edge: hand the narrative a participants map missing the edge actor
        n = parse_narrative(atlanta_text)
        stripped = {
            hid: frozenset(m - {"wind"}) for hid, m in n.participants.items()
        }
        broken = Narrative(
            round=n.round,
            risk_id=n.risk_id,
            happenings=n.happenings,
            actors=n.actors,
            actions=n.actions,
            edges=n.edges,
            pivots=n.pivots,
            participants=stripped,
        )
        report = validate(broken)
        assert "flow-restriction-4" in report.codes()


def brute_force_gap_violations(narrative: Narrative) -> set[tuple[str, int]]:
    """Exhaustive scan over (actor, low, mid, high) stage triples."""
    stage_of = {h.happening_id: h.stage for h in narrative.happenings}
    present = sorted({h.stage for h in narrative.happenings})
    appears: dict[str, set[int]] = {}
    for hid, members in narrative.participants.items():
        for actor_id in members:
            appears.setdefault(actor_id, set()).add(stage_of[hid])
    found = set()
    for actor_id, stages in appears.items():
        for low in stages:
            for high in stages:
                for mid in present:
                    if low < mid < high and mid not in stages:
                        found.add((actor_id, mid))
    return found


class TestRestrictionFiveOracle:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, data):
        stages = 5
        actors = [Actor(f"a{i}", ActorKind.HUMAN) for i in range(3)]
        happenings = [
            Happening(f"h{s}", s, f"step {s}", (), True) for s in range(1, stages + 1)
        ]
        actions = [Action("go", ActionKind.HUMAN)]
        # random, possibly gappy participation for every actor
        actor_at = []
        for actor in actors:
            member_stages = data.draw(
                st.sets(st.integers(1, stages), min_size=0, max_size=stages)
            )
            actor_at.extend((actor.actor_id, f"h{s}") for s in member_stages)
        narrative = build_narrative(1, "r", happenings, actors, actions, [], (), actor_at)
        report = validate(narrative)
        flagged = {
            (v.subjects[0], int(v.subjects[1]))
            for v in report.violations
            if v.code == "flow-restriction-5"
        }
        assert flagged == brute_force_gap_violations(narrative)


# ---------------------------------------------------------------------------
# round-trips


ident = st.from_regex(r"[a-z][a-z0-9-]{0,8}", fullmatch=True)
text_strategy = st.text(
    alphabet=st.characters(
        codec="ascii", exclude_characters="\n\r", categories=("L", "N", "P", "Zs")
    ),
    max_size=24,
)


@st.composite
def narratives(draw):
    stages = draw(st.integers(1, 6))
    action_kinds = [
        ActionKind.HUMAN, ActionKind.MACHINE, ActionKind.JOINT, ActionKind.FORCE_MAJEURE,
    ]
    actions = [Action(f"act{i}", action_kinds[i % 4]) for i in range(4)]
    actors = [
        Actor("lead", ActorKind.HUMAN),
        Actor("aide", ActorKind.MACHINE),
        Actor("world", ActorKind.NATURE),
    ]
    happenings = []
    for s in range(1, stages + 1):
        happenings.append(
            Happening(
                f"h{s}", s, draw(text_strategy),
                tuple(draw(st.lists(text_strategy, max_size=2))),
                True,
            )
        )
        if draw(st.booleans()):
            happenings.append(Happening(f"s{s}", s, "unrealized branch", (), False))
    edges = [
        NarrativeEdge(
            f"h{s}", f"h{s+1}", "lead",
            draw(st.sampled_from(actions)).action_id,
        )
        for s in range(1, stages)
    ]
    # contiguous participation span for the aide
    actor_at = []
    if stages >= 2:
        lo = draw(st.integers(1, stages))
        hi = draw(st.integers(lo, stages))
        actor_at = [("aide", f"h{s}") for s in range(lo, hi + 1)]
    pivots = draw(
        st.lists(
            st.builds(
                PivotAnnotation,
                happening_id=st.sampled_from([h.happening_id for h in happenings]),
                enables=st.sampled_from([a.action_id for a in actions]),
                defeat=st.sampled_from([a.action_id for a in actions]),
            ),
            max_size=3,
        )
    )
    return build_narrative(1, "risk-x", happenings, actors, actions, edges, pivots, actor_at)


class TestRoundTrip:
    def test_scenarios_round_trip(self, atlanta_text, bioweapon_text):
        for text in (atlanta_text, bioweapon_text):
            n = parse_narrative(text)
            assert parse_narrative(serialize_narrative(n)) == n

    def test_serialization_is_canonical(self, atlanta_text):
        n = parse_narrative(atlanta_text)
        once = serialize_narrative(n)
        assert serialize_narrative(parse_narrative(once)) == once

    @given(narratives())
    @settings(max_examples=120, deadline=None)
    def test_random_narratives_round_trip(self, narrative):
        assert validate(narrative).ok  # the builder only emits valid narratives
        assert parse_narrative(serialize_narrative(narrative)) == narrative


# ---------------------------------------------------------------------------
# pivots


def brute_force_pivots(narrative: Narrative) -> list[tuple[str, str, str]]:
    """Enumerate every (actualized happening, earlier agentive action) pair,
    then keep annotations that land on one and carry a distinct agentive
    alternative."""
    stage_of = {h.happening_id: h.stage for h in narrative.happenings}
    kind_of = {a.action_id: a.kind for a in narrative.actions}
    enabled_pairs = set()
    for h in narrative.happenings:
        if not h.actualized:
            continue
        for edge in narrative.edges:
            if stage_of[edge.source] < h.stage and kind_of[edge.action_id] in AGENTIVE:
                enabled_pairs.add((h.happening_id, edge.action_id))
    out = []
    for note in narrative.pivots:
        if (note.happening_id, note.enables) not in enabled_pairs:
            continue
        if kind_of[note.defeat] not in AGENTIVE or note.defeat == note.enables:
            continue
        if stage_of[note.happening_id] < 2:
            continue
        out.append((note.happening_id, note.enables, note.defeat))
    return out


class TestFindPivots:
    def test_no_annotations_means_no_pivots(self):
        text = (
            "NARRATIVE round=1 risk=r\n"
            "ACTOR a kind=human\n"
            "ACTION go kind=human\n"
            'HAPPENING h1 stage=1 actualized "x"\n'
            'HAPPENING h2 stage=2 actualized "y"\n'
            "EDGE h1 -> h2 actor=a action=go\n"
        )
        assert find_pivots(parse_narrative(text)) == ()

    def test_bioweapon_has_one_pivot_at_stage_four(self, bioweapon_text):
        n = parse_narrative(bioweapon_text)
        pivots = find_pivots(n)
        assert len(pivots) == 1
        pivot = pivots[0]
        assert pivot.happening.happening_id == "theta4"
        assert pivot.enabling_action.action_id == "query"
        assert pivot.alternative_action.action_id == "flag-query"

    def test_pivots_are_actualized_and_late(self, atlanta_text, bioweapon_text):
        for text in (atlanta_text, bioweapon_text):
            for pivot in find_pivots(parse_narrative(text)):
                assert pivot.happening.actualized
                assert pivot.happening.stage >= 2

    def test_unvalidated_narrative_rejected(self, atlanta_text):
        n = parse_narrative(atlanta_text)
        back = NarrativeEdge("theta5", "theta1", "bomber", "detonate")
        broken = rebuild(n, edges=list(n.edges) + [back])
        with pytest.raises(NarrativeInvalidError):
            find_pivots(broken)

    @given(narratives())
    @settings(max_examples=120, deadline=None)
    def test_matches_exhaustive_enumeration(self, narrative):
        got = [
            (p.happening.happening_id, p.enabling_action.action_id,
             p.alternative_action.action_id)
            for p in find_pivots(narrative)
        ]
        assert got == brute_force_pivots(narrative)


# ---------------------------------------------------------------------------
# mitigation


def estimate(lam, xi, cid="risk-x"):
    return RiskEstimate(
        component_id=cid, lambda_hat=lam, xi_hat=xi, severity_variance=0.0,
        window=1.0, n_events=0, source=EstimateSource.UNDERWRITING, round=1,
    )


class TestMitigation:
    def test_equal_loss_is_invalid(self, bioweapon_text):
        n = parse_narrative(bioweapon_text)
        pivot = find_pivots(n)[0]
        with pytest.raises(MitigationInvalidError):
            apply_mitigation(n, pivot, estimate(1.0, 5.0), estimate(1.0, 5.0))

    def test_strict_reduction_recorded(self, bioweapon_text):
        n = parse_narrative(bioweapon_text)
        pivot = find_pivots(n)[0]
        outcome = apply_mitigation(n, pivot, estimate(1.0, 5.0), estimate(0.5, 2.0))
        assert outcome.baseline_loss == 5.0
        assert outcome.mitigated_loss == 1.0
        assert outcome.reduction == 4.0

    def test_variant_is_valid_with_alternative_happening(self, bioweapon_text):
        n = parse_narrative(bioweapon_text)
        pivot = find_pivots(n)[0]
        outcome = apply_mitigation(n, pivot, estimate(1.0, 5.0), estimate(0.5, 2.0))
        variant = outcome.variant
        assert validate(variant).ok
        original = variant.happening("theta4")
        assert not original.actualized
        alt = variant.happening("theta4-alt")
        assert alt.actualized
        assert alt.stage == original.stage
        assert "flag-query" in alt.description

    def test_foreign_pivot_rejected(self, atlanta_text, bioweapon_text):
        atlanta = parse_narrative(atlanta_text)
        foreign = find_pivots(parse_narrative(bioweapon_text))[0]
        with pytest.raises(DomainError):
            apply_mitigation(atlanta, foreign, estimate(1.0, 5.0), estimate(0.5, 2.0))


class TestMitigatorArgmin:
    def test_singleton(self, bioweapon_text):
        n = parse_narrative(bioweapon_text)
        assert mitigator_argmin(n, {"query": 3.0}).action_id == "query"

    def test_spec_four_action_set(self, bioweapon_text):
        n = parse_narrative(bioweapon_text)
        losses = {"query": 3.0, "synthesize": 1.0, "spread": 4.0, "ride": 2.0}
        assert mitigator_argmin(n, losses).action_id == "synthesize"

    def test_tie_breaks_to_lower_id(self, bioweapon_text):
        n = parse_narrative(bioweapon_text)
        losses = {"spread": 2.0, "query": 2.0}
        assert mitigator_argmin(n, losses).action_id == "query"

    def test_empty_rejected(self, bioweapon_text):
        with pytest.raises(DomainError):
            mitigator_argmin(parse_narrative(bioweapon_text), {})

    def test_undeclared_action_rejected(self, bioweapon_text):
        with pytest.raises(DomainError):
            mitigator_argmin(parse_narrative(bioweapon_text), {"nonsense": 1.0})

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_exhaustive_scan(self, bioweapon_text, data):
        n = parse_narrative(bioweapon_text)
        action_ids = [a.action_id for a in n.actions]
        chosen = data.draw(st.sets(st.sampled_from(action_ids), min_size=1))
        losses = {aid: data.draw(st.floats(0.0, 10.0)) for aid in sorted(chosen)}
        best = mitigator_argmin(n, losses)
        # independent scan: lowest loss, ties to lexicographically lowest id
        scan = sorted(losses.items(), key=lambda kv: (kv[1], kv[0]))[0][0]
        assert best.action_id == scan
