"""Round loop, moment losses, gates, red lines, and the stopping oracle."""

import json
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from darkspec import (
    Action,
    ActionKind,
    Actor,
    ActorKind,
    CostModel,
    DomainError,
    EngineConfig,
    EstimateSource,
    Happening,
    LossWeights,
    NarrativeEdge,
    NarrativeInvalidError,
    NarrativeQuality,
    ParameterError,
    PsiShape,
    RedLineConfig,
    RiskEstimate,
    RoundAbortedError,
    RoundBenefits,
    RoundDeltas,
    RoundLedger,
    UnderwritingResult,
    build_narrative,
    compute_pkre,
    estimate_from_observation,
    expected_jump_loss,
    community_precision_condition,
    continuation,
    hyperanxiety_avoidance,
    optimal_stopping_brute,
    read_ledger,
    red_line_check,
    replay_ledger,
    run_round,
    statistical_loss,
    write_ledger,
)
from darkspec.engine import append_record, statistical_delta_new_risk
from darkspec.estimation import estimate_loss_variance


def chain_narrative(risk_id: str, round_index: int, stages: int = 3):
    happenings = [
        Happening(f"h{s}", s, f"step {s}", (), True) for s in range(1, stages + 1)
    ]
    edges = [NarrativeEdge(f"h{s}", f"h{s+1}", "lead", "go") for s in range(1, stages)]
    return build_narrative(
        round_index, risk_id, happenings,
        [Actor("lead", ActorKind.HUMAN)], [Action("go", ActionKind.HUMAN)],
        edges,
    )


class TestStatisticalLoss:
    def test_zero_gaps_zero_loss(self):
        weights = LossWeights()
        assert statistical_loss(weights, [(0.0, 0.0), (0.0, 0.0)]) == 0.0

    def test_quadratic_substitution(self):
        weights = LossWeights(d1=1.0, d2=1.0, psi_shape=PsiShape.QUADRATIC)
        assert statistical_loss(weights, [(-10.0, -8.0)]) == pytest.approx(164.0)

    def test_nonnegative_and_zero_only_at_zero(self):
        weights = LossWeights(d1=2.0, d2=3.0)
        assert statistical_loss(weights, [(-0.5, 0.25)]) > 0.0
        assert statistical_loss(weights, []) == 0.0

    @given(st.lists(st.tuples(st.floats(-20, 20), st.floats(-20, 20)), max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_absolute_vs_quadratic_componentwise(self, gaps):
        quad = LossWeights(psi_shape=PsiShape.QUADRATIC)
        absv = LossWeights(psi_shape=PsiShape.ABSOLUTE)
        for g1, g2 in gaps:
            for gap in (g1, g2):
                q = statistical_loss(quad, [(gap, 0.0)])
                a = statistical_loss(absv, [(gap, 0.0)])
                assert q >= 0.0 and a >= 0.0
                if abs(gap) >= 1.0:
                    assert q >= a
                else:
                    assert q <= a

    def test_phi_scales_inside_psi(self):
        weights = LossWeights(d1=1.0, d2=1.0, phi=2.0)
        assert statistical_loss(weights, [(-3.0, 0.0)]) == pytest.approx(36.0)

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6)),
                st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6)),
            ),
            max_size=6,
        ),
        st.sampled_from([PsiShape.QUADRATIC, PsiShape.ABSOLUTE]),
    )
    @settings(max_examples=150, deadline=None)
    def test_zero_exactly_when_all_gaps_zero(self, gaps, shape):
        # gap magnitudes bounded away from the denormal range: squaring a
        # gap below ~1e-162 underflows to zero and would break the iff
        weights = LossWeights(psi_shape=shape)
        loss = statistical_loss(weights, gaps)
        assert loss >= 0.0
        assert (loss == 0.0) == all(g1 == 0.0 and g2 == 0.0 for g1, g2 in gaps)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["d1", "d2", "phi", "sigma2_max", "sigma2_min", "eta"])
def test_loss_and_quality_parameters_must_be_finite(field, value):
    if field in ("d1", "d2", "phi"):
        make, args = LossWeights, {}
    else:
        make, args = NarrativeQuality, {"sigma2_max": 5.0, "sigma2_min": 1.0, "eta": 0.2}
    with pytest.raises(ParameterError, match=f"^{field} must lie in "):
        make(**{**args, field: value})


class TestConstantGate:
    def test_zero_costs_would_continue(self):
        costs = CostModel.constant(c_write=1e-9, c_spec=1e-9)
        assert continuation(
            costs, 1, 1, RoundDeltas(statistical=1.0, mitigation=0.0, option=0.0)
        )

    def test_zero_deltas_positive_costs_stop(self):
        costs = CostModel.constant(c_write=1.0, c_spec=1.0)
        assert not continuation(
            costs, 1, 1, RoundDeltas(statistical=0.0, mitigation=0.0, option=0.0)
        )

    def test_geometric_deltas_first_stop_matches_scan(self):
        # deltas 10 * 0.5^r against cost 2: first refusal where 10*0.5^r < 2
        costs = CostModel.constant(c_write=1.0, c_spec=1.0)
        decisions = [
            continuation(costs, 1, r, RoundDeltas(10.0 * 0.5**r, 0.0, 0.0))
            for r in range(1, 21)
        ]
        first_stop = decisions.index(False) + 1
        scan = next(r for r in range(1, 21) if 10.0 * 0.5**r < 2.0)
        assert first_stop == scan == 3

    @pytest.mark.parametrize("c_spec", [0.0, -1.0, math.nan, math.inf])
    def test_speculation_cost_must_be_finite_and_positive(self, c_spec):
        with pytest.raises(ParameterError, match="c_spec"):
            CostModel.constant(0.1, c_spec)


class TestVariableGate:
    quality = NarrativeQuality(sigma2_max=5.0, sigma2_min=1.0, eta=0.2)

    def test_noise_variance_at_unit_happening_count(self):
        assert self.quality.noise_variance(1) == pytest.approx(4.0)

    def test_noise_variance_clamps_at_zero(self):
        assert self.quality.noise_variance(50) == 0.0

    def test_noise_variance_frozen_scalar(self):
        # 5 - exp(0.4) * 1
        assert self.quality.noise_variance(3) == pytest.approx(
            3.5081753023587297, abs=1e-12
        )

    def test_decision_matches_hand_inequality(self):
        costs = CostModel.variable_cost(c_write=1.0)
        deltas = RoundDeltas(statistical=2.0, mitigation=0.5, option=0.25)
        for h_r, round_index in ((1, 1), (3, 2), (9, 5)):
            lhs = 1.0 + math.log1p(h_r) + (math.log(round_index + 2) - math.log(round_index + 1))
            assert continuation(costs, h_r, round_index, deltas) == (lhs <= 2.75)

    def test_bad_inputs_rejected(self):
        costs = CostModel.variable_cost(c_write=1.0)
        with pytest.raises(DomainError):
            continuation(costs, 0, 1, RoundDeltas(0, 0, 0))

    def test_variable_cost_engine_config_requires_quality(self):
        with pytest.raises(ParameterError):
            EngineConfig(costs=CostModel.variable_cost(c_write=1.0))


class TestGateLhs:
    """The gate's left side is summed in one order in both cost modes, so a
    reordered sum, which can differ in the last bit, fails here: the gate
    continues when the deltas equal that sum, and stops one float below it."""

    @given(
        c_write=st.floats(1e-6, 1e6),
        c_spec=st.floats(1e-6, 1e6),
        happening_count=st.integers(1, 1000),
        round_index=st.integers(1, 10_000),
    )
    @settings(max_examples=300, deadline=None)
    def test_lhs_bits(self, c_write, c_spec, happening_count, round_index):
        crowding = math.log(round_index + 2) - math.log(round_index + 1)
        for costs, lhs in (
            (CostModel.constant(c_write, c_spec), c_write + c_spec),
            (CostModel.variable_cost(c_write), c_write + math.log1p(happening_count) + crowding),
        ):
            at = RoundDeltas(lhs, 0.0, 0.0)
            assert at.total == lhs
            assert continuation(costs, happening_count, round_index, at)
            below = RoundDeltas(math.nextafter(lhs, -math.inf), 0.0, 0.0)
            assert not continuation(costs, happening_count, round_index, below)

    @pytest.mark.parametrize(
        "costs", [CostModel.constant(1.0, 1.0), CostModel.variable_cost(1.0)],
        ids=["constant", "variable"],
    )
    def test_round_index_below_one_rejected(self, costs):
        with pytest.raises(DomainError, match="round index"):
            continuation(costs, 1, 0, RoundDeltas(0, 0, 0))


class TestRedLine:
    config = RedLineConfig(nu_star=10.0)

    def test_below_threshold_not_triggered(self):
        assert not red_line_check(9.99, self.config)

    def test_boundary_equality_not_triggered(self):
        assert not red_line_check(10.0, self.config)

    def test_above_threshold_triggered(self):
        assert red_line_check(10.0 + 1e-12, self.config)

    @given(st.floats(0.0, 100.0), st.floats(0.0, 100.0))
    @settings(max_examples=150, deadline=None)
    def test_monotone_upward_closed(self, base, bump):
        if red_line_check(base, self.config):
            assert red_line_check(base + bump, self.config)

    def test_nu_star_must_be_positive(self):
        with pytest.raises(ParameterError):
            RedLineConfig(nu_star=0.0)


class TestHyperanxiety:
    config = RedLineConfig(nu_star=50.0)

    def test_huge_threshold_always_avoided(self):
        assert hyperanxiety_avoidance(0.0, 1.0, 1.0, 0.0, self.config, 1)

    def test_full_detection_avoids_iff_rhs_negative(self):
        config = RedLineConfig(nu_star=1.0)
        # pi = 1 makes the left side exactly 0
        assert hyperanxiety_avoidance(1.0, 10.0, 10.0, 0.0, config, 2) == (
            (10.0 * 10.0 - 0.0) / 2 - 1.0 < 0.0
        )
        assert not hyperanxiety_avoidance(1.0, 10.0, 10.0, 0.0, config, 2)
        assert hyperanxiety_avoidance(1.0, 10.0, 10.0, 99.5, config, 1)

    def test_grid_directions_under_literal_inequality(self):
        # avoidance frequency falls as detection rises (the naive analyst is
        # protected by ignorance); with anxious estimates above the prior,
        # the marginal-contribution term shrinks in R, so later rounds avoid
        # more often under the literal inequality
        config = RedLineConfig(nu_star=5.0)
        by_pi = []
        for pi in (0.0, 0.25, 0.5, 0.75, 1.0):
            avoided = sum(
                hyperanxiety_avoidance(pi, 8.0, 5.0, 2.0, config, r) for r in range(1, 11)
            )
            by_pi.append(avoided)
        assert all(a >= b for a, b in zip(by_pi, by_pi[1:]))
        by_round = [
            sum(
                hyperanxiety_avoidance(pi, 8.0, 5.0, 2.0, config, r)
                for pi in (0.0, 0.25, 0.5, 0.75, 1.0)
            )
            for r in range(1, 11)
        ]
        assert all(a <= b for a, b in zip(by_round, by_round[1:]))

    def test_round_below_one_rejected(self):
        with pytest.raises(DomainError):
            hyperanxiety_avoidance(0.5, 1.0, 1.0, 0.0, self.config, 0)


class TestCommunityPrecision:
    def test_flat_derivative_does_not_improve(self):
        assert not community_precision_condition(0.0, 2.0, 3)

    def test_zero_prior_rate_improves(self):
        assert community_precision_condition(0.1, 0.0, 1)

    @given(
        st.floats(-5.0, 5.0), st.floats(0.0, 5.0), st.integers(1, 20)
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_direct_inequality(self, derivative, prev, round_index):
        assert community_precision_condition(derivative, prev, round_index) == (
            derivative > prev / round_index
        )


class TestBruteStopping:
    def test_all_negative_stops_immediately(self):
        assert optimal_stopping_brute([-1.0, -2.0, -0.5], rho=0.9)[0] == 0

    def test_all_positive_runs_to_horizon(self):
        assert optimal_stopping_brute([1.0, 0.5, 0.25], rho=1.0)[0] == 3

    def test_enumerated_example(self):
        tau_star, values = optimal_stopping_brute([5.0, 3.0, 1.0, -1.0, -3.0], rho=1.0)
        assert tau_star == 3
        assert values[3] == pytest.approx(9.0)

    def test_a_running_value_past_the_float_range_raises(self):
        with pytest.raises(DomainError, match="after round 2 overflows"):
            optimal_stopping_brute([1e308, 1e308, -1e308], rho=1.0)

    def test_tie_breaks_to_earliest(self):
        # stopping after round 1 or 3 both give 1.0; earliest wins
        assert optimal_stopping_brute([1.0, -1.0, 1.0], rho=1.0)[0] == 1

    def test_horizon_bounds(self):
        with pytest.raises(DomainError):
            optimal_stopping_brute([], rho=0.5)
        with pytest.raises(DomainError):
            optimal_stopping_brute([1.0] * 31, rho=0.5)
        with pytest.raises(DomainError):
            optimal_stopping_brute([1.0], rho=0.0)

    @given(
        st.floats(1.0, 20.0), st.floats(0.3, 0.95), st.floats(0.1, 5.0)
    )
    @settings(max_examples=100, deadline=None)
    def test_gate_agrees_under_monotone_deltas(self, initial, decay, cost):
        # one-step-lookahead optimality: with nonincreasing deltas and no
        # discounting, the first gate refusal marks the brute-force optimum.
        # At exact indifference (u_r == 0) continuing and stopping have equal
        # value; the gate continues while the infimum rule stops, so ties are
        # excluded rather than papered over.
        from hypothesis import assume

        costs = CostModel.constant(c_write=cost / 2, c_spec=cost / 2)
        deltas = [initial * decay**r for r in range(1, 21)]
        utilities = [d - cost for d in deltas]
        assume(all(u != 0.0 for u in utilities))
        completed = 0
        for r, delta in enumerate(deltas, start=1):
            if not continuation(costs, 1, r, RoundDeltas(delta, 0.0, 0.0)):
                break
            completed = r
        assert completed == optimal_stopping_brute(utilities, rho=1.0)[0]


class TestRunRound:
    config = EngineConfig(costs=CostModel.constant(c_write=1.0, c_spec=2.0))

    def underwriting(self, lam, xi, s2=0.0):
        return lambda _n: UnderwritingResult(lambda_hat=lam, xi_hat=xi, severity_variance=s2)

    def test_first_round_pkre_is_single_product(self):
        ledger = run_round(
            RoundLedger(), chain_narrative("risk-a", 1), self.underwriting(0.5, 10.0),
            [], self.config, RoundBenefits(0.0, 0.0),
        )
        record = ledger.records[0]
        assert record.pkre.total == 5.0
        assert record.k_imagined == 1
        assert record.newly_imagined

    def test_zero_rate_round_leaves_total_unchanged(self):
        ledger = run_round(
            RoundLedger(), chain_narrative("risk-a", 1), self.underwriting(0.5, 10.0),
            [], self.config, RoundBenefits(0.0, 0.0),
        )
        ledger = run_round(
            ledger, chain_narrative("risk-b", 2), self.underwriting(0.0, 123.0),
            [], self.config, RoundBenefits(0.0, 0.0),
        )
        assert ledger.records[1].pkre.total == ledger.records[0].pkre.total

    def test_three_scripted_rounds_accumulate(self):
        script = [("risk-a", 0.5, 10.0), ("risk-b", 1.0, 2.0), ("risk-c", 0.25, 8.0)]
        ledger = RoundLedger()
        for i, (risk, lam, xi) in enumerate(script, start=1):
            ledger = run_round(
                ledger, chain_narrative(risk, i), self.underwriting(lam, xi),
                [], self.config, RoundBenefits(0.0, 0.0),
            )
        assert ledger.pkre_history() == [5.0, 7.0, 9.0]
        assert [r.k_imagined for r in ledger.records] == [1, 2, 3]

    def test_respeculating_a_risk_updates_not_duplicates(self):
        ledger = run_round(
            RoundLedger(), chain_narrative("risk-a", 1), self.underwriting(0.5, 10.0),
            [], self.config, RoundBenefits(0.0, 0.0),
        )
        ledger = run_round(
            ledger, chain_narrative("risk-a", 2), self.underwriting(1.0, 10.0),
            [], self.config, RoundBenefits(0.0, 0.0),
        )
        record = ledger.records[1]
        assert not record.newly_imagined
        assert record.k_imagined == 1
        assert record.pkre.total == 10.0

    def test_underwriting_failure_leaves_ledger_untouched(self):
        ledger = run_round(
            RoundLedger(), chain_narrative("risk-a", 1), self.underwriting(0.5, 10.0),
            [], self.config, RoundBenefits(0.0, 0.0),
        )

        def boom(_n):
            raise ValueError("no quorum")

        with pytest.raises(RoundAbortedError):
            run_round(
                ledger, chain_narrative("risk-b", 2), boom, [], self.config,
                RoundBenefits(0.0, 0.0),
            )
        assert len(ledger.records) == 1

    def test_invalid_narrative_rejected_before_underwriting(self):
        n = chain_narrative("risk-a", 1)
        broken = build_narrative(
            1, "risk-a", n.happenings, n.actors, n.actions,
            list(n.edges) + [NarrativeEdge("h3", "h1", "lead", "go")],
        )
        calls = []

        def spy(_n):
            calls.append(1)
            return UnderwritingResult(1.0, 1.0)

        with pytest.raises(NarrativeInvalidError):
            run_round(RoundLedger(), broken, spy, [], self.config, RoundBenefits(0, 0))
        assert calls == []

    def test_wrong_round_index_rejected(self):
        with pytest.raises(DomainError):
            run_round(
                RoundLedger(), chain_narrative("risk-a", 5),
                self.underwriting(1.0, 1.0), [], self.config, RoundBenefits(0, 0),
            )

    def test_costs_debited_with_sponsorship(self):
        config = EngineConfig(costs=CostModel.constant(c_write=1.0, c_spec=2.0, c_obs=0.5))
        ledger = run_round(
            RoundLedger(), chain_narrative("risk-a", 1), self.underwriting(1.0, 1.0),
            [], config, RoundBenefits(0.0, 0.0), sponsored=True,
        )
        costs = ledger.records[0].costs
        assert (costs.speculation, costs.writing, costs.observation) == (2.0, 1.0, 0.5)
        assert costs.total == 3.5

    def test_variable_costs_charge_log_happenings(self):
        config = EngineConfig(
            costs=CostModel.variable_cost(c_write=1.0),
            quality=NarrativeQuality(5.0, 1.0, 0.2),
        )
        ledger = run_round(
            RoundLedger(), chain_narrative("risk-a", 1, stages=4),
            self.underwriting(1.0, 1.0), [], config, RoundBenefits(0.0, 0.0),
        )
        assert ledger.records[0].costs.speculation == pytest.approx(math.log(5.0))

    def test_round_indices_strictly_increase(self):
        ledger = RoundLedger()
        for i in range(1, 5):
            ledger = run_round(
                ledger, chain_narrative(f"r{i}", i), self.underwriting(1.0, 1.0),
                [], self.config, RoundBenefits(0.0, 0.0),
            )
        rounds = [r.round for r in ledger.records]
        assert rounds == [1, 2, 3, 4]
        growth = [r.k_imagined for r in ledger.records]
        assert all(b - a in (0, 1) for a, b in zip(growth, growth[1:]))


class TestLedgerPersistence:
    def build_ledger(self):
        config = EngineConfig(
            costs=CostModel.constant(c_write=1.0, c_spec=2.0),
            redline=RedLineConfig(nu_star=8.0),
        )
        ledger = RoundLedger()
        script = [
            ("risk-a", 0.5, 10.0, 1.0, 0.5),
            ("risk-b", 1.0, 2.0, 0.8, 0.4),
            ("risk-c", 0.25, 8.0, 0.6, 0.3),
        ]
        for i, (risk, lam, xi, m, o) in enumerate(script, start=1):
            ledger = run_round(
                ledger, chain_narrative(risk, i),
                lambda _n, lam=lam, xi=xi: UnderwritingResult(lam, xi, 0.5, 1.0),
                [], config, RoundBenefits(m, o), sponsored=(i == 2),
            )
        return ledger, config

    def test_write_read_round_trip(self, tmp_path):
        ledger, _ = self.build_ledger()
        path = tmp_path / "ledger.jsonl"
        write_ledger(ledger, path)
        assert read_ledger(path) == ledger

    def test_incremental_append_equals_bulk_write(self, tmp_path):
        ledger, _ = self.build_ledger()
        bulk = tmp_path / "bulk.jsonl"
        incremental = tmp_path / "incremental.jsonl"
        write_ledger(ledger, bulk)
        previous = None
        for record in ledger.records:
            append_record(record, incremental, previous)
            previous = record
        assert incremental.read_bytes() == bulk.read_bytes()

    def test_replay_reproduces_records_bit_identically(self, tmp_path):
        ledger, config = self.build_ledger()
        path = tmp_path / "ledger.jsonl"
        write_ledger(ledger, path)
        persisted = read_ledger(path)
        assert replay_ledger(persisted, config) == persisted

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: "{not json}",
            lambda d: {**d, "schema_version": 3},
            lambda d: {"schema_version": 1},
            lambda d: {k: v for k, v in d.items() if k != "decision"},
            lambda d: {**d, "surplus": 1},
            lambda d: {**d, "underwriting": {**d["underwriting"], "surplus": 1}},
            lambda d: [],
            lambda d: 7,
            lambda d: {**d, "pkre": 5.0},
            lambda d: {**d, "underwriting": []},
            lambda d: {**d, "observed": [{**d["observed"][0], "source": "guess"}]},
            lambda d: {**d, "observed": [{**d["observed"][0], "window": -1.0}]},
            lambda d: b'{"round": "\xff"}',
            # only a v2 line may carry the feed of the line before it over
            lambda d: {k: v for k, v in d.items() if k != "observed"} | {"schema_version": 1},
            # equal to 1 and 2 but not integers
            lambda d: {**d, "schema_version": True},
            lambda d: {**d, "schema_version": 2.0},
            lambda d: {**d, "pkre": {k: v for k, v in d["pkre"].items() if k != "total"}},
            lambda d: {**d, "pkre": {**d["pkre"], "round": 1}},
        ],
        ids=[
            "malformed-json", "schema-version", "missing-keys", "missing-key",
            "unknown-key", "unknown-nested-key", "list", "number", "pkre-scalar",
            "nested-list", "bad-source", "negative-window", "not-utf8", "v1-without-feed",
            "bool-version", "float-version", "pkre-missing-key", "pkre-unknown-key",
        ],
    )
    def test_read_errors_name_file_and_line(self, tmp_path, edit):
        ledger, _ = self.build_ledger()
        feed = (estimate_from_observation("obs", [1.0, 3.0], 2.0),)
        record = replace(ledger.records[0], observed=feed)
        path = tmp_path / "ledger.jsonl"
        write_ledger(RoundLedger(records=(record,)), path)
        good = path.read_text(encoding="utf-8")
        bad = edit(json.loads(good))
        if not isinstance(bad, bytes):
            bad = (bad if isinstance(bad, str) else json.dumps(bad)).encode("utf-8")
        path.write_bytes(good.encode("utf-8") + b"\n" + bad + b"\n")
        with pytest.raises(DomainError, match=f"^{re.escape(str(path))}:3: "):
            read_ledger(path)

    @pytest.mark.parametrize("underwriting, detail", [
        ({"lambda_hat": 1e300, "xi_hat": 1e300}, "the expected loss of 'atlanta-rdd' is inf"),
        ({"lambda_hat": -1.0}, "lambda_hat must lie in [0, inf), got -1.0"),
    ], ids=["loss-inf", "negative-rate"])
    def test_a_bad_underwriting_estimate_names_its_line(self, tmp_path, underwriting, detail):
        # a line that decodes but whose estimate the imagined set would refuse
        example = Path(__file__).parent / "data" / "ledger_example.jsonl"
        first = json.loads(example.read_text(encoding="utf-8").splitlines()[0])
        first["underwriting"].update(underwriting)
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps(first) + "\n", encoding="utf-8")
        with pytest.raises(DomainError, match=f"^{re.escape(f'{path}:1: {detail}')}$"):
            read_ledger(path)

    def test_a_value_that_is_not_finite_is_never_written(self, tmp_path):
        # RFC 8259 JSON has no Infinity or NaN
        ledger, _ = self.build_ledger()
        record = replace(ledger.records[0], pkre=replace(ledger.records[0].pkre, total=math.inf))
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_ledger(RoundLedger(records=(record,)), tmp_path / "ledger.jsonl")

    @pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
    def test_a_value_that_is_not_finite_is_never_read(self, tmp_path, constant):
        ledger, _ = self.build_ledger()
        path = tmp_path / "ledger.jsonl"
        write_ledger(ledger, path)
        first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        first["deltas"]["mitigation"] = float(constant)  # json.dumps writes it bare
        path.write_text(json.dumps(first) + "\n", encoding="utf-8")
        expected = f"^{re.escape(str(path))}:1: {constant} is not RFC 8259 JSON$"
        with pytest.raises(DomainError, match=expected):
            read_ledger(path)

    def test_first_line_has_no_feed_to_carry(self, tmp_path):
        ledger, _ = self.build_ledger()
        path = tmp_path / "ledger.jsonl"
        write_ledger(ledger, path)
        first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        del first["observed"]
        path.write_text("\n" + json.dumps(first) + "\n", encoding="utf-8")
        expected = f"^{re.escape(str(path))}:2: missing key 'observed'"
        with pytest.raises(DomainError, match=expected):
            read_ledger(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        ledger, _ = self.build_ledger()
        path = tmp_path / "ledger.jsonl"
        write_ledger(ledger, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("\n".join(lines) + "\n  \n", encoding="utf-8")
        assert read_ledger(path) == ledger

    def test_red_line_transition_detected_in_sweep(self):
        ledger, _ = self.build_ledger()
        flags = [r.red_line for r in ledger.records]
        totals = ledger.pkre_history()
        # trajectory 5, 7, 9 against threshold 8: trigger exactly at round 3
        assert totals == [5.0, 7.0, 9.0]
        assert flags == [False, False, True]


def feed_of(version: int, zero: float) -> tuple:
    """A one-row observed feed; ``zero`` (0.0 or -0.0) is its mean severity."""
    return (RiskEstimate("obs", float(version), zero, 0.0, 1.0, version,
                         EstimateSource.OBSERVED_HISTORY, total_loss=zero),)


class TestCarriedFeed:
    """A v2 line leaves its feed out when the record holds the very tuple the
    record before it holds, and reads back with that tuple."""

    config = EngineConfig(
        costs=CostModel.constant(c_write=1.0, c_spec=2.0),
        redline=RedLineConfig(nu_star=8.0),
    )

    @staticmethod
    def feeds(steps):
        """Each round's feed, from what each round does to the one before."""
        feed, version, zero = feed_of(1, 0.0), 1, 0.0
        for step in steps:
            if step == "new-equal":
                feed = tuple([*feed])  # equal, but not the same object
            elif step == "change":
                version += 1
                feed = feed_of(version, zero)
            elif step == "empty":
                feed = ()
            elif step == "flip-zero":  # equal under ==, different bits
                zero = -zero
                feed = feed_of(version, zero)
            yield feed

    @given(st.lists(
        st.sampled_from(["share", "new-equal", "change", "empty", "flip-zero"]),
        min_size=1, max_size=8,
    ))
    @settings(max_examples=100, deadline=None)
    def test_feed_patterns_round_trip_bit_for_bit(self, steps):
        ledger = RoundLedger()
        for i, feed in enumerate(self.feeds(steps), start=1):
            ledger = run_round(
                ledger, chain_narrative(f"risk-{i % 3}", i),
                lambda _n, i=i: UnderwritingResult(0.5 * i, 2.0, 0.5, 1.0),
                feed, self.config, RoundBenefits(0.5, 0.25),
            )
        with tempfile.TemporaryDirectory() as tmp:
            path, again, appended = (Path(tmp) / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
            write_ledger(ledger, path)
            persisted = read_ledger(path)
            # repr tells -0.0 from 0.0, which == does not
            assert persisted == ledger and repr(persisted) == repr(ledger)
            write_ledger(persisted, again)
            assert again.read_bytes() == path.read_bytes()
            replayed = replay_ledger(persisted, self.config)
            assert repr(replayed) == repr(persisted)
            write_ledger(replayed, again)
            assert again.read_bytes() == path.read_bytes()
            for previous, record in zip((None, *ledger.records), ledger.records):
                append_record(record, appended, previous)
            assert appended.read_bytes() == path.read_bytes()
            lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        written, read = ledger.records, persisted.records
        for i in range(1, len(lines)):
            carried = written[i].observed is written[i - 1].observed
            assert ("observed" not in lines[i]) == carried
            assert (read[i].observed is read[i - 1].observed) == carried


class TestImaginedMap:
    config = EngineConfig(
        costs=CostModel.constant(c_write=1.0, c_spec=2.0),
        redline=RedLineConfig(nu_star=8.0),
    )
    feed = (estimate_from_observation("obs", [2.0, 3.0], 10.0),)

    def advance(self, ledger, risk, lam, xi, feed=None):
        return run_round(
            ledger, chain_narrative(risk, ledger.next_round),
            lambda _n: UnderwritingResult(lam, xi, 0.5, 1.0),
            self.feed if feed is None else feed, self.config, RoundBenefits(0.0, 0.0),
        )

    def test_one_estimate_per_round(self, monkeypatch):
        calls = []
        to_estimate = UnderwritingResult.to_estimate

        def counted(result, risk_id, round_index):
            calls.append(round_index)
            return to_estimate(result, risk_id, round_index)

        monkeypatch.setattr(UnderwritingResult, "to_estimate", counted)
        ledger = RoundLedger()
        for i in range(1, 41):
            ledger = self.advance(ledger, f"risk-{i % 7}", 0.1 * i, 2.0)
        assert calls == list(range(1, 41))
        assert list(ledger.imagined) == [f"risk-{i % 7}" for i in range(1, 8)]
        assert [r.k_imagined for r in ledger.records] == [min(i, 7) for i in range(1, 41)]

    def test_read_ledger_continues_like_the_live_one(self, tmp_path):
        ledger = RoundLedger()
        for risk, lam in [("risk-a", 0.5), ("risk-b", 1.0), ("risk-a", 2.0)]:
            ledger = self.advance(ledger, risk, lam, 4.0)
        path = tmp_path / "ledger.jsonl"
        write_ledger(ledger, path)
        persisted = read_ledger(path)
        assert dict(persisted.imagined) == dict(ledger.imagined)
        assert list(persisted.imagined) == ["risk-a", "risk-b"]
        for risk in ("risk-a", "risk-c"):
            live = self.advance(ledger, risk, 0.25, 3.0).records[-1]
            loaded = self.advance(persisted, risk, 0.25, 3.0).records[-1]
            assert live == loaded
            new = risk == "risk-c"
            assert (loaded.newly_imagined, loaded.k_imagined) == (new, 2 + new)
            assert (loaded.pkre.total, loaded.pkre.observed, loaded.pkre.imagined,
                    loaded.pkre.variance) == (live.pkre.total, live.pkre.observed,
                                              live.pkre.imagined, live.pkre.variance)

    def test_aborted_round_leaves_the_map(self):
        ledger = self.advance(RoundLedger(), "risk-a", 0.5, 10.0)
        before = dict(ledger.imagined)
        # a repeated observed id fails compute_pkre after the new risk is stored
        with pytest.raises(DomainError):
            self.advance(ledger, "risk-b", 1.0, 1.0, feed=self.feed * 2)
        assert dict(ledger.imagined) == before
        assert list(ledger.imagined) == ["risk-a"]
        with pytest.raises(TypeError):
            ledger.imagined["risk-b"] = before["risk-a"]

    def test_map_stays_out_of_equality_and_hash(self):
        ledger = self.advance(RoundLedger(), "risk-a", 0.5, 10.0)
        rebuilt = RoundLedger(records=ledger.records)
        assert rebuilt == ledger and hash(rebuilt) == hash(ledger)
        assert dict(rebuilt.imagined) == dict(ledger.imagined)
        assert "mappingproxy" not in repr(ledger)


class TestStatisticalDelta:
    def test_new_risk_gap_uses_full_loss_rate(self):
        weights = LossWeights(d1=1.0, d2=1.0, psi_shape=PsiShape.QUADRATIC)
        value = statistical_delta_new_risk(weights, 2.0, 3.0, 9.0)
        assert value == pytest.approx(36.0 + (2.0 * 18.0) ** 2)

    def test_noise_buydown_enters_second_moment_only(self):
        weights = LossWeights()
        base = statistical_delta_new_risk(weights, 2.0, 3.0, 9.0, noise_variance=0.0)
        reduced = statistical_delta_new_risk(weights, 2.0, 3.0, 9.0, noise_variance=4.0)
        assert reduced < base
        # first-moment term unchanged: difference comes from the d2 term alone
        first_moment_term = weights.psi(-6.0)
        assert base - first_moment_term == pytest.approx((2.0 * 18.0) ** 2)
        assert reduced - first_moment_term == pytest.approx((2.0 * 14.0) ** 2)


# from subnormal to 1e300: lambda * xi, (xi^2 + s2) / window and loss / window
# can overflow to inf, and replacing a 1e300 term cancels it exactly
MAGNITUDES = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.0, 3.0, 1e150, 1e300]),
    st.integers(-323, 300).map(lambda e: 10.0**e),
    st.floats(min_value=0.0, max_value=1e300),
)
WINDOWS = st.sampled_from([1.0, 0.25, 3.0, 1e-300])


@st.composite
def observed_rows(draw, size):
    rows = []
    for j in range(size):
        n, window = draw(st.integers(0, 3)), draw(WINDOWS)
        rows.append(RiskEstimate(
            f"obs-{j}", n / window, draw(MAGNITUDES) if n else None, draw(MAGNITUDES),
            window, n, EstimateSource.OBSERVED_HISTORY,
            total_loss=draw(MAGNITUDES) if n else 0.0,
        ))
    return tuple(rows)


ROUND_STEPS = st.tuples(
    st.integers(0, 5),  # the risk, so estimates get replaced
    st.builds(UnderwritingResult, MAGNITUDES, MAGNITUDES, MAGNITUDES, WINDOWS.filter(bool)),
    st.sampled_from(["same", "equal-new", "different", "duplicate"]),
    st.integers(0, 3).flatmap(observed_rows),
)


def pkre_bits(values):
    # what a ledger line holds: -0.0 differs from 0.0
    return [repr(float(v)) for v in values]


def fsum_pkre(observed, imagined):
    """(total, observed, imagined, variance) summed by math.fsum, apart from the
    engine's int sums; ValueError for a repeated id or a value that is not
    finite, and OverflowError where fsum finds finite terms past the float range."""
    for estimates in (observed, imagined):
        if len({e.component_id for e in estimates}) < len(estimates):
            raise ValueError("duplicate component id")
    observed_loss, imagined_loss = ([expected_jump_loss(e) for e in s] for s in (observed, imagined))
    values = (
        math.fsum(observed_loss + imagined_loss), math.fsum(observed_loss),
        math.fsum(imagined_loss), math.fsum(map(estimate_loss_variance, (*observed, *imagined))),
    )
    if not all(map(math.isfinite, values)):
        raise ValueError(f"not finite: {values}")
    return values


big, unit, zero = (UnderwritingResult(lam, 1.0) for lam in (1e300, 1.0, 0.0))


class TestRunningPkre:
    # absolute gaps scaled by 2**-10 keep the statistical delta finite while a
    # 1e308 loss term is, so the PKRE sum itself is what overflows
    config = EngineConfig(
        costs=CostModel.constant(c_write=1.0, c_spec=2.0),
        weights=LossWeights(psi_shape=PsiShape.ABSOLUTE, phi=2.0**-10),
        redline=RedLineConfig(nu_star=8.0),
    )

    def advance(self, ledger, step, feed):
        risk, result = f"risk-{step[0]}", step[1]
        return run_round(
            ledger, chain_narrative(risk, ledger.next_round), lambda _n: result,
            feed, self.config, RoundBenefits(0.5, 0.25),
        )

    @given(st.lists(ROUND_STEPS, min_size=1, max_size=25), st.integers(0, 24), ROUND_STEPS)
    # a 1.0 left once a 1e300 term is replaced by 0.0: a plain running sum gives 0.0
    @example(
        [(0, big, "same", ()), (1, unit, "same", ()), (0, zero, "same", ())], 0, (1, unit, "same", ())
    )
    # half-way ties, rounded to even: 1 + 2**-53 gives 1.0, and once risk 0 is
    # 1 + 2**-52, (1 + 2**-52) + 2**-53 gives 1 + 2**-51
    @example([(0, unit, "same", ()), (1, UnderwritingResult(2.0**-53, 1.0), "same", ()),
              (0, UnderwritingResult(1.0 + 2.0**-52, 1.0), "same", ())], 0, (1, unit, "same", ()))
    # a subnormal total, from subnormal terms in both sets
    @example([(0, UnderwritingResult(5e-324, 1.0), "different", feed_of(1, 1e-310)),
              (1, UnderwritingResult(1e-310, 3.0), "same", ())], 0, (0, zero, "same", ()))
    # two finite terms whose sum passes the float range, then a duplicate feed:
    # each round is turned away, naming itself
    @example([(0, UnderwritingResult(1e308, 1.0), "same", ()),
              (1, UnderwritingResult(1e308, 1.0), "same", ()),
              (1, unit, "duplicate", ())], 0, (1, zero, "same", ()))
    @settings(max_examples=200, deadline=None)
    def test_records_match_compute_pkre_every_round(self, steps, older_index, extra):
        ledger, feed, history = RoundLedger(), (), []
        for step in steps:
            _, result, change, rows = step
            some = rows or feed or feed_of(1, 0.0)
            round_feed = {
                "same": feed,
                "equal-new": tuple([*feed]),
                "different": rows,
                "duplicate": some + some[:1],
            }[change]
            risk = f"risk-{step[0]}"
            expected_map = {
                **ledger.imagined, risk: result.to_estimate(risk, ledger.next_round)
            }
            try:
                expected = fsum_pkre(round_feed, list(expected_map.values()))
                statistical = statistical_delta_new_risk(
                    self.config.weights, result.lambda_hat, result.xi_hat,
                    result.severity_variance,
                )
                if not math.isfinite(statistical):
                    raise ValueError(f"statistical delta {statistical}")
            except (ValueError, OverflowError):
                before = (ledger.records, dict(ledger.imagined))
                with pytest.raises(DomainError, match=f"^round {ledger.next_round}: "):
                    self.advance(ledger, step, round_feed)
                assert (ledger.records, dict(ledger.imagined)) == before
                continue
            assert change != "duplicate"
            history.append(ledger)
            ledger, feed = self.advance(ledger, step, round_feed), round_feed
            record = ledger.records[-1]
            assert list(ledger.imagined.items()) == list(expected_map.items())
            written = (record.pkre.total, record.pkre.observed, record.pkre.imagined,
                       record.pkre.variance)
            assert pkre_bits(written) == pkre_bits(expected)
        if history:
            # an older ledger, whose running state a later round has moved on
            older = history[older_index % len(history)]
            outcomes = []
            for start in (older, RoundLedger(records=older.records)):
                try:
                    outcomes.append(repr(self.advance(start, extra, extra[3])))
                except ValueError as exc:  # DomainError is a ValueError
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]


def test_a_sum_past_the_float_range_raises_what_compute_pkre_raises():
    huge = UnderwritingResult(1e308, 1.0)
    ledger = TestRunningPkre().advance(RoundLedger(), (0, huge), ())
    estimates = [*ledger.imagined.values(), huge.to_estimate("risk-1", 2)]
    with pytest.raises(DomainError) as expected:
        compute_pkre((), estimates)
    with pytest.raises(DomainError, match=f"^round 2: {re.escape(str(expected.value))}$"):
        TestRunningPkre().advance(ledger, (1, huge), ())
    assert len(ledger.records) == 1 and list(ledger.imagined) == ["risk-0"]


class TestLinearWork:
    def test_term_evaluations_grow_with_rounds_not_with_the_ledger(self, monkeypatch):
        from darkspec import estimation

        rounds, feed = 300, tuple(
            estimate_from_observation(f"obs-{j}", [1.0 + j, 2.0], 4.0) for j in range(50)
        )
        counts = {}
        for name in ("expected_jump_loss", "estimate_loss_variance"):
            counts[name] = 0

            def counted(*args, name=name, original=getattr(estimation, name), **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            # the names estimation._units calls the term functions through
            monkeypatch.setattr(estimation, name, counted)
        config = EngineConfig(costs=CostModel.constant(c_write=1.0, c_spec=2.0))
        ledger = RoundLedger()
        for r in range(1, rounds + 1):
            ledger = run_round(
                ledger, chain_narrative(f"risk-{r}", r),
                lambda _n, r=r: UnderwritingResult(0.01 * r, 2.0, 0.5),
                feed, config, RoundBenefits(0.0, 0.0),
            )
        # every estimate's terms are evaluated exactly once, the feed's too;
        # summing all of them every round, as the engine once did, takes
        # 60,150 each
        for name, count in counts.items():
            assert count == rounds + len(feed), name
