"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 7 is split: the round/improvement-rate legs (7a) hold; the
pi_1 leg (7b) contradicts the pinned benefit formula and is encoded as a
strict expected failure rather than weakened — see the test body.
"""

import math
import time

import numpy as np
import pytest

from darkspec import (
    Action,
    ActionKind,
    Actor,
    ActorKind,
    CostModel,
    Degenerate,
    EngineConfig,
    EstimateSource,
    Exponential,
    Happening,
    ImprovingDetection,
    LevyComponent,
    MitigationInvalidError,
    NarrativeEdge,
    NarrativeSyntaxError,
    RedLineConfig,
    RiskEstimate,
    RoundBenefits,
    RoundLedger,
    UnderwritingResult,
    aggregate,
    apply_mitigation,
    bias_term,
    build_narrative,
    continuation,
    delta_benefit,
    find_pivots,
    mitigator_argmin,
    optimal_stopping_brute,
    parse_narrative,
    red_line_check,
    run_round,
    validate,
    variance_gap_term,
    RoundDeltas,
)
from darkspec.cli import main
from darkspec.oracles import bias_thinning_mc, variance_gap_mc
from darkspec.process import sample_blocks

# shared grid for criteria 4-6
GRID_RATES = (2.0, 3.0, 2.5, 4.0, 3.5)
GRID_MEANS = (3.0, 2.0, 1.5, 2.5, 1.0)
GRID_KS = (1, 2, 5)
GRID_PIS = (0.0, 0.25, 0.5, 1.0)
GRID_SEED = 20_250
# criterion 5's windows and reps: 5% of each gap is at least 4.7 standard deviations
# of the oracle's var_gap over 40 seeds, at every (window, K, pi < 1) point
GRID_WINDOW_REPS = {1.0: 100_000, 0.25: 320_000, 4.0: 80_000}


def announce(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def imagined(cid, lam, xi):
    return RiskEstimate(
        component_id=cid, lambda_hat=lam, xi_hat=xi, severity_variance=0.0,
        window=1.0, n_events=0, source=EstimateSource.UNDERWRITING, round=1,
    )


@pytest.fixture(scope="module")
def wald_simulation():
    """10,000 paths of (rate 2, Exp mean 3) over T=100, shared by criteria 1-2."""
    component = LevyComponent("wald", 0.0, 0.0, 2.0, Exponential.from_mean(3.0))
    start = time.perf_counter()
    per_unit = np.array(
        [float(np.sum(p.jump_sizes)) / 100.0
         for block in sample_blocks(component, 100.0, 42, 10_000) for p in block.paths()]
    )
    return per_unit, time.perf_counter() - start


@pytest.fixture(scope="module")
def variance_grid():
    """Formula, thinning-oracle variance gap and oracle arguments over the
    (window, K, pi) grid."""
    results = {}
    for w_index, (window, reps) in enumerate(GRID_WINDOW_REPS.items()):
        for k_index, k in enumerate(GRID_KS):
            rates, means = GRID_RATES[:k], GRID_MEANS[:k]
            severities = [Exponential.from_mean(m) for m in means]
            for p_index, pi in enumerate(GRID_PIS):
                formula = math.fsum(
                    variance_gap_term(pi, r, m, m * m, 0.0, window) for r, m in zip(rates, means)
                )
                call = dict(jump_rates=rates, severities=severities, pis=(pi,) * k,
                            window=window, reps=reps,
                            seed=GRID_SEED + 100 * w_index + 10 * k_index + p_index)
                results[(window, k, pi)] = (formula, variance_gap_mc(**call), call)
    return results


class TestCriterion1:
    def test_compound_poisson_wald_mean(self, wald_simulation):
        per_unit, elapsed = wald_simulation
        se = per_unit.std(ddof=1) / math.sqrt(len(per_unit))
        error = abs(per_unit.mean() - 6.0)
        assert error <= 3.0 * se, f"mean {per_unit.mean()} vs 6.0 (3se={3*se})"
        assert elapsed < 10.0, f"simulation took {elapsed:.1f}s"
        announce("1", f"mean loss rate {per_unit.mean():.4f} within 3se={3*se:.4f} of 6.0 "
                      f"in {elapsed:.2f}s")


class TestCriterion2:
    def test_mgf_variance_of_per_unit_loss(self, wald_simulation):
        per_unit, elapsed = wald_simulation
        predicted = 2.0 * (9.0 + 9.0) / 100.0  # rate*(mean^2+var)/T with T=100
        emp = float(np.var(per_unit, ddof=1))
        rel = abs(emp - predicted) / predicted
        assert rel <= 0.05, f"variance {emp} vs {predicted} (rel={rel:.3f})"
        assert elapsed < 30.0
        announce("2", f"per-unit loss variance {emp:.4f} vs {predicted} (rel {rel:.2%})")


class TestCriterion3:
    def test_aggregate_matches_summed_independent_paths(self):
        a = LevyComponent("a", 0.2, 1.0, 1.5, Exponential.from_mean(2.0))
        b = LevyComponent("b", -0.1, 0.5, 2.5, Exponential.from_mean(1.2))
        horizon, reps = 30.0, 10_000

        def terminals(component, root_seed):
            blocks = sample_blocks(component, horizon, root_seed, reps)
            return np.concatenate([block.terminal_values for block in blocks])

        summed = terminals(a, 7) + terminals(b, 8)
        merged = terminals(aggregate([a, b]), 9)

        def mean_se(x):
            return x.std(ddof=1) / math.sqrt(len(x))

        def var_se(x):
            centered = x - x.mean()
            m4 = np.mean(centered**4)
            s2 = np.var(x, ddof=1)
            return math.sqrt(max(m4 - s2 * s2, 0.0) / len(x))

        mean_err = abs(summed.mean() - merged.mean())
        mean_tol = 3.0 * math.hypot(mean_se(summed), mean_se(merged))
        var_err = abs(np.var(summed, ddof=1) - np.var(merged, ddof=1))
        var_tol = 3.0 * math.hypot(var_se(summed), var_se(merged))
        assert mean_err <= mean_tol, f"means differ by {mean_err} (tol {mean_tol})"
        assert var_err <= var_tol, f"variances differ by {var_err} (tol {var_tol})"
        announce("3", f"mean err {mean_err:.4f}<= {mean_tol:.4f}, "
                      f"var err {var_err:.2f} <= {var_tol:.2f} at {reps} paths")


class TestCriterion4:
    def test_bias_thinning_oracle_over_grid(self):
        worst = 0.0
        for k in GRID_KS:
            rates, means = GRID_RATES[:k], GRID_MEANS[:k]
            loss_rates = [r * m for r, m in zip(rates, means)]
            for pi in GRID_PIS:
                formula = math.fsum(bias_term(pi, r, m) for r, m in zip(rates, means))
                mc = bias_thinning_mc(
                    loss_rates, (pi,) * k, reps=10_000,
                    seed=GRID_SEED + 100 * k + int(pi * 100),
                )
                err = abs(mc.value - formula)
                tol = 3.0 * mc.se + 1e-12
                assert err <= tol, f"K={k} pi={pi}: |{mc.value}-{formula}|>{tol}"
                worst = max(worst, err - 3.0 * mc.se)
        announce("4", f"bias oracle within 3se on all {len(GRID_KS)*len(GRID_PIS)} grid points")


class TestCriterion5:
    def test_variance_gap_oracle_over_grid(self, variance_grid):
        worst_rel = 0.0
        for (window, k, pi), (formula, mc, _) in variance_grid.items():
            where = f"window={window} K={k} pi={pi}"
            if pi == 1.0:
                assert formula == 0.0, f"{where}: formula not exactly 0 at pi=1"
                assert mc.var_gap == 0.0, f"{where}: oracle not exactly 0 at pi=1"
                continue
            assert formula < 0.0 and mc.var_gap <= 0.0, f"{where}: gap not <= 0"
            rel = abs(mc.var_gap - formula) / abs(formula)
            worst_rel = max(worst_rel, rel)
            assert rel <= 0.05, f"{where}: rel err {rel:.3f} > 5%"
        announce("5", f"variance gaps within 5% (worst {worst_rel:.2%}) at windows "
                      f"{sorted(GRID_WINDOW_REPS)}; exact zeros at pi=1")


class TestCriterion6:
    def test_noise_inflation_matches_rate_times_sigma_squared(self):
        for sigma in (0.5, 2.0):
            mc = variance_gap_mc(
                [1.0], [Degenerate(5.0 * sigma)], [1.0], window=1.0,
                reps=1_000_000, seed=GRID_SEED + int(sigma * 10),
                sigma_eps=[sigma],
            )
            predicted = 1.0 * sigma**2
            rel = abs(mc.inflation - predicted) / predicted
            assert rel <= 0.05, f"sigma={sigma}: inflation {mc.inflation} vs {predicted}"
        announce("6a", "variance inflation equals rate*sigma_eps^2 within 5% "
                       "at sigma_eps in {0.5, 2}")

    def test_zero_noise_reproduces_criterion_5_exactly(self, variance_grid):
        for (_, k, _), (_, mc, call) in variance_grid.items():
            with_zero_noise = variance_gap_mc(**call, sigma_eps=[0.0] * k)
            assert with_zero_noise.var_gap == mc.var_gap  # bitwise
            assert with_zero_noise.inflation == 0.0
        announce("6b", "sigma_eps=0 reproduces the criterion-5 gaps bit for bit")


class TestCriterion7:
    PI_PAIRS = ((0.1, 0.6), (0.3, 0.8), (0.2, 0.9), (0.45, 0.5))

    def test_7a_decreasing_in_round_for_every_psi(self):
        violations = 0
        points = 0
        for psi in (0.1, 0.5, 2.0):
            for pi_1, pi_max in self.PI_PAIRS:
                profile = ImprovingDetection(pi_1=pi_1, pi_max=pi_max, psi=psi)
                values = [
                    delta_benefit(r, profile, 2.0, 10.0, 4.0) for r in range(1, 11)
                ]
                points += len(values)
                violations += sum(
                    1 for a, b in zip(values, values[1:]) if not a > b
                )
        assert points >= 100
        assert violations == 0, f"{violations} monotonicity violations in R"
        announce("7a", f"delta benefit strictly decreasing in R on {points} grid points")

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the benefit formula (1 - (pi_max - exp(-(R-1)psi) pi_1)) * rate * "
            "mean / duration is strictly increasing in pi_1 at fixed pi_max, so "
            "a 'decreasing in pi_1' check cannot hold: raising pi_1 lowers the "
            "analyst's detection at every round, which raises the benefit of "
            "speculating. The true comparative static is 'decreasing in the "
            "round-one detection level pi_max - pi_1'. Encoded as a strict "
            "expected failure rather than silently flipping the assertion."
        ),
    )
    def test_7b_decreasing_in_pi_1_at_fixed_pi_max(self):
        print("ACCEPTANCE 7b: FAIL (expected, documented) - see the xfail reason")
        for pi_max in (0.6, 0.8, 0.9):
            for r in (2, 5):
                pi_ones = [pi_max * f for f in (0.2, 0.4, 0.6, 0.8)]
                values = [
                    delta_benefit(
                        r, ImprovingDetection(p1, pi_max, 0.5), 2.0, 10.0, 4.0
                    )
                    for p1 in pi_ones
                ]
                assert all(a > b for a, b in zip(values, values[1:])), (
                    f"not decreasing in pi_1 at pi_max={pi_max}, R={r}: {values}"
                )


class TestCriterion8:
    def test_gate_first_stop_equals_brute_tau_star(self):
        start = time.perf_counter()
        rng = np.random.default_rng(777)
        disagreements = 0
        for _ in range(50):
            initial = float(rng.uniform(1.0, 20.0))
            decay = float(rng.uniform(0.3, 0.95))
            cost = float(rng.uniform(0.1, 5.0))
            costs = CostModel.constant(c_write=cost / 2, c_spec=cost / 2)
            deltas = [initial * decay**r for r in range(1, 21)]
            completed = 0
            for r, delta in enumerate(deltas, start=1):
                if not continuation(costs, 1, r, RoundDeltas(delta, 0.0, 0.0)):
                    break
                completed = r
            tau_star, _ = optimal_stopping_brute([d - cost for d in deltas], rho=1.0)
            if completed != tau_star:
                disagreements += 1
        elapsed = time.perf_counter() - start
        assert disagreements == 0
        assert elapsed < 5.0
        announce("8", f"gate and brute-force stopping agree on 50/50 instances "
                      f"in {elapsed:.2f}s")


class TestCriterion9:
    def test_scenarios_validate_and_mutations_are_labeled(
        self, atlanta_text, bioweapon_text
    ):
        atlanta = parse_narrative(atlanta_text)
        bioweapon = parse_narrative(bioweapon_text)
        assert validate(atlanta).ok and validate(bioweapon).ok

        def rebuild(narrative, **overrides):
            actor_at = [
                (actor_id, hid)
                for hid, members in narrative.participants.items()
                for actor_id in sorted(members)
            ]
            kwargs = dict(
                round_index=narrative.round, risk_id=narrative.risk_id,
                happenings=narrative.happenings, actors=narrative.actors,
                actions=narrative.actions, edges=narrative.edges,
                pivots=narrative.pivots, actor_at=actor_at,
            )
            kwargs.update(overrides)
            return build_narrative(**kwargs)

        detected = {}

        cycle = rebuild(
            atlanta,
            edges=list(atlanta.edges) + [NarrativeEdge("theta5", "theta1", "bomber", "detonate")],
        )
        detected["cycle-insertion"] = "partial-acyclicity" in validate(cycle).codes()

        swapped = []
        for h in atlanta.happenings:
            if h.stage == 2:
                swapped.append(Happening(h.happening_id, 3, h.description, h.context, True))
            elif h.stage == 3:
                swapped.append(Happening(h.happening_id, 2, h.description, h.context, True))
            else:
                swapped.append(h)
        detected["stage-inversion"] = (
            "flow-restriction-2" in validate(rebuild(atlanta, happenings=swapped)).codes()
        )

        edges = list(atlanta.edges)
        edges[0] = NarrativeEdge(edges[0].source, edges[0].target, "ghost", edges[0].action_id)
        detected["dangling-actor"] = (
            "flow-restriction-3" in validate(rebuild(atlanta, edges=edges)).codes()
        )

        gap_actor_at = [
            (actor_id, hid)
            for hid, members in atlanta.participants.items()
            for actor_id in sorted(members)
        ] + [("observer", "theta1"), ("observer", "theta3")]
        gapped = rebuild(
            atlanta,
            actors=list(atlanta.actors) + [Actor("observer", ActorKind.HUMAN)],
            actor_at=gap_actor_at,
        )
        detected["actor-gap"] = "flow-restriction-5" in validate(gapped).codes()

        try:
            parse_narrative(
                atlanta_text + '\nHAPPENING theta1 stage=1 actualized "again"\n'
            )
            detected["duplicate-id"] = False
        except NarrativeSyntaxError as exc:
            detected["duplicate-id"] = exc.code == "duplicate-id"

        missed = [name for name, ok in detected.items() if not ok]
        assert not missed, f"mutations not detected with correct label: {missed}"
        announce("9", f"both scenarios validate; 5/5 mutation classes rejected "
                      f"with correct labels")


class TestCriterion10:
    def test_argmin_matches_scan_and_strictness_enforced(self, bioweapon_text):
        narrative = parse_narrative(bioweapon_text)
        action_ids = [a.action_id for a in narrative.actions]
        rng = np.random.default_rng(1234)
        for _ in range(100):
            size = int(rng.integers(1, len(action_ids) + 1))
            chosen = sorted(rng.choice(action_ids, size=size, replace=False).tolist())
            losses = {aid: float(rng.uniform(0.0, 10.0)) for aid in chosen}
            best = mitigator_argmin(narrative, losses)
            scan = sorted(losses.items(), key=lambda kv: (kv[1], kv[0]))[0][0]
            assert best.action_id == scan

        pivot = find_pivots(narrative)[0]
        baseline = imagined("subway-nerve-agent", 1.0, 5.0)
        rejected = 0
        for bump in (0.0, 0.5, 1.0, 2.0):
            worse = imagined("subway-nerve-agent", 1.0, 5.0 + bump)
            with pytest.raises(MitigationInvalidError):
                apply_mitigation(narrative, pivot, baseline, worse)
            rejected += 1
        variant = apply_mitigation(
            narrative, pivot, baseline, imagined("subway-nerve-agent", 0.5, 2.0)
        )
        assert validate(variant).ok
        assert not variant.happening(pivot.happening.happening_id).actualized
        announce("10", f"argmin matches exhaustive scan on 100 sets; "
                       f"{rejected}/4 non-strict mitigations rejected")


class TestCriterion11:
    def test_red_line_upward_closed_over_scripted_sweep(self):
        config = EngineConfig(
            costs=CostModel.constant(c_write=1.0, c_spec=1.0),
            redline=RedLineConfig(nu_star=8.0),
        )
        # per-round loss rates 2, 2, 4, 8 make the running PKRE 2, 4, 8, 16:
        # the third round lands exactly on the threshold
        ledger = RoundLedger()
        for i, lam_xi in enumerate([(1.0, 2.0), (2.0, 1.0), (4.0, 1.0), (2.0, 4.0)], 1):
            narrative = _chain(f"risk-{i}", i)
            ledger = run_round(
                ledger, narrative,
                lambda _n, v=lam_xi: UnderwritingResult(v[0], v[1]),
                [], config, RoundBenefits(0.0, 0.0),
            )
        totals = ledger.pkre_history()
        flags = [r.red_line for r in ledger.records]
        assert totals == [2.0, 4.0, 8.0, 16.0]
        assert flags == [False, False, False, True]  # boundary equality untriggered
        # upward closure: once triggered, every larger total triggers
        cfg = RedLineConfig(nu_star=8.0)
        for total, flag in zip(totals, flags):
            if flag:
                assert all(
                    red_line_check(t, cfg) for t in totals if t > total
                )
        assert not red_line_check(8.0, cfg)
        announce("11", f"trajectory {totals} vs threshold 8: triggered set "
                       f"upward-closed, boundary untriggered")


class TestCriterion12:
    def test_same_seed_reruns_are_byte_identical(self, tmp_path):
        cfg_text = (
            "horizon = 25.0\n"
            "component.a.drift = 0.1\ncomponent.a.diffusion = 0.4\n"
            "component.a.jump_rate = 1.5\ncomponent.a.severity = exponential\n"
            "component.a.severity_mean = 2.0\ncomponent.a.pi = 0.5\n"
        )
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(cfg_text, encoding="utf-8")
        outputs = {}
        for tag in ("first", "second"):
            out = tmp_path / tag
            assert main([
                "simulate", "--config", str(cfg), "--reps", "600", "--seed", "2718",
                "--out", str(out),
            ]) in (0, 1)
            assert main([
                "estimate", "--config", str(cfg), "--reps", "200", "--seed", "2718",
                "--out", str(out),
            ]) in (0, 1)
            assert main([
                "gap-study", "--config", str(cfg), "--reps", "4000", "--seed", "2718",
                "--out", str(out),
            ]) in (0, 1)
            outputs[tag] = {
                name: (out / name).read_bytes()
                for name in (
                    "paths.csv", "moment_report.csv", "estimates.csv",
                    "estimate_report.csv", "gap_report.csv",
                )
            }
        assert outputs["first"] == outputs["second"]
        announce("12", "simulate, estimate, and gap-study reruns byte-identical "
                       "CSVs at seed 2718")


def _chain(risk_id: str, round_index: int, stages: int = 3):
    happenings = [
        Happening(f"h{s}", s, f"step {s}", (), True) for s in range(1, stages + 1)
    ]
    edges = [NarrativeEdge(f"h{s}", f"h{s+1}", "lead", "go") for s in range(1, stages)]
    return build_narrative(
        round_index, risk_id, happenings,
        [Actor("lead", ActorKind.HUMAN)], [Action("go", ActionKind.HUMAN)],
        edges,
    )
