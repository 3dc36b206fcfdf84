"""The observed-history estimator, Wald identity, and PKRE assembly."""

import io
import math
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkspec import (
    DomainError,
    EstimateSource,
    Exponential,
    LevyComponent,
    ParameterError,
    RiskEstimate,
    UnderwritingResult,
    aggregate,
    compute_pkre,
    estimate_from_observation,
    expected_jump_loss,
    jump_loss_variance,
)
from darkspec.estimation import (
    estimate_loss_variance,
    read_estimates_csv,
    write_estimates_csv,
)
from darkspec.process import sample_blocks


def underwritten(cid, lam, xi, s2=0.0, window=1.0, round_index=1):
    return RiskEstimate(
        component_id=cid,
        lambda_hat=lam,
        xi_hat=xi,
        severity_variance=s2,
        window=window,
        n_events=0,
        source=EstimateSource.UNDERWRITING,
        round=round_index,
    )


class TestFrequency:
    """The rate of estimate_from_observation: events over the window."""

    def test_zero_events(self):
        est = estimate_from_observation("k", [], 10.0)
        assert est.lambda_hat == 0.0
        assert est.severity_variance == 0.0

    def test_direct_ratio(self):
        assert estimate_from_observation("k", [1.0] * 10, 5.0).lambda_hat == 2.0

    def test_bad_window_rejected(self):
        for window in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                estimate_from_observation("k", [1.0], window)

    def test_simulated_poisson_recovery(self):
        rng = np.random.default_rng(2024)
        n = int(rng.poisson(3.0 * 500.0))
        est = estimate_from_observation("k", [1.0] * n, 500.0)
        assert abs(est.lambda_hat - 3.0) <= 3.0 * math.sqrt(3.0 / 500.0)


class TestSeverity:
    """The mean severity of estimate_from_observation, with the unbiased s^2."""

    def test_constant_sample(self):
        est = estimate_from_observation("k", [5.0, 5.0, 5.0], 1.0)
        assert est.xi_hat == 5.0
        assert est.severity_variance == 0.0

    def test_two_point_arithmetic(self):
        est = estimate_from_observation("k", [2.0, 4.0], 1.0)
        assert est.xi_hat == 3.0
        assert est.severity_variance == pytest.approx(2.0)

    def test_empty_is_an_error_not_zero(self):
        # the mean is undefined, not zero: no estimate of an empty window holds one
        assert estimate_from_observation("k", [], 10.0).xi_hat is None
        with pytest.raises(ParameterError):
            RiskEstimate("k", 0.0, 0.0, 0.0, 10.0, 0, EstimateSource.OBSERVED_HISTORY)

    def test_exponential_draws_recover_mean(self):
        draws = np.random.default_rng(7).exponential(2.0, 10_000)
        est = estimate_from_observation("k", draws, 1.0)
        assert abs(est.xi_hat - 2.0) <= 3.0 * (2.0 / 100.0)


class TestExpectedJumpLoss:
    def test_total_over_window(self):
        est = estimate_from_observation("k", [4.0, 6.0, 3.0, 7.0], 10.0)
        assert est.n_events == 4
        assert expected_jump_loss(est) == 2.0

    def test_zero_events_contribute_zero(self):
        est = estimate_from_observation("k", [], 10.0)
        assert est.xi_hat is None
        assert expected_jump_loss(est) == 0.0

    def test_monte_carlo_matches_rate_times_mean(self):
        c = LevyComponent("k", 0.0, 0.0, 2.0, Exponential.from_mean(3.0))
        losses = [
            expected_jump_loss(estimate_from_observation("k", p.jump_sizes, 200.0))
            for block in sample_blocks(c, 200.0, 3, 400) for p in block.paths()
        ]
        losses = np.array(losses)
        se = losses.std(ddof=1) / math.sqrt(len(losses))
        assert abs(losses.mean() - 6.0) <= 3.0 * se

    @given(
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40),
        st.floats(0.5, 50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_wald_identity_is_exact(self, sizes, window):
        # rate * mean == total / window must hold exactly, not approximately
        est = estimate_from_observation("k", sizes, window)
        assert expected_jump_loss(est) == float(np.sum(np.asarray(sizes))) / window


class TestJumpLossVariance:
    def test_zero_rate(self):
        assert jump_loss_variance(0.0, 5.0, 2.0, 1.0) == 0.0

    def test_degenerate_severity(self):
        assert jump_loss_variance(1.0, 2.0, 0.0, 1.0) == 4.0

    def test_literal_form_flag(self):
        # the second-moment form rate * (mean^2 + var) / window is the only one
        assert jump_loss_variance(2.0, 3.0, 9.0, 10.0) == pytest.approx(3.6)

    def test_bad_window(self):
        with pytest.raises(DomainError):
            jump_loss_variance(1.0, 1.0, 1.0, 0.0)

    def test_variance_of_per_unit_loss_monte_carlo(self):
        # rate 2, Exp mean 3, window 10: predicted 2*(9+9)/10 = 3.6
        c = LevyComponent("k", 0.0, 0.0, 2.0, Exponential.from_mean(3.0))
        per_unit = np.array(
            [float(np.sum(p.jump_sizes)) / 10.0
             for block in sample_blocks(c, 10.0, 23, 20_000) for p in block.paths()]
        )
        assert np.var(per_unit, ddof=1) == pytest.approx(3.6, rel=0.05)


class TestRiskEstimateInvariants:
    def test_observed_rate_identity_enforced(self):
        with pytest.raises(ValueError):
            RiskEstimate(
                component_id="k",
                lambda_hat=1.0,
                xi_hat=2.0,
                severity_variance=0.0,
                window=10.0,
                n_events=5,
                source=EstimateSource.OBSERVED_HISTORY,
            )

    def test_zero_event_window_has_no_xi(self):
        with pytest.raises(ValueError):
            RiskEstimate(
                component_id="k",
                lambda_hat=0.0,
                xi_hat=1.0,
                severity_variance=0.0,
                window=10.0,
                n_events=0,
                source=EstimateSource.OBSERVED_HISTORY,
            )

    def test_underwriting_requires_round_and_xi(self):
        with pytest.raises(ValueError):
            RiskEstimate(
                component_id="k",
                lambda_hat=1.0,
                xi_hat=None,
                severity_variance=0.0,
                window=1.0,
                n_events=0,
                source=EstimateSource.UNDERWRITING,
                round=1,
            )
        with pytest.raises(ValueError):
            underwritten("k", 1.0, 2.0, round_index=None)


    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["lambda_hat", "xi_hat", "severity_variance", "window"])
    def test_every_float_field_is_finite(self, field, value):
        fields = {"lambda_hat": 1.0, "xi_hat": 2.0, "severity_variance": 0.5, "window": 1.0}
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field} must lie in "):
            underwritten("k", *fields.values())
        with pytest.raises(ValueError, match=f"^{field} must lie in "):
            UnderwritingResult(**fields).to_estimate("k", 1)


class TestPkre:
    def test_observed_only_when_imagined_empty(self):
        observed = [estimate_from_observation("a", [2.0, 2.0], 2.0)]
        result = compute_pkre(observed, [])
        assert result.total == result.observed
        assert result.imagined == 0.0

    def test_two_plus_five(self):
        # 1*2 + 0.5*10; the arithmetic is source-agnostic
        observed = [underwritten("o", 1.0, 2.0)]
        imagined = [underwritten("i", 0.5, 10.0)]
        result = compute_pkre(observed, imagined)
        assert result.total == 7.0

    def test_duplicate_component_id_rejected(self):
        ests = [underwritten("x", 1.0, 1.0), underwritten("x", 2.0, 1.0)]
        with pytest.raises(DomainError):
            compute_pkre([], ests)

    def test_same_risk_may_appear_in_both_sets(self):
        # a risk can have an observed history and an underwritten estimate;
        # uniqueness holds within each set, not across them
        observed = [estimate_from_observation("x", [2.0, 2.0], 2.0)]
        imagined = [underwritten("x", 0.5, 10.0)]
        result = compute_pkre(observed, imagined)
        assert result.total == pytest.approx(2.0 + 5.0)

    @pytest.mark.parametrize("imagined, message", [
        ([underwritten("a", 1e300, 1e300)], "^the expected loss of 'a' is inf$"),
        ([underwritten("a", 0.0, 1e200)], "^the loss variance of 'a' is nan$"),
        ([underwritten("a", 1e308, 1.0), underwritten("b", 1e308, 1.0)],
         "^the PKRE passes the largest float$"),
    ], ids=["term-inf", "term-nan", "sum"])
    def test_a_value_past_the_float_range_raises(self, imagined, message):
        with pytest.raises(DomainError, match=message):
            compute_pkre([], imagined)

    def test_variance_totals_sum_per_component(self):
        imagined = [
            underwritten("a", 2.0, 3.0, s2=9.0, window=10.0),
            underwritten("b", 1.0, 2.0, s2=0.0, window=1.0),
        ]
        result = compute_pkre([], imagined)
        assert result.variance == pytest.approx(3.6 + 4.0)
        assert result.variance == math.fsum(estimate_loss_variance(e) for e in imagined)

    def test_three_components_cross_checked_against_aggregate_simulation(self):
        comps = [
            LevyComponent("a", 0.0, 0.0, 1.0, Exponential.from_mean(2.0)),
            LevyComponent("b", 0.0, 0.0, 2.0, Exponential.from_mean(1.0)),
            LevyComponent("c", 0.0, 0.0, 0.5, Exponential.from_mean(4.0)),
        ]
        imagined = [
            underwritten(c.component_id, c.jump_rate, c.severity.mean()) for c in comps
        ]
        result = compute_pkre([], imagined)
        total = aggregate(comps)
        horizon = 50.0
        blocks = sample_blocks(total, horizon, 41, 10_000)
        losses = -np.concatenate([block.terminal_values for block in blocks]) / horizon
        se = losses.std(ddof=1) / math.sqrt(len(losses))
        assert abs(losses.mean() - result.total) <= 3.0 * se


# dyadic floats keep every sum exact, so additivity can be asserted with ==
dyadic = st.integers(0, 512).map(lambda n: n / 64.0)


class TestPkreAdditivity:
    @given(
        st.lists(st.tuples(dyadic, dyadic), min_size=0, max_size=6),
        st.lists(st.tuples(dyadic, dyadic), min_size=0, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_disjoint_sets_add_exactly(self, first, second):
        def build(pairs, prefix):
            return [
                underwritten(f"{prefix}{i}", lam, xi, s2=1.0, window=2.0)
                for i, (lam, xi) in enumerate(pairs)
            ]

        set_a = build(first, "a")
        set_b = build(second, "b")
        combined = compute_pkre([], set_a + set_b)
        separate_a = compute_pkre([], set_a)
        separate_b = compute_pkre([], set_b)
        assert combined.total == separate_a.total + separate_b.total
        assert combined.variance == separate_a.variance + separate_b.variance


positive = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def estimate_sets(draw, prefix):
    """Estimates with unique ids: underwritten, observed with events, or
    observed over an empty window."""
    estimates = []
    for i in range(draw(st.integers(0, 8))):
        cid = f"{prefix}{i}"
        kind = draw(st.sampled_from(["underwritten", "observed", "empty"]))
        window = draw(positive)
        if kind == "underwritten":
            estimates.append(
                underwritten(cid, draw(positive), draw(positive), draw(positive), window)
            )
        elif kind == "observed":
            sizes = draw(st.lists(positive, min_size=1, max_size=5))
            estimates.append(estimate_from_observation(cid, sizes, window))
        else:
            estimates.append(estimate_from_observation(cid, [], window))
    return estimates


class TestPkreExactTotals:
    @given(estimate_sets("o"), estimate_sets("i"))
    @settings(max_examples=200, deadline=None)
    def test_totals_equal_fsum(self, observed, imagined):
        # the ledger's PKRE bits are these correctly rounded sums
        result = compute_pkre(observed, imagined)
        both = observed + imagined
        assert result.observed == math.fsum(map(expected_jump_loss, observed))
        assert result.imagined == math.fsum(map(expected_jump_loss, imagined))
        assert result.total == math.fsum(map(expected_jump_loss, both))
        assert result.variance == math.fsum(map(estimate_loss_variance, both))


class TestConsistency:
    def test_errors_shrink_as_window_grows(self):
        # nested windows at T = 10, 100, 1000; combined relative error of
        # (rate, mean severity) must shrink from T=10 to T=1000 in >= 95%
        # of 200 replications
        lam, mean = 3.0, 2.0
        rng = np.random.default_rng(404)
        wins = 0
        reps = 200
        for _ in range(reps):
            errors = {}
            n_prev, sizes_prev = 0, np.empty(0)
            t_prev = 0.0
            for horizon in (10.0, 100.0, 1000.0):
                extra = rng.poisson(lam * (horizon - t_prev))
                sizes_new = rng.exponential(mean, extra)
                n_prev += extra
                sizes_prev = np.concatenate([sizes_prev, sizes_new])
                t_prev = horizon
                est = estimate_from_observation("k", sizes_prev, horizon)
                rate, xi = est.lambda_hat, est.xi_hat if n_prev else mean * 2
                errors[horizon] = abs(rate - lam) / lam + abs(xi - mean) / mean
            if errors[1000.0] < errors[10.0]:
                wins += 1
        assert wins >= 0.95 * reps


class TestCsvRoundTrip:
    def test_pinned_columns_and_values_survive(self):
        estimates = [
            estimate_from_observation("obs", [1.0, 3.0, 2.0], 6.0),
            estimate_from_observation("none", [], 4.0),
            underwritten("imag", 0.25, 8.0, s2=2.5, window=1.0, round_index=3),
        ]
        out = io.StringIO()
        write_estimates_csv(estimates, out)
        header = out.getvalue().splitlines()[0]
        assert header == (
            "component_id,source,round,lambda_hat,xi_hat,severity_var,window,n_events"
        )
        back = read_estimates_csv(io.StringIO(out.getvalue()))
        for orig, loaded in zip(estimates, back):
            assert loaded.component_id == orig.component_id
            assert loaded.source == orig.source
            assert loaded.round == orig.round
            assert loaded.lambda_hat == orig.lambda_hat
            assert loaded.xi_hat == orig.xi_hat
            assert loaded.severity_variance == orig.severity_variance
            assert loaded.window == orig.window
            assert loaded.n_events == orig.n_events

    @pytest.mark.parametrize("cid", ["a\rb", "\r", "x\r\ny", "a,b"])
    def test_any_id_reads_back(self, cid):
        out = io.StringIO()
        write_estimates_csv([estimate_from_observation(cid, [1.0, 3.0], 6.0)], out)
        [loaded] = read_estimates_csv(io.StringIO(out.getvalue(), newline=""))
        assert loaded.component_id == cid


def test_every_name_in_all_imports():
    import darkspec

    public = {name for name, value in vars(darkspec).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert sorted(darkspec.__all__) == sorted(public)
    namespace = {}
    exec("from darkspec import *", namespace)
    assert set(darkspec.__all__) <= namespace.keys()
    # the second estimator is gone: estimate_from_observation is the one
    gone = {"estimate_frequency", "estimate_severity", "FrequencyEstimate",
            "SeverityEstimate", "NoEventsError"}
    assert not gone & namespace.keys()
