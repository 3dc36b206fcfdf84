"""Non-speculative gap formulas against their Monte Carlo oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from darkspec import (
    Degenerate,
    DomainError,
    Exponential,
    ImprovingDetection,
    ParameterError,
    StaggeredPanel,
    bias_term,
    delta_benefit,
    staggered_frequency,
    variance_gap_term,
)
from darkspec.oracles import (
    ORACLE_BLOCK,
    _gap_blocks,
    _inclusion_cells,
    bias_thinning_mc,
    staggered_frequency_mc,
    variance_gap_mc,
)


class TestProfiles:
    def test_improving_rejects_bad_ordering(self):
        with pytest.raises(ParameterError):
            ImprovingDetection(pi_1=0.8, pi_max=0.5, psi=1.0)
        with pytest.raises(ParameterError):
            ImprovingDetection(pi_1=0.2, pi_max=0.8, psi=0.0)

    @given(
        st.floats(0.05, 0.4),
        st.floats(0.5, 0.95),
        st.floats(0.05, 3.0),
        st.integers(1, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_detection_bounds_and_monotonicity(self, pi_1, pi_max, psi, r):
        profile = ImprovingDetection(pi_1=pi_1, pi_max=pi_max, psi=psi)
        value = profile.detection(r)
        # never exceeds pi_max, never goes below the round-one level
        assert pi_max - pi_1 <= value <= pi_max
        assert profile.detection(r + 1) >= value


class TestBias:
    def test_full_detection_is_unbiased(self):
        terms = (bias_term(1.0, rate, mean) for rate, mean in ((1.0, 2.0), (3.0, 4.0)))
        assert math.fsum(terms) == 0.0

    def test_single_risk_substitution(self):
        assert bias_term(0.5, 2.0, 10.0) == pytest.approx(-10.0)

    def test_thinning_oracle_matches_formula(self):
        pis = (0.3, 0.7)
        formula = math.fsum(
            bias_term(pi, rate, mean) for pi, rate, mean in zip(pis, (2.0, 1.0), (3.0, 5.0))
        )
        mc = bias_thinning_mc([6.0, 5.0], pis, reps=10_000, seed=5)
        assert abs(mc.value - formula) <= 3.0 * mc.se + 1e-12


class TestVarianceGap:
    def test_full_detection_gap_is_zero(self):
        assert variance_gap_term(1.0, 1.0, 2.0, 4.0, 0.0, 1.0) == 0.0

    def test_substitution(self):
        assert variance_gap_term(0.0, 1.0, 2.0, 4.0, 0.0, 1.0) == pytest.approx(-8.0)

    def test_event_thinning_oracle_matches_formula(self):
        lam, mean = 2.0, 3.0
        formula = variance_gap_term(0.5, lam, mean, mean**2, 0.0, 1.0)
        mc = variance_gap_mc(
            [lam], [Exponential.from_mean(mean)], [0.5], 1.0, 20_000, seed=11
        )
        assert mc.var_gap == pytest.approx(formula, rel=0.05)

    def test_gap_nonpositive_and_zero_only_at_full_detection(self):
        for pi in (0.0, 0.3, 0.9):
            assert variance_gap_term(pi, 2.0, 3.0, 1.0, 0.0, 1.0) < 0.0
        assert variance_gap_term(1.0, 2.0, 3.0, 1.0, 0.0, 1.0) == 0.0

    @given(
        st.lists(
            st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.0, 1.0)),
            min_size=1, max_size=5,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_both_gaps_nonpositive_zero_iff_full_detection(self, rows):
        # with positive rates and means, both gaps are <= 0 for pi <= 1 and
        # exactly 0 only when every component is fully detected
        bias = math.fsum(bias_term(pi, lam, xi) for lam, xi, pi in rows)
        gap = math.fsum(variance_gap_term(pi, lam, xi, 1.0, 0.0, 1.0) for lam, xi, pi in rows)
        assert bias <= 0.0 and gap <= 0.0
        if all(pi == 1.0 for _, _, pi in rows):
            assert bias == 0.0 and gap == 0.0
        if bias == 0.0 and gap == 0.0:
            assert all(pi == 1.0 for _, _, pi in rows)


class TestVarianceGapWithError:
    def test_zero_noise_reduces_to_plain_gap(self):
        # (0.4 - 1) * 2 * (3^2 + 9) / 1, with no noise term left
        assert variance_gap_term(0.4, 2.0, 3.0, 9.0, 0.0, 1.0) == pytest.approx(-21.6)

    def test_only_error_term_survives_full_detection(self):
        value = variance_gap_term(1.0, 2.0, 5.0, 9.0, math.sqrt(3.0), 1.0)
        assert value == pytest.approx(-6.0)

    def test_noise_inflation_oracle(self):
        # degenerate severity far from zero keeps truncation negligible, so
        # the inflation should equal rate * sigma_eps^2 per unit window
        lam, sigma = 1.0, 2.0
        mc = variance_gap_mc(
            [lam], [Degenerate(5 * sigma)], [1.0], 1.0, 400_000, seed=3,
            sigma_eps=[sigma],
        )
        assert mc.inflation == pytest.approx(lam * sigma**2, rel=0.05)
        assert abs(mc.truncation_bias) < 0.01


def _variance_args(**overrides):
    """A valid variance_gap_mc call: one noisy exponential component."""
    args = dict(
        jump_rates=[2.0], severities=[Exponential.from_mean(3.0)], pis=[0.5],
        window=1.0, reps=1_000, seed=4, sigma_eps=[0.5],
    )
    args.update(overrides)
    return args


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _chi_square_pvalue(observed, probabilities) -> float:
    """Pearson chi-square p-value, the upper tail merged until every expected
    cell holds at least 5."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(probabilities, dtype=float) * observed.sum()
    while len(expected) > 2 and expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    return stats.chisquare(observed, expected).pvalue


@pytest.fixture
def no_draws(monkeypatch):
    """Fail any generator an oracle builds before it has checked its inputs."""
    def refuse(*_args):
        raise AssertionError("drew before checking its inputs")

    monkeypatch.setattr(np.random, "default_rng", refuse)


class TestOracleDraws:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"window": 0.0}, {"window": -1.0}, {"window": math.nan}, {"window": math.inf},
            {"pis": [-0.1]}, {"pis": [1.5]}, {"pis": [math.nan]},
            {"sigma_eps": [-0.5]}, {"sigma_eps": [math.nan]}, {"sigma_eps": [math.inf]},
        ],
    )
    def test_variance_oracle_rejects_bad_inputs_before_any_draw(self, overrides, no_draws):
        with pytest.raises(DomainError):
            variance_gap_mc(**_variance_args(**overrides))

    @pytest.mark.parametrize("pi", [-0.1, 1.5, math.nan])
    def test_bias_oracle_rejects_bad_pi_before_any_draw(self, pi, no_draws):
        with pytest.raises(DomainError):
            bias_thinning_mc([1.0, 2.0], [0.5, pi], 1_000, 4)

    @pytest.mark.parametrize("reps", [0, 2**63])
    def test_bias_oracle_rejects_bad_reps_before_any_draw(self, reps, no_draws):
        # the inclusion cells count reps in an int64
        with pytest.raises(DomainError, match="reps"):
            bias_thinning_mc([1.0, 2.0], [0.5, 0.5], reps, 4)

    def test_block_jump_counts_are_poisson(self):
        # unit sizes, full detection, no noise: a block's full sums are its
        # per-rep counts of the uniform owners; chi-square against
        # Poisson(lambda * w) at alpha = 0.01
        rate = 2.0
        per_rep = next(_gap_blocks([rate], [Degenerate(1.0)], [1.0], [0.0], 1.0, ORACLE_BLOCK, 21))
        counts = per_rep[0].astype(np.int64)
        assert np.array_equal(counts, per_rep[0])
        top = int(counts.max()) + 1
        pmf = [stats.poisson.pmf(k, rate) for k in range(top)] + [stats.poisson.sf(top - 1, rate)]
        assert _chi_square_pvalue(np.bincount(counts, minlength=top + 1), pmf) >= 0.01

    def test_binomial_split_gives_product_pattern_probabilities(self):
        # rates 1 and 2 make each pattern's gap distinct: 0 both in, -1 the
        # first out, -2 the second out, -3 both out; chi-square at alpha = 0.01
        pi_1, pi_2 = 0.3, 0.6
        counts, gaps = _inclusion_cells([1.0, 2.0], [pi_1, pi_2], 100_000,
                                        np.random.default_rng(31))
        assert counts.sum() == 100_000
        by_pattern = [int(counts[gaps == -g].sum()) for g in (0.0, 1.0, 2.0, 3.0)]
        probabilities = [pi_1 * pi_2, (1 - pi_1) * pi_2, pi_1 * (1 - pi_2),
                         (1 - pi_1) * (1 - pi_2)]
        assert _chi_square_pvalue(by_pattern, probabilities) >= 0.01

    @pytest.mark.parametrize("reps", [ORACLE_BLOCK + 1, 3 * ORACLE_BLOCK - 7])
    def test_block_merge_equals_variance_of_all_reps(self, reps):
        rates, severities = [3.0, 0.5], [Exponential.from_mean(2.0), Degenerate(4.0)]
        pis, noise, window, seed = [0.25, 0.75], [0.5, 0.0], 1.5, 7
        mc = variance_gap_mc(rates, severities, pis, window, reps, seed, noise)
        per_rep = np.concatenate(
            list(_gap_blocks(rates, severities, pis, noise, window, reps, seed)), axis=1
        )
        assert per_rep.shape == (3, reps)
        full, thinned, noisy = np.var(per_rep, axis=1, ddof=1)
        assert mc.nospec_variance == pytest.approx(thinned, rel=1e-12)
        assert mc.noisy_variance == pytest.approx(noisy, rel=1e-12)
        assert mc.var_gap == pytest.approx(thinned - full, rel=1e-12)
        assert mc.truncation_bias == pytest.approx(
            per_rep[2].mean() - per_rep[0].mean(), rel=1e-12, abs=1e-12
        )

    def test_variance_oracle_memory_flat_in_reps(self):
        def run(blocks):
            return lambda: variance_gap_mc(**_variance_args(reps=blocks * ORACLE_BLOCK))

        run(1)()  # first-call allocations out of the way
        one, eight = _peak_bytes(run(1)), _peak_bytes(run(8))
        assert eight <= 1.5 * one, f"peak {eight} B at 8 blocks vs {one} B at 1"

    def test_bias_oracle_memory_independent_of_reps(self):
        def run(reps):
            return lambda: bias_thinning_mc([1.0, 2.0, 3.0], [0.2, 0.5, 0.9], reps, 8)

        run(10_000)()
        small, large = _peak_bytes(run(10_000)), _peak_bytes(run(10_000_000))
        assert large <= 1.5 * small, f"peak {large} B at 1e7 reps vs {small} B at 1e4"


class TestImprovementCurve:
    def test_round_one_is_offset_start(self):
        profile = ImprovingDetection(pi_1=0.3, pi_max=0.8, psi=0.5)
        assert profile.detection(1) == pytest.approx(0.5)

    def test_large_psi_saturates_by_round_two(self):
        profile = ImprovingDetection(pi_1=0.3, pi_max=0.8, psi=50.0)
        assert profile.detection(2) == pytest.approx(0.8, abs=1e-12)

    def test_frozen_scalar_value(self):
        # 0.8 - exp(-1) * 0.3, evaluated independently
        profile = ImprovingDetection(pi_1=0.3, pi_max=0.8, psi=0.5)
        assert profile.detection(3) == pytest.approx(
            0.6896361676485673, abs=1e-12
        )

    def test_round_below_one_rejected(self):
        with pytest.raises(DomainError):
            ImprovingDetection(0.3, 0.8, 0.5).detection(0)


class TestDeltaBenefit:
    def test_round_one_substitution(self):
        profile = ImprovingDetection(pi_1=0.25, pi_max=0.75, psi=1.0)
        value = delta_benefit(1, profile, lambda_hat=2.0, xi_hat=3.0, expected_duration=2.0)
        assert value == pytest.approx((1.0 - 0.5) * 6.0 / 2.0)

    def test_perfect_eventual_detection_vanishes(self):
        # as pi_max -> 1 with large psi and late rounds, the advantage -> 0
        values = [
            delta_benefit(30, ImprovingDetection(0.01, pi_max, 5.0), 2.0, 10.0, 1.0)
            for pi_max in (0.99, 0.999, 0.9999, 1.0 - 1e-9)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-7

    def test_frozen_scalar_value(self):
        # (1 - (0.8 - 0.3 * exp(-0.5))) * 20 / 4
        profile = ImprovingDetection(pi_1=0.3, pi_max=0.8, psi=0.5)
        value = delta_benefit(2, profile, lambda_hat=2.0, xi_hat=10.0, expected_duration=4.0)
        assert value == pytest.approx(1.9097959895689501, abs=1e-12)

    def test_bad_duration_rejected(self):
        with pytest.raises(DomainError):
            delta_benefit(1, ImprovingDetection(0.3, 0.8, 0.5), 1.0, 1.0, 0.0)

    def test_strictly_decreasing_in_round_and_psi(self):
        for psi in (0.1, 0.5, 2.0):
            profile = ImprovingDetection(pi_1=0.3, pi_max=0.8, psi=psi)
            values = [delta_benefit(r, profile, 2.0, 5.0, 1.0) for r in range(1, 11)]
            assert all(a > b for a, b in zip(values, values[1:]))
        # psi-monotonicity holds from round 2 on; at round 1 the curve is
        # psi-invariant since exp(0) = 1
        for r in range(2, 11):
            by_psi = [
                delta_benefit(r, ImprovingDetection(0.3, 0.8, psi), 2.0, 5.0, 1.0)
                for psi in (0.1, 0.5, 2.0)
            ]
            assert by_psi[0] > by_psi[1] > by_psi[2]

    def test_strictly_decreasing_in_pi_max(self):
        values = [
            delta_benefit(3, ImprovingDetection(0.2, pi_max, 0.5), 2.0, 5.0, 1.0)
            for pi_max in (0.4, 0.6, 0.8, 0.95)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_direction_in_pi_1_offset(self):
        # raising pi_1 lowers the analyst's detection at every round, so the
        # benefit of speculating rises; equivalently the benefit falls in the
        # round-one detection level pi_max - pi_1
        values = [
            delta_benefit(3, ImprovingDetection(pi_1, 0.8, 0.5), 2.0, 5.0, 1.0)
            for pi_1 in (0.1, 0.3, 0.5, 0.7)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestStaggered:
    def test_single_component_reduces_to_ratio(self):
        panel = StaggeredPanel(
            commencements=(0.0,), horizon=4.0, event_counts=(8,),
            jump_sizes=((1.0,) * 8,),
        )
        assert staggered_frequency(panel) == pytest.approx(2.0)

    def test_two_component_arithmetic(self):
        # durations (3, 1) with counts (3, 2): 3/3 + 2/1 = 3.0
        panel = StaggeredPanel(
            commencements=(0.0, 2.0), horizon=3.0, event_counts=(3, 2),
            jump_sizes=((1.0, 1.0, 1.0), (1.0, 1.0)),
        )
        assert staggered_frequency(panel) == pytest.approx(3.0)

    def test_ordering_invariants_enforced(self):
        with pytest.raises(DomainError):
            StaggeredPanel((1.0,), 4.0, (0,), ((),))  # first start must be 0
        with pytest.raises(DomainError):
            StaggeredPanel((0.0, 0.0), 4.0, (0, 0), ((), ()))  # strict ordering
        with pytest.raises(DomainError):
            StaggeredPanel((0.0, 5.0), 4.0, (0, 0), ((), ()))  # inside horizon

    @pytest.mark.parametrize("commencements, horizon", [
        ((0.0,), float("nan")), ((0.0,), float("inf")), ((0.0, float("nan")), 4.0),
    ], ids=["horizon-nan", "horizon-inf", "commencement-nan"])
    def test_non_finite_times_rejected(self, commencements, horizon):
        counts, sizes = (0,) * len(commencements), ((),) * len(commencements)
        with pytest.raises(DomainError, match="finite"):
            StaggeredPanel(commencements, horizon, counts, sizes)

    def test_monte_carlo_recovers_summed_rates(self):
        rates = [0.5, 1.0, 1.5, 2.0, 0.25]
        mc = staggered_frequency_mc(rates, horizon=20.0, reps=5_000, seed=99)
        assert abs(mc.value - sum(rates)) <= 3.0 * mc.se
