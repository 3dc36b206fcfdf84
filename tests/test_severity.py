"""Severity distribution moments and sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkspec import (
    Degenerate,
    Exponential,
    LogNormal,
    Mixture,
    Pareto,
    ParameterError,
    VarianceUndefinedError,
)


class TestMoments:
    def test_exponential(self):
        d = Exponential(rate=0.5)
        assert d.mean() == 2.0
        assert d.variance() == 4.0
        assert d.second_moment() == 8.0

    def test_exponential_from_mean(self):
        assert Exponential.from_mean(3.0).mean() == pytest.approx(3.0)

    def test_lognormal(self):
        d = LogNormal(mu=1.0, sigma=0.5)
        assert d.mean() == pytest.approx(math.exp(1.125))
        assert d.variance() == pytest.approx(
            (math.e**0.25 - 1.0) * math.exp(2.25)
        )

    def test_pareto(self):
        d = Pareto(scale=5.0, shape=3.0)
        assert d.mean() == pytest.approx(7.5)
        assert d.variance() == pytest.approx(3.0 * 25.0 / (4.0 * 1.0))
        assert d.second_moment() == pytest.approx(75.0)

    def test_degenerate(self):
        d = Degenerate(value=5.0)
        assert d.mean() == 5.0
        assert d.variance() == 0.0
        assert d.second_moment() == 25.0

    def test_closed_forms_match_quadrature(self):
        # independent check: integrate z^k against each density numerically
        from scipy import integrate, stats

        cases = [
            (Exponential(rate=0.4), stats.expon(scale=2.5)),
            (LogNormal(mu=0.8, sigma=0.6), stats.lognorm(s=0.6, scale=math.exp(0.8))),
            (Pareto(scale=2.0, shape=3.5), stats.pareto(b=3.5, scale=2.0)),
        ]
        for ours, reference in cases:
            mean, _ = integrate.quad(lambda z: z * reference.pdf(z), 0, np.inf)
            second, _ = integrate.quad(lambda z: z * z * reference.pdf(z), 0, np.inf)
            assert ours.mean() == pytest.approx(mean, rel=1e-6)
            assert ours.second_moment() == pytest.approx(second, rel=1e-6)
            assert ours.variance() == pytest.approx(second - mean**2, rel=1e-5)

    def test_mixture_moments_match_weighted_enumeration(self):
        parts = (Exponential.from_mean(2.0), Degenerate(4.0), Pareto(1.0, 3.0))
        weights = (1.0, 3.0, 4.0)
        mix = Mixture(parts, weights)
        total = sum(weights)
        # independent enumeration of the weighted moments
        mean = sum(w / total * p.mean() for w, p in zip(weights, parts))
        second = sum(w / total * p.second_moment() for w, p in zip(weights, parts))
        assert mix.mean() == pytest.approx(mean)
        assert mix.second_moment() == pytest.approx(second)
        assert mix.variance() == pytest.approx(second - mean**2)


class TestParameterGuards:
    @pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan])
    def test_exponential_rejects_bad_rate(self, rate):
        with pytest.raises(ParameterError):
            Exponential(rate=rate)

    def test_lognormal_mu_is_any_finite_real(self):
        d = LogNormal(mu=-1.0, sigma=0.5)
        assert d.mean() == pytest.approx(math.exp(-1.0 + 0.125))
        for mu in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError):
                LogNormal(mu=mu, sigma=0.5)

    def test_pareto_needs_shape_above_one(self):
        with pytest.raises(ParameterError):
            Pareto(scale=1.0, shape=1.0)

    def test_pareto_variance_undefined_at_shape_two(self):
        with pytest.raises(VarianceUndefinedError):
            Pareto(scale=1.0, shape=2.0).variance()

    def test_degenerate_needs_positive_value(self):
        with pytest.raises(ParameterError):
            Degenerate(value=0.0)

    def test_mixture_rejects_empty_and_misaligned(self):
        with pytest.raises(ParameterError):
            Mixture((), ())
        with pytest.raises(ParameterError):
            Mixture((Degenerate(1.0),), (0.5, 0.5))
        with pytest.raises(ParameterError):
            Mixture((Degenerate(1.0),), (0.0,))


@st.composite
def severities(draw):
    kind = draw(st.sampled_from(["exp", "logn", "pareto", "degen"]))
    if kind == "exp":
        return Exponential(rate=draw(st.floats(0.1, 10.0)))
    if kind == "logn":
        return LogNormal(mu=draw(st.floats(0.01, 2.0)), sigma=draw(st.floats(0.1, 1.0)))
    if kind == "pareto":
        return Pareto(scale=draw(st.floats(0.5, 5.0)), shape=draw(st.floats(2.1, 6.0)))
    return Degenerate(value=draw(st.floats(0.1, 10.0)))


class TestSampling:
    @given(severities(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_draws_are_nonnegative(self, severity, seed):
        rng = np.random.default_rng(seed)
        draws = severity.sample(rng, 200)
        assert draws.shape == (200,)
        assert np.all(draws >= 0.0)

    def test_sample_means_converge(self):
        rng = np.random.default_rng(11)
        for severity in (
            Exponential.from_mean(3.0),
            LogNormal(mu=1.0, sigma=0.4),
            Pareto(scale=2.0, shape=4.0),
            Mixture((Exponential.from_mean(1.0), Degenerate(5.0)), (1.0, 1.0)),
        ):
            draws = severity.sample(rng, 200_000)
            se = draws.std(ddof=1) / math.sqrt(len(draws))
            assert abs(draws.mean() - severity.mean()) < 4.0 * se

    def test_mixture_sampling_is_rate_weighted(self):
        mix = Mixture((Degenerate(1.0), Degenerate(10.0)), (3.0, 1.0))
        draws = mix.sample(np.random.default_rng(5), 100_000)
        frac_small = np.mean(draws == 1.0)
        assert frac_small == pytest.approx(0.75, abs=0.01)
