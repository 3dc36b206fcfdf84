"""Monte Carlo counterparts of the closed-form gap results.

Two thinning mechanisms, matching what each formula actually describes:

* bias: the analyst either sees an imagined component or misses it wholesale,
  so each replication includes component k's full loss rate with probability
  pi_k (component-level thinning);
* variance: partial detection of a Poisson stream is classical event-level
  thinning, which leaves a Poisson process at rate pi * lambda, and that is
  the process whose variance the closed form integrates.

Measurement error adds mean-zero Normal noise to each simulated jump,
truncated below so sizes stay nonnegative; the induced truncation bias is
reported, never hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .process import LevyComponent
from .severity import SeverityDistribution


@dataclass(frozen=True)
class MCEstimate:
    value: float
    se: float
    reps: int


def bias_thinning_mc(
    loss_rates: Sequence[float],
    pis: Sequence[float],
    reps: int,
    seed: int,
) -> MCEstimate:
    """Average gap (nospec - full) when each component is dropped with prob 1 - pi."""
    if len(loss_rates) != len(pis):
        raise DomainError("loss_rates and pis must align")
    if reps < 1:
        raise DomainError("reps must be >= 1")
    rng = np.random.default_rng(seed)
    rates = np.asarray(loss_rates, dtype=float)
    included = rng.uniform(size=(reps, len(rates))) < np.asarray(pis, dtype=float)
    gaps = (included - 1.0) @ rates
    value = float(np.mean(gaps))
    se = float(np.std(gaps, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return MCEstimate(value=value, se=se, reps=reps)


@dataclass(frozen=True)
class VarianceGapMC:
    """Empirical variance comparison between full, thinned, and noisy estimators."""

    var_gap: float            # var(thinned per-unit loss) - var(full)
    nospec_variance: float
    noisy_variance: float
    inflation: float          # var(noisy) - var(full)
    truncation_bias: float    # mean(noisy) - mean(full); 0 absent truncation
    reps: int


def variance_gap_mc(
    jump_rates: Sequence[float],
    severities: Sequence[SeverityDistribution],
    pis: Sequence[float],
    window: float,
    reps: int,
    seed: int,
    sigma_eps: Sequence[float] | None = None,
) -> VarianceGapMC:
    """Simulate per-unit-time loss estimators under event-level thinning.

    Per replication and component, draws the window's jumps once; the full
    estimator sums them all, the non-speculative one keeps each with
    probability pi_k, and the noisy one perturbs each by truncated Normal
    noise. sigma_eps = 0 leaves the noisy sums bit-identical to the full
    ones, so the zero-noise run reproduces the plain gap exactly.
    """
    k = len(jump_rates)
    if len(severities) != k or len(pis) != k:
        raise DomainError("jump_rates, severities and pis must align")
    if sigma_eps is not None and len(sigma_eps) != k:
        raise DomainError("sigma_eps must align with jump_rates")
    if window <= 0.0:
        raise DomainError("window must be > 0")
    if reps < 2:
        raise DomainError("reps must be >= 2")
    noise = sigma_eps if sigma_eps is not None else [0.0] * k
    children = np.random.SeedSequence(seed).spawn(k)
    full = np.zeros(reps)
    thinned = np.zeros(reps)
    noisy = np.zeros(reps)
    for rate, sev, pi, s_eps, child in zip(jump_rates, severities, pis, noise, children):
        rng = np.random.default_rng(child)
        counts = rng.poisson(rate * window, reps)
        total = int(counts.sum())
        sizes = sev.sample(rng, total)
        keep = rng.uniform(size=total) < pi
        eps = rng.normal(0.0, s_eps, total) if s_eps > 0.0 else np.zeros(total)
        perturbed = np.maximum(sizes + eps, 0.0)
        owner = np.repeat(np.arange(reps), counts)
        full += np.bincount(owner, weights=sizes, minlength=reps)
        thinned += np.bincount(owner, weights=sizes * keep, minlength=reps)
        noisy += np.bincount(owner, weights=perturbed, minlength=reps)
    full /= window
    thinned /= window
    noisy /= window
    var_full = float(np.var(full, ddof=1))
    var_thin = float(np.var(thinned, ddof=1))
    var_noisy = float(np.var(noisy, ddof=1))
    return VarianceGapMC(
        var_gap=var_thin - var_full,
        nospec_variance=var_thin,
        noisy_variance=var_noisy,
        inflation=var_noisy - var_full,
        truncation_bias=float(np.mean(noisy) - np.mean(full)),
        reps=reps,
    )


def staggered_frequency_mc(
    jump_rates: Sequence[float],
    horizon: float,
    reps: int,
    seed: int,
) -> MCEstimate:
    """Mean of the staggered-panel rate estimator over random commencements.

    Each replication draws strictly ordered commencements (first at zero),
    Poisson counts over each remaining duration, and evaluates
    sum_k N_k / duration_k; unbiased for the summed true rates.
    """
    k = len(jump_rates)
    if k < 1:
        raise DomainError("need at least one component")
    if reps < 2:
        raise DomainError("reps must be >= 2")
    rng = np.random.default_rng(seed)
    rates = np.asarray(jump_rates, dtype=float)
    values = np.empty(reps)
    for i in range(reps):
        starts = np.sort(rng.uniform(0.0, 0.9 * horizon, k - 1)) if k > 1 else np.empty(0)
        commence = np.concatenate([[0.0], starts])
        durations = horizon - commence
        counts = rng.poisson(rates * durations)
        values[i] = float(np.sum(counts / durations))
    return MCEstimate(
        value=float(np.mean(values)),
        se=float(np.std(values, ddof=1) / math.sqrt(reps)),
        reps=reps,
    )


@dataclass(frozen=True)
class GapStudyRow:
    """One line of the formula-vs-oracle gap report."""

    component_id: str
    pi: float
    bias_formula: float
    bias_mc: float
    var_gap_formula: float
    var_gap_mc: float
    abs_error: float   # on the variance gap
    rel_error: float


def gap_study_rows(
    components: Sequence[LevyComponent],
    pis: Sequence[float],
    window: float,
    reps: int,
    seed: int,
    sigma_eps: Sequence[float],
) -> list[GapStudyRow]:
    """Per-component formula-vs-Monte-Carlo comparison rows.

    Bias uses component-level thinning against (pi - 1) * rate * mean;
    the variance gap, var(thinned) - var(noisy), uses event-level thinning
    against (pi - 1) * rate * (mean^2 + var) / window - rate * sigma_eps^2 /
    window, both per component. sigma_eps = 0 draws no noise, so the noisy
    sums are the full ones and the row is the plain variance gap.
    """
    if len(pis) != len(components) or len(sigma_eps) != len(components):
        raise DomainError("pis and sigma_eps must align with components")
    rows = []
    for offset, (comp, pi, s_eps) in enumerate(zip(components, pis, sigma_eps)):
        xi = comp.severity.mean()
        s2 = comp.severity.variance()
        rate = comp.jump_rate
        bias_formula = (pi - 1.0) * rate * xi
        bias = bias_thinning_mc([rate * xi], [pi], reps, seed + 2 * offset)
        var_formula = (pi - 1.0) * rate * (xi * xi + s2) / window - rate * s_eps**2 / window
        mc = variance_gap_mc(
            [rate], [comp.severity], [pi], window, reps, seed + 2 * offset + 1, [s_eps]
        )
        var_mc = mc.nospec_variance - mc.noisy_variance
        abs_err = abs(var_mc - var_formula)
        scale = abs(var_formula)
        rows.append(
            GapStudyRow(
                component_id=comp.component_id,
                pi=pi,
                bias_formula=bias_formula,
                bias_mc=bias.value,
                var_gap_formula=var_formula,
                var_gap_mc=var_mc,
                abs_error=abs_err,
                rel_error=abs_err / scale if scale > 0.0 else 0.0,
            )
        )
    return rows
