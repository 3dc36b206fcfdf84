"""Monte Carlo counterparts of the closed-form gap results.

The closed forms live only in :mod:`darkspec.baseline`, as the per-component
terms ``bias_term`` and ``variance_gap_term``. Two thinning mechanisms,
matching what each term actually describes:

* bias: the analyst either sees an imagined component or misses it wholesale,
  so each replication includes component k's full loss rate with probability
  pi_k (component-level thinning), drawn as binomially split pattern counts;
* variance: partial detection of a Poisson stream is classical event-level
  thinning, which leaves a Poisson process at rate pi * lambda, and that is
  the process whose variance the closed form integrates. Fixed blocks of reps
  each draw a Poisson jump total with uniform owners, merged by (n, mean, M2).

Measurement error adds mean-zero Normal noise to each simulated jump,
truncated below so sizes stay nonnegative. The induced truncation bias is
returned as ``VarianceGapMC.truncation_bias``, but ``gap-study`` drops it
and the variance-gap formula's noise term ignores the truncation, so no
report shows it yet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import DomainError, require
from .severity import SeverityDistribution

if TYPE_CHECKING:
    import numpy as np

# reps per variance-oracle block: a block's arrays are this long whatever reps is
ORACLE_BLOCK = 2**14


@dataclass(frozen=True)
class MCEstimate:
    value: float
    se: float


def _inclusion_cells(loss_rates, pis, reps: int, rng: np.random.Generator):
    """Counts and gaps of the nonempty inclusion patterns: Binomial(cell, pi_k) splits."""
    import numpy as np
    counts, gaps = np.array([reps], dtype=np.int64), np.zeros(1)
    for rate, pi in zip(loss_rates, pis):
        kept = rng.binomial(counts, pi)
        counts, gaps = np.concatenate([kept, counts - kept]), np.concatenate([gaps, gaps - rate])
        gaps, counts = gaps[counts > 0], counts[counts > 0]
    return counts, gaps


def bias_thinning_mc(
    loss_rates: Sequence[float],
    pis: Sequence[float],
    reps: int,
    seed: int,
) -> MCEstimate:
    """Average gap (nospec - full) when each component is dropped with prob 1 - pi."""
    import numpy as np
    if len(loss_rates) != len(pis):
        raise DomainError("loss_rates and pis must align")
    if not 1 <= reps <= 2**63 - 1:  # the inclusion cells count reps in an int64
        raise DomainError(f"reps must be from 1 to 2**63 - 1, got {reps}")
    for pi in pis:
        require("every pi", pi, "[0, 1]", DomainError)
    counts, gaps = _inclusion_cells(loss_rates, pis, reps, np.random.default_rng(seed))
    value = float(counts @ gaps) / reps
    se = math.sqrt(float(counts @ (gaps - value) ** 2) / (reps - 1) / reps) if reps > 1 else 0.0
    return MCEstimate(value=value, se=se)


@dataclass(frozen=True)
class VarianceGapMC:
    """Empirical variance comparison between full, thinned, and noisy estimators."""

    var_gap: float            # var(thinned per-unit loss) - var(full)
    nospec_variance: float
    noisy_variance: float
    inflation: float          # var(noisy) - var(full)
    truncation_bias: float    # mean(noisy) - mean(full); 0 absent truncation


def _gap_blocks(jump_rates, severities, pis, noise, window, reps, seed) -> Iterator[np.ndarray]:
    """Per-unit full, thinned and noisy loss as one (3, n) array per block of
    ORACLE_BLOCK reps; component k's block b draws from the seed [seed, k, b]."""
    import numpy as np
    for b, first in enumerate(range(0, reps, ORACLE_BLOCK)):
        n = min(ORACLE_BLOCK, reps - first)
        sums = np.zeros((3, n))
        for k, (rate, sev, pi, s_eps) in enumerate(zip(jump_rates, severities, pis, noise)):
            rng = np.random.default_rng([seed, k, b])
            owner = rng.integers(0, n, rng.poisson(n * rate * window))  # exact given J
            sizes = sev.sample(rng, owner.size)
            keep = rng.uniform(size=owner.size) < pi
            noisy = np.maximum(sizes + rng.normal(0.0, s_eps, owner.size), 0.0) if s_eps else sizes
            for row, weights in enumerate((sizes, sizes * keep, noisy)):
                sums[row] += np.bincount(owner, weights=weights, minlength=n)
        yield sums / window


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
    import numpy as np
    k = len(jump_rates)
    if len(severities) != k or len(pis) != k:
        raise DomainError("jump_rates, severities and pis must align")
    if sigma_eps is not None and len(sigma_eps) != k:
        raise DomainError("sigma_eps must align with jump_rates")
    if reps < 2:
        raise DomainError("reps must be >= 2")
    noise = sigma_eps if sigma_eps is not None else [0.0] * k
    require("window", window, "(0, inf)", DomainError)
    for pi, s_eps in zip(pis, noise):
        require("every pi", pi, "[0, 1]", DomainError)
        require("every sigma_eps", s_eps, "[0, inf)", DomainError)
    count, mean, m2 = 0, np.zeros(3), np.zeros(3)
    for x in _gap_blocks(jump_rates, severities, pis, noise, window, reps, seed):
        n, block_mean = x.shape[1], x.mean(axis=1)
        delta, count = block_mean - mean, count + n  # Chan, Golub & LeVeque's merge
        mean += delta * (n / count)
        m2 += ((x - block_mean[:, None]) ** 2).sum(axis=1) + delta**2 * ((count - n) * n / count)
    var_full, var_thin, var_noisy = (m2 / (count - 1)).tolist()
    return VarianceGapMC(
        var_gap=var_thin - var_full,
        nospec_variance=var_thin,
        noisy_variance=var_noisy,
        inflation=var_noisy - var_full,
        truncation_bias=float(mean[2] - mean[0]),
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
    import numpy as np
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
    )

