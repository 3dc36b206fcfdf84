"""The non-speculative counterfactual: what an analyst misses without scenario work.

A non-speculative analyst detects each imagined risk only with probability
pi, so their loss estimate is biased low and carries too little variance.
This module gives the detection-improvement curve, the staggered-panel
frequency estimator and the only copy of each gap's closed form: one
component's bias in :func:`bias_term` and its variance gap, net of
underwriting noise, in :func:`variance_gap_term`. ``gap-study`` calls both,
and a gap over several components is the sum of their terms. The Monte Carlo
counterparts live in :mod:`darkspec.oracles`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ParameterError, require


@dataclass(frozen=True)
class ImprovingDetection:
    """Detection that rises across rounds toward pi_max.

    detection(r) = pi_max - exp(-psi * (r - 1)) * pi_1, nondecreasing in r,
    starting at pi_max - pi_1 and bounded above by pi_max.
    """

    pi_1: float
    pi_max: float
    psi: float

    def __post_init__(self):
        if not 0.0 < self.pi_1 < self.pi_max < 1.0:
            raise ParameterError(
                f"need 0 < pi_1 < pi_max < 1, got pi_1={self.pi_1}, pi_max={self.pi_max}"
            )
        require("psi", self.psi, "(0, inf)")

    def detection(self, round_index: int) -> float:
        require("round", round_index, "[1, inf)", DomainError)
        return self.pi_max - math.exp(-self.psi * (round_index - 1)) * self.pi_1


def bias_term(pi: float, rate: float, mean: float) -> float:
    """One component's expected shortfall of the non-speculative loss estimate.

    (pi - 1) * rate * mean: nonpositive for pi in [0, 1], and zero only under
    full detection. The gap over several components is the sum of the terms.
    """
    return (pi - 1.0) * rate * mean


def variance_gap_term(
    pi: float, rate: float, mean: float, var: float, sigma_eps: float, window: float
) -> float:
    """One component's variance deficit of the non-speculative estimate vs. the PKRE.

    (pi - 1) * rate * (mean^2 + var) / window: the undetected part of the
    imagined process is missing from every moment, so partial detection
    understates spread as well as level. Speculative loss numbers are never
    checked against a realized catastrophe, so each recorded jump carries
    mean-zero noise that inflates the PKRE variance by rate * sigma_eps^2 /
    window, widening the (negative) gap by the same amount. The gap over
    several components is the sum of the terms.
    """
    return (pi - 1.0) * rate * (mean * mean + var) / window - rate * sigma_eps**2 / window


def delta_benefit(
    round_index: int,
    profile: ImprovingDetection,
    lambda_hat: float,
    xi_hat: float,
    expected_duration: float,
) -> float:
    """One-round advantage of speculating over the improving analyst.

    (1 - detection(R)) * rate * mean / expected duration: what the
    improving analyst still misses of the round's loss rate, per unit of
    expected process duration.
    """
    require("expected_duration", expected_duration, "(0, inf)", DomainError)
    missed = 1.0 - profile.detection(round_index)
    return missed * lambda_hat * xi_hat / expected_duration


@dataclass(frozen=True)
class StaggeredPanel:
    """Per-component observation windows for processes that commence at
    different times; the first commences at zero and all end at ``horizon``."""

    commencements: tuple[float, ...]
    horizon: float
    event_counts: tuple[int, ...]
    jump_sizes: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        k = len(self.commencements)
        if k == 0:
            raise DomainError("panel needs at least one component")
        if len(self.event_counts) != k or len(self.jump_sizes) != k:
            raise DomainError("panel fields must have equal length")
        if not all(map(math.isfinite, (self.horizon, *self.commencements))):
            raise DomainError("horizon and commencements must be finite")
        ordered = sorted(self.commencements)
        if ordered[0] != 0.0:
            raise DomainError("earliest commencement must be exactly 0")
        if any(b <= a for a, b in zip(ordered, ordered[1:])):
            raise DomainError("commencements must be strictly increasing after sorting")
        if any(t >= self.horizon for t in ordered):
            raise DomainError("every commencement must precede the horizon")
        for n, sizes in zip(self.event_counts, self.jump_sizes):
            if n != len(sizes):
                raise DomainError("event_counts must match jump_sizes lengths")

    @property
    def durations(self) -> tuple[float, ...]:
        return tuple(self.horizon - t for t in self.commencements)


def staggered_frequency(panel: StaggeredPanel) -> float:
    """Total arrival rate of a staggered panel: sum over k of N_k / duration_k."""
    return math.fsum(n / d for n, d in zip(panel.event_counts, panel.durations))
