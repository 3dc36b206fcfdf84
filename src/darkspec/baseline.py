"""The non-speculative counterfactual: what an analyst misses without scenario work.

A non-speculative analyst detects each imagined risk only with probability
pi, so their loss estimate is biased low and carries too little variance.
This module gives the closed-form bias and variance gaps, the
measurement-error correction, the detection-improvement curve, and the
staggered-panel frequency estimator. Monte Carlo counterparts live in
:mod:`darkspec.oracles`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, ParameterError
from .estimation import RiskEstimate, expected_jump_loss


@dataclass(frozen=True)
class ConstantDetection:
    """One fixed detection probability per imagined component."""

    pis: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "pis", tuple(float(p) for p in self.pis))
        for p in self.pis:
            if not 0.0 <= p <= 1.0:
                raise ParameterError(f"detection probability must lie in [0, 1], got {p}")


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
        if self.psi <= 0.0:
            raise ParameterError(f"psi must be > 0, got {self.psi}")

    def detection(self, round_index: int) -> float:
        if round_index < 1:
            raise DomainError(f"round must be >= 1, got {round_index}")
        return self.pi_max - math.exp(-self.psi * (round_index - 1)) * self.pi_1


@dataclass(frozen=True)
class MeasurementError:
    """Per-component standard deviation of underwriting noise on jump sizes."""

    sigma_eps: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "sigma_eps", tuple(float(s) for s in self.sigma_eps))
        for s in self.sigma_eps:
            if s < 0.0:
                raise ParameterError(f"sigma_eps must be >= 0, got {s}")


def _check_aligned(estimates: Sequence[RiskEstimate], profile: ConstantDetection) -> None:
    if not isinstance(profile, ConstantDetection):
        raise DomainError("gap formulas need a constant-mode detection profile")
    if len(profile.pis) != len(estimates):
        raise DomainError(
            f"profile has {len(profile.pis)} detection probabilities for "
            f"{len(estimates)} estimates"
        )


def bias_nospec(estimates: Sequence[RiskEstimate], profile: ConstantDetection) -> float:
    """Expected shortfall of the non-speculative loss estimate.

    Sum over components of (pi_k - 1) * rate_k * mean_k; nonpositive, and
    zero only under full detection.
    """
    _check_aligned(estimates, profile)
    return math.fsum(
        (pi - 1.0) * expected_jump_loss(est)
        for pi, est in zip(profile.pis, estimates)
    )


def variance_gap(
    estimates: Sequence[RiskEstimate],
    severity_variances: Sequence[float],
    profile: ConstantDetection,
) -> float:
    """Variance deficit of the non-speculative estimate vs. the PKRE.

    Sum of (pi_k - 1) * lambda_k * (sigma_k^2 + xi_k^2): the undetected part
    of each imagined process is missing from every moment, so partial
    detection understates spread as well as level.
    """
    _check_aligned(estimates, profile)
    if len(severity_variances) != len(estimates):
        raise DomainError("severity_variances must align with estimates")
    terms = []
    for pi, est, s2 in zip(profile.pis, estimates, severity_variances):
        xi = est.xi_hat if est.xi_hat is not None else 0.0
        terms.append((pi - 1.0) * est.lambda_hat * (s2 + xi * xi))
    return math.fsum(terms)


def variance_gap_with_error(
    estimates: Sequence[RiskEstimate],
    severity_variances: Sequence[float],
    profile: ConstantDetection,
    errors: MeasurementError,
) -> float:
    """Variance gap net of underwriting measurement error.

    Speculative loss numbers are never checked against a realized
    catastrophe, so each recorded jump carries mean-zero noise that inflates
    the PKRE variance by lambda_k * sigma_eps_k^2, widening the (negative)
    gap by the same amount.
    """
    if len(errors.sigma_eps) != len(estimates):
        raise DomainError("errors must align with estimates")
    base = variance_gap(estimates, severity_variances, profile)
    noise = math.fsum(
        est.lambda_hat * s * s for est, s in zip(estimates, errors.sigma_eps)
    )
    return base - noise


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
    if expected_duration <= 0.0:
        raise DomainError(f"expected_duration must be > 0, got {expected_duration}")
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
