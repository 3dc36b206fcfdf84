"""Jump-size (severity) distributions.

Every family produces strictly nonnegative draws and has a finite mean;
variances may be requested only where the second moment exists (Pareto needs
shape > 2). A rate-weighted :class:`Mixture` is what component aggregation
produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ParameterError, VarianceUndefinedError

if TYPE_CHECKING:
    import numpy as np


class SeverityDistribution:
    """Common interface for jump-size distributions."""

    def mean(self) -> float:
        raise NotImplementedError

    def variance(self) -> float:
        raise NotImplementedError

    def second_moment(self) -> float:
        m = self.mean()
        return self.variance() + m * m

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError


def _require_positive(name: str, value: float) -> None:
    if not (value > 0.0) or not math.isfinite(value):
        raise ParameterError(f"{name} must be a positive finite real, got {value!r}")


@dataclass(frozen=True)
class Exponential(SeverityDistribution):
    rate: float

    def __post_init__(self):
        _require_positive("rate", self.rate)

    @classmethod
    def from_mean(cls, mean: float) -> "Exponential":
        _require_positive("mean", mean)
        return cls(rate=1.0 / mean)

    def mean(self) -> float:
        return 1.0 / self.rate

    def variance(self) -> float:
        return 1.0 / (self.rate * self.rate)

    def sample(self, rng, n):
        return rng.exponential(1.0 / self.rate, n)


@dataclass(frozen=True)
class LogNormal(SeverityDistribution):
    mu: float
    sigma: float

    def __post_init__(self):
        # mu is a log-scale location: any finite real is valid
        if not math.isfinite(self.mu):
            raise ParameterError(f"mu must be a finite real, got {self.mu!r}")
        _require_positive("sigma", self.sigma)

    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma**2)

    def variance(self) -> float:
        s2 = self.sigma**2
        return (math.exp(s2) - 1.0) * math.exp(2.0 * self.mu + s2)

    def sample(self, rng, n):
        return rng.lognormal(self.mu, self.sigma, n)


@dataclass(frozen=True)
class Pareto(SeverityDistribution):
    """Classical Pareto on [scale, inf); shape > 1 so the mean is finite."""

    scale: float
    shape: float

    def __post_init__(self):
        _require_positive("scale", self.scale)
        _require_positive("shape", self.shape)
        if self.shape <= 1.0:
            raise ParameterError(
                f"Pareto shape must exceed 1 for a finite mean, got {self.shape}"
            )

    def mean(self) -> float:
        return self.shape * self.scale / (self.shape - 1.0)

    def variance(self) -> float:
        if self.shape <= 2.0:
            raise VarianceUndefinedError(
                f"Pareto variance requires shape > 2, got {self.shape}"
            )
        a, m = self.shape, self.scale
        return a * m * m / ((a - 1.0) ** 2 * (a - 2.0))

    def sample(self, rng, n):
        # rng.pareto draws Lomax; shift-and-scale recovers the classical form
        return self.scale * (1.0 + rng.pareto(self.shape, n))


@dataclass(frozen=True)
class Degenerate(SeverityDistribution):
    value: float

    def __post_init__(self):
        _require_positive("value", self.value)

    def mean(self) -> float:
        return self.value

    def variance(self) -> float:
        return 0.0

    def sample(self, rng, n):
        import numpy as np
        return np.full(n, self.value)


@dataclass(frozen=True)
class Mixture(SeverityDistribution):
    """Weight-sampled mixture; weights are normalized at construction."""

    components: tuple[SeverityDistribution, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if not self.components:
            raise ParameterError("mixture needs at least one component")
        if len(self.components) != len(self.weights):
            raise ParameterError("mixture components and weights differ in length")
        if any(w < 0.0 or not math.isfinite(w) for w in self.weights):
            raise ParameterError("mixture weights must be nonnegative finite reals")
        total = math.fsum(self.weights)
        if total <= 0.0:
            raise ParameterError("mixture weights must not all be zero")
        object.__setattr__(
            self, "weights", tuple(w / total for w in self.weights)
        )

    def mean(self) -> float:
        return math.fsum(w * c.mean() for w, c in zip(self.weights, self.components))

    def second_moment(self) -> float:
        return math.fsum(
            w * c.second_moment() for w, c in zip(self.weights, self.components)
        )

    def variance(self) -> float:
        m = self.mean()
        return self.second_moment() - m * m

    def sample(self, rng, n):
        import numpy as np
        out = np.empty(n)
        picks = rng.choice(len(self.components), size=n, p=np.asarray(self.weights))
        for i, comp in enumerate(self.components):
            mask = picks == i
            k = int(mask.sum())
            if k:
                out[mask] = comp.sample(rng, k)
        return out
