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

from .errors import ParameterError, VarianceUndefinedError, require

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


@dataclass(frozen=True)
class Exponential(SeverityDistribution):
    rate: float

    def __post_init__(self):
        require("rate", self.rate, "(0, inf)")

    @classmethod
    def from_mean(cls, mean: float) -> "Exponential":
        return cls(rate=1.0 / require("mean", mean, "(0, inf)"))

    def mean(self) -> float:
        return 1.0 / self.rate

    def variance(self) -> float:
        square = self.rate * self.rate
        return 1.0 / square if square else math.inf  # rate * rate can underflow

    def sample(self, rng, n):
        return rng.exponential(1.0 / self.rate, n)


@dataclass(frozen=True)
class LogNormal(SeverityDistribution):
    mu: float
    sigma: float

    def __post_init__(self):
        require("mu", self.mu)  # a log-scale location: any finite real
        require("sigma", self.sigma, "(0, inf)")

    # past the float range a moment is inf, for the caller's range check
    def mean(self) -> float:
        try:
            return math.exp(self.mu + 0.5 * self.sigma**2)
        except OverflowError:
            return math.inf

    def variance(self) -> float:
        try:
            s2 = self.sigma**2
            return (math.exp(s2) - 1.0) * math.exp(2.0 * self.mu + s2)
        except OverflowError:
            return math.inf

    def sample(self, rng, n):
        return rng.lognormal(self.mu, self.sigma, n)


@dataclass(frozen=True)
class Pareto(SeverityDistribution):
    """Classical Pareto on [scale, inf); shape > 1 so the mean is finite."""

    scale: float
    shape: float

    def __post_init__(self):
        require("scale", self.scale, "(0, inf)")
        require("shape", self.shape, "(1, inf)")  # a finite mean

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
        require("value", self.value, "(0, inf)")

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
        for w in self.weights:
            require("mixture weights", w, "[0, inf)")
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
