"""One-way network latency models.

The default cluster profile uses a log-normal distribution, which is the
standard shape for datacenter RTTs: a sharp mode with a long but light
tail.  Latency models are pure samplers — they hold no state beyond
their parameters and draw from the RNG stream they are given.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod

from repro.sim.rng import lognormal


class LatencyModel(ABC):
    """Samples one-way message latencies in seconds."""

    @abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw one latency sample."""

    @abstractmethod
    def mean(self) -> float:
        """The distribution's mean, used for sanity checks and docs."""


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``value`` seconds (useful in tests)."""

    def __init__(self, value: float):
        if value < 0:
            raise ValueError(f"latency must be non-negative, got {value}")
        self.value = value

    def sample(self, rng: random.Random) -> float:
        return self.value

    def mean(self) -> float:
        return self.value


class UniformLatency(LatencyModel):
    """Latency drawn uniformly from ``[low, high]`` seconds."""

    def __init__(self, low: float, high: float):
        if not 0 <= low <= high:
            raise ValueError(f"invalid latency range [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0


class LogNormalLatency(LatencyModel):
    """Log-normal latency with a given median and dispersion.

    ``median`` is the distribution's 50th percentile in seconds;
    ``sigma`` controls the heaviness of the tail (0.2–0.5 is typical of
    an uncongested datacenter network).  An optional ``floor`` models
    the minimum wire/switching delay.
    """

    def __init__(self, median: float, sigma: float = 0.3, floor: float = 0.0):
        if median <= 0:
            raise ValueError(f"median latency must be positive, got {median}")
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.median = median
        self.sigma = sigma
        self.floor = floor
        self._mu = math.log(median)

    def sample(self, rng: random.Random) -> float:
        return self.floor + lognormal(rng.random, self._mu, self.sigma)

    def mean(self) -> float:
        return self.floor + math.exp(self._mu + self.sigma**2 / 2.0)
