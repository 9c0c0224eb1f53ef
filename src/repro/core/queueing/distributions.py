"""Service-time distributions for the simulator and estimators.

The paper assumes exponential service times for the queueing analysis
(§3.1) and notes generalising to other distributions as future work.
The simulator supports several distributions so that experiments can
check robustness of the model when the exponential assumption is
violated (an ablation in ``benchmarks/``), but the exponential one is
the default everywhere.

All distributions are parameterised by their *mean* so that swapping
one for another keeps the offered load identical.
"""

from __future__ import annotations

import abc
import math
from typing import Optional

import numpy as np


class ServiceTimeDistribution(abc.ABC):
    """Abstract base: a positive random variable with a known mean."""

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Mean service time in seconds."""

    @property
    def rate(self) -> float:
        """Service rate ``μ = 1/mean``."""
        return 1.0 / self.mean

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw one sample (or ``size`` samples) of the service time."""

    def scaled(self, factor: float) -> "ServiceTimeDistribution":
        """Return a copy whose mean is multiplied by ``factor``.

        Used to derive the service-time distribution of a *deflated*
        container from the standard one: a container running at speed
        ``s`` has service times ``factor = 1/s`` times longer.
        """
        raise NotImplementedError


class Exponential(ServiceTimeDistribution):
    """Exponential service times (the paper's modelling assumption)."""

    def __init__(self, mean: float) -> None:
        """Exponential distribution with the given mean."""
        if mean <= 0:
            raise ValueError("mean must be positive")
        self._mean = float(mean)

    @property
    def mean(self) -> float:
        """Mean service time."""
        return self._mean

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw one value (or ``size`` values) from the distribution."""
        return rng.exponential(self._mean, size=size)

    def scaled(self, factor: float) -> "Exponential":
        """A copy with the mean scaled by ``factor``."""
        return Exponential(self._mean * factor)


class Deterministic(ServiceTimeDistribution):
    """Constant service times (e.g. the configurable micro-benchmark)."""

    def __init__(self, mean: float) -> None:
        """Point mass at ``mean``."""
        if mean <= 0:
            raise ValueError("mean must be positive")
        self._mean = float(mean)

    @property
    def mean(self) -> float:
        """Mean service time."""
        return self._mean

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Return the constant (or an array of it); consumes no randomness."""
        if size is None:
            return self._mean
        return np.full(size, self._mean)

    def scaled(self, factor: float) -> "Deterministic":
        """A copy with the mean scaled by ``factor``."""
        return Deterministic(self._mean * factor)


class LogNormal(ServiceTimeDistribution):
    """Log-normal service times, matching observed DNN-inference variability.

    Parameterised by the mean and the coefficient of variation (std/mean).
    """

    def __init__(self, mean: float, cv: float = 0.25) -> None:
        """Log-normal with the given mean and coefficient of variation."""
        if mean <= 0:
            raise ValueError("mean must be positive")
        if cv <= 0:
            raise ValueError("coefficient of variation must be positive")
        self._mean = float(mean)
        self._cv = float(cv)
        self._sigma2 = math.log(1.0 + cv * cv)
        self._mu = math.log(mean) - 0.5 * self._sigma2

    @property
    def mean(self) -> float:
        """Mean service time."""
        return self._mean

    @property
    def cv(self) -> float:
        """Coefficient of variation."""
        return self._cv

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw one value (or ``size`` values) from the distribution."""
        return rng.lognormal(self._mu, math.sqrt(self._sigma2), size=size)

    def scaled(self, factor: float) -> "LogNormal":
        """A copy with the mean scaled by ``factor`` (same CV)."""
        return LogNormal(self._mean * factor, self._cv)


__all__ = [
    "ServiceTimeDistribution",
    "Exponential",
    "Deterministic",
    "LogNormal",
]
