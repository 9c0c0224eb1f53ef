"""M/G/c approximation: sizing under general service-time distributions.

The paper's model assumes exponential service times and lists
generalising to other distributions as future work (§8).  This module
provides that extension: an M/G/c waiting-time approximation based on
the classical Allen–Cunneen / Kingman correction, where the M/M/c
waiting time is scaled by ``(1 + CV_s²)/2`` with ``CV_s`` the
coefficient of variation of the service-time distribution.

For exponential service (``CV_s = 1``) the correction is exactly 1 and
the model reduces to the paper's M/M/c analysis; for low-variability
services (the DNN inference functions, whose measured CV is ~0.2) it
predicts shorter waits and therefore fewer containers, and for
high-variability services it is more conservative.  The waiting-time
*distribution* is approximated as exponential beyond the probability of
waiting (a standard heavy-traffic approximation), which is what the
percentile-based SLO check needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.queueing.distributions import ServiceTimeDistribution
from repro.core.queueing.mmc import MMcQueue
from repro.core.queueing.sizing import SizingResult


def _check_scv(scv: float) -> None:
    """Raise ``ValueError`` unless the SCV is finite and non-negative (NaN fails every comparison)."""
    if not 0.0 <= scv < math.inf:
        raise ValueError(f"squared coefficient of variation must be finite and non-negative, "
                         f"got {scv}")


@dataclass(frozen=True)
class MGcQueue:
    """An M/G/c queue approximated via the Allen–Cunneen correction.

    Parameters
    ----------
    lam:
        Poisson arrival rate.
    mean_service_time:
        Mean of the (general) service-time distribution, in seconds.
    scv:
        Squared coefficient of variation of the service time
        (``variance / mean²``); 1.0 recovers M/M/c.
    c:
        Number of containers.
    """

    lam: float
    mean_service_time: float
    scv: float
    c: int

    def __post_init__(self) -> None:
        """Validate the queue parameters."""
        if self.lam < 0:
            raise ValueError("arrival rate must be non-negative")
        if self.mean_service_time <= 0:
            raise ValueError("mean service time must be positive")
        _check_scv(self.scv)
        if self.c < 1:
            raise ValueError("at least one container is required")

    @classmethod
    def from_distribution(
        cls, lam: float, distribution: ServiceTimeDistribution, c: int, samples: int = 20000
    ) -> "MGcQueue":
        """Build from a :class:`ServiceTimeDistribution`, estimating its SCV.

        Closed-form SCVs are used where the distribution exposes one
        (exponential → 1, deterministic → 0); otherwise the SCV is
        estimated from ``samples`` Monte-Carlo draws.
        """
        import numpy as np

        from repro.core.queueing.distributions import Deterministic, Exponential, LogNormal

        if isinstance(distribution, Exponential):
            scv = 1.0
        elif isinstance(distribution, Deterministic):
            scv = 0.0
        elif isinstance(distribution, LogNormal):
            scv = distribution.cv ** 2
        else:
            rng = np.random.default_rng(7)
            draws = np.asarray(distribution.sample(rng, size=samples), dtype=float)
            scv = float(draws.var() / draws.mean() ** 2)
        return cls(lam=lam, mean_service_time=distribution.mean, scv=scv, c=c)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def mu(self) -> float:
        """Service rate of one container."""
        return 1.0 / self.mean_service_time

    @property
    def utilization(self) -> float:
        """``ρ = λ/(cμ)``."""
        return self.lam / (self.c * self.mu)

    @property
    def is_stable(self) -> bool:
        """Whether the queue has a steady state."""
        return self.utilization < 1.0

    def _mmc(self) -> MMcQueue:
        """The M/M/c queue with the same λ, μ, and c (the approximation's base)."""
        return MMcQueue(self.lam, self.mu, self.c)

    @property
    def correction(self) -> float:
        """The Allen–Cunneen variability correction ``(1 + CV_s²)/2``."""
        return (1.0 + self.scv) / 2.0

    @property
    def mean_wait(self) -> float:
        """Approximate mean waiting time ``W_q(M/G/c) ≈ W_q(M/M/c)·(1+CV²)/2``."""
        if not self.is_stable:
            return math.inf
        return self._mmc().mean_wait * self.correction

    @property
    def probability_of_waiting(self) -> float:
        """Erlang-C probability of waiting (insensitive to the service distribution
        to first order, so the M/M/c value is used)."""
        return self._mmc().probability_of_waiting

    def wait_cdf(self, t: float) -> float:
        """Approximate ``P(W_q <= t)``.

        The conditional wait (given that the request waits at all) is
        approximated as exponential with the corrected mean.
        """
        if t < 0:
            return 0.0
        if not self.is_stable:
            return 0.0
        pw = self.probability_of_waiting
        if pw <= 0:
            return 1.0
        conditional_mean = self.mean_wait / pw
        return 1.0 - pw * math.exp(-t / conditional_mean)

    def wait_percentile(self, percentile: float) -> float:
        """Approximate percentile of the waiting time."""
        if not 0 < percentile < 1:
            raise ValueError("percentile must be in (0, 1)")
        if not self.is_stable:
            return math.inf
        pw = self.probability_of_waiting
        if 1.0 - pw >= percentile:
            return 0.0
        conditional_mean = self.mean_wait / pw
        return -conditional_mean * math.log((1.0 - percentile) / pw)


def required_containers_mgc(
    lam: float,
    mean_service_time: float,
    scv: float,
    wait_budget: float,
    percentile: float = 0.95,
    max_containers: int = 100_000,
) -> SizingResult:
    """Algorithm 1 under the M/G/c approximation.

    Finds the smallest ``c`` such that the approximate ``percentile`` of
    the waiting time is at most ``wait_budget``.  With ``scv=1`` the
    answer is very close to (and never below) the paper's M/M/c-based
    sizing; with ``scv<1`` (low-variability DNN inference) it typically
    saves a container at higher loads.
    """
    if lam < 0:
        raise ValueError("arrival rate must be non-negative")
    if mean_service_time <= 0:
        raise ValueError("mean service time must be positive")
    if wait_budget < 0:
        raise ValueError("wait budget must be non-negative")
    _check_scv(scv)
    if not 0 < percentile < 1:
        raise ValueError("percentile must be in (0, 1)")
    if lam == 0:
        return SizingResult(0, 1.0, wait_budget, 0)

    mu = 1.0 / mean_service_time
    c = int(math.floor(lam / mu)) + 1
    iterations = 0
    while c <= max_containers:
        iterations += 1
        queue = MGcQueue(lam, mean_service_time, scv, c)
        if queue.is_stable:
            achieved = queue.wait_cdf(wait_budget)
            if achieved >= percentile:
                return SizingResult(
                    containers=c,
                    achieved_probability=achieved,
                    wait_budget=wait_budget,
                    iterations=iterations,
                )
        c += 1
    raise ValueError("could not satisfy SLO within max_containers")


__all__ = ["MGcQueue", "required_containers_mgc"]
