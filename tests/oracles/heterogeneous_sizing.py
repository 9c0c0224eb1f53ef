"""The heterogeneous bound and its sizing search as of commit c78d7a9, consumed by ``tests/test_heterogeneous_pool.py``.

``FrozenHeterogeneousQueue`` is ``HeterogeneousMMcQueue``'s one-probe path
(``log_unnormalised`` → ``_log_p0`` → ``state_probabilities`` →
``wait_bound_probability``); ``FrozenHeterogeneousSolver`` is
``SizingSolver.solve_heterogeneous``'s cold search — the ladder and the
bisection, one closure call per probe — without the memo and the warm
anchors the solver has since dropped.  The bodies are verbatim but for the
class names and a parameter for the queue class, so a test can add a fix
made since (the underflowing-ratio guard) without editing a body.
"""

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.core.queueing.logspace import logsumexp


class FrozenHeterogeneousQueue:
    """M/M/c queue whose ``c`` servers have individual service rates."""

    def __init__(self, lam: float, mus: Sequence[float]) -> None:
        if lam < 0:
            raise ValueError("arrival rate must be non-negative")
        mus_tuple = tuple(sorted(float(m) for m in mus))
        if not mus_tuple:
            raise ValueError("at least one container is required")
        if any(m <= 0 for m in mus_tuple):
            raise ValueError("all service rates must be positive")
        self.lam = float(lam)
        self.mus = mus_tuple

    @property
    def c(self) -> int:
        return len(self.mus)

    @property
    def aggregate_rate(self) -> float:
        return float(sum(self.mus))

    @property
    def is_stable(self) -> bool:
        return self.lam < self.aggregate_rate

    def _cumulative_rates(self) -> np.ndarray:
        return np.cumsum(np.asarray(self.mus, dtype=float))

    def log_unnormalised(self, n_max: int) -> np.ndarray:
        if n_max < 0:
            raise ValueError("n_max must be non-negative")
        if self.lam == 0:
            out = np.full(n_max + 1, -np.inf)
            out[0] = 0.0
            return out
        cumulative = self._cumulative_rates()
        log_lam = math.log(self.lam)
        log_s = np.log(cumulative)
        log_weights = np.empty(n_max + 1)
        log_weights[0] = 0.0
        if n_max > 0:
            n = np.arange(1, n_max + 1)
            increments = log_lam - log_s[np.minimum(n, self.c) - 1]
            np.cumsum(increments, out=log_weights[1:])
        return log_weights

    def _log_p0(self, log_weights: np.ndarray) -> float:
        if not self.is_stable:
            raise ValueError("unstable system: lambda >= aggregate service rate")
        if self.lam == 0:
            return 0.0
        c = self.c
        tail_ratio = self.lam / self.aggregate_rate
        a = np.empty(c + 2)
        a[: c + 1] = log_weights[: c + 1]
        a[c + 1] = log_weights[c] + math.log(tail_ratio) - math.log(1.0 - tail_ratio)
        return float(-logsumexp(a))

    def state_probabilities(self, n_max: int) -> np.ndarray:
        if n_max < 0:
            raise ValueError("n_max must be non-negative")
        log_weights = self.log_unnormalised(max(n_max, self.c))
        return np.exp(log_weights[: n_max + 1] + self._log_p0(log_weights))

    def wait_bound_probability(self, t: float) -> float:
        if t < 0:
            return 0.0
        if not self.is_stable:
            return 0.0
        L = int(math.floor(t * self.aggregate_rate + self.c - 1 + 1e-12))
        if L < 0:
            return 0.0
        probs = self.state_probabilities(L)
        return float(min(1.0, probs.sum()))


@dataclass
class FrozenStats:
    solves: int = 0
    #: never counted by a cold walk; kept so a test reads them beside the solver's
    cache_hits: int = 0
    warm_hits: int = 0
    probability_evaluations: int = 0


class FrozenHeterogeneousSolver:
    """``SizingSolver``'s heterogeneous half: the cold ladder-and-bisect search."""

    def __init__(self, queue: type = FrozenHeterogeneousQueue) -> None:
        self._queue = queue
        self.stats = FrozenStats()

    def solve_heterogeneous(
        self,
        lam: float,
        existing_mus: Sequence[float],
        standard_mu: float,
        wait_budget: float,
        percentile: float = 0.95,
        max_additional: int = 100_000,
    ) -> Tuple[int, float]:
        """``(containers, achieved_probability)``, as the parent's ``SizingResult`` held them."""
        if standard_mu <= 0:
            raise ValueError("standard service rate must be positive")
        if lam < 0:
            raise ValueError("arrival rate must be non-negative")
        existing = tuple(sorted(float(m) for m in existing_mus))
        if any(m <= 0 for m in existing):
            raise ValueError("existing service rates must be positive")
        self.stats.solves += 1
        if lam == 0:
            return len(existing), 1.0

        lam = float(lam)
        standard_mu = float(standard_mu)
        wait_budget = float(wait_budget)
        target = float(percentile)
        evals = [0]

        def probability(added: int) -> float:
            mus = list(existing) + [standard_mu] * added
            evals[0] += 1
            if not mus or sum(mus) <= lam:
                return 0.0
            return self._queue(lam, mus).wait_bound_probability(wait_budget)

        added, prob = self._ladder_heterogeneous(probability, target, 0, max_additional)
        self.stats.probability_evaluations += evals[0]
        return len(existing) + added, prob

    @staticmethod
    def _ladder_heterogeneous(probability, target: float, lo: int,
                              max_additional: int) -> Tuple[int, float]:
        if lo > max_additional:
            raise ValueError("could not satisfy SLO within max_additional containers")
        last_unsatisfied = lo - 1
        k = 0
        while True:
            added = lo + (1 << k) - 1
            k += 1
            capped = min(added, max_additional)
            prob = probability(capped)
            if prob >= target:
                return FrozenHeterogeneousSolver._bisect_heterogeneous(
                    probability, target, last_unsatisfied + 1, capped, prob
                )
            last_unsatisfied = capped
            if capped >= max_additional:
                raise ValueError("could not satisfy SLO within max_additional containers")

    @staticmethod
    def _bisect_heterogeneous(probability, target: float, lo: int, hi: int,
                              hi_prob: float) -> Tuple[int, float]:
        while lo < hi:
            mid = (lo + hi) // 2
            prob = probability(mid)
            if prob >= target:
                hi, hi_prob = mid, prob
            else:
                lo = mid + 1
        return hi, hi_prob
