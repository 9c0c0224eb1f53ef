"""The heterogeneous bound and its sizing search as of commit c78d7a9, consumed by ``tests/test_heterogeneous_pool.py``.

``FrozenHeterogeneousQueue`` is ``HeterogeneousMMcQueue``'s one-probe path
(``log_unnormalised`` → ``_log_p0`` → ``state_probabilities`` →
``wait_bound_probability``); ``FrozenHeterogeneousSolver`` is
``SizingSolver.solve_heterogeneous`` with its scalar warm branch, ladder and
bisection, one closure call per probe.  The bodies are verbatim but for the
class names, a plain dict for the memo, two flags standing in for the
solver's cache switches and the queue class, a parameter so a test can add
a fix made since (the underflowing-ratio guard) without editing a body.
"""

import math
from dataclasses import dataclass
from typing import Hashable, Optional, Sequence, Tuple

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
    cache_hits: int = 0
    warm_hits: int = 0
    warm_fallbacks: int = 0
    full_searches: int = 0
    probability_evaluations: int = 0


class FrozenHeterogeneousSolver:
    """``SizingSolver``'s heterogeneous half: memo, warm anchors and the scalar search."""

    def __init__(self, caching: bool = True, warming: bool = True,
                 queue: type = FrozenHeterogeneousQueue) -> None:
        self._caching = caching
        self._warming = warming
        self._queue = queue
        self._heterogeneous = {}
        self._warm_heterogeneous = {}
        self.stats = FrozenStats()

    def solve_heterogeneous(
        self,
        lam: float,
        existing_mus: Sequence[float],
        standard_mu: float,
        wait_budget: float,
        percentile: float = 0.95,
        max_additional: int = 100_000,
        key: Optional[Hashable] = None,
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
        solve_key = (lam, existing, standard_mu, wait_budget, target)
        if self._caching:
            hit = self._heterogeneous.get(solve_key)
            if hit is not None:
                added, prob = hit
                if added > max_additional:
                    raise ValueError(
                        "could not satisfy SLO within max_additional containers"
                    )
                self.stats.cache_hits += 1
                if self._warming and key is not None:
                    self._warm_heterogeneous[key] = added
                return len(existing) + added, prob

        evals = [0]

        def probability(added: int) -> float:
            mus = list(existing) + [standard_mu] * added
            evals[0] += 1
            if not mus or sum(mus) <= lam:
                return 0.0
            return self._queue(lam, mus).wait_bound_probability(wait_budget)

        added, prob = self._search_heterogeneous(
            probability, target, max_additional, key, lam
        )
        if self._caching:
            self._heterogeneous[solve_key] = (added, prob)
        if self._warming and key is not None:
            self._warm_heterogeneous[key] = added
        self.stats.probability_evaluations += evals[0]
        return len(existing) + added, prob

    def _search_heterogeneous(self, probability, target: float, max_additional: int,
                              key: Optional[Hashable], lam: float) -> Tuple[int, float]:
        previous = (
            self._warm_heterogeneous.get(key)
            if (self._warming and key is not None) else None
        )
        if previous is not None:
            anchor = min(max(previous, 0), max_additional)
            p_here = probability(anchor)
            if p_here >= target:
                if anchor == 0:
                    self.stats.warm_hits += 1
                    return anchor, p_here
                p_below = probability(anchor - 1)
                if p_below < target:
                    self.stats.warm_hits += 1
                    return anchor, p_here
                if anchor - 1 == 0:
                    self.stats.warm_hits += 1
                    return 0, p_below
                self.stats.warm_fallbacks += 1
                return self._bisect_heterogeneous(probability, target, 0, anchor - 1, p_below)
            if anchor + 1 <= max_additional:
                p_above = probability(anchor + 1)
                if p_above >= target:
                    self.stats.warm_hits += 1
                    return anchor + 1, p_above
                self.stats.warm_fallbacks += 1
                return self._ladder_heterogeneous(probability, target,
                                                  anchor + 2, max_additional)
            raise ValueError("could not satisfy SLO within max_additional containers")
        self.stats.full_searches += 1
        return self._ladder_heterogeneous(probability, target, 0, max_additional)

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
