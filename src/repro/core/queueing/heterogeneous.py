"""Heterogeneous-server M/M/c upper bounds (paper §3.2, Alves et al. 2011).

After deflation the containers of a function no longer share a single
service rate: container ``j`` serves at rate ``μ_j``.  The paper uses
the worst-case analysis of Alves et al., which assumes the dispatcher
always occupies the *slowest* idle container first.  Under that
assumption the system is a birth–death chain whose death rate in state
``n`` is the sum of the ``min(n, c)`` smallest service rates, giving the
upper-bound state probabilities (paper Eq. 5–6)::

    P_n = P_0 · λ^n / Π_{k=1}^{n} S_k          with S_k = Σ_{j=1}^{min(k,c)} μ_(j)

where ``μ_(1) <= ... <= μ_(c)`` are the rates sorted ascending.  For
``n > c`` the product's extra factors are all ``λ / S_c``, a geometric
tail that converges when ``λ < S_c`` (the aggregate service capacity).

The waiting-time bound mirrors the homogeneous case: an arrival that
sees ``n >= c`` requests waits about ``(n − c + 1)/S_c``, so
``P(Q <= t) >= Σ_{n=0}^{L} P_n`` with ``L = ⌊t·S_c + c − 1⌋``.  The
normalising constant is reduced by the ``logsumexp`` this module shares
with the homogeneous model (:mod:`repro.core.queueing.logspace`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.core.queueing.logspace import logsumexp


@dataclass(frozen=True)
class HeterogeneousMMcQueue:
    """M/M/c queue whose ``c`` servers have individual service rates.

    Parameters
    ----------
    lam:
        Poisson arrival rate.
    mus:
        Per-container service rates; order does not matter (they are
        sorted ascending internally, as the worst-case analysis requires).
    """

    lam: float
    mus: Tuple[float, ...]

    def __init__(self, lam: float, mus: Sequence[float]) -> None:
        """Validate the rates and pre-sort the per-server service rates."""
        if lam < 0:
            raise ValueError("arrival rate must be non-negative")
        mus_tuple = tuple(sorted(float(m) for m in mus))
        if not mus_tuple:
            raise ValueError("at least one container is required")
        if any(m <= 0 for m in mus_tuple):
            raise ValueError("all service rates must be positive")
        object.__setattr__(self, "lam", float(lam))
        object.__setattr__(self, "mus", mus_tuple)

    # ------------------------------------------------------------------
    # Basic quantities
    # ------------------------------------------------------------------
    @property
    def c(self) -> int:
        """Number of containers."""
        return len(self.mus)

    @property
    def aggregate_rate(self) -> float:
        """Total service capacity ``S_c = Σ μ_j``."""
        return float(sum(self.mus))

    @property
    def utilization(self) -> float:
        """``ρ = λ / S_c``."""
        return self.lam / self.aggregate_rate

    @property
    def is_stable(self) -> bool:
        """Whether the worst-case chain has a steady state."""
        return self.lam < self.aggregate_rate

    def _cumulative_rates(self) -> np.ndarray:
        """``S_1 .. S_c``: cumulative sums of the ascending-sorted rates."""
        return np.cumsum(np.asarray(self.mus, dtype=float))

    # ------------------------------------------------------------------
    # State probabilities (paper Eq. 5–6)
    # ------------------------------------------------------------------
    def log_unnormalised(self, n_max: int) -> np.ndarray:
        """Log of the unnormalised state weights ``π_n = λ^n / Π S_k`` for ``n=0..n_max``."""
        if n_max < 0:
            raise ValueError("n_max must be non-negative")
        if self.lam == 0:
            out = np.full(n_max + 1, -np.inf)
            out[0] = 0.0
            return out
        cumulative = self._cumulative_rates()
        log_lam = math.log(self.lam)
        log_s = np.log(cumulative)
        # one cumulative sum over the per-state increments log λ − log S_k
        # replaces the former Python loop over n (the control-plane solver
        # evaluates this bound on every heterogeneous sizing probe)
        log_weights = np.empty(n_max + 1)
        log_weights[0] = 0.0
        if n_max > 0:
            n = np.arange(1, n_max + 1)
            increments = log_lam - log_s[np.minimum(n, self.c) - 1]
            np.cumsum(increments, out=log_weights[1:])
        return log_weights

    def log_p0(self) -> float:
        """Log of the normalising constant's inverse (``log P_0``)."""
        return self._log_p0(self.log_unnormalised(self.c))

    def _log_p0(self, log_weights: np.ndarray) -> float:
        """``log P_0`` from weights already computed for (at least) ``n = 0..c``."""
        if not self.is_stable:
            raise ValueError("unstable system: lambda >= aggregate service rate")
        if self.lam == 0:
            return 0.0
        # finite part up to n = c, then a closed-form geometric tail
        c = self.c
        tail_ratio = self.lam / self.aggregate_rate
        a = np.empty(c + 2)
        a[: c + 1] = log_weights[: c + 1]
        # sum_{n=c+1}^{inf} w_c * ratio^{n-c} = w_c * ratio / (1 - ratio)
        a[c + 1] = log_weights[c] + math.log(tail_ratio) - math.log(1.0 - tail_ratio)
        return float(-logsumexp(a))

    def state_probabilities(self, n_max: int) -> np.ndarray:
        """Upper-bound probabilities ``P_0 .. P_{n_max}``."""
        if n_max < 0:
            raise ValueError("n_max must be non-negative")
        # one cumulative-sum pass serves both the normaliser (n <= c) and
        # the requested states: np.cumsum is prefix-stable
        log_weights = self.log_unnormalised(max(n_max, self.c))
        return np.exp(log_weights[: n_max + 1] + self._log_p0(log_weights))

    # ------------------------------------------------------------------
    # Waiting time bound
    # ------------------------------------------------------------------
    def wait_bound_probability(self, t: float) -> float:
        """Lower bound on ``P(Q <= t)`` under worst-case dispatch."""
        if t < 0:
            return 0.0
        if not self.is_stable:
            return 0.0
        L = int(math.floor(t * self.aggregate_rate + self.c - 1 + 1e-12))
        if L < 0:
            return 0.0
        probs = self.state_probabilities(L)
        return float(min(1.0, probs.sum()))

    def wait_bound_percentile(self, percentile: float, resolution: float = 1e-4) -> float:
        """Smallest ``t`` with ``wait_bound_probability(t) >= percentile``."""
        if not 0 < percentile < 1:
            raise ValueError("percentile must be in (0, 1)")
        if not self.is_stable:
            return math.inf
        if self.wait_bound_probability(0.0) >= percentile:
            return 0.0
        lo, hi = 0.0, self.c / self.aggregate_rate
        while self.wait_bound_probability(hi) < percentile:
            hi *= 2.0
            if hi > 1e7:  # pragma: no cover - pathological
                return math.inf
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            if self.wait_bound_probability(mid) >= percentile:
                hi = mid
            else:
                lo = mid
        return hi

    @property
    def mean_number_in_system(self) -> float:
        """Mean of the upper-bound distribution of the number in system."""
        if not self.is_stable:
            return math.inf
        # sum the finite head explicitly and the geometric tail in closed form
        head_max = self.c + 200
        probs = self.state_probabilities(head_max)
        ratio = self.lam / self.aggregate_rate
        head = float(np.dot(np.arange(head_max + 1), probs))
        # tail: P_n = P_head_max * ratio^{n - head_max} for n > head_max
        p_last = probs[head_max]
        tail = p_last * ratio * ((head_max + 1) * (1 - ratio) + ratio) / (1 - ratio) ** 2
        return head + tail

    def matches_homogeneous(self) -> bool:
        """True when all containers share the same service rate."""
        return max(self.mus) - min(self.mus) < 1e-12


__all__ = ["HeterogeneousMMcQueue"]
