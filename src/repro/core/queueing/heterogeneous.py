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
normalising constant is reduced by the homogeneous model's
``logsumexp`` (:mod:`repro.core.queueing.logspace`).

:func:`wait_bound`, the one body of the bound, evaluates one
``(λ, rates, t)`` probe: the chain's log weights (a ``cumsum``), ``log P_0``
and the state sum.  :meth:`HeterogeneousMMcQueue.wait_bound_probability`
and the sizing solver's walk above 32 containers both call it.
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
        return _chain_log_weights(self.lam, self.mus, n_max)

    def log_p0(self) -> float:
        """Log of the normalising constant's inverse (``log P_0``)."""
        return self._log_p0(self.log_unnormalised(self.c))

    def _log_p0(self, log_weights: np.ndarray) -> float:
        """``log P_0`` from weights already computed for (at least) ``n = 0..c``."""
        if not self.is_stable:
            raise ValueError("unstable system: lambda >= aggregate service rate")
        if self.utilization == 0:
            return 0.0
        return float(-_log_normaliser(log_weights, self.lam, self.mus))

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
        return wait_bound(self.lam, self.mus, t)

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


def wait_bound(lam: float, rates: Sequence[float], t: float) -> float:
    """The bound ``P(Q <= t)`` of a fleet with ascending service ``rates``.

    The chain's weights, ``log P_0`` and the state sum up to the cutoff
    ``L``; the guards (``t < 0``, ``λ ≥ S_c``, a negative cutoff) read 0,
    and a ratio ``λ / S_c`` of 0 (``λ = 0``, or one that underflows)
    reads 1.  Rates must be positive and ascending; nothing here
    re-validates them.
    """
    if t < 0:
        return 0.0
    aggregate = float(sum(rates))
    if not lam < aggregate:
        return 0.0
    c = len(rates)
    cutoff = int(math.floor(t * aggregate + c - 1 + 1e-12))
    if cutoff < 0:
        return 0.0
    if lam / aggregate == 0:
        return 1.0   # λ = 0, or a ratio that underflows: never waits
    weights = _chain_log_weights(lam, rates, max(cutoff, c))
    # P(Q <= t) >= Σ_{n <= L} P_n
    probabilities = np.exp(weights[:cutoff + 1] - _log_normaliser(weights, lam, rates))
    return float(min(1.0, probabilities.sum()))


def _chain_log_weights(lam: float, rates: Sequence[float], states: int) -> np.ndarray:
    """``log λ^n / Π_{k≤n} S_k`` for ``n = 0 .. states`` (``λ > 0``, ``rates`` ascending).

    ``S_k`` is the ``cumsum`` of the rates, and the weights one more over
    the increments ``log λ − log S_min(n, c)``.
    """
    log_s = np.log(np.cumsum(rates))
    index = np.minimum(np.arange(1, states + 1), len(rates)) - 1
    weights = np.zeros(states + 1)
    np.cumsum(math.log(lam) - log_s[index], out=weights[1:])
    return weights


def _log_normaliser(weights: np.ndarray, lam: float, rates: Sequence[float]) -> float:
    """``−log P_0``: :func:`~repro.core.queueing.logspace.logsumexp` of ``w_0 .. w_c`` and the tail.

    The geometric tail ``Σ_{n>c} w_c ρ^{n−c} = w_c ρ / (1 − ρ)`` takes its
    logs from libm.
    """
    c = len(rates)
    ratio = lam / float(sum(rates))
    terms = np.empty(c + 2)
    terms[:c + 1] = weights[:c + 1]
    terms[c + 1] = weights[c] + math.log(ratio) - math.log(1.0 - ratio)
    return logsumexp(terms)


__all__ = ["HeterogeneousMMcQueue", "wait_bound"]
