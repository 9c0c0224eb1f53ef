"""M/M/c/FCFS queueing analysis (paper §3.1).

The model: requests for a function arrive as a Poisson process of rate
``λ``; each of ``c`` identical containers serves requests with
exponential service times of rate ``μ``.  The steady-state probability
of ``n`` requests in the system is (paper Eq. 1–2)::

    P_n = (r^n / n!) P_0                for 0 <= n <= c
    P_n = (r^n / (c^(n-c) c!)) P_0      for n >= c

with ``r = λ/μ`` and ``ρ = λ/(cμ) < 1`` for stability.  From these the
paper derives a bound on the waiting time: an arriving request that sees
``n >= c`` requests waits roughly ``(n − c + 1)/(cμ)``, so the
probability that the wait is below ``t`` is ``Σ_{n=0}^{L} P_n`` with
``L = ⌊t c μ + c − 1⌋`` (Eq. 3–4).

This module implements those formulas in a numerically careful way
(log-space factorials, so ``c`` in the thousands is fine) and also the
exact Erlang-C waiting-time distribution, which is used for comparison
and in tests as an independent cross-check of the paper's bound.  The
factorials are read from the shared table of
:mod:`repro.core.queueing.logspace` — bit-equal to the ``gammaln`` calls
they replace (frozen in ``tests/test_queueing_mmc.py`` as oracles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.queueing.logspace import log_factorials, logsumexp


def _validate(lam: float, mu: float, c: int) -> None:
    """Validate λ ≥ 0, μ > 0, and c ≥ 1."""
    if lam < 0:
        raise ValueError(f"arrival rate must be non-negative, got {lam}")
    if mu <= 0:
        raise ValueError(f"service rate must be positive, got {mu}")
    if c < 1:
        raise ValueError(f"number of servers must be >= 1, got {c}")


def mmc_log_p0(lam: float, mu: float, c: int) -> float:
    """Natural log of the empty-system probability ``P_0`` of an M/M/c queue.

    Requires ``ρ = λ/(cμ) < 1``.
    """
    _validate(lam, mu, c)
    r = lam / mu
    rho = r / c
    if rho >= 1.0:
        raise ValueError(f"unstable system: rho={rho:.4f} >= 1 (lam={lam}, mu={mu}, c={c})")
    if r == 0:      # λ = 0, or a positive λ whose ratio underflows: never waits
        return 0.0
    # log of the two pieces of 1/P0
    log_r = math.log(r)
    log_fact = log_factorials(c)
    # sum_{n=0}^{c-1} r^n / n!
    log_sum_finite = logsumexp(np.arange(c) * log_r - log_fact[:c])
    # r^c / (c! (1-rho))
    log_tail = c * log_r - log_fact[c] - math.log(1.0 - rho)
    log_inv_p0 = np.logaddexp(log_sum_finite, log_tail)
    return float(-log_inv_p0)


def mmc_state_probabilities(lam: float, mu: float, c: int, n_max: int) -> np.ndarray:
    """Steady-state probabilities ``P_0 .. P_{n_max}`` of an M/M/c queue.

    Implements the paper's Eq. 1–2 in log space.
    """
    _validate(lam, mu, c)
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    r = lam / mu
    if r == 0:
        probs = np.zeros(n_max + 1)
        probs[0] = 1.0
        return probs
    log_r = math.log(r)
    log_p0 = mmc_log_p0(lam, mu, c)
    log_fact = log_factorials(c)
    n = np.arange(n_max + 1)
    log_pn = np.empty(n_max + 1)
    head = n <= c
    log_pn[head] = n[head] * log_r - log_fact[n[head]] + log_p0
    tail = ~head
    if tail.any():
        log_pn[tail] = (
            n[tail] * log_r
            - (n[tail] - c) * math.log(c)
            - log_fact[c]
            + log_p0
        )
    return np.exp(log_pn)


def erlang_c(lam: float, mu: float, c: int) -> float:
    """Erlang-C: the probability that an arriving request must wait.

    ``C(c, r) = P(N >= c)`` for an M/M/c queue; used as an independent
    cross-check of the state-probability computation.
    """
    _validate(lam, mu, c)
    r = lam / mu
    if r == 0:
        return 0.0
    rho = r / c
    if rho >= 1.0:
        return 1.0
    log_p0 = mmc_log_p0(lam, mu, c)
    log_pw = c * math.log(r) - log_factorials(c)[c] - math.log(1.0 - rho) + log_p0
    return float(min(1.0, math.exp(log_pw)))


@dataclass(frozen=True)
class MMcQueue:
    """An M/M/c/FCFS queue with arrival rate ``lam``, service rate ``mu``, ``c`` servers.

    All quantities are exact steady-state values (no simulation).
    """

    lam: float
    mu: float
    c: int

    def __post_init__(self) -> None:
        """Validate the queue parameters."""
        _validate(self.lam, self.mu, self.c)

    # ------------------------------------------------------------------
    # Basic quantities
    # ------------------------------------------------------------------
    @property
    def offered_load(self) -> float:
        """``r = λ/μ``, the offered load in Erlangs."""
        return self.lam / self.mu

    @property
    def utilization(self) -> float:
        """``ρ = λ/(cμ)``."""
        return self.lam / (self.c * self.mu)

    @property
    def is_stable(self) -> bool:
        """Whether the queue has a steady state (ρ < 1)."""
        return self.utilization < 1.0

    def state_probabilities(self, n_max: int) -> np.ndarray:
        """``P_0 .. P_{n_max}`` (paper Eq. 1–2)."""
        return mmc_state_probabilities(self.lam, self.mu, self.c, n_max)

    @property
    def probability_of_waiting(self) -> float:
        """Erlang-C probability that an arrival finds all containers busy."""
        return erlang_c(self.lam, self.mu, self.c)

    # ------------------------------------------------------------------
    # Waiting time
    # ------------------------------------------------------------------
    @property
    def mean_wait(self) -> float:
        """Expected waiting time in queue, ``W_q = C(c,r) / (cμ − λ)``."""
        if not self.is_stable:
            return math.inf
        return self.probability_of_waiting / (self.c * self.mu - self.lam)

    @property
    def mean_queue_length(self) -> float:
        """Expected number waiting in queue (Little's law: ``L_q = λ W_q``)."""
        return self.lam * self.mean_wait

    @property
    def mean_response_time(self) -> float:
        """Expected sojourn time ``W = W_q + 1/μ``."""
        return self.mean_wait + 1.0 / self.mu

    def wait_cdf_exact(self, t: float) -> float:
        """Exact FCFS waiting-time CDF: ``P(W_q <= t) = 1 − C(c,r) e^{−(cμ−λ)t}``."""
        if t < 0:
            return 0.0
        if not self.is_stable:
            return 0.0
        return 1.0 - self.probability_of_waiting * math.exp(-(self.c * self.mu - self.lam) * t)

    def wait_percentile_exact(self, percentile: float) -> float:
        """Exact percentile of the FCFS waiting-time distribution.

        Returns 0 when the percentile is already met by requests that do
        not wait at all.
        """
        if not 0 < percentile < 1:
            raise ValueError("percentile must be in (0, 1)")
        if not self.is_stable:
            return math.inf
        pw = self.probability_of_waiting
        if 1.0 - pw >= percentile:
            return 0.0
        return -math.log((1.0 - percentile) / pw) / (self.c * self.mu - self.lam)

    def wait_bound_probability(self, t: float) -> float:
        """The paper's bound (Eq. 3–4): ``P(Q <= t) ≈ Σ_{n=0}^{L} P_n``.

        ``L = ⌊t c μ + c − 1⌋`` is the largest number of requests an
        arrival can see while still expecting to wait at most ``t``.
        """
        if t < 0:
            return 0.0
        if not self.is_stable:
            return 0.0
        L = int(math.floor(t * self.c * self.mu + self.c - 1 + 1e-12))
        if L < 0:
            return 0.0
        probs = self.state_probabilities(L)
        return float(min(1.0, probs.sum()))

    def wait_bound_percentile(self, percentile: float, resolution: float = 1e-4) -> float:
        """Smallest ``t`` such that the paper's bound reaches ``percentile``.

        Found by bisection on :meth:`wait_bound_probability` (which is a
        non-decreasing step function of ``t``).
        """
        if not 0 < percentile < 1:
            raise ValueError("percentile must be in (0, 1)")
        if not self.is_stable:
            return math.inf
        if self.wait_bound_probability(0.0) >= percentile:
            return 0.0
        lo, hi = 0.0, 1.0 / self.mu
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

    def expected_busy_containers(self) -> float:
        """Mean number of busy containers, ``λ/μ`` for a stable system."""
        if not self.is_stable:
            return float(self.c)
        return self.offered_load


__all__ = [
    "MMcQueue",
    "erlang_c",
    "mmc_state_probabilities",
    "mmc_log_p0",
]
