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
normalising constant is reduced by a row-wise form of the homogeneous
model's ``logsumexp`` (:mod:`repro.core.queueing.logspace`).

:func:`wait_bounds`, the one body of the bound, evaluates a pool of
``(λ, rates, t)`` probes at once, and no value depends on its
pool-mates: elementwise steps run over a padded block, the chain weights
are a sequential row ``cumsum``, and both sums run at each row's exact
width.  :meth:`HeterogeneousMMcQueue.wait_bound_probability` is a pool
of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np


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
        return _chain_log_weights((self.lam,), (self.mus,), n_max)[0]

    def log_p0(self) -> float:
        """Log of the normalising constant's inverse (``log P_0``)."""
        return self._log_p0(self.log_unnormalised(self.c))

    def _log_p0(self, log_weights: np.ndarray) -> float:
        """``log P_0`` from weights already computed for (at least) ``n = 0..c``."""
        if not self.is_stable:
            raise ValueError("unstable system: lambda >= aggregate service rate")
        if self.utilization == 0:
            return 0.0
        return float(-_log_normalisers(log_weights[None, :], (self.lam,), (self.mus,),
                                       (self.aggregate_rate,))[0])

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
        return wait_bounds(((self.lam, self.mus, t),))[0]

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


#: cells one pooled block may hold; a larger pool is cut into blocks of
#: rows, which cannot change a value (a row never reads its batch-mates)
_MAX_BLOCK_CELLS = 1 << 20


def wait_bounds(probes: Sequence[Tuple[float, Sequence[float], float]]) -> List[float]:
    """The bound ``P(Q <= t)`` of each ``(λ, ascending rates, t)`` probe, in one pass.

    Each value is, bit for bit, what the probe gives in a pool of its own
    (the chain's weights, ``log P_0`` and the state sum, one probe at a
    time).  The scalar guards (``t < 0``, ``λ ≥ S_c``, a negative cutoff)
    and ``log λ``, ``log ρ``, ``log(1 − ρ)`` stay Python and libm
    ``math.log``; everything else is a few numpy passes over the pool.
    Rates must be positive and ascending; nothing here re-validates them.
    """
    values = [0.0] * len(probes)
    rows = []
    for slot, (lam, rates, t) in enumerate(probes):
        if t < 0:
            continue
        aggregate = float(sum(rates))
        if not lam < aggregate:
            continue
        c = len(rates)
        cutoff = int(math.floor(t * aggregate + c - 1 + 1e-12))
        if cutoff < 0:
            continue
        if lam / aggregate == 0:
            values[slot] = 1.0   # λ = 0, or a ratio that underflows: never waits
            continue
        rows.append((slot, lam, rates, aggregate, cutoff))
    if rows:
        widest = max(max(row[4], len(row[2])) for row in rows) + 2
        step = max(1, _MAX_BLOCK_CELLS // widest)
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            for (slot, *_), value in zip(block, _bound_block(block)):
                values[slot] = value
    return values


def _bound_block(rows: List[Tuple[int, float, Sequence[float], float, int]]) -> List[float]:
    """:func:`wait_bounds` over stable rows ``(slot, λ, rates, S_c, L)`` as one padded block."""
    _, lams, fleets, aggregates, cutoffs = zip(*rows)
    weights = _chain_log_weights(lams, fleets, max(max(cutoffs), max(map(len, fleets))))
    # P(Q <= t) >= Σ_{n <= L} P_n, summed at each row's own width L + 1
    probabilities = np.exp(weights - _log_normalisers(weights, lams, fleets, aggregates)[:, None])
    return np.minimum(1.0, _row_sums(probabilities, [L + 1 for L in cutoffs])).tolist()


def _chain_log_weights(lams: Sequence[float], fleets: Sequence[Sequence[float]],
                       states: int) -> np.ndarray:
    """Row ``i``: ``log λ^n / Π_{k≤n} S_k`` for ``n = 0 .. states`` (``λ_i > 0``).

    ``S_k`` is a row-wise ``cumsum`` of the ascending rates (pad rates are
    never read) and the weights one more, over the increments
    ``log λ − log S_min(n, c)``; both are sequential, so each row's
    prefix is what the row gives alone.
    """
    cs = [len(rates) for rates in fleets]
    c_max = max(cs)
    padded = np.array([tuple(rates) + (1.0,) * (c_max - c) for rates, c in zip(fleets, cs)])
    log_s = np.log(np.cumsum(padded, axis=1))
    index = np.minimum(np.arange(1, states + 1), np.array(cs)[:, None]) - 1
    log_lam = np.array([math.log(lam) for lam in lams])
    weights = np.zeros((len(lams), states + 1))
    np.cumsum(log_lam[:, None] - np.take_along_axis(log_s, index, axis=1),
              axis=1, out=weights[:, 1:])
    return weights


def _log_normalisers(weights: np.ndarray, lams: Sequence[float],
                     fleets: Sequence[Sequence[float]], aggregates: Sequence[float]) -> np.ndarray:
    """``−log P_0`` per row: ``logsumexp`` of ``w_0 .. w_c`` and the geometric tail.

    :func:`repro.core.queueing.logspace.logsumexp` row by row (maxima
    pulled out and counted, the rest summed shifted), its sum taken at
    each row's own width ``c + 2``.  The tail
    ``Σ_{n>c} w_c ρ^{n−c} = w_c ρ / (1 − ρ)`` takes its logs from libm.
    """
    cs = np.array([len(rates) for rates in fleets])
    c_max, rows = int(cs.max()), np.arange(len(cs))
    ratios = [lam / aggregate for lam, aggregate in zip(lams, aggregates)]
    terms = np.full((len(cs), c_max + 2), -np.inf)
    np.copyto(terms[:, :c_max + 1], weights[:, :c_max + 1],
              where=np.arange(c_max + 1) <= cs[:, None])
    terms[rows, cs + 1] = (weights[rows, cs] + np.array([math.log(r) for r in ratios])
                           - np.array([math.log(1.0 - r) for r in ratios]))
    peak = terms.max(axis=1)
    at_peak = terms == peak[:, None]
    count = np.count_nonzero(at_peak, axis=1)
    shifted = terms - peak[:, None]
    shifted[at_peak] = -np.inf
    np.exp(shifted, out=shifted)
    return np.log1p(_row_sums(shifted, cs + 2) / count) + np.log(count) + peak


def _row_sums(block: np.ndarray, widths: Sequence[int]) -> np.ndarray:
    """``block[i, :widths[i]].sum()`` per row, one reduction per distinct width.

    numpy's pairwise summation groups a row's terms by the width summed,
    so summing the padded width would move last bits.
    """
    sums = np.empty(len(widths))
    groups: Dict[int, List[int]] = {}
    for row, width in enumerate(widths):
        groups.setdefault(width, []).append(row)
    for width, members in groups.items():
        sums[members] = block[members, :width].sum(axis=1)
    return sums


__all__ = ["HeterogeneousMMcQueue", "wait_bounds"]
