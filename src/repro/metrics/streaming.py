"""Constant-memory quantile estimation for streams too long to keep.

A simulation run keeps every request and reduces its
:class:`~repro.metrics.table.RequestTable` exactly, so nothing here
touches a run's waiting-time percentiles.  Two consumers see streams
they cannot store: the trace replay, which feeds every per-minute
invocation count of a shard into one sketch and merges the shards'
sketches (:func:`merge_reservoir_states`), and the online service-time
estimator, whose per-CPU-fraction buckets are bounded samples of the
service times observed
(:class:`~repro.core.estimation.service_time.StreamingQuantile`).

The sketch is :class:`ReservoirQuantiles` — a deterministic fixed-size
reservoir (Vitter's algorithm R with a seeded stdlib RNG): constant
memory, arbitrary query quantiles, accuracy limited only by sampling
error (±~0.3 % of rank at 4096 samples), and — what decides the choice
— exact handling of atoms.  Simulated waiting times are typically
>50 % exact zeros (requests that started on an idle container);
marker-based estimators such as P² cannot cross that much point mass
and strand orders of magnitude below the true p95 (observed on real
runs), while a reservoir represents the atom with its true mass.

Batch ingestion and its RNG contract
------------------------------------
:meth:`ReservoirQuantiles.add_many` is the bulk form of
:meth:`~ReservoirQuantiles.add` for callers that already hold a block
of observations (the trace replay feeds one chunk of per-minute counts
at a time).  It is the same acceptance rule, not a second algorithm:
no RNG draw while the reservoir is filling; afterwards exactly one
``random()`` per observation for the accept test and a second one,
for the evicted slot, only when the observation is accepted.  Samples,
count and RNG state therefore end identical to ``add`` called once per
element, for every way of cutting the stream into batches — pinned by
a hypothesis property in ``tests/test_trace_replay.py`` — so the two
may be mixed on one sketch.
"""

from __future__ import annotations

import bisect
import random
from typing import Any, Dict, Iterable, List, Mapping

import numpy as np


class ReservoirQuantiles:
    """Deterministic bounded-size uniform sample with quantile queries.

    Algorithm R with a seeded stdlib RNG: every observation is retained
    while the reservoir is filling; afterwards observation ``n`` replaces
    a random resident with probability ``k/n``.  The sample stays sorted
    so quantile queries are a single interpolation.  Unlike P², atoms
    (e.g. the zero-wait spike of idle-container hits) are represented
    with their true mass.
    """

    __slots__ = ("max_samples", "_sorted", "_count", "_rng")

    def __init__(self, max_samples: int = 4096, seed: int = 2029) -> None:
        """Configure the reservoir size and its deterministic RNG seed."""
        if max_samples < 10:
            raise ValueError("max_samples must be at least 10")
        self.max_samples = int(max_samples)
        self._sorted: List[float] = []
        self._count = 0
        self._rng = random.Random(seed)

    @property
    def count(self) -> int:
        """Total observations seen (not the reservoir size)."""
        return self._count

    def add(self, value: float) -> None:
        """Feed one observation."""
        self._count += 1
        if len(self._sorted) < self.max_samples:
            bisect.insort(self._sorted, value)
        elif self._rng.random() * self._count < self.max_samples:
            self._sorted.pop(int(self._rng.random() * len(self._sorted)))
            bisect.insort(self._sorted, value)

    def add_many(self, values: Iterable[float]) -> None:
        """Feed a batch of observations; equal to :meth:`add` on each in turn.

        The retained samples, the count and the RNG state all end where
        the one-at-a-time loop would leave them, however the stream is
        cut into batches.  While the reservoir is filling, a batch is
        appended and sorted once (no RNG draw, as in :meth:`add`); past
        that, each observation costs one draw for the accept test and a
        second only when it is accepted.
        """
        values = list(values)
        samples = self._sorted
        size = self.max_samples
        room = size - len(samples)
        if room > 0:
            samples.extend(values[:room])
            samples.sort()
            self._count += min(room, len(values))
            values = values[room:]
        count = self._count
        draw = self._rng.random
        for value in values:
            count += 1
            if draw() * count < size:
                samples.pop(int(draw() * size))
                bisect.insort(samples, value)
        self._count = count

    def quantile(self, p: float) -> float:
        """The ``p``-th quantile of the observations seen so far."""
        if not 0.0 < p < 1.0:
            raise ValueError("p must be in (0, 1)")
        if not self._sorted:
            return 0.0
        return float(np.quantile(self._sorted, p))

    def state(self) -> Dict[str, Any]:
        """JSON-ready snapshot of the reservoir for cross-shard merging.

        The snapshot carries the total observation count, the configured
        bound, and the retained (sorted) samples — everything
        :func:`merge_reservoir_states` needs.  ``count == len(samples)``
        means the reservoir never overflowed, i.e. the samples are the
        *exact* multiset of observations.
        """
        return {
            "count": self._count,
            "max_samples": self.max_samples,
            "samples": [float(v) for v in self._sorted],
        }


def merge_reservoir_states(
    states: Iterable[Mapping[str, Any]],
    quantiles: Iterable[float] = (0.5, 0.90, 0.95, 0.99),
) -> Dict[str, Any]:
    """Merge per-shard :meth:`ReservoirQuantiles.state` snapshots.

    Determinism contract (pinned by ``tests/test_trace_replay.py``):

    * **Order-insensitive.**  Each retained sample is weighted by the
      observations it represents (``count / len(samples)`` of its
      shard), all (value, weight) pairs are sorted by that total order,
      and each quantile is the smallest value whose cumulative weight
      reaches ``p`` of the total (the type-1 inverted CDF).  The result
      is a pure function of the *multiset* of shard states — permuting
      the shards cannot change a byte.
    * **Exact when nothing was dropped.**  If every shard retained all
      of its observations (``count == len(samples)``, reported as
      ``"exact": True``), every weight is 1.0 and the merged quantiles
      equal the quantiles of the pooled raw observations — so any shard
      decomposition of the same observation set merges to identical
      bytes.  Otherwise the merge is the standard weighted-sample
      estimate and only identical decompositions are byte-comparable.
    """
    value_parts: List[np.ndarray] = []
    weight_parts: List[np.ndarray] = []
    total_count = 0
    exact = True
    for state in states:
        count = int(state["count"])
        samples = state["samples"]
        total_count += count
        if count != len(samples):
            exact = False
        if samples:
            value_parts.append(np.asarray(samples, dtype=float))
            weight_parts.append(np.full(len(samples), count / len(samples)))
    result: Dict[str, Any] = {"count": total_count, "exact": exact}
    if value_parts:
        values = np.concatenate(value_parts)
        weights = np.concatenate(weight_parts)
        order = np.lexsort((weights, values))  # by value, ties by weight
        values = values[order]
        # running sums taken once, left to right — the float additions a
        # walk over the sorted pairs makes — then one bisection a quantile
        cumulative = np.cumsum(weights[order])
    for p in quantiles:
        if not 0.0 < p < 1.0:
            raise ValueError("quantiles must be in (0, 1)")
        merged = 0.0
        if value_parts:
            # first sample whose cumulative weight reaches p of the total
            merged = float(values[np.searchsorted(cumulative, p * cumulative[-1])])
        result[f"p{round(p * 100)}"] = merged
    return result


__all__ = [
    "ReservoirQuantiles",
    "merge_reservoir_states",
]
