"""Constant-memory quantile estimation for streams too long to keep.

A simulation run keeps every request and reduces its
:class:`~repro.metrics.table.RequestTable` exactly, so nothing here
touches a run's waiting-time percentiles, and the trace replay keeps an
exact histogram of its integer per-minute counts
(:mod:`repro.scenarios.trace_shard`).  One consumer sees a stream it
cannot store: the online service-time estimator, whose per-CPU-fraction
buckets are bounded samples of the service times observed
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
of observations.  It is the same acceptance rule, not a second algorithm:
no RNG draw while the reservoir is filling; afterwards exactly one
``random()`` per observation for the accept test and a second one,
for the evicted slot, only when the observation is accepted.  Samples,
count and RNG state therefore end identical to ``add`` called once per
element, for every way of cutting the stream into batches — pinned by
a hypothesis property in ``tests/test_metrics.py`` — so the two may be
mixed on one sketch.
"""

from __future__ import annotations

import bisect
import random
from typing import Iterable, List

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


__all__ = ["ReservoirQuantiles"]
