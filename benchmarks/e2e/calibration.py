"""A fixed piece of interpreter work, timed beside everything the benchmark times.

This host is a few cores of a shared machine, and other tenants slow
user-mode Python by up to 1.9x for seconds to minutes at a time.  The
slowdown is the same factor for any allocation-heavy interpreter code,
so the benchmark runs this loop immediately before and after each timed
piece of the program and reports the program's time *relative to it*:

    reported seconds = measured seconds / loop seconds * REFERENCE_S

``REFERENCE_S`` is what the loop costs on this host when nothing
disturbs it, so a reported figure reads as "seconds on an undisturbed
host".  One *reading* is the mean of two spins (one 20 ms spin is itself
a noisy sample of the host's speed), and a workload that runs on several
worker processes is read on as many processes at once (:class:`Readings`):
a spin on one core says nothing of the core the other worker is about to
get.  The loop is standard library only, takes no input and touches
nothing of the program, so a change to the program cannot move it.  Its
mix (small slotted objects, a heap of tuples, a dict, a keyed sort) is
the simulator's own diet; a loop that only chases pointers through
existing memory did *not* follow the slow episodes (see README.md).
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Optional

#: Seconds one :func:`spin` costs on this host undisturbed (the fastest
#: of 5,500 spins over 45 minutes took 0.0153; the median spin, 0.022).
REFERENCE_S = 0.016

#: Objects one :func:`spin` allocates.
_OBJECTS = 25_000


class _Record:
    """A small slotted object, like the simulator's request records."""

    __slots__ = ("key", "index", "link", "value")

    def __init__(self, key: float, index: int) -> None:
        """A record with a random key and nothing linked."""
        self.key = key
        self.index = index
        self.link = None
        self.value = 0.0


def spin() -> float:
    """Run the fixed loop once, garbage collector off, and return its wall-clock seconds."""
    was_enabled = gc.isenabled()
    gc.disable()  # its cost must not depend on what the last iteration left alive
    try:
        start = time.perf_counter()
        draw = random.Random(1).random
        records = [_Record(draw(), i) for i in range(_OBJECTS)]
        heap: list = []
        push, pop = heapq.heappush, heapq.heappop
        table = {}
        total = 0.0
        for i, record in enumerate(records):
            push(heap, (record.key, i, record))
            table[i] = record
            if i & 1:
                _, j, first = pop(heap)
                first.value = first.key + total
                total += table[j].key
        records.sort(key=lambda record: record.value)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def reading() -> float:
    """One calibration reading in this process: the mean of two spins."""
    return (spin() + spin()) / 2.0


class Readings:
    """Takes calibration readings on ``processes`` processes at the same moment.

    With one process a reading is :func:`reading` right here.  With more,
    each of a pool of idle helpers takes one at once and the result is
    their mean, so it sees every core the workload's workers will run
    on.  Use as a context manager: leaving it stops the helpers and
    waits for them.
    """

    def __init__(self, processes: int = 1) -> None:
        """Start the helpers, if any, and make each take a first reading."""
        self._processes = processes
        self._pool: Optional[ProcessPoolExecutor] = None
        if processes > 1:
            self._pool = ProcessPoolExecutor(max_workers=processes)
            self()  # forks every helper now, outside anything that is timed

    def __call__(self) -> float:
        """One reading: seconds per spin, averaged over the processes."""
        if self._pool is None:
            return reading()
        pending = [self._pool.submit(reading) for _ in range(self._processes)]
        return sum(future.result() for future in pending) / len(pending)

    def __enter__(self) -> "Readings":
        """The object itself; the helpers are already running."""
        return self

    def __exit__(self, *exc: Any) -> None:
        """Stop the helpers and wait until each has ended."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)


def to_reference(seconds: float, spin_s: float) -> float:
    """``seconds`` measured beside spins of ``spin_s``, in undisturbed-host seconds."""
    return seconds / spin_s * REFERENCE_S
