"""The Kiefer–Wolfowitz recursion for FCFS G/G/c, consumed by ``tests/test_kiefer_wolfowitz.py``.

An external standard rather than a frozen body (Kiefer and Wolfowitz,
1955): in a first-come-first-served queue with ``c`` identical servers,
every request's start time follows from the arrival times and service
times alone — no distribution, any load, overload included.  The state
is a heap of the ``c`` times at which each server next falls free:
request ``k`` takes the earliest, starts at ``max(arrival_k, free)`` and
frees that server at ``start + service_k``.

Seeding the heap with each server's warm time covers a fleet that is
still cold when the first requests queue.  The recursion says *when*
each request starts, not *where*: with identical servers the choice of
container (the dispatcher's weighted round robin) cannot move a start
time, so the oracle cannot check that choice either.
"""

from heapq import heapify, heappop, heappush
from typing import Iterable, List


def start_times(arrivals: Iterable[float], services: Iterable[float],
                free_at: Iterable[float]) -> List[float]:
    """Start time of every request, in arrival order.

    ``arrivals`` must be non-decreasing; ``services[k]`` is request
    ``k``'s service time and ``free_at`` holds one entry per server: the
    time it can take its first request.
    """
    free = list(free_at)
    heapify(free)
    starts = []
    for arrival, service in zip(arrivals, services):
        earliest = heappop(free)
        start = arrival if arrival > earliest else earliest
        starts.append(start)
        heappush(free, start + service)
    return starts
