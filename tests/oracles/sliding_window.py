"""``SlidingWindowCounter.count`` / ``.rate`` as of commit dbbdbc8, consumed by ``tests/test_lazy_estimators.py``.

Also by ``tests/test_property_invariants.py`` and
``tests/test_distributions_estimation.py``.
No code in ``src/`` reads a window through them any more:
``DualWindowRateEstimator.estimate`` advances and sums both rings in
its own frame.  They stay here, verbatim apart from taking the counter
as an argument, as the reference that ``estimate`` and the window
properties are held to.
"""

import math
from typing import Optional


def count(counter, now: float) -> int:
    """Number of events in buckets overlapping ``(now − window, now]``."""
    head = counter._head
    if head is None:
        return 0
    newest = int(now // counter.bucket_width)
    counter._advance(newest)
    head = counter._head
    oldest_kept = head - counter._n_buckets + 1
    # floor: the oldest *partially* covered bucket is included, so an
    # unaligned query over-approximates (never misses in-window events —
    # under-counting the short window would delay burst detection)
    first = int(math.floor((now - counter.window_length) / counter.bucket_width))
    first = max(first, oldest_kept)
    last = min(newest, head)
    if last < first:
        return 0
    # at most one lap of the ring (first >= oldest_kept), so the span is
    # one slice or two; the counts are integers, so the order is immaterial
    counts = counter._counts
    n = counter._n_buckets
    start, stop = first % n, last % n + 1
    if start < stop:
        return sum(counts[start:stop])
    return sum(counts[start:]) + sum(counts[:stop])


def rate(counter, now: float, elapsed: Optional[float] = None) -> float:
    """Arrival rate over the window (events per second).

    ``elapsed`` caps the divisor for the start-up transient when less
    than a full window of history exists.  With no elapsed history (an
    estimate at the instant of the first event) there is no rate to
    tell, and the answer is 0.
    """
    horizon = counter.window_length
    if elapsed is not None:
        if elapsed <= 0:
            return 0.0
        horizon = min(horizon, max(elapsed, 1e-9))
    return count(counter, now) / horizon
