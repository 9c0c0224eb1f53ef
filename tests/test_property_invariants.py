"""Property-based invariant tests for the fast-path machinery.

The PR-1/PR-3 fast paths (tuple-keyed event heap, bucketized sliding
windows, vectorised/memoized sizing solver) each replaced a simple
implementation with an optimised one whose correctness rests on an
invariant.  These tests state those invariants as *properties* over
randomised inputs (hypothesis), rather than as a handful of
hand-picked examples:

* **event-heap ordering** — callbacks execute in nondecreasing
  ``(time, priority)`` order with scheduling order as the tie-break,
  regardless of entry shape (bare fast-path tuples vs. Event records)
  and insertion order;
* **sliding-window counts** — the O(1) bucketized ring buffer brackets
  a naive exact oracle: it never under-counts the true window and
  never over-counts beyond one extra bucket of history;
* **solver equality** — :class:`~repro.core.queueing.solver.SizingSolver`,
  memoized and warm-started or cold, agrees *exactly* with the
  reference Algorithm 1 on random ``(λ, μ, c, t, p)`` draws.

All properties run with ``derandomize=True``: hypothesis derives its
examples from the test name alone, so CI failures are reproducible and
the suite stays deterministic run-to-run.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles.sliding_window import count as window_count
from repro.core.estimation.sliding_window import SlidingWindowCounter
from repro.core.queueing.sizing import required_containers
from repro.core.queueing.solver import SizingQuery, SizingSolver
from repro.sim.engine import SimulationEngine

#: Shared hypothesis profile: deterministic examples, no wall-clock deadline
#: (CI hosts are noisy; these properties are CPU-bound, not flaky).
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


# ----------------------------------------------------------------------
# Event-heap ordering
# ----------------------------------------------------------------------
@PROPERTY_SETTINGS
@given(
    entries=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
            st.sampled_from([SimulationEngine.PRIORITY_DATA,
                             SimulationEngine.PRIORITY_FAULT,
                             SimulationEngine.PRIORITY_CONTROL]),
            st.booleans(),  # True: bare call_later entry, False: Event record
        ),
        min_size=1,
        max_size=60,
    )
)
def test_event_heap_executes_in_time_priority_schedule_order(entries):
    """Execution order is the stable sort of (time, priority, schedule seq)."""
    engine = SimulationEngine()
    executed = []
    for index, (delay, priority, bare) in enumerate(entries):
        if bare:
            engine.call_later(delay, executed.append, index, priority=priority)
        else:
            engine.schedule(delay, executed.append, index, priority=priority)
    engine.run()

    assert sorted(executed) == list(range(len(entries)))
    keys = [(entries[i][0], entries[i][1], i) for i in executed]
    assert keys == sorted(keys), "events fired out of (time, priority, seq) order"


@PROPERTY_SETTINGS
@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=50.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=40,
    ),
    cancel_mask=st.lists(st.booleans(), min_size=1, max_size=40),
)
def test_event_heap_cancellation_skips_exactly_the_cancelled(delays, cancel_mask):
    """Cancelled events never fire and are counted as cancelled, not processed."""
    engine = SimulationEngine()
    fired = []
    events = [engine.schedule(delay, fired.append, i) for i, delay in enumerate(delays)]
    cancelled = set()
    for i, (event, cancel) in enumerate(zip(events, cancel_mask)):
        if cancel:
            event.cancel()
            cancelled.add(i)
    engine.run()
    assert set(fired) == set(range(len(delays))) - cancelled
    assert engine.events_cancelled == len(cancelled & set(range(len(delays))))


# ----------------------------------------------------------------------
# Sliding-window counts vs. a naive oracle
# ----------------------------------------------------------------------
def _naive_count(timestamps, now, window):
    """The exact trailing-window oracle: events in (now - window, now]."""
    return sum(1 for t in timestamps if now - window < t <= now)


@PROPERTY_SETTINGS
@given(
    deltas=st.lists(
        st.floats(min_value=0.0, max_value=7.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=80,
    ),
    window=st.floats(min_value=1.0, max_value=60.0,
                     allow_nan=False, allow_infinity=False),
    query_gap=st.floats(min_value=0.0, max_value=30.0,
                        allow_nan=False, allow_infinity=False),
)
def test_sliding_window_brackets_the_exact_oracle(deltas, window, query_gap):
    """Bucketized count ∈ [exact window, exact window + one bucket of history].

    The documented contract (see the module docstring of
    ``repro.core.estimation.sliding_window``): bucket-granularity
    eviction may include the oldest partially-overlapping bucket, so an
    unaligned query over-approximates by at most one bucket — and never
    under-counts, which would delay burst detection.
    """
    counter = SlidingWindowCounter(window)
    timestamps = []
    now = 0.0
    for delta in deltas:
        now += delta
        counter.record(now)
        timestamps.append(now)
    query_time = now + query_gap

    got = window_count(counter, query_time)
    exact = _naive_count(timestamps, query_time, window)
    padded = _naive_count(timestamps, query_time, window + counter.bucket_width)
    assert exact <= got <= padded, (
        f"window count {got} outside [{exact}, {padded}] "
        f"(window={window}, bucket={counter.bucket_width})"
    )


@PROPERTY_SETTINGS
@given(
    deltas=st.lists(
        st.floats(min_value=0.0, max_value=4.0,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=60,
    ),
    window=st.sampled_from([10.0, 30.0, 120.0]),
)
def test_sliding_window_aligned_queries_are_exact(deltas, window):
    """Queries on bucket boundaries (the controller's cadence) match the oracle.

    Alignment is exact up to events lying on a boundary themselves: a
    bucket-edge event is retired with its whole bucket, so the oracle is
    evaluated on the half-open bucket span the ring actually keeps.
    """
    counter = SlidingWindowCounter(window)
    bucket = counter.bucket_width
    timestamps = []
    now = 0.0
    for delta in deltas:
        now += delta
        counter.record(now)
        timestamps.append(now)
    # the next bucket boundary at or after the last event
    query_time = math.ceil(now / bucket) * bucket
    got = window_count(counter, query_time)
    # buckets fully inside the window: (query - window, query], snapped to
    # the bucket grid the ring keeps (left edge exclusive)
    left = math.floor((query_time - window) / bucket) * bucket
    exact = sum(1 for t in timestamps if left < t <= query_time)
    assert got == exact


# ----------------------------------------------------------------------
# Solver vs. reference sizing equality
# ----------------------------------------------------------------------
_LAM = st.floats(min_value=0.05, max_value=400.0,
                 allow_nan=False, allow_infinity=False)
_MU = st.floats(min_value=0.2, max_value=50.0,
                allow_nan=False, allow_infinity=False)
_BUDGET = st.floats(min_value=0.005, max_value=2.0,
                    allow_nan=False, allow_infinity=False)
_PERCENTILE = st.floats(min_value=0.5, max_value=0.995,
                        allow_nan=False, allow_infinity=False)
_CURRENT = st.integers(min_value=0, max_value=50)


@PROPERTY_SETTINGS
@given(lam=_LAM, mu=_MU, budget=_BUDGET, percentile=_PERCENTILE, current=_CURRENT)
def test_cold_solver_equals_reference_on_random_draws(lam, mu, budget,
                                                      percentile, current):
    """The solver returns the reference count exactly."""
    reference = required_containers(lam, mu, budget, percentile,
                                    current_containers=current)
    cold = SizingSolver().solve(
        lam, mu, budget, percentile, current_containers=current)
    assert cold.containers == reference.containers
    assert cold.achieved_probability >= percentile


@PROPERTY_SETTINGS
@given(
    draws=st.lists(
        st.tuples(_LAM, _MU, _BUDGET, _PERCENTILE),
        min_size=1, max_size=12,
    )
)
def test_solver_equals_reference_in_batches(draws):
    """SizingSolver, one query at a time and batched, ≡ reference, per draw.

    One solver takes a random *sequence* of draws, then the same draws as
    one batch: the rows agree with each other and with the reference.
    """
    solver = SizingSolver()
    single = []
    for lam, mu, budget, percentile in draws:
        got = solver.solve(lam, mu, budget, percentile)
        want = required_containers(lam, mu, budget, percentile)
        assert (got.containers, got.iterations) == (want.containers, want.iterations), (
            lam, mu, budget, percentile)
        single.append(got)
    queries = [
        SizingQuery(lam=lam, mu=mu, wait_budget=budget, percentile=percentile)
        for lam, mu, budget, percentile in draws
    ]
    assert solver.solve_batch(queries) == single


# ----------------------------------------------------------------------
# Columnar-kernel invariants (PR 7)
# ----------------------------------------------------------------------
def _estimator_state(estimator):
    """Full observable state of an OnlineServiceTimeEstimator: per-bucket count and total."""
    return {key: list(totals) for key, totals in estimator._totals.items()}


@PROPERTY_SETTINGS
@given(
    observations=st.lists(
        st.tuples(
            st.sampled_from([0.25, 0.5, 0.75, 1.0]),
            st.floats(min_value=0.0, max_value=5.0,
                      allow_nan=False, allow_infinity=False),
        ),
        min_size=0, max_size=60,
    ),
    split=st.integers(min_value=0, max_value=60),
)
def test_observe_many_is_batch_split_invariant(observations, split):
    """``observe_many`` ≡ per-element ``observe`` across arbitrary splits.

    Covers both the mixed-bucket grouping path and the single-bucket
    fast path (hypothesis shrinks toward uniform cpu fractions), with
    per-bucket counts and totals compared bit for bit.
    """
    from repro.core.estimation.service_time import OnlineServiceTimeEstimator

    split = min(split, len(observations))
    reference = OnlineServiceTimeEstimator()
    for cpu_fraction, service_time in observations:
        reference.observe(cpu_fraction, service_time)

    batched = OnlineServiceTimeEstimator()
    for chunk in (observations[:split], observations[split:]):
        batched.observe_many([cpu for cpu, _ in chunk], [service for _, service in chunk])
    assert _estimator_state(batched) == _estimator_state(reference)


_DELTAS = st.floats(min_value=0.0, max_value=12.0,
                    allow_nan=False, allow_infinity=False)


#: steps of at least one ring: a window of at most 60 s in buckets of at most
#: 5 s keeps ``ceil(60 / 5) + 1`` buckets, 65 s
_RING_GAPS = st.floats(min_value=70.0, max_value=200.0)
_STEPS = st.one_of(st.just(0.0), _DELTAS, _DELTAS, _RING_GAPS)


def _ring_state(counter):
    return counter._counts, counter._head, counter._last_timestamp


@PROPERTY_SETTINGS
@given(
    # batches on both sides of sliding_window._VECTOR_RECORD_MIN (64): the
    # short-batch loop below it, the numpy bucket fold from it on
    deltas=st.one_of(st.lists(_STEPS, min_size=0, max_size=60),
                     st.lists(_STEPS, min_size=64, max_size=200)),
    window=st.floats(min_value=4.0, max_value=60.0,
                     allow_nan=False, allow_infinity=False),
    # where the stream is cut into batches, as shares of its length
    cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4),
    # how far past the newest event both counters are read after each batch:
    # some seconds, or a ring give or take a bucket (a read one ring ahead
    # puts the next event on the stale-bucket drop's boundary)
    reads=st.lists(st.one_of(st.none(),
                             st.tuples(st.just("seconds"),
                                       st.floats(min_value=0.0, max_value=150.0)),
                             st.tuples(st.just("ring"), st.sampled_from([-1, 0, 0, 1]))),
                   min_size=5, max_size=5),
    # (position, amount): one element that steps back mid-stream
    backstep=st.one_of(st.none(), st.tuples(st.integers(min_value=1, max_value=200),
                                            st.floats(min_value=1e-6, max_value=30.0))),
)
# on the drop's boundary: a read one ring (3 buckets of 5 s) past 1.0 s, then
# events back in bucket 0, which the ring now holds in the slot of bucket 3
@example(deltas=[1.0, 0.0, 0.5], window=10.0, cuts=[0.4],
         reads=[("ring", 0), None, None, None, None], backstep=None)
def test_record_many_is_batch_split_invariant(deltas, window, cuts, reads, backstep):
    """``record_many`` ≡ per-element ``record`` across arbitrary splits.

    Reads between batches advance both rings, so later events can land on a
    bucket the ring has already left (the stale-bucket drop); steps of a
    ring or more zero it whole; and an element that steps back makes its
    batch raise ``record``'s ``ValueError`` and leave ``record``'s partial
    state: counts, head and last timestamp as of the element before it.
    """
    timestamps = []
    now = 0.0
    for delta in deltas:
        now += delta
        timestamps.append(now)
    if backstep is not None and timestamps:
        at = min(backstep[0], len(timestamps))
        timestamps.insert(at, timestamps[at - 1] - backstep[1])
    bounds = sorted({0, len(timestamps), *(int(cut * len(timestamps)) for cut in cuts)})

    reference = SlidingWindowCounter(window)
    batched = SlidingWindowCounter(window)
    refused = None
    for (start, stop), ahead in zip(zip(bounds, bounds[1:]), reads):
        batch = timestamps[start:stop]
        try:
            for timestamp in batch:
                reference.record(timestamp)
        except ValueError as error:
            refused = error
        if refused is None:
            batched.record_many(batch)
        else:
            with pytest.raises(ValueError, match=str(refused)):
                batched.record_many(batch)
        assert _ring_state(batched) == _ring_state(reference)
        if refused is not None:
            break
        if ahead is not None:
            unit, amount = ahead
            if unit == "ring":
                amount = (reference._n_buckets + amount) * reference.bucket_width
            query = max(reference._last_timestamp, 0.0) + amount
            assert window_count(batched, query) == window_count(reference, query)
    assert (refused is not None) == (backstep is not None and len(timestamps) > 1)
    query = (timestamps[-1] if timestamps else 0.0) + 1.0
    assert window_count(batched, query) == window_count(reference, query)


@PROPERTY_SETTINGS
@given(
    rate=st.floats(min_value=1.0, max_value=50.0),
    duration=st.floats(min_value=5.0, max_value=40.0),
    seed=st.integers(min_value=0, max_value=2**16),
    batch_size=st.sampled_from([1, 7, 256]),
)
def test_materialized_arrivals_match_event_driven_pump(rate, duration, seed,
                                                       batch_size):
    """The merged arrival stream dispatches exactly what the batch pump did.

    Both data planes now materialise a generator's arrival times up
    front, then every work in one draw, and the event plane dispatches
    them from the engine's stream; the deleted pump
    (``oracles/arrival_pump.py``) drew both one batch at a time through
    engine events.  For every batch size — 1 reproduces the seed
    cadence — all three must yield the identical (time, work) stream
    from the same arrival and work streams.
    """
    from dataclasses import replace

    import numpy as np

    from oracles.arrival_pump import ArrivalPump
    from repro.workloads.functions import microbenchmark
    from repro.workloads.generator import ArrivalGenerator, stream_arrivals
    from repro.workloads.schedules import StaticRate

    profile = replace(microbenchmark(0.05), name="prop-fn")

    def generator(engine, dispatch):
        return ArrivalGenerator(
            engine, profile, StaticRate(rate, duration=duration), dispatch=dispatch,
            rng=np.random.default_rng(seed), work_rng=np.random.default_rng(seed + 1),
        )

    times, works = generator(SimulationEngine(), lambda request: None).materialize_arrivals()

    def dispatched(drive):
        seen = []
        engine = SimulationEngine()
        drive(engine, generator(engine, lambda request: seen.append(
            (request.arrival_time, request.work))))
        engine.run()
        return seen

    pumped = dispatched(lambda engine, g: ArrivalPump(g, batch_size).start())
    streamed = dispatched(lambda engine, g: stream_arrivals(engine, [g]))

    assert times == [t for t, _ in pumped]
    assert works == [w for _, w in pumped]
    assert streamed == pumped
