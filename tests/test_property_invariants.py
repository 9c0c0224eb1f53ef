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

from hypothesis import given, settings, strategies as st

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

    got = counter.count(query_time)
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
    got = counter.count(query_time)
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
def _quantile_state(quantile):
    """Everything observable about a StreamingQuantile, RNG included."""
    return (list(quantile._sorted), quantile._count, quantile._rng.getstate())


def _estimator_state(estimator):
    """Full observable state of an OnlineServiceTimeEstimator."""
    return (
        {key: _quantile_state(bucket) for key, bucket in estimator._buckets.items()},
        {key: list(totals) for key, totals in estimator._totals.items()},
    )


@PROPERTY_SETTINGS
@given(
    entries=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
            st.sampled_from([SimulationEngine.PRIORITY_DATA,
                             SimulationEngine.PRIORITY_FAULT,
                             SimulationEngine.PRIORITY_CONTROL]),
        ),
        min_size=1, max_size=50,
    ),
    split=st.integers(min_value=0, max_value=50),
    cancel_stride=st.integers(min_value=2, max_value=7),
)
def test_schedule_many_events_matches_one_at_a_time(entries, split, cancel_stride):
    """Batched completion scheduling ≡ per-event scheduling, exactly.

    ``schedule_many_events`` must preserve ``(time, priority, seq)`` heap
    order relative to one-at-a-time insertion — including when the batch
    is split into two consecutive calls at an arbitrary point — and its
    Event handles must cancel exactly like individually scheduled ones.
    Per-priority runs are scheduled in the same order on both engines, so
    sequence numbers line up and the execution orders must be identical.
    """
    split = min(split, len(entries))

    batched_engine = SimulationEngine()
    batched_order = []
    batched_events = []
    serial_engine = SimulationEngine()
    serial_order = []
    serial_events = []

    for sub, base in ((entries[:split], 0), (entries[split:], split)):
        for priority in (SimulationEngine.PRIORITY_FAULT,
                         SimulationEngine.PRIORITY_DATA,
                         SimulationEngine.PRIORITY_CONTROL):
            run = [(base + offset, time) for offset, (time, p) in enumerate(sub)
                   if p == priority]
            if not run:
                continue
            batched_events.extend(batched_engine.schedule_many_events(
                [(time, batched_order.append, (index,)) for index, time in run],
                priority=priority,
            ))
            for index, time in run:
                serial_events.append(serial_engine.schedule(
                    time, serial_order.append, index, priority=priority))

    # cancel the same subset of handles on both engines
    for position in range(0, len(batched_events), cancel_stride):
        batched_events[position].cancel()
        serial_events[position].cancel()

    batched_engine.run()
    serial_engine.run()
    assert batched_order == serial_order
    assert batched_engine.events_processed == serial_engine.events_processed


@PROPERTY_SETTINGS
@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False),
        min_size=0, max_size=80,
    ),
    split=st.integers(min_value=0, max_value=80),
)
def test_streaming_quantile_add_many_is_batch_split_invariant(values, split):
    """``add_many`` ≡ per-element ``add`` with identical RNG consumption.

    Reservoir contents, counts *and the RNG state itself* must match
    after any split of the stream into batches — the property the
    columnar flush relies on when it folds a whole drain's completions
    in one call.
    """
    from repro.core.estimation.service_time import StreamingQuantile

    split = min(split, len(values))
    reference = StreamingQuantile(max_samples=16, seed=3)
    for value in values:
        reference.add(value)

    batched = StreamingQuantile(max_samples=16, seed=3)
    batched.add_many(values[:split])
    batched.add_many(values[split:])
    assert _quantile_state(batched) == _quantile_state(reference)


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
    per-bucket reservoir RNG state compared exactly.
    """
    from repro.core.estimation.service_time import OnlineServiceTimeEstimator

    split = min(split, len(observations))
    reference = OnlineServiceTimeEstimator(max_samples_per_bucket=16)
    for cpu_fraction, service_time in observations:
        reference.observe(cpu_fraction, service_time)

    batched = OnlineServiceTimeEstimator(max_samples_per_bucket=16)
    for chunk in (observations[:split], observations[split:]):
        batched.observe_many([cpu for cpu, _ in chunk],
                             [service for _, service in chunk])
    assert _estimator_state(batched) == _estimator_state(reference)


_DELTAS = st.floats(min_value=0.0, max_value=12.0,
                    allow_nan=False, allow_infinity=False)


@PROPERTY_SETTINGS
@given(
    # batches on both sides of sliding_window._VECTOR_RECORD_MIN (64): the
    # per-element loop below it, the numpy bucket fold from it on
    deltas=st.one_of(st.lists(_DELTAS, min_size=0, max_size=60),
                     st.lists(_DELTAS, min_size=64, max_size=200)),
    window=st.floats(min_value=4.0, max_value=60.0,
                     allow_nan=False, allow_infinity=False),
    split=st.integers(min_value=0, max_value=200),
)
def test_record_many_is_batch_split_invariant(deltas, window, split):
    """``record_many`` ≡ per-element ``record`` across arbitrary splits."""
    timestamps = []
    now = 0.0
    for delta in deltas:
        now += delta
        timestamps.append(now)
    split = min(split, len(timestamps))

    reference = SlidingWindowCounter(window)
    for timestamp in timestamps:
        reference.record(timestamp)

    batched = SlidingWindowCounter(window)
    batched.record_many(timestamps[:split])
    batched.record_many(timestamps[split:])

    assert batched._counts == reference._counts
    assert batched._head == reference._head
    query = (timestamps[-1] if timestamps else 0.0) + 1.0
    assert batched.count(query) == reference.count(query)


@PROPERTY_SETTINGS
@given(
    rate=st.floats(min_value=1.0, max_value=50.0),
    duration=st.floats(min_value=5.0, max_value=40.0),
    seed=st.integers(min_value=0, max_value=2**16),
    batch_size=st.sampled_from([1, 7, 256]),
)
def test_materialized_arrivals_match_event_driven_pump(rate, duration, seed,
                                                       batch_size):
    """Bulk arrival materialization draws exactly what the pump draws.

    The columnar plane samples every arrival time for a generation up
    front, then every work in one draw; the event plane draws both one
    batch at a time through engine events.  For every batch size — 1
    reproduces the seed cadence — both must yield the identical
    (time, work) stream from the same arrival and work streams.
    """
    from dataclasses import replace

    import numpy as np

    from repro.workloads.functions import microbenchmark
    from repro.workloads.generator import ArrivalGenerator
    from repro.workloads.schedules import StaticRate

    profile = replace(microbenchmark(0.05), name="prop-fn")

    bulk = ArrivalGenerator(
        SimulationEngine(), profile, StaticRate(rate, duration=duration),
        dispatch=lambda request: None, rng=np.random.default_rng(seed),
        work_rng=np.random.default_rng(seed + 1),
        slo_deadline=0.1, batch_size=batch_size,
    )
    times, works = bulk.materialize_arrivals()

    pumped = []
    engine = SimulationEngine()
    generator = ArrivalGenerator(
        engine, profile, StaticRate(rate, duration=duration),
        dispatch=lambda request: pumped.append(
            (request.arrival_time, request.work)),
        rng=np.random.default_rng(seed),
        work_rng=np.random.default_rng(seed + 1), slo_deadline=0.1,
        batch_size=batch_size,
    )
    generator.start()
    engine.run()

    assert times == [t for t, _ in pumped]
    assert works == [w for _, w in pumped]
