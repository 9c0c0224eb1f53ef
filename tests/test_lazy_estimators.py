"""Lazy ≡ eager: the estimators' pending blocks change no state anyone can read.

``DualWindowRateEstimator.record_arrival`` and
``OnlineServiceTimeEstimator.observe`` note their argument and fold at
the next read (or at ``_PENDING_BLOCK`` entries).  The per-arrival and
per-completion bodies they had before are frozen here **verbatim** as
oracles — subclasses that override nothing but those two methods — and
hypothesis drives both through arbitrary interleavings of the per-element
entry point, the batch entry point and every read, comparing the full
state: ring counts and heads, last timestamps, start time, every
``RateObservation``; reservoir samples, counts, RNG states and float
totals, bit for bit.
"""

import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.estimation import service_time as service_time_module
from repro.core.estimation import sliding_window as sliding_window_module
from repro.core.estimation.service_time import OnlineServiceTimeEstimator, StreamingQuantile
from repro.core.estimation.sliding_window import DualWindowRateEstimator

PROPERTY_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)

#: Pending-block sizes the properties run under: far below the 64-element
#: vector threshold of ``record_many``, on it, just past it, and the real one
#: (never reached here, so only reads fold and blocks of 0–200 cross 64 both ways).
BLOCK_SIZES = (3, 64, 65, 100, 4096)


# ----------------------------------------------------------------------
# Frozen oracles (the bodies as of PR 19)
# ----------------------------------------------------------------------
class EagerRateEstimator(DualWindowRateEstimator):
    """Folds every arrival into both windows at the call."""

    def record_arrival(self, timestamp):
        if self._start_time is None:
            self._start_time = timestamp
        self.long.record(timestamp)
        self.short.record(timestamp)


class EagerServiceEstimator(OnlineServiceTimeEstimator):
    """Folds every observation into its bucket at the call."""

    def observe(self, cpu_fraction, service_time):
        if service_time < 0:
            raise ValueError("service_time must be non-negative")
        key = self._bucket(cpu_fraction)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = StreamingQuantile(self.max_samples_per_bucket)
            self._totals[key] = [0, 0.0]
        bucket.add(service_time)
        totals = self._totals[key]
        totals[0] += 1
        totals[1] += service_time


def rate_state(estimator):
    """Everything a rate estimator holds (reading ``long``/``short`` folds what is pending)."""
    return (
        [(c._counts, c._head, c._last_timestamp) for c in (estimator.long, estimator.short)],
        estimator._start_time, estimator.last_observation, estimator._pending,
    )


def service_state(estimator):
    """Everything a service-time estimator holds, reservoir RNG included."""
    return (
        {key: quantile_state(bucket) for key, bucket in estimator._buckets.items()},
        {key: list(totals) for key, totals in estimator._totals.items()},
        estimator._pending_fractions, estimator._pending_times,
    )


# ----------------------------------------------------------------------
# Arrival-rate estimator
# ----------------------------------------------------------------------
_GAP = st.floats(min_value=0.0, max_value=3.0, allow_nan=False, allow_infinity=False)
# how far past the newest arrival a read looks: aligned, just ahead, or so far
# that the ring advances beyond what later (still non-decreasing) arrivals can reach
_AHEAD = st.sampled_from([0.0, 0.5, 4.0, 30.0, 500.0])
_RATE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("arrival"), _GAP),
        st.tuples(st.just("arrivals"), st.lists(_GAP, min_size=1, max_size=90)),   # one a call
        st.tuples(st.just("many"), st.lists(_GAP, min_size=0, max_size=90)),       # one batch
        st.tuples(st.just("estimate"), _AHEAD),
        st.tuples(st.just("rates"), _AHEAD),
    ),
    min_size=1, max_size=12,
)


@PROPERTY_SETTINGS
@given(ops=_RATE_OPS, block=st.sampled_from(BLOCK_SIZES),
       windows=st.sampled_from([(120.0, 10.0), (20.0, 4.0)]))
def test_rate_estimator_lazy_equals_eager(ops, block, windows):
    """Any interleaving of the two entry points and the two reads: same state, same answers."""
    lazy = DualWindowRateEstimator(*windows)
    eager = EagerRateEstimator(*windows)
    now = 0.0
    with mock.patch.object(sliding_window_module, "_PENDING_BLOCK", block):
        for op, argument in ops:
            if op in ("arrival", "arrivals"):
                for gap in ([argument] if op == "arrival" else argument):
                    now += gap
                    lazy.record_arrival(now)
                    eager.record_arrival(now)
                    assert len(lazy._pending) < block        # the hard memory bound
            elif op == "many":
                times = []
                for gap in argument:
                    now += gap
                    times.append(now)
                lazy.record_arrivals_many(times)
                eager.record_arrivals_many(times)
            elif op == "estimate":
                assert lazy.estimate(now + argument) == eager.estimate(now + argument)
            else:
                assert lazy.rates(now + argument) == eager.rates(now + argument)
        assert rate_state(lazy) == rate_state(eager)
        assert eager._pending == []


def test_rate_estimator_hits_the_stale_bucket_drop_like_the_eager_one():
    """A read far ahead advances the ring; arrivals noted afterwards fall off it, on both."""
    lazy, eager = DualWindowRateEstimator(20.0, 4.0), EagerRateEstimator(20.0, 4.0)
    for estimator in (lazy, eager):
        for timestamp in (1.0, 1.5, 2.0):
            estimator.record_arrival(timestamp)
        estimator.estimate(500.0)                     # both rings now end at bucket 500 // 2
        for timestamp in (2.5, 3.0):                  # still non-decreasing, long out of window
            estimator.record_arrival(timestamp)
    assert lazy._pending == [2.5, 3.0]
    assert lazy.rates(500.0) == eager.rates(500.0) == (0.0, 0.0)
    assert rate_state(lazy) == rate_state(eager)
    assert sum(lazy.long._counts) == 0                # dropped, not aliased into a live slot


def test_rate_estimator_block_folds_itself_at_the_fixed_size():
    """Memory is bounded by the block, whatever the rate and however rare the reads."""
    block = sliding_window_module._PENDING_BLOCK
    assert block >= 1024                              # thousands: reads, not the bound, fold
    lazy, eager = DualWindowRateEstimator(), EagerRateEstimator()
    for i in range(2 * block + 10):
        lazy.record_arrival(i * 1e-3)
        eager.record_arrival(i * 1e-3)
        assert len(lazy._pending) < block
    assert len(lazy._pending) == 10
    assert rate_state(lazy) == rate_state(eager)


@pytest.mark.parametrize("bad", [0.5, float("nan"), float("-inf")])
@pytest.mark.parametrize("folded", [True, False])
def test_rate_estimator_rejects_at_the_call_and_leaves_nothing_pending(bad, folded):
    """A decreasing (or NaN) timestamp raises where it is noted, not at a later read."""
    lazy, eager = DualWindowRateEstimator(), EagerRateEstimator()
    for estimator in (lazy, eager):
        estimator.record_arrival(1.0)
        if folded:
            estimator.estimate(1.0)       # nothing pending: the bound is the window's own
    noted = list(lazy._pending)
    assert noted == ([] if folded else [1.0])
    with pytest.raises(ValueError):
        lazy.record_arrival(bad)
    assert lazy._pending == noted
    for estimator in (lazy, eager):
        estimator.record_arrival(1.0 - 5e-10)         # inside the 1e-9 tolerance, as ever
    assert rate_state(lazy) == rate_state(eager)


# ----------------------------------------------------------------------
# Service-time estimator
# ----------------------------------------------------------------------
_FRACTION = st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.0, 1.0])      # mixed buckets, mostly full size
_SERVICE = st.floats(min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False)
_OBSERVATION = st.tuples(_FRACTION, _SERVICE)
_SERVICE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.lists(_OBSERVATION, min_size=1, max_size=90)),
        st.tuples(st.just("many"), st.lists(_OBSERVATION, min_size=0, max_size=90)),
        st.tuples(st.sampled_from(["observations", "mean_service_time", "service_rate"]),
                  st.sampled_from([0.25, 0.6, 1.0])),
        st.tuples(st.just("percentile"), st.sampled_from([0.25, 0.6, 1.0])),
    ),
    min_size=1, max_size=12,
)


@PROPERTY_SETTINGS
@given(ops=_SERVICE_OPS, block=st.sampled_from(BLOCK_SIZES))
def test_service_estimator_lazy_equals_eager(ops, block):
    """Any interleaving of observe / observe_many / the four reads: same state, same answers."""
    # 16 slots a bucket: streams this long reach the reservoir's replacement (RNG) phase
    lazy = OnlineServiceTimeEstimator(max_samples_per_bucket=16)
    eager = EagerServiceEstimator(max_samples_per_bucket=16)
    with mock.patch.object(service_time_module, "_PENDING_BLOCK", block):
        for op, argument in ops:
            if op == "observe":
                for fraction, service in argument:
                    lazy.observe(fraction, service)
                    eager.observe(fraction, service)
                    assert len(lazy._pending_times) < block
            elif op == "many":
                batch = [f for f, _ in argument], [s for _, s in argument]
                lazy.observe_many(*batch)
                eager.observe_many(*batch)
            elif op == "percentile":
                assert lazy.percentile(0.95, argument) == eager.percentile(0.95, argument)
            else:
                assert getattr(lazy, op)(argument) == getattr(eager, op)(argument)
        assert service_state(lazy) == service_state(eager)
        assert eager._pending_times == []


def test_service_estimator_block_folds_itself_at_the_fixed_size():
    """A streaming run that never reads the estimator still holds a bounded block."""
    block = service_time_module._PENDING_BLOCK
    assert block >= 1024
    lazy, eager = OnlineServiceTimeEstimator(), EagerServiceEstimator()
    for i in range(block + 7):
        for estimator in (lazy, eager):
            estimator.observe(1.0 if i % 5 else 0.5, 0.01 + (i % 13) * 1e-3)
        assert len(lazy._pending_times) == len(lazy._pending_fractions) < block
    assert len(lazy._pending_times) == 7
    assert service_state(lazy) == service_state(eager)


@pytest.mark.parametrize("fraction, service", [
    (1.0, -0.1), (1.0, float("nan")), (0.0, 0.05), (-0.5, 0.05),
])
def test_service_estimator_rejects_at_the_call_and_leaves_nothing_pending(fraction, service):
    lazy = OnlineServiceTimeEstimator()
    lazy.observe(1.0, 0.05)
    with pytest.raises(ValueError):
        lazy.observe(fraction, service)
    assert (lazy._pending_fractions, lazy._pending_times) == ([1.0], [0.05])
    assert lazy.observations(1.0) == 1 and lazy.mean_service_time(1.0) == 0.05


class TestValidateBeforeMutate:
    """A rejected call leaves the estimator exactly as it found it (state after == before)."""

    @staticmethod
    def _learned():
        estimator = OnlineServiceTimeEstimator()
        for _ in range(30):
            estimator.observe(1.0, 0.05)
        return estimator

    def test_rejected_observe_creates_no_empty_bucket(self):
        """``observe(0.7, nan)`` used to leave ``_totals[7] == [0, 0.0]`` behind, after which
        ``mean_service_time(0.7)`` answered ``None`` and the controller fell back to the
        offline profile."""
        estimator = self._learned()
        mean, before = estimator.mean_service_time(0.7), service_state(estimator)
        assert mean == pytest.approx(0.05 / 0.7)
        with pytest.raises(ValueError):
            estimator.observe(0.7, float("nan"))
        assert service_state(estimator) == before
        assert estimator.mean_service_time(0.7) == mean
        assert estimator.service_rate(0.7) == pytest.approx(14.0)

    @pytest.mark.parametrize("fractions, services", [
        ([1, 1, 1], [0.05, float("nan"), 0.07]),            # uniform path: count 1 vs totals [0, 0.0]
        ([1, 1, 1], [float("nan"), -1.0, 0.07]),            # a NaN hiding a negative from min()
        ([1, 0.5, 1], [0.05, float("nan"), 0.07]),          # grouping path
        ([1, 0.5, 1], [0.05, 0.06, -0.07]),
        ([1, 0.5, 0], [0.05, 0.06, 0.07]),
        ([0.7, 0.7], [0.05, float("nan")]),                 # would have created bucket 7
    ])
    @pytest.mark.parametrize("pending", [False, True])
    def test_rejected_observe_many_touches_nothing(self, fractions, services, pending):
        estimator = self._learned()
        if pending:
            estimator.observe(1.0, 0.04)                    # a block waiting behind the batch
        else:
            estimator.observations()
        noted = list(estimator._pending_times)
        reference = self._learned()
        if pending:
            reference.observe(1.0, 0.04)
        with pytest.raises(ValueError):
            estimator.observe_many(fractions, services)
        assert estimator._pending_times == noted            # not even folded
        assert service_state(estimator) == service_state(reference)

    def test_infinite_service_times_are_still_accepted(self):
        """Only NaN and negatives are rejected: ``sum`` of infinities is not NaN."""
        estimator = OnlineServiceTimeEstimator()
        estimator.observe_many([1.0, 1.0], [math.inf, math.inf])
        assert estimator.observations(1.0) == 2

    @pytest.mark.parametrize("batch", [
        [1.0, 2.0, float("nan"), 3.0],      # used to raise with count == 2 and two samples folded
        [1.0, 2.0, -3.0],
        [float("nan"), -1.0],               # a NaN hiding a negative from min()
        [1.0, "two"],                       # not a number at all
    ])
    @pytest.mark.parametrize("seen", [0, 4, 25])    # empty, filling, full (draws would have moved the RNG)
    def test_rejected_add_many_leaves_the_reservoir_as_it_was(self, batch, seen):
        quantile = StreamingQuantile(max_samples=10)
        quantile.add_many([0.1 * k for k in range(seen)])
        before = quantile_state(quantile)
        with pytest.raises(ValueError):
            quantile.add_many(batch)
        assert quantile_state(quantile) == before
        with pytest.raises(ValueError):
            quantile.add(float("nan"))
        assert quantile_state(quantile) == before


def quantile_state(quantile):
    """Everything a :class:`StreamingQuantile` holds: samples, count, RNG state."""
    return list(quantile._sorted), quantile._count, quantile._rng.getstate()


@PROPERTY_SETTINGS
@given(batches=st.lists(
    st.lists(st.one_of(st.floats(min_value=0.0, max_value=5.0), st.sampled_from([0.0, -0.0, 1, True])),
             min_size=0, max_size=30),
    min_size=1, max_size=6))
def test_streaming_quantile_add_many_equals_add_per_element(batches):
    """However the stream is cut — across the fill boundary too — samples, count and RNG agree."""
    bulk, single = StreamingQuantile(max_samples=10), StreamingQuantile(max_samples=10)
    for batch in batches:
        bulk.add_many(batch)
        for value in batch:
            single.add(value)
        assert quantile_state(bulk) == quantile_state(single)
        assert all(type(sample) is float for sample in bulk._sorted)
    # -0.0 == 0.0, so compare the ties' order by representation as well
    assert [repr(v) for v in bulk._sorted] == [repr(v) for v in single._sorted]


# ----------------------------------------------------------------------
# Both planes end on the same estimator contents
# ----------------------------------------------------------------------
def test_estimators_and_balancer_scores_end_equal_on_both_planes():
    """The oracle contract of ``columnar.py``: what the event plane noted per request and
    folded at its reads equals what the kernel folded in batches — windows, reservoirs,
    RNG states, float totals, WRR scores — including what was still pending at the end."""
    from dataclasses import replace

    from repro.cluster.cluster import ClusterConfig
    from repro.core.controller import ControllerConfig
    from repro.simulation import SimulationRunner
    from repro.workloads.functions import microbenchmark
    from repro.workloads.generator import WorkloadBinding
    from repro.workloads.schedules import StepSchedule

    def final_state(plane):
        runner = SimulationRunner(
            workloads=[
                WorkloadBinding(
                    profile=replace(microbenchmark(0.05), name=f"fn-{i}"),
                    schedule=StepSchedule([(0.0, 40.0), (12.0, 120.0 + 20.0 * i), (24.0, 30.0)],
                                          duration=33.0),   # ends between two rate ticks
                    slo_deadline=0.1)
                for i in range(3)
            ],
            cluster_config=ClusterConfig(node_count=3, cpu_per_node=4.0),   # overloaded at the peak
            controller_config=ControllerConfig(epoch_length=10.0),
            seed=5, warm_start_containers={"fn-0": 1, "fn-1": 2, "fn-2": 1}, data_plane=plane,
        )
        runner.run(duration=33.0, extra_drain=1.0)           # stops 4 s after the last tick
        controller = runner.policy
        pending = sum(len(s.rate_estimator._pending) + len(s.online_service._pending_times)
                      for s in controller._functions.values())
        return pending, {
            name: (rate_state(s.rate_estimator), service_state(s.online_service))
            for name, s in controller._functions.items()
        }, {name: scores for name, scores in controller.balancer._scores.items() if scores}

    event_pending, event_estimators, event_scores = final_state("event")
    columnar_pending, columnar_estimators, columnar_scores = final_state("columnar")
    assert event_pending > 0 and columnar_pending == 0      # only the event plane defers
    assert event_estimators == columnar_estimators
    assert event_scores == columnar_scores
    assert any(len(totals) > 0 for _, (_, totals, _, _) in event_estimators.values())
