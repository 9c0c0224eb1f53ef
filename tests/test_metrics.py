"""Tests for the metrics package: percentiles, SLO reports, utilisation, timelines."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.collector import EpochSnapshot, FunctionEpochStats, MetricsCollector
from repro.metrics.percentiles import (
    percentile,
    summarize_response_times,
    summarize_waiting_times,
)
from repro.metrics.percentiles import WaitingTimeSummary
from repro.metrics.slo import SloReport, overall_attainment, slo_report
from repro.metrics.streaming import ReservoirQuantiles
from repro.metrics.table import RequestTable
from repro.metrics.timeline import TimelinePoint
from repro.metrics.utilization import UtilizationTracker, time_weighted_mean
from repro.sim.request import Request, RequestStatus


def completed_request(name="fn", arrival=0.0, wait=0.05, service=0.1, deadline=0.1):
    request = Request(function_name=name, arrival_time=arrival,
                      deadline=None if deadline is None else arrival + deadline, work=service)
    request.mark_queued()
    request.mark_running(arrival + wait, "c", "n")
    request.mark_completed(arrival + wait + service)
    return request


def dropped_request(name="fn", arrival=0.0):
    request = Request(function_name=name, arrival_time=arrival, deadline=arrival + 0.1, work=0.1)
    request.mark_queued()
    request.mark_dropped(arrival + 1.0)
    return request


class TestPercentiles:
    def test_percentile_function(self):
        assert percentile(range(1, 101), 0.95) == pytest.approx(95.05)
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1], 1.5)

    def test_waiting_summary_basic(self):
        requests = [completed_request(wait=w) for w in (0.01, 0.02, 0.03, 0.2)]
        summary = summarize_waiting_times(requests)
        assert summary.count == 4
        assert summary.maximum == pytest.approx(0.2)
        assert summary.mean == pytest.approx(0.065)

    def test_waiting_summary_filters_by_function_and_warmup(self):
        requests = [
            completed_request(name="a", arrival=0.0, wait=0.5),
            completed_request(name="a", arrival=50.0, wait=0.01),
            completed_request(name="b", arrival=50.0, wait=0.9),
        ]
        summary = summarize_waiting_times(requests, function_name="a", warmup=10.0)
        assert summary.count == 1
        assert summary.p95 == pytest.approx(0.01)

    def test_incomplete_requests_excluded(self):
        summary = summarize_waiting_times([dropped_request()])
        assert summary.count == 0

    def test_response_time_summary(self):
        requests = [completed_request(wait=0.05, service=0.1)]
        summary = summarize_response_times(requests)
        assert summary.mean == pytest.approx(0.15)

    def test_as_dict(self):
        summary = summarize_waiting_times([completed_request()])
        assert set(summary.as_dict()) == {"count", "mean", "median", "p90", "p95", "p99", "max", "min"}


class TestSloReport:
    def test_attainment_on_waiting_time(self):
        requests = [completed_request(wait=0.01) for _ in range(9)] + [completed_request(wait=0.5)]
        reports = slo_report(requests, {"fn": 0.1}, target_percentile=0.9)
        assert reports["fn"].within_deadline == 9
        assert reports["fn"].attainment == pytest.approx(0.9)
        assert reports["fn"].satisfied

    def test_drops_count_as_violations(self):
        requests = [completed_request(wait=0.01), dropped_request()]
        reports = slo_report(requests, {"fn": 0.1}, target_percentile=0.9)
        assert reports["fn"].attainment == pytest.approx(0.5)
        assert not reports["fn"].satisfied

    def test_drops_ignored_when_requested(self):
        requests = [completed_request(wait=0.01), dropped_request()]
        reports = slo_report(requests, {"fn": 0.1}, count_drops_as_violations=False)
        assert reports["fn"].attainment == pytest.approx(1.0)

    def test_response_time_interpretation(self):
        requests = [completed_request(wait=0.05, service=0.1)]
        on_wait = slo_report(requests, {"fn": 0.1}, on_waiting_time=True)["fn"]
        on_response = slo_report(requests, {"fn": 0.1}, on_waiting_time=False)["fn"]
        assert on_wait.within_deadline == 1
        assert on_response.within_deadline == 0

    def test_functions_without_deadline_ignored(self):
        requests = [completed_request(name="other")]
        assert slo_report(requests, {"fn": 0.1}) == {}

    def test_overall_attainment(self):
        requests = [completed_request(name="a", wait=0.01),
                    completed_request(name="b", wait=0.5)]
        reports = slo_report(requests, {"a": 0.1, "b": 0.1})
        assert overall_attainment(reports) == pytest.approx(0.5)
        assert overall_attainment({}) == 1.0

    def test_invalid_percentile(self):
        with pytest.raises(ValueError):
            slo_report([], {"fn": 0.1}, target_percentile=0.0)


class TestUtilization:
    def test_time_weighted_mean(self):
        samples = [(0.0, 0.5), (10.0, 1.0)]
        assert time_weighted_mean(samples, horizon=20.0) == pytest.approx(0.75)
        assert time_weighted_mean([], None) == 0.0

    def test_tracker_mean_and_peak(self):
        tracker = UtilizationTracker()
        tracker.record(0.0, 6.0, 12.0)
        tracker.record(10.0, 12.0, 12.0)
        assert tracker.mean_utilization(end=20.0) == pytest.approx(0.75)
        assert tracker.peak_utilization() == pytest.approx(1.0)
        assert tracker.unused_capacity_fraction(end=20.0) == pytest.approx(0.25)

    def test_windowed_mean(self):
        tracker = UtilizationTracker()
        tracker.record(0.0, 0.0, 12.0)
        tracker.record(10.0, 12.0, 12.0)
        tracker.record(20.0, 6.0, 12.0)
        assert tracker.mean_utilization(start=10.0, end=20.0) == pytest.approx(1.0)

    def test_out_of_order_samples_rejected(self):
        tracker = UtilizationTracker()
        tracker.record(10.0, 1.0, 12.0)
        with pytest.raises(ValueError):
            tracker.record(5.0, 1.0, 12.0)

    def test_validation(self):
        tracker = UtilizationTracker()
        with pytest.raises(ValueError):
            tracker.record(0.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            tracker.record(0.0, -1.0, 1.0)
        # zero capacity is legal (a fully-failed cluster) and reads as 0
        tracker.record(0.0, 0.0, 0.0)
        assert tracker.samples[-1].fraction == 0.0


def collector_with(*samples) -> MetricsCollector:
    """A collector that recorded one epoch per distinct time of ``(time, name, containers, cpu)``."""
    collector = MetricsCollector()
    by_time = {}
    for time, name, containers, cpu in samples:
        by_time.setdefault(time, {})[name] = FunctionEpochStats(name, containers, cpu, containers, 0.0, 0.0)
    for time, functions in by_time.items():
        collector.record_epoch(EpochSnapshot(
            time=time, overloaded=False, total_cpu=12.0,
            allocated_cpu=sum(stats.cpu for stats in functions.values()), functions=functions,
        ))
    return collector


class TestTimeline:
    def test_series_and_lookup(self):
        timeline = collector_with((0.0, "fn", 2, 2.0), (10.0, "fn", 4, 4.0)).timeline
        times, cpus = timeline.cpu_series("fn")
        assert times == [0.0, 10.0]
        assert cpus == [2.0, 4.0]
        assert timeline.container_series("fn") == ([0.0, 10.0], [2, 4])
        assert timeline.series("fn") == [
            TimelinePoint(0.0, "fn", containers=2, cpu=2.0, desired_containers=2, arrival_rate=0.0),
            TimelinePoint(10.0, "fn", containers=4, cpu=4.0, desired_containers=4, arrival_rate=0.0),
        ]
        assert timeline.cpu_at("fn", 5.0) == 2.0
        assert timeline.cpu_at("fn", 15.0) == 4.0
        assert timeline.functions() == ["fn"]
        assert timeline.series("missing") == [] and timeline.cpu_at("missing", 5.0) == 0.0

    def test_fraction_below_threshold(self):
        timeline = collector_with(
            *((t, "fn", 1, cpu) for t, cpu in ((0.0, 6.0), (10.0, 4.0), (20.0, 6.0), (30.0, 2.0)))
        ).timeline
        assert timeline.fraction_below("fn", 6.0) == pytest.approx(0.5)
        assert timeline.fraction_below("fn", 6.0, start=0.0, end=10.0) == pytest.approx(0.5)

    def test_mean_cpu_and_total_series(self):
        timeline = collector_with((0.0, "a", 1, 2.0), (0.0, "b", 1, 1.0), (10.0, "a", 2, 4.0)).timeline
        assert timeline.mean_cpu("a") == pytest.approx(3.0)
        times, totals = timeline.total_cpu_series()
        assert totals == [3.0, 5.0]

    def test_out_of_order_rejected(self):
        collector = collector_with((10.0, "fn", 1, 1.0))
        with pytest.raises(ValueError):
            collector_with((10.0, "fn", 1, 1.0), (5.0, "fn", 1, 1.0))
        late = EpochSnapshot(time=5.0, overloaded=False, total_cpu=12.0, allocated_cpu=1.0,
                             functions={"fn": FunctionEpochStats("fn", 1, 1.0, 1, 0.0, 0.0)})
        with pytest.raises(ValueError):
            collector.record_epoch(late)
        # the rejected epoch left nothing behind
        assert len(collector.epochs) == 1 and len(collector.utilization.samples) == 1
        assert collector.timeline.cpu_series("fn") == ([10.0], [1.0])

    def test_a_record_filed_under_another_name_is_rejected(self):
        """The view looks functions up by key: a key that is not its record's name would hide it."""
        collector = collector_with((0.0, "fn", 1, 1.0))
        misfiled = EpochSnapshot(time=10.0, overloaded=False, total_cpu=12.0, allocated_cpu=1.0,
                                 functions={"fn": FunctionEpochStats("other", 1, 1.0, 1, 0.0, 0.0)})
        with pytest.raises(ValueError, match="'other' under 'fn'"):
            collector.record_epoch(misfiled)
        assert len(collector.epochs) == 1 and len(collector.utilization.samples) == 1


class TestCollector:
    def test_epoch_snapshot_feeds_timeline_and_utilization(self):
        collector = MetricsCollector()
        snapshot = EpochSnapshot(
            time=10.0, overloaded=False, total_cpu=12.0, allocated_cpu=6.0,
            functions={"fn": FunctionEpochStats("fn", 3, 3.0, 3, 20.0, 10.0)},
        )
        collector.record_epoch(snapshot)
        assert collector.epochs[0].utilization == pytest.approx(0.5)
        assert collector.timeline.cpu_at("fn", 10.0) == 3.0
        assert collector.mean_utilization() == pytest.approx(0.5)

    def test_request_accounting_and_summary(self):
        collector = MetricsCollector()
        request = completed_request()
        collector.record_request(request)
        collector.record_completion(request)
        collector.record_drop(2)
        collector.increment("creations", 3)
        summary = collector.summary({"fn": 0.1})
        assert summary["arrivals"] == 1
        assert summary["completions"] == 1
        assert summary["drops"] == 2
        assert summary["slo"]["fn"] == pytest.approx(1.0)
        assert collector.throughput("fn") == 1

    def test_completed_and_dropped_filters(self):
        collector = MetricsCollector()
        good, bad = completed_request(name="a"), dropped_request(name="b")
        collector.record_request(good)
        collector.record_request(bad)
        assert len(collector.completed_requests("a")) == 1
        assert len(collector.completed_requests("b")) == 0
        assert len(collector.dropped_requests()) == 1


class TestStreamingPercentiles:
    """The reservoir sketch, and the collector's one record mode beside it."""

    def test_reservoir_robust_to_zero_wait_atom(self):
        # >50% of simulated waits are exactly zero (idle-container hits); the
        # quantile sketch must not get stranded below the true p95 the way a
        # marker-based (P²) estimator does on such an atom
        from repro.metrics.streaming import ReservoirQuantiles

        rng = np.random.default_rng(13)
        positives = rng.exponential(1.0, 5_000)
        waits = np.concatenate([np.zeros(6_000), positives])
        rng.shuffle(waits)
        sketch = ReservoirQuantiles(16384)
        sketch.add_many(waits.tolist())
        exact95 = float(np.quantile(waits, 0.95))
        assert sketch.quantile(0.95) == pytest.approx(exact95, rel=0.15)
        assert sketch.quantile(0.5) == 0.0

    def test_reservoir_quantiles_validation(self):
        from repro.metrics.streaming import ReservoirQuantiles

        with pytest.raises(ValueError):
            ReservoirQuantiles(max_samples=5)
        sketch = ReservoirQuantiles()
        assert sketch.quantile(0.5) == 0.0  # empty sketch
        with pytest.raises(ValueError):
            sketch.quantile(1.5)

    def test_reservoir_quantiles_match_exact_ones(self):
        from repro.metrics.streaming import ReservoirQuantiles

        rng = np.random.default_rng(7)
        waits = rng.exponential(0.05, 20_000)
        sketch = ReservoirQuantiles(16384)
        sketch.add_many(waits.tolist())
        assert sketch.count == waits.size
        assert sketch.quantile(0.95) == pytest.approx(float(np.quantile(waits, 0.95)), rel=0.05)
        assert sketch.quantile(0.99) == pytest.approx(float(np.quantile(waits, 0.99)), rel=0.05)

    def test_collector_keeps_every_request_and_summarises_the_table(self):
        collector = MetricsCollector()
        requests = [completed_request(arrival=float(i), wait=0.01 * (i % 10))
                    for i in range(500)]
        for request in requests:
            collector.record_request(request)
            collector.record_completion(request)
        assert collector.requests == requests
        summary = collector.waiting_summary()
        assert summary == _oracle_summarize_waiting_times(requests)
        assert summary.count == 500 and summary.median == pytest.approx(0.045)
        assert collector.waiting_summary("fn") == summary
        assert collector.waiting_summary("other").count == 0
        assert collector.counters["completions"] == collector.throughput() == 500

    def test_collector_warmup_drops_early_arrivals_from_the_summary(self):
        collector = MetricsCollector()
        requests = [completed_request(name="ab"[i % 2], arrival=float(i), wait=0.001 * i)
                    for i in range(40)] + [dropped_request(arrival=30.0)]
        for request in requests:
            collector.record_request(request)
        collector.seal_requests()
        for name in (None, "a", "b", "fn"):
            for warmup in (0.0, 10.0, 39.0, 40.0):
                assert collector.waiting_summary(name, warmup=warmup) == (
                    _oracle_summarize_waiting_times(requests, name, warmup))
        assert collector.waiting_summary(warmup=10.0).count == 30
        assert collector.waiting_summary(warmup=10.0).minimum == pytest.approx(0.01)

    def test_a_request_recorded_after_a_deferred_fill_joins_the_rebuilt_list(self):
        collector = MetricsCollector()
        early = [completed_request(arrival=float(i)) for i in range(3)]
        fills = []

        def fill():
            fills.append(len(fills))
            return list(early)

        table = RequestTable.from_requests(early)
        collector.defer_requests(fill, table)
        assert collector.request_table() is table and fills == []
        late = dropped_request(name="late", arrival=5.0)
        collector.record_request(late)                # rebuilds the objects first, once
        assert fills == [0]
        assert collector.requests == early + [late] and fills == [0]
        assert collector.request_table() is not table
        assert collector.slo({"late": 0.1})["late"].dropped_requests == 1
        assert collector.throughput() == 3

    def test_default_behaviour_unchanged(self):
        collector = MetricsCollector()
        request = completed_request()
        collector.record_request(request)
        collector.record_completion(request)
        assert collector.requests == [request]
        assert collector.waiting_summary().count == 1

    def test_percentile_accepts_ndarray_and_iterables(self):
        import numpy as np

        arr = np.linspace(0.0, 1.0, 101)
        assert percentile(arr, 0.95) == pytest.approx(0.95)
        assert percentile(iter(list(arr)), 0.5) == pytest.approx(0.5)
        assert percentile(arr.astype(np.float32), 0.5) == pytest.approx(0.5, abs=1e-6)


# ----------------------------------------------------------------------
# The table path against the object loops it replaced
# ----------------------------------------------------------------------
# The three functions below are the per-request loops of metrics/slo.py
# and metrics/percentiles.py as they stood before the analysis moved
# onto RequestTable, frozen verbatim as the reference.
def _oracle_slo_report(requests, deadlines, target_percentile=0.95, on_waiting_time=True,
                       warmup=0.0, count_drops_as_violations=True):
    if not 0 < target_percentile < 1:
        raise ValueError("target_percentile must be in (0, 1)")
    per_function = {}
    for request in requests:
        if request.arrival_time < warmup:
            continue
        name = request.function_name
        if name not in deadlines:
            continue
        stats = per_function.setdefault(
            name, {"total": 0, "completed": 0, "dropped": 0, "within": 0}
        )
        stats["total"] += 1
        if request.status is RequestStatus.COMPLETED:
            stats["completed"] += 1
            metric = request.waiting_time if on_waiting_time else request.response_time
            if metric is not None and metric <= deadlines[name] + 1e-12:
                stats["within"] += 1
        elif request.status in (RequestStatus.DROPPED, RequestStatus.TIMED_OUT):
            stats["dropped"] += 1

    reports = {}
    for name, stats in per_function.items():
        denominator = stats["total"] if count_drops_as_violations else stats["completed"]
        attainment = stats["within"] / denominator if denominator else 1.0
        reports[name] = SloReport(
            function_name=name,
            deadline=deadlines[name],
            target_percentile=target_percentile,
            total_requests=stats["total"],
            completed_requests=stats["completed"],
            dropped_requests=stats["dropped"],
            within_deadline=stats["within"],
            attainment=attainment,
            satisfied=attainment >= target_percentile,
        )
    return reports


def _oracle_summary(values):
    if not values:
        return WaitingTimeSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    arr = np.asarray(values)
    return WaitingTimeSummary(
        count=int(arr.size),
        mean=float(arr.mean()),
        median=float(np.quantile(arr, 0.5)),
        p90=float(np.quantile(arr, 0.90)),
        p95=float(np.quantile(arr, 0.95)),
        p99=float(np.quantile(arr, 0.99)),
        maximum=float(arr.max()),
        minimum=float(arr.min()),
    )


def _oracle_summarize_waiting_times(requests, function_name=None, warmup=0.0):
    waits = []
    for request in requests:
        if function_name is not None and request.function_name != function_name:
            continue
        if request.arrival_time < warmup:
            continue
        if request.status is not RequestStatus.COMPLETED:
            continue
        wait = request.waiting_time
        if wait is not None:
            waits.append(wait)
    return _oracle_summary(waits)


def _oracle_summarize_response_times(requests, function_name=None, warmup=0.0):
    values = []
    for request in requests:
        if function_name is not None and request.function_name != function_name:
            continue
        if request.arrival_time < warmup:
            continue
        if request.status is not RequestStatus.COMPLETED:
            continue
        rt = request.response_time
        if rt is not None:
            values.append(rt)
    return _oracle_summary(values)


def _population():
    """Request lists with every status and every way a timestamp can be missing."""
    moments = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)

    @st.composite
    def request(draw):
        arrival = draw(moments)
        status = draw(st.sampled_from(list(RequestStatus)))
        started = status in (RequestStatus.RUNNING, RequestStatus.COMPLETED)
        if status in (RequestStatus.DROPPED, RequestStatus.TIMED_OUT):
            started = draw(st.booleans())          # dropped in the queue, or after it started
        item = Request(function_name=draw(st.sampled_from("abcd")), arrival_time=arrival)
        item.status = status
        if started:
            # mostly an exact zero wait (the idle-container atom), else a spread
            item.start_time = arrival + draw(st.sampled_from((0.0, 0.0, 0.05, 0.1, 0.1 + 1e-12, 3.0)))
        if status in (RequestStatus.COMPLETED, RequestStatus.DROPPED, RequestStatus.TIMED_OUT):
            item.completion_time = (item.start_time if started else arrival) + draw(moments)
        if status is RequestStatus.COMPLETED and draw(st.integers(0, 19)) == 0:
            # a completed record with a timestamp missing: not something a
            # run produces, but the object loops tolerated it
            if draw(st.booleans()):
                item.start_time = None
            else:
                item.completion_time = None
        return item

    return st.lists(request(), max_size=60)


class TestTablePathEqualsObjectLoops:
    """`==` results and the same dict order, whatever the population looks like."""

    @given(
        requests=_population(),
        # "e" never has requests; "d" (and sometimes more) has no deadline
        deadlines=st.dictionaries(st.sampled_from("abce"), st.sampled_from((0.0, 0.1, 1, 2.5)),
                                  max_size=4),
        warmup=st.sampled_from((0.0, 10.0, 25.0, 1e9)),
        on_waiting_time=st.booleans(),
        count_drops=st.booleans(),
        single_pass=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_slo_report(self, requests, deadlines, warmup, on_waiting_time, count_drops,
                        single_pass):
        expected = _oracle_slo_report(requests, deadlines, 0.9, on_waiting_time, warmup,
                                      count_drops)
        actual = slo_report(iter(requests) if single_pass else requests, deadlines, 0.9,
                            on_waiting_time=on_waiting_time, warmup=warmup,
                            count_drops_as_violations=count_drops)
        assert actual == expected
        assert list(actual) == list(expected)
        for report in actual.values():
            assert all(type(value) is int for value in (
                report.total_requests, report.completed_requests,
                report.dropped_requests, report.within_deadline))

    @given(
        requests=_population(),
        function_name=st.sampled_from((None, "a", "b", "e")),
        warmup=st.sampled_from((0.0, 10.0, 25.0, 1e9)),
        single_pass=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_summaries(self, requests, function_name, warmup, single_pass):
        for table_path, oracle in (
            (summarize_waiting_times, _oracle_summarize_waiting_times),
            (summarize_response_times, _oracle_summarize_response_times),
        ):
            source = iter(requests) if single_pass else requests
            assert table_path(source, function_name, warmup) == oracle(
                requests, function_name, warmup)

    def test_empty_input_and_the_percentile_guard(self):
        assert slo_report([], {"fn": 0.1}) == {}
        assert slo_report(iter(()), {}) == {}
        assert summarize_waiting_times([]) == _oracle_summarize_waiting_times([])
        assert summarize_response_times(iter(())).count == 0
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="target_percentile"):
                slo_report([completed_request()], {"fn": 0.1}, target_percentile=bad)

    def test_deadline_tolerance_absorbs_float_rounding(self):
        request = completed_request(arrival=0.3, wait=0.1)
        assert request.waiting_time > 0.1                       # 0.4 - 0.3 rounds up
        report = slo_report([request], {"fn": 0.1})
        assert report == _oracle_slo_report([request], {"fn": 0.1})
        assert report["fn"].within_deadline == 1

    def test_a_table_passes_through_unconverted(self):
        requests = [completed_request(name="a"), dropped_request(name="b"),
                    completed_request(name="a", arrival=3.0, wait=0.4)]
        table = RequestTable.from_requests(requests)
        assert RequestTable.from_requests(table) is table
        assert len(table) == 3 and table.names == ("a", "b")
        assert slo_report(table, {"a": 0.1, "b": 0.1}) == _oracle_slo_report(
            requests, {"a": 0.1, "b": 0.1})
        assert summarize_waiting_times(table, "a") == _oracle_summarize_waiting_times(
            requests, "a")

    def test_collector_queries_follow_live_requests_until_sealed(self):
        collector = MetricsCollector()
        request = Request(function_name="fn", arrival_time=0.0)
        collector.record_request(request)
        assert collector.throughput() == 0
        request.mark_running(0.02, "c", "n")
        request.mark_completed(0.1)               # mutated without telling the collector
        assert collector.throughput() == collector.throughput("fn") == 1
        assert collector.throughput("other") == 0
        assert collector.slo({"fn": 0.05})["fn"].within_deadline == 1
        collector.seal_requests()
        sealed = collector.request_table()
        assert collector.request_table() is sealed             # one extraction per finished run
        late = dropped_request(name="late")
        collector.record_request(late)                          # a new request unseals it
        assert collector.request_table() is not sealed
        assert collector.slo({"late": 0.1})["late"].dropped_requests == 1
        assert collector.requests == [request, late]


# ----------------------------------------------------------------------
# ReservoirQuantiles.add_many ≡ add, the contract StreamingQuantile rests on
# ----------------------------------------------------------------------
def _reservoir(sketch):
    """A sketch's retained samples and count: everything a quantile query reads."""
    return list(sketch._sorted), sketch.count


def _reference_reservoir(values, max_samples, seed=2029):
    """Algorithm R written out independently of the sketch class.

    Keep the first ``max_samples``; observation ``n`` after that is
    accepted when ``U1 * n < max_samples`` and then evicts the resident
    at sorted position ``int(U2 * max_samples)``.  Returns the sorted
    sample and the RNG end state.
    """
    rng = random.Random(seed)
    kept = []
    for n, value in enumerate(values, start=1):
        if n > max_samples:
            if not rng.random() * n < max_samples:
                continue
            del kept[int(rng.random() * max_samples)]
        kept.append(value)
        kept.sort()
    return kept, rng.getstate()


#: Waiting times are >50 % exact zeros: draw mostly from a handful of
#: values so ties dominate, with the odd continuous one.
_TIED_VALUES = st.one_of(
    st.sampled_from([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 7.0]),
    st.floats(min_value=0.0, max_value=50.0),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    values=st.lists(_TIED_VALUES, max_size=80),
    max_samples=st.integers(min_value=10, max_value=30),
    cuts=st.lists(st.integers(min_value=0, max_value=80), max_size=6),
)
def test_add_many_equals_add_loop(values, max_samples, cuts):
    """``add_many`` over any split of the stream ≡ ``add`` per element.

    Samples, count *and* the stdlib RNG state agree — so the two can be
    interleaved freely — for batches that are empty, end exactly on
    ``max_samples``, or straddle it, and both agree with an independent
    reference on a sampled (overflowed) sketch.
    """
    one_by_one = ReservoirQuantiles(max_samples=max_samples)
    for value in values:
        one_by_one.add(value)

    batched = ReservoirQuantiles(max_samples=max_samples)
    edges = [0] + sorted(min(c, len(values)) for c in cuts) + [len(values)]
    for lo, hi in zip(edges, edges[1:]):
        batched.add_many(values[lo:hi])
    batched.add_many([])

    assert _reservoir(batched) == _reservoir(one_by_one)
    assert batched._rng.getstate() == one_by_one._rng.getstate()
    assert batched.count == len(values)
    for p in (0.5, 0.95, 0.99):
        assert batched.quantile(p) == one_by_one.quantile(p)

    # the cut that lands exactly on the fill boundary, every example
    at_boundary = ReservoirQuantiles(max_samples=max_samples)
    at_boundary.add_many(values[:max_samples])
    at_boundary.add_many(values[max_samples:])
    assert _reservoir(at_boundary) == _reservoir(one_by_one)
    assert at_boundary._rng.getstate() == one_by_one._rng.getstate()

    kept, rng_state = _reference_reservoir(values, max_samples)
    assert _reservoir(batched)[0] == kept
    assert batched._rng.getstate() == rng_state


def test_add_many_accepts_any_iterable_and_interleaves_with_add():
    """A generator is consumed once; ``add`` and ``add_many`` share one stream."""
    values = [float(v % 7) for v in range(200)]
    reference = ReservoirQuantiles(max_samples=16)
    for value in values:
        reference.add(value)
    mixed = ReservoirQuantiles(max_samples=16)
    mixed.add_many(v for v in values[:5])
    mixed.add(values[5])
    mixed.add_many(iter(values[6:150]))
    for value in values[150:]:
        mixed.add(value)
    assert _reservoir(mixed) == _reservoir(reference)
    assert reference.count == 200 and len(reference._sorted) == 16
