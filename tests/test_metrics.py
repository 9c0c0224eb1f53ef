"""Tests for the metrics package: percentiles, SLO reports, utilisation, timelines."""

import pytest

from repro.metrics.collector import EpochSnapshot, FunctionEpochStats, MetricsCollector
from repro.metrics.percentiles import (
    percentile,
    summarize_response_times,
    summarize_waiting_times,
)
from repro.metrics.slo import overall_attainment, slo_report
from repro.metrics.timeline import AllocationTimeline, TimelinePoint
from repro.metrics.utilization import UtilizationTracker, time_weighted_mean
from repro.sim.request import Request


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


class TestTimeline:
    def test_series_and_lookup(self):
        timeline = AllocationTimeline()
        timeline.record(TimelinePoint(0.0, "fn", containers=2, cpu=2.0))
        timeline.record(TimelinePoint(10.0, "fn", containers=4, cpu=4.0))
        times, cpus = timeline.cpu_series("fn")
        assert times == [0.0, 10.0]
        assert cpus == [2.0, 4.0]
        assert timeline.cpu_at("fn", 5.0) == 2.0
        assert timeline.cpu_at("fn", 15.0) == 4.0
        assert timeline.functions() == ["fn"]

    def test_fraction_below_threshold(self):
        timeline = AllocationTimeline()
        for t, cpu in ((0.0, 6.0), (10.0, 4.0), (20.0, 6.0), (30.0, 2.0)):
            timeline.record(TimelinePoint(t, "fn", containers=1, cpu=cpu))
        assert timeline.fraction_below("fn", 6.0) == pytest.approx(0.5)
        assert timeline.fraction_below("fn", 6.0, start=0.0, end=10.0) == pytest.approx(0.5)

    def test_mean_cpu_and_total_series(self):
        timeline = AllocationTimeline()
        timeline.record(TimelinePoint(0.0, "a", containers=1, cpu=2.0))
        timeline.record(TimelinePoint(0.0, "b", containers=1, cpu=1.0))
        timeline.record(TimelinePoint(10.0, "a", containers=2, cpu=4.0))
        assert timeline.mean_cpu("a") == pytest.approx(3.0)
        times, totals = timeline.total_cpu_series()
        assert totals == [3.0, 5.0]

    def test_out_of_order_rejected(self):
        timeline = AllocationTimeline()
        timeline.record(TimelinePoint(10.0, "fn", containers=1, cpu=1.0))
        with pytest.raises(ValueError):
            timeline.record(TimelinePoint(5.0, "fn", containers=1, cpu=1.0))


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
    """Opt-in constant-memory percentile mode (PR-1)."""

    def test_streaming_summary_robust_to_zero_wait_atom(self):
        # >50% of simulated waits are exactly zero (idle-container hits); the
        # quantile sketch must not get stranded below the true p95 the way a
        # marker-based (P²) estimator does on such an atom
        import numpy as np
        from repro.metrics.streaming import StreamingSummary

        rng = np.random.default_rng(13)
        positives = rng.exponential(1.0, 5_000)
        waits = np.concatenate([np.zeros(6_000), positives])
        rng.shuffle(waits)
        streaming = StreamingSummary()
        streaming.extend(waits)
        exact95 = float(np.quantile(waits, 0.95))
        assert streaming.summary().p95 == pytest.approx(exact95, rel=0.15)
        assert streaming.summary().median == 0.0

    def test_reservoir_quantiles_validation(self):
        from repro.metrics.streaming import ReservoirQuantiles

        with pytest.raises(ValueError):
            ReservoirQuantiles(max_samples=5)
        sketch = ReservoirQuantiles()
        assert sketch.quantile(0.5) == 0.0  # empty sketch
        with pytest.raises(ValueError):
            sketch.quantile(1.5)

    def test_streaming_summary_matches_stored_mode(self):
        import numpy as np
        from repro.metrics.streaming import StreamingSummary

        rng = np.random.default_rng(7)
        waits = rng.exponential(0.05, 20_000)
        streaming = StreamingSummary()
        streaming.extend(waits)
        summary = streaming.summary()
        assert summary.count == waits.size
        assert summary.mean == pytest.approx(float(waits.mean()), rel=1e-6)
        assert summary.minimum == pytest.approx(float(waits.min()))
        assert summary.maximum == pytest.approx(float(waits.max()))
        assert summary.p95 == pytest.approx(float(np.quantile(waits, 0.95)), rel=0.05)
        assert summary.p99 == pytest.approx(float(np.quantile(waits, 0.99)), rel=0.05)

    def test_collector_streaming_mode(self):
        collector = MetricsCollector(streaming_percentiles=True, store_requests=False)
        for i in range(500):
            request = completed_request(arrival=float(i), wait=0.01 * (i % 10))
            collector.record_request(request)
            collector.record_completion(request)
        assert collector.requests == []            # nothing retained
        summary = collector.waiting_summary()
        assert summary.count == 500
        assert 0.0 <= summary.median <= 0.09
        per_function = collector.waiting_summary("fn")
        assert per_function.count == 500
        assert collector.waiting_summary("other").count == 0
        assert collector.counters["completions"] == 500

    def test_streaming_mode_rejects_warmup(self):
        collector = MetricsCollector(streaming_percentiles=True, store_requests=False)
        with pytest.raises(ValueError):
            collector.waiting_summary(warmup=10.0)

    def test_store_requests_off_requires_streaming(self):
        with pytest.raises(ValueError):
            MetricsCollector(store_requests=False)

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
