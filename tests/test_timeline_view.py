"""The allocation timeline is a view: every read equals the eagerly recorded points.

Until PR 21 ``MetricsCollector.record_epoch`` pushed one ``TimelinePoint``
per function per epoch into ``AllocationTimeline.record`` — the same six
numbers ``FunctionEpochStats`` already held.  That body is frozen here
**verbatim** from commit 7af6479 (``src/repro/metrics/timeline.py`` and the
loop of ``collector.py:224``) as the oracle: each of the five policies
that record epochs runs on both data planes, the oracle is fed exactly as
``record_epoch`` fed it, and every read method is compared with ``==``.
"""

from typing import Dict, List, Optional, Tuple

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.core.controller import ControllerConfig
from repro.metrics.timeline import TimelinePoint
from repro.simulation import SimulationRunner
from repro.workloads.functions import get_function
from repro.workloads.generator import WorkloadBinding
from repro.workloads.schedules import StepSchedule

DURATION = 40.0


# ----------------------------------------------------------------------
# Frozen oracle (the body as of commit 7af6479)
# ----------------------------------------------------------------------
class EagerTimeline:
    """A collection of :class:`TimelinePoint` keyed by function."""

    def __init__(self) -> None:
        self._points: Dict[str, List[TimelinePoint]] = {}

    def record(self, point: TimelinePoint) -> None:
        series = self._points.setdefault(point.function_name, [])
        if series and point.time < series[-1].time - 1e-9:
            raise ValueError("timeline points must be recorded in time order")
        series.append(point)

    def functions(self) -> List[str]:
        return sorted(self._points)

    def series(self, function_name: str) -> List[TimelinePoint]:
        return list(self._points.get(function_name, []))

    def cpu_series(self, function_name: str) -> Tuple[List[float], List[float]]:
        points = self._points.get(function_name, [])
        return [p.time for p in points], [p.cpu for p in points]

    def container_series(self, function_name: str) -> Tuple[List[float], List[int]]:
        points = self._points.get(function_name, [])
        return [p.time for p in points], [p.containers for p in points]

    def cpu_at(self, function_name: str, time: float) -> float:
        points = self._points.get(function_name, [])
        best = 0.0
        for point in points:
            if point.time <= time + 1e-9:
                best = point.cpu
            else:
                break
        return best

    def total_cpu_series(self) -> Tuple[List[float], List[float]]:
        times = sorted({p.time for series in self._points.values() for p in series})
        totals = [
            sum(self.cpu_at(fn, t) for fn in self._points) for t in times
        ]
        return times, totals

    def fraction_below(
        self, function_name: str, threshold_cpu: float, start: float = 0.0, end: Optional[float] = None
    ) -> float:
        points = [
            p for p in self._points.get(function_name, [])
            if p.time >= start and (end is None or p.time <= end)
        ]
        if not points:
            return 0.0
        below = sum(1 for p in points if p.cpu < threshold_cpu - 1e-9)
        return below / len(points)

    def mean_cpu(self, function_name: str, start: float = 0.0, end: Optional[float] = None) -> float:
        points = [
            p for p in self._points.get(function_name, [])
            if p.time >= start and (end is None or p.time <= end)
        ]
        if not points:
            return 0.0
        return sum(p.cpu for p in points) / len(points)


def eager_timeline(epochs) -> EagerTimeline:
    """Feed the oracle the way ``record_epoch`` did at 7af6479."""
    timeline = EagerTimeline()
    for snapshot in epochs:
        for stats in snapshot.functions.values():
            timeline.record(
                TimelinePoint(
                    time=snapshot.time,
                    function_name=stats.function_name,
                    containers=stats.containers,
                    cpu=stats.cpu,
                    desired_containers=stats.desired_containers,
                    arrival_rate=stats.arrival_rate_estimate,
                )
            )
    return timeline


POLICY_PARAMS = {"static": {"allocations": {"squeezenet": 2, "microbenchmark": 3}}}


def run(policy: str, data_plane: str):
    """Two functions whose load steps up and down, on a cluster small enough to feel it."""
    bindings = [
        WorkloadBinding(get_function("squeezenet"),
                        StepSchedule([(0.0, 8.0), (15.0, 30.0), (30.0, 4.0)], duration=DURATION),
                        slo_deadline=0.1),
        WorkloadBinding(get_function("microbenchmark"),
                        StepSchedule([(0.0, 20.0), (20.0, 60.0)], duration=DURATION),
                        slo_deadline=0.1),
    ]
    return SimulationRunner(
        workloads=bindings,
        cluster_config=ClusterConfig(node_count=2, cpu_per_node=4.0),
        controller_config=ControllerConfig(epoch_length=5.0),
        seed=11,
        policy=policy,
        policy_params=POLICY_PARAMS.get(policy),
        data_plane=data_plane,
    ).run(duration=DURATION)


@pytest.mark.parametrize("data_plane", ["event", "columnar"])
@pytest.mark.parametrize("policy", ["lass", "openwhisk", "reactive", "static", "hybrid"])
def test_every_read_over_the_view_equals_the_eager_points(policy, data_plane):
    result = run(policy, data_plane)
    epochs = result.metrics.epochs
    assert len(epochs) >= 4
    view, eager = result.metrics.timeline, eager_timeline(epochs)

    assert view.functions() == eager.functions() == ["microbenchmark", "squeezenet"]
    assert view.total_cpu_series() == eager.total_cpu_series()
    probes = [-1.0, 0.0, 4.999, 5.0, 12.5, 20.0, DURATION, 1e6] + [e.time for e in epochs]
    for name in view.functions() + ["never-deployed"]:
        assert view.series(name) == eager.series(name)
        assert view.cpu_series(name) == eager.cpu_series(name)
        assert view.container_series(name) == eager.container_series(name)
        assert [view.cpu_at(name, t) for t in probes] == [eager.cpu_at(name, t) for t in probes]
        for start, end in ((0.0, None), (10.0, None), (10.0, 30.0), (50.0, 60.0)):
            assert view.mean_cpu(name, start, end) == eager.mean_cpu(name, start, end)
            for threshold in (0.0, 1.0, 2.5):
                assert (view.fraction_below(name, threshold, start, end)
                        == eager.fraction_below(name, threshold, start, end))
    assert result.container_timeline("squeezenet") == eager.container_series("squeezenet")
    assert result.cpu_timeline("squeezenet") == eager.cpu_series("squeezenet")


def test_the_view_follows_epochs_recorded_after_it_was_handed_out():
    from repro.metrics.collector import EpochSnapshot, FunctionEpochStats, MetricsCollector

    collector = MetricsCollector()
    view = collector.timeline
    assert view.functions() == [] and view.total_cpu_series() == ([], [])
    for time, cpu in ((5.0, 1.0), (10.0, 2.0)):
        collector.record_epoch(EpochSnapshot(
            time=time, overloaded=False, total_cpu=8.0, allocated_cpu=cpu,
            functions={"fn": FunctionEpochStats("fn", 1, cpu, 1, 3.0, 10.0)}))
    assert view.cpu_series("fn") == ([5.0, 10.0], [1.0, 2.0])
    assert view.series("fn")[-1] == TimelinePoint(10.0, "fn", 1, 2.0, 1, 3.0)
