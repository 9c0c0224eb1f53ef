"""Per-function allocation timelines.

Figures 6, 8, and 9 of the paper are time series of how much capacity
each function holds (number of containers, or CPU).  Every policy records
one :class:`~repro.metrics.collector.EpochSnapshot` per epoch;
:class:`AllocationTimeline` is a read-side view over that list, from
which the experiment harness extracts the plotted series and summary
statistics (e.g. how often a function dipped below its fair share).
Nothing is written here: a :class:`TimelinePoint` is built when somebody
asks for one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - the collector imports this module
    from repro.metrics.collector import EpochSnapshot, FunctionEpochStats


@dataclass(frozen=True)
class TimelinePoint:
    """Allocation of one function at one instant."""

    time: float
    function_name: str
    containers: int
    cpu: float
    desired_containers: Optional[int] = None
    arrival_rate: Optional[float] = None


class AllocationTimeline:
    """The recorded epochs, read per function.

    Parameters
    ----------
    epochs:
        The collector's epoch list (held, not copied, so the view follows
        the run).  :meth:`MetricsCollector.record_epoch` keeps it in time
        order.
    """

    def __init__(self, epochs: "Sequence[EpochSnapshot]") -> None:
        """View ``epochs``."""
        self._epochs = epochs

    def _samples(self, function_name: str) -> "Iterator[Tuple[float, FunctionEpochStats]]":
        """``(time, stats)`` of every epoch that recorded the function, in time order."""
        for epoch in self._epochs:
            stats = epoch.functions.get(function_name)
            if stats is not None:
                yield epoch.time, stats

    def series(self, function_name: str) -> List[TimelinePoint]:
        """All points of a function."""
        return [
            TimelinePoint(
                time=time,
                function_name=stats.function_name,
                containers=stats.containers,
                cpu=stats.cpu,
                desired_containers=stats.desired_containers,
                arrival_rate=stats.arrival_rate_estimate,
            )
            for time, stats in self._samples(function_name)
        ]

    def container_series(self, function_name: str) -> Tuple[List[float], List[int]]:
        """``(times, container counts)`` arrays for plotting."""
        samples = list(self._samples(function_name))
        return [time for time, _ in samples], [stats.containers for _, stats in samples]

    def _window(self, function_name: str, start: float, end: Optional[float]) -> List[float]:
        """The function's CPU samples with ``start <= time <= end``."""
        return [
            stats.cpu for time, stats in self._samples(function_name)
            if time >= start and (end is None or time <= end)
        ]

    def mean_cpu(self, function_name: str, start: float = 0.0, end: Optional[float] = None) -> float:
        """Unweighted mean CPU allocation of a function over the sampled epochs."""
        cpus = self._window(function_name, start, end)
        if not cpus:
            return 0.0
        return sum(cpus) / len(cpus)


__all__ = ["TimelinePoint", "AllocationTimeline"]
