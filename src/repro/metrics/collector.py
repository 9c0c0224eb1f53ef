"""The central metrics collector the controller and experiments write into.

One :class:`MetricsCollector` instance accompanies each simulation run.
It accumulates every request (for waiting-time and SLO analysis, which
reduce the run's :class:`~repro.metrics.table.RequestTable`), one
snapshot per control epoch (which the allocation timeline of the Figure
6/8/9 style plots reads per function), utilisation samples, and
free-form counters (cold starts, drops, container operations).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.metrics.percentiles import WaitingTimeSummary, summarize_waiting_times
from repro.metrics.slo import SloReport, slo_report
from repro.metrics.table import COMPLETED, RequestTable
from repro.metrics.timeline import AllocationTimeline
from repro.metrics.utilization import UtilizationTracker
from repro.sim.request import Request, RequestStatus


@dataclass(frozen=True)
class FunctionEpochStats:
    """Per-function statistics captured at the end of one controller epoch."""

    function_name: str
    containers: int
    cpu: float
    desired_containers: int
    arrival_rate_estimate: float
    service_rate_estimate: float


@dataclass(frozen=True)
class EpochSnapshot:
    """Cluster-wide snapshot captured at the end of one controller epoch."""

    time: float
    overloaded: bool
    total_cpu: float
    allocated_cpu: float
    functions: Dict[str, FunctionEpochStats] = field(default_factory=dict)

    @property
    def utilization(self) -> float:
        """Allocated fraction of cluster CPU at this epoch."""
        return self.allocated_cpu / self.total_cpu if self.total_cpu else 0.0


class MetricsCollector:
    """Accumulates everything an experiment needs to report."""

    def __init__(self) -> None:
        """Start empty: no requests, epochs, utilisation samples or counters."""
        self._requests: List[Request] = []
        self._deferred_fill: Optional[Callable[[], List[Request]]] = None
        self._table: Optional[RequestTable] = None
        self.utilization = UtilizationTracker()
        self.epochs: List[EpochSnapshot] = []
        self.timeline = AllocationTimeline(self.epochs)
        self.counters: Counter = Counter()

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    @property
    def requests(self) -> List[Request]:
        """Every recorded request, materializing a deferred columnar list once.

        The columnar data plane registers a fill callback via
        :meth:`defer_requests` instead of appending per request; the
        first access reconstructs the full list (and drops the
        callback), so code that wants objects is oblivious to which
        data plane produced the run.  The analysis helpers below never
        come here on a finished run — they reduce :meth:`request_table`.
        """
        fill = self._deferred_fill
        if fill is not None:
            self._deferred_fill = None
            self._requests = fill()
        return self._requests

    @requests.setter
    def requests(self, value: List[Request]) -> None:
        """Replace the stored request list (drops any pending deferred fill and sealed table)."""
        self._deferred_fill = None
        self._table = None
        self._requests = value

    def defer_requests(self, fill: Callable[[], List[Request]], table: RequestTable) -> None:
        """Register a finished run's request table and a callback that rebuilds the objects.

        Used by the columnar kernel so the hot loop never appends request
        objects; any previously stored requests are superseded (the
        kernel's fill and table cover the whole run).  Analysis reads
        ``table``; ``fill`` only runs if somebody asks for
        :attr:`requests`.
        """
        self._requests = []
        self._deferred_fill = fill
        self._table = table

    def seal_requests(self) -> None:
        """Extract the request table of a finished run, once, for every later query.

        The runners call this where they hand back their result.  Until
        then (and again after any further :meth:`record_request`) every
        query extracts afresh, because a request going QUEUED → RUNNING →
        COMPLETED mutates its fields without telling the collector.
        """
        self._table = RequestTable.from_requests(self.requests)

    def request_table(self) -> RequestTable:
        """The table the analysis helpers reduce: the sealed one, or a fresh extraction."""
        table = self._table
        return table if table is not None else RequestTable.from_requests(self.requests)

    def record_request(self, request: Request) -> None:
        """Register a request (typically at arrival; its fields keep updating)."""
        # a columnar run's deferred objects, if any, are materialised first
        (self._requests if self._deferred_fill is None else self.requests).append(request)
        self._table = None
        self.counters["arrivals"] += 1

    def record_completion(self, request: Request) -> None:
        """Count one completed request (the request is already registered)."""
        self.counters["completions"] += 1
        if request.cold_start:
            self.counters["cold_starts"] += 1

    # -- columnar folds (epoch-granular, from the vectorized data plane) --
    def fold_arrivals(self, count: int) -> None:
        """Count ``count`` arrivals at once (columnar plane's batched fold)."""
        self.counters["arrivals"] += count

    def fold_completions_bulk(self, count: int, cold_starts: int) -> None:
        """Count a whole batch of completions at once (columnar plane's fold)."""
        self.counters["completions"] += count
        if cold_starts:
            self.counters["cold_starts"] += cold_starts

    def record_drop(self, count: int = 1) -> None:
        """Count dropped requests (terminated containers, failed nodes)."""
        self.counters["drops"] += count

    def increment(self, counter: str, count: int = 1) -> None:
        """Bump an arbitrary named counter (container ops, burst switches, ...)."""
        self.counters[counter] += count

    # ------------------------------------------------------------------
    # Epochs
    # ------------------------------------------------------------------
    def record_epoch(self, snapshot: EpochSnapshot) -> None:
        """Store an epoch snapshot (epochs must arrive in time order).

        The timeline is a view over :attr:`epochs` that looks a function
        up by its key in ``snapshot.functions``, so every key must be its
        record's ``function_name``.  The utilisation sample goes next
        because it is the call that validates the rest: an out-of-order
        or negative snapshot raises ``ValueError`` and leaves the
        collector as it was.
        """
        for name, stats in snapshot.functions.items():
            if name != stats.function_name:
                raise ValueError(
                    f"epoch snapshot files {stats.function_name!r} under {name!r}"
                )
        self.utilization.record(snapshot.time, snapshot.allocated_cpu, snapshot.total_cpu)
        self.epochs.append(snapshot)

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def completed_requests(self, function_name: Optional[str] = None) -> List[Request]:
        """All completed requests, optionally restricted to one function."""
        return [
            r
            for r in self.requests
            if r.status is RequestStatus.COMPLETED
            and (function_name is None or r.function_name == function_name)
        ]

    def dropped_requests(self, function_name: Optional[str] = None) -> List[Request]:
        """All dropped or timed-out requests."""
        return [
            r
            for r in self.requests
            if r.status in (RequestStatus.DROPPED, RequestStatus.TIMED_OUT)
            and (function_name is None or r.function_name == function_name)
        ]

    def waiting_summary(
        self, function_name: Optional[str] = None, warmup: float = 0.0
    ) -> WaitingTimeSummary:
        """Waiting-time percentiles for (a function's) completed requests, from the request table."""
        return summarize_waiting_times(self.request_table(), function_name, warmup)

    def slo(
        self,
        deadlines: Mapping[str, float],
        target_percentile: float = 0.95,
        warmup: float = 0.0,
    ) -> Dict[str, SloReport]:
        """SLO attainment per function."""
        return slo_report(self.request_table(), deadlines, target_percentile, warmup=warmup)

    def mean_utilization(self, start: float = 0.0, end: Optional[float] = None) -> float:
        """Time-weighted mean cluster utilisation."""
        return self.utilization.mean_utilization(start, end)

    def throughput(self, function_name: Optional[str] = None) -> int:
        """Number of completed requests."""
        table = self.request_table()
        return int(np.count_nonzero(table.rows_of(function_name) & (table.status == COMPLETED)))

    def summary(self, deadlines: Optional[Mapping[str, float]] = None) -> Dict[str, object]:
        """A compact dict summary of the whole run, used by examples and reports."""
        result: Dict[str, object] = {
            "arrivals": self.counters.get("arrivals", 0),
            "completions": self.counters.get("completions", 0),
            "drops": self.counters.get("drops", 0),
            "cold_starts": self.counters.get("cold_starts", 0),
            "epochs": len(self.epochs),
            "mean_utilization": self.mean_utilization(),
        }
        if deadlines:
            reports = self.slo(deadlines)
            result["slo"] = {name: report.attainment for name, report in reports.items()}
        return result


__all__ = ["MetricsCollector", "EpochSnapshot", "FunctionEpochStats"]
