"""Measurement: per-request records, percentiles, SLO accounting, utilisation.

The evaluation section of the paper reports three families of numbers,
all of which this package computes from the simulation:

* waiting-time percentiles per function (Figures 3 and 4),
* per-function allocation timelines and cluster utilisation under the
  two reclamation policies (Figures 6, 8, 9),
* SLO violation rates and container-operation churn,
* availability and recovery-time accounting for fault-injection runs
  (the Figure 10 recovery experiment).
"""

from repro.metrics.availability import AvailabilityTracker, RecoveryRecord
from repro.metrics.collector import MetricsCollector, EpochSnapshot, FunctionEpochStats
from repro.metrics.percentiles import percentile, summarize_waiting_times, WaitingTimeSummary
from repro.metrics.slo import SloReport, slo_report
from repro.metrics.streaming import ReservoirQuantiles
from repro.metrics.utilization import UtilizationTracker, time_weighted_mean
from repro.metrics.timeline import AllocationTimeline, TimelinePoint

__all__ = [
    "AvailabilityTracker",
    "RecoveryRecord",
    "MetricsCollector",
    "ReservoirQuantiles",
    "EpochSnapshot",
    "FunctionEpochStats",
    "percentile",
    "summarize_waiting_times",
    "WaitingTimeSummary",
    "SloReport",
    "slo_report",
    "UtilizationTracker",
    "time_weighted_mean",
    "AllocationTimeline",
    "TimelinePoint",
]
