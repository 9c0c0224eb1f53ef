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

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.metrics.availability": ("AvailabilityTracker", "RecoveryRecord"),
    "repro.metrics.collector": (
        "MetricsCollector",
        "EpochSnapshot",
        "FunctionEpochStats",
    ),
    "repro.metrics.percentiles": (
        "percentile",
        "summarize_waiting_times",
        "WaitingTimeSummary",
    ),
    "repro.metrics.slo": ("SloReport", "slo_report"),
    "repro.metrics.streaming": ("ReservoirQuantiles",),
    "repro.metrics.utilization": ("UtilizationTracker", "time_weighted_mean"),
    "repro.metrics.timeline": ("AllocationTimeline", "TimelinePoint"),
})

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
