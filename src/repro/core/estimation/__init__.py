"""Workload and service-time estimation (paper §3.3 and §5).

* :mod:`repro.core.estimation.ewma` — exponentially weighted moving
  average of per-epoch arrival rates, weighted towards the most recent
  epoch as the paper prescribes.
* :mod:`repro.core.estimation.sliding_window` — the prototype's
  Knative-inspired dual-window estimator: a 2-minute long window and a
  10-second short window sampled every 5 seconds; the short window is
  used whenever it detects a burst (short-window rate at least twice the
  long-window rate).
* :mod:`repro.core.estimation.service_time` — per-function service-time
  knowledge: offline profiles (mean service time per container size)
  and an online estimator that learns the means from completed
  requests.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.estimation.ewma": ("EwmaEstimator",),
    "repro.core.estimation.sliding_window": (
        "DualWindowRateEstimator",
        "SlidingWindowCounter",
    ),
    "repro.core.estimation.service_time": (
        "OnlineServiceTimeEstimator",
        "ServiceTimeProfile",
    ),
})

__all__ = [
    "EwmaEstimator",
    "DualWindowRateEstimator",
    "SlidingWindowCounter",
    "ServiceTimeProfile",
    "OnlineServiceTimeEstimator",
]
