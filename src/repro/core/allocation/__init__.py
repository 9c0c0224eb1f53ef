"""Resource allocation: model-driven autoscaling, fair share, reclamation.

* :mod:`repro.core.allocation.fair_share` — the weighted fair-share
  allocation of §4.1 (guaranteed shares, well-behaved vs. overloaded
  functions, Lemmas 1 and 2), in both discrete container units and
  continuous CPU units.
* :mod:`repro.core.allocation.hierarchy` — the two-level user → function
  scheduling tree from the prototype (§5), generalised to arbitrary
  depth.
* :mod:`repro.core.allocation.reclamation` — the termination and
  deflation reclamation policies of §4.2, expressed as pure planners
  that turn (current containers, target allocations) into an action
  list.
* :mod:`repro.core.allocation.placement` — node selection for new
  containers.
* :mod:`repro.core.allocation.autoscaler` — the per-function desired
  allocation computation of §3.3 combining the rate estimate, the
  service-time knowledge, and the queueing models.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.allocation.fair_share": (
        "FairShareResult",
        "fair_share_allocation",
        "guaranteed_shares",
        "progressive_filling",
    ),
    "repro.core.allocation.hierarchy": ("SchedulingNode", "SchedulingTree"),
    "repro.core.allocation.reclamation": (
        "CreateAction",
        "DeflateAction",
        "DeflationPolicy",
        "InflateAction",
        "ReclamationPlan",
        "TerminateAction",
        "TerminationPolicy",
    ),
    "repro.core.allocation.placement": (
        "best_fit",
        "plan_placements",
    ),
    "repro.core.allocation.autoscaler": ("Autoscaler", "ScalingDecision"),
})

__all__ = [
    "FairShareResult",
    "fair_share_allocation",
    "guaranteed_shares",
    "progressive_filling",
    "SchedulingNode",
    "SchedulingTree",
    "ReclamationPlan",
    "TerminationPolicy",
    "DeflationPolicy",
    "TerminateAction",
    "DeflateAction",
    "InflateAction",
    "CreateAction",
    "best_fit",
    "plan_placements",
    "Autoscaler",
    "ScalingDecision",
]
