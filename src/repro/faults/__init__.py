"""Fault injection: deterministic node churn, container crashes, cold-start jitter.

The specs (:class:`FaultSpec` and friends) are plain serialisable data
carried on a :class:`~repro.scenarios.spec.ScenarioSpec`; the
:class:`FaultInjector` arms them against a live simulation stack.  See
:mod:`repro.faults.spec` for the failure semantics and the determinism
contract.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.faults.injector": ("FaultInjector",),
    "repro.faults.spec": (
        "ColdStartSpec",
        "FaultSpec",
        "NodeFailureSpec",
        "SiteBlackoutSpec",
        "WanPartitionSpec",
        "node_outage",
        "site_blackout",
        "wan_partition",
    ),
})

__all__ = [
    "ColdStartSpec",
    "FaultInjector",
    "FaultSpec",
    "NodeFailureSpec",
    "SiteBlackoutSpec",
    "WanPartitionSpec",
    "node_outage",
    "site_blackout",
    "wan_partition",
]
