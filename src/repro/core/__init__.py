"""LaSS core: the paper's primary contribution.

Sub-packages
------------
``queueing``
    M/M/c steady-state analysis, waiting-time percentile bounds, the
    heterogeneous-container upper bounds of Alves et al., and the
    iterative container-sizing procedure (Algorithm 1).
``estimation``
    Arrival-rate estimation (EWMA + dual sliding windows with burst
    detection) and service-time knowledge (offline profiles and online
    learning).
``allocation``
    The container allocation algorithm (§3.3), weighted fair-share
    allocation under overload (§4.1), the termination and deflation
    reclamation policies (§4.2), container placement, and the two-level
    user → function scheduling hierarchy.
``controller``
    The epoch loop tying everything together, equivalent to the LaSS
    module added to the OpenWhisk controller in the prototype (§5).
``policy``
    The :class:`ControlPolicy` contract + registry that make every
    controller — LaSS and the baselines under :mod:`repro.policies` —
    a pluggable control plane.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.controller": ("LassController", "ControllerConfig"),
    "repro.core.allocation.reclamation": ("ReclamationPolicy",),
    "repro.core.policy": (
        "ControlPolicy",
        "PolicyContext",
        "build_policy",
        "policy_names",
        "register_policy",
    ),
})

__all__ = [
    "LassController",
    "ControllerConfig",
    "ReclamationPolicy",
    "ControlPolicy",
    "PolicyContext",
    "build_policy",
    "policy_names",
    "register_policy",
]
