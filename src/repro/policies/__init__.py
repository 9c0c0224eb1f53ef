"""Built-in control-plane policies, registered with the policy registry.

Importing this package registers every built-in policy (the registry in
:mod:`repro.core.policy` imports it lazily on first lookup):

========== ====================================================== ==============
policy     behaviour                                              paper role
========== ====================================================== ==============
``lass``   model-driven sizing + fair share + reclamation         the system
``openwhisk`` memory-only sharding-pool packing, scale/request    §6.6 baseline
``reactive`` Knative-style concurrency-target scaler              model-free ablation
``static`` fixed per-function allocation, no autoscaling          lower bound
``hybrid`` reactive scale-up with an M/M/c floor on scale-down    extension
``noop``   no control loop at all (Figures 3/4 fixed-allocation)  measurement atom
========== ====================================================== ==============
"""

from repro.core.controller import LassController
from repro.core.policy import PolicyContext, register_policy

# importing the submodules registers their factories
from repro.policies.hybrid import HybridPolicy, HybridPolicyConfig
from repro.policies.noop import NoOpPolicy
from repro.policies.openwhisk import OpenWhiskConfig, VanillaOpenWhiskController
from repro.policies.reactive import ConcurrencyAutoscaler, ReactiveControllerConfig
from repro.policies.static_allocation import StaticAllocationController


def _no_lass_params(params) -> None:
    """Eager params check: LaSS is configured via the ControllerSpec fields."""
    if params:
        raise ValueError(
            "policy 'lass' takes no policy_params — configure it through the "
            f"ControllerSpec/ControllerConfig fields; got {sorted(params)}"
        )


@register_policy(
    "lass",
    "the paper's control plane: model-driven sizing, fair share, reclamation",
    validate_params=_no_lass_params,
)
def _build_lass(context: PolicyContext, params) -> LassController:
    """Registry factory for the LaSS controller."""
    _no_lass_params(params)
    return LassController(
        engine=context.engine,
        cluster=context.cluster,
        config=context.config,
        scheduling_tree=context.scheduling_tree,
        metrics=context.metrics,
        service_profiles=dict(context.service_profiles),
        default_service_rates=dict(context.default_service_rates),
    )


__all__ = [
    "ConcurrencyAutoscaler",
    "HybridPolicy",
    "HybridPolicyConfig",
    "LassController",
    "NoOpPolicy",
    "OpenWhiskConfig",
    "ReactiveControllerConfig",
    "StaticAllocationController",
    "VanillaOpenWhiskController",
]
