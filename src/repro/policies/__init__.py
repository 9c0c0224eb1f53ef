"""Built-in control-plane policies, registered with the policy registry.

Importing this package registers the built-in policies besides ``lass``
(the registry in :mod:`repro.core.policy` registers that one itself and
imports this package on the first lookup of a name it lacks):

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

# importing the submodules registers their factories (``lass`` is
# registered by repro.core.policy itself)
from repro.policies.hybrid import HybridPolicy, HybridPolicyConfig
from repro.policies.noop import NoOpPolicy
from repro.policies.openwhisk import OpenWhiskConfig, VanillaOpenWhiskController
from repro.policies.reactive import ConcurrencyAutoscaler, ReactiveControllerConfig
from repro.policies.static_allocation import StaticAllocationController

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
