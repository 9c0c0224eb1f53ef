"""repro — a reproduction of LaSS (HPDC 2021) as a Python library.

LaSS (Latency-sensitive Serverless) is a control plane for running
latency-sensitive serverless functions on resource-constrained edge
clusters.  This package reimplements the full system described in the
paper — queueing-model container sizing, model-driven autoscaling,
weighted fair-share allocation under overload, and termination/deflation
resource reclamation — on top of a discrete-event simulation of an edge
cluster, together with the workloads, baselines, and experiment
harnesses needed to regenerate every table and figure of the paper's
evaluation.

Quickstart
----------
>>> from repro import SimulationRunner, ClusterConfig, ControllerConfig
>>> from repro.workloads import WorkloadBinding, StaticRate, get_function
>>> runner = SimulationRunner(
...     workloads=[WorkloadBinding(get_function("squeezenet"), StaticRate(20, duration=60))],
...     cluster_config=ClusterConfig(),
...     seed=7,
... )
>>> result = runner.run(duration=60)
>>> result.waiting_summary("squeezenet").count > 0
True
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.cluster.cluster": ("ClusterConfig", "EdgeCluster", "FunctionDeployment"),
    "repro.core.controller": ("ControllerConfig", "LassController"),
    "repro.core.allocation.reclamation": ("ReclamationPolicy",),
    "repro.core.policy": (
        "ControlPolicy",
        "PolicyContext",
        "build_policy",
        "policy_names",
        "register_policy",
    ),
    "repro.simulation": ("SimulationResult", "SimulationRunner", "run_fixed_allocation"),
})

__version__ = "1.1.0"

__all__ = [
    "ClusterConfig",
    "EdgeCluster",
    "FunctionDeployment",
    "ControllerConfig",
    "LassController",
    "ReclamationPolicy",
    "ControlPolicy",
    "PolicyContext",
    "build_policy",
    "policy_names",
    "register_policy",
    "SimulationRunner",
    "SimulationResult",
    "run_fixed_allocation",
    "__version__",
]
