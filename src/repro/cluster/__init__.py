"""Edge-cluster substrate.

This package models the execution environment of the paper's prototype:
worker nodes with fixed CPU/memory capacity, OS containers that host
serverless functions and can be created, terminated, and *deflated*
in place, a simplified per-node invoker that executes controller
commands, and the weighted-round-robin load balancer that LaSS uses on
its data path.

Everything is simulated (see DESIGN.md §4 for the substitution from the
paper's OpenWhisk/Docker testbed), but the accounting is real: a node
never hosts more CPU or memory than it has, deflation changes a
container's service rate, and container creation pays a cold-start
latency.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.cluster.container": ("Container", "ContainerState"),
    "repro.cluster.node": ("Node", "InsufficientCapacityError"),
    "repro.cluster.cluster": ("EdgeCluster", "ClusterConfig"),
    "repro.cluster.loadbalancer": ("WeightedRoundRobinBalancer",),
    "repro.cluster.invoker": ("Invoker", "InvokerCommand"),
})

__all__ = [
    "Container",
    "ContainerState",
    "Node",
    "InsufficientCapacityError",
    "EdgeCluster",
    "ClusterConfig",
    "WeightedRoundRobinBalancer",
    "Invoker",
    "InvokerCommand",
]
