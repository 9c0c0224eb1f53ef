"""Static allocation baseline: fixed containers per function, no autoscaling.

Useful as the lower bound in ablation benchmarks: it shows what happens
when capacity is provisioned once (e.g. for the mean load) and the
workload then fluctuates — exactly the situation the paper's
model-driven autoscaler exists to avoid.

Registered as ``policy="static"`` (``policy_params`` must carry the
``allocations`` mapping).  Under fault injection the salvaged requests
rejoin the shared queue and the controller recreates containers toward
its fixed allocation — a statically-provisioned operator would restore
the provisioned capacity, just without any model guiding the count.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence

from repro.cluster.cluster import EdgeCluster
from repro.cluster.container import Container
from repro.core.dispatch import SharedQueuePolicy
from repro.core.policy import PolicyContext, register_policy
from repro.metrics.collector import FunctionEpochStats, MetricsCollector
from repro.sim.engine import SimulationEngine
from repro.sim.request import Request


class StaticAllocationController(SharedQueuePolicy):
    """Dispatches with WRR over a fixed, pre-created container allocation.

    Parameters
    ----------
    allocations:
        Function name → number of standard containers to create at start-up.
    """

    name = "static"

    def __init__(
        self,
        engine: SimulationEngine,
        cluster: EdgeCluster,
        allocations: Mapping[str, int],
        metrics: Optional[MetricsCollector] = None,
        snapshot_interval: float = 10.0,
    ) -> None:
        """Wire the controller to the engine, cluster, and metrics sink."""
        self.allocations = {name: int(count) for name, count in allocations.items()}
        if any(count < 0 for count in self.allocations.values()):
            raise ValueError("allocations must be non-negative")
        super().__init__(engine, cluster, metrics)
        self.snapshot_interval = float(snapshot_interval)
        self._started = False

    def start(self) -> None:
        """Create the fixed allocation and begin periodic snapshotting."""
        if self._started:
            return
        self._started = True
        for name, count in self.allocations.items():
            for _ in range(count):
                self.cluster.create_container(name)
                self.metrics.increment("creations")
        self.engine.schedule(
            self.snapshot_interval, self._snapshot_tick,
            priority=SimulationEngine.PRIORITY_CONTROL,
        )

    # ------------------------------------------------------------------
    # Fault hooks: restore the provisioned allocation
    # ------------------------------------------------------------------
    def _restore_allocation(self) -> None:
        """Recreate containers lost to faults, up to the fixed allocation."""
        for name, count in self.allocations.items():
            missing = count - len(self.cluster.containers_of(name))
            if missing > 0:
                self._create(name, missing)

    def on_node_failed(self, node_name: str, salvaged: Sequence[Request]) -> None:
        """Requeue the salvaged requests and re-provision toward the allocation."""
        self._requeue_salvaged(salvaged)
        self._restore_allocation()

    def on_node_recovered(self, node_name: str) -> None:
        """Capacity is back: recreate any containers that would not fit before."""
        self._restore_allocation()

    def on_container_crashed(self, container: Container,
                             salvaged: Sequence[Request]) -> None:
        """Requeue the salvaged requests and replace the crashed container."""
        self._requeue_salvaged(salvaged)
        self._restore_allocation()

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def _snapshot_tick(self) -> None:
        """Record a per-function epoch snapshot for the timeline metrics."""
        functions: Dict[str, FunctionEpochStats] = {}
        for deployment in self.cluster.deployments:
            live = self.cluster.containers_of(deployment.name)
            functions[deployment.name] = FunctionEpochStats(
                function_name=deployment.name,
                containers=len(live),
                cpu=sum(c.current_cpu for c in live),
                desired_containers=self.allocations.get(deployment.name, 0),
                arrival_rate_estimate=0.0,
                service_rate_estimate=0.0,
            )
        self._record_epoch(functions)
        self.engine.schedule(
            self.snapshot_interval, self._snapshot_tick,
            priority=SimulationEngine.PRIORITY_CONTROL,
        )


def _validate_static_params(params: Mapping[str, Any]) -> None:
    """Eager params check: the static policy needs an ``allocations`` mapping."""
    allocations = params.get("allocations")
    if not isinstance(allocations, Mapping) or not allocations:
        raise ValueError(
            "policy 'static' requires policy_params={'allocations': {function: count}}"
        )
    for name, count in allocations.items():
        integral = (isinstance(count, (int, float)) and not isinstance(count, bool)
                    and float(count) == int(count))
        if not isinstance(name, str) or not integral or count < 0:
            raise ValueError(f"invalid static allocation {name!r}: {count!r}")
    unknown = set(params) - {"allocations", "snapshot_interval"}
    if unknown:
        raise ValueError(f"invalid static policy_params: {sorted(unknown)}")


@register_policy(
    "static",
    "fixed per-function container allocation, no autoscaling",
    validate_params=_validate_static_params,
)
def _build_static(context: PolicyContext, params: Dict[str, Any]) -> StaticAllocationController:
    """Registry factory for the static-allocation policy."""
    _validate_static_params(params)
    return StaticAllocationController(
        engine=context.engine, cluster=context.cluster,
        allocations=dict(params["allocations"]), metrics=context.metrics,
        snapshot_interval=float(params.get("snapshot_interval", 10.0)),
    )


__all__ = ["StaticAllocationController"]
