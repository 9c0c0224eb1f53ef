"""Vanilla OpenWhisk baseline: the sharding-pool load balancer (paper §6.6).

The paper explains the failure mode it observed when running the
two-function overload experiment on unmodified OpenWhisk:

* the sharding-pool load balancer tries to keep different functions on
  different invoker nodes (a "home" invoker per function) to maximise
  container reuse and isolation;
* containers are packed onto invokers based on their *memory*
  requirement only — CPU is ignored;
* when the MobileNet workload starts, its home invoker is quickly
  over-packed with 2-vCPU containers, CPU-overcommitted, and becomes
  unresponsive;
* the controller then shifts the whole workload to the next invoker,
  which suffers the same fate, until every invoker has failed —
  a cascading failure.

This module reproduces that behaviour: scale-per-request concurrency
autoscaling (a new container whenever no idle one exists, limited only
by memory), home-invoker placement, CPU-oblivious packing, and a node
model in which CPU overcommitment beyond a threshold makes the node
unresponsive (its containers stop making progress and it stops
accepting new containers).

Since the unified policy refactor the controller is a registered
:class:`~repro.core.policy.ControlPolicy` (``policy="openwhisk"``): it
runs through the standard :class:`~repro.simulation.SimulationRunner`,
participates in fault-injected scenarios (node failures park the
salvaged requests until capacity reappears; crash-on-dispatch is
intercepted at the single submission choke point), and contributes the
``"openwhisk"`` results group — invoker failures and request drops — to
the scenario envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import EdgeCluster
from repro.cluster.container import Container, ContainerState
from repro.cluster.node import Node
from repro.core.policy import (
    ControlPolicy,
    PolicyContext,
    config_from_params,
    register_policy,
)
from repro.metrics.collector import EpochSnapshot, FunctionEpochStats, MetricsCollector
from repro.sim.engine import SimulationEngine
from repro.sim.request import Request, RequestStatus

_WARM, _DRAINING = ContainerState.WARM, ContainerState.DRAINING
_DROPPED = RequestStatus.DROPPED


@dataclass
class OpenWhiskConfig:
    """Parameters of the vanilla-OpenWhisk baseline.

    Attributes
    ----------
    overcommit_failure_factor:
        A node becomes unresponsive once the sum of its containers'
        standard CPU allocations exceeds this multiple of its CPU
        capacity.  The paper's invokers fell over once over-packed with
        MobileNet containers; 1.5 reproduces that promptly on 4-core
        nodes.
    max_concurrency_per_container:
        OpenWhisk runs one activation per container at a time.
    snapshot_interval:
        How often to record utilisation / allocation snapshots.
    """

    overcommit_failure_factor: float = 1.5
    max_concurrency_per_container: int = 1
    snapshot_interval: float = 10.0


class VanillaOpenWhiskController(ControlPolicy):
    """The baseline control plane (data path + naive scaling), no fair share.

    The public surface conforms to :class:`~repro.core.policy.ControlPolicy`
    (``dispatch``, ``start``, fault hooks, a metrics collector) so the
    simulation runner, scenario executor, and fault injector treat it
    exactly like :class:`~repro.core.controller.LassController`.
    """

    name = "openwhisk"

    def __init__(
        self,
        engine: SimulationEngine,
        cluster: EdgeCluster,
        config: Optional[OpenWhiskConfig] = None,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        """Wire the baseline controller to the engine, cluster, and metrics sink."""
        self.engine = engine
        self.cluster = cluster
        self.config = config or OpenWhiskConfig()
        self.metrics = metrics or MetricsCollector()
        self._home_invoker: Dict[str, int] = {}
        self._pending: Dict[str, List[Request]] = {}
        self._started = False
        #: crash-on-dispatch hook installed by the fault injector (see
        #: :meth:`set_dispatch_interceptor`); ``None`` on healthy runs
        self.interceptor: Optional[Callable[[Request, Container], bool]] = None
        cluster.on_container_warm(self._on_container_warm)
        for index, deployment in enumerate(cluster.deployments):
            self._home_invoker[deployment.name] = index % len(cluster.nodes)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic snapshotting (the baseline has no control epoch)."""
        if self._started:
            return
        self._started = True
        self.engine.schedule(
            self.config.snapshot_interval, self._snapshot_tick,
            priority=SimulationEngine.PRIORITY_CONTROL,
        )

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def _submit_to(self, container: Container, request: Request) -> bool:
        """Hand one request to one container — the submission choke point.

        Every dispatch goes through here so the fault injector's
        crash-on-dispatch interceptor sees each one exactly once.
        Returns ``False`` when the interceptor reports a crash (it has
        already disposed of the request and evicted the container).
        """
        interceptor = self.interceptor
        if interceptor is not None and not interceptor(request, container):
            return False
        container.submit(request, self.engine, self._on_request_complete)
        return True

    def set_dispatch_interceptor(
        self, interceptor: Callable[[Request, Container], bool]
    ) -> None:
        """Install the crash-on-dispatch interceptor at the choke point."""
        self.interceptor = interceptor

    def dispatch(self, request: Request) -> None:
        """Handle one arriving invocation the way vanilla OpenWhisk would."""
        self.metrics.record_request(request)
        name = request.function_name
        self._check_node_health()
        if self.all_invokers_failed:
            # the §6.6 end state: no invoker is responsive and none recovers,
            # so no idle container, creation or queue could take the request
            self._strand(name, request)
            return

        container = self._find_idle_container(name)
        if container is not None:
            self._submit_to(container, request)
            return

        # no idle container: try to create one on the home invoker chain
        created = self._create_container(name)
        if created is not None:
            self._submit_to(created, request)
            return

        # no capacity anywhere: queue on the least-loaded responsive container
        candidates = [
            c for c in self.cluster.containers_of(name)
            if c.is_available and not self._node_unresponsive(c)
        ]
        if candidates:
            target = min(candidates, key=lambda c: c.in_flight)
            self._submit_to(target, request)
        else:
            # every invoker hosting this function has failed: the request is lost
            self._strand(name, request)

    def _strand(self, name: str, request: Request) -> None:
        """Park a request no responsive invoker can take; it is counted as stranded."""
        self._pending.setdefault(name, []).append(request)
        request.mark_queued()
        self.metrics.increment("stranded_requests")

    def _find_idle_container(self, name: str) -> Optional[Container]:
        """First available warm container of the function with no in-flight work."""
        for container in self.cluster.containers_of(name):
            if not container.is_available or container.in_flight > 0:
                continue
            node = self._node_of(container)
            if node is not None and node.unresponsive:
                continue
            return container
        return None

    def _create_container(self, name: str) -> Optional[Container]:
        """Memory-only packing starting from the function's home invoker."""
        nodes = self.cluster.nodes
        if not nodes:
            return None
        start = self._home_invoker.get(name, 0)
        deployment = self.cluster.deployment(name)
        for offset in range(len(nodes)):
            node = nodes[(start + offset) % len(nodes)]
            if not node.available:
                # unresponsive (§6.6 cascade) or failed (injected outage)
                continue
            if deployment.memory_mb <= node.memory_free_mb + 1e-9:
                # CPU is deliberately ignored (enforce_cpu=False): this is the
                # over-packing behaviour that triggers the cascade.
                container = self.cluster.create_container(
                    name, node=node, enforce_cpu=False
                )
                self.metrics.increment("creations")
                return container
        return None

    def _on_container_warm(self, container: Container) -> None:
        """A container finished cold start: serve its function's pending requests."""
        container.on_warm_start(self.engine, self._on_request_complete)
        pending = self._pending.get(container.function_name)
        if pending:
            node = self._node_of(container)
            if node is not None and not node.unresponsive:
                while pending and container.in_flight < self.config.max_concurrency_per_container:
                    request = pending.pop(0)
                    # the request was parked in QUEUED state; submit accepts
                    # it as-is.  Routed through the choke point so the
                    # crash-on-dispatch interceptor sees parked re-dispatches
                    # exactly like fresh ones.
                    if not self._submit_to(container, request):
                        break  # the container crashed on dispatch; it is gone

    def _on_request_complete(self, request: Request, container: Container) -> None:
        """Completion callback: count the completion unless the node already failed."""
        node = self._node_of(container)
        if node is not None and node.unresponsive:
            # completions on a failed node do not count: the invoker never
            # reports them back, so the record says dropped, like the counter
            request.status = _DROPPED
            self.metrics.record_drop()
            return
        self.metrics.record_completion(request)

    # ------------------------------------------------------------------
    # Failure model
    # ------------------------------------------------------------------
    def _check_node_health(self) -> None:
        """Mark CPU-overcommitted nodes unresponsive and stall their work."""
        factor = self.config.overcommit_failure_factor
        for node in self.cluster.nodes:
            if node.unresponsive:
                continue
            standard_cpu = sum(c.standard_cpu for c in node.containers)
            if standard_cpu > factor * node.cpu_capacity + 1e-9:
                node.unresponsive = True
                self.metrics.increment("invoker_failures")
                # containers on a dead invoker stop making progress
                for container in node.containers:
                    if container.state is _WARM or container.state is _DRAINING:
                        for dropped in container.terminate(self.engine.now):
                            self.metrics.record_drop()

    def failed_nodes(self) -> List[str]:
        """Names of invokers that have become unresponsive."""
        return [n.name for n in self.cluster.nodes if n.unresponsive]

    @property
    def all_invokers_failed(self) -> bool:
        """The cascading-failure end state of §6.6."""
        return all(n.unresponsive for n in self.cluster.nodes)

    def _node_of(self, container: Container) -> Optional[Node]:
        """The node hosting a container (``None`` if it is gone)."""
        return container.host

    def _node_unresponsive(self, container: Container) -> bool:
        """Whether the container's hosting node is gone or unresponsive."""
        node = self._node_of(container)
        return node is None or node.unresponsive

    # ------------------------------------------------------------------
    # Fault hooks (injected node failures, distinct from the §6.6 cascade)
    # ------------------------------------------------------------------
    def _requeue_salvaged(self, salvaged: Sequence[Request]) -> None:
        """Park rescued queued requests (an outage, a crash, a site rejoining).

        Vanilla OpenWhisk has no reactive re-provisioning loop — the
        rescued requests wait in the pending lists until a container of
        their function warms up (which the next arrival's
        scale-per-request creation triggers).
        """
        for request in salvaged:
            self._pending.setdefault(request.function_name, []).append(request)

    def on_node_recovered(self, node_name: str) -> None:
        """An injected outage ended: capacity is back; nothing proactive to do."""

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def results_extra(self) -> Tuple[str, Dict[str, Any]]:
        """The ``"openwhisk"`` results group: invoker failures and drops."""
        counters = self.metrics.counters
        return (
            "openwhisk",
            {
                "failed_invokers": len(self.failed_nodes()),
                "all_invokers_failed": self.all_invokers_failed,
                "completions": counters.get("completions", 0),
                "arrivals": counters.get("arrivals", 0),
                "drops": counters.get("drops", 0) + counters.get("stranded_requests", 0),
            },
        )

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def _snapshot_tick(self) -> None:
        """Periodic tick: check node health and record a per-function epoch snapshot."""
        self._check_node_health()
        functions: Dict[str, FunctionEpochStats] = {}
        for deployment in self.cluster.deployments:
            live = self.cluster.containers_of(deployment.name)
            functions[deployment.name] = FunctionEpochStats(
                function_name=deployment.name,
                containers=len(live),
                cpu=sum(c.current_cpu for c in live),
                desired_containers=len(live),
                arrival_rate_estimate=0.0,
                service_rate_estimate=0.0,
            )
        self.metrics.record_epoch(
            EpochSnapshot(
                time=self.engine.now,
                overloaded=any(n.cpu_overcommitted for n in self.cluster.nodes),
                total_cpu=self.cluster.total_cpu,
                allocated_cpu=min(self.cluster.cpu_allocated, self.cluster.total_cpu),
                functions=functions,
            )
        )
        self.engine.schedule(
            self.config.snapshot_interval, self._snapshot_tick,
            priority=SimulationEngine.PRIORITY_CONTROL,
        )


def _validate_openwhisk_params(params) -> None:
    """Eager params check: must construct a valid config."""
    config_from_params(OpenWhiskConfig, "openwhisk", params)


@register_policy(
    "openwhisk",
    "vanilla OpenWhisk: memory-only sharding-pool packing, scale per request",
    validate_params=_validate_openwhisk_params,
)
def _build_openwhisk(context: PolicyContext, params: Dict[str, Any]) -> VanillaOpenWhiskController:
    """Registry factory for the vanilla-OpenWhisk policy."""
    return VanillaOpenWhiskController(
        engine=context.engine, cluster=context.cluster,
        config=config_from_params(OpenWhiskConfig, "openwhisk", params),
        metrics=context.metrics,
    )


__all__ = ["VanillaOpenWhiskController", "OpenWhiskConfig"]
