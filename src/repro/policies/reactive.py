"""Concurrency-targeted reactive autoscaler (Knative-style baseline).

This is the model-free alternative LaSS's queueing model is implicitly
compared against: instead of solving for the container count that meets
a waiting-time percentile, the reactive scaler keeps the observed
per-container concurrency near a target.  It reuses LaSS's data path
(WRR dispatch) but replaces the sizing model, which makes it a clean
ablation of the paper's "model-driven" contribution.

Registered as ``policy="reactive"``: under fault injection the salvaged
requests rejoin the shared queue (the base-class default) and the next
evaluation tick re-provisions toward the concurrency target — the
model-free analogue of LaSS's immediate reactive recovery pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import math

from repro.cluster.cluster import EdgeCluster
from repro.cluster.container import Container
from repro.core.dispatch import SharedQueueDispatcher
from repro.core.policy import (
    ControlPolicy,
    PolicyContext,
    config_from_params,
    register_policy,
)
from repro.metrics.collector import EpochSnapshot, FunctionEpochStats, MetricsCollector
from repro.sim.engine import SimulationEngine
from repro.sim.request import Request


@dataclass
class ReactiveControllerConfig:
    """Parameters of the concurrency autoscaler."""

    #: desired average in-flight requests per container
    target_concurrency: float = 1.0
    #: how often the scaler evaluates (seconds)
    evaluation_interval: float = 5.0
    #: smoothing factor for the observed concurrency
    smoothing: float = 0.6
    #: never exceed this many containers per function
    max_containers: int = 1000

    def __post_init__(self) -> None:
        """Validate the configuration parameters."""
        if self.target_concurrency <= 0:
            raise ValueError("target_concurrency must be positive")
        if self.evaluation_interval <= 0:
            raise ValueError("evaluation_interval must be positive")
        if not 0 < self.smoothing <= 1:
            raise ValueError("smoothing must be in (0, 1]")


class ConcurrencyAutoscaler(ControlPolicy):
    """Reactive controller: scale to ``ceil(concurrency / target)`` containers."""

    name = "reactive"

    def __init__(
        self,
        engine: SimulationEngine,
        cluster: EdgeCluster,
        config: Optional[ReactiveControllerConfig] = None,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        """Wire the autoscaler to the engine, cluster, and metrics sink."""
        self.engine = engine
        self.cluster = cluster
        self.config = config or ReactiveControllerConfig()
        self.metrics = metrics or MetricsCollector()
        self.dispatcher = SharedQueueDispatcher(engine, on_complete=self._on_request_complete)
        self.dispatcher.attach_cluster(cluster)
        self._smoothed_concurrency: Dict[str, float] = {}
        self._started = False
        cluster.on_container_warm(self._on_container_warm)

    def start(self) -> None:
        """Begin the periodic evaluation loop."""
        if self._started:
            return
        self._started = True
        self.engine.schedule(
            self.config.evaluation_interval, self._evaluate,
            priority=SimulationEngine.PRIORITY_CONTROL,
        )

    # ------------------------------------------------------------------
    # Data path (same WRR dispatch as LaSS)
    # ------------------------------------------------------------------
    def dispatch(self, request: Request) -> None:
        """Route a request to an idle container or queue it; cold-start the first container."""
        self.metrics.record_request(request)
        started = self.dispatcher.submit(request)
        if not started and not self.cluster.containers_of(request.function_name):
            self._create(request.function_name, 1)

    def _on_container_warm(self, container: Container) -> None:
        """A container finished cold start: drain queued requests onto it."""
        self.dispatcher.drain(container.function_name)

    def _on_request_complete(self, request: Request, container: Container) -> None:
        """Completion callback: record the completion in the metrics."""
        self.metrics.record_completion(request)

    def columnar_plan(self):
        """The reactive data path, described for the columnar kernel.

        Mirrors :meth:`dispatch`: no per-arrival estimator state, create
        one container when a request queues against an empty function,
        completions are pure metrics.
        """
        from repro.sim.columnar import ColumnarPlan

        def create_on_empty(name: str) -> None:
            """Bootstrap one container for a function that has none."""
            self._create(name, 1)

        return ColumnarPlan(
            dispatcher=self.dispatcher,
            collector=self.metrics,
            create_on_empty=create_on_empty,
        )

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def run_epoch(self) -> None:
        """One synchronous evaluation pass (the policy-contract entry point)."""
        self._evaluate_once()

    def _evaluate(self) -> None:
        """Periodic tick: evaluate, then reschedule the next tick."""
        self._timed_epoch()
        self.engine.schedule(
            self.config.evaluation_interval, self._evaluate,
            priority=SimulationEngine.PRIORITY_CONTROL,
        )

    def _evaluate_once(self) -> None:
        """One evaluation step: compare observed concurrency to the target and scale."""
        for deployment in self.cluster.deployments:
            name = deployment.name
            live = self.cluster.containers_of(name, include_draining=False)
            in_flight = sum(c.in_flight for c in live) + self.dispatcher.queue_length(name)
            previous = self._smoothed_concurrency.get(name, float(in_flight))
            smoothed = (
                self.config.smoothing * in_flight + (1 - self.config.smoothing) * previous
            )
            self._smoothed_concurrency[name] = smoothed
            desired = min(
                self.config.max_containers,
                max(0, math.ceil(smoothed / self.config.target_concurrency)),
            )
            if desired > len(live):
                self._create(name, desired - len(live))
            elif desired < len(live):
                victims = sorted(live, key=lambda c: c.in_flight)[: len(live) - desired]
                for victim in victims:
                    if victim.in_flight == 0:
                        self.cluster.terminate_container(victim.container_id)
                        self.metrics.increment("terminations")
        self._snapshot()

    def _create(self, name: str, count: int) -> None:
        """Create up to ``count`` new containers, capacity permitting."""
        deployment = self.cluster.deployment(name)
        for _ in range(count):
            node = self.cluster.find_node_for(deployment.cpu, deployment.memory_mb)
            if node is None:
                return
            self.cluster.create_container(name, node=node)
            self.metrics.increment("creations")

    def _snapshot(self) -> None:
        """Record a per-function epoch snapshot for the timeline metrics."""
        functions: Dict[str, FunctionEpochStats] = {}
        for deployment in self.cluster.deployments:
            live = self.cluster.containers_of(deployment.name)
            functions[deployment.name] = FunctionEpochStats(
                function_name=deployment.name,
                containers=len(live),
                cpu=sum(c.current_cpu for c in live),
                desired_containers=len(live),
                arrival_rate_estimate=self._smoothed_concurrency.get(deployment.name, 0.0),
                service_rate_estimate=0.0,
            )
        self.metrics.record_epoch(
            EpochSnapshot(
                time=self.engine.now,
                overloaded=False,
                total_cpu=self.cluster.total_cpu,
                allocated_cpu=self.cluster.cpu_allocated,
                functions=functions,
            )
        )


def _validate_reactive_params(params) -> None:
    """Eager params check: must construct a valid config."""
    config_from_params(ReactiveControllerConfig, "reactive", params)


@register_policy(
    "reactive",
    "Knative-style reactive scaler: track a per-container concurrency target",
    validate_params=_validate_reactive_params,
)
def _build_reactive(context: PolicyContext, params: Dict[str, Any]) -> ConcurrencyAutoscaler:
    """Registry factory for the reactive concurrency autoscaler."""
    return ConcurrencyAutoscaler(
        engine=context.engine, cluster=context.cluster,
        config=config_from_params(ReactiveControllerConfig, "reactive", params),
        metrics=context.metrics,
    )


__all__ = ["ConcurrencyAutoscaler", "ReactiveControllerConfig"]
