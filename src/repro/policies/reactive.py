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
from repro.core.dispatch import SharedQueuePolicy
from repro.core.policy import PolicyContext, config_from_params, register_policy
from repro.metrics.collector import FunctionEpochStats, MetricsCollector
from repro.sim.engine import SimulationEngine


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


class ConcurrencyAutoscaler(SharedQueuePolicy):
    """Reactive controller: scale to ``ceil(concurrency / target)`` containers."""

    name = "reactive"
    creates_on_empty = True

    def __init__(
        self,
        engine: SimulationEngine,
        cluster: EdgeCluster,
        config: Optional[ReactiveControllerConfig] = None,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        """Wire the autoscaler to the engine, cluster, and metrics sink."""
        super().__init__(engine, cluster, metrics)
        self.config = config or ReactiveControllerConfig()
        self._smoothed_concurrency: Dict[str, float] = {}
        self._started = False

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
        self._record_epoch(functions)


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
