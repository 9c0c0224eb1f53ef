"""Hybrid model-guided reactive scaler: the registry's extensibility proof.

Neither of the paper's comparison points is quite how production
autoscalers behave: LaSS is purely model-driven (epoch-cadence queueing
solves), the Knative-style baseline purely reactive (track observed
concurrency, no model).  :class:`HybridPolicy` combines them:

* **scale-up is reactive** — every evaluation tick it compares the
  smoothed per-container concurrency to a target, exactly like the
  reactive baseline, so bursts are answered within one tick;
* **scale-down is model-guided** — the M/M/c sizing model (the same
  memoized solver LaSS uses, via
  :class:`~repro.core.allocation.autoscaler.Autoscaler`) computes the
  minimum allocation that still meets the SLO percentile at the current
  estimated arrival rate, and the policy never shrinks below it; a
  patience counter additionally requires several consecutive
  shrink-wanting ticks before any container is released.

The model acts as a *floor*, not a setpoint: the policy reacts like
Knative but cannot be baited into releasing SLO-critical capacity by a
momentary lull — the failure mode the purely reactive baseline exhibits
on staircase workloads.

This policy is deliberately implemented *outside* the core package,
using only the public registry API (:func:`repro.core.policy.register_policy`),
the shared dispatcher, and the public autoscaler — the shape of a
third-party policy contribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.cluster.cluster import EdgeCluster
from repro.cluster.container import Container
from repro.core.allocation.autoscaler import Autoscaler
from repro.core.dispatch import SharedQueueDispatcher
from repro.core.estimation.service_time import ServiceTimeProfile
from repro.core.estimation.sliding_window import DualWindowRateEstimator
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
class HybridPolicyConfig:
    """Parameters of the hybrid model-guided reactive scaler."""

    #: desired average in-flight requests per container (reactive half)
    target_concurrency: float = 1.0
    #: how often the scaler evaluates (seconds)
    evaluation_interval: float = 5.0
    #: smoothing factor for the observed concurrency
    smoothing: float = 0.6
    #: SLO percentile the model floor is solved for
    percentile: float = 0.95
    #: rate-estimation windows (model half), mirroring the LaSS defaults
    long_window: float = 120.0
    short_window: float = 10.0
    burst_factor: float = 2.0
    #: consecutive shrink-wanting ticks required before scaling down
    scale_down_patience: int = 3
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
        if not 0 < self.percentile < 1:
            raise ValueError("percentile must be in (0, 1)")
        if self.scale_down_patience < 1:
            raise ValueError("scale_down_patience must be >= 1")


class HybridPolicy(ControlPolicy):
    """Reactive scale-up, model-floored scale-down (see the module docstring)."""

    name = "hybrid"

    def __init__(
        self,
        engine: SimulationEngine,
        cluster: EdgeCluster,
        config: Optional[HybridPolicyConfig] = None,
        metrics: Optional[MetricsCollector] = None,
        service_profiles: Optional[Mapping[str, ServiceTimeProfile]] = None,
        default_service_rates: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Wire the data path and the per-function estimators."""
        self.engine = engine
        self.cluster = cluster
        self.config = config or HybridPolicyConfig()
        self.metrics = metrics or MetricsCollector()
        self.dispatcher = SharedQueueDispatcher(engine, on_complete=self._on_request_complete)
        self.dispatcher.attach_cluster(cluster)
        self.autoscaler = Autoscaler(percentile=self.config.percentile)
        self._profiles = dict(service_profiles or {})
        self._default_rates = dict(default_service_rates or {})
        self._rates: Dict[str, DualWindowRateEstimator] = {}
        self._smoothed_concurrency: Dict[str, float] = {}
        self._shrink_streak: Dict[str, int] = {}
        self._started = False
        cluster.on_container_warm(self._on_container_warm)
        for deployment in cluster.deployments:
            self._rates[deployment.name] = DualWindowRateEstimator(
                self.config.long_window, self.config.short_window,
                self.config.burst_factor,
            )

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
    # Data path
    # ------------------------------------------------------------------
    def dispatch(self, request: Request) -> None:
        """Record the arrival (rate window + metrics) and dispatch/queue it."""
        estimator = self._rates.get(request.function_name)
        if estimator is not None:
            estimator.record_arrival(request.arrival_time)
        self.metrics.record_request(request)
        started = self.dispatcher.submit(request)
        if not started and not self.cluster.has_containers(request.function_name):
            self._create(request.function_name, 1)

    def _on_container_warm(self, container: Container) -> None:
        """A container finished cold start: drain its function's queue onto it."""
        self.dispatcher.drain(container.function_name)

    def _on_request_complete(self, request: Request, container: Container) -> None:
        """Completion callback: record the completion in the metrics."""
        self.metrics.record_completion(request)

    def columnar_plan(self):
        """The hybrid data path, described for the columnar kernel.

        Mirrors :meth:`dispatch` / :meth:`_on_request_complete`: fold
        arrivals into the per-function rate windows, create one
        container when a request queues against an empty function; the
        completion side is pure metrics (handled by the kernel's
        collector folds).
        """
        from repro.sim.columnar import ColumnarPlan

        def fold_arrivals(name: str, times) -> None:
            """Fold a batch of arrival times into the function's rate windows."""
            estimator = self._rates.get(name)
            if estimator is not None:
                estimator.record_arrivals_many(times)

        def create_on_empty(name: str) -> None:
            """Bootstrap one container for a function that has none."""
            self._create(name, 1)

        return ColumnarPlan(
            dispatcher=self.dispatcher,
            collector=self.metrics,
            fold_arrivals=fold_arrivals,
            create_on_empty=create_on_empty,
        )

    def _service_rate(self, name: str) -> float:
        """μ of a standard container, from the offline profile or the default."""
        profile = self._profiles.get(name)
        if profile is not None:
            return profile.service_rate(1.0)
        return self._default_rates.get(name, 10.0)

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
        """One tick: reactive target vs. model floor, then scale."""
        now = self.engine.now
        snapshot_fns: Dict[str, FunctionEpochStats] = {}
        for deployment in self.cluster.deployments:
            name = deployment.name
            live = self.cluster.containers_of(name, include_draining=False)

            # reactive half: smoothed concurrency -> desired containers
            in_flight = sum(c.in_flight for c in live) + self.dispatcher.queue_length(name)
            previous = self._smoothed_concurrency.get(name, float(in_flight))
            smoothed = (
                self.config.smoothing * in_flight + (1 - self.config.smoothing) * previous
            )
            self._smoothed_concurrency[name] = smoothed
            reactive = math.ceil(smoothed / self.config.target_concurrency)

            # model half: the SLO floor at the current estimated rate
            observation = self._rates[name].estimate(now)
            floor = 0
            rate = observation.rate
            if rate > 0:
                decision = self.autoscaler.desired_containers(
                    function_name=name,
                    arrival_rate=rate,
                    service_rate=self._service_rate(name),
                    slo_deadline=deployment.slo_deadline or 1.0,
                    current_containers=len(live),
                    min_containers=deployment.min_containers,
                )
                floor = decision.desired_containers

            desired = min(self.config.max_containers, max(reactive, floor))
            if desired > len(live):
                self._shrink_streak[name] = 0
                self._create(name, desired - len(live))
            elif desired < len(live):
                streak = self._shrink_streak.get(name, 0) + 1
                self._shrink_streak[name] = streak
                if streak >= self.config.scale_down_patience:
                    victims = sorted(live, key=lambda c: c.in_flight)[: len(live) - desired]
                    for victim in victims:
                        if victim.in_flight == 0:
                            self.cluster.terminate_container(victim.container_id)
                            self.metrics.increment("terminations")
            else:
                self._shrink_streak[name] = 0

            live_after = self.cluster.containers_of(name, include_draining=False)
            snapshot_fns[name] = FunctionEpochStats(
                function_name=name,
                containers=len(live_after),
                cpu=sum(c.current_cpu for c in live_after),
                desired_containers=desired,
                arrival_rate_estimate=rate,
                service_rate_estimate=self._service_rate(name),
            )
        self.metrics.record_epoch(
            EpochSnapshot(
                time=now,
                overloaded=False,
                total_cpu=self.cluster.total_cpu,
                allocated_cpu=self.cluster.cpu_allocated,
                functions=snapshot_fns,
            )
        )

    def _create(self, name: str, count: int) -> None:
        """Create up to ``count`` new containers, capacity permitting."""
        deployment = self.cluster.deployment(name)
        for _ in range(count):
            node = self.cluster.find_node_for(deployment.cpu, deployment.memory_mb)
            if node is None:
                return
            self.cluster.create_container(name, node=node)
            self.metrics.increment("creations")

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------
    def on_node_failed(self, node_name: str, salvaged) -> None:
        """Requeue the salvaged work and run an immediate recovery pass."""
        self._requeue_salvaged(salvaged)
        self._evaluate_once()
        self._drain_all()

    def on_node_recovered(self, node_name: str) -> None:
        """Capacity is back: run an immediate pass to spread back onto it."""
        self._evaluate_once()
        self._drain_all()

    def on_container_crashed(self, container: Container, salvaged) -> None:
        """Requeue the salvaged work and replace capacity immediately."""
        self._requeue_salvaged(salvaged)
        self._evaluate_once()
        self._drain_all()

    def _drain_all(self) -> None:
        """Push queued requests onto any containers that can now take them."""
        for deployment in self.cluster.deployments:
            if self.dispatcher.queue_length(deployment.name):
                self.dispatcher.drain(deployment.name)


def _validate_hybrid_params(params) -> None:
    """Eager params check: must construct a valid config."""
    config_from_params(HybridPolicyConfig, "hybrid", params)


@register_policy(
    "hybrid",
    "reactive scale-up with an M/M/c model floor on scale-down",
    validate_params=_validate_hybrid_params,
)
def _build_hybrid(context: PolicyContext, params: Dict[str, Any]) -> HybridPolicy:
    """Registry factory for the hybrid model-guided reactive scaler."""
    return HybridPolicy(
        engine=context.engine, cluster=context.cluster,
        config=config_from_params(HybridPolicyConfig, "hybrid", params),
        metrics=context.metrics,
        service_profiles=context.service_profiles,
        default_service_rates=context.default_service_rates,
    )


__all__ = ["HybridPolicy", "HybridPolicyConfig"]
