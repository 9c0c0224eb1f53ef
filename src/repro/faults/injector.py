"""The live fault-injection machinery: specs in, engine events out.

:class:`FaultInjector` turns a :class:`~repro.faults.spec.FaultSpec`
into first-class simulation events and wires the failure semantics
through every layer:

* **engine** — node failures/recoveries are scheduled on the shared
  tuple-keyed heap at
  :data:`~repro.sim.engine.SimulationEngine.PRIORITY_FAULT` (after data
  events at the same instant, before control-plane ticks);
* **cluster** — :meth:`~repro.cluster.cluster.EdgeCluster.fail_node`
  evicts the node's containers (running requests fail, queued requests
  are salvaged) and removes the node from capacity accounting;
* **dispatcher** — a crash-on-dispatch interceptor at the dispatcher's
  single choke point fails the dispatched request and evicts the
  container with probability ``crash_probability``;
* **controller** — every fault is reported through the control-plane
  policy contract (:class:`~repro.core.policy.ControlPolicy`):
  ``on_node_failed`` / ``on_node_recovered`` / ``on_container_crashed``.
  Under LaSS these requeue salvaged work, start an immediate reactive
  re-provisioning pass, and suppress voluntary reclamation for the
  configured grace window; every registered policy implements its own
  reaction (the conformance tests pin that the hooks fire for all);
* **metrics** — availability, failed/requeued request counts, and
  per-failure recovery times accumulate in an
  :class:`~repro.metrics.availability.AvailabilityTracker` plus the run
  counters (``node_failures``, ``container_crashes``, ...).

Determinism
-----------
The injector adds no hidden entropy: node events fire at the spec's
explicit times, and the crash / cold-start draws come from the scenario
:class:`~repro.sim.rng.RngStreams` streams ``"faults:crash"`` and
``"faults:coldstart"``, consumed in event order.  When the spec is
empty the injector is never constructed, so healthy runs execute the
byte-identical event stream they always did.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.cluster.cluster import EdgeCluster
from repro.cluster.container import Container, ContainerState
from repro.core.policy import ControlPolicy
from repro.faults.spec import FaultSpec, NodeFailureSpec
from repro.metrics.availability import AvailabilityTracker, RecoveryRecord
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import SimulationEngine
from repro.sim.request import Request
from repro.sim.rng import RngStreams

_WARM = ContainerState.WARM


class FaultInjector:
    """Schedules and executes one scenario's fault plan.

    Parameters
    ----------
    engine, cluster, controller, metrics:
        The already-wired simulation stack (see
        :class:`~repro.simulation.SimulationRunner`, which constructs
        the injector when its scenario carries a fault spec).
    rng:
        The run's seeded stream registry; the injector draws only from
        its own named streams.
    spec:
        What to inject.  Node names are validated here — an unknown name
        is a spec bug and fails loudly at construction, not mid-run.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        cluster: EdgeCluster,
        controller: ControlPolicy,
        metrics: MetricsCollector,
        rng: RngStreams,
        spec: FaultSpec,
    ) -> None:
        """Validate the spec against the cluster and arm every fault."""
        self.engine = engine
        self.cluster = cluster
        self.controller = controller
        self.metrics = metrics
        self.spec = spec
        self.availability = AvailabilityTracker()

        known = {node.name for node in cluster.nodes}
        for failure in spec.node_failures:
            if failure.node not in known:
                raise ValueError(
                    f"fault spec names unknown node {failure.node!r}; "
                    f"cluster has: {sorted(known)}"
                )

        for failure in spec.node_failures:
            engine.call_at(failure.fail_at, self._fail_node, failure,
                           priority=SimulationEngine.PRIORITY_FAULT)
            if failure.recover_at is not None:
                engine.call_at(failure.recover_at, self._recover_node, failure,
                               priority=SimulationEngine.PRIORITY_FAULT)

        if spec.crash_probability > 0.0:
            self._crash_rng = rng.stream("faults:crash")
            self._drawn_ahead: Optional[float] = None
            self._crash_functions = (set(spec.crash_functions)
                                     if spec.crash_functions is not None else None)
            controller.set_dispatch_interceptor(self._intercept_dispatch)

        if spec.cold_start is not None:
            cluster.cold_start_sampler = spec.cold_start.build(
                rng.stream("faults:coldstart")
            )

        # recovery detection: every container warm-up may close open records
        cluster.on_container_warm(self._check_recovery)

    # ------------------------------------------------------------------
    # Node failure / recovery events
    # ------------------------------------------------------------------
    def _fail_node(self, failure: NodeFailureSpec) -> None:
        """Engine callback: take the node down and drive the failure semantics."""
        now = self.engine.now
        node = self.cluster.node(failure.node)
        assert node is not None  # validated at construction
        if node.failed:  # pragma: no cover - spec validation rejects overlap
            return
        # capture pre-failure warm counts for recovery detection; only
        # functions that actually lose warm capacity constrain recovery
        lost_warm: Dict[str, int] = {}
        for container in node.containers:
            if container.state is _WARM:
                lost_warm[container.function_name] = (
                    lost_warm.get(container.function_name, 0) + 1
                )
        warm_targets = {
            name: len(self.cluster.warm_containers_of(name))
            for name in lost_warm
        }
        containers_lost = len(node.containers)

        interrupted, salvaged = self.cluster.fail_node(failure.node)
        self.metrics.increment("node_failures")
        if interrupted:
            self.metrics.increment("failed_requests", len(interrupted))
        if salvaged:
            self.metrics.increment("requeued_requests", len(salvaged))
        self.availability.record_capacity(
            now, self.cluster.total_cpu, self.cluster.configured_cpu
        )
        record = RecoveryRecord(
            node=failure.node,
            fail_at=now,
            recover_at=failure.recover_at,
            containers_lost=containers_lost,
            warm_targets=warm_targets,
        )
        if not warm_targets:  # no warm capacity lost: service never degraded
            record.recovery_time = 0.0
        self.availability.open_record(record)
        self.controller.on_node_failed(failure.node, salvaged)

    def _recover_node(self, failure: NodeFailureSpec) -> None:
        """Engine callback: bring the node back and let the controller rebalance."""
        node = self.cluster.node(failure.node)
        if node is None or not node.failed:  # pragma: no cover - defensive
            return
        self.cluster.recover_node(failure.node)
        self.metrics.increment("node_recoveries")
        self.availability.record_capacity(
            self.engine.now, self.cluster.total_cpu, self.cluster.configured_cpu
        )
        self.controller.on_node_recovered(failure.node)

    def _check_recovery(self, container: Container) -> None:
        """Warm-up hook: close recovery records whose service is restored."""
        open_records = self.availability.open_records()
        if not open_records:
            return
        now = self.engine.now
        for record in open_records:
            restored = all(
                len(self.cluster.warm_containers_of(name)) >= target
                for name, target in record.warm_targets.items()
            )
            if restored:
                record.recovery_time = now - record.fail_at

    # ------------------------------------------------------------------
    # Crash-on-dispatch
    # ------------------------------------------------------------------
    def crash_decision(self, function_name: str) -> bool:
        """Draw the crash-on-dispatch decision for one dispatch.

        One uniform draw per (non-filtered) dispatch keeps the stream
        consumption a pure function of the (deterministic) dispatch
        order — which is exactly why the columnar data plane calls this
        at every dispatch it performs in-kernel: the ``faults:crash``
        stream advances identically on both data planes.  Functions
        outside ``crash_functions`` never draw.
        """
        if (self._crash_functions is not None
                and function_name not in self._crash_functions):
            return False
        draw = self._drawn_ahead
        if draw is None:
            draw = float(self._crash_rng.random())
        else:
            self._drawn_ahead = None
        return draw < self.spec.crash_probability

    def peek_crash(self, function_name: str) -> bool:
        """What the next :meth:`crash_decision` for ``function_name`` returns.

        The draw is taken ahead and held for that call, so the stream
        advances exactly as without the peek.
        """
        if (self._crash_functions is not None
                and function_name not in self._crash_functions):
            return False
        if self._drawn_ahead is None:
            self._drawn_ahead = float(self._crash_rng.random())
        return self._drawn_ahead < self.spec.crash_probability

    def apply_crash(self, request: Request, container: Container) -> None:
        """Execute a confirmed crash: fail the request, evict, re-provision.

        The dispatched request fails — it reached a dying container —
        the container is evicted (its queued requests are salvaged), and
        the controller immediately re-provisions.
        """
        now = self.engine.now
        request.mark_dropped(now)
        interrupted, salvaged = self.cluster.evict_container(container.container_id)
        self.metrics.increment("container_crashes")
        self.metrics.increment("failed_requests", 1 + len(interrupted))
        if salvaged:
            self.metrics.increment("requeued_requests", len(salvaged))
        self.controller.on_container_crashed(container, salvaged)

    def _intercept_dispatch(self, request: Request, container: Container) -> bool:
        """Dispatcher interceptor: crash the container with the specced probability.

        Returns ``False`` to tell the dispatcher the request was
        disposed of, ``True`` to let the dispatch proceed.
        """
        if not self.crash_decision(request.function_name):
            return True
        self.apply_crash(request, container)
        return False

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, duration: float) -> Dict[str, Any]:
        """The ``faults`` group of the scenario results envelope.

        ``duration`` bounds the availability integral (the workload
        horizon, not the drain tail).  All values are plain JSON types
        and a pure function of the run, so results stay byte-stable.
        """
        counters = self.metrics.counters
        completions = counters.get("completions", 0)
        failed = counters.get("failed_requests", 0)
        drops = counters.get("drops", 0)
        served_or_lost = completions + failed + drops
        request_availability = (
            completions / served_or_lost if served_or_lost else 1.0
        )
        report: Dict[str, Any] = {
            "capacity_availability": self.availability.mean_availability(duration),
            "request_availability": request_availability,
            "node_failures": counters.get("node_failures", 0),
            "node_recoveries": counters.get("node_recoveries", 0),
            "container_crashes": counters.get("container_crashes", 0),
            "failed_requests": failed,
            "requeued_requests": counters.get("requeued_requests", 0),
        }
        report.update(self.availability.as_dict())
        return report


__all__ = ["FaultInjector"]
