"""The LaSS controller: the epoch loop that ties the whole system together.

This module plays the role of the "LaSS module" the paper adds to the
OpenWhisk controller (§5, Figure 2b).  It owns:

* the data path — every arriving request is recorded for rate
  estimation and dispatched straight to a container by weighted round
  robin (the shared-queue path of
  :class:`~repro.core.dispatch.SharedQueuePolicy`, with the rate windows
  as its arrival folds and online service-time learning as its
  completion folds);
* the control path — once per epoch it estimates each function's
  arrival rate, sizes *all* registered functions in one batched call to
  the queueing-model solver
  (:class:`repro.core.queueing.solver.SizingSolver` — stateless, with
  the reference Algorithm 1's container counts), detects
  overload, applies weighted fair sharing, and executes the resulting
  scaling / reclamation actions on the cluster itself (create, terminate
  and resize containers: the paper's invokers only carry these commands
  out, so no layer stands for them here).

In the absence of resource pressure, over-provisioned functions are
scaled down *lazily* (containers are only marked for termination and
reclaimed when some other function actually needs the capacity), and
under-provisioned ones get new standard-size containers.  Under
overload, the configured reclamation policy (termination or deflation)
produces an immediate action plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Sequence

from repro.cluster.cluster import EdgeCluster, FunctionDeployment
from repro.cluster.container import Container, ContainerState
from repro.core.allocation.autoscaler import Autoscaler, ScalingDecision, ScalingQuery
from repro.core.queueing.solver import SizingSolver
from repro.core.allocation.hierarchy import SchedulingTree
from repro.core.allocation.placement import PlacementRequest, plan_placements
from repro.core.dispatch import SharedQueuePolicy
from repro.core.allocation.reclamation import (
    DeflationPolicy,
    ReclamationPlan,
    ReclamationPolicy,
    TerminationPolicy,
)
from repro.core.estimation.ewma import EwmaEstimator
from repro.core.estimation.service_time import OnlineServiceTimeEstimator, ServiceTimeProfile
from repro.core.estimation.sliding_window import DualWindowRateEstimator
from repro.metrics.collector import EpochSnapshot, FunctionEpochStats, MetricsCollector
from repro.sim.engine import SimulationEngine
from repro.sim.request import Request

_current_cpu = attrgetter("current_cpu")
_DRAINING = ContainerState.DRAINING
_TERMINATION = ReclamationPolicy.TERMINATION


@dataclass
class ControllerConfig:
    """Tunable parameters of the LaSS controller.

    Defaults follow the paper's prototype: epochs of ten seconds, rate
    estimation from a 2-minute long window and a 10-second short window
    sampled every 5 seconds with a 2× burst switch, a 95th-percentile
    SLO, EWMA smoothing biased towards the most recent epoch, and a
    conservative 30 % deflation threshold.
    """

    epoch_length: float = 10.0
    rate_sample_interval: float = 5.0
    long_window: float = 120.0
    short_window: float = 10.0
    burst_factor: float = 2.0
    ewma_alpha: float = 0.7
    percentile: float = 0.95
    reclamation: ReclamationPolicy = ReclamationPolicy.DEFLATION
    deflation_threshold: float = 0.3
    deflation_increment: float = 0.05
    lazy_termination: bool = True
    #: learn service times online from completed requests (otherwise only
    #: offline profiles / deployment defaults are used)
    online_learning: bool = True
    #: seconds after a node failure/recovery during which the epoch loop
    #: suppresses voluntary scale-downs (lazy draining marks): while the
    #: fleet is churning, rate estimates are poisoned by the outage and
    #: freed capacity would be reclaimed from functions that are about to
    #: need it back.  Overload reclamation (fair-share enforcement) is
    #: never suppressed — under genuine pressure capacity must move.
    fault_recovery_grace: float = 30.0

    def __post_init__(self) -> None:
        """Validate the configuration parameters."""
        if not self.epoch_length > 0:  # also rejects NaN
            raise ValueError("epoch_length must be positive")
        if not self.rate_sample_interval > 0:
            raise ValueError("rate_sample_interval must be positive")
        if not 0 < self.percentile < 1:
            raise ValueError("percentile must be in (0, 1)")
        if not self.fault_recovery_grace >= 0:
            raise ValueError("fault_recovery_grace must be non-negative")


@dataclass
class _FunctionState:
    """The controller's per-function bookkeeping."""

    deployment: FunctionDeployment
    ewma: EwmaEstimator
    #: what ``_service_rate`` answers until enough completions are learned:
    #: the profile's standard-size rate (a frozen table, read once at
    #: registration) or, without a profile, the configured default
    offline_service_rate: float = 10.0
    last_decision: Optional[ScalingDecision] = None


class LassController(SharedQueuePolicy):
    """The LaSS control plane for one edge cluster.

    Registered as the ``"lass"`` entry of the control-plane policy
    registry (:mod:`repro.core.policy`); the baselines conform to the
    same :class:`~repro.core.policy.ControlPolicy` contract, so any of
    them can replace this controller in a scenario.

    Parameters
    ----------
    engine:
        Shared simulation engine.
    cluster:
        The cluster whose containers this controller manages.
    config:
        Controller parameters.
    scheduling_tree:
        Optional user → function hierarchy for fair sharing; when omitted
        a flat tree is built from the deployments' weights.
    metrics:
        Optional metrics collector (one is created if omitted).
    service_profiles:
        Optional offline service-time profiles, keyed by function name.
    default_service_rates:
        Fallback μ per function (req/s on a standard container) used before
        any profile or online observation is available.
    """

    name = "lass"
    creates_on_empty = True

    def __init__(
        self,
        engine: SimulationEngine,
        cluster: EdgeCluster,
        config: Optional[ControllerConfig] = None,
        scheduling_tree: Optional[SchedulingTree] = None,
        metrics: Optional[MetricsCollector] = None,
        service_profiles: Optional[Dict[str, ServiceTimeProfile]] = None,
        default_service_rates: Optional[Dict[str, float]] = None,
    ) -> None:
        """Wire the controller to the cluster and build its per-function state."""
        self.config = config or ControllerConfig()
        #: the per-function rate windows and (online learning only) the
        #: service-time estimators: the data path folds into these, and the
        #: control loop reads them; the completion map goes to the dispatcher
        self.arrival_folds: Dict[str, DualWindowRateEstimator] = {}
        self.completion_folds: Optional[Dict[str, OnlineServiceTimeEstimator]] = (
            {} if self.config.online_learning else None)
        super().__init__(engine, cluster, metrics)
        self.balancer = self.dispatcher.balancer
        self.solver = SizingSolver()
        self.autoscaler = Autoscaler(percentile=self.config.percentile, solver=self.solver)
        self._tree = scheduling_tree
        self._functions: Dict[str, _FunctionState] = {}
        self._started = False
        self._epoch_count = 0
        #: voluntary scale-downs are suppressed until this simulation time
        #: (pushed forward by node failure/recovery notifications)
        self._suppress_reclamation_until = -float("inf")
        service_profiles = service_profiles or {}
        default_service_rates = default_service_rates or {}
        for deployment in cluster.deployments:
            self.register_function(
                deployment,
                profile=service_profiles.get(deployment.name),
                default_service_rate=default_service_rates.get(deployment.name, 10.0),
            )

    # ------------------------------------------------------------------
    # Registration / lifecycle
    # ------------------------------------------------------------------
    def register_function(
        self,
        deployment: FunctionDeployment,
        profile: Optional[ServiceTimeProfile] = None,
        default_service_rate: float = 10.0,
    ) -> None:
        """Register a deployed function with the controller."""
        if deployment.name in self._functions:
            return
        self._functions[deployment.name] = _FunctionState(
            deployment=deployment,
            ewma=EwmaEstimator(self.config.ewma_alpha),
            offline_service_rate=default_service_rate if profile is None else profile.service_rate(1.0),
        )
        self.arrival_folds[deployment.name] = DualWindowRateEstimator(
            self.config.long_window, self.config.short_window, self.config.burst_factor
        )
        if self.completion_folds is not None:
            self.completion_folds[deployment.name] = OnlineServiceTimeEstimator()

    def start(self) -> None:
        """Begin the periodic epoch loop and the faster rate-sampling loop."""
        if self._started:
            return
        self._started = True
        self.engine.schedule(
            self.config.epoch_length, self._epoch_tick, priority=SimulationEngine.PRIORITY_CONTROL
        )
        if self.config.rate_sample_interval < self.config.epoch_length:
            self.engine.schedule(
                self.config.rate_sample_interval,
                self._rate_tick,
                priority=SimulationEngine.PRIORITY_CONTROL,
            )

    @property
    def scheduling_tree(self) -> SchedulingTree:
        """The fair-share hierarchy (built flat from weights if not supplied)."""
        if self._tree is None:
            users: Dict[str, float] = {}
            functions: Dict[str, str] = {}
            weights: Dict[str, float] = {}
            for state in self._functions.values():
                dep = state.deployment
                users.setdefault(dep.user, 1.0)
                functions[dep.name] = dep.user
                weights[dep.name] = dep.weight
            if len(users) <= 1:
                self._tree = SchedulingTree.flat(weights)
            else:
                self._tree = SchedulingTree.two_level(users, functions, weights)
        return self._tree

    def _create_on_empty(self, name: str) -> None:
        """Bootstrap a function's first container through the placement planner."""
        self._create_containers(name, 1)

    # ------------------------------------------------------------------
    # Control path
    # ------------------------------------------------------------------
    def _epoch_tick(self) -> None:
        """Run one control epoch, then reschedule the next tick."""
        self._timed_epoch()
        self.engine.schedule(
            self.config.epoch_length, self._epoch_tick, priority=SimulationEngine.PRIORITY_CONTROL
        )

    def _rate_tick(self) -> None:
        """The fast (5-second) sampling loop: react to bursts between epochs.

        The paper's headline responsiveness numbers — container
        reprovisioning within tens to hundreds of milliseconds of a load
        spike — come from sampling the arrival-rate windows every few
        seconds and scaling *up* immediately when the short window detects
        a burst or when the current allocation cannot even keep the queue
        stable.  Scaling down and fair-share arbitration stay on the
        slower epoch cadence.
        """
        now = self.engine.now
        for name, state in self._functions.items():
            observation = self.arrival_folds[name].estimate(now)
            if observation.rate <= 0:
                continue
            current = self.cluster.containers_of(name, include_draining=False)
            service_rate = self._service_rate(state)
            min_stable = self.autoscaler.minimum_stable_containers(observation.rate, service_rate)
            needs_reaction = observation.burst_detected or len(current) < min_stable
            if not needs_reaction:
                continue
            if observation.burst_detected:
                self.metrics.increment("burst_switches")
            decision = self.autoscaler.desired_containers(
                function_name=name,
                arrival_rate=observation.rate,
                service_rate=service_rate,
                slo_deadline=state.deployment.slo_deadline or 1.0,
                current_containers=len(current),
                min_containers=state.deployment.min_containers,
            )
            if decision.desired_containers > len(current):
                self._scale_up(name, decision.desired_containers - len(current))
                self.metrics.increment("reactive_scale_ups")
        self._drain_all()
        self.engine.schedule(
            self.config.rate_sample_interval,
            self._rate_tick,
            priority=SimulationEngine.PRIORITY_CONTROL,
        )

    def run_epoch(self) -> EpochSnapshot:
        """Run one control epoch and return the snapshot that was recorded."""
        self._epoch_count += 1
        now = self.engine.now

        # estimation first (stateful: EWMA updates, burst counters), then all
        # model solves in one epoch-batched call to the sizing solver
        states = list(self._functions.items())
        # each function's live containers as its query read them: unchanged
        # until the epoch acts (reclaiming draining containers touches none)
        live: Dict[str, List[Container]] = {}
        batch = self.autoscaler.decide_batch(
            [self._scaling_query(name, state, now, live) for name, state in states]
        )

        decisions: Dict[str, ScalingDecision] = {}
        demands_cpu: Dict[str, float] = {}
        for (name, state), decision in zip(states, batch):
            decisions[name] = decision
            state.last_decision = decision
            demands_cpu[name] = decision.desired_containers * state.deployment.cpu

        total_cpu = self.cluster.total_cpu
        overloaded = sum(demands_cpu.values()) > total_cpu + 1e-9

        if overloaded:
            targets = self.scheduling_tree.allocate(demands_cpu, total_cpu)
            self._apply_overload_plan(targets, live)
        else:
            # during the post-fault grace window only voluntary scale-downs
            # are withheld; scale-ups and inflation proceed normally
            allow_scale_down = now >= self._suppress_reclamation_until
            self._apply_normal_scaling(decisions, live, allow_scale_down=allow_scale_down)

        # any queued work that can start on the (possibly changed) container
        # set should start now rather than wait for the next completion
        self._drain_all()
        return self._record_epoch(self._epoch_stats(decisions), overloaded)

    # -- model-driven decision per function ----------------------------
    def _scaling_query(self, name: str, state: _FunctionState, now: float,
                       live: Dict[str, List[Container]]) -> ScalingQuery:
        """Rate estimation (stateful) + model inputs for one function.

        The returned query carries everything the autoscaler needs; the
        actual queueing-model solves happen in one batched call per
        epoch (:meth:`Autoscaler.decide_batch`).  The live containers it
        read are left in ``live[name]``.
        """
        observation = self.arrival_folds[name].estimate(now)
        if observation.burst_detected:
            self.metrics.increment("burst_switches")
        smoothed = state.ewma.update(observation.rate)

        service_rate = self._service_rate(state)
        current = live[name] = self.cluster.containers_of(name, include_draining=False)
        # the per-container rates matter only to the heterogeneous model,
        # i.e. only once some live container is deflated
        existing_rates = None
        for container in current:
            if container.current_cpu / container.standard_cpu < 1.0 - 1e-9:
                existing_rates = [service_rate * c.speed for c in current]
                break

        # positional, in field order: keywords cost more than the row itself
        deployment = state.deployment
        return ScalingQuery(name, smoothed, service_rate, deployment.slo_deadline or 1.0,
                            len(current), existing_rates, deployment.min_containers)

    def _service_rate(self, state: _FunctionState) -> float:
        """Best current estimate of a standard-size container's service rate."""
        if self.config.online_learning:
            # the learned mean at full size, once 20 completions there are in
            count, total = self.completion_folds[state.deployment.name].bucket_totals(1.0)
            if count >= 20 and (mean := total / count) > 0:
                return 1.0 / mean
        return state.offline_service_rate

    # -- no-pressure path (§3.3) ----------------------------------------
    def _apply_normal_scaling(self, decisions: Dict[str, ScalingDecision],
                              live: Dict[str, List[Container]],
                              allow_scale_down: bool = True) -> None:
        # Scale down first (lazily), so freed capacity is visible to scale-ups.
        """Apply the epoch's decisions when the cluster is not overloaded.

        ``live`` (the queries' lists) is re-read only for a function whose
        own scale-down changed it.  ``allow_scale_down=False`` (the
        post-fault grace window) skips the lazy termination marks but
        still inflates and scales up.
        """
        for name, decision in decisions.items():
            if decision.desired_containers < decision.current_containers:
                if not allow_scale_down:
                    self.metrics.increment("reclamations_suppressed")
                    continue
                self._scale_down(name, -decision.delta)
                del live[name]
        for name, decision in decisions.items():
            current = live.get(name)
            if current is None:
                current = self.cluster.containers_of(name, include_draining=False)
            # re-inflate any deflated containers: there is no pressure
            for container in current:
                if container.current_cpu / container.standard_cpu < 1.0 - 1e-9:
                    gained = self.cluster.inflate_container(container.container_id)
                    if gained > 0:
                        self.metrics.increment("inflations")
            needed = decision.desired_containers - len(current)
            if needed > 0:
                self._scale_up(name, needed)

    def _scale_down(self, name: str, count: int) -> None:
        """Lazily mark ``count`` of a function's containers for termination."""
        live = self.cluster.containers_of(name, include_draining=False)
        victims = sorted(live, key=attrgetter("current_cpu", "container_id"))[:count]
        for container in victims:
            if self.config.lazy_termination:
                container.mark_draining()
                self.metrics.increment("lazy_marks")
            else:
                self._terminate(container.container_id)

    def _scale_up(self, name: str, count: int) -> None:
        """Give a function ``count`` more containers: rescue draining ones, then create."""
        state = self._state(name)
        # 1) rescue draining containers of this function first (cheapest)
        draining = [
            c for c in self.cluster.containers_of(name)
            if c.state is _DRAINING
        ]
        for container in draining:
            if count <= 0:
                break
            container.unmark_draining()
            self.metrics.increment("lazy_rescues")
            count -= 1
        if count <= 0:
            return
        # 2) create new containers; if placement fails, reclaim draining
        #    containers of other functions and retry.
        created = self._create_containers(name, count)
        remaining = count - created
        if remaining > 0:
            self._reclaim_draining(exclude=name)
            self._create_containers(name, remaining)

    def _create_containers(self, name: str, count: int) -> int:
        """Place and create up to ``count`` containers; returns how many succeeded."""
        state = self._state(name)
        dep = state.deployment
        requests = [PlacementRequest(name, dep.cpu, dep.memory_mb) for _ in range(count)]
        cluster = self.cluster
        plan = plan_placements(cluster.nodes, requests)
        for _, node in plan.placements:
            cluster.create_container(name, node=node)
            self.metrics.increment("creations")
        return len(plan.placements)

    def _reclaim_draining(self, exclude: Optional[str] = None) -> None:
        """Terminate draining containers to free capacity for other functions."""
        for container in self.cluster.all_containers():
            if container.state is not _DRAINING:
                continue
            if exclude is not None and container.function_name == exclude:
                continue
            self._terminate(container.container_id)

    # -- overload path (§4) ----------------------------------------------
    def _apply_overload_plan(
        self, targets_cpu: Dict[str, float], containers_by_function: Dict[str, List[Container]]
    ) -> None:
        # Under pressure there is no room for lazy termination: draining
        # containers are real capacity that must be reclaimed immediately.
        """Enforce the fair-share CPU targets on the queries' live containers."""
        self._reclaim_draining()

        standard_cpu = {name: st.deployment.cpu for name, st in self._functions.items()}
        policy = self._reclamation_policy()
        plan = policy.plan(
            containers_by_function=containers_by_function,
            target_cpu=targets_cpu,
            standard_cpu=standard_cpu,
            free_cpu=self.cluster.cpu_free,
        )
        self._execute_plan(plan)

    def _reclamation_policy(self):
        """The policy object for the configured reclamation mechanism."""
        if self.config.reclamation is _TERMINATION:
            return TerminationPolicy()
        return DeflationPolicy(
            threshold=self.config.deflation_threshold,
            increment=self.config.deflation_increment,
        )

    def _execute_plan(self, plan: ReclamationPlan) -> None:
        """Execute a plan's terminate, deflate, inflate, and create actions."""
        for action in plan.terminations:
            self._terminate(action.container_id)
        cluster = self.cluster
        for action in plan.deflations:
            if cluster.get_container(action.container_id) is not None:
                cluster.deflate_container(action.container_id, action.cpu)
                self.metrics.increment("deflations")
        for action in plan.inflations:
            container = cluster.get_container(action.container_id)
            if container is None:
                continue
            node = container.host
            if node is None:
                continue
            target = min(action.cpu, container.current_cpu + node.cpu_free)
            if target > container.current_cpu + 1e-9:
                cluster.deflate_container(action.container_id, target)
                self.metrics.increment("inflations")
        for action in plan.creations:
            dep = self._state(action.function_name).deployment
            requests = [PlacementRequest(action.function_name, action.cpu, dep.memory_mb)]
            placed = plan_placements(cluster.nodes, requests)
            for _, node in placed.placements:
                cluster.create_container(action.function_name, node=node, cpu=action.cpu)
                self.metrics.increment("creations")

    # -- fault path (driven by repro.faults.injector) --------------------
    def on_node_failed(self, node_name: str, salvaged: Sequence[Request]) -> None:
        """React to a node failure: requeue survivors, replace lost capacity.

        Called by the fault injector *after* the cluster evicted the
        node's containers.  ``salvaged`` are the still-``QUEUED``
        requests rescued from the evicted containers' FCFS queues; they
        rejoin the head of their functions' shared queues (they arrived
        earlier than anything queued there).  The controller then starts
        a recovery pass immediately — the paper's reactive loop, not the
        epoch cadence — and opens a grace window during which voluntary
        reclamation is suppressed.
        """
        self._requeue_salvaged(salvaged)
        self._suppress_reclamation_until = (
            self.engine.now + self.config.fault_recovery_grace
        )
        self._replace_lost_capacity()

    def on_node_recovered(self, node_name: str) -> None:
        """React to a node recovery: capacity is back, rebalance onto it.

        Containers the failed node hosted are gone for good (state is
        not preserved across an outage); what returns is *room*.  The
        reactive pass below re-creates any containers the last sizing
        pass wanted but could not place, and the grace window is
        refreshed so the epoch loop does not immediately reclaim the
        replacements created during the outage.
        """
        self._suppress_reclamation_until = (
            self.engine.now + self.config.fault_recovery_grace
        )
        self._replace_lost_capacity()

    def on_container_crashed(self, container: Container,
                             salvaged: Sequence[Request]) -> None:
        """React to a single-container crash (crash-on-dispatch faults)."""
        self._requeue_salvaged(salvaged)
        self._replace_lost_capacity()

    def _replace_lost_capacity(self) -> None:
        """Reactive recovery pass: scale every function back towards its target.

        For each function the target is the last epoch's desired count
        (or at least one container when work is queued and none exist).
        Creation failures are tolerated — on a shrunken fleet some
        replacements simply will not fit until the node recovers; the
        next epoch's fair-share pass arbitrates the remaining capacity.
        """
        for name, state in self._functions.items():
            desired = 0
            if state.last_decision is not None:
                desired = state.last_decision.desired_containers
            if desired < 1 and self.dispatcher.queue_length(name):
                desired = 1
            live = self.cluster.containers_of(name, include_draining=False)
            if desired > len(live):
                self._scale_up(name, desired - len(live))
        self._drain_all()

    def _terminate(self, container_id: str) -> None:
        """Terminate one container by id (immediately, not lazily)."""
        if self.cluster.get_container(container_id) is None:
            return
        dropped = self.cluster.terminate_container(container_id)
        self.metrics.increment("terminations")
        self.metrics.record_drop(len(dropped))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _state(self, name: str) -> _FunctionState:
        """Per-function controller state, with a descriptive ``KeyError``."""
        try:
            return self._functions[name]
        except KeyError:
            raise self._unregistered(name) from None

    def guaranteed_cpu_shares(self) -> Dict[str, float]:
        """Per-function guaranteed CPU shares implied by the scheduling tree."""
        return self.scheduling_tree.guaranteed_shares(self.cluster.total_cpu)

    def _epoch_stats(self, decisions: Dict[str, ScalingDecision]) -> Dict[str, FunctionEpochStats]:
        """The per-function rows of the epoch snapshot recorded into the metrics timeline."""
        functions: Dict[str, FunctionEpochStats] = {}
        for name, decision in decisions.items():
            live = self.cluster.containers_of(name, include_draining=False)
            # positional, in field order
            functions[name] = FunctionEpochStats(
                name, len(live), sum(map(_current_cpu, live)), decision.desired_containers,
                decision.arrival_rate, decision.service_rate)
        return functions


__all__ = ["LassController", "ControllerConfig", "ReclamationPolicy"]
