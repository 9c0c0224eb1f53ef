"""High-level simulation runner: wire workloads, sites, and control planes together.

A run has one site or N.  One site is one
:class:`~repro.cluster.cluster.EdgeCluster` under one control policy,
and the arrival generators dispatch straight to that policy.  N sites
are a :class:`~repro.federation.spec.FederationSpec`: each is wired the
same way (its own cluster, collector and policy), and the arrivals
enter through the federation's
:class:`~repro.federation.runner.GlobalPlane`, which routes each to a
site.

This is the main entry point for examples and experiments::

    from repro import SimulationRunner, ClusterConfig, ControllerConfig
    from repro.workloads import WorkloadBinding, StaticRate, get_function

    runner = SimulationRunner(
        cluster_config=ClusterConfig(node_count=3, cpu_per_node=4),
        controller_config=ControllerConfig(),
        workloads=[WorkloadBinding(get_function("squeezenet"), StaticRate(20, duration=300))],
        seed=1,
    )
    result = runner.run(duration=300)
    print(result.waiting_summary("squeezenet").p95)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Union)

from repro.cluster.cluster import ClusterConfig, EdgeCluster
from repro.core.controller import ControllerConfig
from repro.core.policy import ControlPolicy, PolicyContext, get_policy
from repro.core.estimation.service_time import ServiceTimeProfile
from repro.core.allocation.hierarchy import SchedulingTree
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSpec
from repro.metrics.collector import MetricsCollector
from repro.metrics.percentiles import WaitingTimeSummary
from repro.metrics.slo import SloReport
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngStreams
from repro.workloads.generator import ArrivalGenerator, WorkloadBinding, stream_arrivals

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.federation.cluster import FederatedCluster
    from repro.federation.injector import FederationFaultInjector
    from repro.federation.runner import GlobalPlane
    from repro.federation.spec import FederationSpec


@dataclass
class SimulationResult:
    """Everything a finished run exposes for analysis.

    ``controller`` is the run's control-plane policy — a
    :class:`~repro.core.controller.LassController` by default, or
    whichever registered :class:`~repro.core.policy.ControlPolicy` the
    runner was asked for.  A federated run sets ``federation`` (its
    sites, each with its own cluster, collector and policy); then
    ``cluster`` and ``controller`` are the first site's, and ``metrics``
    merges every site's requests and counters in site order.
    ``kernel_stats`` holds the columnar kernel's
    exact counts of boundaries, in-kernel warm-ups and synchronized
    state (:attr:`~repro.sim.columnar.ColumnarKernel.stats`), or ``None`` when
    the run executed on the event plane; ``fallback_reason`` says why a
    run asked to be columnar executed on the event plane instead
    (``None`` when the plane asked for is the plane that ran).  Both
    describe how the run was executed, not what it simulated, and never
    enter a results envelope.
    """

    metrics: MetricsCollector
    cluster: EdgeCluster
    controller: ControlPolicy
    duration: float
    generated_requests: Dict[str, int] = field(default_factory=dict)
    kernel_stats: Optional[Dict[str, int]] = None
    fallback_reason: Optional[str] = None
    federation: Optional["FederatedCluster"] = None

    @property
    def data_plane_used(self) -> str:
        """The plane that executed the run: ``"columnar"`` or ``"event"``."""
        return "event" if self.kernel_stats is None else "columnar"

    @property
    def control_stats(self) -> Optional[Dict[str, Any]]:
        """What the control path cost on this host, beside ``kernel_stats``.

        :meth:`~repro.core.policy.ControlPolicy.control_stats` of the
        run's policy (epochs run, wall-clock p50 / p95 of ``run_epoch``,
        the policy's solver counters), or ``None`` for a policy that never
        ran an epoch.  Worked out when read — a run that never asks pays
        nothing for it — and, like ``kernel_stats``, never in a results
        envelope.
        """
        return self.controller.control_stats()

    def waiting_summary(self, function_name: Optional[str] = None, warmup: float = 0.0) -> WaitingTimeSummary:
        """Waiting-time percentiles for one function (or all)."""
        return self.metrics.waiting_summary(function_name, warmup)

    def slo(self, deadlines: Mapping[str, float], percentile: float = 0.95,
            warmup: float = 0.0) -> Dict[str, SloReport]:
        """SLO attainment per function."""
        return self.metrics.slo(deadlines, percentile, warmup)

    def mean_utilization(self, start: float = 0.0, end: Optional[float] = None) -> float:
        """Time-weighted mean cluster utilisation over the run.

        Over N > 1 sites, the sites' means weighted by configured CPU.
        """
        sites = self.federation.sites if self.federation is not None else ()
        if len(sites) < 2:
            return self.metrics.mean_utilization(start, end)
        weighted = sum(site.cluster.configured_cpu * site.metrics.mean_utilization(start, end)
                       for site in sites)
        return weighted / self.federation.configured_cpu

    def container_timeline(self, function_name: str):
        """``(times, container counts)`` series for a function."""
        return self.metrics.timeline.container_series(function_name)

    def cpu_timeline(self, function_name: str):
        """``(times, allocated CPU)`` series for a function."""
        return self.metrics.timeline.cpu_series(function_name)


class SimulationRunner:
    """Builds and runs one complete LaSS simulation.

    Parameters
    ----------
    workloads:
        One :class:`~repro.workloads.generator.WorkloadBinding` per function.
    cluster_config:
        Cluster sizing (defaults to the paper's 3×(4 vCPU, 16 GB) testbed).
    controller_config:
        Controller parameters (epoch length, reclamation policy, ...).
    scheduling_tree:
        Optional explicit fair-share hierarchy; otherwise built from the
        bindings' users and weights.
    seed:
        Master seed for all random streams.
    use_offline_profiles:
        Give the controller each function's offline service-time profile
        (the paper's option 1); otherwise it must learn online (option 2).
    warm_start_containers:
        Per-function number of containers to create before the workload
        starts, so experiments that study steady-state behaviour do not
        measure the very first cold start.
    fault_spec:
        Optional :class:`~repro.faults.spec.FaultSpec`; when given (and
        non-empty) a :class:`~repro.faults.injector.FaultInjector` is
        armed against the run — node failures/recoveries, container
        crash-on-dispatch, and cold-start latency distributions, all
        deterministic under the run's master seed (a federation's
        :class:`~repro.federation.injector.FederationFaultInjector` arms
        site blackouts and WAN partitions).  ``None`` (or an
        empty spec) leaves the healthy event stream byte-identical.
    policy:
        The control plane to run: a registered policy name
        (``"lass"`` — the default — ``"openwhisk"``, ``"reactive"``,
        ``"static"``, ``"hybrid"``, ``"noop"``, or anything third-party
        code registered) or a callable ``factory(context) ->
        ControlPolicy`` for ad-hoc policies.  Every policy sees the same
        workloads, cluster, seed, and fault schedule.
    policy_params:
        Policy-specific configuration forwarded to the registered
        factory (e.g. ``{"allocations": {...}}`` for ``"static"``).
        LaSS takes none — it is configured through ``controller_config``.
    data_plane:
        ``"event"`` (the default, and the oracle) executes every request
        through per-request engine events; ``"columnar"`` runs the
        vectorized kernel (:mod:`repro.sim.columnar`) when the policy
        supports it, falling back to the event plane otherwise.  Both
        planes produce byte-identical results (the differential test
        suite enforces it).
    federation:
        Optional :class:`~repro.federation.spec.FederationSpec`: run on
        its N sites under its global router, on the event plane.  Every
        function is deployed on every site and warm-started at
        ``federation.origin_of(name)``.  Sites size their clusters and
        name their policies, so ``cluster_config``, ``scheduling_tree``,
        ``policy`` and ``policy_params`` stay unset.  Site-level faults
        need a federation, and a federation takes no other faults.
    """

    def __init__(
        self,
        workloads: Sequence[WorkloadBinding],
        cluster_config: Optional[ClusterConfig] = None,
        controller_config: Optional[ControllerConfig] = None,
        scheduling_tree: Optional[SchedulingTree] = None,
        seed: int = 1,
        use_offline_profiles: bool = True,
        warm_start_containers: Optional[Mapping[str, int]] = None,
        fault_spec: Optional["FaultSpec"] = None,
        policy: Union[str, Callable[[PolicyContext], ControlPolicy]] = "lass",
        policy_params: Optional[Mapping[str, Any]] = None,
        data_plane: str = "event",
        federation: Optional["FederationSpec"] = None,
    ) -> None:
        """Wire every site, the arrival generators and the fault injector (see the class docstring)."""
        if not workloads:
            raise ValueError("at least one workload binding is required")
        if data_plane not in ("event", "columnar"):
            raise ValueError(
                f"unknown data_plane {data_plane!r}; valid: 'event', 'columnar'"
            )
        self.data_plane = data_plane
        names = [w.profile.name for w in workloads]
        if len(set(names)) != len(names):
            raise ValueError("duplicate function names in workload bindings")
        if fault_spec is not None and fault_spec.is_empty():
            fault_spec = None

        self.engine = SimulationEngine()
        self.rng = RngStreams(seed)
        self.bindings = list(workloads)

        default_rates = {b.profile.name: b.profile.service_rate for b in self.bindings}
        profiles: Dict[str, ServiceTimeProfile] = (
            {b.profile.name: b.profile.to_service_profile() for b in self.bindings}
            if use_offline_profiles else {})

        self.federation: Optional["FederatedCluster"] = None
        if federation is None:
            if fault_spec is not None and fault_spec.has_site_faults():
                raise ValueError(
                    "site-level faults (site_blackouts / wan_partitions) require "
                    "a federation"
                )
            self.cluster = EdgeCluster(self.engine, cluster_config or ClusterConfig())
            self.metrics = MetricsCollector()
            sites = [(self.cluster, self.metrics, policy, policy_params)]
        else:
            if (cluster_config is not None or scheduling_tree is not None
                    or policy != "lass" or policy_params):
                raise ValueError(
                    "a federation sizes its clusters and names its policies per site; "
                    "cluster_config, scheduling_tree, policy and policy_params stay unset"
                )
            if data_plane != "event":
                raise ValueError("federated runs require data_plane='event'")
            if fault_spec is not None and fault_spec.has_node_faults():
                raise ValueError(
                    "federated runs take site-level faults only "
                    "(site_blackouts / wan_partitions)"
                )
            from repro.federation.cluster import FederatedCluster

            self.federation = FederatedCluster(self.engine, federation, default_rates)
            sites = [(site.cluster, site.metrics, site.spec.policy, site.spec.policy_params)
                     for site in self.federation.sites]

        config = controller_config or ControllerConfig()
        self.policies: List[ControlPolicy] = []
        for cluster, metrics, site_policy, params in sites:
            for binding in self.bindings:
                cluster.deploy(binding.profile.to_deployment(
                    weight=binding.weight,
                    user=binding.user,
                    slo_deadline=binding.slo_deadline,
                ))
            context = PolicyContext(
                engine=self.engine,
                cluster=cluster,
                metrics=metrics,
                config=config,
                scheduling_tree=scheduling_tree,
                service_profiles=profiles,
                default_service_rates=default_rates,
            )
            if isinstance(site_policy, str):
                self.policies.append(get_policy(site_policy).factory(context, dict(params or {})))
            elif params:
                raise ValueError("policy_params require a registered policy name")
            else:
                self.policies.append(site_policy(context))
        #: The (first) site's cluster, collector and policy.
        self.cluster, self.metrics, self.policy = sites[0][0], sites[0][1], self.policies[0]

        dispatch = self.policy.dispatch
        #: The federation's router over the wired sites; ``None`` for one cluster.
        self.plane: Optional["GlobalPlane"] = None
        if self.federation is not None:
            from repro.federation.runner import GlobalPlane

            for site, site_policy in zip(self.federation.sites, self.policies):
                site.policy = site_policy
            self.plane = GlobalPlane(self.engine, self.federation)
            dispatch = self.plane.ingress

        self.generators: List[ArrivalGenerator] = [
            ArrivalGenerator(
                engine=self.engine,
                profile=binding.profile,
                schedule=binding.schedule,
                dispatch=dispatch,
                rng=self.rng.stream(f"arrivals:{binding.profile.name}"),
                slo_deadline=binding.slo_deadline,
                work_rng=self.rng.stream(f"work:{binding.profile.name}"),
            )
            for binding in self.bindings
        ]

        self._warm_start = dict(warm_start_containers or {})

        self.fault_injector: Optional[Union[FaultInjector, "FederationFaultInjector"]] = None
        if fault_spec is not None and self.federation is None:
            self.fault_injector = FaultInjector(self.engine, self.cluster, self.policy,
                                                self.metrics, self.rng, fault_spec)
        elif fault_spec is not None:
            from repro.federation.injector import FederationFaultInjector

            self.fault_injector = FederationFaultInjector(
                self.engine, self.federation, fault_spec)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def prewarm(self) -> None:
        """Create the requested warm-start containers and let them finish cold start.

        Each function's containers are created on its origin site (the
        one cluster of a single-site run).  Idempotent: the request is
        consumed, so a caller may prewarm explicitly, adjust the warm
        fleet, and :meth:`run` creates nothing more.
        """
        warm_start, self._warm_start = self._warm_start, {}
        created = []
        latency = 0.0
        for name, count in warm_start.items():
            cluster = self.cluster
            if self.federation is not None:
                cluster = self.federation.site(self.federation.spec.origin_of(name)).cluster
            for _ in range(count):
                created.append(cluster.create_container(name))
            latency = max(latency, cluster.config.cold_start_latency)
        if not created:
            return
        if self.cluster.cold_start_sampler is None:
            self.engine.run(until=self.engine.now + latency + 1e-6)
        else:
            # cold-start latencies are sampled per container: step until every
            # warm-start container left STARTING (fault-injected runs only,
            # so the healthy prewarm path stays byte-exact)
            from repro.cluster.container import ContainerState

            while any(c.state is ContainerState.STARTING for c in created):
                if not self.engine.step():  # pragma: no cover - defensive
                    break

    def run(self, duration: float, extra_drain: float = 5.0) -> SimulationResult:
        """Run the simulation for ``duration`` seconds of workload.

        ``extra_drain`` extends the event loop past the workload horizon so
        in-flight requests can complete and be counted.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.prewarm()
        for policy in self.policies:
            policy.start()
        if self.plane is not None:
            self.plane.start()
        for generator in self.generators:
            if generator.horizon is None or generator.horizon > duration:
                generator.horizon = duration
        kernel = fallback_reason = None
        if self.data_plane == "columnar":
            from repro.sim.columnar import build_kernel

            kernel, fallback_reason = build_kernel(self.engine, self.cluster, self.policy,
                                                   self.generators)
        metrics = self.metrics
        if kernel is not None:
            kernel.run(until=duration + extra_drain)
        else:
            stream_arrivals(self.engine, self.generators)
            self.engine.run(until=duration + extra_drain)
            if self.federation is not None and len(self.federation.sites) > 1:
                metrics = MetricsCollector()
                metrics.requests = [request for site in self.federation.sites
                                    for request in site.metrics.requests]
                for site in self.federation.sites:
                    metrics.counters.update(site.metrics.counters)
            metrics.seal_requests()
        generated = {g.profile.name: g.generated for g in self.generators}
        return SimulationResult(
            metrics=metrics,
            cluster=self.cluster,
            controller=self.policy,
            duration=duration,
            generated_requests=generated,
            kernel_stats=None if kernel is None else dict(kernel.stats),
            fallback_reason=fallback_reason,
            federation=self.federation,
        )


def run_fixed_allocation(
    binding: WorkloadBinding,
    containers: int,
    duration: float,
    cluster_config: Optional[ClusterConfig] = None,
    seed: int = 1,
    deflation_plan: Optional[Sequence[float]] = None,
    extra_drain: float = 5.0,
    data_plane: str = "event",
) -> SimulationResult:
    """Run a single function against a *fixed* container allocation (no autoscaling).

    Used by the model-validation experiments (Figures 3 and 4): the model
    chooses ``containers`` ahead of time, the allocation stays fixed, and
    the measured waiting-time percentiles are compared against the SLO.
    It is a :class:`SimulationRunner` under the ``"noop"`` policy (pure
    WRR dispatch, no control loop) with ``containers`` warm-started.

    Parameters
    ----------
    deflation_plan:
        Optional per-container CPU fractions (e.g. ``[0.7, 0.7, 1.0, 1.0]``)
        applied after the containers warm up, to create a heterogeneous
        configuration.
    extra_drain:
        Seconds the event loop runs past the workload horizon so
        in-flight requests can complete and be counted.
    data_plane:
        ``"event"`` (default/oracle) or ``"columnar"`` — same contract
        as :class:`SimulationRunner`.
    """
    if containers < 1:
        raise ValueError("containers must be >= 1")
    name = binding.profile.name
    runner = SimulationRunner(
        workloads=[binding],
        # size the "cluster" generously: these experiments isolate the queueing
        # behaviour from placement constraints
        cluster_config=cluster_config or ClusterConfig(
            node_count=max(3, containers), cpu_per_node=8.0,
            memory_per_node_mb=32 * 1024.0,
        ),
        seed=seed,
        warm_start_containers={name: containers},
        policy="noop",
        data_plane=data_plane,
    )
    runner.prewarm()
    if deflation_plan is not None:
        live = runner.cluster.containers_of(name)
        if len(deflation_plan) != len(live):
            raise ValueError("deflation_plan length must match the container count")
        for container, fraction in zip(live, deflation_plan):
            container.deflate_to(container.standard_cpu * fraction)
    return runner.run(duration, extra_drain=extra_drain)


__all__ = ["SimulationRunner", "SimulationResult", "run_fixed_allocation"]
