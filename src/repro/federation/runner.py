"""Runs one federated simulation: N sites, one engine, one global router.

The federated analogue of :class:`~repro.simulation.SimulationRunner`.
One :class:`~repro.sim.engine.SimulationEngine` drives every site, so
cross-site causality (WAN transit, bounced deliveries, probe timing)
is totally ordered and the whole run stays a pure function of
``(scenario, seed)``.

Request flow
------------
Every arrival enters at its function's **origin site** and takes one of
three paths:

1. **Edge autonomy** — the origin is alive but WAN-partitioned: the
   request is dispatched directly by the origin's own control policy,
   bypassing the global router entirely (the router cannot see the
   site, but the site can see its own traffic — the KubeEdge model).
2. **Routing** — the router picks among believed-healthy sites
   (:class:`~repro.federation.health.SiteHealthMonitor` beliefs, which
   lag reality by up to one probe interval).  Same-site choices
   dispatch synchronously; cross-site choices pay the one-way WAN
   latency before delivery.
3. **Bounce / redirect** — a delivery that lands on a site that is
   actually dead or partitioned *bounces*: the monitor is told
   immediately, and after the return WAN trip the request re-routes
   with the bounced site excluded, up to ``max_redirects`` hops, after
   which it is dropped (``redirect_exhausted``).  A request with no
   healthy candidate at all is dropped at the origin
   (``no_healthy_site``).

Dropped requests are recorded against their *origin* site's metrics so
federation-wide request availability accounts for them.

Metrics are kept **per site** and merged only at result time, in site
order — which is what lets a WAN-partitioned site's envelope "merge
back" byte-deterministically after a heal: its collector never stopped
recording.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.controller import ControllerConfig
from repro.core.estimation.service_time import ServiceTimeProfile
from repro.core.policy import PolicyContext, get_policy
from repro.faults.spec import FaultSpec
from repro.federation.cluster import FederatedCluster, FederatedSite
from repro.federation.health import SiteHealthMonitor
from repro.federation.injector import FederationFaultInjector
from repro.federation.router import RouterContext, build_router
from repro.federation.spec import FederationSpec
from repro.metrics.collector import MetricsCollector
from repro.metrics.percentiles import WaitingTimeSummary
from repro.metrics.slo import SloReport
from repro.sim.engine import SimulationEngine
from repro.sim.request import Request
from repro.sim.rng import RngStreams
from repro.workloads.generator import ArrivalGenerator, WorkloadBinding


class RouterStats:
    """Counters describing what the global router did during one run."""

    def __init__(self, site_names: Sequence[str]) -> None:
        """Zero every counter for the given sites."""
        self.dispatched: Dict[str, int] = {name: 0 for name in site_names}
        self.local_autonomy = 0
        self.cross_site = 0
        self.redirects = 0
        self.bounces = 0
        self.max_redirect_hops = 0
        self.drops: Counter = Counter()

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view for the results envelope."""
        return {
            "dispatched": dict(self.dispatched),
            "local_autonomy": self.local_autonomy,
            "cross_site": self.cross_site,
            "redirects": self.redirects,
            "bounces": self.bounces,
            "max_redirect_hops": self.max_redirect_hops,
            "drops": {reason: self.drops[reason] for reason in sorted(self.drops)},
        }


class FederatedSimulationResult:
    """Everything a finished federated run exposes for analysis.

    Interface-compatible with :class:`~repro.simulation.SimulationResult`
    for the metric-collection paths the scenario layer uses
    (``waiting_summary`` / ``slo`` / ``mean_utilization`` /
    ``generated_requests`` / ``.metrics``): the per-site request lists
    are merged in site order into one collector, and utilisation is the
    configured-CPU-weighted mean over sites.
    """

    def __init__(self, federation: FederatedCluster, duration: float,
                 generated_requests: Dict[str, int]) -> None:
        """Merge per-site metrics into one federation-wide collector."""
        self.federation = federation
        self.duration = duration
        self.generated_requests = dict(generated_requests)
        merged = MetricsCollector()
        requests: List[Request] = []
        for site in federation.sites:
            requests.extend(site.metrics.requests)
            merged.counters.update(site.metrics.counters)
        merged.requests = requests
        merged.seal_requests()
        self.metrics = merged

    def waiting_summary(self, function_name: Optional[str] = None,
                        warmup: float = 0.0) -> WaitingTimeSummary:
        """Federation-wide waiting-time percentiles for one function (or all)."""
        return self.metrics.waiting_summary(function_name, warmup)

    def slo(self, deadlines: Mapping[str, float], percentile: float = 0.95,
            warmup: float = 0.0) -> Dict[str, SloReport]:
        """Federation-wide SLO attainment per function."""
        return self.metrics.slo(deadlines, percentile, warmup)

    def mean_utilization(self, start: float = 0.0,
                         end: Optional[float] = None) -> float:
        """Configured-CPU-weighted mean utilisation across all sites."""
        total = 0.0
        weight = 0.0
        for site in self.federation.sites:
            w = site.cluster.configured_cpu
            total += w * site.metrics.mean_utilization(start, end)
            weight += w
        return total / weight if weight else 0.0


class FederatedSimulationRunner:
    """Builds and runs one complete federated simulation.

    Parameters
    ----------
    workloads:
        One :class:`~repro.workloads.generator.WorkloadBinding` per
        function; every function is deployed on every site (traffic may
        be routed anywhere), and originates at
        ``federation.origin_of(name)``.
    federation:
        The :class:`~repro.federation.spec.FederationSpec` topology.
    controller_config:
        Shared per-site controller parameters (epoch length, ...).
    seed:
        Master seed; arrival/work streams are per function, exactly as
        in the single-cluster runner.
    warm_start_containers:
        Per-function warm containers, created at the function's origin
        site before the workload starts.
    fault_spec:
        Optional :class:`~repro.faults.spec.FaultSpec` whose
        *site-level* faults (blackouts, partitions) are armed via
        :class:`~repro.federation.injector.FederationFaultInjector`.
    """

    def __init__(
        self,
        workloads: Sequence[WorkloadBinding],
        federation: FederationSpec,
        controller_config: Optional[ControllerConfig] = None,
        seed: int = 1,
        use_offline_profiles: bool = True,
        warm_start_containers: Optional[Mapping[str, int]] = None,
        fault_spec: Optional[FaultSpec] = None,
    ) -> None:
        """Build the engine, sites, per-site policies, router, and generators."""
        if not workloads:
            raise ValueError("at least one workload binding is required")
        names = [w.profile.name for w in workloads]
        if len(set(names)) != len(names):
            raise ValueError("duplicate function names in workload bindings")
        self.spec = federation
        self.bindings = list(workloads)
        self.engine = SimulationEngine()
        self.rng = RngStreams(seed)
        self.federation = FederatedCluster(self.engine, federation)

        profiles: Dict[str, ServiceTimeProfile] = {}
        default_rates: Dict[str, float] = {}
        for binding in self.bindings:
            default_rates[binding.profile.name] = binding.profile.service_rate
            if use_offline_profiles:
                profiles[binding.profile.name] = binding.profile.to_service_profile()

        config = controller_config or ControllerConfig()
        for site in self.federation.sites:
            for binding in self.bindings:
                site.cluster.deploy(binding.profile.to_deployment(
                    weight=binding.weight,
                    user=binding.user,
                    slo_deadline=binding.slo_deadline,
                ))
            context = PolicyContext(
                engine=self.engine,
                cluster=site.cluster,
                metrics=site.metrics,
                config=config,
                service_profiles=profiles,
                default_service_rates=default_rates,
            )
            site.attach_policy(
                get_policy(site.spec.policy).factory(
                    context, dict(site.spec.policy_params)),
                default_rates,
            )

        self.monitor = SiteHealthMonitor(
            self.engine, self.federation,
            probe_interval=federation.probe_interval,
            backoff_base=federation.probe_backoff_base,
            backoff_cap=federation.probe_backoff_cap,
        )
        self.router = build_router(
            federation.router,
            RouterContext(engine=self.engine, federation=self.federation,
                          spec=federation),
            federation.router_params,
        )
        self.stats = RouterStats(self.federation.site_names())
        self._origins: Dict[str, str] = {
            binding.profile.name: federation.origin_of(binding.profile.name)
            for binding in self.bindings
        }

        self.generators: List[ArrivalGenerator] = []
        for binding in self.bindings:
            self.generators.append(ArrivalGenerator(
                engine=self.engine,
                profile=binding.profile,
                schedule=binding.schedule,
                dispatch=self._ingress,
                rng=self.rng.stream(f"arrivals:{binding.profile.name}"),
                slo_deadline=binding.slo_deadline,
                work_rng=self.rng.stream(f"work:{binding.profile.name}"),
            ))

        self._warm_start = dict(warm_start_containers or {})
        self.fault_injector: Optional[FederationFaultInjector] = None
        if fault_spec is not None and not fault_spec.is_empty():
            if fault_spec.has_node_faults():
                raise ValueError(
                    "federated runs take site-level faults only "
                    "(site_blackouts / wan_partitions)"
                )
            self.fault_injector = FederationFaultInjector(
                self.engine, self.federation, fault_spec)

    # ------------------------------------------------------------------
    # Ingress / routing / delivery
    # ------------------------------------------------------------------
    def _ingress(self, request: Request) -> None:
        """Entry point for every arrival: autonomy check, then routing."""
        origin_name = self._origins[request.function_name]
        origin = self.federation.site(origin_name)
        if origin.alive and not origin.reachable:
            # Edge autonomy: the partitioned site cannot be seen by the
            # router, but its local control loop keeps serving its own
            # arrivals.
            self.stats.local_autonomy += 1
            self.stats.dispatched[origin_name] += 1
            origin.policy.dispatch(request)
            return
        self._route(request, origin_name, hops=0, excluded=())

    def _route(self, request: Request, origin_name: str, hops: int,
               excluded: Tuple[str, ...]) -> None:
        """Score candidates and deliver (or drop) one request."""
        candidates = [name for name in self.monitor.healthy_sites()
                      if name not in excluded]
        if not candidates:
            self._drop(request, origin_name, "no_healthy_site")
            return
        target = self.router.choose_site(request, origin_name, candidates)
        if target is None:
            self._drop(request, origin_name, "router_refused")
            return
        if target not in candidates:
            raise RuntimeError(
                f"router {self.spec.router!r} chose {target!r} "
                f"outside its candidate set {candidates}"
            )
        if target == origin_name:
            self._deliver(request, origin_name, target, hops, excluded)
            return
        self.stats.cross_site += 1
        self.engine.call_later(
            self.federation.latency(origin_name, target),
            self._deliver, request, origin_name, target, hops, excluded)

    def _deliver(self, request: Request, origin_name: str, target_name: str,
                 hops: int, excluded: Tuple[str, ...]) -> None:
        """Hand the request to the target site — or bounce off a dead one."""
        site = self.federation.site(target_name)
        if site.deliverable:
            self.stats.dispatched[target_name] += 1
            site.policy.dispatch(request)
            return
        self.stats.bounces += 1
        self.monitor.mark_unreachable(target_name)
        if hops >= self.spec.max_redirects:
            self._drop(request, origin_name, "redirect_exhausted")
            return
        self.engine.call_later(
            self.federation.latency(target_name, origin_name),
            self._redirect, request, origin_name, hops + 1,
            excluded + (target_name,))

    def _redirect(self, request: Request, origin_name: str, hops: int,
                  excluded: Tuple[str, ...]) -> None:
        """Re-route a bounced request with the dead site excluded."""
        self.stats.redirects += 1
        self.stats.max_redirect_hops = max(self.stats.max_redirect_hops, hops)
        self._route(request, origin_name, hops, excluded)

    def _drop(self, request: Request, origin_name: str, reason: str) -> None:
        """Drop an unroutable request, accounted at its origin site."""
        site = self.federation.site(origin_name)
        site.metrics.record_request(request)
        request.mark_dropped(self.engine.now)
        site.metrics.record_drop()
        self.stats.drops[reason] += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def prewarm(self) -> None:
        """Create warm-start containers at each function's origin site."""
        max_latency = 0.0
        created = 0
        for name, count in self._warm_start.items():
            site = self.federation.site(self._origins.get(
                name, self.spec.sites[0].name))
            for _ in range(count):
                site.cluster.create_container(name)
                created += 1
            max_latency = max(max_latency, site.spec.cold_start_latency)
        if created:
            self.engine.run(until=self.engine.now + max_latency + 1e-6)

    def run(self, duration: float,
            extra_drain: float = 5.0) -> FederatedSimulationResult:
        """Run the federated simulation for ``duration`` seconds of workload."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        self.prewarm()
        for site in self.federation.sites:
            site.policy.start()
        self.monitor.start()
        self.router.start()
        for generator in self.generators:
            if generator.horizon is None or generator.horizon > duration:
                generator.horizon = duration
        for generator in self.generators:
            generator.start()
        self.engine.run(until=duration + extra_drain)
        generated = {g.profile.name: g.generated for g in self.generators}
        return FederatedSimulationResult(
            federation=self.federation,
            duration=duration,
            generated_requests=generated,
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def federation_report(self) -> Dict[str, Any]:
        """The ``federation`` group of the results envelope."""
        sites: Dict[str, Any] = {}
        for site in self.federation.sites:
            dispatcher = getattr(site.policy, "dispatcher", None)
            sites[site.name] = {
                "counters": {key: site.metrics.counters[key]
                             for key in sorted(site.metrics.counters)},
                "mean_utilization": site.metrics.mean_utilization(),
                "queued_at_end": (dispatcher.total_queued()
                                  if dispatcher is not None else 0),
            }
        return {
            "router": {"policy": self.spec.router, **self.stats.as_dict()},
            "health": {
                "probes_sent": self.monitor.probes_sent,
                "transitions": [[time, name, up]
                                for time, name, up in self.monitor.transitions],
            },
            "sites": sites,
        }


__all__ = [
    "FederatedSimulationRunner",
    "FederatedSimulationResult",
    "RouterStats",
]
