"""The federation's global plane: one router over N sites, one engine.

:class:`~repro.simulation.SimulationRunner` wires each site as it wires
one cluster, then builds a :class:`GlobalPlane` over the sites, and
every arrival enters through :meth:`GlobalPlane.ingress`.  The plane
routes requests; only a site's own policy touches its containers.  One
:class:`~repro.sim.engine.SimulationEngine` drives every site, so
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
from typing import Any, Dict, Sequence, Tuple

from repro.federation.cluster import FederatedCluster
from repro.federation.health import SiteHealthMonitor
from repro.federation.router import RouterContext, build_router
from repro.sim.engine import SimulationEngine
from repro.sim.request import Request


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


class GlobalPlane:
    """The router, health monitor and router counters over a wired federation.

    Built by :class:`~repro.simulation.SimulationRunner` once every
    site of ``federation`` has its policy; :meth:`ingress` is the
    dispatch target of every arrival generator, and :meth:`start` arms
    the probes and the router beside the site policies.
    """

    def __init__(self, engine: SimulationEngine, federation: FederatedCluster) -> None:
        """Build the health monitor, the router and its counters."""
        spec = federation.spec
        self.engine = engine
        self.federation = federation
        self.spec = spec
        self.monitor = SiteHealthMonitor(
            engine, federation,
            probe_interval=spec.probe_interval,
            backoff_base=spec.probe_backoff_base,
            backoff_cap=spec.probe_backoff_cap,
        )
        self.router = build_router(
            spec.router,
            RouterContext(engine=engine, federation=federation, spec=spec),
            spec.router_params,
        )
        self.stats = RouterStats(federation.site_names())

    def start(self) -> None:
        """Schedule the first health probes and start the router."""
        self.monitor.start()
        self.router.start()

    # ------------------------------------------------------------------
    # Ingress / routing / delivery
    # ------------------------------------------------------------------
    def ingress(self, request: Request) -> None:
        """Entry point for every arrival: autonomy check, then routing."""
        origin_name = self.spec.origin_of(request.function_name)
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


__all__ = ["GlobalPlane", "RouterStats"]
