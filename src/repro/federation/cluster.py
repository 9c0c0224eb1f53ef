"""The live federation: N edge sites under one simulation engine.

:class:`FederatedSite` wraps one :class:`~repro.cluster.cluster.EdgeCluster`
with the federation-level runtime state the router and fault layers act
on — the site's own metrics collector and control policy (set when
:class:`~repro.simulation.SimulationRunner` wires the site), plus two
independent liveness flags:

* ``alive`` — the site's hardware is up.  A blackout clears it: every
  node fails, nothing executes.
* ``reachable`` — the WAN path between the global router and the site
  is up.  A partition clears *only* this flag: the site's local control
  loop keeps running and locally-originating traffic is still served
  (edge autonomy, the KubeEdge model), but the router cannot see it.

Node names are prefixed with the site name (``"edge-a/node-0"``), so a
completed request's ``node_name`` unambiguously attributes execution to
a site — which is exactly what the federation property tests assert
("no request ever executed on a blacked-out site").

:class:`FederatedCluster` is the ordered collection of sites plus the
WAN latency view; ordering follows the spec everywhere so that every
iteration over sites is deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, TYPE_CHECKING

from repro.cluster.cluster import ClusterConfig, EdgeCluster
from repro.cluster.node import Node
from repro.federation.spec import FederationSpec, SiteSpec
from repro.metrics.collector import MetricsCollector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.policy import ControlPolicy
    from repro.sim.engine import SimulationEngine


class FederatedSite:
    """One edge site: its cluster, metrics, policy, and liveness flags."""

    def __init__(self, engine: "SimulationEngine", spec: SiteSpec,
                 service_rates: Mapping[str, float]) -> None:
        """Build the site's cluster with site-prefixed node names."""
        self.spec = spec
        self.name = spec.name
        config = ClusterConfig(
            node_count=spec.node_count,
            cpu_per_node=spec.cpu_per_node,
            memory_per_node_mb=spec.memory_per_node_mb,
            cold_start_latency=spec.cold_start_latency,
        )
        nodes = [
            Node(f"{spec.name}/node-{i}", spec.cpu_per_node, spec.memory_per_node_mb)
            for i in range(spec.node_count)
        ]
        self.cluster = EdgeCluster(engine, config, nodes=nodes)
        self.metrics = MetricsCollector()
        #: The site's control policy, built from the registry when the runner wires the site.
        self.policy: "ControlPolicy"
        #: Each function's standard-container service rate, for :meth:`expected_wait`.
        self.service_rates = service_rates
        #: Hardware liveness — cleared by a site blackout.
        self.alive = True
        #: WAN liveness — cleared by a partition; the site keeps running.
        self.reachable = True

    # ------------------------------------------------------------------
    # State the routers score on
    # ------------------------------------------------------------------
    @property
    def deliverable(self) -> bool:
        """Whether a dispatched request can actually land here right now."""
        return self.alive and self.reachable

    def queue_depth(self, function_name: str) -> int:
        """Requests queued for ``function_name`` at this site's dispatcher."""
        dispatcher = getattr(self.policy, "dispatcher", None)
        if dispatcher is None:
            return 0
        return dispatcher.queue_length(function_name)

    def warm_count(self, function_name: str) -> int:
        """Warm containers currently serving ``function_name`` here."""
        return len(self.cluster.warm_containers_of(function_name))

    def expected_wait(self, function_name: str) -> float:
        """Deterministic expected-wait estimate for one more request.

        With warm capacity: queue depth plus this request, drained at
        ``warm * service_rate``.  Without: a cold start plus a
        single-container drain — the pessimistic-but-fair score that
        makes the latency-aware router prefer warm remote sites over
        cold local ones once the WAN gap is smaller than a cold start.
        """
        rate = self.service_rates.get(function_name, 1.0)
        pending = self.queue_depth(function_name) + 1
        warm = self.warm_count(function_name)
        if warm > 0:
            return pending / (warm * rate)
        return self.spec.cold_start_latency + pending / rate


class FederatedCluster:
    """Ordered sites plus the WAN latency view, under one engine."""

    def __init__(self, engine: "SimulationEngine", spec: FederationSpec,
                 service_rates: Mapping[str, float]) -> None:
        """Instantiate every site in spec order."""
        self.spec = spec
        self.sites: List[FederatedSite] = [
            FederatedSite(engine, site_spec, service_rates) for site_spec in spec.sites
        ]
        self._by_name: Dict[str, FederatedSite] = {s.name: s for s in self.sites}

    def site(self, name: str) -> FederatedSite:
        """Look up one live site by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown site {name!r}; available: {[s.name for s in self.sites]}"
            ) from None

    def site_names(self) -> List[str]:
        """Site names in federation (spec) order."""
        return [site.name for site in self.sites]

    def latency(self, a: str, b: str) -> float:
        """One-way WAN latency between two sites (0 within a site)."""
        return self.spec.latency(a, b)

    @property
    def configured_cpu(self) -> float:
        """Total CPU the federation is specced with, across all sites."""
        return sum(site.cluster.configured_cpu for site in self.sites)

    @property
    def available_cpu(self) -> float:
        """Total CPU on non-failed nodes across all sites."""
        return sum(site.cluster.total_cpu for site in self.sites)

    def __repr__(self) -> str:
        """Debugging summary of the federation topology."""
        return (f"FederatedCluster(sites={self.site_names()}, "
                f"router={self.spec.router!r})")


__all__ = ["FederatedCluster", "FederatedSite"]
