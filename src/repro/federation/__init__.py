"""Geo-distributed federation: N edge sites under one global router.

A federated run is a :class:`~repro.simulation.SimulationRunner` given
a :class:`FederationSpec`: the runner wires each site as it wires one
cluster, and this package supplies what N sites add on top:

* :mod:`repro.federation.spec` — declarative topology
  (:class:`SiteSpec`, :class:`FederationSpec`), carried as
  ``ScenarioSpec.federation``;
* :mod:`repro.federation.router` — the :class:`GlobalRouterPolicy`
  contract and registry;
* :mod:`repro.federation.routers` — the built-ins (``nearest-site``,
  ``latency-aware``, ``spillover-to-cloud``);
* :mod:`repro.federation.cluster` — the live
  :class:`FederatedCluster` / :class:`FederatedSite` runtime;
* :mod:`repro.federation.health` — deterministic probe-based health
  beliefs with exponential retry backoff;
* :mod:`repro.federation.injector` — site blackouts and WAN partitions;
* :mod:`repro.federation.runner` — the :class:`GlobalPlane` every
  arrival enters through (routing, bounces, redirects, drops) and its
  :class:`RouterStats`.

Everything follows the repo's determinism contract: no new RNG streams,
spec-order iteration everywhere, runs are pure functions of
``(scenario, seed)`` and sweeps are byte-identical across worker counts.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.federation.cluster": ("FederatedCluster", "FederatedSite"),
    "repro.federation.health": ("SiteHealthMonitor",),
    "repro.federation.injector": ("FederationFaultInjector",),
    "repro.federation.router": (
        "GlobalRouterPolicy",
        "RouterContext",
        "RouterDescriptor",
        "build_router",
        "describe_routers",
        "get_router",
        "register_router",
        "router_names",
        "validate_router",
    ),
    "repro.federation.runner": ("GlobalPlane", "RouterStats"),
    "repro.federation.spec": ("FederationSpec", "SiteSpec"),
})

__all__ = [
    "FederatedCluster",
    "FederatedSite",
    "FederationFaultInjector",
    "FederationSpec",
    "GlobalPlane",
    "GlobalRouterPolicy",
    "RouterContext",
    "RouterDescriptor",
    "RouterStats",
    "SiteHealthMonitor",
    "SiteSpec",
    "build_router",
    "describe_routers",
    "get_router",
    "register_router",
    "router_names",
    "validate_router",
]
