"""Declarative federation topology: sites, WAN latencies, router choice.

A :class:`FederationSpec` is carried on
:class:`~repro.scenarios.spec.ScenarioSpec` (the ``federation`` field)
and follows the same rules as every other spec layer: frozen
dataclasses, exhaustive validation on construction, and an exact
``from_dict(spec.to_dict())`` JSON round-trip with canonical bytes.

The model
---------
* **Sites** (:class:`SiteSpec`) are heterogeneous edge clusters: each
  carries its own node count/capacity, cold-start latency, and a
  per-site :class:`~repro.core.policy.ControlPolicy` from the policy
  registry.  A site flagged ``cloud=True`` is the designated overflow
  target of the ``spillover-to-cloud`` router.
* **WAN latency** is a symmetric matrix: ``wan_latency`` is the default
  one-way transit time between any two distinct sites, with per-pair
  ``"a->b"`` overrides (looked up symmetrically; intra-site latency is
  zero).
* **Origins** map each function to the site its traffic arrives at
  geographically.  Unmapped functions default to the first site, so a
  flash crowd landing on one region is just an origins map pointing
  every function at that region.
* **Router** names a registered :class:`GlobalRouterPolicy`; its
  parameters are validated eagerly here, exactly like
  ``ControllerSpec.policy``.
* **Probe/backoff knobs** configure the deterministic health monitor:
  sites are probed every ``probe_interval`` seconds while healthy, and
  with exponential backoff (``probe_backoff_base * 2^k`` capped at
  ``probe_backoff_cap``) while down — the "deterministic retry/backoff
  on a dead site" half of the failover contract.  ``max_redirects``
  bounds the redirect chain of any single request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple

from repro.core.policy import validate_policy
from repro.federation.router import validate_router
from repro.spec_fields import ANY, Count, Flag, Many, Nested, Number, Spec, Table, Text, spec_field


@dataclass(frozen=True)
class SiteSpec(Spec):
    """One federated edge (or cloud) site.

    Cluster-shape fields mirror
    :class:`~repro.cluster.cluster.ClusterConfig` inline so the
    federation layer stays independent of the scenario layer.
    ``policy_params`` and ``cloud`` are echoed only when non-default,
    matching the controller-spec idiom.
    """

    name: str = spec_field(Text(nonempty=True))
    node_count: int = spec_field(Count(1), 3)
    cpu_per_node: float = spec_field(Number("positive"), 4.0)
    memory_per_node_mb: float = spec_field(Number("positive"), 16 * 1024.0)
    cold_start_latency: float = spec_field(Number("non-negative"), 0.5)
    policy: str = spec_field(Text(), "lass")
    policy_params: Mapping[str, Any] = spec_field(Table(ANY), {}, omit_default=True)
    cloud: bool = spec_field(Flag(), False, omit_default=True)

    def _label(self, name: str) -> str:
        """Refusals name the site: ``site 'edge-b': node_count ...``."""
        return f"site {self.name!r}: {name}"

    def __post_init__(self) -> None:
        """Parse the fields; no '->' in the name, and params the policy accepts."""
        super().__post_init__()
        if "->" in self.name:
            raise ValueError(f"site name {self.name!r} may not contain '->'")
        validate_policy(self.policy, self.policy_params)

    @property
    def configured_cpu(self) -> float:
        """Total CPU the site is specced with."""
        return self.node_count * self.cpu_per_node


@dataclass(frozen=True)
class FederationSpec(Spec):
    """The complete federation topology of one scenario.

    Attributes
    ----------
    sites:
        The federated sites, in a fixed order that every deterministic
        iteration (routing tie-breaks, metric merges) follows.
    router:
        Registered :class:`~repro.federation.router.GlobalRouterPolicy`
        name.
    router_params:
        Parameters for the router policy, validated eagerly.
    wan_latency:
        Default one-way WAN transit latency (seconds) between any two
        distinct sites.
    wan_overrides:
        Per-pair latency overrides keyed ``"a->b"``; looked up
        symmetrically (``"b->a"`` falls back to ``"a->b"``).
    origins:
        ``{function_name: site_name}`` — where each function's traffic
        arrives.  Unmapped functions originate at the first site.
    probe_interval:
        Health-probe period for healthy sites (seconds).
    probe_backoff_base:
        First retry delay after a probe finds a site down.
    probe_backoff_cap:
        Upper bound on the exponential probe backoff.
    max_redirects:
        Maximum redirect hops per request before it is dropped.

    The three mappings are echoed only when non-empty, keeping the
    canonical bytes of minimal federations minimal.
    """

    sites: Tuple[SiteSpec, ...] = spec_field(Many(Nested(SiteSpec)))
    router: str = spec_field(Text(), "nearest-site")
    router_params: Mapping[str, Any] = spec_field(Table(ANY), {}, omit_default=True)
    wan_latency: float = spec_field(Number("non-negative"), 0.05)
    wan_overrides: Mapping[str, float] = spec_field(Table(Number("non-negative")), {},
                                                    omit_default=True)
    origins: Mapping[str, str] = spec_field(Table(Text()), {}, omit_default=True)
    probe_interval: float = spec_field(Number("positive"), 5.0)
    probe_backoff_base: float = spec_field(Number("positive"), 1.0)
    probe_backoff_cap: float = spec_field(Number(), 8.0)
    max_redirects: int = spec_field(Count(0), 3)

    def __post_init__(self) -> None:
        """Parse the fields; check topology, WAN matrix, origins and router together."""
        super().__post_init__()
        if not self.sites:
            raise ValueError("a federation needs at least one site")
        names = self.site_names()
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate site names: {list(names)}")
        known = set(names)
        for key in self.wan_overrides:
            parts = key.split("->")
            if len(parts) != 2 or not all(parts):
                raise ValueError(f"wan_overrides key {key!r} must look like 'a->b'")
            a, b = parts
            if a not in known or b not in known:
                raise ValueError(f"wan_overrides key {key!r} names an unknown site")
            if a == b:
                raise ValueError(f"wan_overrides key {key!r}: intra-site latency is fixed at 0")
        for function, site in self.origins.items():
            if site not in known:
                raise ValueError(
                    f"origins[{function!r}] = {site!r} is not a federated site"
                )
        if not self.probe_backoff_base <= self.probe_backoff_cap:
            raise ValueError("probe_backoff_cap must be >= probe_backoff_base")
        validate_router(self.router, self.router_params)
        if self.router == "spillover-to-cloud":
            cloud = self.router_params.get("cloud_site")
            if cloud is not None:
                if cloud not in known:
                    raise ValueError(
                        f"router_params['cloud_site'] = {cloud!r} is not a federated site"
                    )
            elif not any(site.cloud for site in self.sites):
                raise ValueError(
                    "spillover-to-cloud needs a site with cloud=True "
                    "(or router_params['cloud_site'])"
                )

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------
    def site_names(self) -> Tuple[str, ...]:
        """Site names in federation order."""
        return tuple(site.name for site in self.sites)

    def site(self, name: str) -> SiteSpec:
        """Look up one site spec by name."""
        for site in self.sites:
            if site.name == name:
                return site
        raise KeyError(f"unknown site {name!r}; available: {list(self.site_names())}")

    def latency(self, a: str, b: str) -> float:
        """One-way WAN latency between sites ``a`` and ``b`` (0 if same)."""
        if a == b:
            return 0.0
        override = self.wan_overrides.get(f"{a}->{b}")
        if override is None:
            override = self.wan_overrides.get(f"{b}->{a}")
        return self.wan_latency if override is None else override

    def origin_of(self, function_name: str) -> str:
        """The site a function's traffic arrives at (first site by default)."""
        return self.origins.get(function_name, self.sites[0].name)

    def cloud_site(self) -> Optional[str]:
        """The designated cloud site, if any (router param wins over flag)."""
        named = self.router_params.get("cloud_site")
        if named is not None:
            return named
        for site in self.sites:
            if site.cloud:
                return site.name
        return None


__all__ = ["SiteSpec", "FederationSpec"]
