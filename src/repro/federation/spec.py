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

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.policy import validate_policy
from repro.federation.router import validate_router


def _is_count(value: Any) -> bool:
    """True for a plain ``int`` (a JSON integer), never a ``bool`` or a float."""
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_number(value: Any, what: str) -> float:
    """A finite ``int`` or ``float`` as a float; anything else a ValueError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SiteSpec:
    """One federated edge (or cloud) site.

    Cluster-shape fields mirror
    :class:`~repro.cluster.cluster.ClusterConfig` inline so the
    federation layer stays independent of the scenario layer.
    """

    name: str
    node_count: int = 3
    cpu_per_node: float = 4.0
    memory_per_node_mb: float = 16 * 1024.0
    cold_start_latency: float = 0.5
    policy: str = "lass"
    policy_params: Mapping[str, Any] = field(default_factory=dict)
    cloud: bool = False

    def __post_init__(self) -> None:
        """Validate the site shape and its control-policy choice."""
        if not self.name:
            raise ValueError("site name must be non-empty")
        if "->" in self.name:
            raise ValueError(f"site name {self.name!r} may not contain '->'")
        if not _is_count(self.node_count) or self.node_count < 1:
            raise ValueError(f"site {self.name!r}: node_count must be an int >= 1, got {self.node_count!r}")
        for key in ("cpu_per_node", "memory_per_node_mb", "cold_start_latency"):
            object.__setattr__(self, key, _finite_number(getattr(self, key), f"site {self.name!r}: {key}"))
        if not isinstance(self.cloud, bool):
            raise ValueError(f"site {self.name!r}: cloud must be true or false, got {self.cloud!r}")
        if self.cpu_per_node <= 0:
            raise ValueError(f"site {self.name!r}: cpu_per_node must be positive")
        if self.memory_per_node_mb <= 0:
            raise ValueError(f"site {self.name!r}: memory_per_node_mb must be positive")
        if self.cold_start_latency < 0:
            raise ValueError(f"site {self.name!r}: cold_start_latency must be >= 0")
        validate_policy(self.policy, self.policy_params)
        object.__setattr__(self, "policy_params", dict(self.policy_params))

    @property
    def configured_cpu(self) -> float:
        """Total CPU the site is specced with."""
        return self.node_count * self.cpu_per_node

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-ready) view.

        ``policy_params`` and ``cloud`` are emitted only when
        non-default, matching the controller-spec idiom.
        """
        data: Dict[str, Any] = {
            "name": self.name,
            "node_count": self.node_count,
            "cpu_per_node": self.cpu_per_node,
            "memory_per_node_mb": self.memory_per_node_mb,
            "cold_start_latency": self.cold_start_latency,
            "policy": self.policy,
        }
        if self.policy_params:
            data["policy_params"] = dict(self.policy_params)
        if self.cloud:
            data["cloud"] = True
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SiteSpec":
        """Rebuild from :meth:`to_dict` output; a wrongly typed value is refused, not coerced."""
        return cls(
            name=data["name"],
            node_count=data.get("node_count", 3),
            cpu_per_node=data.get("cpu_per_node", 4.0),
            memory_per_node_mb=data.get("memory_per_node_mb", 16 * 1024.0),
            cold_start_latency=data.get("cold_start_latency", 0.5),
            policy=data.get("policy", "lass"),
            policy_params=dict(data.get("policy_params", {})),
            cloud=data.get("cloud", False),
        )


@dataclass(frozen=True)
class FederationSpec:
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
    """

    sites: Tuple[SiteSpec, ...]
    router: str = "nearest-site"
    router_params: Mapping[str, Any] = field(default_factory=dict)
    wan_latency: float = 0.05
    wan_overrides: Mapping[str, float] = field(default_factory=dict)
    origins: Mapping[str, str] = field(default_factory=dict)
    probe_interval: float = 5.0
    probe_backoff_base: float = 1.0
    probe_backoff_cap: float = 8.0
    max_redirects: int = 3

    def __post_init__(self) -> None:
        """Validate topology, WAN matrix, origins, knobs, and the router."""
        sites = tuple(
            s if isinstance(s, SiteSpec) else SiteSpec.from_dict(s)
            for s in self.sites
        )
        if not sites:
            raise ValueError("a federation needs at least one site")
        names = [site.name for site in sites]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate site names: {names}")
        object.__setattr__(self, "sites", sites)
        known = set(names)
        for key in ("wan_latency", "probe_interval", "probe_backoff_base", "probe_backoff_cap"):
            object.__setattr__(self, key, _finite_number(getattr(self, key), key))
        if not 0.0 <= self.wan_latency < math.inf:
            raise ValueError(f"wan_latency must be finite and >= 0, got {self.wan_latency}")
        overrides: Dict[str, float] = {}
        for key, value in dict(self.wan_overrides).items():
            parts = key.split("->")
            if len(parts) != 2 or not all(parts):
                raise ValueError(f"wan_overrides key {key!r} must look like 'a->b'")
            a, b = parts
            if a not in known or b not in known:
                raise ValueError(f"wan_overrides key {key!r} names an unknown site")
            if a == b:
                raise ValueError(f"wan_overrides key {key!r}: intra-site latency is fixed at 0")
            value = _finite_number(value, f"wan_overrides[{key!r}]")
            if not 0.0 <= value:
                raise ValueError(f"wan_overrides[{key!r}] must be finite and >= 0")
            overrides[key] = value
        object.__setattr__(self, "wan_overrides", overrides)
        origins = dict(self.origins)
        for function, site in origins.items():
            if site not in known:
                raise ValueError(
                    f"origins[{function!r}] = {site!r} is not a federated site"
                )
        object.__setattr__(self, "origins", origins)
        if not 0.0 < self.probe_interval < math.inf:
            raise ValueError("probe_interval must be positive")
        if not 0.0 < self.probe_backoff_base < math.inf:
            raise ValueError("probe_backoff_base must be positive")
        if not self.probe_backoff_base <= self.probe_backoff_cap < math.inf:
            raise ValueError("probe_backoff_cap must be >= probe_backoff_base")
        if not _is_count(self.max_redirects) or self.max_redirects < 0:
            raise ValueError(f"max_redirects must be a non-negative int, got {self.max_redirects!r}")
        router_params = dict(self.router_params)
        object.__setattr__(self, "router_params", router_params)
        validate_router(self.router, router_params)
        if self.router == "spillover-to-cloud":
            cloud = router_params.get("cloud_site")
            if cloud is not None:
                if cloud not in known:
                    raise ValueError(
                        f"router_params['cloud_site'] = {cloud!r} is not a federated site"
                    )
            elif not any(site.cloud for site in sites):
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

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-ready) view.

        Optional mappings are emitted only when non-empty, keeping the
        canonical bytes of minimal federations minimal.
        """
        data: Dict[str, Any] = {
            "sites": [site.to_dict() for site in self.sites],
            "router": self.router,
            "wan_latency": self.wan_latency,
            "probe_interval": self.probe_interval,
            "probe_backoff_base": self.probe_backoff_base,
            "probe_backoff_cap": self.probe_backoff_cap,
            "max_redirects": self.max_redirects,
        }
        if self.router_params:
            data["router_params"] = dict(self.router_params)
        if self.wan_overrides:
            data["wan_overrides"] = dict(self.wan_overrides)
        if self.origins:
            data["origins"] = dict(self.origins)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FederationSpec":
        """Rebuild (and re-validate) a federation from :meth:`to_dict` output, coercing nothing."""
        return cls(
            sites=tuple(SiteSpec.from_dict(s) for s in data["sites"]),
            router=data.get("router", "nearest-site"),
            router_params=dict(data.get("router_params", {})),
            wan_latency=data.get("wan_latency", 0.05),
            wan_overrides=dict(data.get("wan_overrides", {})),
            origins=dict(data.get("origins", {})),
            probe_interval=data.get("probe_interval", 5.0),
            probe_backoff_base=data.get("probe_backoff_base", 1.0),
            probe_backoff_cap=data.get("probe_backoff_cap", 8.0),
            max_redirects=data.get("max_redirects", 3),
        )


__all__ = ["SiteSpec", "FederationSpec"]
