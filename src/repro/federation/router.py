"""The global-router contract and its policy registry.

A :class:`GlobalRouterPolicy` is the federation-level analogue of the
per-site :class:`~repro.core.policy.ControlPolicy`: a pluggable,
registered strategy that decides *which site* serves each request,
while the site's own control policy decides *which container* runs it.

The division of labour with the runtime
(:class:`~repro.federation.runner.GlobalPlane`) is strict:

* the **runtime** owns failover mechanics — health filtering (a router
  never sees a site the health monitor believes is down), WAN transit
  delays, bounced deliveries, the redirect hop bound, and drop
  accounting;
* the **router** owns only the *scoring decision*: given an origin and
  the currently-believed-healthy candidate sites, pick one (or ``None``
  to drop).

That split keeps every router pure and deterministic — no engine
access, no RNG, no retry bookkeeping — so adding a new router is a
single ``choose_site`` method plus a :func:`register_router` line.

Registry semantics are identical to the control-policy registry
(:mod:`repro.core.policy`): registration by decorator, lazy built-in
loading, eager parameter validation at spec-construction time.
"""

from __future__ import annotations

import abc
import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.federation.cluster import FederatedCluster
    from repro.federation.spec import FederationSpec
    from repro.sim.engine import SimulationEngine
    from repro.sim.request import Request


@dataclass
class RouterContext:
    """Everything a router factory may capture when building a policy.

    Attributes
    ----------
    engine:
        The simulation engine (for reading the clock; routers must not
        schedule events).
    federation:
        The live :class:`~repro.federation.cluster.FederatedCluster` —
        site runtime state, WAN latencies, capacity aggregates.
    spec:
        The immutable :class:`~repro.federation.spec.FederationSpec`
        the federation was built from.
    """

    engine: "SimulationEngine"
    federation: "FederatedCluster"
    spec: "FederationSpec"


class GlobalRouterPolicy(abc.ABC):
    """One global routing strategy over a federation of edge sites.

    Subclasses implement :meth:`choose_site`.  The runtime guarantees
    ``candidates`` is non-empty, ordered as in the federation spec, and
    contains only sites the health monitor currently believes healthy;
    sites already bounced on this request's redirect chain are excluded.
    """

    #: Registered name (set by :func:`register_router` for built-ins).
    name: str = ""

    def __init__(self, context: RouterContext,
                 params: Optional[Mapping[str, Any]] = None) -> None:
        """Capture the shared routing context and the policy parameters."""
        self.context = context
        self.params: Dict[str, Any] = dict(params or {})

    def start(self) -> None:
        """Hook called once before the simulation starts (default no-op)."""

    @abc.abstractmethod
    def choose_site(self, request: "Request", origin: str,
                    candidates: Sequence[str]) -> Optional[str]:
        """Pick the site that should serve ``request``.

        Parameters
        ----------
        request:
            The arriving (or redirected) request.
        origin:
            Name of the site the request's function is homed at — the
            site the request "arrives" at geographically, regardless of
            that site's health.
        candidates:
            Believed-healthy sites, in federation spec order, minus any
            the request already bounced off.  Never empty.

        Returns the chosen site name, or ``None`` to drop the request
        (no acceptable site).
        """


@dataclass(frozen=True)
class RouterDescriptor:
    """Registry entry for one global-router policy.

    Attributes
    ----------
    name:
        Registry key, as referenced by ``FederationSpec.router``.
    summary:
        One-line human description (CLI ``routers`` verb, docs).
    factory:
        Callable ``(context, params) -> GlobalRouterPolicy``.
    validate_params:
        Optional eager validator for ``router_params``; raises
        ``ValueError`` on bad parameters at spec-construction time.
    """

    name: str
    summary: str
    factory: Callable[[RouterContext, Dict[str, Any]], GlobalRouterPolicy]
    validate_params: Optional[Callable[[Mapping[str, Any]], None]] = None


_REGISTRY: Dict[str, RouterDescriptor] = {}
_BUILTIN_MODULES = ("repro.federation.routers",)
_builtins_loaded = False


def _ensure_builtins() -> None:
    """Import the built-in router modules exactly once (lazily)."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    _builtins_loaded = True


def register_router(name: str, summary: str,
                    validate_params: Optional[Callable[[Mapping[str, Any]], None]] = None):
    """Class decorator registering a :class:`GlobalRouterPolicy`.

    Usage::

        @register_router("nearest-site", "lowest WAN latency from origin")
        class NearestSiteRouter(GlobalRouterPolicy):
            ...

    Re-registering a name is an error unless it is the exact same class
    (idempotent under re-import).
    """
    def decorator(cls):
        existing = _REGISTRY.get(name)
        if existing is not None and existing.factory is not cls:
            raise ValueError(f"router {name!r} is already registered")
        cls.name = name
        _REGISTRY[name] = RouterDescriptor(
            name=name, summary=summary, factory=cls,
            validate_params=validate_params,
        )
        return cls
    return decorator


def get_router(name: str) -> RouterDescriptor:
    """Look up a router descriptor by registry name."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown router policy {name!r}; available: {router_names()}"
        ) from None


def router_names() -> List[str]:
    """Sorted names of every registered router policy."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def describe_routers() -> Dict[str, str]:
    """``{name: summary}`` for every registered router policy."""
    _ensure_builtins()
    return {name: _REGISTRY[name].summary for name in sorted(_REGISTRY)}


def validate_router(name: str, params: Mapping[str, Any]) -> None:
    """Eagerly validate a router name and its parameters.

    Called from ``FederationSpec.__post_init__`` so a bad router
    configuration fails at spec-construction time, not mid-sweep.
    """
    try:
        descriptor = get_router(name)
    except KeyError as exc:
        raise ValueError(str(exc)) from None
    if descriptor.validate_params is not None:
        descriptor.validate_params(params)


def build_router(name: str, context: RouterContext,
                 params: Optional[Mapping[str, Any]] = None) -> GlobalRouterPolicy:
    """Instantiate the named router policy against a live federation."""
    descriptor = get_router(name)
    return descriptor.factory(context, dict(params or {}))


__all__ = [
    "GlobalRouterPolicy",
    "RouterContext",
    "RouterDescriptor",
    "register_router",
    "get_router",
    "router_names",
    "describe_routers",
    "validate_router",
    "build_router",
]
