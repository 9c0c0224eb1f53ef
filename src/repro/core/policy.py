"""The control-plane policy abstraction: every controller is a pluggable policy.

The paper's evaluation is *comparative* — LaSS's model-driven allocation
against vanilla OpenWhisk, static allocation, and reactive autoscaling —
so the reproduction treats every control plane as an interchangeable
:class:`ControlPolicy`.  A policy owns the controller lifecycle contract
(data path, control loop, fault hooks) and is constructed by a factory
registered under a short name (``"lass"``, ``"openwhisk"``,
``"reactive"``, ``"static"``, ``"hybrid"``, ``"noop"``); the
:class:`~repro.simulation.SimulationRunner` builds whichever policy a
scenario names, which is what lets any policy run under any workload,
cluster, fault schedule, and sweep.

The lifecycle contract
----------------------
``start()``
    Begin the policy's periodic loops (epoch ticks, snapshot ticks).
    Called once by the runner after prewarming, before the workload.
``dispatch(request)``
    The data path: handle one arriving invocation (route it to a
    container or queue it).  Every policy must record the request in its
    metrics collector so waiting-time/SLO accounting works uniformly.
    Every built-in policy but vanilla OpenWhisk inherits it from
    :class:`~repro.core.dispatch.SharedQueuePolicy`, the paper's one data
    path (a shared FCFS queue per function feeding idle containers by
    weighted round robin), and writes only its control loop.
``run_epoch()``
    One synchronous control-loop pass (optional; the default is a
    no-op).  Exposed so tests and ablations can step the control plane
    manually.
``on_node_failed(node_name, salvaged)`` / ``on_node_recovered(node_name)``
    / ``on_container_crashed(container, salvaged)``
    The fault hooks driven by :class:`~repro.faults.injector.FaultInjector`.
    ``salvaged`` are still-``QUEUED`` requests rescued from evicted
    containers.  The defaults hand them to ``_requeue_salvaged``, which
    a federation site's rejoin also calls with the requests it parked
    during a blackout.  Its default here does nothing;
    :class:`~repro.core.dispatch.SharedQueuePolicy` requeues them at the
    head of its shared queue and vanilla OpenWhisk parks them until a
    container of their function warms up.
``set_dispatch_interceptor(fn)``
    Install the fault injector's crash-on-dispatch interceptor at the
    policy's dispatch choke point.  The default raises (no choke point);
    a shared-queue policy wires it to its dispatcher, and vanilla
    OpenWhisk to its own submission point.
``columnar_plan()``
    What lets the columnar kernel stand in for the policy's data path, or
    ``None`` (the default: the run stays on the event plane).  Only
    :class:`~repro.core.dispatch.SharedQueuePolicy` publishes one, derived
    from the same hooks its event-plane data path calls.
``control_stats()``
    What the control path cost on this host — epochs ticked, wall-clock
    p50 / p95 of ``run_epoch``, the sizing solver's counters — or
    ``None`` for a policy whose loop never ran an epoch.  In memory only
    (:attr:`repro.simulation.SimulationResult.control_stats`): host time
    never enters a results envelope.
``results_extra()``
    Optional ``(group_name, payload)`` contributed to the scenario
    results envelope (the OpenWhisk policy reports its invoker-failure
    cascade this way).  ``None`` (the default) adds nothing, so LaSS
    envelopes are byte-identical to the pre-policy layout.

Registry
--------
Policies register a *factory* with :func:`register_policy`; the factory
receives a :class:`PolicyContext` (the already-wired engine, cluster,
and metrics plus the controller configuration and service-time
knowledge) and the scenario's ``policy_params`` mapping, and returns the
constructed policy.  ``lass`` is registered here, with a factory that
imports the controller only when it builds one; the other built-ins live
in :mod:`repro.policies` and are imported on the first lookup of a name
the registry lacks (or of the full list).  Third-party code registers
its own the same way::

    from repro.core.policy import ControlPolicy, register_policy

    @register_policy("mine", "my experimental scaler")
    def _build(context, params):
        return MyPolicy(context.engine, context.cluster, context.metrics, **params)

and then runs it with ``ScenarioSpec(controller=ControllerSpec(policy="mine"))``.
"""

from __future__ import annotations

import abc
import importlib
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)


class ControlPolicy(abc.ABC):
    """Base class for every control plane the simulator can run.

    Concrete policies must implement :meth:`start` and :meth:`dispatch`;
    the remaining lifecycle methods have safe defaults documented in the
    module docstring.  A policy over the shared-queue data path
    subclasses :class:`~repro.core.dispatch.SharedQueuePolicy` instead,
    which implements :meth:`dispatch` and the dispatcher-backed hooks.
    """

    #: Registry name of the policy class (informational; the registry's
    #: descriptor name is authoritative).
    name: ClassVar[str] = ""

    #: The policy's own :class:`~repro.core.queueing.solver.SizingSolver`,
    #: when it has one (its counters are reported by :meth:`control_stats`).
    solver: Optional[Any] = None

    #: Wall-clock seconds of every periodic :meth:`run_epoch`, in tick
    #: order; ``None`` until the first tick.
    epoch_seconds: Optional[List[float]] = None

    # -- lifecycle -----------------------------------------------------
    @abc.abstractmethod
    def start(self) -> None:
        """Begin the policy's periodic control/snapshot loops."""

    @abc.abstractmethod
    def dispatch(self, request: Any) -> None:
        """Handle one arriving invocation request (the data path)."""

    def run_epoch(self) -> Any:
        """Run one synchronous control-loop pass (default: no-op)."""
        return None

    def _timed_epoch(self) -> None:
        """A periodic tick's :meth:`run_epoch`, between one ``perf_counter`` pair."""
        start = perf_counter()
        self.run_epoch()
        elapsed = perf_counter() - start
        if self.epoch_seconds is None:
            self.epoch_seconds = []
        self.epoch_seconds.append(elapsed)

    def control_stats(self) -> Optional[Dict[str, Any]]:
        """The epoch's cost on this host, or ``None`` if no epoch ever ticked."""
        seconds = self.epoch_seconds
        if not seconds:
            return None
        from repro.metrics.percentiles import percentile

        return {
            "epochs": len(seconds),
            "epoch_ms_p50": percentile(seconds, 0.50) * 1e3,
            "epoch_ms_p95": percentile(seconds, 0.95) * 1e3,
            "solver": None if self.solver is None else asdict(self.solver.stats),
        }

    # -- fault hooks (driven by repro.faults.injector) ------------------
    def on_node_failed(self, node_name: str, salvaged: Sequence[Any]) -> None:
        """React to a node failure; default: requeue the salvaged requests."""
        self._requeue_salvaged(salvaged)

    def on_node_recovered(self, node_name: str) -> None:
        """React to a node recovery; default: nothing (capacity returns as room)."""

    def on_container_crashed(self, container: Any, salvaged: Sequence[Any]) -> None:
        """React to a container crash; default: requeue the salvaged requests."""
        self._requeue_salvaged(salvaged)

    def _requeue_salvaged(self, salvaged: Sequence[Any]) -> None:
        """Take back rescued still-queued requests (default: nothing)."""

    def set_dispatch_interceptor(
        self, interceptor: Callable[[Any, Any], bool]
    ) -> None:
        """Install a crash-on-dispatch interceptor at the dispatch choke point.

        The interceptor is called with ``(request, container)`` for every
        request handed to a container and returns ``False`` when it
        disposed of the request (container crashed).  A policy without a
        choke point refuses, so crash faults cannot silently miss it.
        """
        raise ValueError(
            f"policy {type(self).__name__} has no dispatch choke point; "
            "crash-on-dispatch faults are not supported for it"
        )

    # -- columnar data plane -------------------------------------------
    def columnar_plan(self) -> Optional[Any]:
        """This policy's data path for the columnar kernel; ``None`` keeps the event plane.

        :class:`~repro.core.dispatch.SharedQueuePolicy` is the only
        policy shape the kernel can stand in for (see
        :class:`~repro.sim.columnar.ColumnarPlan`).
        """
        return None

    # -- results -------------------------------------------------------
    def results_extra(self) -> Optional[Tuple[str, Dict[str, Any]]]:
        """Optional ``(group_name, payload)`` added to the results envelope."""
        return None


@dataclass
class PolicyContext:
    """Everything a policy factory may need, already wired by the runner.

    Attributes
    ----------
    engine / cluster / metrics:
        The shared simulation engine, the edge cluster, and the run's
        metrics collector.
    config:
        The scenario's :class:`~repro.core.controller.ControllerConfig`.
        LaSS consumes it wholesale; other policies may read the shared
        knobs (e.g. ``percentile``) and take the rest of their
        configuration from ``policy_params``.
    scheduling_tree:
        Optional explicit fair-share hierarchy (LaSS only).
    service_profiles / default_service_rates:
        Offline service-time knowledge per function, for model-driven
        policies.
    """

    engine: Any
    cluster: Any
    metrics: Any
    config: Optional[Any] = None
    scheduling_tree: Optional[Any] = None
    service_profiles: Mapping[str, Any] = field(default_factory=dict)
    default_service_rates: Mapping[str, float] = field(default_factory=dict)


#: A policy factory: ``(context, params) -> ControlPolicy``.
PolicyFactory = Callable[[PolicyContext, Mapping[str, Any]], ControlPolicy]


@dataclass(frozen=True)
class PolicyDescriptor:
    """One registry entry: a named policy factory plus its metadata.

    Attributes
    ----------
    name / summary:
        Registry name and one-line description (shown by the CLI).
    factory:
        Builds the policy from a :class:`PolicyContext` and the
        scenario's ``policy_params``.
    validate_params:
        Optional eager validator called at *spec construction* time, so
        a sweep with a typo'd ``policy_params`` fails before any shard
        runs.  Receives the params mapping; raises ``ValueError``.
    """

    name: str
    summary: str
    factory: PolicyFactory
    validate_params: Optional[Callable[[Mapping[str, Any]], None]] = None


_REGISTRY: Dict[str, PolicyDescriptor] = {}

#: Modules imported on the first lookup of a name the registry lacks;
#: importing them registers the other built-in policies (openwhisk,
#: reactive, static, hybrid, noop).  ``lass`` is registered in this module.
_BUILTIN_MODULES: Tuple[str, ...] = ("repro.policies",)
_builtins_loaded = False


def _ensure_builtins() -> None:
    """Import the built-in policy modules once, registering their factories.

    The loaded flag is only set after every import succeeds, so a failed
    import surfaces its real error on every lookup instead of poisoning
    the registry with a misleading "unknown policy" message.
    """
    global _builtins_loaded
    if _builtins_loaded:
        return
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    _builtins_loaded = True


def register_policy(
    name: str,
    summary: str,
    validate_params: Optional[Callable[[Mapping[str, Any]], None]] = None,
) -> Callable[[PolicyFactory], PolicyFactory]:
    """Decorator: register a policy factory under ``name``.

    The decorated callable receives ``(context, params)`` and returns a
    :class:`ControlPolicy`.  Registering the same name twice is an error
    (re-importing a module is not: the identical factory is tolerated).
    """

    def wrap(factory: PolicyFactory) -> PolicyFactory:
        """Store the descriptor in the registry and return the factory."""
        existing = _REGISTRY.get(name)
        if existing is not None and existing.factory is not factory:
            raise ValueError(f"policy {name!r} registered twice")
        _REGISTRY[name] = PolicyDescriptor(
            name=name,
            summary=summary,
            factory=factory,
            validate_params=validate_params,
        )
        return factory

    return wrap


def get_policy(name: str) -> PolicyDescriptor:
    """Look up a policy descriptor by name.

    The built-ins are loaded only for a name the registry lacks, so
    validating the default ``"lass"`` (registered below) imports no
    policy module.
    """
    descriptor = _REGISTRY.get(name)
    if descriptor is None:
        _ensure_builtins()
        descriptor = _REGISTRY.get(name)
    if descriptor is None:
        raise KeyError(f"unknown policy {name!r}; available: {policy_names()}")
    return descriptor


def policy_names() -> List[str]:
    """The registered policy names, sorted."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def describe_policies() -> List[Tuple[str, str]]:
    """``(name, summary)`` rows for every registered policy, sorted."""
    _ensure_builtins()
    return [(d.name, d.summary) for d in sorted(_REGISTRY.values(), key=lambda d: d.name)]


def config_from_params(config_cls: type, policy_name: str,
                       params: Mapping[str, Any]) -> Any:
    """Construct a policy's config dataclass from ``policy_params``.

    Turns the ``TypeError`` an unknown keyword raises into the
    ``ValueError`` the spec-validation layer expects, with a uniform
    message.  Used both by the eager ``validate_params`` hooks and the
    factories themselves.
    """
    try:
        return config_cls(**params)
    except TypeError as error:
        raise ValueError(
            f"invalid {policy_name} policy_params: {error}"
        ) from None


def validate_policy(name: str, params: Mapping[str, Any]) -> None:
    """Validate a policy name + params pair (used at spec construction).

    Raises ``ValueError`` for an unknown name or params the policy's
    eager validator rejects, so bad specs fail before any shard runs.
    """
    try:
        descriptor = get_policy(name)
    except KeyError as error:
        raise ValueError(str(error.args[0])) from None
    if descriptor.validate_params is not None:
        descriptor.validate_params(params)


def build_policy(
    name: str, context: PolicyContext, params: Optional[Mapping[str, Any]] = None
) -> ControlPolicy:
    """Construct the named policy from its registered factory."""
    descriptor = get_policy(name)
    return descriptor.factory(context, dict(params or {}))


def _no_lass_params(params: Mapping[str, Any]) -> None:
    """Eager params check: LaSS is configured via the ControllerSpec fields."""
    if params:
        raise ValueError(
            "policy 'lass' takes no policy_params — configure it through the "
            f"ControllerSpec/ControllerConfig fields; got {sorted(params)}"
        )


@register_policy(
    "lass",
    "the paper's control plane: model-driven sizing, fair share, reclamation",
    validate_params=_no_lass_params,
)
def _build_lass(context: PolicyContext, params: Mapping[str, Any]) -> ControlPolicy:
    """Registry factory for the LaSS controller (imported only when built)."""
    from repro.core.controller import LassController

    _no_lass_params(params)
    return LassController(
        engine=context.engine,
        cluster=context.cluster,
        config=context.config,
        scheduling_tree=context.scheduling_tree,
        metrics=context.metrics,
        service_profiles=dict(context.service_profiles),
        default_service_rates=dict(context.default_service_rates),
    )


__all__ = [
    "ControlPolicy",
    "PolicyContext",
    "PolicyDescriptor",
    "PolicyFactory",
    "build_policy",
    "config_from_params",
    "describe_policies",
    "get_policy",
    "policy_names",
    "register_policy",
    "validate_policy",
]
