"""Declarative fault schedules: what goes wrong, and when.

A :class:`FaultSpec` describes every failure a scenario injects into the
simulated cluster — as *data*, exactly like the rest of the scenario
layer (:mod:`repro.scenarios.spec`): plain frozen dataclasses, full
validation on construction, and an exact ``from_dict(spec.to_dict())``
JSON round-trip.  The live machinery that turns a spec into engine
events is :class:`repro.faults.injector.FaultInjector`.

Three fault families are modelled:

* **Node failures** (:class:`NodeFailureSpec`) — a worker node crashes
  at an explicit simulation time and (optionally) recovers later.  All
  containers on the node are evicted: the request each was *running* is
  failed, while requests still *queued* at its FCFS queues survive and
  are requeued to the controller's shared per-function queues.
* **Container crash-on-dispatch** — with probability
  ``crash_probability`` a container crashes at the moment the dispatcher
  hands it a request (modelling OOM-killed or segfaulting function
  processes).  The dispatched request fails; the container's queued
  requests are requeued.
* **Cold-start latency distributions** (:class:`ColdStartSpec`) — the
  constant ``ClusterConfig.cold_start_latency`` is replaced by a
  per-container random draw, exposing the controller to realistic
  provisioning jitter.

Determinism contract
--------------------
Fault schedules never break seed-stability: node events fire at the
explicit times in the spec, and both the crash and cold-start draws come
from dedicated :class:`~repro.sim.rng.RngStreams` streams
(``"faults:crash"`` and ``"faults:coldstart"``), consumed in event
order.  A run with a ``FaultSpec`` is therefore a pure function of
``(scenario, seed)``, exactly like a healthy run — the metamorphic
tests in ``tests/test_faults.py`` pin this.

An *empty* fault spec (no failures, zero crash probability, no
cold-start override) is indistinguishable from no fault spec at all:
:class:`~repro.scenarios.spec.ScenarioSpec` normalises it to ``None``,
so the results JSON is byte-identical to the healthy scenario's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.spec_fields import (
    Count, Many, Maybe, Nested, Number, Spec, Table, Text, check_keys, spec_field,
)

#: Valid ``kind`` values for :class:`ColdStartSpec` and their required params.
_COLD_START_KINDS: Dict[str, Tuple[str, ...]] = {
    "constant": ("latency",),
    "uniform": ("low", "high"),
    "lognormal": ("mu", "sigma"),
}

#: A fault's name field and its start time.
_NAME, _START = Text(nonempty=True), Number("non-negative")


def _check_end(spec: Any, start: str, end: str) -> None:
    """Refuse an end time (``None``: never) that is not after its start."""
    if getattr(spec, end) is not None and not getattr(spec, start) < getattr(spec, end):
        raise ValueError(f"{end} ({getattr(spec, end)}) must be after "
                         f"{start} ({getattr(spec, start)})")


@dataclass(frozen=True)
class NodeFailureSpec(Spec):
    """One scheduled node failure (and optional recovery).

    Attributes
    ----------
    node:
        Name of the node that fails (``"node-0"``, ``"node-1"``, ... for
        config-built clusters).  Unknown names fail loudly when the
        injector attaches to the cluster, not silently at runtime.
    fail_at:
        Simulation time of the failure, in seconds.
    recover_at:
        Simulation time the node comes back (empty, at full capacity),
        or ``None`` for a permanent failure.
    """

    node: str = spec_field(_NAME)
    fail_at: float = spec_field(_START)
    recover_at: Optional[float] = spec_field(Maybe(Number()), None)

    def __post_init__(self) -> None:
        """Parse the fields; the recovery must follow the failure."""
        super().__post_init__()
        _check_end(self, "fail_at", "recover_at")


@dataclass(frozen=True)
class SiteBlackoutSpec(Spec):
    """One scheduled whole-site blackout (and optional rejoin).

    A blackout takes *every* node of a federated site down at once: all
    running requests on the site fail, queued-but-undispatched requests
    are salvaged and **parked at the federation level** until the site
    rejoins (requeue-at-head on recovery).  While dark, the global
    router treats the site as absent.

    Attributes
    ----------
    site:
        Name of the federated site that goes dark (must exist in the
        scenario's :class:`~repro.federation.spec.FederationSpec`).
    fail_at:
        Simulation time of the blackout, in seconds.
    recover_at:
        Simulation time the site rejoins, or ``None`` for permanent loss.
    rejoin_nodes:
        Number of nodes the site rejoins with (``None`` = all of them).
        A site may come back *smaller* than it left — this is exactly
        the case the site-scoped
        :class:`~repro.metrics.availability.AvailabilityTracker` mode
        exists for: warm-capacity recovery targets are clamped to the
        rejoined capacity instead of dangling forever.
    """

    site: str = spec_field(_NAME)
    fail_at: float = spec_field(_START)
    recover_at: Optional[float] = spec_field(Maybe(Number()), None)
    rejoin_nodes: Optional[int] = spec_field(Maybe(Count(1)), None)

    def __post_init__(self) -> None:
        """Parse the fields; the rejoin must follow the blackout and carry a time."""
        super().__post_init__()
        _check_end(self, "fail_at", "recover_at")
        if self.rejoin_nodes is not None and self.recover_at is None:
            raise ValueError("rejoin_nodes requires recover_at (a rejoin time)")


@dataclass(frozen=True)
class WanPartitionSpec(Spec):
    """One scheduled WAN partition of a federated site.

    A partition is *not* a blackout: the global router loses sight of
    the site (it stops scoring it and redirects around it), but the
    site's **local control loop keeps running** — locally-originating
    arrivals are still dispatched by the site's own
    :class:`~repro.core.policy.ControlPolicy`, containers stay warm, and
    requests complete.  On heal, the site's metrics envelope merges back
    into the federation aggregate byte-deterministically.

    Attributes
    ----------
    site:
        Name of the partitioned site.
    start_at:
        Simulation time the partition starts, in seconds.
    heal_at:
        Simulation time the partition heals, or ``None`` if it never does.
    """

    site: str = spec_field(_NAME)
    start_at: float = spec_field(_START)
    heal_at: Optional[float] = spec_field(Maybe(Number()), None)

    def __post_init__(self) -> None:
        """Parse the fields; the heal must follow the partition."""
        super().__post_init__()
        _check_end(self, "start_at", "heal_at")


def _validate_windows(kind: str, windows: Sequence[Any], key_of: Callable[[Any], str],
                      start_of: Callable[[Any], float],
                      end_of: Callable[[Any], Optional[float]]) -> None:
    """Reject overlapping or post-permanent failure windows per key.

    Shared by node failures, site blackouts, and WAN partitions: within
    one node/site, windows must be disjoint and nothing may follow a
    permanent (open-ended) window.  Overlap would let one window's
    recovery revive a node another window still holds down — a silent
    availability-accounting error — so it is a spec bug and fails here.
    """
    by_key: Dict[str, list] = {}
    for window in windows:
        by_key.setdefault(key_of(window), []).append(window)
    for key, keyed in by_key.items():
        keyed.sort(key=start_of)
        for earlier, later in zip(keyed, keyed[1:]):
            if end_of(earlier) is None:
                raise ValueError(
                    f"{kind} {key!r}: permanent window at t={start_of(earlier)} "
                    f"cannot be followed by another window"
                )
            if start_of(later) < end_of(earlier):
                raise ValueError(
                    f"{kind} {key!r}: windows overlap "
                    f"([{start_of(earlier)}, {end_of(earlier)}] and "
                    f"[{start_of(later)}, {end_of(later)}])"
                )


@dataclass(frozen=True)
class ColdStartSpec(Spec):
    """A cold-start latency distribution replacing the constant config value.

    ``kind`` selects the family; ``params`` carries its arguments:

    * ``"constant"`` — ``{"latency": s}`` (useful to override the
      cluster config without randomness);
    * ``"uniform"`` — ``{"low": s, "high": s}``;
    * ``"lognormal"`` — ``{"mu": m, "sigma": s}`` of the underlying
      normal (median latency ``exp(mu)`` seconds), the classic
      heavy-tailed shape of real container provisioning.
    """

    PREFIX = "cold_start."

    kind: str = spec_field(Text(choices=tuple(_COLD_START_KINDS)))
    params: Mapping[str, float] = spec_field(Table(Number()), {})

    def __post_init__(self) -> None:
        """Parse the fields; the kind's params, exactly, within their ranges."""
        super().__post_init__()
        check_keys(f"cold-start kind {self.kind!r} params", self.params,
                   _COLD_START_KINDS[self.kind])
        params = self.params
        if self.kind == "constant" and params["latency"] < 0:
            raise ValueError("constant cold-start latency must be non-negative")
        if self.kind == "uniform" and not 0 <= params["low"] <= params["high"]:
            raise ValueError("uniform cold-start needs 0 <= low <= high")
        if self.kind == "lognormal" and params["sigma"] < 0:
            raise ValueError("lognormal sigma must be non-negative")

    def build(self, rng: np.random.Generator) -> Callable[[], float]:
        """A sampler drawing one cold-start latency per call from ``rng``."""
        p = dict(self.params)
        if self.kind == "constant":
            latency = p["latency"]
            return lambda: latency
        if self.kind == "uniform":
            low, high = p["low"], p["high"]
            return lambda: float(rng.uniform(low, high))
        mu, sigma = p["mu"], p["sigma"]
        return lambda: float(rng.lognormal(mean=mu, sigma=sigma))


@dataclass(frozen=True)
class FaultSpec(Spec):
    """The complete fault schedule of one scenario.

    Attributes
    ----------
    node_failures:
        Scheduled node failures/recoveries, fired as engine events at
        :data:`~repro.sim.engine.SimulationEngine.PRIORITY_FAULT`.
    crash_probability:
        Per-dispatch probability that the chosen container crashes
        instead of accepting the request, in ``[0, 1)``.
    crash_functions:
        Restrict crash-on-dispatch to these functions (``None`` = all).
    cold_start:
        Optional cold-start latency distribution replacing the cluster
        config's constant.
    site_blackouts:
        Scheduled whole-site blackouts (federated scenarios only).
        Echoed only when non-empty, as is ``wan_partitions``, so every
        pre-federation spec keeps its exact historical bytes.
    wan_partitions:
        Scheduled WAN partitions (federated scenarios only).
    """

    node_failures: Tuple[NodeFailureSpec, ...] = spec_field(Many(Nested(NodeFailureSpec)), ())
    crash_probability: float = spec_field(Number("in [0, 1)"), 0.0)
    crash_functions: Optional[Tuple[str, ...]] = spec_field(Maybe(Many(Text())), None)
    cold_start: Optional[ColdStartSpec] = spec_field(Maybe(Nested(ColdStartSpec)), None)
    site_blackouts: Tuple[SiteBlackoutSpec, ...] = spec_field(
        Many(Nested(SiteBlackoutSpec)), (), omit_default=True)
    wan_partitions: Tuple[WanPartitionSpec, ...] = spec_field(
        Many(Nested(WanPartitionSpec)), (), omit_default=True)

    def __post_init__(self) -> None:
        """Parse the fields; per node or site, failure windows must be disjoint."""
        super().__post_init__()
        _validate_windows("node", self.node_failures, lambda f: f.node,
                          lambda f: f.fail_at, lambda f: f.recover_at)
        _validate_windows("site blackout", self.site_blackouts, lambda b: b.site,
                          lambda b: b.fail_at, lambda b: b.recover_at)
        _validate_windows("wan partition", self.wan_partitions, lambda p: p.site,
                          lambda p: p.start_at, lambda p: p.heal_at)

    def is_empty(self) -> bool:
        """Whether this spec injects nothing at all.

        Empty specs are normalised to ``None`` by
        :class:`~repro.scenarios.spec.ScenarioSpec`, which is what makes
        a faults-disabled run byte-identical to the healthy scenario.
        """
        return (not self.node_failures
                and self.crash_probability == 0.0
                and self.cold_start is None
                and not self.site_blackouts
                and not self.wan_partitions)

    def has_site_faults(self) -> bool:
        """Whether this spec contains federation-level (site) faults."""
        return bool(self.site_blackouts or self.wan_partitions)

    def has_node_faults(self) -> bool:
        """Whether this spec contains single-cluster (node/crash/cold) faults."""
        return (bool(self.node_failures)
                or self.crash_probability != 0.0
                or self.cold_start is not None)


def node_outage(node: str, fail_at: float, recover_at: Optional[float],
                *more: Sequence[Any]) -> FaultSpec:
    """Convenience builder: one (or more) node failure/recovery windows.

    ``more`` takes additional ``(node, fail_at, recover_at)`` triples::

        node_outage("node-1", 120.0, 240.0)
        node_outage("node-0", 60.0, 120.0, ("node-1", 180.0, 240.0))
    """
    failures = [NodeFailureSpec(node, fail_at, recover_at)]
    for entry in more:
        failures.append(NodeFailureSpec(*entry))
    return FaultSpec(node_failures=tuple(failures))


def site_blackout(site: str, fail_at: float, recover_at: Optional[float],
                  rejoin_nodes: Optional[int] = None) -> FaultSpec:
    """Convenience builder: one whole-site blackout window."""
    return FaultSpec(site_blackouts=(
        SiteBlackoutSpec(site, fail_at, recover_at, rejoin_nodes),
    ))


def wan_partition(site: str, start_at: float,
                  heal_at: Optional[float]) -> FaultSpec:
    """Convenience builder: one WAN-partition window."""
    return FaultSpec(wan_partitions=(WanPartitionSpec(site, start_at, heal_at),))


__all__ = [
    "NodeFailureSpec",
    "ColdStartSpec",
    "FaultSpec",
    "SiteBlackoutSpec",
    "WanPartitionSpec",
    "node_outage",
    "site_blackout",
    "wan_partition",
]
