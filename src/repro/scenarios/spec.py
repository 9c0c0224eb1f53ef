"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a complete, JSON-serialisable description of
one run of the reproduction: which functions receive traffic, how their
arrival rates evolve, how the cluster and controller are configured,
which metrics to collect, and the master seed.  Specs are plain frozen
dataclasses whose fields are declared once in the spec layer's field
table (:mod:`repro.spec_fields`) — building one parses and validates
every field, and ``from_dict(spec.to_dict())`` round-trips to the byte —
so scenarios can be
stored as data (in the registry, in ``.json`` files, in sweep grids)
instead of as bespoke experiment scripts.

Scenario kinds
--------------
``simulate``
    A full controller-driven run (:class:`~repro.simulation.SimulationRunner`):
    workloads → dispatch → containers under the scenario's control-plane
    policy (``controller.policy``, default the LaSS epoch loop; any
    registered policy — ``openwhisk``, ``reactive``, ``static``,
    ``hybrid``, ``noop``, or a third-party registration — drops in).
    This is the kind user-defined scenarios normally use.
``fixed``
    A single function against a *fixed* container allocation
    (:func:`~repro.simulation.run_fixed_allocation`), with the container
    count either given explicitly or derived from a queueing model at
    run time.  The model-validation experiments (Figures 3 and 4) are
    sweeps of this kind.
``deflation_curve``
    Evaluate (or measure) the service-time-vs-deflation response of a
    set of functions (Figure 7).
``catalogue``
    No simulation: dump the Table 1 function catalogue.
``trace_replay``
    No discrete-event simulation: stream one shard of an Azure-scale
    synthetic trace population through the constant-memory replay
    kernel (:mod:`repro.scenarios.trace_shard`).  ``params`` carries
    the population/replay knobs — validated eagerly here so a bad
    replay spec fails before any shard runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.core.policy import validate_policy
from repro.faults.spec import FaultSpec
from repro.federation.spec import FederationSpec
from repro.spec_fields import (
    ANY,
    Count,
    Flag,
    Kind,
    Many,
    Maybe,
    Nested,
    Number,
    Spec,
    Table,
    Text,
    canonical_json,
    check_keys,
    freeze,
    spec_field,
)
from repro.workloads.schedules import (
    RateSchedule,
    StaticRate,
    StepSchedule,
    TraceSchedule,
)

if TYPE_CHECKING:
    from repro.cluster.cluster import ClusterConfig
    from repro.core.controller import ControllerConfig
    from repro.workloads.functions import FunctionProfile
    from repro.workloads.generator import WorkloadBinding

#: Schema identifier embedded in serialised specs (bump on breaking change).
SCENARIO_SCHEMA = "repro/scenario@1"

#: The scenario kinds the runner knows how to execute.
SCENARIO_KINDS = (
    "simulate",
    "fixed",
    "deflation_curve",
    "catalogue",
    "trace_replay",
)

#: Kinds that drive the discrete-event simulator (and therefore need workloads).
SIMULATION_KINDS = ("simulate", "fixed")

#: Metric groups a scenario may request in its results.
KNOWN_METRICS = (
    "waiting",
    "slo",
    "utilization",
    "counters",
    "timeline",
    "guaranteed_cpu",
    "generated",
)

#: Valid ``kind`` values for :class:`ScheduleSpec`: (required, optional) params.
_SCHEDULE_KINDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "static": (("rate",), ("duration",)),
    "steps": (("steps",), ("duration",)),
    "staircase": (("rates", "step_duration"), ("start",)),
    "trace": (("counts",), ("interval", "start")),
    "azure": (("config", "duration_minutes", "seed", "index"), ()),
}

#: The values of :class:`~repro.core.allocation.reclamation.ReclamationPolicy`.
_RECLAMATION_POLICIES = ("termination", "deflation")

#: The ``params`` of a ``deflation_curve`` scenario (each optional: the runner has defaults).
_DEFLATION_CURVE_PARAMS = {"functions": Many(Text(nonempty=True)),
                           "deflation_ratios": Many(Number("in [0, 1)")), "measured": Flag()}


#: The ``params`` of a ``trace_replay`` scenario, by kind (the population apart).
_REPLAY_PARAMS = {"trace_seed": Count(0), "duration_minutes": Count(1),
                  "chunk_minutes": Count(1), "function_range": Many(Count(0))}

#: The keys of a replay's ``params.population``, by kind.
_REPLAY_POPULATION = {"functions": Count(1), "seed": Count(0),
                      "sporadic_fraction": Number("in [0, 1]"), "rate_log10_mean": Number(),
                      "rate_log10_sigma": Number("non-negative")}


def _validate_trace_replay_params(params: Mapping[str, Any]) -> None:
    """Eagerly validate the ``params`` of a ``trace_replay`` scenario.

    A replay spec fans out to many shards under the resilient runner, so
    every knob is checked at construction, by the field table's kinds —
    a typo'd population, a fractional seed or an inverted
    ``function_range`` must fail *before* any shard runs, not minutes
    into a sharded sweep (or, worse, run truncated).  An unknown key is
    refused by name too, so a spec written for an older replay (one that
    still sized a percentile reservoir) fails instead of being carried
    along unread.
    """
    check_keys("trace_replay params", params, ("population",) + tuple(_REPLAY_PARAMS))
    population = params["population"]
    if not isinstance(population, Mapping):
        raise ValueError("trace_replay params.population must be a mapping")
    check_keys("trace_replay population", population, tuple(_REPLAY_POPULATION))
    for key, kind in _REPLAY_POPULATION.items():
        kind.parse(population[key], f"trace_replay population.{key}")
    for key, kind in _REPLAY_PARAMS.items():
        kind.parse(params[key], f"trace_replay {key}")
    functions = population["functions"]
    function_range = tuple(params["function_range"])
    if len(function_range) != 2 or not function_range[0] < function_range[1] <= functions:
        raise ValueError(
            f"trace_replay function_range {list(function_range)} must be a [lo, hi) "
            f"pair with 0 <= lo < hi <= population.functions ({functions})"
        )


class _ScheduleParam(Kind):
    """A schedule param: a list or mapping as written, a scalar a finite number."""

    def parse(self, value: Any, label: str) -> Any:
        if value is not None and not isinstance(value, (list, tuple, Mapping)):
            Number().parse(value, label)  # refuses a bool, a str, NaN, ±inf
        return freeze(value)


@dataclass(frozen=True)
class ScheduleSpec(Spec):
    """Serializable description of a :class:`~repro.workloads.schedules.RateSchedule`.

    ``kind`` selects the schedule family; ``params`` carries its
    arguments (see ``_SCHEDULE_KINDS`` for the params per kind).
    The ``azure`` kind synthesises a per-minute trace at build time with
    the same deterministic seeding as
    :func:`repro.workloads.azure.synthesize_azure_traces`.
    """

    PREFIX = "schedule."

    kind: str = spec_field(Text(choices=tuple(_SCHEDULE_KINDS)))
    params: Mapping[str, Any] = spec_field(Table(_ScheduleParam()), {})

    def __post_init__(self) -> None:
        """Parse the fields; the kind's required params must be there, and no others."""
        super().__post_init__()
        check_keys(f"schedule kind {self.kind!r} params", self.params,
                   *_SCHEDULE_KINDS[self.kind])

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def static(cls, rate: float, duration: Optional[float] = None) -> "ScheduleSpec":
        """A constant-rate schedule."""
        return cls("static", {"rate": rate, "duration": duration})

    @classmethod
    def staircase(cls, rates: Sequence[float], step_duration: float,
                  start: float = 0.0) -> "ScheduleSpec":
        """Equal-duration steps through ``rates`` (Figure 6 style)."""
        return cls("staircase", {"rates": tuple(rates), "step_duration": step_duration,
                                 "start": start})

    @classmethod
    def steps(cls, steps: Sequence[Tuple[float, float]],
              duration: Optional[float] = None) -> "ScheduleSpec":
        """Piecewise-constant ``(time, rate)`` steps (Figure 8 style)."""
        return cls("steps", {"steps": tuple(tuple(s) for s in steps), "duration": duration})

    @classmethod
    def azure(cls, config: Mapping[str, Any], duration_minutes: int, seed: int,
              index: int) -> "ScheduleSpec":
        """A synthetic Azure-like per-minute trace (Figure 9 style).

        ``index`` is the function's position in the sorted trace set; it
        selects the spawn key of the trace RNG so a set of specs
        reproduces :func:`~repro.workloads.azure.synthesize_azure_traces`
        exactly.
        """
        return cls("azure", {"config": dict(config), "duration_minutes": duration_minutes,
                             "seed": seed, "index": index})

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self) -> RateSchedule:
        """Instantiate the live :class:`RateSchedule` this spec describes."""
        p = dict(self.params)
        if self.kind == "static":
            return StaticRate(float(p["rate"]), duration=p.get("duration"))
        if self.kind == "steps":
            return StepSchedule([tuple(s) for s in p["steps"]], duration=p.get("duration"))
        if self.kind == "staircase":
            return StepSchedule.staircase(list(p["rates"]), float(p["step_duration"]),
                                          start=float(p.get("start", 0.0)))
        if self.kind == "trace":
            return TraceSchedule(list(p["counts"]), interval=float(p.get("interval", 60.0)),
                                 start=float(p.get("start", 0.0)))
        if self.kind == "azure":
            import numpy as np

            from repro.workloads.azure import AzureTraceConfig, synthesize_azure_trace

            config = AzureTraceConfig(**dict(p["config"]))
            rng = np.random.default_rng(
                np.random.SeedSequence(int(p["seed"]), spawn_key=(int(p["index"]),))
            )
            counts = synthesize_azure_trace(config, int(p["duration_minutes"]), rng)
            return TraceSchedule(counts, interval=60.0)
        raise AssertionError(f"unreachable schedule kind {self.kind!r}")


@dataclass(frozen=True)
class WorkloadSpec(Spec):
    """One function's workload: a catalogue function plus an arrival schedule.

    ``service_time`` optionally overrides the catalogue's mean service
    time (the micro-benchmark is configured this way per experiment).
    """

    function: str = spec_field(Text(nonempty=True))
    schedule: ScheduleSpec = spec_field(Nested(ScheduleSpec))
    slo_deadline: Optional[float] = spec_field(Maybe(Number("positive")), 0.1)
    weight: float = spec_field(Number("positive"), 1.0)
    user: str = spec_field(Text(), "default")
    service_time: Optional[float] = spec_field(Maybe(Number("positive")), None)

    def build_profile(self) -> FunctionProfile:
        """Resolve the catalogue profile, applying the service-time override."""
        from repro.workloads.functions import get_function, microbenchmark

        if self.service_time is None:
            return get_function(self.function)
        if self.function == "microbenchmark":
            return microbenchmark(self.service_time)
        return get_function(self.function).with_service_time(self.service_time)

    def build(self) -> WorkloadBinding:
        """Instantiate the live :class:`WorkloadBinding` this spec describes."""
        from repro.workloads.generator import WorkloadBinding

        return WorkloadBinding(
            profile=self.build_profile(),
            schedule=self.schedule.build(),
            slo_deadline=self.slo_deadline,
            weight=self.weight,
            user=self.user,
        )


@dataclass(frozen=True)
class ClusterSpec(Spec):
    """Serializable view of :class:`~repro.cluster.cluster.ClusterConfig`.

    Defaults reproduce the paper's 3-node × (4 vCPU, 16 GB) testbed.
    """

    PREFIX = "cluster."

    node_count: int = spec_field(Count(1), 3)
    cpu_per_node: float = spec_field(Number("positive"), 4.0)
    memory_per_node_mb: float = spec_field(Number("positive"), 16 * 1024.0)
    cold_start_latency: float = spec_field(Number("non-negative"), 0.5)
    resize_latency: float = spec_field(Number("non-negative"), 0.0)

    def build(self) -> ClusterConfig:
        """Instantiate the live :class:`ClusterConfig`."""
        from repro.cluster.cluster import ClusterConfig

        return ClusterConfig(**dataclasses.asdict(self))


@dataclass(frozen=True)
class ControllerSpec(Spec):
    """Serializable view of the scenario's control plane.

    ``policy`` names the registered control-plane policy to run
    (see :mod:`repro.core.policy`; default ``"lass"``) and
    ``policy_params`` carries its policy-specific configuration —
    both validated eagerly at spec construction, so a typo'd policy
    or parameter set fails before any shard runs.  Both are echoed only
    when non-default, so every pre-policy spec — and every results
    envelope that echoes one — keeps its exact historical bytes.  The
    remaining fields mirror :class:`~repro.core.controller.ControllerConfig`
    (consumed by the LaSS policy; other policies read only the shared
    knobs they care about and take the rest from ``policy_params``).
    ``reclamation`` is stored as the reclamation policy's string value
    (``"termination"`` / ``"deflation"``) so specs stay plain JSON.
    """

    PREFIX = "controller."
    #: what echoes carried until the field was deleted: the sizing switches
    #: at any value, the two retired modes at their one value in use
    RETIRED = {"use_fast_sizing": ANY, "sizing_cache": ANY, "sizing_warm_start": ANY,
               "placement_strategy": "best_fit", "subtract_service_percentile": False}

    policy: str = spec_field(Text(), "lass", omit_default=True)
    policy_params: Mapping[str, Any] = spec_field(Table(ANY), {}, omit_default=True)
    epoch_length: float = spec_field(Number("positive"), 10.0)
    rate_sample_interval: float = spec_field(Number("positive"), 5.0)
    long_window: float = spec_field(Number("positive"), 120.0)
    short_window: float = spec_field(Number("positive"), 10.0)
    burst_factor: float = spec_field(Number("greater than 1"), 2.0)
    ewma_alpha: float = spec_field(Number("in (0, 1]"), 0.7)
    percentile: float = spec_field(Number("in (0, 1)"), 0.95)
    reclamation: str = spec_field(Text(choices=_RECLAMATION_POLICIES), "deflation")
    deflation_threshold: float = spec_field(Number("in (0, 1)"), 0.3)
    deflation_increment: float = spec_field(Number("positive"), 0.05)
    lazy_termination: bool = spec_field(Flag(), True)
    online_learning: bool = spec_field(Flag(), True)

    def __post_init__(self) -> None:
        """Parse the fields; check the window and deflation pairs and the policy's params."""
        super().__post_init__()
        if not self.short_window < self.long_window:
            raise ValueError("controller.short_window must be shorter than controller.long_window")
        if not self.deflation_increment <= self.deflation_threshold:
            raise ValueError("controller.deflation_increment must not exceed deflation_threshold")
        validate_policy(self.policy, self.policy_params)

    def build(self) -> ControllerConfig:
        """Instantiate the live :class:`ControllerConfig` (LaSS's knobs)."""
        from repro.core.allocation.reclamation import ReclamationPolicy
        from repro.core.controller import ControllerConfig

        kwargs = dataclasses.asdict(self)
        kwargs.pop("policy")
        kwargs.pop("policy_params")
        kwargs["reclamation"] = ReclamationPolicy(kwargs["reclamation"])
        return ControllerConfig(**kwargs)


#: The keys each sizing model requires (``percentile`` is optional).
_SIZING_MODELS = {"mmc": ("model",),
                  "heterogeneous": ("model", "deflated_proportion", "deflation_fraction")}

#: The numeric sizing keys, by kind.
_SIZING_KEYS = {"percentile": Number("in (0, 1)"),
                "deflated_proportion": Number("in [0, 1]"),
                "deflation_fraction": Number("in [0, 1)")}


@dataclass(frozen=True)
class AllocationSpec(Spec):
    """Fixed-allocation policy for ``kind="fixed"`` scenarios.

    Exactly one of ``containers`` (explicit count) or ``sizing``
    (model-derived count) must be given.  ``sizing`` maps are either::

        {"model": "mmc", "percentile": 0.95}

    — size with the M/M/c model from the workload's static rate, service
    rate, and SLO deadline (the Figure 3 atom) — or::

        {"model": "heterogeneous", "percentile": 0.95,
         "deflated_proportion": 0.5, "deflation_fraction": 0.3}

    — first size homogeneously, deflate that proportion of the
    containers by ``deflation_fraction``, then add standard containers
    per the heterogeneous model (the Figure 4 atom).

    ``deflation_plan`` optionally gives explicit per-container CPU
    fractions applied after warm-up (mutually exclusive with the
    ``heterogeneous`` model, which derives its own plan).
    """

    containers: Optional[int] = spec_field(Maybe(Count(1)), None)
    sizing: Optional[Mapping[str, Any]] = spec_field(Maybe(Table(ANY)), None)
    deflation_plan: Optional[Tuple[float, ...]] = spec_field(Maybe(Many(Number())), None)

    def __post_init__(self) -> None:
        """Parse the fields; exactly one of containers / sizing, and a known model."""
        super().__post_init__()
        if (self.containers is None) == (self.sizing is None):
            raise ValueError("exactly one of containers / sizing must be set")
        if self.sizing is not None:
            model = self.sizing.get("model")
            if model not in _SIZING_MODELS:
                raise ValueError(f"unknown sizing model {model!r}")
            check_keys(f"sizing model {model!r}", self.sizing, _SIZING_MODELS[model],
                       ("percentile",))
            for key, kind in _SIZING_KEYS.items():
                if key in self.sizing:
                    kind.parse(self.sizing[key], f"sizing.{key}")
            if model == "heterogeneous" and self.deflation_plan is not None:
                raise ValueError("heterogeneous sizing derives its own deflation plan")


@dataclass(frozen=True)
class ScenarioSpec(Spec):
    """A complete, serialisable description of one scenario run.

    Attributes
    ----------
    name:
        Identifier echoed into the results envelope.
    kind:
        Execution mode; one of :data:`SCENARIO_KINDS`.
    workloads:
        The functions and schedules driving the run (simulation kinds).
    cluster / controller:
        Cluster sizing and controller parameters.  ``cluster=None`` means
        the kind's default: the paper's 3-node testbed for
        ``simulate``, and an auto-sized isolation cluster
        (big enough that placement never constrains the queueing
        behaviour) for ``fixed``.
    allocation:
        Fixed-allocation policy (``kind="fixed"`` only).
    duration:
        Simulated seconds of workload.
    warmup:
        Seconds excluded from waiting-time/SLO accounting (start-up
        transient).
    seed:
        Master seed for every RNG stream of the run.
    user_weights:
        Optional explicit user weights; builds the two-level fair-share
        tree from the workloads' ``user`` fields (Figure 9 style).
    warm_start:
        Containers created (and warmed) per function before t=0.
    metrics:
        Which metric groups to include in the results (see
        :data:`KNOWN_METRICS`).
    params:
        Kind-specific extras (e.g. the sizing-benchmark grid).
    extra_drain:
        Seconds the event loop runs past the horizon so in-flight
        requests complete.
    faults:
        Optional :class:`~repro.faults.spec.FaultSpec` (``simulate``
        kind only): node failures/recoveries, container
        crash-on-dispatch, cold-start latency distributions.  An
        *empty* fault spec is normalised to ``None`` at construction,
        so a faults-disabled scenario serialises — and therefore runs
        and reports — byte-identically to the healthy scenario.
    federation:
        Optional :class:`~repro.federation.spec.FederationSpec`
        (``simulate`` kind, event data plane only): run the workloads
        across N federated edge sites under a global router instead of
        one cluster.  Federated scenarios size their clusters and name
        their policies per site (``cluster`` must stay ``None`` and
        ``controller.policy`` ``"lass"``), take only *site-level* faults
        (``site_blackouts`` / ``wan_partitions``), and do not support
        the ``timeline`` / ``guaranteed_cpu`` metric groups or
        ``user_weights``.  Echoed only when set.
    data_plane:
        Which data plane executes the request lifecycle: ``"event"``
        (the default and oracle) or ``"columnar"`` (the vectorized
        kernel; falls back to the event plane for policies without a
        columnar plan).  Both produce byte-identical results envelopes;
        echoed only when not ``"event"``, so every pre-columnar
        envelope keeps its exact historical bytes.
    """

    SCHEMA = SCENARIO_SCHEMA

    name: str = spec_field(Text(nonempty=True))
    kind: str = spec_field(Text(), "simulate")
    description: str = spec_field(Text(), "")
    workloads: Tuple[WorkloadSpec, ...] = spec_field(Many(Nested(WorkloadSpec)), ())
    cluster: Optional[ClusterSpec] = spec_field(Maybe(Nested(ClusterSpec)), None)
    controller: ControllerSpec = spec_field(Nested(ControllerSpec), {})
    allocation: Optional[AllocationSpec] = spec_field(Maybe(Nested(AllocationSpec)), None)
    duration: float = spec_field(Number("positive"), 300.0)
    warmup: float = spec_field(Number("non-negative"), 0.0)
    seed: int = spec_field(Count(0), 1)
    user_weights: Optional[Mapping[str, float]] = spec_field(
        Maybe(Table(Number("positive"))), None)
    warm_start: Mapping[str, int] = spec_field(Table(Count(0)), {})
    metrics: Tuple[str, ...] = spec_field(Many(Text(choices=KNOWN_METRICS)),
                                          ("waiting", "slo", "utilization", "counters"))
    params: Mapping[str, Any] = spec_field(Table(ANY), {})
    extra_drain: float = spec_field(Number("non-negative"), 5.0)
    faults: Optional[FaultSpec] = spec_field(Maybe(Nested(FaultSpec)), None)
    federation: Optional[FederationSpec] = spec_field(
        Maybe(Nested(FederationSpec)), None, omit_default=True)
    data_plane: str = spec_field(Text(choices=("event", "columnar")), "event",
                                 omit_default=True)

    def __post_init__(self) -> None:
        """Parse the fields; check the kind, workloads and federation gates against each other."""
        super().__post_init__()
        if self.kind not in SCENARIO_KINDS:
            from repro.core.policy import policy_names

            hint = ""
            if self.kind in policy_names():
                # a control plane is a policy of the simulate kind, not a kind
                hint = (f'; {self.kind!r} is a control-plane policy: use '
                        f'kind="simulate" with controller.policy="{self.kind}"')
            raise ValueError(
                f"unknown scenario kind {self.kind!r}; valid: {SCENARIO_KINDS}{hint}"
            )
        if self.kind in SIMULATION_KINDS and not self.workloads:
            raise ValueError(f"kind {self.kind!r} requires at least one workload")
        if self.kind == "fixed":
            if len(self.workloads) != 1:
                raise ValueError("kind 'fixed' takes exactly one workload")
            if self.allocation is None:
                raise ValueError("kind 'fixed' requires an allocation spec")
        elif self.allocation is not None:
            raise ValueError("allocation is only valid for kind 'fixed'")
        names = [w.function for w in self.workloads]
        if len(set(names)) != len(names):
            raise ValueError("duplicate function names in workloads")
        for function in self.warm_start:
            if function not in names:
                raise ValueError(f"warm_start names unknown function {function!r}")
        if self.kind == "trace_replay":
            if self.workloads:
                raise ValueError("kind 'trace_replay' synthesises its own workloads")
            _validate_trace_replay_params(self.params)
        elif self.kind == "deflation_curve":   # a misspelt key would run on the defaults
            check_keys("deflation_curve params", self.params, (), tuple(_DEFLATION_CURVE_PARAMS))
            for key, value in self.params.items():
                _DEFLATION_CURVE_PARAMS[key].parse(value, f"deflation_curve {key}")
        if self.faults is not None:
            if self.faults.is_empty():
                # normalise: an empty schedule IS the healthy scenario, and
                # must serialise (and hash) identically to faults=None
                object.__setattr__(self, "faults", None)
            elif self.kind != "simulate":
                raise ValueError("faults are only supported for kind 'simulate'")
        if self.federation is not None:
            self._check_federation(names)
        elif self.faults is not None and self.faults.has_site_faults():
            raise ValueError(
                "site-level faults (site_blackouts / wan_partitions) require "
                "a federation spec"
            )

    def _check_federation(self, names: Sequence[str]) -> None:
        """The federation gates: what a federated scenario may not carry."""
        federation = self.federation
        if self.kind != "simulate":
            raise ValueError("federation is only supported for kind 'simulate'")
        if self.data_plane != "event":
            raise ValueError("federated scenarios require data_plane='event'")
        if self.cluster is not None:
            raise ValueError(
                "federated scenarios size their clusters per site; cluster must be None"
            )
        if self.user_weights is not None:
            raise ValueError("federated scenarios do not support user_weights")
        if self.controller.policy != "lass" or self.controller.policy_params:
            raise ValueError(
                "federated scenarios name their policies per site "
                "(federation.sites[i].policy); controller.policy must stay 'lass'"
            )
        unsupported = [m for m in self.metrics if m in ("timeline", "guaranteed_cpu")]
        if unsupported:
            raise ValueError(f"federated scenarios do not support metrics {unsupported}")
        for function in federation.origins:
            if function not in names:
                raise ValueError(f"federation.origins names unknown function {function!r}")
        if self.faults is None:
            return
        if self.faults.has_node_faults():
            raise ValueError(
                "federated scenarios take site-level faults only "
                "(site_blackouts / wan_partitions)"
            )
        site_names = set(federation.site_names())
        for blackout in self.faults.site_blackouts:
            if blackout.site not in site_names:
                raise ValueError(f"site_blackouts references unknown site {blackout.site!r}")
            if (blackout.rejoin_nodes is not None
                    and blackout.rejoin_nodes > federation.site(blackout.site).node_count):
                raise ValueError(
                    f"site {blackout.site!r}: rejoin_nodes="
                    f"{blackout.rejoin_nodes} exceeds node_count"
                )
        for partition in self.faults.wan_partitions:
            if partition.site not in site_names:
                raise ValueError(f"wan_partitions references unknown site {partition.site!r}")


__all__ = [
    "SCENARIO_SCHEMA",
    "SCENARIO_KINDS",
    "SIMULATION_KINDS",
    "KNOWN_METRICS",
    "canonical_json",
    "ScheduleSpec",
    "WorkloadSpec",
    "ClusterSpec",
    "ControllerSpec",
    "AllocationSpec",
    "ScenarioSpec",
]
