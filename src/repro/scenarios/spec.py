"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a complete, JSON-serialisable description of
one run of the reproduction: which functions receive traffic, how their
arrival rates evolve, how the cluster and controller are configured,
which metrics to collect, and the master seed.  Specs are plain frozen
dataclasses — building one performs full validation, and
``from_dict(spec.to_dict())`` round-trips exactly — so scenarios can be
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
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.core.allocation.reclamation import ReclamationPolicy
from repro.core.policy import validate_policy
from repro.faults.spec import FaultSpec
from repro.federation.spec import FederationSpec
from repro.workloads.schedules import (
    RampSchedule,
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

#: Valid ``kind`` values for :class:`ScheduleSpec` and their required params.
_SCHEDULE_KINDS: Dict[str, Tuple[str, ...]] = {
    "static": ("rate",),
    "steps": ("steps",),
    "staircase": ("rates", "step_duration"),
    "ramp": ("points",),
    "trace": ("counts",),
    "azure": ("config", "duration_minutes", "seed", "index"),
}


def canonical_json(obj: Any) -> str:
    """Serialise ``obj`` to the canonical JSON used for byte-comparisons.

    Keys are sorted and separators fixed, so two runs that produce equal
    data structures produce equal bytes — this is the representation the
    parallel-equals-serial sweep guarantee is stated over.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _finite_positive(value: float) -> bool:
    """True for a finite number above zero (False for NaN and ±inf)."""
    return math.isfinite(value) and value > 0


def _validate_trace_replay_params(params: Mapping[str, Any]) -> None:
    """Eagerly validate the ``params`` of a ``trace_replay`` scenario.

    A replay spec fans out to many shards under the resilient runner, so
    every numeric knob is checked at construction — a typo'd population
    or an inverted ``function_range`` must fail *before* any shard runs,
    not minutes into a sharded sweep.  An unknown key is refused by name
    too, so a spec written for an older replay (one that still sized a
    percentile reservoir) fails instead of being carried along unread.
    """
    required = ("population", "trace_seed", "duration_minutes",
                "chunk_minutes", "function_range")
    missing = [key for key in required if key not in params]
    if missing:
        raise ValueError(f"trace_replay params missing keys: {missing}")
    unknown = sorted(key for key in params if key not in required)
    if unknown:
        raise ValueError(f"trace_replay params has unknown keys: {unknown}")
    population = params["population"]
    if not isinstance(population, Mapping):
        raise ValueError("trace_replay params.population must be a mapping")
    for key in ("functions", "seed", "sporadic_fraction",
                "rate_log10_mean", "rate_log10_sigma"):
        if key not in population:
            raise ValueError(f"trace_replay population missing key {key!r}")
    functions = int(population["functions"])
    if functions < 1:
        raise ValueError("trace_replay population.functions must be >= 1")
    if not 0.0 <= float(population["sporadic_fraction"]) <= 1.0:
        raise ValueError("trace_replay population.sporadic_fraction must be in [0, 1]")
    if not math.isfinite(float(population["rate_log10_mean"])):
        raise ValueError("trace_replay population.rate_log10_mean must be finite")
    sigma = float(population["rate_log10_sigma"])
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError("trace_replay population.rate_log10_sigma must be "
                         "finite and non-negative")
    if int(params["duration_minutes"]) < 1:
        raise ValueError("trace_replay duration_minutes must be >= 1")
    if int(params["chunk_minutes"]) < 1:
        raise ValueError("trace_replay chunk_minutes must be >= 1")
    function_range = params["function_range"]
    if len(tuple(function_range)) != 2:
        raise ValueError("trace_replay function_range must be a [lo, hi) pair")
    lo, hi = (int(v) for v in function_range)
    if not 0 <= lo < hi <= functions:
        raise ValueError(
            f"trace_replay function_range [{lo}, {hi}) must satisfy "
            f"0 <= lo < hi <= population.functions ({functions})"
        )


def _freeze(value: Any) -> Any:
    """Recursively convert lists to tuples so frozen specs hash/compare stably."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return {k: _freeze(v) for k, v in value.items()}
    return value


def _thaw(value: Any) -> Any:
    """Recursively convert tuples back to lists for JSON serialisation."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    if isinstance(value, dict):
        return {k: _thaw(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class ScheduleSpec:
    """Serializable description of a :class:`~repro.workloads.schedules.RateSchedule`.

    ``kind`` selects the schedule family; ``params`` carries its
    arguments (see ``_SCHEDULE_KINDS`` for the required keys per kind).
    The ``azure`` kind synthesises a per-minute trace at build time with
    the same deterministic seeding as
    :func:`repro.workloads.azure.synthesize_azure_traces`.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Validate the kind and its required params; freeze the params mapping."""
        if self.kind not in _SCHEDULE_KINDS:
            raise ValueError(
                f"unknown schedule kind {self.kind!r}; valid: {sorted(_SCHEDULE_KINDS)}"
            )
        missing = [key for key in _SCHEDULE_KINDS[self.kind] if key not in self.params]
        if missing:
            raise ValueError(f"schedule kind {self.kind!r} missing params: {missing}")
        object.__setattr__(self, "params", _freeze(dict(self.params)))

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
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-ready) view of this schedule spec."""
        return {"kind": self.kind, "params": _thaw(dict(self.params))}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScheduleSpec":
        """Rebuild a schedule spec from :meth:`to_dict` output."""
        return cls(kind=data["kind"], params=dict(data.get("params", {})))

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
        if self.kind == "ramp":
            return RampSchedule([tuple(pt) for pt in p["points"]], duration=p.get("duration"))
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
class WorkloadSpec:
    """One function's workload: a catalogue function plus an arrival schedule.

    ``service_time`` optionally overrides the catalogue's mean service
    time (the micro-benchmark is configured this way per experiment).
    """

    function: str
    schedule: ScheduleSpec
    slo_deadline: Optional[float] = 0.1
    weight: float = 1.0
    user: str = "default"
    service_time: Optional[float] = None

    def __post_init__(self) -> None:
        """Validate the workload's numeric fields."""
        if not _finite_positive(self.weight):
            raise ValueError("weight must be positive and finite")
        if self.slo_deadline is not None and not _finite_positive(self.slo_deadline):
            raise ValueError("slo_deadline must be positive and finite (or None)")
        if self.service_time is not None and not _finite_positive(self.service_time):
            raise ValueError("service_time must be positive and finite (or None)")

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

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-ready) view of this workload spec."""
        return {
            "function": self.function,
            "schedule": self.schedule.to_dict(),
            "slo_deadline": self.slo_deadline,
            "weight": self.weight,
            "user": self.user,
            "service_time": self.service_time,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        """Rebuild a workload spec from :meth:`to_dict` output."""
        return cls(
            function=data["function"],
            schedule=ScheduleSpec.from_dict(data["schedule"]),
            slo_deadline=data.get("slo_deadline"),
            weight=float(data.get("weight", 1.0)),
            user=data.get("user", "default"),
            service_time=data.get("service_time"),
        )


@dataclass(frozen=True)
class ClusterSpec:
    """Serializable view of :class:`~repro.cluster.cluster.ClusterConfig`.

    Defaults reproduce the paper's 3-node × (4 vCPU, 16 GB) testbed.
    """

    node_count: int = 3
    cpu_per_node: float = 4.0
    memory_per_node_mb: float = 16 * 1024.0
    cold_start_latency: float = 0.5
    resize_latency: float = 0.0

    def build(self) -> ClusterConfig:
        """Instantiate the live :class:`ClusterConfig`."""
        from repro.cluster.cluster import ClusterConfig

        return ClusterConfig(**dataclasses.asdict(self))

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-ready) view."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClusterSpec":
        """Rebuild from :meth:`to_dict` output (missing keys take defaults)."""
        return cls(**{f.name: data[f.name] for f in dataclasses.fields(cls) if f.name in data})


#: The :class:`ControllerSpec` fields that must be finite numbers.
_CONTROLLER_FLOATS = (
    "epoch_length",
    "rate_sample_interval",
    "long_window",
    "short_window",
    "burst_factor",
    "ewma_alpha",
    "percentile",
    "deflation_threshold",
    "deflation_increment",
)


@dataclass(frozen=True)
class ControllerSpec:
    """Serializable view of the scenario's control plane.

    ``policy`` names the registered control-plane policy to run
    (see :mod:`repro.core.policy`; default ``"lass"``) and
    ``policy_params`` carries its policy-specific configuration —
    both validated eagerly at spec construction, so a typo'd policy
    or parameter set fails before any shard runs.  The remaining
    fields mirror :class:`~repro.core.controller.ControllerConfig`
    (consumed by the LaSS policy; other policies read only the shared
    knobs they care about and take the rest from ``policy_params``).
    ``reclamation`` is stored as the reclamation policy's string value
    (``"termination"`` / ``"deflation"``) so specs stay plain JSON.
    """

    policy: str = "lass"
    policy_params: Mapping[str, Any] = field(default_factory=dict)
    epoch_length: float = 10.0
    rate_sample_interval: float = 5.0
    long_window: float = 120.0
    short_window: float = 10.0
    burst_factor: float = 2.0
    ewma_alpha: float = 0.7
    percentile: float = 0.95
    reclamation: str = "deflation"
    deflation_threshold: float = 0.3
    deflation_increment: float = 0.05
    lazy_termination: bool = True
    placement_strategy: str = "best_fit"
    subtract_service_percentile: bool = False
    online_learning: bool = True

    def __post_init__(self) -> None:
        """Validate the float knobs and the reclamation + control-plane policy."""
        for name in _CONTROLLER_FLOATS:
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"controller.{name} must be a finite number; got {value!r}")
        # the ranges ControllerConfig checks, here so a bad spec fails before any run
        if not self.epoch_length > 0:
            raise ValueError("epoch_length must be positive")
        if not self.rate_sample_interval > 0:
            raise ValueError("rate_sample_interval must be positive")
        if not 0 < self.percentile < 1:
            raise ValueError("percentile must be in (0, 1)")
        for name in ("policy", "reclamation"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ValueError(f"controller.{name} must be a string; got {value!r}")
        ReclamationPolicy(self.reclamation)  # validates the policy name
        object.__setattr__(self, "policy_params", _freeze(dict(self.policy_params)))
        validate_policy(self.policy, self.policy_params)

    def build(self) -> ControllerConfig:
        """Instantiate the live :class:`ControllerConfig` (LaSS's knobs)."""
        from repro.core.controller import ControllerConfig

        kwargs = dataclasses.asdict(self)
        kwargs.pop("policy")
        kwargs.pop("policy_params")
        kwargs["reclamation"] = ReclamationPolicy(kwargs["reclamation"])
        return ControllerConfig(**kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-ready) view.

        The ``policy`` / ``policy_params`` fields are serialised only
        when non-default, so every pre-policy spec — and therefore every
        results envelope that echoes one — keeps its exact historical
        bytes.  ``from_dict`` fills the defaults back in, and sweep
        overrides may still create the two paths explicitly (they are
        whitelisted in :func:`repro.scenarios.sweep.apply_overrides`).
        """
        data = dataclasses.asdict(self)
        params = _thaw(dict(self.policy_params))
        if self.policy == "lass":
            data.pop("policy")
        if params:
            data["policy_params"] = params
        else:
            data.pop("policy_params")
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ControllerSpec":
        """Rebuild from :meth:`to_dict` output (missing keys take defaults)."""
        return cls(**{f.name: data[f.name] for f in dataclasses.fields(cls) if f.name in data})


@dataclass(frozen=True)
class AllocationSpec:
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

    containers: Optional[int] = None
    sizing: Optional[Mapping[str, Any]] = None
    deflation_plan: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        """Validate the containers/sizing choice and freeze the plan."""
        if (self.containers is None) == (self.sizing is None):
            raise ValueError("exactly one of containers / sizing must be set")
        if self.containers is not None and self.containers < 1:
            raise ValueError("containers must be >= 1")
        if self.sizing is not None:
            sizing = dict(self.sizing)
            model = sizing.get("model")
            if model not in ("mmc", "heterogeneous"):
                raise ValueError(f"unknown sizing model {model!r}")
            if model == "heterogeneous" and self.deflation_plan is not None:
                raise ValueError("heterogeneous sizing derives its own deflation plan")
            object.__setattr__(self, "sizing", _freeze(sizing))
        if self.deflation_plan is not None:
            object.__setattr__(self, "deflation_plan",
                               tuple(float(f) for f in self.deflation_plan))

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-ready) view."""
        return {
            "containers": self.containers,
            "sizing": _thaw(dict(self.sizing)) if self.sizing is not None else None,
            "deflation_plan": list(self.deflation_plan) if self.deflation_plan else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AllocationSpec":
        """Rebuild from :meth:`to_dict` output."""
        plan = data.get("deflation_plan")
        return cls(
            containers=data.get("containers"),
            sizing=data.get("sizing"),
            deflation_plan=tuple(plan) if plan else None,
        )


@dataclass(frozen=True)
class ScenarioSpec:
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
        one cluster.  Federated scenarios size their clusters per site
        (``cluster`` must stay ``None``), take only *site-level* faults
        (``site_blackouts`` / ``wan_partitions``), and do not support
        the ``timeline`` / ``guaranteed_cpu`` metric groups or
        ``user_weights``.
    """

    name: str
    kind: str = "simulate"
    description: str = ""
    workloads: Tuple[WorkloadSpec, ...] = ()
    cluster: Optional[ClusterSpec] = None
    controller: ControllerSpec = field(default_factory=ControllerSpec)
    allocation: Optional[AllocationSpec] = None
    duration: float = 300.0
    warmup: float = 0.0
    seed: int = 1
    user_weights: Optional[Mapping[str, float]] = None
    warm_start: Mapping[str, int] = field(default_factory=dict)
    metrics: Tuple[str, ...] = ("waiting", "slo", "utilization", "counters")
    params: Mapping[str, Any] = field(default_factory=dict)
    extra_drain: float = 5.0
    faults: Optional[FaultSpec] = None
    federation: Optional[FederationSpec] = None
    #: which data plane executes the request lifecycle: ``"event"`` (the
    #: default and oracle) or ``"columnar"`` (the vectorized kernel; falls
    #: back to the event plane for policies without a columnar plan).
    #: Both produce byte-identical results envelopes.
    data_plane: str = "event"

    def __post_init__(self) -> None:
        """Validate the scenario and freeze its collections."""
        if not self.name:
            raise ValueError("scenario name must be non-empty")
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
        if self.data_plane not in ("event", "columnar"):
            raise ValueError(
                f"unknown data_plane {self.data_plane!r}; valid: 'event', 'columnar'"
            )
        if not _finite_positive(self.duration):
            raise ValueError("duration must be positive and finite")
        if not (math.isfinite(self.warmup) and self.warmup >= 0):
            raise ValueError("warmup must be non-negative and finite")
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
        unknown = [m for m in self.metrics if m not in KNOWN_METRICS]
        if unknown:
            raise ValueError(f"unknown metrics {unknown}; valid: {KNOWN_METRICS}")
        if self.kind == "trace_replay":
            if self.workloads:
                raise ValueError("kind 'trace_replay' synthesises its own workloads")
            _validate_trace_replay_params(self.params)
        if self.faults is not None:
            if self.faults.is_empty():
                # normalise: an empty schedule IS the healthy scenario, and
                # must serialise (and hash) identically to faults=None
                object.__setattr__(self, "faults", None)
            elif self.kind != "simulate":
                raise ValueError("faults are only supported for kind 'simulate'")
        if self.federation is not None and not isinstance(self.federation, FederationSpec):
            object.__setattr__(self, "federation",
                               FederationSpec.from_dict(self.federation))
        if self.federation is not None:
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
            unsupported = [m for m in self.metrics
                           if m in ("timeline", "guaranteed_cpu")]
            if unsupported:
                raise ValueError(
                    f"federated scenarios do not support metrics {unsupported}"
                )
            site_names = set(self.federation.site_names())
            for function, site in self.federation.origins.items():
                if function not in names:
                    raise ValueError(
                        f"federation.origins names unknown function {function!r}"
                    )
            if self.faults is not None:
                if self.faults.has_node_faults():
                    raise ValueError(
                        "federated scenarios take site-level faults only "
                        "(site_blackouts / wan_partitions)"
                    )
                for blackout in self.faults.site_blackouts:
                    if blackout.site not in site_names:
                        raise ValueError(
                            f"site_blackouts references unknown site {blackout.site!r}"
                        )
                    if (blackout.rejoin_nodes is not None
                            and blackout.rejoin_nodes
                            > self.federation.site(blackout.site).node_count):
                        raise ValueError(
                            f"site {blackout.site!r}: rejoin_nodes="
                            f"{blackout.rejoin_nodes} exceeds node_count"
                        )
                for partition in self.faults.wan_partitions:
                    if partition.site not in site_names:
                        raise ValueError(
                            f"wan_partitions references unknown site {partition.site!r}"
                        )
        elif self.faults is not None and self.faults.has_site_faults():
            raise ValueError(
                "site-level faults (site_blackouts / wan_partitions) require "
                "a federation spec"
            )
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        object.__setattr__(self, "warm_start", _freeze(dict(self.warm_start)))
        object.__setattr__(self, "params", _freeze(dict(self.params)))
        if self.user_weights is not None:
            object.__setattr__(self, "user_weights", _freeze(dict(self.user_weights)))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-ready) view of the whole scenario.

        ``data_plane`` is serialised only when non-default, so every
        pre-columnar spec — and every results envelope echoing one —
        keeps its exact historical bytes.
        """
        data = {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "workloads": [w.to_dict() for w in self.workloads],
            "cluster": self.cluster.to_dict() if self.cluster is not None else None,
            "controller": self.controller.to_dict(),
            "allocation": self.allocation.to_dict() if self.allocation else None,
            "duration": self.duration,
            "warmup": self.warmup,
            "seed": self.seed,
            "user_weights": _thaw(dict(self.user_weights)) if self.user_weights else None,
            "warm_start": _thaw(dict(self.warm_start)),
            "metrics": list(self.metrics),
            "params": _thaw(dict(self.params)),
            "extra_drain": self.extra_drain,
            "faults": self.faults.to_dict() if self.faults is not None else None,
        }
        if self.data_plane != "event":
            data["data_plane"] = self.data_plane
        if self.federation is not None:
            data["federation"] = self.federation.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild (and re-validate) a scenario from :meth:`to_dict` output."""
        schema = data.get("schema", SCENARIO_SCHEMA)
        if schema != SCENARIO_SCHEMA:
            raise ValueError(f"unsupported scenario schema {schema!r}")
        allocation = data.get("allocation")
        return cls(
            name=data["name"],
            kind=data.get("kind", "simulate"),
            description=data.get("description", ""),
            workloads=tuple(WorkloadSpec.from_dict(w) for w in data.get("workloads", ())),
            cluster=(ClusterSpec.from_dict(data["cluster"])
                     if data.get("cluster") is not None else None),
            controller=ControllerSpec.from_dict(data.get("controller", {})),
            allocation=AllocationSpec.from_dict(allocation) if allocation else None,
            duration=float(data.get("duration", 300.0)),
            warmup=float(data.get("warmup", 0.0)),
            seed=int(data.get("seed", 1)),
            user_weights=data.get("user_weights"),
            warm_start=data.get("warm_start", {}),
            metrics=tuple(data.get("metrics", ("waiting", "slo", "utilization", "counters"))),
            params=data.get("params", {}),
            extra_drain=float(data.get("extra_drain", 5.0)),
            faults=(FaultSpec.from_dict(data["faults"])
                    if data.get("faults") is not None else None),
            federation=(FederationSpec.from_dict(data["federation"])
                        if data.get("federation") is not None else None),
            data_plane=data.get("data_plane", "event"),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON text of :meth:`to_dict` (canonical when ``indent`` is None)."""
        if indent is None:
            return canonical_json(self.to_dict())
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a spec from JSON text (inverse of :meth:`to_json`)."""
        return cls.from_dict(json.loads(text))


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
