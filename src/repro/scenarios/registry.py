"""The scenario registry: every paper experiment and example as data.

Each entry is a builder that returns a fully-validated
:class:`~repro.scenarios.spec.ScenarioSpec` or
:class:`~repro.scenarios.sweep.SweepSpec`.  The paper experiments
(``table1``, ``fig3`` … ``fig9``) are registered here — the modules
under :mod:`repro.experiments` are thin renderers over these specs —
all but ``fig5``, which times the sizing functions directly and so has
no spec (a wall-clock figure is not a pure function of one).  Beside
them sit this reproduction's own extensions (``fig10``, the
fault-injection recovery experiment, and ``fig11``/``policy-shootout``,
the control-plane policy comparison), the fault/recovery scenarios, and
the ``examples/`` workloads, so ``python -m repro scenario fig3`` and a
user-supplied ``spec.json`` go through exactly the same machinery.

Builders accept keyword overrides for their experiment's traditional
knobs (durations, seeds, grids), defaulting to the paper configuration.
The CLI's ``experiment`` verb enumerates its valid names from
:func:`experiment_names`, so the list can never drift from what is
actually registered (plus ``fig5``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.faults.spec import (
    ColdStartSpec,
    FaultSpec,
    NodeFailureSpec,
    SiteBlackoutSpec,
    WanPartitionSpec,
)
from repro.federation.spec import FederationSpec, SiteSpec
from repro.scenarios.spec import (
    AllocationSpec,
    ClusterSpec,
    ControllerSpec,
    ScenarioSpec,
    ScheduleSpec,
    WorkloadSpec,
)
from repro.scenarios.sweep import SweepSpec

#: What a registry builder returns.
SpecOrSweep = Union[ScenarioSpec, SweepSpec]

#: user → functions split used in the Figure 9 experiment (user-2 has 2× weight).
FIG9_USER_ASSIGNMENT: Dict[str, str] = {
    "shufflenet": "user-1",
    "geofence": "user-1",
    "image-resizer": "user-1",
    "mobilenet": "user-2",
    "squeezenet": "user-2",
    "binaryalert": "user-2",
}

#: Figure 9 user weights (under contention: user-1 ≈ 1/3, user-2 ≈ 2/3).
FIG9_USER_WEIGHTS: Dict[str, float] = {"user-1": 1.0, "user-2": 2.0}

#: Figure 9 per-function SLO deadlines (seconds); DNNs get looser deadlines.
FIG9_SLO_DEADLINES: Dict[str, float] = {
    "mobilenet": 0.5,
    "shufflenet": 0.3,
    "squeezenet": 0.2,
    "binaryalert": 0.1,
    "geofence": 0.1,
    "image-resizer": 0.15,
}


@dataclass(frozen=True)
class ScenarioEntry:
    """One registry entry: a named, tagged scenario/sweep builder."""

    name: str
    summary: str
    build: Callable[..., SpecOrSweep]
    tags: Tuple[str, ...] = ()


_REGISTRY: Dict[str, ScenarioEntry] = {}


def register(name: str, summary: str, tags: Sequence[str] = ()) -> Callable:
    """Decorator: register a builder function under ``name``."""

    def wrap(builder: Callable[..., SpecOrSweep]) -> Callable[..., SpecOrSweep]:
        """Store the builder in the registry and return it unchanged."""
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} registered twice")
        _REGISTRY[name] = ScenarioEntry(name=name, summary=summary,
                                        build=builder, tags=tuple(tags))
        return builder

    return wrap


def get_entry(name: str) -> ScenarioEntry:
    """Look up a registry entry by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def build(name: str, **params: Any) -> SpecOrSweep:
    """Build the named scenario/sweep, passing ``params`` to its builder."""
    return get_entry(name).build(**params)


def names(tag: Optional[str] = None) -> List[str]:
    """Registered names, optionally filtered by tag, in sorted order."""
    if tag is None:
        return sorted(_REGISTRY)
    return sorted(e.name for e in _REGISTRY.values() if tag in e.tags)


def experiment_names() -> List[str]:
    """The experiments (``table1``, ``fig3`` … ``fig12``), sorted.

    Every name is a ``paper``-tagged entry except ``fig5``, whose renderer
    times the sizing functions without a scenario spec.
    """
    return sorted(names(tag="paper") + ["fig5"])


def example_names() -> List[str]:
    """The registered example workloads, sorted."""
    return names(tag="example")


def describe() -> List[Tuple[str, str, str]]:
    """``(name, tags, summary)`` rows for every entry, sorted by name."""
    return [
        (e.name, ",".join(e.tags), e.summary)
        for e in sorted(_REGISTRY.values(), key=lambda e: e.name)
    ]


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
@register("table1", "Table 1: the function catalogue used in the evaluation",
          tags=("paper",))
def _table1() -> ScenarioSpec:
    """The catalogue dump (no simulation)."""
    return ScenarioSpec(
        name="table1",
        kind="catalogue",
        description="Table 1 function catalogue",
        metrics=(),
    )


# ----------------------------------------------------------------------
# Figure 3: model validation, homogeneous containers
# ----------------------------------------------------------------------
@register("fig3", "Figure 3: M/M/c model validation with homogeneous containers",
          tags=("paper",))
def _fig3(
    mus: Sequence[float] = (5.0, 10.0),
    slo_deadlines: Sequence[float] = (0.1, 0.2),
    arrival_rates: Sequence[float] = (10.0, 20.0, 30.0, 40.0, 50.0),
    duration: float = 300.0,
    percentile: float = 0.95,
    warmup: float = 20.0,
    seed: int = 3,
) -> SweepSpec:
    """The (μ, SLO, λ) grid of Figure 3 as a sweep of fixed-allocation runs.

    Shard seeds reproduce the historical harness exactly
    (``seed + λ + 7μ + 1000·SLO``), so the sweep's measurements are
    byte-identical to the pre-scenario experiment code.
    """
    base = ScenarioSpec(
        name="fig3",
        kind="fixed",
        description="M/M/c sizing validated against measured P95 waiting time",
        workloads=(
            WorkloadSpec(
                function="microbenchmark",
                schedule=ScheduleSpec.static(rate=10.0, duration=duration),
                slo_deadline=0.1,
                service_time=0.1,
            ),
        ),
        allocation=AllocationSpec(sizing={"model": "mmc", "percentile": percentile}),
        duration=duration,
        warmup=warmup,
        seed=seed,
        metrics=("waiting",),
    )
    points = []
    for mu in mus:
        for slo in slo_deadlines:
            for lam in arrival_rates:
                points.append({
                    "workloads.0.service_time": 1.0 / mu,
                    "workloads.0.slo_deadline": slo,
                    "workloads.0.schedule.params.rate": lam,
                    "seed": seed + int(lam) + int(mu * 7) + int(slo * 1000),
                })
    return SweepSpec(name="fig3", base=base, points=tuple(points),
                     description="Figure 3 (μ × SLO × λ) model-validation grid")


# ----------------------------------------------------------------------
# Figure 4: model validation, heterogeneous (deflated) containers
# ----------------------------------------------------------------------
@register("fig4", "Figure 4: heterogeneous-container model validation under deflation",
          tags=("paper",))
def _fig4(
    proportions: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    arrival_rates: Sequence[float] = (10.0, 20.0, 30.0, 40.0, 50.0,
                                      60.0, 70.0, 80.0, 90.0, 100.0),
    slo_deadline: float = 0.1,
    deflation_fraction: float = 0.3,
    duration: float = 240.0,
    percentile: float = 0.95,
    warmup: float = 20.0,
    seed: int = 4,
) -> SweepSpec:
    """The (deflated proportion, λ) grid of Figure 4 with legacy shard seeds."""
    base = ScenarioSpec(
        name="fig4",
        kind="fixed",
        description="Heterogeneous sizing (Alves et al.) after deflating a proportion "
                    "of SqueezeNet's containers",
        workloads=(
            WorkloadSpec(
                function="squeezenet",
                schedule=ScheduleSpec.static(rate=10.0, duration=duration),
                slo_deadline=slo_deadline,
            ),
        ),
        allocation=AllocationSpec(sizing={
            "model": "heterogeneous",
            "percentile": percentile,
            "deflated_proportion": 0.25,
            "deflation_fraction": deflation_fraction,
        }),
        duration=duration,
        warmup=warmup,
        seed=seed,
        metrics=("waiting",),
    )
    points = []
    for proportion in proportions:
        for lam in arrival_rates:
            points.append({
                "allocation.sizing.deflated_proportion": proportion,
                "workloads.0.schedule.params.rate": lam,
                "seed": seed + int(lam) + int(proportion * 100),
            })
    return SweepSpec(name="fig4", base=base, points=tuple(points),
                     description="Figure 4 (deflated proportion × λ) grid")


# ----------------------------------------------------------------------
# Figure 6: model-driven autoscaling under time-varying workloads
# ----------------------------------------------------------------------
def fig6_rate_profiles() -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """The paper's rate staircases for the two Figure 6 functions.

    First half: micro-benchmark 5→30→5 in steps of 5, MobileNet constant 3.
    Second half: micro-benchmark constant 5, MobileNet 3→8→3 in steps of 1.
    """
    micro_up = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    micro_down = (25.0, 20.0, 15.0, 10.0, 5.0)
    mobile_up = (3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
    mobile_down = (7.0, 6.0, 5.0, 4.0, 3.0)
    first_half_len = len(micro_up) + len(micro_down)
    second_half_len = len(mobile_up) + len(mobile_down)
    micro = micro_up + micro_down + (5.0,) * second_half_len
    mobile = (3.0,) * first_half_len + mobile_up + mobile_down
    return micro, mobile


@register("fig6", "Figure 6: model-driven autoscaling tracks two time-varying workloads",
          tags=("paper",))
def _fig6(step_duration: float = 60.0, seed: int = 6) -> ScenarioSpec:
    """The two-function staircase scenario on a roomy (pressure-free) cluster."""
    micro_rates, mobile_rates = fig6_rate_profiles()
    return ScenarioSpec(
        name="fig6",
        kind="simulate",
        description="Micro-benchmark and MobileNet staircases with no resource pressure",
        workloads=(
            WorkloadSpec(
                function="microbenchmark",
                schedule=ScheduleSpec.staircase(micro_rates, step_duration),
                slo_deadline=0.1,
                service_time=0.1,
            ),
            WorkloadSpec(
                function="mobilenet",
                schedule=ScheduleSpec.staircase(mobile_rates, step_duration),
                slo_deadline=0.5,
            ),
        ),
        cluster=ClusterSpec(node_count=6, cpu_per_node=8.0,
                            memory_per_node_mb=32 * 1024.0),
        controller=ControllerSpec(epoch_length=10.0),
        duration=step_duration * len(micro_rates),
        seed=seed,
        warm_start={"microbenchmark": 1, "mobilenet": 1},
        metrics=("waiting", "slo", "utilization", "counters", "timeline", "generated"),
    )


# ----------------------------------------------------------------------
# Figure 7: deflation response curves
# ----------------------------------------------------------------------
#: The six realistic functions shown in Figure 7 (micro-benchmark excluded).
FIG7_FUNCTIONS: Tuple[str, ...] = (
    "geofence",
    "binaryalert",
    "image-resizer",
    "squeezenet",
    "shufflenet",
    "mobilenet",
)


@register("fig7", "Figure 7: service time vs. CPU deflation for the six functions",
          tags=("paper",))
def _fig7(
    functions: Sequence[str] = FIG7_FUNCTIONS,
    deflation_ratios: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7),
    measured: bool = False,
    duration: float = 60.0,
    seed: int = 7,
) -> ScenarioSpec:
    """The deflation-response scenario (analytic by default, measured on request)."""
    return ScenarioSpec(
        name="fig7",
        kind="deflation_curve",
        description="Deflation slack: ≤30% deflation costs little except for MobileNet",
        params={
            "functions": tuple(functions),
            "deflation_ratios": tuple(float(r) for r in deflation_ratios),
            "measured": measured,
        },
        duration=duration,
        seed=seed,
        metrics=(),
    )


# ----------------------------------------------------------------------
# Figure 8: fair share and reclamation under staged overload
# ----------------------------------------------------------------------
def _fig8_base(phase_duration: float, seed: int,
               reclamation: str = "termination") -> ScenarioSpec:
    """The five-phase BinaryAlert + MobileNet overload scenario of §6.6."""
    duration = 5 * phase_duration
    return ScenarioSpec(
        name="fig8",
        kind="simulate",
        description="Staged overload: BinaryAlert ramps while MobileNet bursts past "
                    "its fair share",
        workloads=(
            WorkloadSpec(
                function="binaryalert",
                schedule=ScheduleSpec.steps(
                    [
                        (0.0, 50.0),
                        (2 * phase_duration, 70.0),
                        (3 * phase_duration, 240.0),
                        (4 * phase_duration, 240.0),
                    ],
                    duration=duration,
                ),
                slo_deadline=0.1,
                weight=1.0,
                user="user-1",
            ),
            WorkloadSpec(
                function="mobilenet",
                schedule=ScheduleSpec.steps(
                    [
                        (0.0, 0.0),
                        (phase_duration, 11.0),
                        (4 * phase_duration, 0.0),
                    ],
                    duration=duration,
                ),
                slo_deadline=0.5,
                weight=1.0,
                user="user-2",
            ),
        ),
        controller=ControllerSpec(epoch_length=10.0, reclamation=reclamation),
        duration=duration,
        seed=seed,
        warm_start={"binaryalert": 1},
        params={"phase_duration": phase_duration},
        metrics=("waiting", "slo", "utilization", "counters", "timeline",
                 "guaranteed_cpu", "generated"),
    )


@register("fig8", "Figure 8: fair share + reclamation under overload "
                  "(termination vs. deflation vs. OpenWhisk)",
          tags=("paper",))
def _fig8(phase_duration: float = 180.0, seed: int = 8,
          include_openwhisk: bool = True) -> SweepSpec:
    """Three arms over the same workload: both LaSS policies plus the baseline."""
    points: List[Dict[str, Any]] = [
        {"controller.reclamation": "termination", "name": "fig8-termination"},
        {"controller.reclamation": "deflation", "name": "fig8-deflation"},
    ]
    if include_openwhisk:
        # vanilla OpenWhisk has no prewarming and reports counters only
        points.append({"controller.policy": "openwhisk", "name": "fig8-openwhisk",
                       "warm_start": {}, "metrics": ["counters"]})
    return SweepSpec(
        name="fig8",
        base=_fig8_base(phase_duration, seed),
        points=tuple(points),
        seed_mode="base",  # arms must replay identical workload randomness
        description="Figure 8 policy comparison on the staged-overload workload",
    )


# ----------------------------------------------------------------------
# Figure 9: Azure-trace replay
# ----------------------------------------------------------------------
def _fig9_workloads(duration_minutes: int, trace_seed: int) -> Tuple[WorkloadSpec, ...]:
    """One Azure-trace workload spec per catalogue function, in sorted order.

    The per-function ``index`` into the trace RNG matches
    :func:`~repro.workloads.azure.synthesize_azure_traces`, which seeds
    functions by their sorted position — so these specs replay the very
    same synthetic traces.
    """
    from repro.workloads.azure import DEFAULT_AZURE_CONFIGS

    workloads = []
    for index, (name, config) in enumerate(sorted(DEFAULT_AZURE_CONFIGS.items())):
        workloads.append(
            WorkloadSpec(
                function=name,
                schedule=ScheduleSpec.azure(
                    config=dataclasses.asdict(config),
                    duration_minutes=duration_minutes,
                    seed=trace_seed,
                    index=index,
                ),
                slo_deadline=FIG9_SLO_DEADLINES.get(name, 0.2),
                user=FIG9_USER_ASSIGNMENT.get(name, "user-1"),
            )
        )
    return tuple(workloads)


@register("fig9", "Figure 9: Azure-like trace replay with six functions and "
                  "two weighted users",
          tags=("paper",))
def _fig9(duration_minutes: int = 60, seed: int = 9,
          trace_seed: int = 2019) -> SweepSpec:
    """Both reclamation policies over the same synthetic Azure traces."""
    workloads = _fig9_workloads(duration_minutes, trace_seed)
    base = ScenarioSpec(
        name="fig9",
        kind="simulate",
        description="Two-user Azure replay comparing termination vs. deflation",
        workloads=workloads,
        controller=ControllerSpec(epoch_length=10.0, reclamation="termination"),
        duration=duration_minutes * 60.0,
        seed=seed,
        user_weights=FIG9_USER_WEIGHTS,
        warm_start={w.function: 1 for w in workloads},
        params={"duration_minutes": duration_minutes, "trace_seed": trace_seed},
        metrics=("waiting", "slo", "utilization", "counters", "timeline",
                 "guaranteed_cpu", "generated"),
    )
    return SweepSpec(
        name="fig9",
        base=base,
        points=(
            {"controller.reclamation": "termination", "name": "fig9-termination"},
            {"controller.reclamation": "deflation", "name": "fig9-deflation"},
        ),
        seed_mode="base",  # both policies replay identical traces and arrivals
        description="Figure 9 reclamation-policy comparison on Azure-like traces",
    )


# ----------------------------------------------------------------------
# Figure 9 at scale: streaming replay of an Azure-scale population
# ----------------------------------------------------------------------
@register("fig9-at-scale",
          "Figure 9 at scale: streaming replay of an Azure-scale synthetic "
          "population, sharded over the resilient sweep runner",
          tags=("paper",))
def _fig9_at_scale(functions: int = 10_000, duration_minutes: int = 1440,
                   shards: int = 32, chunk_minutes: int = 360, seed: int = 9,
                   trace_seed: int = 2019,
                   population_seed: int = 2021) -> SweepSpec:
    """The planet-scale replay: one ``trace_replay`` shard per sweep point.

    Defaults replay a full synthetic day of 10,000 functions (≈5×10^7
    invocations) in 32 shards; every knob scales down for smoke tests.
    ``seed_mode="base"`` keeps one master seed — per-function randomness
    comes from ``(population_seed, trace_seed, global index)`` only, so
    the shard decomposition never perturbs a function's trace.
    """
    from repro.scenarios.trace_shard import shard_ranges
    from repro.workloads.stream import DEFAULT_POPULATION

    base = ScenarioSpec(
        name="fig9-at-scale",
        kind="trace_replay",
        description="Azure-scale streaming trace replay against the paper's "
                    "M/M/c capacity model",
        duration=duration_minutes * 60.0,
        seed=seed,
        metrics=("counters",),
        params={
            "population": dict(DEFAULT_POPULATION,
                               functions=functions, seed=population_seed),
            "trace_seed": trace_seed,
            "duration_minutes": duration_minutes,
            "chunk_minutes": chunk_minutes,
            "function_range": [0, functions],
        },
    )
    points = tuple({"params.function_range": [lo, hi]}
                   for lo, hi in shard_ranges(functions, shards))
    return SweepSpec(
        name="fig9-at-scale",
        base=base,
        points=points,
        seed_mode="base",  # sharding must never perturb per-function RNG
        description="Sharded constant-memory replay of the synthetic "
                    "Azure-scale population",
    )


# ----------------------------------------------------------------------
# Figure 10: fault injection — recovery from node failures and churn
# ----------------------------------------------------------------------
def _recovery_base(rate: float, fail_at: float, recover_at: Optional[float],
                   duration: float, seed: int, faulted: bool = True) -> ScenarioSpec:
    """One SqueezeNet workload on the 3-node testbed losing (and regaining) a node.

    The canonical recovery atom: steady load sized to need most of the
    cluster, one node failing mid-run.  With ``faulted=False`` the
    ``FaultSpec`` is empty and the spec normalises to the byte-identical
    healthy scenario — the property the metamorphic tests pin.
    """
    faults = None
    if faulted:
        # node-0 is where best-fit packing concentrates the containers, so
        # the outage actually takes out serving capacity
        faults = FaultSpec(node_failures=(
            NodeFailureSpec("node-0", fail_at, recover_at),
        ))
    return ScenarioSpec(
        name="node-failure-recovery",
        kind="simulate",
        description="SqueezeNet at steady load; node-0 fails mid-run and "
                    "recovers later — measures availability and the "
                    "controller's re-provisioning time",
        workloads=(
            WorkloadSpec(
                function="squeezenet",
                schedule=ScheduleSpec.static(rate=rate, duration=duration),
                slo_deadline=0.1,
            ),
        ),
        duration=duration,
        warmup=30.0,
        seed=seed,
        warm_start={"squeezenet": 2},
        metrics=("waiting", "slo", "utilization", "counters", "timeline", "generated"),
        faults=faults,
    )


@register("node-failure-recovery",
          "One node fails mid-run and recovers: availability + recovery time",
          tags=("faults", "example"))
def _node_failure_recovery(rate: float = 20.0, fail_at: float = 120.0,
                           recover_at: Optional[float] = 240.0,
                           duration: float = 360.0, seed: int = 21,
                           faulted: bool = True) -> ScenarioSpec:
    """The canonical single-outage recovery scenario."""
    return _recovery_base(rate, fail_at, recover_at, duration, seed, faulted)


@register("rolling-node-churn",
          "Staggered node outages (rolling restart) under two workloads",
          tags=("faults", "example"))
def _rolling_node_churn(phase: float = 90.0, seed: int = 22,
                        duration: Optional[float] = None) -> ScenarioSpec:
    """Each node goes down for one phase, one after another (rolling restart).

    Two functions with different container sizes keep the packing
    non-trivial while the fleet shrinks and regrows.
    """
    duration = duration if duration is not None else 5 * phase
    failures = tuple(
        NodeFailureSpec(f"node-{i}", fail_at=(i + 1) * phase,
                        recover_at=(i + 2) * phase)
        for i in range(3)
    )
    return ScenarioSpec(
        name="rolling-node-churn",
        kind="simulate",
        description="Rolling outage across all three nodes: the controller must "
                    "keep both functions served while a third of the fleet is "
                    "always missing",
        workloads=(
            WorkloadSpec(
                function="geofence",
                schedule=ScheduleSpec.static(rate=30.0, duration=duration),
                slo_deadline=0.1,
            ),
            WorkloadSpec(
                function="squeezenet",
                schedule=ScheduleSpec.static(rate=10.0, duration=duration),
                slo_deadline=0.2,
            ),
        ),
        duration=duration,
        warmup=30.0,
        seed=seed,
        warm_start={"geofence": 1, "squeezenet": 1},
        metrics=("waiting", "slo", "utilization", "counters", "timeline", "generated"),
        faults=FaultSpec(node_failures=failures),
    )


@register("flaky-containers",
          "Containers crash on dispatch and cold starts are heavy-tailed",
          tags=("faults", "example"))
def _flaky_containers(crash_probability: float = 0.02, rate: float = 20.0,
                      duration: float = 300.0, seed: int = 23) -> ScenarioSpec:
    """Container-level churn: crash-on-dispatch plus lognormal cold starts.

    No node ever fails here; the stress is the steady trickle of dying
    containers and the provisioning jitter of their replacements.
    """
    return ScenarioSpec(
        name="flaky-containers",
        kind="simulate",
        description="SqueezeNet under per-dispatch container crashes and "
                    "lognormal cold-start latency",
        workloads=(
            WorkloadSpec(
                function="squeezenet",
                schedule=ScheduleSpec.static(rate=rate, duration=duration),
                slo_deadline=0.1,
            ),
        ),
        duration=duration,
        warmup=30.0,
        seed=seed,
        warm_start={"squeezenet": 2},
        metrics=("waiting", "slo", "utilization", "counters", "timeline", "generated"),
        faults=FaultSpec(
            crash_probability=crash_probability,
            # median 0.5 s (the configured constant), sigma 0.5: P95 ≈ 1.1 s
            cold_start=ColdStartSpec("lognormal", {"mu": math.log(0.5), "sigma": 0.5}),
        ),
    )


@register("fig10", "Figure 10: recovery from a mid-run node failure "
                   "(faulted vs. healthy arms on identical randomness)",
          tags=("paper",))
def _fig10(rate: float = 20.0, fail_at: float = 120.0,
           recover_at: float = 240.0, duration: float = 360.0,
           seed: int = 21) -> SweepSpec:
    """The recovery experiment: one workload, with and without the outage.

    ``seed_mode="base"`` makes both arms replay identical arrival and
    service randomness, so every difference in the results is caused by
    the fault schedule alone — the same same-randomness design as the
    Figure 8/9 policy comparisons.
    """
    base = _recovery_base(rate, fail_at, recover_at, duration, seed, faulted=True)
    return SweepSpec(
        name="fig10",
        base=base,
        points=(
            {"name": "fig10-faulted"},
            {"name": "fig10-healthy", "faults": None},
        ),
        seed_mode="base",
        description="Node-failure recovery: faulted vs. healthy arm",
    )


# ----------------------------------------------------------------------
# Policy shootout / Figure 11: every control plane on the same workload
# ----------------------------------------------------------------------
#: The policies compared head-to-head (every registered control plane
#: that can serve an open workload; ``noop`` is excluded — with nothing
#: provisioning containers it measures the queue, not a control plane).
SHOOTOUT_POLICIES: Tuple[str, ...] = ("lass", "hybrid", "reactive", "static", "openwhisk")


def _shootout_sweep(name: str, duration: float, seed: int,
                    policies: Tuple[str, ...], include_faulted: bool,
                    fail_at: Optional[float] = None,
                    recover_at: Optional[float] = None) -> SweepSpec:
    """The policy head-to-head: one workload, one arm per (policy, fault) pair.

    Two functions with different sizes keep packing and fair share
    non-trivial (geofence is small and fast, SqueezeNet big and slow).
    Every arm shares the base seed (``seed_mode="base"``), so all
    policies face identical arrival randomness and — in the faulted
    arms — the identical node-outage schedule; the ``static`` arm's
    allocation is solved from the same M/M/c model LaSS uses, making it
    the "provision once for this exact load" operator.
    """
    from repro.core.queueing.sizing import required_containers
    from repro.workloads.functions import get_function

    workloads = (
        WorkloadSpec(
            function="geofence",
            schedule=ScheduleSpec.static(rate=30.0, duration=duration),
            slo_deadline=0.1,
        ),
        WorkloadSpec(
            function="squeezenet",
            schedule=ScheduleSpec.static(rate=10.0, duration=duration),
            slo_deadline=0.2,
        ),
    )
    base = ScenarioSpec(
        name=name,
        kind="simulate",
        description="Two functions at steady load; every control-plane policy "
                    "serves the identical workload, healthy and through a "
                    "mid-run node outage",
        workloads=workloads,
        duration=duration,
        warmup=30.0,
        seed=seed,
        metrics=("waiting", "slo", "utilization", "counters", "timeline", "generated"),
    )
    # the static arm provisions what the model says this exact load needs
    allocations: Dict[str, int] = {}
    for workload in workloads:
        profile = get_function(workload.function)
        allocations[workload.function] = required_containers(
            lam=float(workload.schedule.params["rate"]),
            mu=profile.service_rate,
            wait_budget=workload.slo_deadline,
            percentile=0.95,
        ).containers
    fail_at = fail_at if fail_at is not None else duration / 3
    recover_at = recover_at if recover_at is not None else 2 * duration / 3
    faults = FaultSpec(
        node_failures=(NodeFailureSpec("node-0", fail_at, recover_at),)
    ).to_dict()
    points: List[Dict[str, Any]] = []
    for policy in policies:
        point: Dict[str, Any] = {"name": f"{name}-{policy}",
                                 "controller.policy": policy}
        if policy == "static":
            point["controller.policy_params"] = {"allocations": allocations}
        points.append(point)
        if include_faulted:
            faulted = dict(point, name=f"{name}-{policy}-faulted")
            faulted["faults"] = faults
            points.append(faulted)
    return SweepSpec(
        name=name,
        base=base,
        points=tuple(points),
        seed_mode="base",  # every policy faces identical workload randomness
        description="Control-plane policy comparison on identical seeds "
                    "and fault schedules",
    )


@register("policy-shootout",
          "Every control-plane policy head-to-head on one workload "
          "(healthy + node-outage arms)",
          tags=("example", "policies"))
def _policy_shootout(duration: float = 300.0, seed: int = 42,
                     policies: Sequence[str] = SHOOTOUT_POLICIES,
                     include_faulted: bool = True) -> SweepSpec:
    """The registered policy-shootout sweep (see :func:`_shootout_sweep`)."""
    return _shootout_sweep("policy-shootout", duration, seed,
                           tuple(policies), include_faulted)


@register("fig11", "Figure 11: LaSS vs the baseline policies, healthy and "
                   "under a node outage (identical seeds)",
          tags=("paper",))
def _fig11(duration: float = 360.0, seed: int = 11,
           policies: Sequence[str] = SHOOTOUT_POLICIES) -> SweepSpec:
    """The policy-comparison experiment (this reproduction's own extension).

    Same design as the Figure 8/9/10 comparisons: ``seed_mode="base"``
    replays identical randomness in every arm, so differences between
    policies (and between each policy's healthy and faulted arm) are
    caused by the control plane and the outage alone.
    """
    return _shootout_sweep("fig11", duration, seed, tuple(policies),
                           include_faulted=True)


# ----------------------------------------------------------------------
# Federation / Figure 12: geo-distributed sites under a global router
# ----------------------------------------------------------------------
#: The global routers compared head-to-head in the Figure 12 experiment.
FIG12_ROUTERS: Tuple[str, ...] = ("nearest-site", "latency-aware", "spillover-to-cloud")


def _fig12_federation(router: str = "latency-aware") -> FederationSpec:
    """The canonical three-site topology every federated scenario shares.

    Two small edge sites plus one large cloud site, with a WAN matrix
    where the edge pair is close (20 ms) and the cloud is far (80 ms
    from the origin region).  All traffic originates at ``edge-a``, so
    a fault there forces the router to earn its keep.
    """
    return FederationSpec(
        sites=(
            SiteSpec(name="edge-a", node_count=3, cpu_per_node=4.0),
            SiteSpec(name="edge-b", node_count=2, cpu_per_node=4.0),
            SiteSpec(name="cloud", node_count=6, cpu_per_node=8.0,
                     memory_per_node_mb=32 * 1024.0, cold_start_latency=1.5,
                     cloud=True),
        ),
        router=router,
        wan_latency=0.05,
        wan_overrides={"edge-a->edge-b": 0.02, "edge-a->cloud": 0.08},
        origins={"geofence": "edge-a", "squeezenet": "edge-a"},
        probe_interval=5.0,
        max_redirects=3,
    )


def _federated_base(name: str, duration: float, seed: int, router: str,
                    description: str,
                    faults: Optional[FaultSpec] = None) -> ScenarioSpec:
    """One federated scenario on the shared three-site topology."""
    return ScenarioSpec(
        name=name,
        kind="simulate",
        description=description,
        workloads=(
            WorkloadSpec(
                function="geofence",
                schedule=ScheduleSpec.static(rate=30.0, duration=duration),
                slo_deadline=0.1,
            ),
            WorkloadSpec(
                function="squeezenet",
                schedule=ScheduleSpec.static(rate=10.0, duration=duration),
                slo_deadline=0.2,
            ),
        ),
        duration=duration,
        warmup=20.0,
        seed=seed,
        warm_start={"geofence": 1, "squeezenet": 1},
        metrics=("waiting", "slo", "utilization", "counters", "generated"),
        federation=_fig12_federation(router),
        faults=faults if faults is not None else FaultSpec(),
    )


def _fig12_blackout(duration: float) -> FaultSpec:
    """The Figure 12 outage: edge-a dark for the middle third, rejoins smaller.

    Fault times sit *off* the 5 s probe grid so the router's belief lags
    reality — the detection window is what exercises bounce/redirect.
    """
    return FaultSpec(site_blackouts=(
        SiteBlackoutSpec("edge-a", fail_at=duration / 3 + 2.0,
                         recover_at=2 * duration / 3 + 2.0, rejoin_nodes=2),
    ))


def _fig12_partition(duration: float) -> FaultSpec:
    """The Figure 12 WAN partition: same window as the blackout, no capacity loss."""
    return FaultSpec(wan_partitions=(
        WanPartitionSpec("edge-a", start_at=duration / 3 + 2.0,
                         heal_at=2 * duration / 3 + 2.0),
    ))


@register("site-outage-failover",
          "A full site blackout mid-run: the global router fails traffic over "
          "and the site rejoins with fewer nodes",
          tags=("faults", "federation", "example"))
def _site_outage_failover(duration: float = 300.0, seed: int = 12,
                          router: str = "latency-aware") -> ScenarioSpec:
    """Edge-a goes dark for the middle third and rejoins with 2 of 3 nodes."""
    return _federated_base(
        "site-outage-failover", duration, seed, router,
        description="All traffic lands on edge-a, which blacks out mid-run; "
                    "the router redirects to edge-b/cloud and the site "
                    "rejoins at two-thirds capacity",
        faults=_fig12_blackout(duration),
    )


@register("partitioned-control-plane",
          "A WAN partition isolates a site from the router while its local "
          "control loop keeps serving (edge autonomy)",
          tags=("faults", "federation", "example"))
def _partitioned_control_plane(duration: float = 300.0, seed: int = 12,
                               router: str = "nearest-site") -> ScenarioSpec:
    """Edge-a is unreachable (not dead) for the middle third of the run."""
    return _federated_base(
        "partitioned-control-plane", duration, seed, router,
        description="The WAN path to edge-a is cut: global traffic routes "
                    "around it while its own arrivals keep being served "
                    "locally, and its metrics merge back on heal",
        faults=_fig12_partition(duration),
    )


@register("flash-crowd-one-region",
          "A flash crowd lands on one region and must spill to the cloud",
          tags=("federation", "example"))
def _flash_crowd_one_region(duration: float = 300.0, seed: int = 12,
                            surge_rate: float = 120.0,
                            router: str = "spillover-to-cloud") -> ScenarioSpec:
    """Geofence traffic at edge-a surges far past the region's capacity."""
    third = duration / 3
    spec = _federated_base(
        "flash-crowd-one-region", duration, seed, router,
        description="Geofence arrivals at edge-a quadruple for the middle "
                    "third of the run; the spillover router sheds the "
                    "overflow to the cloud site",
    )
    surge = WorkloadSpec(
        function="geofence",
        schedule=ScheduleSpec.steps(
            ((0.0, 30.0), (third, surge_rate), (2 * third, 30.0)),
            duration=duration),
        slo_deadline=0.1,
    )
    return dataclasses.replace(spec, workloads=(surge,) + spec.workloads[1:])


@register("fig12", "Figure 12: global-router comparison across healthy, "
                   "site-blackout, and WAN-partition arms (identical seeds)",
          tags=("paper",))
def _fig12(duration: float = 240.0, seed: int = 12,
           routers: Sequence[str] = FIG12_ROUTERS) -> SweepSpec:
    """The federation experiment: every router through every failure mode.

    Nine arms — three routers × {healthy, blackout, partition} — all on
    ``seed_mode="base"`` so every arm replays identical arrival and
    service randomness; differences are caused by the router policy and
    the fault schedule alone, the same same-randomness design as the
    Figure 10/11 comparisons.
    """
    base = _federated_base(
        "fig12", duration, seed, "latency-aware",
        description="Three-site federation (two edge regions + cloud) under "
                    "each global router, healthy and through site-level faults",
        faults=_fig12_blackout(duration),
    )
    blackout = _fig12_blackout(duration).to_dict()
    partition = _fig12_partition(duration).to_dict()
    points: List[Dict[str, Any]] = []
    for router in routers:
        points.append({"name": f"fig12-{router}-healthy",
                       "federation.router": router, "faults": None})
        points.append({"name": f"fig12-{router}-blackout",
                       "federation.router": router, "faults": blackout})
        points.append({"name": f"fig12-{router}-partition",
                       "federation.router": router, "faults": partition})
    return SweepSpec(
        name="fig12",
        base=base,
        points=tuple(points),
        seed_mode="base",  # every arm faces identical workload randomness
        description="Global-router comparison on identical seeds and "
                    "site-fault schedules",
    )


# ----------------------------------------------------------------------
# Example workloads (examples/*.py expressed as scenarios)
# ----------------------------------------------------------------------
@register("quickstart", "One SqueezeNet function under LaSS at a constant 20 req/s",
          tags=("example",))
def _quickstart(rate: float = 20.0, duration: float = 300.0,
                seed: int = 7) -> ScenarioSpec:
    """The examples/quickstart.py scenario."""
    return ScenarioSpec(
        name="quickstart",
        kind="simulate",
        description="SqueezeNet on the paper's 3-node cluster, model-driven scaling",
        workloads=(
            WorkloadSpec(
                function="squeezenet",
                schedule=ScheduleSpec.static(rate=rate, duration=duration),
                slo_deadline=0.1,
            ),
        ),
        duration=duration,
        warmup=30.0,
        seed=seed,
        metrics=("waiting", "slo", "utilization", "counters", "timeline", "generated"),
    )


@register("video-analytics-burst",
          "Motion-activated camera: bursty MobileNet inference (paper Example 1)",
          tags=("example",))
def _video_analytics(burst_rate: float = 10.0, idle_rate: float = 2.0,
                     burst_length: float = 60.0, idle_length: float = 120.0,
                     bursts: int = 3, seed: int = 11) -> ScenarioSpec:
    """The examples/video_analytics_burst.py on/off scenario."""
    steps = []
    t = 0.0
    for _ in range(bursts):
        steps.append((t, idle_rate))
        t += idle_length
        steps.append((t, burst_rate))
        t += burst_length
    steps.append((t, idle_rate))
    duration = t + idle_length
    return ScenarioSpec(
        name="video-analytics-burst",
        kind="simulate",
        description="On/off motion bursts against MobileNet with fast rate sampling",
        workloads=(
            WorkloadSpec(
                function="mobilenet",
                schedule=ScheduleSpec.steps(steps, duration=duration),
                slo_deadline=0.5,
            ),
        ),
        cluster=ClusterSpec(node_count=4, cpu_per_node=8.0),
        controller=ControllerSpec(epoch_length=10.0, rate_sample_interval=2.0),
        duration=duration,
        warmup=30.0,
        seed=seed,
        warm_start={"mobilenet": 2},
        metrics=("waiting", "slo", "utilization", "counters", "timeline", "generated"),
    )


@register("overload-fair-share",
          "The Figure 8 staged overload under the deflation policy",
          tags=("example",))
def _overload_fair_share(phase_duration: float = 180.0, seed: int = 8) -> ScenarioSpec:
    """The examples/overload_fair_share.py scenario (deflation arm)."""
    spec = _fig8_base(phase_duration, seed, reclamation="deflation")
    return dataclasses.replace(spec, name="overload-fair-share")


@register("azure-replay",
          "The Figure 9 Azure-like replay under the deflation policy",
          tags=("example",))
def _azure_replay(duration_minutes: int = 15, seed: int = 9,
                  trace_seed: int = 2019) -> ScenarioSpec:
    """The examples/azure_trace_replay.py scenario (deflation arm)."""
    sweep = _fig9(duration_minutes=duration_minutes, seed=seed, trace_seed=trace_seed)
    spec = dataclasses.replace(
        sweep.base, controller=dataclasses.replace(sweep.base.controller,
                                                   reclamation="deflation"))
    return dataclasses.replace(spec, name="azure-replay")


__all__ = [
    "FIG7_FUNCTIONS",
    "FIG12_ROUTERS",
    "SHOOTOUT_POLICIES",
    "FIG9_SLO_DEADLINES",
    "FIG9_USER_ASSIGNMENT",
    "FIG9_USER_WEIGHTS",
    "ScenarioEntry",
    "SpecOrSweep",
    "build",
    "describe",
    "example_names",
    "experiment_names",
    "fig6_rate_profiles",
    "get_entry",
    "names",
    "register",
]
