"""Scenario execution: turn a :class:`ScenarioSpec` into unified results.

:func:`run_scenario` is the single entry point every scenario kind goes
through — the experiment renderers, the ``python -m repro scenario`` CLI
verb, and every shard of a
:class:`~repro.scenarios.executor.ResilientSweepRunner` sweep all call
it.  It returns a :class:`ScenarioOutcome` holding both the JSON-safe
results dict (``data``, the unified results schema) and, for in-process
simulation runs, the rich :class:`~repro.simulation.SimulationResult`
(``sim``) for analyses that want the live objects.

Results schema (``repro/scenario-result@1``)
--------------------------------------------
::

    {
      "schema": "repro/scenario-result@1",
      "scenario": { ...the spec echo (ScenarioSpec.to_dict())... },
      "metrics": {
        "functions": {name: {"waiting": {...}, "slo": {...},
                             "generated": int}},
        "cluster": {"mean_utilization": float},
        "counters": {...},
        "timeline": {name: [[t, containers, cpu, desired, rate], ...]},
        "guaranteed_cpu": {name: vcpus}
      },
      "allocation": {...}      # kind="fixed" only: resolved container plan
      "rows": [...]            # table-like kinds (deflation/catalogue)
      "openwhisk": {...}       # openwhisk policy only: invoker failures
                               # (ControlPolicy.results_extra)
      "faults": {...}          # only when the spec carries a FaultSpec:
                               # availability, failed/requeued requests,
                               # per-failure recovery times
      "federation": {...}      # federated scenarios only: router stats,
                               # health-belief transitions, per-site
                               # summaries (see repro.federation.runner)
      "replay": {...}          # kind="trace_replay" only: one shard's
                               # integer counters + per-minute histogram
                               # (see repro.scenarios.trace_shard)
    }

Only the metric groups named in ``spec.metrics`` are populated.  The
dict contains no wall-clock timestamps or host information, so a given
spec produces byte-identical ``canonical_json`` output on every run —
the property the sweep determinism guarantee builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.scenarios.spec import ScenarioSpec

#: Schema identifier embedded in every results envelope.
RESULT_SCHEMA = "repro/scenario-result@1"


@dataclass
class ScenarioOutcome:
    """What :func:`run_scenario` returns.

    ``data`` is the JSON-safe unified results dict; ``sim`` is the live
    :class:`~repro.simulation.SimulationResult` when the scenario ran a
    simulation in this process (``None`` for analytic kinds and for
    results shipped across a worker-pool boundary).
    """

    spec: ScenarioSpec
    data: Dict[str, Any]
    sim: Optional[Any] = None


def run_scenario(spec: ScenarioSpec) -> ScenarioOutcome:
    """Execute one scenario and return its outcome.

    Dispatches on ``spec.kind``; see the module docstring for the shape
    of the returned ``data``.
    """
    executor = _EXECUTORS.get(spec.kind)
    if executor is None:
        raise ValueError(f"no executor for scenario kind {spec.kind!r}")
    return executor(spec)


# ----------------------------------------------------------------------
# Metric collection shared by the simulation kinds
# ----------------------------------------------------------------------
def _collect_metrics(spec: ScenarioSpec, result, controller=None) -> Dict[str, Any]:
    """Build the ``metrics`` group of the results envelope from a finished run."""
    metrics: Dict[str, Any] = {}
    names = [w.function for w in spec.workloads]
    wanted = set(spec.metrics)

    functions: Dict[str, Dict[str, Any]] = {name: {} for name in names}
    if "waiting" in wanted:
        for name in names:
            functions[name]["waiting"] = result.waiting_summary(name, warmup=spec.warmup).as_dict()
    if "slo" in wanted:
        deadlines = {w.function: w.slo_deadline for w in spec.workloads
                     if w.slo_deadline is not None}
        if deadlines:
            reports = result.slo(deadlines, warmup=spec.warmup)
            for name, report in reports.items():
                functions[name]["slo"] = report.as_dict()
    if "generated" in wanted:
        for name in names:
            functions[name]["generated"] = result.generated_requests.get(name, 0)
    if any(functions.values()):
        metrics["functions"] = functions

    if "utilization" in wanted:
        metrics["cluster"] = {"mean_utilization": result.mean_utilization()}
    if "counters" in wanted:
        metrics["counters"] = dict(result.metrics.counters)
    if "timeline" in wanted:
        timeline: Dict[str, List[List[Any]]] = {}
        for name in names:
            series = result.metrics.timeline.series(name)
            timeline[name] = [
                [p.time, p.containers, p.cpu, p.desired_containers, p.arrival_rate]
                for p in series
            ]
        metrics["timeline"] = timeline
    if ("guaranteed_cpu" in wanted and controller is not None
            and hasattr(controller, "guaranteed_cpu_shares")):
        # only fair-share policies (LaSS) expose guaranteed shares
        metrics["guaranteed_cpu"] = dict(controller.guaranteed_cpu_shares())
    return metrics


def _envelope(spec: ScenarioSpec, **extra: Any) -> Dict[str, Any]:
    """The common results wrapper: schema tag plus the spec echo."""
    data: Dict[str, Any] = {"schema": RESULT_SCHEMA, "scenario": spec.to_dict()}
    data.update(extra)
    return data


# ----------------------------------------------------------------------
# kind = "simulate"
# ----------------------------------------------------------------------
def _run_simulate(spec: ScenarioSpec) -> ScenarioOutcome:
    """Full controller-driven run through :class:`SimulationRunner`.

    The control plane is whatever registered policy the spec names
    (``spec.controller.policy``, default LaSS); every policy sees the
    same workloads, cluster, seed, and fault schedule.  Policies may
    contribute an extra results group (``ControlPolicy.results_extra``)
    — the OpenWhisk policy's invoker-failure report arrives this way.
    """
    from repro.core.allocation.hierarchy import SchedulingTree
    from repro.simulation import SimulationRunner

    if spec.federation is not None:
        return _run_federated(spec)
    bindings = [w.build() for w in spec.workloads]
    tree = None
    if spec.user_weights is not None:
        assignment = {w.function: w.user for w in spec.workloads}
        tree = SchedulingTree.two_level(dict(spec.user_weights), assignment)
    runner = SimulationRunner(
        workloads=bindings,
        cluster_config=spec.cluster.build() if spec.cluster is not None else None,
        controller_config=spec.controller.build(),
        scheduling_tree=tree,
        seed=spec.seed,
        warm_start_containers=dict(spec.warm_start) or None,
        fault_spec=spec.faults,
        policy=spec.controller.policy,
        policy_params=dict(spec.controller.policy_params),
        data_plane=spec.data_plane,
    )
    if "guaranteed_cpu" in spec.metrics and not hasattr(runner.policy, "guaranteed_cpu_shares"):
        # fail fast instead of silently omitting the requested group
        raise ValueError(
            f"metric 'guaranteed_cpu' requires a fair-share policy; "
            f"policy {spec.controller.policy!r} does not expose guaranteed CPU shares"
        )
    result = runner.run(duration=spec.duration, extra_drain=spec.extra_drain)
    data = _envelope(spec, metrics=_collect_metrics(spec, result, runner.policy))
    extra = runner.policy.results_extra()
    if extra is not None:
        group, payload = extra
        data[group] = payload
    if runner.fault_injector is not None:
        # present exactly when the (normalised) spec carries faults, so a
        # faults-disabled run stays byte-identical to the healthy scenario
        data["faults"] = runner.fault_injector.report(spec.duration)
    return ScenarioOutcome(spec=spec, data=data, sim=result)


# ----------------------------------------------------------------------
# kind = "simulate" with a federation spec
# ----------------------------------------------------------------------
def _run_federated(spec: ScenarioSpec) -> ScenarioOutcome:
    """Federated run: N sites under a global router.

    Rides the same envelope machinery as the single-cluster executor —
    ``metrics`` comes from the merged per-site collectors — plus a
    ``federation`` group (router stats, health-belief transitions,
    per-site summaries) and, when site faults are armed, a ``faults``
    group with per-site + federation-level availability and recovery
    times.
    """
    from repro.federation.runner import FederatedSimulationRunner

    bindings = [w.build() for w in spec.workloads]
    runner = FederatedSimulationRunner(
        workloads=bindings,
        federation=spec.federation,
        controller_config=spec.controller.build(),
        seed=spec.seed,
        warm_start_containers=dict(spec.warm_start) or None,
        fault_spec=spec.faults,
    )
    result = runner.run(duration=spec.duration, extra_drain=spec.extra_drain)
    data = _envelope(
        spec,
        metrics=_collect_metrics(spec, result),
        federation=runner.federation_report(),
    )
    if runner.fault_injector is not None:
        data["faults"] = runner.fault_injector.report(
            spec.duration, result.metrics.counters)
    return ScenarioOutcome(spec=spec, data=data, sim=result)


# ----------------------------------------------------------------------
# kind = "fixed"
# ----------------------------------------------------------------------
def _resolve_allocation(spec: ScenarioSpec) -> Dict[str, Any]:
    """Resolve the container count and deflation plan for a fixed scenario.

    Explicit counts pass through; model-based sizing replicates the
    Figure 3 (M/M/c) and Figure 4 (heterogeneous, Alves et al.) atoms.
    """
    workload = spec.workloads[0]
    allocation = spec.allocation
    assert allocation is not None  # enforced by ScenarioSpec validation
    if allocation.containers is not None:
        return {
            "containers": allocation.containers,
            "deflation_plan": list(allocation.deflation_plan or ()) or None,
        }

    from repro.core.queueing.sizing import (
        required_containers,
        required_containers_heterogeneous,
    )

    sizing = dict(allocation.sizing or {})
    schedule = workload.schedule
    if schedule.kind != "static":
        raise ValueError("model-based sizing requires a static-rate schedule")
    lam = float(schedule.params["rate"])
    profile = workload.build_profile()
    mu = profile.service_rate
    if workload.slo_deadline is None:
        raise ValueError("model-based sizing requires an SLO deadline")
    percentile = float(sizing.get("percentile", 0.95))
    base = required_containers(lam=lam, mu=mu, wait_budget=workload.slo_deadline,
                               percentile=percentile)
    if sizing["model"] == "mmc":
        return {
            "containers": base.containers,
            "deflation_plan": list(allocation.deflation_plan or ()) or None,
            "achieved_probability": base.achieved_probability,
        }
    # heterogeneous: deflate a proportion of the base allocation, then add
    # standard containers until the mixed-speed model meets the SLO again
    proportion = float(sizing["deflated_proportion"])
    fraction = float(sizing["deflation_fraction"])
    deflated_speed = profile.speed_curve()(1.0 - fraction)
    n_deflated = min(int(round(proportion * base.containers)), base.containers)
    existing_mus = [mu * deflated_speed] * n_deflated + [mu] * (base.containers - n_deflated)
    total = required_containers_heterogeneous(
        lam=lam,
        existing_mus=existing_mus,
        standard_mu=mu,
        wait_budget=workload.slo_deadline,
        percentile=percentile,
    )
    plan = [1.0 - fraction] * n_deflated + [1.0] * (total.containers - n_deflated)
    return {
        "containers": total.containers,
        "deflation_plan": plan,
        "homogeneous_containers": base.containers,
        "deflated_containers": n_deflated,
    }


def _run_fixed(spec: ScenarioSpec) -> ScenarioOutcome:
    """Single function against a fixed allocation (Figures 3/4 atom)."""
    from repro.simulation import run_fixed_allocation

    workload = spec.workloads[0]
    resolved = _resolve_allocation(spec)
    result = run_fixed_allocation(
        binding=workload.build(),
        containers=resolved["containers"],
        duration=spec.duration,
        cluster_config=spec.cluster.build() if spec.cluster is not None else None,
        seed=spec.seed,
        deflation_plan=resolved.get("deflation_plan"),
        extra_drain=spec.extra_drain,
        data_plane=spec.data_plane,
    )
    data = _envelope(
        spec,
        metrics=_collect_metrics(spec, result),
        allocation=resolved,
    )
    return ScenarioOutcome(spec=spec, data=data, sim=result)


# ----------------------------------------------------------------------
# kind = "deflation_curve"
# ----------------------------------------------------------------------
def _measured_service_time(profile, ratio: float, duration: float, seed: int,
                           extra_drain: float = 5.0) -> float:
    """Empirical mean service time at one deflation level (one container, light load)."""
    from repro.simulation import run_fixed_allocation
    from repro.workloads.generator import WorkloadBinding
    from repro.workloads.schedules import StaticRate

    # light load: well below one container's capacity so queueing never interferes
    lam = 0.3 * profile.service_rate
    binding = WorkloadBinding(
        profile=profile, schedule=StaticRate(lam, duration=duration), slo_deadline=None
    )
    result = run_fixed_allocation(
        binding=binding,
        containers=1,
        duration=duration,
        seed=seed,
        deflation_plan=[1.0 - ratio],
        extra_drain=extra_drain,
    )
    completed = result.metrics.completed_requests(profile.name)
    times = [r.service_time for r in completed if r.service_time is not None]
    if not times:
        return float("nan")
    return sum(times) / len(times)


def _run_deflation_curve(spec: ScenarioSpec) -> ScenarioOutcome:
    """Service time vs. CPU deflation for a set of functions (Figure 7).

    ``spec.params``: ``functions`` (names), ``deflation_ratios``, and
    ``measured`` — when true each (function, ratio) pair is actually run
    through the simulator instead of evaluating the profile curve.
    """
    from repro.workloads.functions import get_function

    p = dict(spec.params)
    measured = bool(p.get("measured", False))
    rows: List[Dict[str, Any]] = []
    for name in p.get("functions", ()):
        profile = get_function(name)
        baseline = profile.mean_service_time
        for ratio in p.get("deflation_ratios", (0.0,)):
            ratio = float(ratio)
            if measured:
                service_time = _measured_service_time(profile, ratio, spec.duration,
                                                      spec.seed, spec.extra_drain)
            else:
                service_time = profile.service_time_at(1.0 - ratio)
            rows.append({
                "function": name,
                "is_dnn": profile.is_dnn,
                "deflation_ratio": ratio,
                "service_time": service_time,
                "relative_slowdown": service_time / baseline,
            })
    return ScenarioOutcome(spec=spec, data=_envelope(spec, rows=rows), sim=None)


# ----------------------------------------------------------------------
# kind = "trace_replay"
# ----------------------------------------------------------------------
def _run_trace_replay(spec: ScenarioSpec) -> ScenarioOutcome:
    """One shard of the streaming trace replay (lazy import of the kernel)."""
    from repro.scenarios.trace_shard import run_trace_replay

    return run_trace_replay(spec)


# ----------------------------------------------------------------------
# kind = "catalogue"
# ----------------------------------------------------------------------
def _run_catalogue(spec: ScenarioSpec) -> ScenarioOutcome:
    """Dump the Table 1 function catalogue as rows."""
    from repro.workloads.functions import table1_rows

    rows = [
        {"function": name, "language": language, "standard_size": size}
        for name, language, size in table1_rows()
    ]
    return ScenarioOutcome(spec=spec, data=_envelope(spec, rows=rows), sim=None)


_EXECUTORS: Dict[str, Callable[[ScenarioSpec], ScenarioOutcome]] = {
    "simulate": _run_simulate,
    "fixed": _run_fixed,
    "deflation_curve": _run_deflation_curve,
    "catalogue": _run_catalogue,
    "trace_replay": _run_trace_replay,
}


__all__ = ["RESULT_SCHEMA", "ScenarioOutcome", "run_scenario"]
