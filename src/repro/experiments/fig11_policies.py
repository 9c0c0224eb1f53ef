"""Figure 11: every control-plane policy head-to-head (the policy shootout).

This experiment goes beyond the paper's figure set (like Figure 10): it
runs the *same* two-function workload under every registered
control-plane policy — LaSS, the hybrid model-guided reactive scaler,
the Knative-style reactive baseline, static allocation, and vanilla
OpenWhisk — twice each: healthy, and through a mid-run node outage.
Every arm shares the base seed (``seed_mode="base"``) and the same
fault schedule, so each column of the rendered table isolates the
control plane itself.  The columns:

* **SLO** — P95 waiting time and attainment per function, the paper's
  headline metric;
* **efficiency** — mean cluster utilisation (static allocation buys its
  SLO with permanently provisioned capacity; the model-driven policies
  track the load);
* **resilience** — capacity/request availability and the control
  loop's recovery time after the outage (``never`` when a policy does
  not restore the pre-failure warm capacity).

The vanilla-OpenWhisk arm reports its §6.6 cascade state as well: under
load spikes or outages its memory-only packing can overcommit and lose
invokers entirely.

This module is a thin renderer over the registry sweep ``"fig11"``
(shared with the ``"policy-shootout"`` scenario entry), like every other
experiment since the scenario subsystem landed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.scenarios import build, run_scenario


@dataclass
class Fig11Arm:
    """One (policy, healthy/faulted) arm's headline numbers."""

    policy: str
    faulted: bool
    arrivals: int
    completions: int
    p95_wait: Dict[str, float] = field(default_factory=dict)
    slo_attainment: Dict[str, Optional[float]] = field(default_factory=dict)
    mean_utilization: float = 0.0
    capacity_availability: Optional[float] = None
    request_availability: Optional[float] = None
    mean_recovery_time: Optional[float] = None
    failed_invokers: int = 0

    @property
    def served_fraction(self) -> float:
        """Completions over arrivals (0 when nothing arrived)."""
        return self.completions / self.arrivals if self.arrivals else 0.0


@dataclass
class Fig11Result:
    """All arms of the policy shootout, in sweep expansion order."""

    functions: Tuple[str, ...]
    arms: List[Fig11Arm]

    def arm(self, policy: str, faulted: bool) -> Optional[Fig11Arm]:
        """Look up one arm by policy name and fault status."""
        for arm in self.arms:
            if arm.policy == policy and arm.faulted == faulted:
                return arm
        return None


def _extract_arm(spec, data: Dict[str, Any], functions: Tuple[str, ...]) -> Fig11Arm:
    """Map one shard's results envelope onto a :class:`Fig11Arm`."""
    metrics = data.get("metrics", {})
    counters = metrics.get("counters", {})
    function_metrics = metrics.get("functions", {})
    faults = data.get("faults") or {}
    openwhisk = data.get("openwhisk") or {}
    arm = Fig11Arm(
        policy=spec.controller.policy,
        faulted=spec.faults is not None,
        arrivals=counters.get("arrivals", 0),
        completions=counters.get("completions", 0),
        mean_utilization=metrics.get("cluster", {}).get("mean_utilization", 0.0),
        capacity_availability=faults.get("capacity_availability"),
        request_availability=faults.get("request_availability"),
        mean_recovery_time=faults.get("mean_recovery_time"),
        failed_invokers=openwhisk.get("failed_invokers", 0),
    )
    for name in functions:
        func = function_metrics.get(name, {})
        waiting = func.get("waiting") or {}
        slo = func.get("slo") or {}
        arm.p95_wait[name] = waiting.get("p95", float("nan"))
        arm.slo_attainment[name] = slo.get("attainment")
    return arm


def run_fig11(duration: float = 360.0, seed: int = 11) -> Fig11Result:
    """Regenerate Figure 11: the control-plane policy shootout."""
    sweep = build("fig11", duration=duration, seed=seed)
    functions = tuple(w.function for w in sweep.base.workloads)
    arms: List[Fig11Arm] = []
    for spec in sweep.expand():
        outcome = run_scenario(spec)
        arms.append(_extract_arm(spec, outcome.data, functions))
    return Fig11Result(functions=functions, arms=arms)


def format_fig11(result: Fig11Result) -> str:
    """Render the Figure 11 shootout as an aligned text table."""
    functions = result.functions
    header = (
        f"{'policy':<10} {'arm':<8} {'served':>7} "
        + " ".join(f"{'P95(' + f + ')':>16}" for f in functions)
        + " " + " ".join(f"{'SLO(' + f + ')':>14}" for f in functions)
        + f" {'util':>6} {'avail':>7} {'recovery':>9}"
    )
    lines = [header, "-" * len(header)]
    for arm in result.arms:
        p95 = " ".join(f"{arm.p95_wait[f] * 1000:>13.1f} ms" for f in functions)
        slo = " ".join(
            (f"{arm.slo_attainment[f] * 100:>13.1f}%" if arm.slo_attainment[f] is not None
             else f"{'—':>14}")
            for f in functions
        )
        avail = (f"{arm.capacity_availability * 100:>6.1f}%"
                 if arm.capacity_availability is not None else f"{'—':>7}")
        if not arm.faulted:
            recovery = f"{'—':>9}"
        elif arm.mean_recovery_time is None:
            recovery = f"{'never':>9}"
        else:
            recovery = f"{arm.mean_recovery_time:>7.1f} s"
        line = (
            f"{arm.policy:<10} {'faulted' if arm.faulted else 'healthy':<8} "
            f"{arm.served_fraction * 100:>6.1f}% {p95} {slo} "
            f"{arm.mean_utilization * 100:>5.1f}% {avail} {recovery}"
        )
        if arm.failed_invokers:
            line += f"  [{arm.failed_invokers} invoker(s) failed]"
        lines.append(line)
    lines.append(
        "all arms share one seed and (when faulted) the identical node-0 outage"
    )
    return "\n".join(lines)


__all__ = ["Fig11Arm", "Fig11Result", "run_fig11", "format_fig11"]
