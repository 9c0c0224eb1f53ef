"""Figure 7: effect of CPU deflation on function service time (paper §6.5).

All six realistic functions are run inside containers whose CPU
allocation is progressively deflated; the mean service time is measured
at each deflation ratio.  The paper's findings to reproduce:

* for five of the six functions, deflating by up to ~30 % costs only a
  small service-time penalty;
* beyond that, service time grows roughly linearly with deflation;
* MobileNet, which already saturates its 2 vCPUs, degrades nearly
  proportionally from the start (the worst case for deflation), but
  shows no anomalous behaviour even at 50 %+ deflation.

Two modes are provided: the *analytic* curve straight from the function
profiles (fast, used by the benchmark), and a *measured* mode that runs
each (function, deflation level) pair through the simulator at low load
and reports the empirical mean service time — verifying that the
simulator's containers actually honour the deflation response.

This module is a thin renderer over the registry scenario ``"fig7"``
(``kind="deflation_curve"``); both evaluation modes live in
:mod:`repro.scenarios.runner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.scenarios import build, run_scenario
from repro.scenarios.registry import FIG7_FUNCTIONS


@dataclass(frozen=True)
class Fig7Point:
    """Service time of one function at one deflation ratio."""

    function_name: str
    is_dnn: bool
    deflation_ratio: float
    service_time: float
    relative_slowdown: float   #: service time divided by the un-deflated service time


def run_fig7(
    functions: Sequence[str] = FIG7_FUNCTIONS,
    deflation_ratios: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7),
    measured: bool = False,
    duration: float = 60.0,
    seed: int = 7,
) -> List[Fig7Point]:
    """Regenerate Figure 7 (both sub-plots) through the scenario registry.

    Parameters
    ----------
    measured:
        If true, actually run requests through deflated containers in the
        simulator and report empirical means; otherwise evaluate the
        profiles' deflation response curves directly.
    """
    spec = build(
        "fig7",
        functions=functions,
        deflation_ratios=deflation_ratios,
        measured=measured,
        duration=duration,
        seed=seed,
    )
    return [
        Fig7Point(
            function_name=row["function"],
            is_dnn=row["is_dnn"],
            deflation_ratio=row["deflation_ratio"],
            service_time=row["service_time"],
            relative_slowdown=row["relative_slowdown"],
        )
        for row in run_scenario(spec).data["rows"]
    ]


def format_fig7(points: Sequence[Fig7Point]) -> str:
    """Render the Figure 7 curves as an aligned text table."""
    lines = [f"{'function':>14} {'dnn':>4} {'deflation%':>11} {'service (ms)':>13} {'slowdown':>9}"]
    for p in points:
        lines.append(
            f"{p.function_name:>14} {'yes' if p.is_dnn else 'no':>4} "
            f"{p.deflation_ratio * 100:>11.0f} {p.service_time * 1000:>13.1f} "
            f"{p.relative_slowdown:>9.2f}"
        )
    return "\n".join(lines)


def slowdown_at(points: Sequence[Fig7Point], function_name: str, ratio: float) -> float:
    """The relative slowdown of one function at one deflation ratio."""
    for p in points:
        if p.function_name == function_name and abs(p.deflation_ratio - ratio) < 1e-9:
            return p.relative_slowdown
    raise KeyError(f"no point for {function_name!r} at ratio {ratio}")


__all__ = [
    "Fig7Point",
    "FIG7_FUNCTIONS",
    "run_fig7",
    "format_fig7",
    "slowdown_at",
]
