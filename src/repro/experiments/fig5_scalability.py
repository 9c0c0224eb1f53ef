"""Figure 5: scalability of the allocation algorithm (paper §6.3).

The paper measures how long the allocation algorithm takes to react to
a load spike as a function of the number of containers the function
already has, for two spike sizes (a 10 % increase and a doubling), and
compares its original Scala implementation against an optimised Julia
one.  The Julia path stays under ~100 ms even at 1000 containers.

Here each point is timed on the two sizing paths the reproduction
actually runs, both starting from the current allocation:

* ``"reference"`` — :func:`~repro.core.queueing.sizing.required_containers`,
  Algorithm 1 as written: one log-space M/M/c bound per candidate count;
* ``"solver"`` — a cold :class:`~repro.core.queueing.solver.SizingSolver`
  (no memo, no warm start): the control plane's walk, one count at a
  time from the stability minimum, through a closed form up to 32
  containers and through the reference's own log-space body above.

Both must report the same new container count.  The times are
wall-clock on the host that runs them, so this figure is not a
registered scenario (whose envelopes are pure functions of their spec):
the timing loop lives here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.queueing.sizing import required_containers
from repro.core.queueing.solver import SizingSolver

#: Load multiplier of each spike size.
_SPIKES = {"10%": 1.1, "2x": 2.0}

#: Timed calls per (point, path); the fastest is reported.
_REPEATS = 3


@dataclass(frozen=True)
class Fig5Point:
    """Timing of one allocation computation."""

    implementation: str          #: "reference" (Algorithm 1) or "solver" (cold SizingSolver)
    spike: str                   #: "10%" or "2x"
    current_containers: int
    new_containers: int
    compute_seconds: float


def _rate_for_containers(containers: int, mu: float, wait_budget: float,
                         percentile: float) -> float:
    """Find an arrival rate for which the model picks ≈ ``containers`` containers.

    Coarse inversion of the sizing function: start from λ ≈ 0.9·c·μ and
    apply a few multiplicative correction steps.
    """
    lam = 0.9 * containers * mu
    for _ in range(8):
        got = required_containers(lam, mu, wait_budget, percentile).containers
        if got == containers:
            return lam
        lam *= containers / max(1, got)
    return lam


def run_fig5(
    container_counts: Sequence[int] = (10, 50, 100, 250, 500, 750, 1000),
    mu: float = 10.0,
    slo_deadline: float = 0.1,
    percentile: float = 0.99,
    spikes: Sequence[str] = ("10%", "2x"),
) -> List[Fig5Point]:
    """Regenerate Figure 5: allocation-algorithm compute time vs. container count.

    Two rows per (count, spike) point: the reference path, then the
    cold solver.  Each reports the fastest of three timed calls.
    """
    solver = SizingSolver(cache_size=0, warm_start=False)
    paths = (("reference", required_containers), ("solver", solver.solve))
    points: List[Fig5Point] = []
    for count in container_counts:
        count = int(count)
        base_lam = _rate_for_containers(count, mu, slo_deadline, percentile)
        for spike in spikes:
            lam = base_lam * _SPIKES[spike]
            for name, size in paths:
                best = float("inf")
                for _ in range(_REPEATS):
                    start = time.perf_counter()
                    result = size(lam, mu, slo_deadline, percentile,
                                  current_containers=count)
                    best = min(best, time.perf_counter() - start)
                points.append(Fig5Point(name, spike, count, result.containers, best))
    return points


def format_fig5(points: Sequence[Fig5Point]) -> str:
    """Render the Figure 5 timings as an aligned text table."""
    lines = [f"{'impl':>10} {'spike':>6} {'containers':>11} {'new c':>6} {'time (ms)':>10}"]
    for p in points:
        lines.append(
            f"{p.implementation:>10} {p.spike:>6} {p.current_containers:>11d} "
            f"{p.new_containers:>6d} {p.compute_seconds * 1000:>10.2f}"
        )
    return "\n".join(lines)


def max_time_seconds(points: Sequence[Fig5Point], implementation: str) -> float:
    """The worst-case compute time of one implementation across all points."""
    relevant = [p.compute_seconds for p in points if p.implementation == implementation]
    return max(relevant) if relevant else 0.0


__all__ = ["Fig5Point", "run_fig5", "format_fig5", "max_time_seconds"]
