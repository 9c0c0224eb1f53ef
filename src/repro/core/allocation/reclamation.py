"""Resource reclamation policies: termination and deflation (paper §4.2).

Both policies are *planners*: pure functions from (the containers each
function currently has, the adjusted CPU allocation each function
should have) to an ordered list of actions — terminate, deflate,
inflate, create — that the controller then executes through the
invokers.  Keeping them pure makes the two policies directly comparable
in tests and ablation benchmarks.

Termination policy
    Over-allocated functions lose whole containers (smallest current CPU
    first) until they are within their adjusted allocation; freed
    capacity is used to create standard-size containers for
    under-allocated functions.  Because only whole standard containers
    are created, a fragment of capacity smaller than a standard
    container is left unused — the fragmentation the paper measures as a
    ~6 % utilisation loss.

Deflation policy
    Over-allocated functions keep their container *count* but all their
    containers are deflated in small increments, up to a threshold
    ``τ`` of the standard size, until enough CPU has been reclaimed; if
    the threshold is reached first, the remainder is reclaimed by
    terminating containers.  Under-allocated functions first re-inflate
    any deflated containers, then receive new containers — possibly
    deflated ones, so leftover fragments of capacity are still usable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Protocol, Sequence


class ReclamationPolicy(enum.Enum):
    """Which reclamation mechanism the controller uses under overload (§4.2)."""

    TERMINATION = "termination"
    DEFLATION = "deflation"


class ContainerLike(Protocol):
    """The minimal container interface the planners need."""

    container_id: str
    function_name: str
    current_cpu: float
    standard_cpu: float


# ----------------------------------------------------------------------
# Actions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TerminateAction:
    """Terminate a container immediately and reclaim its resources."""

    function_name: str
    container_id: str


@dataclass(frozen=True)
class DeflateAction:
    """Resize a container in place down to ``cpu`` vCPUs."""

    function_name: str
    container_id: str
    cpu: float


@dataclass(frozen=True)
class InflateAction:
    """Resize a container in place up to ``cpu`` vCPUs (at most its standard size)."""

    function_name: str
    container_id: str
    cpu: float


@dataclass(frozen=True)
class CreateAction:
    """Create a new container with the given CPU allocation."""

    function_name: str
    cpu: float


Action = object  # union of the four dataclasses above


@dataclass
class ReclamationPlan:
    """An ordered action list plus bookkeeping for tests and metrics."""

    terminations: List[TerminateAction] = field(default_factory=list)
    deflations: List[DeflateAction] = field(default_factory=list)
    inflations: List[InflateAction] = field(default_factory=list)
    creations: List[CreateAction] = field(default_factory=list)

    @property
    def actions(self) -> List[Action]:
        """All actions in execution order: reclaim first, then give back."""
        return [*self.deflations, *self.terminations, *self.inflations, *self.creations]

    @property
    def cpu_reclaimed(self) -> float:
        """CPU freed by terminations and deflations (requires planner to fill deltas)."""
        return self._cpu_reclaimed

    _cpu_reclaimed: float = 0.0

    def is_empty(self) -> bool:
        """Whether the plan contains no actions at all."""
        return not (self.terminations or self.deflations or self.inflations or self.creations)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _total_cpu(containers: Sequence[ContainerLike]) -> float:
    """Sum of the containers' current CPU allocations."""
    return sum(c.current_cpu for c in containers)


def _sorted_smallest_first(containers: Sequence[ContainerLike]) -> List[ContainerLike]:
    """Containers ordered smallest current CPU first (id as tie-break)."""
    return sorted(containers, key=lambda c: (c.current_cpu, c.container_id))


# ----------------------------------------------------------------------
# Termination policy
# ----------------------------------------------------------------------
class TerminationPolicy:
    """Reclaim by terminating whole containers (paper §4.2, policy 1)."""

    name = "termination"

    def plan(
        self,
        containers_by_function: Mapping[str, Sequence[ContainerLike]],
        target_cpu: Mapping[str, float],
        standard_cpu: Mapping[str, float],
        free_cpu: float = 0.0,
    ) -> ReclamationPlan:
        """Build the action plan.

        Parameters
        ----------
        containers_by_function:
            Current live containers of every function.
        target_cpu:
            Adjusted CPU allocation per function (``c_adj_i`` converted to
            CPU units by the controller).
        standard_cpu:
            Standard container CPU size per function.
        free_cpu:
            CPU currently unallocated in the cluster (usable for creations
            before any reclamation happens).
        """
        plan = ReclamationPlan()
        reclaimed = 0.0

        # Phase 1: reclaim from over-allocated functions.
        for name, containers in containers_by_function.items():
            target = float(target_cpu.get(name, _total_cpu(containers)))
            std = float(standard_cpu.get(name, containers[0].standard_cpu if containers else 1.0))
            target_count = int(math.floor(target / std + 1e-9)) if std > 0 else 0
            live = list(containers)
            # under the termination policy deflated containers are restored
            # to standard size whenever the node-level budget allows; plan
            # inflations only when the function is not shrinking.
            if len(live) > target_count:
                victims = _sorted_smallest_first(live)[: len(live) - target_count]
                for victim in victims:
                    plan.terminations.append(TerminateAction(name, victim.container_id))
                    reclaimed += victim.current_cpu
            else:
                for container in live:
                    if container.current_cpu < container.standard_cpu - 1e-9:
                        plan.inflations.append(
                            InflateAction(name, container.container_id, container.standard_cpu)
                        )

        # Phase 2: give capacity to under-allocated functions, whole
        # standard containers only.
        available = free_cpu + reclaimed
        terminated = {t.container_id for t in plan.terminations}
        for name, containers in sorted(containers_by_function.items()):
            target = float(target_cpu.get(name, 0.0))
            std = float(standard_cpu.get(name, containers[0].standard_cpu if containers else 1.0))
            if std <= 0:
                continue
            surviving = [c for c in containers if c.container_id not in terminated]
            current = _total_cpu(surviving)
            target_count = int(math.floor(target / std + 1e-9))
            missing = target_count - len(surviving)
            for _ in range(max(0, missing)):
                if available + 1e-9 < std:
                    break
                plan.creations.append(CreateAction(name, std))
                available -= std
                current += std

        plan._cpu_reclaimed = reclaimed
        return plan


# ----------------------------------------------------------------------
# Deflation policy
# ----------------------------------------------------------------------
class DeflationPolicy:
    """Reclaim by deflating containers in place (paper §4.2, policy 2).

    Parameters
    ----------
    threshold:
        Maximum fraction ``τ`` of a container's standard CPU that may be
        reclaimed by deflation (the paper sets this conservatively to 30 %).
    increment:
        Deflation step size, as a fraction of the standard CPU, applied to
        every container of an over-allocated function per iteration.
    allow_deflated_creation:
        Whether new containers for under-allocated functions may be created
        already deflated (down to ``1 − τ`` of standard size) so that
        capacity fragments smaller than a standard container are still
        usable.  This is what removes the unused-capacity slivers visible
        under the termination policy in Figures 8 and 9.
    """

    name = "deflation"

    def __init__(
        self,
        threshold: float = 0.3,
        increment: float = 0.05,
        allow_deflated_creation: bool = True,
    ) -> None:
        """Configure the deflation threshold and per-step increment."""
        if not 0 < threshold < 1:
            raise ValueError("threshold must be in (0, 1)")
        if not 0 < increment <= threshold:
            raise ValueError("increment must be in (0, threshold]")
        self.threshold = float(threshold)
        self.increment = float(increment)
        self.allow_deflated_creation = bool(allow_deflated_creation)

    def plan(
        self,
        containers_by_function: Mapping[str, Sequence[ContainerLike]],
        target_cpu: Mapping[str, float],
        standard_cpu: Mapping[str, float],
        free_cpu: float = 0.0,
    ) -> ReclamationPlan:
        """Build the action plan (same signature as :class:`TerminationPolicy`)."""
        plan = ReclamationPlan()
        reclaimed = 0.0

        # Phase 1: reclaim from over-allocated functions by deflation.
        #
        # Conceptually this follows the paper's iterative procedure
        # (repeatedly shave `increment` off every container until the
        # aggregate matches the target, then terminate if the threshold is
        # hit first); the implementation jumps straight to that procedure's
        # fixed point: keep as many containers as can each stay at or above
        # ``(1 − τ)`` of their standard size while summing to the target,
        # terminate the rest, and set the survivors' levels so the
        # aggregate equals the target exactly.
        for name, containers in containers_by_function.items():
            live = list(containers)
            if not live:
                continue
            target = float(target_cpu.get(name, _total_cpu(live)))
            total = _total_cpu(live)
            if total <= target + 1e-9:
                continue

            min_level_fraction = 1.0 - self.threshold
            ordered = _sorted_smallest_first(live)
            # largest containers are the most valuable survivors (they can
            # absorb the most deflation); terminate from the smallest end.
            survivors: List[ContainerLike] = list(ordered)
            victims: List[ContainerLike] = []
            while survivors:
                min_total = sum(c.standard_cpu * min_level_fraction for c in survivors)
                if min_total <= target + 1e-9:
                    break
                victims.append(survivors.pop(0))

            for victim in victims:
                plan.terminations.append(TerminateAction(name, victim.container_id))
                reclaimed += victim.current_cpu

            if survivors:
                # distribute the target over the survivors in proportion to
                # their standard sizes, capped at the standard size
                standard_total = sum(c.standard_cpu for c in survivors)
                budget = min(target, standard_total)
                for c in survivors:
                    share = c.standard_cpu / standard_total * budget
                    new_level = min(c.standard_cpu, max(c.standard_cpu * min_level_fraction, share))
                    if new_level < c.current_cpu - 1e-9:
                        plan.deflations.append(DeflateAction(name, c.container_id, new_level))
                        reclaimed += c.current_cpu - new_level
                    elif new_level > c.current_cpu + 1e-9:
                        plan.inflations.append(InflateAction(name, c.container_id, new_level))
                        reclaimed -= new_level - c.current_cpu

        # Phase 2: give capacity to under-allocated functions.
        available = free_cpu + reclaimed
        terminated = {t.container_id for t in plan.terminations}
        for name, containers in sorted(containers_by_function.items()):
            live = [c for c in containers if c.container_id not in terminated]
            target = float(target_cpu.get(name, 0.0))
            std = float(standard_cpu.get(name, live[0].standard_cpu if live else 1.0))
            current = _total_cpu(live)
            deficit = target - current
            if deficit <= 1e-9:
                continue

            # 2a: re-inflate this function's own deflated containers first
            for c in _sorted_smallest_first(live):
                if deficit <= 1e-9 or available <= 1e-9:
                    break
                headroom = c.standard_cpu - c.current_cpu
                if headroom <= 1e-9:
                    continue
                grant = min(headroom, deficit, available)
                plan.inflations.append(InflateAction(name, c.container_id, c.current_cpu + grant))
                deficit -= grant
                available -= grant

            # 2b: create new containers, standard size while the deficit allows
            if std > 0:
                while deficit >= std - 1e-9 and available >= std - 1e-9:
                    plan.creations.append(CreateAction(name, std))
                    deficit -= std
                    available -= std
                # 2c: one final deflated container to use the remaining fragment
                min_size = std * (1.0 - self.threshold)
                if (
                    self.allow_deflated_creation
                    and deficit >= min_size - 1e-9
                    and available >= min_size - 1e-9
                ):
                    size = min(std, deficit, available)
                    plan.creations.append(CreateAction(name, size))
                    deficit -= size
                    available -= size

        plan._cpu_reclaimed = reclaimed
        return plan


__all__ = [
    "ReclamationPolicy",
    "ContainerLike",
    "TerminateAction",
    "DeflateAction",
    "InflateAction",
    "CreateAction",
    "ReclamationPlan",
    "TerminationPolicy",
    "DeflationPolicy",
]
