"""Weighted round robin (WRR) load balancing over a function's containers.

LaSS separates the control path from the data path (§5, Figure 2b): the
controller tells the load balancer which containers exist and how big
each one currently is, and the load balancer dispatches every incoming
invocation directly to a container using *weighted* round robin, where a
container's weight is its current CPU allocation.  A container deflated
to 50 % therefore receives half as many requests as a standard one,
which is what keeps waiting times bounded when container sizes are
heterogeneous.

The implementation uses the "smooth weighted round robin" algorithm
(the one nginx uses): at each pick, every candidate's running score is
increased by its weight and the highest-scoring candidate is chosen and
penalised by the total weight.  This produces an evenly interleaved
sequence rather than bursts to the heaviest container.
"""

from __future__ import annotations

from math import inf
from operator import attrgetter
from typing import Dict, List, Optional, Sequence

from repro.cluster.container import Container, ContainerState

_WARM = ContainerState.WARM

#: Scoring order of an idle set: smallest current CPU first (id as tie-break).
_idle_sort_key = attrgetter("current_cpu", "container_id")


class WeightedRoundRobinBalancer:
    """Per-function smooth weighted round robin dispatcher.

    The balancer is stateless with respect to containers: the candidate
    set is passed on every call (it changes whenever the controller
    creates, terminates, or resizes containers), while the smoothing
    state is keyed by container id and holds, after every pick, exactly
    the scores of that pick's candidates.
    """

    def __init__(self) -> None:
        # function name -> container id -> current smoothing score
        """Start with empty per-function smoothing scores."""
        self._scores: Dict[str, Dict[str, float]] = {}

    def pick(self, function_name: str, containers: Sequence[Container]) -> Optional[Container]:
        """Choose the next container for an invocation of ``function_name``.

        Only warm containers are eligible; they are scored in the order
        given and must be distinct.  Returns ``None`` when no container
        can take the request (the caller then queues or drops).
        """
        return self._score(function_name, [c for c in containers if c.state is _WARM])

    def pick_idle(self, function_name: str, index: Dict[str, Container]) -> Optional[Container]:
        """Choose among a dispatcher's idle index (container id -> container).

        One pass validates every entry on the fields ``is_dispatchable``
        reads — an entry that is no longer warm and empty was left by
        code that bypassed the dispatcher, and is discarded from
        ``index`` — then the survivors are scored smallest CPU first.
        Returns ``None`` when nothing survives.
        """
        survivors = []
        for container in index.values():
            if (container.state is _WARM and container._current is None
                    and not container._queue):
                survivors.append(container)
        if len(survivors) < len(index):
            index.clear()
            for container in survivors:
                index[container.container_id] = container
        if len(survivors) > 1:
            survivors.sort(key=_idle_sort_key)
        return self._score(function_name, survivors)

    def _score(self, function_name: str, eligible: List[Container]) -> Optional[Container]:
        """The smooth-WRR step over ``eligible``, in order — the one scoring body.

        Every candidate's score grows by its weight (its current,
        possibly deflated, CPU), the highest wins (the first, among
        scores within ``1e-15`` of each other) and pays the total
        weight.  The new scores replace the function's old ones
        wholesale, which is what drops the state of containers that are
        no longer candidates.
        """
        if not eligible:
            return None
        if len(eligible) == 1:
            self.forced_pick(function_name, eligible[0])
            return eligible[0]
        scores = self._scores.get(function_name)
        if scores is None:
            scores = self._scores[function_name] = {}
        old_score = scores.get
        fresh: Dict[str, float] = {}
        total_weight = 0.0
        best = eligible[0]
        best_score = -inf
        for container in eligible:
            weight = container.current_cpu
            if not weight > 1e-9:
                weight = 1e-9
            total_weight += weight
            container_id = container.container_id
            score = fresh[container_id] = old_score(container_id, 0.0) + weight
            if score > best_score + 1e-15:
                best_score = score
                best = container
        fresh[best.container_id] -= total_weight
        scores.clear()
        scores.update(fresh)
        return best

    def forced_pick(self, function_name: str, only: Container) -> None:
        """Account for a pick among one candidate: prune every other score.

        Smooth WRR would add the weight and immediately subtract the
        (equal) total, so ``only``'s own score is unchanged; the
        dispatcher's single-idle-container path calls this directly.
        """
        scores = self._scores.get(function_name)
        if scores and (len(scores) > 1 or only.container_id not in scores):
            kept = scores.get(only.container_id)
            scores.clear()
            if kept is not None:
                scores[only.container_id] = kept

    def reset(self, function_name: Optional[str] = None) -> None:
        """Clear smoothing state for one function or for all of them."""
        if function_name is None:
            self._scores.clear()
        else:
            self._scores.pop(function_name, None)

    def dispatch_counts(
        self, function_name: str, containers: Sequence[Container], n: int
    ) -> Dict[str, int]:
        """Simulate ``n`` consecutive picks and count picks per container.

        A pure helper used by tests and by the model-validation experiments
        to check that dispatch proportions converge to CPU proportions.
        """
        counts: Dict[str, int] = {c.container_id: 0 for c in containers}
        for _ in range(n):
            chosen = self.pick(function_name, containers)
            if chosen is None:
                break
            counts[chosen.container_id] += 1
        return counts


def proportional_split(weights: Sequence[float], total: int) -> List[int]:
    """Split ``total`` discrete items across ``weights`` proportionally.

    Largest-remainder method; the result always sums to ``total``.  Used
    by the fair-share allocator when converting fractional CPU shares to
    whole containers.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if not weights:
        return []
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    weight_sum = sum(weights)
    if weight_sum <= 0:
        base = [total // len(weights)] * len(weights)
        for i in range(total - sum(base)):
            base[i] += 1
        return base
    raw = [w / weight_sum * total for w in weights]
    floors = [int(x) for x in raw]
    remainder = total - sum(floors)
    order = sorted(range(len(weights)), key=lambda i: raw[i] - floors[i], reverse=True)
    for i in order[:remainder]:
        floors[i] += 1
    return floors
