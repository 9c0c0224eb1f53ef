"""Container placement onto worker nodes.

The paper's control node "first finds a cluster node with enough spare
capacity or finds a number of nodes that can collectively host
``c_new − c_current`` new containers" (§3.3).  This module provides the
usual bin-packing heuristics plus a planner that maps a batch of new
containers onto nodes.  The controller's default is best-fit (pack
small containers tightly so whole nodes stay free for the large DNN
containers); worst-fit and first-fit are provided for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.node import Node
from repro.cluster.node import best_fit as node_best_fit


@dataclass(frozen=True)
class PlacementRequest:
    """One container that needs a node."""

    function_name: str
    cpu: float
    memory_mb: float

    def __post_init__(self) -> None:
        """Validate the requested container size."""
        if self.cpu <= 0 or self.memory_mb <= 0:
            raise ValueError("placement request sizes must be positive")


@dataclass
class PlacementPlan:
    """Result of planning a batch of placements."""

    #: (request, node name) for every request that found a home
    placements: List[Tuple[PlacementRequest, str]]
    #: requests that could not be placed anywhere
    unplaced: List[PlacementRequest]

    @property
    def fully_placed(self) -> bool:
        """Whether every requested container found a node."""
        return not self.unplaced


def worst_fit(nodes: Sequence[Node], request: PlacementRequest,
              reserved: Optional[Dict[str, Tuple[float, float]]] = None) -> Optional[Node]:
    """The feasible node with the most remaining CPU (spreads load).

    The mirror of :func:`best_fit`: the greatest ``(free CPU net of
    reservations, free memory, name)``, first in order on a tie.
    """
    best = None
    best_key = None
    for node in nodes:
        if not node.available:
            continue
        held_cpu, held_memory = reserved.get(node.name, (0.0, 0.0)) if reserved else (0.0, 0.0)
        free_cpu = node.cpu_free - held_cpu
        free_memory = node.memory_free_mb
        if free_cpu >= request.cpu - 1e-9 and free_memory - held_memory >= request.memory_mb - 1e-9:
            key = (free_cpu, free_memory, node.name)
            if best_key is None or key > best_key:
                best, best_key = node, key
    return best


def best_fit(nodes: Sequence[Node], request: PlacementRequest,
             reserved: Optional[Dict[str, Tuple[float, float]]] = None) -> Optional[Node]:
    """The feasible node with the least remaining CPU (packs tightly).

    The cluster layer's one best-fit body (:func:`repro.cluster.node.best_fit`),
    which :meth:`~repro.cluster.cluster.EdgeCluster.find_node_for` uses too.
    """
    return node_best_fit(nodes, request.cpu, request.memory_mb, reserved)


def first_fit(nodes: Sequence[Node], request: PlacementRequest,
              reserved: Optional[Dict[str, Tuple[float, float]]] = None) -> Optional[Node]:
    """The first feasible node in the given order."""
    for node in nodes:
        if not node.available:
            continue
        held_cpu, held_memory = reserved.get(node.name, (0.0, 0.0)) if reserved else (0.0, 0.0)
        if (node.cpu_free - held_cpu >= request.cpu - 1e-9
                and node.memory_free_mb - held_memory >= request.memory_mb - 1e-9):
            return node
    return None


_STRATEGIES = {
    "worst_fit": worst_fit,
    "best_fit": best_fit,
    "first_fit": first_fit,
}


def plan_placements(
    nodes: Sequence[Node],
    requests: Sequence[PlacementRequest],
    strategy: str = "worst_fit",
) -> PlacementPlan:
    """Map a batch of new containers onto nodes without mutating the nodes.

    The planner tracks its own reservations so that several containers
    planned in one epoch do not all land on the node that was emptiest at
    the start of the epoch.  Larger containers are placed first, which is
    the classic decreasing-size heuristic for better packing.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown placement strategy {strategy!r}; choose from {sorted(_STRATEGIES)}")
    chooser = _STRATEGIES[strategy]
    reserved: Dict[str, Tuple[float, float]] = {}
    placements: List[Tuple[PlacementRequest, str]] = []
    unplaced: List[PlacementRequest] = []
    if len(requests) > 1:
        requests = sorted(requests, key=lambda r: (r.cpu, r.memory_mb), reverse=True)
    for request in requests:
        node = chooser(nodes, request, reserved)
        if node is None:
            unplaced.append(request)
            continue
        cpu_reserved, mem_reserved = reserved.get(node.name, (0.0, 0.0))
        reserved[node.name] = (cpu_reserved + request.cpu, mem_reserved + request.memory_mb)
        placements.append((request, node.name))
    return PlacementPlan(placements=placements, unplaced=unplaced)


__all__ = [
    "PlacementRequest",
    "PlacementPlan",
    "worst_fit",
    "best_fit",
    "first_fit",
    "plan_placements",
]
