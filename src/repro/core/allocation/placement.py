"""Container placement onto worker nodes.

The paper's control node "first finds a cluster node with enough spare
capacity or finds a number of nodes that can collectively host
``c_new − c_current`` new containers" (§3.3).  This module's
planner maps a batch of new containers onto nodes by best fit: it packs
small containers tightly so whole nodes stay free for the large DNN
containers.
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

    #: (request, node) for every request that found a home
    placements: List[Tuple[PlacementRequest, Node]]
    #: requests that could not be placed anywhere
    unplaced: List[PlacementRequest]


def best_fit(nodes: Sequence[Node], request: PlacementRequest,
             reserved: Optional[Dict[str, Tuple[float, float]]] = None) -> Optional[Node]:
    """The feasible node with the least remaining CPU (packs tightly).

    The cluster layer's one best-fit body (:func:`repro.cluster.node.best_fit`),
    which :meth:`~repro.cluster.cluster.EdgeCluster.find_node_for` uses too.
    """
    return node_best_fit(nodes, request.cpu, request.memory_mb, reserved)


def plan_placements(nodes: Sequence[Node], requests: Sequence[PlacementRequest]) -> PlacementPlan:
    """Map a batch of new containers onto nodes by best fit, without mutating the nodes.

    The planner tracks its own reservations so that several containers
    planned in one epoch do not all land on the node that was tightest at
    the start of the epoch.  Larger containers are placed first, which is
    the classic decreasing-size heuristic for better packing.
    """
    reserved: Dict[str, Tuple[float, float]] = {}
    placements: List[Tuple[PlacementRequest, Node]] = []
    unplaced: List[PlacementRequest] = []
    if len(requests) > 1:
        requests = sorted(requests, key=lambda r: (r.cpu, r.memory_mb), reverse=True)
    for request in requests:
        node = best_fit(nodes, request, reserved)
        if node is None:
            unplaced.append(request)
            continue
        cpu_reserved, mem_reserved = reserved.get(node.name, (0.0, 0.0))
        reserved[node.name] = (cpu_reserved + request.cpu, mem_reserved + request.memory_mb)
        placements.append((request, node))
    return PlacementPlan(placements=placements, unplaced=unplaced)


__all__ = [
    "PlacementRequest",
    "PlacementPlan",
    "best_fit",
    "plan_placements",
]
