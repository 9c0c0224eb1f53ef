"""Placement choosers as of commit f656a4d, consumed by ``tests/test_placement_one_pass.py``.

``_feasible``, ``worst_fit``, ``best_fit``, ``first_fit`` and
``plan_placements`` are verbatim from ``core/allocation/placement.py``;
``find_node_for`` is ``EdgeCluster.find_node_for``, taking the node list
as an argument.  Each chooser built the feasible list first and then
took a ``min`` / ``max`` over a lambda key, reading a node's free
capacity up to three times; ``find_node_for`` tested the fit in its own
float form (``cpu <= cpu_free + 1e-9``, through ``Node.can_fit``).  The
one-pass bodies that replaced them must pick the same node, or ``None``.
"""

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.allocation.placement import PlacementPlan, PlacementRequest


def _feasible(nodes: Iterable, request: PlacementRequest,
              reserved: Dict[str, Tuple[float, float]]) -> List:
    """Nodes that still fit the request after the plan's prior reservations."""
    feasible = []
    for node in nodes:
        if not node.available:
            continue
        reserved_cpu, reserved_mem = reserved.get(node.name, (0.0, 0.0))
        if (node.cpu_free - reserved_cpu >= request.cpu - 1e-9 and
                node.memory_free_mb - reserved_mem >= request.memory_mb - 1e-9):
            feasible.append(node)
    return feasible


def worst_fit(nodes: Sequence, request: PlacementRequest,
              reserved: Optional[Dict[str, Tuple[float, float]]] = None):
    """The feasible node with the most remaining CPU (spreads load)."""
    reserved = reserved or {}
    feasible = _feasible(nodes, request, reserved)
    if not feasible:
        return None
    def free_cpu(node) -> float:
        """Free CPU on a node net of in-plan reservations."""
        return node.cpu_free - reserved.get(node.name, (0.0, 0.0))[0]
    return max(feasible, key=lambda n: (free_cpu(n), n.memory_free_mb, n.name))


def best_fit(nodes: Sequence, request: PlacementRequest,
             reserved: Optional[Dict[str, Tuple[float, float]]] = None):
    """The feasible node with the least remaining CPU (packs tightly)."""
    reserved = reserved or {}
    feasible = _feasible(nodes, request, reserved)
    if not feasible:
        return None
    def free_cpu(node) -> float:
        """Free CPU on a node net of in-plan reservations."""
        return node.cpu_free - reserved.get(node.name, (0.0, 0.0))[0]
    return min(feasible, key=lambda n: (free_cpu(n), n.memory_free_mb, n.name))


def first_fit(nodes: Sequence, request: PlacementRequest,
              reserved: Optional[Dict[str, Tuple[float, float]]] = None):
    """The first feasible node in the given order."""
    reserved = reserved or {}
    feasible = _feasible(nodes, request, reserved)
    return feasible[0] if feasible else None


_STRATEGIES = {
    "worst_fit": worst_fit,
    "best_fit": best_fit,
    "first_fit": first_fit,
}


def plan_placements(nodes: Sequence, requests: Sequence[PlacementRequest],
                    strategy: str = "worst_fit") -> PlacementPlan:
    """Map a batch of new containers onto nodes without mutating the nodes."""
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown placement strategy {strategy!r}; choose from {sorted(_STRATEGIES)}")
    chooser = _STRATEGIES[strategy]
    reserved: Dict[str, Tuple[float, float]] = {}
    placements: List[Tuple[PlacementRequest, str]] = []
    unplaced: List[PlacementRequest] = []
    ordered = sorted(requests, key=lambda r: (r.cpu, r.memory_mb), reverse=True)
    for request in ordered:
        node = chooser(nodes, request, reserved)
        if node is None:
            unplaced.append(request)
            continue
        cpu_reserved, mem_reserved = reserved.get(node.name, (0.0, 0.0))
        reserved[node.name] = (cpu_reserved + request.cpu, mem_reserved + request.memory_mb)
        placements.append((request, node.name))
    return PlacementPlan(placements=placements, unplaced=unplaced)


def find_node_for(nodes: Sequence, cpu: float, memory_mb: float):
    """``EdgeCluster.find_node_for``: best-fit placement, the feasible node with the least free CPU."""
    candidates = [n for n in nodes if n.can_fit(cpu, memory_mb) and n.available]
    if not candidates:
        return None
    return min(candidates, key=lambda n: (n.cpu_free, n.memory_free_mb, n.name))
