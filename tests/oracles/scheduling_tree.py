"""``SchedulingTree.allocate`` as of commit 06b2888, consumed by ``tests/test_hierarchy_placement.py``.

The recursive body before leaf children were granted in their parent's
frame: it reads ``is_leaf`` at every node, walks every subtree once per
level for its demand, and validates names against ``function_names()``
before any allocation.  Verbatim apart from taking the tree as an
argument.
"""

from typing import Dict, Mapping

from repro.core.allocation.fair_share import progressive_filling


def allocate_reference(tree, demands: Mapping[str, float], capacity: float) -> Dict[str, float]:
    """Hierarchical demand-aware weighted fair allocation (the pre-inlining body)."""
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    known = set(tree.function_names())
    unknown = set(demands) - known
    if unknown:
        raise KeyError(f"demands for functions not in the tree: {sorted(unknown)}")
    allocations: Dict[str, float] = {}
    _allocate_node(tree, tree.root, demands, capacity, allocations)
    return allocations


def _subtree_demand(tree, node, demands: Mapping[str, float]) -> float:
    if node.is_leaf and node is not tree.root:
        return float(demands.get(node.name, 0.0))
    return sum(_subtree_demand(tree, child, demands) for child in node.children)


def _allocate_node(tree, node, demands: Mapping[str, float], capacity: float,
                   out: Dict[str, float]) -> None:
    if node.is_leaf and node is not tree.root:
        out[node.name] = min(capacity, float(demands.get(node.name, 0.0)))
        return
    if not node.children:
        return
    child_demands = {
        child.name: _subtree_demand(tree, child, demands) for child in node.children
    }
    child_weights = {child.name: child.weight for child in node.children}
    if sum(child_demands.values()) == 0:
        for child in node.children:
            _allocate_node(tree, child, demands, 0.0, out)
        return
    result = progressive_filling(child_demands, child_weights, capacity, discrete=False)
    for child in node.children:
        _allocate_node(tree, child, demands, result.allocations[child.name], out)
