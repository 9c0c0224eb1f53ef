"""Hierarchical scheduling tree (paper §5).

"For function scheduling, we implemented a two level hierarchical
scheduling tree by adding the notion of weight to user (namespace) and
actions.  LaSS uses these weights to calculate the fair [share] of
resources for each action.  Our model can be extended to a hierarchical
scheduling tree with arbitrary levels."

The tree's leaves are functions; internal nodes are users (namespaces)
or arbitrary grouping levels.  Fair-share capacity flows top-down: at
every internal node the available capacity is divided among the
children with the same demand-aware weighted algorithm used for flat
fair share (:func:`repro.core.allocation.fair_share.water_fill`),
where a child's demand is the total demand of its subtree.  Capacity a
subtree cannot use is therefore available to its siblings, exactly as in
the flat case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from typing import Dict, Iterable, List, Mapping, Optional

from repro.core.allocation.fair_share import water_fill

_weight = attrgetter("weight")


@dataclass
class SchedulingNode:
    """A node in the scheduling tree.

    Leaves carry function names; internal nodes carry children.
    """

    name: str
    weight: float = 1.0
    children: List["SchedulingNode"] = field(default_factory=list)

    def __post_init__(self) -> None:
        """Validate the node's weight."""
        if self.weight <= 0:
            raise ValueError(f"node {self.name!r}: weight must be positive")

    @property
    def is_leaf(self) -> bool:
        """Whether this node is a function (no children)."""
        return not self.children

    def add_child(self, child: "SchedulingNode") -> "SchedulingNode":
        """Attach a child node and return it (for chaining)."""
        if any(c.name == child.name for c in self.children):
            raise ValueError(f"duplicate child name {child.name!r} under {self.name!r}")
        self.children.append(child)
        return child

    def leaves(self) -> List["SchedulingNode"]:
        """All leaf nodes in this subtree, in depth-first order (one walk, no recursion)."""
        result: List[SchedulingNode] = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(reversed(node.children))
            else:
                result.append(node)
        return result

    def find(self, name: str) -> Optional["SchedulingNode"]:
        """Depth-first search for a node by name."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None


class SchedulingTree:
    """A weighted fair-share hierarchy over functions.

    Examples
    --------
    The evaluation's §6.7 setup — two users, user 2 with twice the weight
    of user 1, three functions each::

        tree = SchedulingTree()
        u1 = tree.add_user("user-1", weight=1.0)
        u2 = tree.add_user("user-2", weight=2.0)
        tree.add_function("geofence", user="user-1")
        ...
    """

    def __init__(self, root_name: str = "cluster") -> None:
        """Create a tree containing only the root node."""
        self.root = SchedulingNode(root_name, weight=1.0)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_user(self, name: str, weight: float = 1.0) -> SchedulingNode:
        """Add a user (namespace) directly under the root."""
        return self.root.add_child(SchedulingNode(name, weight=weight))

    def add_function(self, name: str, user: Optional[str] = None, weight: float = 1.0) -> SchedulingNode:
        """Add a function leaf under ``user`` (or directly under the root)."""
        parent = self.root if user is None else self.root.find(user)
        if parent is None:
            raise KeyError(f"unknown user {user!r}")
        return parent.add_child(SchedulingNode(name, weight=weight))

    @classmethod
    def flat(cls, weights: Mapping[str, float]) -> "SchedulingTree":
        """A single-level tree: every function directly under the root."""
        tree = cls()
        for name, weight in weights.items():
            tree.add_function(name, weight=weight)
        return tree

    @classmethod
    def two_level(cls, users: Mapping[str, float], functions: Mapping[str, str],
                  function_weights: Optional[Mapping[str, float]] = None) -> "SchedulingTree":
        """Build the paper's two-level tree.

        Parameters
        ----------
        users:
            user name → user weight.
        functions:
            function name → owning user.
        function_weights:
            optional per-function weights within their user (default 1).
        """
        tree = cls()
        for user, weight in users.items():
            tree.add_user(user, weight=weight)
        for fn, user in functions.items():
            weight = 1.0 if function_weights is None else function_weights.get(fn, 1.0)
            tree.add_function(fn, user=user, weight=weight)
        return tree

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def function_names(self) -> List[str]:
        """All function (leaf) names."""
        return [leaf.name for leaf in self.root.leaves()]

    def effective_weights(self) -> Dict[str, float]:
        """Flattened per-function weights: the product of normalised weights
        down the path from the root.

        These are the weights to use if a flat fair-share computation must
        approximate the hierarchical one (e.g. for the guaranteed shares
        reported to users).
        """
        result: Dict[str, float] = {}

        def descend(node: SchedulingNode, multiplier: float) -> None:
            """Recursive helper: accumulate each leaf's product of level weights."""
            if node.is_leaf and node is not self.root:
                result[node.name] = multiplier
                return
            total = sum(map(_weight, node.children))
            for child in node.children:
                descend(child, multiplier * child.weight / total)

        descend(self.root, 1.0)
        return result

    def guaranteed_shares(self, capacity: float) -> Dict[str, float]:
        """Per-function guaranteed minimum shares of ``capacity``."""
        weights = self.effective_weights()
        return {name: weight * capacity for name, weight in weights.items()}

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, demands: Mapping[str, float], capacity: float) -> Dict[str, float]:
        """Hierarchical demand-aware weighted fair allocation.

        ``demands`` maps function names to their desired allocation (CPU
        units).  The returned allocations never exceed the demands and sum
        to at most ``capacity``.
        """
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        unknown = set(demands).difference(self.function_names())
        if unknown:
            raise KeyError(f"demands for functions not in the tree: {sorted(unknown)}")
        allocations: Dict[str, float] = {}
        self._allocate_node(self.root, demands, capacity, allocations)
        return allocations

    def _subtree_demand(self, node: SchedulingNode, demands: Mapping[str, float]) -> float:
        """Total demand of all leaves under ``node`` (a child, never the root)."""
        if not node.children:
            return float(demands.get(node.name, 0.0))
        return sum(map(self._subtree_demand, node.children, repeat(demands)))

    def _allocate_node(
        self,
        node: SchedulingNode,
        demands: Mapping[str, float],
        capacity: float,
        out: Dict[str, float],
    ) -> None:
        """Recursively water-fill a node's capacity over its children.

        A leaf child is granted ``min(capacity, demand)`` here rather than
        in a frame of its own.
        """
        children = node.children
        if not children:
            if node is not self.root:
                out[node.name] = min(capacity, float(demands.get(node.name, 0.0)))
            return
        child_demands = {
            child.name: (self._subtree_demand(child, demands) if child.children
                         else float(demands.get(child.name, 0.0)))
            for child in children
        }
        if sum(child_demands.values()) == 0:
            granted = dict.fromkeys(child_demands, 0.0)
        else:
            child_weights = {child.name: child.weight for child in children}
            granted = water_fill(child_demands, child_weights, capacity)
        for child in children:
            if child.children:
                self._allocate_node(child, demands, granted[child.name], out)
            else:
                out[child.name] = min(granted[child.name], child_demands[child.name])


__all__ = ["SchedulingNode", "SchedulingTree"]
