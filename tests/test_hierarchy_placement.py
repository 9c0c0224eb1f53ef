"""Tests for the scheduling hierarchy and container placement."""

import re

import pytest
from hypothesis import given, settings, strategies as st
from oracles.scheduling_tree import allocate_reference

from repro.cluster.node import Node
from repro.core.allocation.hierarchy import SchedulingNode, SchedulingTree
from repro.core.allocation.placement import (
    PlacementRequest,
    best_fit,
    plan_placements,
)


class TestSchedulingTree:
    def test_flat_tree_effective_weights(self):
        tree = SchedulingTree.flat({"a": 1.0, "b": 3.0})
        weights = tree.effective_weights()
        assert weights["a"] == pytest.approx(0.25)
        assert weights["b"] == pytest.approx(0.75)

    def test_two_level_tree_matches_paper_setup(self):
        # two users, user-2 has twice the weight, three functions each:
        # user-1's functions are entitled to ~1/3 of the cluster in total
        tree = SchedulingTree.two_level(
            users={"user-1": 1.0, "user-2": 2.0},
            functions={"a": "user-1", "b": "user-1", "c": "user-1",
                       "d": "user-2", "e": "user-2", "f": "user-2"},
        )
        shares = tree.guaranteed_shares(12.0)
        user1_total = shares["a"] + shares["b"] + shares["c"]
        user2_total = shares["d"] + shares["e"] + shares["f"]
        assert user1_total == pytest.approx(4.0)
        assert user2_total == pytest.approx(8.0)

    def test_allocation_respects_user_weights_under_contention(self):
        tree = SchedulingTree.two_level(
            users={"user-1": 1.0, "user-2": 2.0},
            functions={"a": "user-1", "b": "user-2"},
        )
        allocations = tree.allocate({"a": 100.0, "b": 100.0}, 12.0)
        assert allocations["a"] == pytest.approx(4.0)
        assert allocations["b"] == pytest.approx(8.0)

    def test_unused_share_flows_to_other_user(self):
        tree = SchedulingTree.two_level(
            users={"user-1": 1.0, "user-2": 2.0},
            functions={"a": "user-1", "b": "user-2"},
        )
        allocations = tree.allocate({"a": 100.0, "b": 2.0}, 12.0)
        assert allocations["b"] == pytest.approx(2.0)
        assert allocations["a"] == pytest.approx(10.0)

    def test_within_user_split_by_function_weight(self):
        tree = SchedulingTree.two_level(
            users={"u": 1.0},
            functions={"a": "u", "b": "u"},
            function_weights={"a": 3.0, "b": 1.0},
        )
        allocations = tree.allocate({"a": 100.0, "b": 100.0}, 8.0)
        assert allocations["a"] == pytest.approx(6.0)
        assert allocations["b"] == pytest.approx(2.0)

    def test_no_demand_allocates_nothing(self):
        tree = SchedulingTree.flat({"a": 1.0, "b": 1.0})
        allocations = tree.allocate({"a": 0.0, "b": 0.0}, 12.0)
        assert allocations == {"a": 0.0, "b": 0.0}

    def test_allocation_never_exceeds_demand_or_capacity(self):
        tree = SchedulingTree.flat({"a": 1.0, "b": 1.0, "c": 2.0})
        demands = {"a": 1.0, "b": 5.0, "c": 20.0}
        allocations = tree.allocate(demands, 12.0)
        assert sum(allocations.values()) <= 12.0 + 1e-9
        for name in demands:
            assert allocations[name] <= demands[name] + 1e-9

    def test_unknown_function_rejected(self):
        tree = SchedulingTree.flat({"a": 1.0})
        with pytest.raises(KeyError):
            tree.allocate({"zzz": 1.0}, 12.0)

    def test_unknown_user_rejected(self):
        tree = SchedulingTree()
        with pytest.raises(KeyError):
            tree.add_function("fn", user="ghost")

    def test_duplicate_child_rejected(self):
        node = SchedulingNode("root")
        node.add_child(SchedulingNode("a"))
        with pytest.raises(ValueError):
            node.add_child(SchedulingNode("a"))

    def test_three_level_hierarchy(self):
        # the paper notes the model extends to arbitrary levels
        tree = SchedulingTree()
        org = tree.root.add_child(SchedulingNode("org", weight=1.0))
        team1 = org.add_child(SchedulingNode("team-1", weight=1.0))
        team2 = org.add_child(SchedulingNode("team-2", weight=1.0))
        team1.add_child(SchedulingNode("f1"))
        team2.add_child(SchedulingNode("f2"))
        allocations = tree.allocate({"f1": 50.0, "f2": 50.0}, 10.0)
        assert allocations["f1"] == pytest.approx(5.0)
        assert allocations["f2"] == pytest.approx(5.0)

    def test_function_names_and_find(self):
        tree = SchedulingTree.flat({"a": 1.0, "b": 1.0})
        assert set(tree.function_names()) == {"a", "b"}
        assert tree.root.find("a").name == "a"
        assert tree.root.find("zzz") is None

    def test_function_names_walk_depth_first(self):
        tree = SchedulingTree()
        org = tree.root.add_child(SchedulingNode("org"))
        org.add_child(SchedulingNode("team")).add_child(SchedulingNode("f1"))
        org.add_child(SchedulingNode("f2"))
        tree.add_function("f3")
        assert tree.function_names() == ["f1", "f2", "f3"]
        assert [leaf.name for leaf in org.leaves()] == ["f1", "f2"]
        assert SchedulingTree().function_names() == ["cluster"]   # a bare root is a leaf


class TestAllocateExactValues:
    """Exact answers of ``SchedulingTree.allocate`` at its boundaries (``==``, not approx)."""

    @staticmethod
    def two_level():
        return SchedulingTree.two_level(
            users={"u1": 1.0, "u2": 2.0},
            functions={"a": "u1", "b": "u1", "c": "u2", "d": "u2"},
        )

    def test_flat_weighted_split(self):
        tree = SchedulingTree.flat({"a": 1.0, "b": 3.0})
        assert tree.allocate({"a": 10.0, "b": 10.0}, 8.0) == {"a": 2.0, "b": 6.0}
        # b needs less than its slice: the surplus goes to a in a second round
        assert tree.allocate({"a": 10.0, "b": 1.0}, 8.0) == {"a": 7.0, "b": 1.0}

    @pytest.mark.parametrize("build", ["flat", "two_level"])
    def test_capacity_zero_grants_nothing(self, build):
        tree = (SchedulingTree.flat({"a": 1.0, "b": 3.0, "c": 1.0, "d": 1.0})
                if build == "flat" else self.two_level())
        demands = {"a": 2.0, "b": 5.0, "c": 0.0, "d": 1.0}
        allocations = tree.allocate(demands, 0.0)
        assert allocations == dict.fromkeys("abcd", 0.0)
        assert list(allocations) == tree.function_names()

    def test_a_user_whose_functions_demand_nothing_cedes_its_share(self):
        tree = self.two_level()
        # overloaded: u2 takes the whole 6.0 and splits it evenly, c capped at its demand
        allocations = tree.allocate({"a": 0.0, "b": 0.0, "c": 3.0, "d": 5.0}, 6.0)
        assert allocations == {"a": 0.0, "b": 0.0, "c": 3.0, "d": 3.0}
        # not overloaded: everyone gets exactly the demand
        allocations = tree.allocate({"a": 0.0, "b": 0.0, "c": 3.0, "d": 5.0}, 9.0)
        assert allocations == {"a": 0.0, "b": 0.0, "c": 3.0, "d": 5.0}
        # a function missing from the demands demands nothing
        assert tree.allocate({"c": 3.0, "d": 5.0}, 6.0) == allocations | {"d": 3.0}

    def test_every_demand_zero(self):
        assert self.two_level().allocate(dict.fromkeys("abcd", 0.0), 6.0) == dict.fromkeys(
            "abcd", 0.0)


_WEIGHT = st.sampled_from([0.5, 1.0, 2.0, 3.0])
_DEMAND = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=20.0),
                    st.integers(min_value=0, max_value=8))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(shape=st.lists(st.lists(st.tuples(_WEIGHT, _DEMAND), min_size=0, max_size=4),
                      min_size=1, max_size=4),
       user_weights=st.lists(_WEIGHT, min_size=4, max_size=4),
       depth=st.sampled_from(["flat", "two_level", "three_level"]),
       capacity=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=40.0)),
       extra=st.one_of(st.none(), st.sampled_from(["ghost", "negative"])))
def test_allocate_equals_the_recursive_reference(shape, user_weights, depth, capacity, extra):
    """The same allocations, in the same order, bit for bit; the same errors first."""
    tree, demands = SchedulingTree(), {}
    parent = tree.root
    if depth == "three_level":
        parent = tree.root.add_child(SchedulingNode("org", weight=2.0))
    for u, functions in enumerate(shape):
        user = parent if depth == "flat" else parent.add_child(
            SchedulingNode(f"u{u}", weight=user_weights[u]))
        for f, (weight, demand) in enumerate(functions):
            user.add_child(SchedulingNode(f"f{u}{f}", weight=weight))
            if f % 3 != 2:                      # some functions have no demand entry at all
                demands[f"f{u}{f}"] = demand
    if extra == "ghost":
        demands["ghost"] = 1.0
    elif extra == "negative" and demands:
        demands[next(iter(demands))] = -1.0
    try:
        expected = allocate_reference(tree, demands, capacity)
    except (KeyError, ValueError) as error:
        with pytest.raises(type(error), match=re.escape(str(error))):
            tree.allocate(demands, capacity)
    else:
        assert list(tree.allocate(demands, capacity).items()) == list(expected.items())


class TestPlacement:
    def make_nodes(self):
        return [Node("n0", 4.0, 16384), Node("n1", 4.0, 16384), Node("n2", 4.0, 16384)]

    def test_best_fit_picks_fullest_that_fits(self):
        nodes = self.make_nodes()
        nodes[0].add_container(_container(2.0))
        chosen = best_fit(nodes, PlacementRequest("fn", 1.0, 256))
        assert chosen.name == "n0"

    def test_infeasible_returns_none(self):
        nodes = self.make_nodes()
        assert best_fit(nodes, PlacementRequest("fn", 5.0, 256)) is None

    def test_unresponsive_nodes_skipped(self):
        nodes = self.make_nodes()
        for node in nodes[:2]:
            node.unresponsive = True
        chosen = best_fit(nodes, PlacementRequest("fn", 1.0, 256))
        assert chosen.name == "n2"

    def test_plan_reserves_capacity_across_batch(self):
        nodes = self.make_nodes()
        requests = [PlacementRequest("fn", 2.0, 1024)] * 6
        plan = plan_placements(nodes, requests)
        assert not plan.unplaced
        per_node = {}
        for request, node in plan.placements:
            per_node[node.name] = per_node.get(node.name, 0) + 1
        assert all(count == 2 for count in per_node.values())

    def test_plan_reports_unplaced(self):
        nodes = self.make_nodes()
        requests = [PlacementRequest("fn", 3.0, 1024)] * 5
        plan = plan_placements(nodes, requests)
        assert len(plan.placements) == 3
        assert len(plan.unplaced) == 2

    def test_best_fit_packing_leaves_room_for_large_containers(self):
        nodes = self.make_nodes()
        small = [PlacementRequest("small", 0.5, 256)] * 4
        plan = plan_placements(nodes, small)
        for request, node in plan.placements:
            node.add_container(_container(request.cpu))
        # a 4-vCPU container must still fit somewhere
        assert any(n.can_fit(4.0, 1024) for n in nodes)

    def test_invalid_request_rejected(self):
        with pytest.raises(ValueError):
            PlacementRequest("fn", 0.0, 128)

    def test_plan_hands_back_the_nodes_it_was_given(self):
        nodes = self.make_nodes()
        plan = plan_placements(nodes, [PlacementRequest("fn", 1.0, 256)] * 5)
        assert len(plan.placements) == 5
        assert all(any(node is given for given in nodes) for _, node in plan.placements)

    def test_plan_leaves_the_nodes_untouched(self):
        nodes = self.make_nodes()
        nodes[1].add_container(_container(1.5))
        before = [(n.cpu_allocated, n.memory_allocated_mb, len(n.containers)) for n in nodes]
        plan_placements(nodes, [PlacementRequest("fn", 1.0, 256)] * 7)
        assert [(n.cpu_allocated, n.memory_allocated_mb, len(n.containers)) for n in nodes] == before

    def test_plan_places_the_largest_first(self):
        # arrival order would fill the node with the two small ones first
        nodes = [Node("n0", 4.0, 16384)]
        small = PlacementRequest("small", 1.0, 256)
        large = PlacementRequest("large", 4.0, 256)
        plan = plan_placements(nodes, [small, small, large])
        assert [request for request, _ in plan.placements] == [large]
        assert plan.unplaced == [small, small]

    def test_plan_reserves_memory_across_the_batch(self):
        nodes = [Node("n0", 4.0, 1024)]
        request = PlacementRequest("fn", 0.5, 512)
        plan = plan_placements(nodes, [request] * 3)
        assert len(plan.placements) == 2 and plan.unplaced == [request]

    def test_plan_skips_failed_and_unresponsive_nodes(self):
        nodes = self.make_nodes()
        nodes[0].failed = True
        nodes[1].unresponsive = True
        plan = plan_placements(nodes, [PlacementRequest("fn", 1.0, 256)] * 5)
        assert {node.name for _, node in plan.placements} == {"n2"}
        assert len(plan.placements) == 4 and len(plan.unplaced) == 1

    def test_an_empty_batch_is_an_empty_plan(self):
        plan = plan_placements(self.make_nodes(), [])
        assert plan.placements == [] and plan.unplaced == []

    def test_best_fit_breaks_cpu_ties_by_memory_then_name(self):
        nodes = [Node("n2", 4.0, 16384), Node("n1", 4.0, 16384), Node("n0", 4.0, 16384)]
        assert best_fit(nodes, PlacementRequest("fn", 1.0, 256)).name == "n0"
        nodes.append(Node("n9", 4.0, 8192))
        assert best_fit(nodes, PlacementRequest("fn", 1.0, 256)).name == "n9"

    def test_a_strategy_argument_is_refused(self):
        # best fit is the one placement; the planner takes no strategy
        with pytest.raises(TypeError):
            plan_placements(self.make_nodes(), [], "best_fit")
        with pytest.raises(TypeError):
            plan_placements(self.make_nodes(), [], strategy="best_fit")


def _container(cpu: float):
    from repro.cluster.container import Container

    return Container(function_name="x", node_name="", standard_cpu=cpu, memory_mb=256)
