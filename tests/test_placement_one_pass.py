"""The one-pass best-fit chooser picks what the list-and-key body picked.

``best_fit`` (``core/allocation/placement.py``) and
``EdgeCluster.find_node_for`` read a node's free capacity once, in one
pass, with no feasible list and no key function; best fit is one body,
:func:`repro.cluster.node.best_fit`, shared by the planner and the
cluster.  Hypothesis holds them, and ``plan_placements``, to the bodies
frozen in ``tests/oracles/placement.py``: the same node, or ``None``.

The cases are drawn where a rewrite would slip: failed and unresponsive
nodes, in-plan reservations, CPU sums over deflated containers (float
sums that depend on their order), overcommitted nodes with negative free
CPU, ties broken by free memory and then by name, and requests whose
size sits within a few ulps of a node's free capacity plus the ``1e-9``
margin, where the two float forms of the fit test (``free >= cpu - 1e-9``
in the planner, ``cpu <= free + 1e-9`` in the old ``find_node_for``) are
decided by rounding.
"""

import math

from hypothesis import given, settings, strategies as st

from oracles import placement as frozen
from repro.cluster.cluster import EdgeCluster
from repro.cluster.container import Container
from repro.cluster.node import InsufficientCapacityError, Node
from repro.core.allocation.placement import (
    PlacementRequest,
    best_fit,
    plan_placements,
)
from repro.sim.engine import SimulationEngine

#: Standard sizes and deflation fractions whose sums round differently by order.
SIZES = (0.1, 0.3, 0.7, 1.0, 1.9)
FRACTIONS = (0.31, 0.5, 0.77, 0.95, 1.0)
MEMORY = (128.0, 192.5, 512.0)
NAMES = ("n0", "n1", "n2", "n3", "n4")
PROPERTY_SETTINGS = settings(max_examples=400, deadline=None, derandomize=True)


def _nudged(value: float, ulps: int) -> float:
    """``value`` moved ``ulps`` representable doubles up (or down, if negative)."""
    direction = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        value = math.nextafter(value, direction)
    return value


@st.composite
def clusters(draw):
    """1–5 nodes in a drawn name order, hosting drawn (possibly deflated) containers."""
    names = draw(st.permutations(NAMES))[:draw(st.integers(1, 5))]
    # a few shared shapes, so equal free capacities (and name tie-breaks) are common
    shapes = draw(st.lists(st.tuples(st.sampled_from(SIZES), st.sampled_from(FRACTIONS),
                                     st.sampled_from(MEMORY)), min_size=1, max_size=3))
    nodes = []
    for name in names:
        node = Node(name, draw(st.sampled_from((2.0, 4.0, 3.3))),
                    draw(st.sampled_from((1024.0, 2048.0, 1000.1))))
        for index in draw(st.lists(st.integers(0, len(shapes) - 1), max_size=7)):
            size, fraction, memory = shapes[index]
            container = Container("fn", name, standard_cpu=size, memory_mb=memory)
            container.deflate_to(size * fraction)
            try:
                node.add_container(container, enforce_cpu=False)  # CPU may overcommit
            except InsufficientCapacityError:
                pass
        node.failed = draw(st.integers(0, 5)) == 0
        node.unresponsive = draw(st.integers(0, 5)) == 0
        nodes.append(node)
    return nodes


@st.composite
def reservations(draw, nodes):
    """An in-plan reservation on some of the nodes (possibly none)."""
    reserved = {}
    for node in nodes:
        if draw(st.booleans()):
            reserved[node.name] = (draw(st.sampled_from(SIZES)) * draw(st.sampled_from(FRACTIONS)),
                                   draw(st.sampled_from(MEMORY)))
    return reserved


@st.composite
def sizes_near_a_margin(draw, nodes, reserved):
    """A ``(cpu, memory_mb)`` request: drawn from the shapes, or within a few ulps of a node's fit boundary."""
    anchor = draw(st.sampled_from(nodes))
    held_cpu, held_memory = reserved.get(anchor.name, (0.0, 0.0))
    cpu = draw(st.sampled_from(SIZES))
    if draw(st.booleans()):
        edge = _nudged((anchor.cpu_free - held_cpu) + 1e-9, draw(st.integers(-4, 4)))
        cpu = edge if edge > 0 else cpu
    memory = draw(st.sampled_from(MEMORY))
    if draw(st.booleans()):
        edge = _nudged((anchor.memory_free_mb - held_memory) + 1e-9, draw(st.integers(-4, 4)))
        memory = edge if edge > 0 else memory
    return cpu, memory


@st.composite
def chooser_cases(draw):
    """Nodes, a reservation map, and a request sized at or near a margin."""
    nodes = draw(clusters())
    reserved = draw(reservations(nodes)) if draw(st.booleans()) else None
    cpu, memory = draw(sizes_near_a_margin(nodes, reserved or {}))
    return nodes, reserved, PlacementRequest("fn", cpu, memory)


@given(case=chooser_cases())
@PROPERTY_SETTINGS
def test_best_fit_picks_the_frozen_bodys_node(case):
    nodes, reserved, request = case
    expected = frozen.best_fit(nodes, request, None if reserved is None else dict(reserved))
    assert best_fit(nodes, request, reserved) is expected


@given(nodes=clusters(), data=st.data())
@PROPERTY_SETTINGS
def test_find_node_for_picks_what_its_own_body_and_best_fit_picked(nodes, data):
    """``find_node_for`` is best fit without reservations, in either float form of the fit test."""
    cpu, memory = data.draw(sizes_near_a_margin(nodes, {}))
    cluster = EdgeCluster(SimulationEngine(), nodes=nodes)
    chosen = cluster.find_node_for(cpu, memory)
    assert chosen is frozen.find_node_for(nodes, cpu, memory)
    assert chosen is frozen.best_fit(nodes, PlacementRequest("fn", cpu, memory))


@given(nodes=clusters(), data=st.data())
@PROPERTY_SETTINGS
def test_a_plan_places_what_the_frozen_planner_placed(nodes, data):
    """Batches of one (no sort) and of several (largest first), reservations accumulating."""
    requests = [PlacementRequest("fn", *data.draw(sizes_near_a_margin(nodes, {})))
                for _ in range(data.draw(st.integers(1, 4)))]
    plan = plan_placements(nodes, requests)
    expected = frozen.plan_placements(nodes, requests, "best_fit")
    assert [(r, node.name) for r, node in plan.placements] == expected.placements
    assert all(node in nodes for _, node in plan.placements)
    assert plan.unplaced == expected.unplaced


def test_the_margin_cases_are_reached():
    """The drawn requests do land on both sides of a node's fit boundary."""
    node = Node("n0", 4.0, 1024.0)
    container = Container("fn", "n0", standard_cpu=1.9, memory_mb=128.0)
    container.deflate_to(1.9 * 0.77)
    node.add_container(container)
    boundary = node.cpu_free + 1e-9
    fits = [best_fit([node], PlacementRequest("fn", _nudged(boundary, k), 64.0)) is node
            for k in range(-4, 5)]
    assert fits[0] and not fits[-1]
