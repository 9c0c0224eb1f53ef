"""The ledger kept at the write: a cached aggregate never differs from a fresh sum.

``Node.cpu_allocated`` / ``memory_allocated_mb`` and
``EdgeCluster.containers_of`` are computed once and dropped by the writes
that can change them (docs/architecture.md, "Control path").  A hypothesis
state machine drives every such write — through the cluster's control
operations and directly on the container, the way the OpenWhisk baseline's
cascade and ``run_fixed_allocation`` do — under LaSS's CPU-enforcing
placement and under the baseline's memory-only packing, and after every
step compares each cached value, bit for bit, with the body it replaced
(frozen below from commit 7af6479, where every read recomputed).
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cluster.cluster import ClusterConfig, EdgeCluster, FunctionDeployment
from repro.cluster.container import Container, ContainerState
from repro.cluster.node import InsufficientCapacityError, Node
from repro.sim.engine import SimulationEngine

#: Sizes whose sums depend on the order they are added in (0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1).
FUNCTIONS = {"tiny": 0.1, "small": 0.3, "medium": 0.7, "large": 1.9}
FRACTIONS = (0.31, 0.5, 0.7, 0.77, 0.9, 1.0)


# ----------------------------------------------------------------------
# Frozen oracles (the bodies as of commit 7af6479)
# ----------------------------------------------------------------------
def fresh_node_sums(node):
    """``Node.cpu_allocated`` / ``memory_allocated_mb`` as every read used to compute them."""
    live = [c for c in node._containers.values() if c.state != ContainerState.TERMINATED]
    return sum(c.current_cpu for c in live), sum(c.memory_mb for c in live)


def fresh_containers_of(cluster, function_name, include_draining):
    """``EdgeCluster.containers_of`` as every call used to sort it."""
    index = cluster._by_function.get(function_name)
    if not index:
        return []
    if include_draining:
        result = list(index.values())
    else:
        result = [c for c in index.values() if c.state != ContainerState.DRAINING]
    return sorted(result, key=lambda c: (c.current_cpu, c.container_id))


def same_bits(cached, fresh):
    """Equal as the interpreter stores them: type and every bit of a float."""
    return type(cached) is type(fresh) and float(cached).hex() == float(fresh).hex()


class LedgerMachine(RuleBasedStateMachine):
    """Every write that can move an aggregate, in any order, on either packing."""

    def __init__(self):
        super().__init__()
        self.engine = SimulationEngine()
        self.cluster = EdgeCluster(self.engine, ClusterConfig(node_count=3, cpu_per_node=4.0,
                                                              memory_per_node_mb=2048.0))
        for name, cpu in FUNCTIONS.items():
            self.cluster.deploy(FunctionDeployment(name=name, cpu=cpu, memory_mb=192.0))

    def _pick(self, data, states=None):
        live = [c for c in self.cluster.all_containers() if states is None or c.state in states]
        return data.draw(st.sampled_from(sorted(live, key=lambda c: c.container_id))) if live else None

    # -- creation: LaSS's best fit with CPU enforced, or the baseline's memory-only packing
    @rule(name=st.sampled_from(sorted(FUNCTIONS)), fraction=st.sampled_from(FRACTIONS))
    def create_lass(self, name, fraction):
        if name not in self.cluster.function_names:
            return
        try:
            self.cluster.create_container(name, cpu=FUNCTIONS[name] * fraction)
        except InsufficientCapacityError:
            pass

    @rule(name=st.sampled_from(sorted(FUNCTIONS)), node=st.integers(0, 2))
    def create_memory_only(self, name, node):
        if name not in self.cluster.function_names or self.cluster.nodes[node].failed:
            return
        try:
            self.cluster.create_container(name, node=self.cluster.nodes[node], enforce_cpu=False)
        except InsufficientCapacityError:
            pass

    @rule(seconds=st.sampled_from([0.1, 0.6]))
    def let_cold_starts_finish(self, seconds):
        self.engine.run(until=self.engine.now + seconds)

    # -- removal
    @rule(data=st.data())
    def terminate(self, data):
        container = self._pick(data)
        if container is not None:
            self.cluster.terminate_container(container.container_id)

    @rule(data=st.data())
    def evict(self, data):
        container = self._pick(data)
        if container is not None:
            self.cluster.evict_container(container.container_id)

    @rule(data=st.data())
    def terminate_behind_the_clusters_back(self, data):
        """The OpenWhisk cascade: the node keeps the entry, only the state says it is gone."""
        container = self._pick(data)
        if container is not None:
            container.terminate(self.engine.now)

    # -- resizing
    @rule(data=st.data(), fraction=st.sampled_from(FRACTIONS))
    def deflate(self, data, fraction):
        container = self._pick(data)
        if container is not None:
            self.cluster.deflate_container(container.container_id, container.standard_cpu * fraction)

    @rule(data=st.data(), fraction=st.sampled_from(FRACTIONS))
    def deflate_behind_the_clusters_back(self, data, fraction):
        container = self._pick(data)
        if container is not None:
            container.deflate_to(container.standard_cpu * fraction)

    @rule(data=st.data())
    def inflate(self, data):
        container = self._pick(data)
        if container is not None:
            self.cluster.inflate_container(container.container_id)

    # -- lazy termination
    @rule(data=st.data())
    def mark_draining(self, data):
        container = self._pick(data, (ContainerState.STARTING, ContainerState.WARM))
        if container is not None:
            container.mark_draining()

    @rule(data=st.data())
    def rescue(self, data):
        container = self._pick(data, (ContainerState.DRAINING,))
        if container is not None:
            container.unmark_draining()

    # -- faults and deployments
    @rule(node=st.integers(0, 2))
    def fail_node(self, node):
        self.cluster.fail_node(f"node-{node}")

    @rule(node=st.integers(0, 2))
    def recover_node(self, node):
        self.cluster.recover_node(f"node-{node}")

    @rule(name=st.sampled_from(sorted(FUNCTIONS)))
    def undeploy(self, name):
        self.cluster.undeploy(name)

    @precondition(lambda self: len(self.cluster.function_names) < len(FUNCTIONS))
    @rule()
    def redeploy(self):
        for name, cpu in FUNCTIONS.items():
            if name not in self.cluster.function_names:
                self.cluster.deploy(FunctionDeployment(name=name, cpu=cpu, memory_mb=192.0))

    # -- the ledger invariant, read after every step (which also re-fills every cache)
    @invariant()
    def cached_aggregates_equal_a_fresh_recomputation(self):
        for node in self.cluster.nodes:
            cpu, memory = fresh_node_sums(node)
            assert same_bits(node.cpu_allocated, cpu)
            assert same_bits(node.memory_allocated_mb, memory)
            assert same_bits(node.cpu_free, node.cpu_capacity - cpu)
            assert same_bits(node.memory_free_mb, node.memory_capacity_mb - memory)
        assert same_bits(self.cluster.cpu_allocated,
                         sum(fresh_node_sums(node)[0] for node in self.cluster.nodes))

    @invariant()
    def containers_of_equals_a_fresh_sort(self):
        for name in FUNCTIONS:
            for include_draining in (True, False):
                cached = self.cluster.containers_of(name, include_draining=include_draining)
                assert cached == fresh_containers_of(self.cluster, name, include_draining)
            assert same_bits(self.cluster.cpu_allocated_to(name),
                             sum(c.current_cpu for c in fresh_containers_of(self.cluster, name, True)))
            assert self.cluster.container_count(name) == len(
                fresh_containers_of(self.cluster, name, False))


LedgerMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None, derandomize=True)
TestLedger = LedgerMachine.TestCase


def test_a_returned_list_is_the_callers_to_change():
    """``containers_of`` hands out a copy: sorting or emptying it cannot reach the cache."""
    engine = SimulationEngine()
    cluster = EdgeCluster(engine)
    cluster.deploy(FunctionDeployment(name="fn", cpu=0.5, memory_mb=128.0))
    created = [cluster.create_container("fn") for _ in range(3)]
    listed = cluster.containers_of("fn")
    listed.clear()
    assert cluster.containers_of("fn") == sorted(created, key=lambda c: c.container_id)


def test_a_standalone_node_follows_its_containers_without_a_cluster():
    """The container tells its hosting node itself, so no cluster has to relay the write."""
    node = Node("n0", 4.0, 4096.0)
    first = Container("fn", "", standard_cpu=1.5, memory_mb=512.0)
    second = Container("fn", "", standard_cpu=0.7, memory_mb=256.0)
    node.add_container(first)
    node.add_container(second)
    assert (node.cpu_allocated, node.memory_allocated_mb) == (1.5 + 0.7, 768.0)
    second.deflate_to(0.35)
    assert node.cpu_allocated == 1.5 + 0.35
    first.mark_warm(0.0)
    first.terminate(1.0)
    assert (node.cpu_allocated, node.memory_allocated_mb) == (0.35, 256.0)
    assert node.remove_container(second.container_id) is second
    assert node.cpu_allocated == 0
    second.deflate_to(0.5)          # no longer this node's business
    assert second.host is None and node.cpu_allocated == 0
    with pytest.raises(InsufficientCapacityError):
        node.add_container(Container("fn", "", standard_cpu=4.5, memory_mb=1.0))
