"""Unit tests for nodes, the edge cluster, and its control operations."""

import pytest

from repro.cluster.cluster import ClusterConfig, EdgeCluster, FunctionDeployment
from repro.cluster.container import Container, ContainerState
from repro.cluster.node import InsufficientCapacityError, Node, total_capacity


def make_container(cpu=1.0, memory=512, name="fn") -> Container:
    return Container(function_name=name, node_name="", standard_cpu=cpu, memory_mb=memory)


class TestNode:
    def test_capacity_accounting(self):
        node = Node("n0", cpu_capacity=4.0, memory_capacity_mb=16384)
        node.add_container(make_container(cpu=1.5, memory=1024))
        assert node.cpu_allocated == pytest.approx(1.5)
        assert node.cpu_free == pytest.approx(2.5)
        assert node.memory_allocated_mb == pytest.approx(1024)
        assert node.cpu_utilization == pytest.approx(1.5 / 4.0)

    def test_rejects_cpu_overflow(self):
        node = Node("n0", 2.0, 4096)
        node.add_container(make_container(cpu=1.5))
        with pytest.raises(InsufficientCapacityError):
            node.add_container(make_container(cpu=1.0))

    def test_rejects_memory_overflow(self):
        node = Node("n0", 8.0, 1024)
        node.add_container(make_container(cpu=1.0, memory=800))
        with pytest.raises(InsufficientCapacityError):
            node.add_container(make_container(cpu=1.0, memory=400))

    def test_memory_only_packing_allows_cpu_overcommit(self):
        node = Node("n0", 2.0, 16384)
        node.add_container(make_container(cpu=2.0), enforce_cpu=True)
        node.add_container(make_container(cpu=2.0), enforce_cpu=False)
        assert node.cpu_overcommitted

    def test_duplicate_container_rejected(self):
        node = Node("n0", 4.0, 4096)
        container = make_container()
        node.add_container(container)
        with pytest.raises(ValueError):
            node.add_container(container)

    def test_remove_and_lookup(self):
        node = Node("n0", 4.0, 4096)
        container = make_container()
        node.add_container(container)
        assert node.get_container(container.container_id) is container
        assert node.remove_container(container.container_id) is container
        assert node.get_container(container.container_id) is None

    def test_terminated_containers_release_capacity(self):
        node = Node("n0", 4.0, 4096)
        container = make_container(cpu=2.0)
        node.add_container(container)
        container.mark_warm(0.0)
        container.terminate(1.0)
        assert node.cpu_allocated == 0.0

    def test_can_fit_and_room_for(self):
        node = Node("n0", 4.0, 4096)
        assert node.can_fit(4.0, 4096)
        assert not node.can_fit(4.1, 100)
        assert node.room_for(1.0, 1024) == 4
        assert node.room_for(2.0, 4096) == 1

    def test_containers_of_filters_by_function(self):
        node = Node("n0", 4.0, 8192)
        node.add_container(make_container(name="a"))
        node.add_container(make_container(name="b"))
        assert len(node.containers_of("a")) == 1

    def test_total_capacity_helper(self):
        nodes = [Node(f"n{i}", 4.0, 16384) for i in range(3)]
        agg = total_capacity(nodes)
        assert agg["cpu"] == 12.0
        assert agg["memory_mb"] == 3 * 16384

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Node("n0", 0.0, 1024)


class TestClusterConfig:
    def test_paper_defaults(self):
        config = ClusterConfig()
        assert config.node_count == 3
        assert config.cpu_per_node == 4.0
        assert config.total_cpu() == 12.0
        assert config.total_memory_mb() == 3 * 16 * 1024

    def test_build_nodes(self):
        nodes = ClusterConfig(node_count=2, cpu_per_node=8).build_nodes()
        assert len(nodes) == 2
        assert all(n.cpu_capacity == 8 for n in nodes)


class TestFunctionDeployment:
    def test_validation(self):
        with pytest.raises(ValueError):
            FunctionDeployment(name="f", cpu=0, memory_mb=128)
        with pytest.raises(ValueError):
            FunctionDeployment(name="f", cpu=1, memory_mb=0)
        with pytest.raises(ValueError):
            FunctionDeployment(name="f", cpu=1, memory_mb=128, weight=0)
        with pytest.raises(ValueError):
            FunctionDeployment(name="f", cpu=1, memory_mb=128, slo_percentile=1.5)


class TestEdgeCluster:
    def test_deploy_and_lookup(self, paper_cluster, simple_deployment):
        paper_cluster.deploy(simple_deployment)
        assert paper_cluster.deployment("fn") is simple_deployment
        assert paper_cluster.function_names == ["fn"]
        with pytest.raises(ValueError):
            paper_cluster.deploy(simple_deployment)
        with pytest.raises(KeyError):
            paper_cluster.deployment("missing")

    def test_create_container_pays_cold_start(self, engine, paper_cluster, simple_deployment):
        paper_cluster.deploy(simple_deployment)
        container = paper_cluster.create_container("fn")
        assert container.state is ContainerState.STARTING
        engine.run(until=paper_cluster.config.cold_start_latency + 0.001)
        assert container.state is ContainerState.WARM

    def test_warm_hook_invoked(self, engine, paper_cluster, simple_deployment):
        paper_cluster.deploy(simple_deployment)
        warmed = []
        paper_cluster.on_container_warm(warmed.append)
        paper_cluster.create_container("fn")
        engine.run(until=1.0)
        assert len(warmed) == 1

    def test_capacity_in_containers(self, paper_cluster, simple_deployment):
        paper_cluster.deploy(simple_deployment)
        assert paper_cluster.capacity_in_containers("fn") == 12

    def test_cpu_accounting(self, engine, paper_cluster, simple_deployment):
        paper_cluster.deploy(simple_deployment)
        for _ in range(3):
            paper_cluster.create_container("fn")
        assert paper_cluster.cpu_allocated == pytest.approx(3.0)
        assert paper_cluster.cpu_free == pytest.approx(9.0)
        assert paper_cluster.cpu_utilization == pytest.approx(0.25)
        assert paper_cluster.cpu_allocated_to("fn") == pytest.approx(3.0)

    def test_terminate_releases_capacity(self, engine, paper_cluster, simple_deployment):
        paper_cluster.deploy(simple_deployment)
        container = paper_cluster.create_container("fn")
        paper_cluster.terminate_container(container.container_id)
        assert paper_cluster.cpu_allocated == 0.0
        assert paper_cluster.get_container(container.container_id) is None

    def test_deflate_and_inflate(self, engine, paper_cluster, simple_deployment):
        paper_cluster.deploy(simple_deployment)
        container = paper_cluster.create_container("fn")
        released = paper_cluster.deflate_container(container.container_id, 0.7)
        assert released == pytest.approx(0.3)
        gained = paper_cluster.inflate_container(container.container_id)
        assert gained == pytest.approx(0.3)

    def test_create_fails_when_full(self, engine, paper_cluster):
        big = FunctionDeployment(name="big", cpu=4.0, memory_mb=1024)
        paper_cluster.deploy(big)
        for _ in range(3):
            paper_cluster.create_container("big")
        with pytest.raises(InsufficientCapacityError):
            paper_cluster.create_container("big")

    def test_best_fit_node_selection(self, engine, paper_cluster):
        small = FunctionDeployment(name="small", cpu=0.5, memory_mb=128)
        paper_cluster.deploy(small)
        first = paper_cluster.create_container("small")
        second = paper_cluster.create_container("small")
        # best-fit packs the second container onto the same node
        assert first.node_name == second.node_name

    def test_room_for(self, engine, paper_cluster):
        big = FunctionDeployment(name="big", cpu=2.0, memory_mb=1024)
        paper_cluster.deploy(big)
        assert paper_cluster.room_for("big") == 6
        paper_cluster.create_container("big")
        assert paper_cluster.room_for("big") == 5

    def test_containers_sorted_smallest_cpu_first(self, engine, paper_cluster, simple_deployment):
        paper_cluster.deploy(simple_deployment)
        a = paper_cluster.create_container("fn")
        b = paper_cluster.create_container("fn")
        paper_cluster.deflate_container(b.container_id, 0.6)
        ordered = paper_cluster.containers_of("fn")
        assert ordered[0].container_id == b.container_id

    def test_undeploy_terminates_containers(self, engine, paper_cluster, simple_deployment):
        paper_cluster.deploy(simple_deployment)
        paper_cluster.create_container("fn")
        paper_cluster.undeploy("fn")
        assert paper_cluster.all_containers() == []
        assert paper_cluster.function_names == []

    def test_cluster_requires_nodes(self, engine):
        with pytest.raises(ValueError):
            EdgeCluster(engine, ClusterConfig(), nodes=[])


class TestLifecycleThroughHost:
    """A lifecycle action reaches a container's node through ``Container.host``."""

    @pytest.fixture
    def no_lookup_by_name(self, monkeypatch):
        def refuse(cluster, name):
            raise AssertionError(f"looked node {name!r} up by name")

        monkeypatch.setattr(EdgeCluster, "node", refuse)

    def test_host_is_the_node_a_container_was_placed_on(self, paper_cluster, simple_deployment):
        paper_cluster.deploy(simple_deployment)
        target = paper_cluster.nodes[2]
        container = paper_cluster.create_container("fn", node=target)
        assert container.host is target and container.node_name == target.name
        paper_cluster.terminate_container(container.container_id)
        assert container.host is None

    def test_a_failed_node_is_refused_as_an_explicit_target(self, paper_cluster, simple_deployment):
        paper_cluster.deploy(simple_deployment)
        paper_cluster.nodes[1].failed = True
        with pytest.raises(InsufficientCapacityError, match="is failed"):
            paper_cluster.create_container("fn", node=paper_cluster.nodes[1])

    @pytest.mark.parametrize("action", ["terminate", "evict"])
    def test_removal_frees_the_hosting_node(self, paper_cluster, simple_deployment,
                                            no_lookup_by_name, action):
        paper_cluster.deploy(simple_deployment)
        node = paper_cluster.nodes[1]
        container = paper_cluster.create_container("fn", node=node)
        getattr(paper_cluster, f"{action}_container")(container.container_id)
        assert node.cpu_allocated == 0.0 and node.containers == []
        assert paper_cluster.get_container(container.container_id) is None

    def test_inflation_reads_the_hosting_node_headroom(self, paper_cluster, no_lookup_by_name):
        paper_cluster.deploy(FunctionDeployment(name="fn", cpu=2.0, memory_mb=512))
        node = paper_cluster.nodes[0]
        deflated = paper_cluster.create_container("fn", node=node)
        paper_cluster.deflate_container(deflated.container_id, 1.0)
        paper_cluster.create_container("fn", node=node)
        # one vCPU of headroom on the host: the deflated container gets all of it
        assert paper_cluster.inflate_container(deflated.container_id) == pytest.approx(1.0)
        assert deflated.current_cpu == pytest.approx(2.0)
        assert paper_cluster.inflate_container(deflated.container_id) == 0.0
