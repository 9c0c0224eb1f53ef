"""Tests for the baseline controllers (vanilla OpenWhisk, static, reactive)."""

import pytest

from repro.policies.openwhisk import OpenWhiskConfig, VanillaOpenWhiskController
from repro.policies.reactive import ConcurrencyAutoscaler, ReactiveControllerConfig
from repro.policies.static_allocation import StaticAllocationController
from repro.cluster.cluster import ClusterConfig, EdgeCluster
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngStreams
from repro.workloads.functions import get_function, microbenchmark
from repro.workloads.generator import ArrivalGenerator
from repro.workloads.schedules import StaticRate, StepSchedule


def build(controller_factory, bindings, duration, cluster_config=None, seed=31):
    engine = SimulationEngine()
    cluster = EdgeCluster(engine, cluster_config or ClusterConfig())
    metrics = MetricsCollector()
    for profile, schedule, slo, user in bindings:
        cluster.deploy(profile.to_deployment(user=user, slo_deadline=slo))
    controller = controller_factory(engine, cluster, metrics)
    controller.start()
    rng = RngStreams(seed)
    for profile, schedule, slo, user in bindings:
        ArrivalGenerator(
            engine=engine, profile=profile, schedule=schedule,
            dispatch=controller.dispatch, rng=rng.stream(f"a:{profile.name}"),
            work_rng=rng.stream(f"w:{profile.name}"),
            slo_deadline=slo, horizon=duration,
        ).start()
    engine.run(until=duration + 5.0)
    return controller, metrics, cluster


class TestStaticAllocation:
    def test_creates_exactly_the_requested_containers(self):
        bindings = [(microbenchmark(0.1), StaticRate(20.0, duration=60.0), 0.1, "u")]
        controller, metrics, cluster = build(
            lambda e, c, m: StaticAllocationController(e, c, {"microbenchmark": 4}, m),
            bindings, duration=60.0,
        )
        assert cluster.container_count("microbenchmark") == 4
        assert metrics.counters["creations"] == 4

    def test_serves_requests_when_adequately_provisioned(self):
        bindings = [(microbenchmark(0.1), StaticRate(20.0, duration=60.0), 0.1, "u")]
        _, metrics, _ = build(
            lambda e, c, m: StaticAllocationController(e, c, {"microbenchmark": 4}, m),
            bindings, duration=60.0,
        )
        assert metrics.counters["completions"] >= 0.95 * metrics.counters["arrivals"]

    def test_underprovisioned_allocation_builds_a_backlog(self):
        bindings = [(microbenchmark(0.1), StaticRate(40.0, duration=60.0), 0.1, "u")]
        controller, metrics, _ = build(
            lambda e, c, m: StaticAllocationController(e, c, {"microbenchmark": 2}, m),
            bindings, duration=60.0,
        )
        # offered load 4 Erlangs onto 2 containers: most requests cannot finish
        assert metrics.counters["completions"] < 0.7 * metrics.counters["arrivals"]

    def test_negative_allocation_rejected(self, engine):
        cluster = EdgeCluster(engine, ClusterConfig())
        with pytest.raises(ValueError):
            StaticAllocationController(engine, cluster, {"fn": -1})


class TestReactiveAutoscaler:
    def test_scales_up_with_concurrency(self):
        bindings = [(microbenchmark(0.1), StaticRate(30.0, duration=120.0), 0.1, "u")]
        controller, metrics, cluster = build(
            lambda e, c, m: ConcurrencyAutoscaler(e, c, ReactiveControllerConfig(), m),
            bindings, duration=120.0,
            cluster_config=ClusterConfig(node_count=4, cpu_per_node=8),
        )
        # the reactive scaler oscillates around the 3-Erlang offered load, so
        # assert on the time-averaged allocation rather than the (noisy)
        # point-in-time container count at the end of the run
        counts = [e.functions["microbenchmark"].containers for e in metrics.epochs[2:]]
        assert sum(counts) / len(counts) >= 2
        assert metrics.counters["completions"] >= 0.9 * metrics.counters["arrivals"]

    def test_scales_down_when_load_stops(self):
        schedule = StepSchedule([(0.0, 30.0), (60.0, 0.0)], duration=180.0)
        bindings = [(microbenchmark(0.1), schedule, 0.1, "u")]
        _, _, cluster = build(
            lambda e, c, m: ConcurrencyAutoscaler(e, c, ReactiveControllerConfig(), m),
            bindings, duration=180.0,
            cluster_config=ClusterConfig(node_count=4, cpu_per_node=8),
        )
        assert cluster.container_count("microbenchmark") <= 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReactiveControllerConfig(target_concurrency=0.0)
        with pytest.raises(ValueError):
            ReactiveControllerConfig(evaluation_interval=0.0)
        with pytest.raises(ValueError):
            ReactiveControllerConfig(smoothing=0.0)


class TestVanillaOpenWhisk:
    def overload_bindings(self, duration):
        return [
            (get_function("binaryalert"), StaticRate(50.0, duration=duration), 0.1, "u1"),
            (get_function("mobilenet"), StepSchedule([(0.0, 0.0), (30.0, 12.0)], duration=duration),
             0.5, "u2"),
        ]

    def test_light_load_is_served_fine(self):
        bindings = [(microbenchmark(0.1), StaticRate(10.0, duration=60.0), 0.1, "u")]
        controller, metrics, _ = build(
            lambda e, c, m: VanillaOpenWhiskController(e, c, OpenWhiskConfig(), m),
            bindings, duration=60.0,
        )
        assert not controller.failed_nodes()
        assert metrics.counters["completions"] >= 0.9 * metrics.counters["arrivals"]

    def test_overload_causes_cascading_invoker_failure(self):
        duration = 150.0
        controller, metrics, cluster = build(
            lambda e, c, m: VanillaOpenWhiskController(e, c, OpenWhiskConfig(), m),
            self.overload_bindings(duration), duration=duration,
        )
        # the memory-only packing overcommits CPU and invokers start failing
        assert len(controller.failed_nodes()) >= 1
        # a large fraction of the offered requests is lost
        lost = metrics.counters["arrivals"] - metrics.counters["completions"]
        assert lost > 0.3 * metrics.counters["arrivals"]

    def test_completions_on_a_failed_invoker_are_recorded_as_dropped(self):
        """Both shootout arms: the record and the counter agree on what completed.

        A completion on an unresponsive invoker is never reported back, so
        it counts as a drop; its request used to stay COMPLETED.
        """
        from repro.scenarios.registry import build
        from repro.scenarios.runner import run_scenario
        from repro.sim.request import RequestStatus

        arms = [spec for spec in build("policy-shootout", duration=40.0).expand()
                if spec.controller.policy == "openwhisk"]
        assert len(arms) == 2
        for spec in arms:
            result = run_scenario(spec).sim
            assert any(node.unresponsive for node in result.cluster.nodes), spec.name
            statuses = [request.status for request in result.metrics.requests]
            completed = statuses.count(RequestStatus.COMPLETED)
            assert result.metrics.counters["completions"] == completed > 0, spec.name
            assert result.metrics.throughput() == completed

    def test_memory_only_packing_overcommits_cpu(self):
        duration = 90.0
        controller, _, cluster = build(
            lambda e, c, m: VanillaOpenWhiskController(e, c, OpenWhiskConfig(overcommit_failure_factor=100.0), m),
            self.overload_bindings(duration), duration=duration,
        )
        # with failures disabled (huge threshold) the scheduler happily
        # allocates more standard CPU than the node has
        assert any(
            sum(c.standard_cpu for c in node.containers) > node.cpu_capacity
            for node in cluster.nodes
        )

    def test_lass_survives_the_same_workload(self):
        # the §6.6 contrast: LaSS keeps serving where OpenWhisk collapses
        from repro.core.controller import ControllerConfig
        from repro.simulation import SimulationRunner
        from repro.workloads.generator import WorkloadBinding

        duration = 150.0
        runner = SimulationRunner(
            workloads=[
                WorkloadBinding(get_function("binaryalert"), StaticRate(50.0, duration=duration),
                                slo_deadline=0.1, user="u1"),
                WorkloadBinding(get_function("mobilenet"),
                                StepSchedule([(0.0, 0.0), (30.0, 12.0)], duration=duration),
                                slo_deadline=0.5, user="u2"),
            ],
            cluster_config=ClusterConfig(),
            controller_config=ControllerConfig(),
            seed=31,
        )
        result = runner.run(duration=duration)
        completions = result.metrics.counters["completions"]
        arrivals = result.metrics.counters["arrivals"]
        assert completions >= 0.9 * arrivals
        assert all(not node.unresponsive for node in runner.cluster.nodes)
