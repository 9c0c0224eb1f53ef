"""Fault-injection subsystem: specs, failure semantics, and determinism.

Covers the whole stack the ``src/repro/faults/`` subsystem cuts through:

* spec validation and exact JSON round-trips (including the
  empty-spec-normalises-to-``None`` rule on :class:`ScenarioSpec`);
* container/cluster failure semantics (evict vs. terminate, node
  capacity accounting, placement exclusion);
* controller reactions (requeue, reactive re-provisioning, reclamation
  suppression);
* end-to-end recovery scenarios, the availability/recovery metrics, and
  the registered fig10 experiment;
* the metamorphic determinism properties: same seed ⇒ byte-identical
  results JSON; faults disabled ⇒ byte-identical to the healthy run;
  ``workers=1`` ≡ ``workers=N`` for fault-carrying sweeps.
"""

import json

import pytest

from repro.cluster.cluster import ClusterConfig, EdgeCluster, FunctionDeployment
from repro.cluster.container import Container, ContainerState
from repro.cluster.node import InsufficientCapacityError
from repro.faults import ColdStartSpec, FaultSpec, NodeFailureSpec, node_outage
from repro.scenarios import build, run_scenario
from repro.scenarios.spec import ScenarioSpec, ScheduleSpec, WorkloadSpec, canonical_json
from repro.scenarios.executor import ResilientSweepRunner
from repro.scenarios.sweep import SweepSpec
from repro.sim.engine import SimulationEngine
from repro.sim.request import Request, RequestStatus


def _deployment(name="fn", cpu=1.0, memory=512.0) -> FunctionDeployment:
    """A small single-function deployment for cluster-level tests."""
    return FunctionDeployment(name=name, cpu=cpu, memory_mb=memory)


def _warm_container(engine, cluster, name="fn"):
    """Create one container and run the engine through its cold start."""
    container = cluster.create_container(name)
    engine.run(until=engine.now + cluster.config.cold_start_latency + 1e-6)
    assert container.state is ContainerState.WARM
    return container


class TestFaultSpec:
    def test_round_trip_exact(self):
        spec = FaultSpec(
            node_failures=(NodeFailureSpec("node-0", 10.0, 20.0),
                           NodeFailureSpec("node-1", 30.0, None)),
            crash_probability=0.05,
            crash_functions=("squeezenet",),
            cold_start=ColdStartSpec("lognormal", {"mu": -0.7, "sigma": 0.5}),
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec
        assert FaultSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeFailureSpec("node-0", -1.0)
        with pytest.raises(ValueError):
            NodeFailureSpec("node-0", 10.0, 5.0)  # recovery before failure
        with pytest.raises(ValueError):
            NodeFailureSpec("", 1.0)
        with pytest.raises(ValueError):
            FaultSpec(crash_probability=1.0)
        with pytest.raises(ValueError):
            ColdStartSpec("nope", {})
        with pytest.raises(ValueError):
            ColdStartSpec("uniform", {"low": 2.0, "high": 1.0})
        with pytest.raises(ValueError):
            ColdStartSpec("constant", {})

    def test_is_empty(self):
        assert FaultSpec().is_empty()
        assert not node_outage("node-0", 1.0, 2.0).is_empty()
        assert not FaultSpec(crash_probability=0.1).is_empty()
        assert not FaultSpec(cold_start=ColdStartSpec("constant", {"latency": 1.0})).is_empty()

    def test_cold_start_samplers(self, rng):
        constant = ColdStartSpec("constant", {"latency": 0.25}).build(rng)
        assert constant() == 0.25
        uniform = ColdStartSpec("uniform", {"low": 0.1, "high": 0.2}).build(rng)
        assert all(0.1 <= uniform() <= 0.2 for _ in range(50))
        lognormal = ColdStartSpec("lognormal", {"mu": 0.0, "sigma": 0.3}).build(rng)
        assert all(lognormal() > 0 for _ in range(50))


class TestScenarioSpecFaults:
    def _workload(self):
        return WorkloadSpec("squeezenet", ScheduleSpec.static(10.0, duration=60.0))

    def test_empty_fault_spec_normalises_to_none(self):
        spec = ScenarioSpec(name="x", workloads=(self._workload(),),
                            faults=FaultSpec())
        assert spec.faults is None
        healthy = ScenarioSpec(name="x", workloads=(self._workload(),))
        assert canonical_json(spec.to_dict()) == canonical_json(healthy.to_dict())

    def test_faults_round_trip(self):
        spec = ScenarioSpec(
            name="x", workloads=(self._workload(),),
            faults=node_outage("node-0", 10.0, 20.0),
        )
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.faults is not None

    def test_faults_rejected_for_non_simulate_kinds(self):
        from repro.scenarios.spec import AllocationSpec

        with pytest.raises(ValueError):
            ScenarioSpec(
                name="x", kind="fixed", workloads=(self._workload(),),
                allocation=AllocationSpec(containers=2),
                faults=node_outage("node-0", 1.0, None),
            )


class TestEvictionSemantics:
    def test_evict_fails_running_and_salvages_queued(self, engine):
        container = Container("fn", "node-0", standard_cpu=1.0, memory_mb=128.0)
        container.mark_warm(0.0)
        running = Request("fn", arrival_time=0.0, work=1.0)
        queued = [Request("fn", arrival_time=0.1, work=1.0),
                  Request("fn", arrival_time=0.2, work=1.0)]
        container.submit(running, engine)  # starts immediately (container idle)
        for request in queued:
            container.submit(request, engine)
        assert running.status is RequestStatus.RUNNING

        interrupted, salvaged = container.evict(0.5)
        assert container.state is ContainerState.TERMINATED
        assert interrupted == [running]
        assert running.status is RequestStatus.DROPPED
        assert salvaged == queued
        assert all(r.status is RequestStatus.QUEUED for r in salvaged)
        # idempotent
        assert container.evict(0.6) == ([], [])

    def test_terminate_still_drops_everything(self, engine):
        container = Container("fn", "node-0", standard_cpu=1.0, memory_mb=128.0)
        container.mark_warm(0.0)
        queued = Request("fn", arrival_time=0.1, work=1.0)
        queued.mark_queued()
        container._queue.append(queued)
        dropped = container.terminate(0.5)
        assert queued in dropped and queued.status is RequestStatus.DROPPED


class TestClusterNodeFailure:
    def _cluster(self, engine):
        cluster = EdgeCluster(engine, ClusterConfig(node_count=3, cpu_per_node=4.0))
        cluster.deploy(_deployment())
        return cluster

    def test_capacity_accounting_and_placement(self, engine):
        cluster = self._cluster(engine)
        assert cluster.total_cpu == 12.0
        assert cluster.configured_cpu == 12.0
        cluster.fail_node("node-1")
        assert cluster.total_cpu == 8.0
        assert cluster.configured_cpu == 12.0
        assert all(cluster.find_node_for(1.0, 128.0).name != "node-1"
                   for _ in range(3))
        with pytest.raises(InsufficientCapacityError):
            cluster.create_container("fn", node=cluster.node("node-1"))
        cluster.recover_node("node-1")
        assert cluster.total_cpu == 12.0

    def test_fail_node_evicts_with_salvage(self, engine):
        cluster = self._cluster(engine)
        node = cluster.node("node-0")
        container = cluster.create_container("fn", node=node)
        engine.run(until=cluster.config.cold_start_latency + 1e-6)
        running = Request("fn", arrival_time=1.0, work=5.0)
        waiting = Request("fn", arrival_time=1.1, work=5.0)
        container.submit(running, engine)
        container.submit(waiting, engine)

        interrupted, salvaged = cluster.fail_node("node-0")
        assert [r.request_id for r in interrupted] == [running.request_id]
        assert [r.request_id for r in salvaged] == [waiting.request_id]
        assert cluster.get_container(container.container_id) is None
        assert not cluster.has_containers("fn")
        # idempotent
        assert cluster.fail_node("node-0") == ([], [])
        with pytest.raises(KeyError):
            cluster.fail_node("node-99")

    def test_cold_start_sampler_overrides_constant(self, engine):
        cluster = self._cluster(engine)
        cluster.cold_start_sampler = lambda: 2.0
        container = cluster.create_container("fn")
        engine.run(until=1.0)
        assert container.state is ContainerState.STARTING
        engine.run(until=2.0 + 1e-6)
        assert container.state is ContainerState.WARM


def _quick_recovery_spec(**overrides):
    """The registered recovery scenario at test-friendly sizes."""
    params = dict(duration=120.0, fail_at=40.0, recover_at=80.0, seed=21)
    params.update(overrides)
    return build("node-failure-recovery", **params)


class TestRecoveryScenario:
    def test_availability_and_recovery_metrics(self):
        out = run_scenario(_quick_recovery_spec())
        faults = out.data["faults"]
        # one third of capacity gone for one third of the run
        assert faults["capacity_availability"] == pytest.approx(8 / 9)
        assert faults["node_failures"] == 1
        assert faults["node_recoveries"] == 1
        (record,) = faults["recoveries"]
        assert record["node"] == "node-0"
        assert record["containers_lost"] > 0
        # the controller replaced the lost containers on surviving nodes:
        # recovery takes one cold start, not the whole outage
        assert record["recovery_time"] is not None
        assert record["recovery_time"] < 40.0
        assert faults["request_availability"] <= 1.0
        # SLO metrics still present alongside the fault group
        assert "slo" in out.data["metrics"]["functions"]["squeezenet"]

    def test_reclamation_suppressed_during_recovery(self):
        # Drive the controller directly: an over-provisioned function wants
        # to scale down every epoch, but a fault notification opens the
        # grace window and the lazy termination marks must be withheld
        # until it closes.
        from repro.core.controller import ControllerConfig, LassController

        engine = SimulationEngine()
        cluster = EdgeCluster(engine, ClusterConfig(node_count=3, cpu_per_node=4.0))
        cluster.deploy(_deployment())
        controller = LassController(
            engine, cluster,
            config=ControllerConfig(epoch_length=10.0, online_learning=False,
                                    fault_recovery_grace=30.0),
        )
        for _ in range(4):
            cluster.create_container("fn")
        engine.run(until=0.6)  # past the cold start
        controller.start()
        controller.on_node_failed("node-1", [])  # grace until t≈30.6

        engine.run(until=25.0)  # epochs at t=10, t=20: inside the window
        counters = controller.metrics.counters
        assert counters["reclamations_suppressed"] > 0
        assert counters.get("lazy_marks", 0) == 0
        live = cluster.containers_of("fn")
        assert all(c.state is not ContainerState.DRAINING for c in live)

        engine.run(until=45.0)  # epoch at t=40: the window has closed
        assert counters["lazy_marks"] > 0
        assert any(c.state is ContainerState.DRAINING
                   for c in cluster.containers_of("fn"))

    def test_overlapping_failure_windows_rejected(self):
        # Overlap would let one window's recovery revive a node another
        # window still holds down, silently corrupting the availability
        # integral — it is a spec error, caught at construction.
        with pytest.raises(ValueError, match="overlap"):
            FaultSpec(node_failures=(NodeFailureSpec("node-0", 20.0, 60.0),
                                     NodeFailureSpec("node-0", 40.0, 100.0)))
        with pytest.raises(ValueError, match="permanent"):
            FaultSpec(node_failures=(NodeFailureSpec("node-0", 20.0, None),
                                     NodeFailureSpec("node-0", 40.0, 100.0)))
        # disjoint windows on one node, and same times on different nodes, are fine
        FaultSpec(node_failures=(NodeFailureSpec("node-0", 20.0, 60.0),
                                 NodeFailureSpec("node-0", 60.0, 100.0),
                                 NodeFailureSpec("node-1", 20.0, 60.0)))

    def test_requests_keep_completing_through_the_outage(self):
        out = run_scenario(_quick_recovery_spec())
        sim = out.sim
        completed = sim.metrics.completed_requests("squeezenet")
        # completions exist strictly inside the outage window
        during = [r for r in completed if 45.0 <= r.arrival_time <= 75.0]
        assert during, "no requests completed during the outage"

    def test_total_blackout_survives_and_recovers(self):
        # every node down at once: zero capacity must not crash the epoch
        # loop, and service must come back one cold start after the nodes do
        base = _quick_recovery_spec(faulted=False)
        spec = ScenarioSpec.from_dict({
            **base.to_dict(),
            "name": "blackout",
            "faults": {
                "node_failures": [
                    {"node": f"node-{i}", "fail_at": 40.0, "recover_at": 70.0}
                    for i in range(3)
                ],
                "crash_probability": 0.0,
                "crash_functions": None,
                "cold_start": None,
            },
        })
        out = run_scenario(spec)
        faults = out.data["faults"]
        assert faults["node_failures"] == 3
        assert faults["node_recoveries"] == 3
        # the warm capacity lost with the first node can only come back one
        # cold start after the blackout ends (the later failures evict only
        # the still-STARTING replacements, so their records close at 0)
        assert faults["max_recovery_time"] == pytest.approx(30.5)
        # traffic resumes after the blackout
        completed = out.sim.metrics.completed_requests("squeezenet")
        assert any(r.arrival_time > 75.0 for r in completed)

    def test_permanent_failure_never_recovers_node(self):
        out = run_scenario(_quick_recovery_spec(recover_at=None))
        faults = out.data["faults"]
        assert faults["node_recoveries"] == 0
        (record,) = faults["recoveries"]
        assert record["recover_at"] is None
        # capacity stays down for the remaining 2/3 of the run
        assert faults["capacity_availability"] == pytest.approx(1 - (2 / 3) * (1 / 3))


class TestCrashOnDispatch:
    def test_certain_crash_fails_the_request_and_replaces_the_container(self):
        spec = build("flaky-containers", crash_probability=0.5, duration=60.0)
        out = run_scenario(spec)
        faults = out.data["faults"]
        assert faults["container_crashes"] > 0
        assert faults["failed_requests"] >= faults["container_crashes"]
        counters = out.data["metrics"]["counters"]
        # the controller kept replacing crashed containers
        assert counters["creations"] > faults["container_crashes"] / 2
        assert counters["completions"] > 0

    def test_interceptor_is_consulted_once_per_dispatch_attempt(self, monkeypatch):
        """Interceptor calls == requests started + crashes drawn, all from ``_dispatch_to``."""
        import collections
        import sys

        from repro.faults.injector import FaultInjector

        consulted = collections.Counter()
        original = FaultInjector._intercept_dispatch

        def counting(injector, request, container):
            choke_point = sys._getframe(1)
            consulted[choke_point.f_code.co_name, choke_point.f_back.f_code.co_name] += 1
            return original(injector, request, container)

        monkeypatch.setattr(FaultInjector, "_intercept_dispatch", counting)
        out = run_scenario(build("flaky-containers", crash_probability=0.05, duration=60.0))
        started = sum(r.start_time is not None for r in out.sim.metrics.requests)
        crashes = out.data["faults"]["container_crashes"]
        assert crashes > 0
        assert sum(consulted.values()) == started + crashes
        # every route onto a container was taken, and each went through the choke point
        assert set(consulted) == {("_dispatch_to", "submit"),
                                  ("_dispatch_to", "_completion_hook"),
                                  ("_dispatch_to", "drain")}

    def test_crash_functions_filter(self):
        base = build("rolling-node-churn", phase=30.0)
        spec = ScenarioSpec.from_dict({
            **base.to_dict(),
            "faults": {
                "node_failures": [],
                "crash_probability": 0.9,
                "crash_functions": ["geofence"],
                "cold_start": None,
            },
        })
        out = run_scenario(spec)
        sim = out.sim
        # squeezenet is exempt: none of its requests may be dropped
        assert not sim.metrics.dropped_requests("squeezenet")
        assert out.data["faults"]["container_crashes"] > 0


class TestFaultDeterminism:
    """The metamorphic properties the issue pins."""

    def test_same_seed_same_bytes(self):
        a = run_scenario(_quick_recovery_spec()).data
        b = run_scenario(_quick_recovery_spec()).data
        assert canonical_json(a) == canonical_json(b)

    def test_flaky_same_seed_same_bytes(self):
        spec = build("flaky-containers", duration=60.0)
        a = run_scenario(spec).data
        b = run_scenario(ScenarioSpec.from_json(spec.to_json())).data
        assert canonical_json(a) == canonical_json(b)

    def test_disabled_faults_match_healthy_run_exactly(self):
        healthy = _quick_recovery_spec(faulted=False)
        assert healthy.faults is None
        # the disabled arm carries an explicit *empty* fault schedule through
        # from_dict, exercising the normalisation path end to end
        disabled = ScenarioSpec.from_dict({
            **healthy.to_dict(),
            "faults": {"node_failures": [], "crash_probability": 0.0,
                       "crash_functions": None, "cold_start": None},
        })
        assert disabled.faults is None
        healthy_bytes = canonical_json(run_scenario(healthy).data)
        disabled_bytes = canonical_json(run_scenario(disabled).data)
        assert healthy_bytes == disabled_bytes
        # and a faulted run genuinely differs (the injection is real)
        faulted_bytes = canonical_json(run_scenario(_quick_recovery_spec()).data)
        assert faulted_bytes != healthy_bytes

    def test_empty_fault_spec_builds_no_injector(self):
        # SimulationRunner's is_empty() short-circuit: an empty FaultSpec
        # must not construct an injector (no interceptor, no sampler, no
        # extra RNG streams) — the mechanism behind byte-identity above
        from repro.simulation import SimulationRunner

        spec = _quick_recovery_spec(faulted=False)
        bindings = [w.build() for w in spec.workloads]
        armed = SimulationRunner(workloads=bindings, seed=spec.seed,
                                 fault_spec=FaultSpec())
        assert armed.fault_injector is None
        assert armed.policy.dispatcher.interceptor is None
        assert armed.cluster.cold_start_sampler is None
        assert "faults:crash" not in armed.rng.names()

    def test_sweep_workers_identity_with_faults(self):
        sweep = build("fig10", duration=90.0, fail_at=30.0, recover_at=60.0)
        serial = ResilientSweepRunner(sweep, workers=1, on_failure="raise").run()
        parallel = ResilientSweepRunner(sweep, workers=2, on_failure="raise").run()
        assert canonical_json(serial) == canonical_json(parallel)

    def test_fig10_healthy_arm_is_truly_healthy(self):
        sweep = build("fig10", duration=90.0, fail_at=30.0, recover_at=60.0)
        shards = sweep.expand()
        assert [s.name for s in shards] == ["fig10-faulted", "fig10-healthy"]
        assert shards[0].faults is not None and shards[1].faults is None
        # seed_mode="base": both arms replay identical randomness
        assert shards[0].seed == shards[1].seed


class TestFig10Experiment:
    def test_renderer_runs_and_reports_recovery(self):
        from repro.experiments.fig10_recovery import format_fig10, run_fig10

        result = run_fig10(duration=90.0, fail_at=30.0, recover_at=60.0)
        assert result.faulted.capacity_availability < 1.0
        assert result.healthy.capacity_availability is None
        assert result.faulted.completions > 0
        text = format_fig10(result)
        assert "capacity availability" in text and "recovery time" in text

    def test_registered_as_experiment(self):
        from repro.scenarios.registry import experiment_names

        assert "fig10" in experiment_names()
