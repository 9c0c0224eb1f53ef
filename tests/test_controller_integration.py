"""Integration tests for the LaSS controller on the simulated edge cluster."""

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.core.controller import ControllerConfig, ReclamationPolicy
from repro.simulation import SimulationRunner, run_fixed_allocation
from repro.workloads.functions import get_function, microbenchmark
from repro.workloads.generator import WorkloadBinding
from repro.workloads.schedules import StaticRate, StepSchedule


def run_single(rate, duration=120.0, slo=0.1, policy=ReclamationPolicy.DEFLATION,
               cluster_config=None, seed=11, profile=None):
    profile = profile or microbenchmark(0.1)
    runner = SimulationRunner(
        workloads=[WorkloadBinding(profile, StaticRate(rate, duration=duration), slo_deadline=slo)],
        cluster_config=cluster_config or ClusterConfig(node_count=4, cpu_per_node=8),
        controller_config=ControllerConfig(reclamation=policy),
        seed=seed,
    )
    return runner.run(duration=duration)


class TestSteadyStateAutoscaling:
    def test_allocation_converges_to_model_prediction(self):
        result = run_single(rate=30.0)
        from repro.core.queueing.sizing import required_containers
        expected = required_containers(30.0, 10.0, 0.1, 0.95).containers
        _, counts = result.container_timeline("microbenchmark")
        # after warm-up the allocation should sit at the model's answer
        steady = counts[len(counts) // 2:]
        assert max(steady) <= expected + 1
        assert min(steady) >= expected - 1

    def test_slo_met_in_steady_state(self):
        result = run_single(rate=30.0, duration=180.0)
        summary = result.waiting_summary("microbenchmark", warmup=40.0)
        assert summary.count > 1000
        assert summary.p95 <= 0.1 * 1.3

    def test_most_requests_complete(self):
        result = run_single(rate=20.0)
        arrivals = result.metrics.counters["arrivals"]
        completions = result.metrics.counters["completions"]
        assert completions >= 0.97 * arrivals

    def test_zero_load_releases_containers(self):
        profile = microbenchmark(0.1)
        schedule = StepSchedule([(0.0, 20.0), (60.0, 0.0)], duration=200.0)
        runner = SimulationRunner(
            workloads=[WorkloadBinding(profile, schedule, slo_deadline=0.1)],
            cluster_config=ClusterConfig(node_count=4, cpu_per_node=8),
            controller_config=ControllerConfig(lazy_termination=False),
            seed=3,
        )
        result = runner.run(duration=200.0)
        _, counts = result.container_timeline("microbenchmark")
        assert counts[-1] <= 1

    def test_scale_up_tracks_load_increase(self):
        profile = microbenchmark(0.1)
        schedule = StepSchedule([(0.0, 10.0), (100.0, 40.0)], duration=200.0)
        runner = SimulationRunner(
            workloads=[WorkloadBinding(profile, schedule, slo_deadline=0.1)],
            cluster_config=ClusterConfig(node_count=4, cpu_per_node=8),
            seed=5,
        )
        result = runner.run(duration=200.0)
        timeline = result.metrics.timeline.series("microbenchmark")
        early = [p.containers for p in timeline if p.time < 90]
        late = [p.containers for p in timeline if p.time > 150]
        assert max(late) > max(early)

    def test_reactive_scale_up_happens_within_seconds_of_burst(self):
        # load doubles at t=60; the 5-second rate tick should add containers
        # well before the next 10-second epoch boundary plus lag
        profile = microbenchmark(0.1)
        schedule = StepSchedule([(0.0, 10.0), (60.0, 40.0)], duration=120.0)
        runner = SimulationRunner(
            workloads=[WorkloadBinding(profile, schedule, slo_deadline=0.1)],
            cluster_config=ClusterConfig(node_count=4, cpu_per_node=8),
            seed=6,
        )
        result = runner.run(duration=120.0)
        assert result.metrics.counters.get("reactive_scale_ups", 0) >= 1


class TestFixedAllocationHarness:
    def test_fixed_allocation_never_autoscale(self):
        binding = WorkloadBinding(microbenchmark(0.1), StaticRate(20.0, duration=60.0))
        result = run_fixed_allocation(binding, containers=4, duration=60.0)
        _, counts = result.container_timeline("microbenchmark")
        assert all(c == 4 for c in counts) or counts == []
        assert result.cluster.container_count("microbenchmark") == 4

    def test_deflation_plan_applied(self):
        binding = WorkloadBinding(get_function("squeezenet"), StaticRate(10.0, duration=30.0))
        result = run_fixed_allocation(
            binding, containers=3, duration=30.0, deflation_plan=[0.7, 1.0, 1.0]
        )
        fractions = sorted(c.cpu_fraction for c in result.cluster.containers_of("squeezenet"))
        assert fractions[0] == pytest.approx(0.7)

    def test_deflation_plan_run_creates_each_container_once(self):
        # the plan is applied between an explicit prewarm() and run(); prewarm
        # must be idempotent or run() would warm-start a second fleet
        binding = WorkloadBinding(get_function("squeezenet"), StaticRate(10.0, duration=30.0))
        result = run_fixed_allocation(
            binding, containers=3, duration=30.0, deflation_plan=[0.7, 0.7, 1.0]
        )
        # noop never terminates, so a second fleet would still be standing
        assert len(result.cluster.all_containers()) == 3
        assert sorted(c.cpu_fraction for c in result.cluster.all_containers()) == \
            pytest.approx([0.7, 0.7, 1.0])

    def test_prewarm_is_idempotent(self):
        binding = WorkloadBinding(microbenchmark(0.1), StaticRate(5.0, duration=10.0))
        runner = SimulationRunner(workloads=[binding], policy="noop",
                                  warm_start_containers={"microbenchmark": 2})
        runner.prewarm()
        warmed_at = runner.engine.now
        runner.prewarm()
        assert runner.engine.now == warmed_at
        assert runner.cluster.container_count("microbenchmark") == 2
        runner.run(duration=10.0)
        assert runner.cluster.container_count("microbenchmark") == 2

    def test_deflation_plan_length_mismatch_rejected(self):
        binding = WorkloadBinding(get_function("squeezenet"), StaticRate(10.0, duration=30.0))
        with pytest.raises(ValueError):
            run_fixed_allocation(binding, containers=3, duration=30.0, deflation_plan=[0.7])


class TestOverloadFairShare:
    def make_overloaded_runner(self, policy, seed=21):
        # two functions, equal weights, each demanding well over half the cluster
        micro = microbenchmark(0.1)      # 0.4 vCPU containers
        squeeze = get_function("squeezenet")   # 1.0 vCPU containers
        duration = 240.0
        runner = SimulationRunner(
            workloads=[
                WorkloadBinding(micro, StaticRate(250.0, duration=duration),
                                slo_deadline=0.1, user="u1"),
                WorkloadBinding(squeeze, StaticRate(90.0, duration=duration),
                                slo_deadline=0.1, user="u2"),
            ],
            cluster_config=ClusterConfig(),   # 12 vCPU total
            controller_config=ControllerConfig(reclamation=policy),
            seed=seed,
            warm_start_containers={"microbenchmark": 2, "squeezenet": 2},
        )
        return runner, duration

    @pytest.mark.parametrize("policy", [ReclamationPolicy.TERMINATION, ReclamationPolicy.DEFLATION])
    def test_overload_detected_and_fair_share_respected(self, policy):
        runner, duration = self.make_overloaded_runner(policy)
        result = runner.run(duration=duration)
        epochs = result.metrics.epochs
        assert any(e.overloaded for e in epochs)
        guaranteed = runner.controller.guaranteed_cpu_shares()
        # in the second half (steady overload) each function holds at least
        # its guaranteed share minus one container of slack
        for name in ("microbenchmark", "squeezenet"):
            dep = runner.cluster.deployment(name)
            late = [e.functions[name].cpu for e in epochs if e.time > duration / 2]
            assert late, "no late epochs recorded"
            assert min(late) >= guaranteed[name] - dep.cpu - 1e-6

    def test_total_allocation_never_exceeds_cluster(self):
        runner, duration = self.make_overloaded_runner(ReclamationPolicy.DEFLATION)
        result = runner.run(duration=duration)
        for epoch in result.metrics.epochs:
            assert epoch.allocated_cpu <= epoch.total_cpu + 1e-6

    def test_deflation_policy_actually_deflates(self):
        runner, duration = self.make_overloaded_runner(ReclamationPolicy.DEFLATION)
        result = runner.run(duration=duration)
        assert result.metrics.counters.get("deflations", 0) > 0

    def test_termination_policy_never_deflates(self):
        runner, duration = self.make_overloaded_runner(ReclamationPolicy.TERMINATION)
        result = runner.run(duration=duration)
        assert result.metrics.counters.get("deflations", 0) == 0
        assert result.metrics.counters.get("terminations", 0) > 0


class TestControllerUnit:
    def test_guaranteed_shares_follow_weights(self):
        micro = microbenchmark(0.1)
        squeeze = get_function("squeezenet")
        runner = SimulationRunner(
            workloads=[
                WorkloadBinding(micro, StaticRate(1.0, duration=10.0), weight=1.0, user="u1"),
                WorkloadBinding(squeeze, StaticRate(1.0, duration=10.0), weight=1.0, user="u2"),
            ],
            cluster_config=ClusterConfig(),
            seed=1,
        )
        shares = runner.controller.guaranteed_cpu_shares()
        assert shares["microbenchmark"] == pytest.approx(6.0)
        assert shares["squeezenet"] == pytest.approx(6.0)

    def test_run_epoch_returns_snapshot(self):
        runner = SimulationRunner(
            workloads=[WorkloadBinding(microbenchmark(0.1), StaticRate(5.0, duration=30.0))],
            cluster_config=ClusterConfig(),
            seed=1,
        )
        snapshot = runner.controller.run_epoch()
        assert snapshot.total_cpu == 12.0
        assert "microbenchmark" in snapshot.functions

    def test_unknown_function_dispatch_rejected(self):
        runner = SimulationRunner(
            workloads=[WorkloadBinding(microbenchmark(0.1), StaticRate(5.0, duration=30.0))],
            cluster_config=ClusterConfig(),
            seed=1,
        )
        from repro.sim.request import Request
        with pytest.raises(KeyError):
            runner.controller.dispatch(Request(function_name="ghost", arrival_time=0.0, work=0.1))

    def test_duplicate_workload_names_rejected(self):
        with pytest.raises(ValueError):
            SimulationRunner(
                workloads=[
                    WorkloadBinding(microbenchmark(0.1), StaticRate(1.0, duration=1.0)),
                    WorkloadBinding(microbenchmark(0.2), StaticRate(1.0, duration=1.0)),
                ],
            )

    def test_invalid_controller_config(self):
        with pytest.raises(ValueError):
            ControllerConfig(epoch_length=0.0)
        with pytest.raises(ValueError):
            ControllerConfig(percentile=1.0)


class TestControlStats:
    """``SimulationResult.control_stats``: the epoch's cost, readable from a normal run."""

    @pytest.mark.parametrize("data_plane", ["event", "columnar"])
    def test_lass_reports_epochs_their_wall_clock_and_the_solver_counters(self, data_plane):
        runner = SimulationRunner(
            workloads=[WorkloadBinding(microbenchmark(0.1), StaticRate(30.0, duration=60.0),
                                       slo_deadline=0.1)],
            cluster_config=ClusterConfig(node_count=4, cpu_per_node=8),
            seed=11, data_plane=data_plane,
        )
        stats = runner.run(duration=60.0).control_stats
        assert stats["epochs"] == len(runner.metrics.epochs) == 6
        assert 0.0 < stats["epoch_ms_p50"] <= stats["epoch_ms_p95"]
        solver = runner.policy.solver.stats
        assert stats["solver"]["solves"] == solver.solves > 0
        assert stats["solver"]["batches"] == solver.batches
        assert set(stats["solver"]) == {"solves", "cache_hits", "warm_hits",
                                        "probability_evaluations", "batches"}
        assert stats["solver"]["cache_hits"] == stats["solver"]["warm_hits"] == 0
        # a manual pass is not a tick: only the periodic loop is timed
        runner.policy.run_epoch()
        assert runner.policy.control_stats()["epochs"] == 6

    def test_policies_without_their_own_solver_report_none_for_it(self):
        for policy in ("reactive", "hybrid"):
            runner = SimulationRunner(
                workloads=[WorkloadBinding(microbenchmark(0.1), StaticRate(20.0, duration=30.0),
                                           slo_deadline=0.1)],
                seed=3, policy=policy,
            )
            stats = runner.run(duration=30.0).control_stats
            assert stats["epochs"] == len(runner.metrics.epochs) > 0 and stats["solver"] is None

    def test_a_policy_without_an_epoch_reports_none(self):
        result = run_fixed_allocation(
            WorkloadBinding(microbenchmark(0.1), StaticRate(10.0, duration=20.0), slo_deadline=0.1),
            containers=3, duration=20.0)
        assert result.control_stats is None

    def test_host_time_never_enters_an_envelope(self):
        from repro.scenarios import apply_overrides, build, canonical_json, run_scenario

        for plane in ("event", "columnar"):
            spec = apply_overrides(build("quickstart", duration=30.0), {"data_plane": plane})
            text = canonical_json(run_scenario(spec).data)
            assert "control_stats" not in text and "epoch_ms" not in text
