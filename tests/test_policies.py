"""Conformance suite for the control-plane policy layer.

Every registered policy must behave as a well-formed
:class:`~repro.core.policy.ControlPolicy`:

1. **Drop-in execution** — it runs through ``kind="simulate"`` scenarios
   via the registry (no bespoke harness).
2. **Seed determinism** — the same spec produces byte-identical results
   JSON on repeated runs, healthy *and* under a node-failure fault
   schedule.
3. **Fault hooks** — node failure/recovery events reach the policy (the
   counters prove the injector ran against it) without crashing it.
4. **Spec round-tripping** — ``ControllerSpec.policy`` /
   ``policy_params`` survive ``to_dict``/``from_dict`` exactly, and the
   serialised form of a default (LaSS) controller is unchanged from the
   pre-policy layout.

Plus the one spelling of the OpenWhisk baseline: ``kind="simulate"`` +
``controller.policy="openwhisk"`` (``kind="openwhisk"`` is refused with
an error that says so).
"""

import dataclasses
import json

import pytest

from repro.core.policy import (
    ControlPolicy,
    PolicyContext,
    build_policy,
    get_policy,
    policy_names,
    register_policy,
)
from repro.scenarios import (
    ControllerSpec,
    ScenarioSpec,
    ScheduleSpec,
    WorkloadSpec,
    apply_overrides,
    build,
    canonical_json,
    run_scenario,
)

#: Parametrisation comes from the live registry, so a policy registered
#: by a future PR is conformance-covered automatically (if it needs
#: params, it must add a POLICY_OVERRIDES entry or its cases fail).
ALL_POLICIES = tuple(policy_names())

#: Per-policy knobs for the conformance scenario: the static policy needs
#: an explicit allocation; noop scales nothing, so it gets prewarmed
#: containers to serve from.
POLICY_OVERRIDES = {
    "static": {"controller.policy_params": {"allocations": {"squeezenet": 3}}},
    "noop": {"warm_start": {"squeezenet": 3}},
}

FAULTS = {
    "node_failures": [{"node": "node-0", "fail_at": 15.0, "recover_at": 30.0}],
    "crash_probability": 0.0,
    "crash_functions": None,
    "cold_start": None,
}


def conformance_spec(policy: str, faulted: bool = False) -> ScenarioSpec:
    """A small squeezenet scenario running the given policy."""
    base = ScenarioSpec(
        name=f"conformance-{policy}",
        kind="simulate",
        workloads=(
            WorkloadSpec("squeezenet", ScheduleSpec.static(15.0, duration=45.0),
                         slo_deadline=0.1),
        ),
        duration=45.0,
        seed=17,
        metrics=("waiting", "slo", "utilization", "counters", "generated"),
    )
    overrides = {"controller.policy": policy}
    overrides.update(POLICY_OVERRIDES.get(policy, {}))
    if faulted:
        overrides["faults"] = FAULTS
    return apply_overrides(base, overrides)


class TestRegistry:
    def test_all_builtin_policies_registered(self):
        assert {"lass", "hybrid", "reactive", "static",
                "openwhisk", "noop"} <= set(ALL_POLICIES)

    def test_unknown_policy_raises_with_available_names(self):
        with pytest.raises(KeyError, match="available"):
            get_policy("no-such-policy")

    def test_unknown_policy_rejected_at_spec_construction(self):
        with pytest.raises(ValueError, match="unknown policy"):
            ControllerSpec(policy="no-such-policy")

    def test_lass_and_noop_reject_policy_params(self):
        with pytest.raises(ValueError, match="lass"):
            ControllerSpec(policy="lass", policy_params={"x": 1})
        with pytest.raises(ValueError, match="noop"):
            ControllerSpec(policy="noop", policy_params={"x": 1})

    def test_static_requires_allocations(self):
        with pytest.raises(ValueError, match="allocations"):
            ControllerSpec(policy="static")
        with pytest.raises(ValueError, match="allocations"):
            ControllerSpec(policy="static", policy_params={"allocations": {}})
        ControllerSpec(policy="static", policy_params={"allocations": {"f": 2}})

    def test_bad_policy_params_rejected_at_spec_construction(self):
        with pytest.raises(ValueError, match="reactive"):
            ControllerSpec(policy="reactive", policy_params={"nope": 1})
        with pytest.raises(ValueError, match="hybrid"):
            ControllerSpec(policy="hybrid", policy_params={"nope": 1})
        with pytest.raises(ValueError, match="openwhisk"):
            ControllerSpec(policy="openwhisk", policy_params={"nope": 1})
        # valid params construct fine
        ControllerSpec(policy="hybrid", policy_params={"scale_down_patience": 2})

    def test_third_party_registration_and_duplicate_rejection(self):
        from repro.core.policy import _REGISTRY

        @register_policy("test-dummy", "a test-only policy")
        def _build_dummy(context, params):
            return build_policy("noop", context)

        try:
            assert "test-dummy" in policy_names()
            ControllerSpec(policy="test-dummy")  # spec layer sees it immediately
            with pytest.raises(ValueError, match="registered twice"):
                register_policy("test-dummy", "again")(lambda c, p: None)
        finally:
            # don't leak the dummy into the rest of the session
            _REGISTRY.pop("test-dummy", None)


#: Hostile ``controller`` fields: each used to pass the spec and then raise
#: a TypeError, die mid-run, or run to completion on a NaN knob.
HOSTILE_CONTROLLER_FIELDS = [
    ({"policy": []}, "controller.policy must be a string"),
    ({"policy": {}}, "controller.policy must be a string"),
    ({"reclamation": []}, "controller.reclamation must be a string"),
    ({"epoch_length": "x"}, "controller.epoch_length must be a finite number"),
    ({"epoch_length": float("nan")}, "controller.epoch_length must be a finite number"),
    ({"rate_sample_interval": float("nan")},
     "controller.rate_sample_interval must be a finite number"),
    ({"deflation_threshold": float("nan")},
     "controller.deflation_threshold must be a finite number"),
    ({"long_window": float("inf")}, "controller.long_window must be a finite number"),
    ({"ewma_alpha": True}, "controller.ewma_alpha must be a finite number"),
    ({"epoch_length": 0.0}, "epoch_length must be positive"),
    ({"rate_sample_interval": -5.0}, "rate_sample_interval must be positive"),
    ({"percentile": 1.0}, r"percentile must be in \(0, 1\)"),
]


class TestControllerSpecRejectsHostileInput:
    @pytest.mark.parametrize("fields, message", HOSTILE_CONTROLLER_FIELDS)
    def test_rejected_at_spec_construction(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ControllerSpec(**fields)

    @pytest.mark.parametrize("fields, message", HOSTILE_CONTROLLER_FIELDS[:3]
                             + HOSTILE_CONTROLLER_FIELDS[4:7])
    def test_the_cli_exits_2_on_a_spec_file_carrying_it(self, tmp_path, capsys,
                                                        fields, message):
        from repro.cli import main

        data = build("quickstart", duration=5.0).to_dict()
        data["controller"].update(fields)
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(data))  # NaN is written as the JSON literal NaN
        assert main(["scenario", str(path)]) == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["epoch_length", "rate_sample_interval",
                                       "percentile", "fault_recovery_grace"])
    def test_controller_config_rejects_nan(self, field):
        from repro.core.controller import ControllerConfig

        with pytest.raises(ValueError, match=field):
            ControllerConfig(**{field: float("nan")})

    def test_numpy_and_integer_knobs_are_accepted(self):
        import numpy as np

        spec = ControllerSpec(epoch_length=np.int64(5), long_window=np.float64(60.0))
        assert spec.build().epoch_length == 5


class TestControllerSpecRoundTrip:
    def test_policy_fields_round_trip_exactly(self):
        spec = ControllerSpec(policy="reactive",
                              policy_params={"target_concurrency": 1.5,
                                             "evaluation_interval": 2.0})
        rebuilt = ControllerSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.policy == "reactive"
        assert rebuilt.policy_params == {"target_concurrency": 1.5,
                                         "evaluation_interval": 2.0}

    def test_default_controller_serialises_without_policy_keys(self):
        # pre-policy specs (and their results envelopes) must keep their
        # exact historical bytes: the default policy is omitted
        data = ControllerSpec().to_dict()
        assert "policy" not in data and "policy_params" not in data
        assert ControllerSpec.from_dict(data) == ControllerSpec()

    def test_non_default_policy_is_serialised(self):
        data = ControllerSpec(policy="hybrid").to_dict()
        assert data["policy"] == "hybrid"
        assert "policy_params" not in data

    def test_build_strips_policy_fields(self):
        config = ControllerSpec(policy="reactive").build()
        assert not hasattr(config, "policy")
        assert config.epoch_length == 10.0

    def test_policy_name_as_kind_is_refused_with_the_right_spelling(self):
        spec = build("fig8", phase_duration=10.0).expand()[2]
        assert (spec.kind, spec.controller.policy) == ("simulate", "openwhisk")
        with pytest.raises(ValueError) as excinfo:
            ScenarioSpec.from_dict(dict(spec.to_dict(), kind="openwhisk"))
        message = str(excinfo.value)
        assert 'kind="simulate"' in message
        assert 'controller.policy="openwhisk"' in message


class TestConformance:
    """Every registered policy through the same scenario, healthy + faulted."""

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_healthy_run_is_seed_deterministic(self, policy):
        spec = conformance_spec(policy)
        first = canonical_json(run_scenario(spec).data)
        second = canonical_json(run_scenario(spec).data)
        assert first == second

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_faulted_run_is_deterministic_and_hooks_fire(self, policy):
        spec = conformance_spec(policy, faulted=True)
        first = run_scenario(spec).data
        second = run_scenario(spec).data
        assert canonical_json(first) == canonical_json(second)
        faults = first["faults"]
        # the injector drove the policy's hooks through the full outage
        assert faults["node_failures"] == 1
        assert first["metrics"]["counters"].get("node_recoveries", 0) == 1
        assert 0.0 < faults["capacity_availability"] < 1.0

    @pytest.mark.parametrize("policy", ("lass", "hybrid", "reactive", "static"))
    def test_scaling_policies_serve_the_load(self, policy):
        data = run_scenario(conformance_spec(policy)).data
        counters = data["metrics"]["counters"]
        assert counters["completions"] >= 0.9 * counters["arrivals"]

    def test_guaranteed_cpu_metric_rejected_for_non_fair_share_policies(self):
        spec = conformance_spec("reactive")
        spec = apply_overrides(spec, {"metrics": ["counters", "guaranteed_cpu"]})
        with pytest.raises(ValueError, match="fair-share"):
            run_scenario(spec)

    def test_noop_serves_from_prewarmed_containers_only(self):
        data = run_scenario(conformance_spec("noop")).data
        counters = data["metrics"]["counters"]
        assert counters["completions"] >= 0.9 * counters["arrivals"]
        assert "creations" not in counters  # noop never creates a container

    @pytest.mark.parametrize("policy", ("lass", "reactive", "static", "hybrid"))
    def test_crash_faults_reach_dispatcher_policies(self, policy):
        spec = conformance_spec(policy)
        crash = dict(FAULTS, node_failures=[], crash_probability=0.2)
        spec = apply_overrides(spec, {"faults": crash})
        data = run_scenario(spec).data
        assert data["faults"]["container_crashes"] > 0

    def test_crash_faults_reach_the_openwhisk_choke_point(self):
        spec = conformance_spec("openwhisk")
        crash = dict(FAULTS, node_failures=[], crash_probability=0.2)
        spec = apply_overrides(spec, {"faults": crash})
        data = run_scenario(spec).data
        assert data["faults"]["container_crashes"] > 0


class TestOpenWhiskAlias:
    """Figure 8's OpenWhisk arm (once a scenario kind of its own, now a policy override)."""

    def test_alias_reports_the_openwhisk_group(self):
        sweep = build("fig8", phase_duration=20.0)
        arm = [s for s in sweep.expand() if s.controller.policy == "openwhisk"][0]
        data = run_scenario(arm).data
        assert set(data) == {"schema", "scenario", "metrics", "openwhisk"}
        assert set(data["metrics"]) == {"counters"}
        for key in ("failed_invokers", "all_invokers_failed", "completions",
                    "arrivals", "drops"):
            assert key in data["openwhisk"]


class TestShootout:
    def test_fig11_arms_cover_policies_times_fault_status(self):
        from repro.scenarios.registry import SHOOTOUT_POLICIES

        sweep = build("fig11", duration=60.0)
        shards = sweep.expand()
        assert len(shards) == 2 * len(SHOOTOUT_POLICIES)
        # every arm shares the base seed (identical randomness design)
        assert {s.seed for s in shards} == {sweep.base.seed}
        for policy in SHOOTOUT_POLICIES:
            arms = [s for s in shards if s.controller.policy == policy]
            assert len(arms) == 2
            assert sorted(bool(s.faults) for s in arms) == [False, True]

    def test_shootout_round_trips(self):
        from repro.scenarios.sweep import SweepSpec

        sweep = build("policy-shootout", duration=60.0)
        assert SweepSpec.from_json(sweep.to_json()) == sweep

    def test_fig11_renderer_produces_one_row_per_arm(self):
        from repro.experiments.fig11_policies import format_fig11, run_fig11

        result = run_fig11(duration=45.0)
        text = format_fig11(result)
        assert len(result.arms) == 10
        for arm in result.arms:
            assert arm.policy in text
        lass = result.arm("lass", faulted=False)
        assert lass is not None and lass.served_fraction > 0.9


class TestRunnerPolicyParameter:
    def test_runner_accepts_a_custom_factory(self):
        from repro.simulation import SimulationRunner
        from repro.workloads import StaticRate, WorkloadBinding, get_function

        seen = {}

        def factory(context: PolicyContext) -> ControlPolicy:
            policy = build_policy("noop", context)
            seen["policy"] = policy
            return policy

        runner = SimulationRunner(
            workloads=[WorkloadBinding(get_function("squeezenet"),
                                       StaticRate(5.0, duration=20.0))],
            seed=3,
            policy=factory,
            warm_start_containers={"squeezenet": 2},
        )
        result = runner.run(duration=20.0)
        assert runner.policy is seen["policy"]
        assert result.controller is seen["policy"]
        assert result.metrics.counters["completions"] > 0

    def test_policy_params_require_a_registered_name(self):
        from repro.simulation import SimulationRunner
        from repro.workloads import StaticRate, WorkloadBinding, get_function

        with pytest.raises(ValueError, match="registered policy name"):
            SimulationRunner(
                workloads=[WorkloadBinding(get_function("squeezenet"),
                                           StaticRate(5.0, duration=10.0))],
                policy=lambda context: build_policy("noop", context),
                policy_params={"x": 1},
            )


class TestBaselineShims:
    def test_every_builtin_policy_is_a_control_policy(self):
        from repro.core.controller import LassController
        from repro.policies import (
            ConcurrencyAutoscaler,
            HybridPolicy,
            NoOpPolicy,
            StaticAllocationController,
            VanillaOpenWhiskController,
        )

        for cls in (LassController, ConcurrencyAutoscaler, HybridPolicy,
                    NoOpPolicy, StaticAllocationController,
                    VanillaOpenWhiskController):
            assert issubclass(cls, ControlPolicy)


class TestOneSharedQueueDataPath:
    """Every policy but OpenWhisk runs one data path, written once."""

    #: what the data path is made of: a policy that defines one of these
    #: writes its own dispatch (or its columnar replica of it) again
    DATA_PATH = ("dispatch", "columnar_plan", "_on_container_warm", "_create")

    @staticmethod
    def _built(name):
        from repro.simulation import SimulationRunner
        from repro.workloads import StaticRate, WorkloadBinding, get_function

        params = {"allocations": {"squeezenet": 1}} if name == "static" else None
        return SimulationRunner(
            workloads=[WorkloadBinding(get_function("squeezenet"), StaticRate(5.0, duration=5.0))],
            seed=3, policy=name, policy_params=params,
        ).policy

    @pytest.mark.parametrize("name", ALL_POLICIES)
    def test_the_data_path_is_the_base_classes(self, name):
        from repro.core.dispatch import SharedQueuePolicy

        policy = self._built(name)
        if name == "openwhisk":
            assert not isinstance(policy, SharedQueuePolicy)
            assert policy.columnar_plan() is None
            return
        assert isinstance(policy, SharedQueuePolicy)
        overridden = [attr for attr in self.DATA_PATH
                      if getattr(type(policy), attr) is not getattr(SharedQueuePolicy, attr)]
        assert overridden == [], f"{name} writes its own {overridden}"
        # the completion body is the dispatcher's: it counts and folds into the policy's own
        assert policy.dispatcher.metrics is policy.metrics
        assert policy.dispatcher.completion_folds is policy.completion_folds
        plan = policy.columnar_plan()
        assert plan.dispatcher is policy.dispatcher and plan.collector is policy.metrics
        # the plan's hooks are the same folds the event plane calls
        assert (plan.fold_arrivals is None) == (policy.arrival_folds is None)
        assert (plan.fold_completions is None) == (policy.completion_folds is None)
        assert (plan.create_on_empty is not None) == policy.creates_on_empty

    def test_an_untracked_function_is_refused_on_both_planes(self):
        from repro.sim.request import Request

        policy = self._built("hybrid")
        with pytest.raises(KeyError, match="'ghost' is not registered"):
            policy.dispatch(Request(function_name="ghost", arrival_time=0.0, work=0.1))
        with pytest.raises(KeyError, match="'ghost' is not registered"):
            policy.columnar_plan().fold_arrivals("ghost", [0.0])
        assert policy.metrics.counters["arrivals"] == 0   # refused before it was recorded

    def test_a_crash_on_the_first_dispatch_sizes_no_fleet(self):
        """Hybrid's crash pass at the first arrival's instant has no rate to size a floor on."""
        spec = apply_overrides(
            build("flaky-containers", crash_probability=0.125, rate=4.0, duration=45.0, seed=1),
            {"controller.policy": "hybrid"})
        epochs = run_scenario(spec).sim.metrics.epochs
        first = epochs[0].functions["squeezenet"]
        assert (first.arrival_rate_estimate, first.desired_containers) == (0.0, 0)
        assert max(e.functions["squeezenet"].containers for e in epochs) <= 3

    @pytest.mark.parametrize("hook", ["on_node_failed", "on_container_crashed"])
    def test_salvaged_requests_rejoin_the_head_of_the_shared_queue(self, hook):
        from repro.sim.request import Request

        policy = self._built("noop")            # no container: every arrival queues
        waiting = Request(function_name="squeezenet", arrival_time=1.0, work=0.1)
        policy.dispatch(waiting)
        salvaged = [Request(function_name="squeezenet", arrival_time=t, work=0.1)
                    for t in (0.2, 0.5)]
        for request in salvaged:
            request.mark_queued()
        finished = Request(function_name="squeezenet", arrival_time=0.1, work=0.1)
        getattr(policy, hook)(None, salvaged + [finished])   # only QUEUED ones rejoin
        assert policy.dispatcher.queued_requests("squeezenet") == salvaged + [waiting]


class TestControlPolicyDefaults:
    """A policy with a data path of its own keeps ``ControlPolicy``'s defaults."""

    def test_no_dispatcher_no_requeue_no_interceptor_no_plan(self):
        class Bare(ControlPolicy):
            def start(self):
                pass

            def dispatch(self, request):
                pass

        policy = Bare()
        assert policy.columnar_plan() is None and policy.run_epoch() is None
        policy.on_node_failed("node-0", ["salvaged"])
        policy.on_container_crashed(None, ["salvaged"])
        policy._requeue_salvaged(["parked"])     # what a rejoining federation site calls
        with pytest.raises(ValueError, match="Bare has no dispatch choke point"):
            policy.set_dispatch_interceptor(lambda request, container: True)
