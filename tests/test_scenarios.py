"""Tests for the declarative scenario subsystem.

Covers the three contracts the subsystem promises:

1. **Serialization** — every spec (including every registered experiment
   and example) round-trips exactly through JSON.
2. **Registry completeness** — all nine paper experiments (table1,
   fig3…fig9) are registered, and the experiment renderers cover
   exactly the registered names (no hard-coded list drift).
3. **Sweep determinism** — expanding and running a sweep with
   ``workers=1`` and ``workers=4`` yields byte-identical results JSON,
   and so does running with the control-plane solver's caches disabled
   (memoization and warm starts change the work, never the answers).
"""

import json

import pytest

from repro.experiments import RENDERERS
from repro.scenarios import (
    AllocationSpec,
    ResilientSweepRunner,
    ScenarioSpec,
    ScheduleSpec,
    SweepSpec,
    WorkloadSpec,
    apply_overrides,
    build,
    canonical_json,
    derive_shard_seed,
    example_names,
    experiment_names,
    names,
    run_scenario,
)
from repro.scenarios.sweep import SweepAxis


class TestSerialization:
    def test_every_registered_entry_round_trips(self):
        for name in names():
            spec = build(name)
            if isinstance(spec, SweepSpec):
                rebuilt = SweepSpec.from_json(spec.to_json())
            else:
                rebuilt = ScenarioSpec.from_json(spec.to_json())
            assert rebuilt == spec, f"{name} did not round-trip"

    def test_expanded_shards_round_trip(self):
        sweep = build("fig3", mus=(10.0,), slo_deadlines=(0.1,),
                      arrival_rates=(10.0, 20.0), duration=30.0)
        for shard in sweep.expand():
            assert ScenarioSpec.from_json(shard.to_json()) == shard

    def test_round_trip_through_plain_json_text(self):
        spec = build("fig6", step_duration=10.0)
        text = json.dumps(spec.to_dict(), indent=2, sort_keys=True)
        assert ScenarioSpec.from_dict(json.loads(text)) == spec

    def test_schedule_specs_build_correct_schedules(self):
        static = ScheduleSpec.static(rate=7.5, duration=30.0).build()
        assert static.rate(1.0) == 7.5 and static.rate(31.0) == 0.0
        stair = ScheduleSpec.staircase((1.0, 2.0), 10.0).build()
        assert stair.rate(5.0) == 1.0 and stair.rate(15.0) == 2.0
        steps = ScheduleSpec.steps([(0.0, 3.0), (10.0, 6.0)], duration=20.0).build()
        assert steps.rate(12.0) == 6.0 and steps.rate(25.0) == 0.0

    def test_azure_schedule_matches_synthesize_azure_traces(self):
        import dataclasses

        import numpy as np

        from repro.workloads.azure import DEFAULT_AZURE_CONFIGS, synthesize_azure_traces

        reference = synthesize_azure_traces(duration_minutes=5, seed=123)
        for index, (name, config) in enumerate(sorted(DEFAULT_AZURE_CONFIGS.items())):
            schedule = ScheduleSpec.azure(
                config=dataclasses.asdict(config), duration_minutes=5,
                seed=123, index=index,
            ).build()
            np.testing.assert_array_equal(schedule.counts, reference[name].counts)

    def test_validation_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", kind="nope")
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", kind="simulate")  # no workloads
        with pytest.raises(ValueError):
            ScenarioSpec(
                name="x", kind="fixed",
                workloads=(WorkloadSpec("squeezenet", ScheduleSpec.static(1.0)),),
            )  # fixed without allocation
        with pytest.raises(ValueError):
            AllocationSpec()  # neither containers nor sizing
        with pytest.raises(ValueError):
            AllocationSpec(containers=2, sizing={"model": "mmc"})  # both
        with pytest.raises(ValueError):
            ScheduleSpec("static", {})  # missing rate
        w = WorkloadSpec("squeezenet", ScheduleSpec.static(1.0))
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", workloads=(w, w))  # duplicate functions
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", workloads=(w,), metrics=("nope",))


NAN, INF = float("nan"), float("inf")


def _fig3_shard():
    """A registered simulation shard as plain data."""
    return build("fig3").expand()[0].to_dict()


def _replay_shard():
    """A registered trace-replay shard as plain data."""
    return build("fig9-at-scale", functions=12, duration_minutes=12, shards=3,
                 chunk_minutes=5).expand()[0].to_dict()


def _set(data, path, value):
    """``data`` with the field at dotted ``path`` (ints index lists) set to ``value``."""
    *parents, last = path.split(".")
    node = data
    for key in parents:
        node = node[int(key)] if key.isdigit() else node[key]
    node[last] = value
    return data


#: (shard, field, value, what the refusal names): non-finite numbers a
#: spec used to accept, the replay population's only inside a running shard
NON_FINITE_CASES = [
    (_fig3_shard, "duration", NAN, "duration"),
    (_fig3_shard, "duration", INF, "duration"),
    (_fig3_shard, "warmup", NAN, "warmup"),
    (_fig3_shard, "workloads.0.weight", NAN, "weight"),
    (_fig3_shard, "workloads.0.slo_deadline", NAN, "slo_deadline"),
    (_fig3_shard, "workloads.0.service_time", NAN, "service_time"),
    (_replay_shard, "params.population.rate_log10_sigma", NAN, "rate_log10_sigma"),
    (_replay_shard, "params.population.rate_log10_mean", NAN, "rate_log10_mean"),
    (_replay_shard, "params.population.rate_log10_mean", INF, "rate_log10_mean"),
    (_replay_shard, "params.population.rate_log10_mean", -INF, "rate_log10_mean"),
]


@pytest.mark.parametrize("shard, path, value, named", NON_FINITE_CASES,
                         ids=[f"{path}={value}" for _, path, value, _ in NON_FINITE_CASES])
def test_non_finite_numbers_are_refused_at_construction(shard, path, value, named,
                                                        tmp_path, capsys):
    from repro.cli import main

    data = _set(shard(), path, value)
    with pytest.raises(ValueError, match=named):
        ScenarioSpec.from_dict(data)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(data), encoding="utf-8")   # NaN / Infinity literals
    assert main(["scenario", str(spec_path)]) == 2
    assert named in capsys.readouterr().err
    # the same shard with the field as registered still loads
    ScenarioSpec.from_dict(shard())


class TestRegistry:
    def test_every_paper_artefact_has_a_spec(self):
        expected = {"table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
                    # fig9-at-scale (streaming trace replay), fig10 (recovery),
                    # fig11 (policy shootout) and fig12 (federation routers)
                    # are the repo's own extensions
                    "fig9-at-scale", "fig10", "fig11", "fig12"}
        assert set(experiment_names()) == expected
        # fig5 times the sizing functions on the host; it has no spec
        assert set(names(tag="paper")) == expected - {"fig5"}

    def test_renderers_cover_exactly_the_registered_experiments(self):
        assert set(RENDERERS) == set(experiment_names())

    def test_examples_are_registered(self):
        assert {"quickstart", "video-analytics-burst",
                "overload-fair-share", "azure-replay"} <= set(example_names())

    def test_fig8_sweep_has_three_arms(self):
        sweep = build("fig8", phase_duration=10.0)
        shards = sweep.expand()
        assert len(shards) == 3
        assert [s.kind for s in shards] == ["simulate"] * 3
        assert [s.controller.policy for s in shards] == ["lass", "lass", "openwhisk"]
        policies = {s.controller.reclamation for s in shards
                    if s.controller.policy == "lass"}
        assert policies == {"termination", "deflation"}

    def test_fig9_arms_share_the_base_seed(self):
        sweep = build("fig9", duration_minutes=2)
        shards = sweep.expand()
        assert len(shards) == 2
        assert shards[0].seed == shards[1].seed == sweep.base.seed

    def test_unknown_name_raises_with_available_list(self):
        with pytest.raises(KeyError, match="available"):
            build("no-such-scenario")


class TestOverridesAndSeeds:
    def test_apply_overrides_reaches_nested_fields(self):
        spec = build("quickstart", duration=50.0)
        out = apply_overrides(spec, {
            "workloads.0.schedule.params.rate": 42.0,
            "controller.reclamation": "termination",
            "seed": 99,
        })
        assert out.workloads[0].schedule.params["rate"] == 42.0
        assert out.controller.reclamation == "termination"
        assert out.seed == 99
        # the original is untouched (specs are frozen values)
        assert spec.workloads[0].schedule.params["rate"] == 20.0

    def test_apply_overrides_rejects_unknown_paths(self):
        spec = build("quickstart", duration=50.0)
        with pytest.raises(KeyError, match="does not resolve"):
            apply_overrides(spec, {"sedd": 99})  # typo'd top-level key
        with pytest.raises(KeyError, match="does not resolve"):
            apply_overrides(spec, {"controler.reclamation": "termination"})
        with pytest.raises(KeyError, match="does not resolve"):
            apply_overrides(spec, {"workloads.5.slo_deadline": 0.2})

    def test_derive_shard_seed_is_stable_and_override_sensitive(self):
        a = derive_shard_seed(1, {"x": 1})
        assert a == derive_shard_seed(1, {"x": 1})
        assert a != derive_shard_seed(1, {"x": 2})
        assert a != derive_shard_seed(2, {"x": 1})

    def test_axes_expand_as_cartesian_product_in_order(self):
        base = build("quickstart", duration=30.0)
        sweep = SweepSpec(
            name="grid",
            base=base,
            axes=(
                SweepAxis("workloads.0.schedule.params.rate", (5.0, 10.0)),
                SweepAxis("controller.reclamation", ("termination", "deflation")),
            ),
        )
        shards = sweep.expand()
        combos = [(s.workloads[0].schedule.params["rate"], s.controller.reclamation)
                  for s in shards]
        assert combos == [(5.0, "termination"), (5.0, "deflation"),
                          (10.0, "termination"), (10.0, "deflation")]
        # derived seeds are unique per shard but reproducible across expansions
        seeds = [s.seed for s in shards]
        assert len(set(seeds)) == len(seeds)
        assert [s.seed for s in sweep.expand()] == seeds


class TestExecution:
    def test_fixed_scenario_with_explicit_containers(self):
        spec = ScenarioSpec(
            name="unit-fixed",
            kind="fixed",
            workloads=(
                WorkloadSpec("squeezenet", ScheduleSpec.static(10.0, duration=20.0),
                             slo_deadline=0.1),
            ),
            allocation=AllocationSpec(containers=3),
            duration=20.0,
            seed=5,
            metrics=("waiting", "counters"),
        )
        data = run_scenario(spec).data
        assert data["allocation"]["containers"] == 3
        assert data["metrics"]["functions"]["squeezenet"]["waiting"]["count"] > 0

    def test_fixed_scenario_honours_an_explicit_cluster(self):
        from repro.scenarios import ClusterSpec

        spec = ScenarioSpec(
            name="unit-fixed-cluster",
            kind="fixed",
            workloads=(
                WorkloadSpec("geofence", ScheduleSpec.static(5.0, duration=10.0),
                             slo_deadline=0.1),
            ),
            allocation=AllocationSpec(containers=1),
            cluster=ClusterSpec(node_count=2, cpu_per_node=1.0),
            duration=10.0,
            metrics=("counters",),
        )
        outcome = run_scenario(spec)
        assert len(outcome.sim.cluster.nodes) == 2
        assert outcome.sim.cluster.config.cpu_per_node == 1.0

    def test_results_envelope_echoes_the_spec(self):
        spec = build("quickstart", duration=20.0)
        data = run_scenario(spec).data
        assert data["schema"] == "repro/scenario-result@1"
        assert ScenarioSpec.from_dict(data["scenario"]) == spec

    def test_results_json_is_reproducible(self):
        spec = build("quickstart", duration=20.0)
        first = canonical_json(run_scenario(spec).data)
        second = canonical_json(run_scenario(spec).data)
        assert first == second


class TestSweepDeterminism:
    @pytest.fixture(scope="class")
    def sweep(self):
        return build("fig3", mus=(10.0,), slo_deadlines=(0.1,),
                     arrival_rates=(10.0, 20.0, 30.0, 40.0), duration=30.0, seed=3)

    def test_parallel_equals_serial_bytes(self, sweep):
        serial = ResilientSweepRunner(sweep, workers=1, on_failure="raise").run_json()
        parallel = ResilientSweepRunner(sweep, workers=4, on_failure="raise").run_json()
        assert serial == parallel

    def test_results_arrive_in_expansion_order(self, sweep):
        results = ResilientSweepRunner(sweep, workers=4, on_failure="raise").run()["results"]
        rates = [r["scenario"]["workloads"][0]["schedule"]["params"]["rate"]
                 for r in results]
        assert rates == [10.0, 20.0, 30.0, 40.0]


class TestRemovedSizingSwitches:
    """The controller group once carried three sizing switches; old echoes still load."""

    #: the three keys every echo carried before they went, at their only defaults
    REMOVED = {"use_fast_sizing": True, "sizing_cache": True, "sizing_warm_start": True}

    def test_an_echo_with_the_removed_keys_loads_and_runs(self):
        spec = build("quickstart", duration=30.0)
        echo = spec.to_dict()
        echo["controller"] = {**echo["controller"], **self.REMOVED}
        old = ScenarioSpec.from_dict(json.loads(json.dumps(echo)))
        assert old == spec
        result = run_scenario(old).data
        assert result["scenario"] == spec.to_dict()
        assert not self.REMOVED.keys() & result["scenario"]["controller"].keys()

    def test_overriding_a_removed_key_is_a_typo(self):
        spec = build("quickstart", duration=30.0)
        for key in self.REMOVED:
            with pytest.raises(KeyError, match="does not resolve"):
                apply_overrides(spec, {f"controller.{key}": False})
