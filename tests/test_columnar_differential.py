"""Differential oracle: the columnar data plane vs the event-level plane.

The columnar kernel (:mod:`repro.sim.columnar`) is an opt-in rewrite of
the hottest loop in the simulator.  Its correctness contract is not "close
enough" — it is **byte-for-byte equality** with the event-level path:
identical per-request lifecycle records (ids, timestamps, container
placement, cold-start flags) and identical results envelopes
(:func:`canonical_json` of the full scenario output), across every
registered scenario, fault arm, and control-plane policy.

The event-level plane is the oracle.  Every test here runs the same spec through both planes — with
the request-id counter reset in between so both planes see the same id
stream — and diffs the results.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.policy import policy_names
from repro.metrics.table import COMPLETED, RequestTable
from repro.scenarios.executor import ResilientSweepRunner
from repro.scenarios.registry import SHOOTOUT_POLICIES, build
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec, canonical_json
from repro.scenarios.sweep import apply_overrides

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from envelope_digests import (  # noqa: E402
    FEDERATED_CASES,
    REGISTRY_CASES,
    reset_request_ids,
    shards_of,
)

#: Simulation-backed hypothesis examples are expensive; keep the count
#: modest and derandomized so CI time is predictable.
SIM_PROPERTY_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _columnar(spec: ScenarioSpec) -> ScenarioSpec:
    """The same scenario with the columnar data plane selected."""
    return apply_overrides(spec, {"data_plane": "columnar"})


def _record_rows(outcome):
    """The per-request lifecycle table, sorted by request id."""
    rows = [
        (
            r.request_id, r.function_name, r.arrival_time, r.work,
            r.status.value, r.start_time, r.completion_time, r.container_id,
            r.node_name, r.cold_start,
        )
        for r in outcome.sim.metrics.requests
    ]
    rows.sort()
    return rows


def assert_table_is_the_request_record(outcome) -> None:
    """The table the envelope was reduced from equals the request objects, row for row.

    On the columnar plane that is the kernel's export against the list
    its deferred fill builds; on the event plane (and a federation
    merge) the table sealed when the run handed back its result against
    the objects as they are now.
    """
    collector = outcome.sim.metrics
    table = collector._table
    assert table is not None, "the run handed back no request table"
    fresh = RequestTable.from_requests(collector.requests)
    assert len(table) == len(fresh) == len(collector.requests)
    # codes number the functions differently (generator order against
    # first appearance), so compare what they name
    assert ([table.names[code] for code in table.codes.tolist()]
            == [fresh.names[code] for code in fresh.codes.tolist()])
    assert np.array_equal(table.status, fresh.status)
    for column in ("arrival", "start", "completion"):
        assert np.array_equal(getattr(table, column), getattr(fresh, column),
                              equal_nan=True), column
    assert table.status.dtype == np.uint8 and table.codes.dtype.itemsize <= 2
    # the completion counter and the record agree (drops are not compared:
    # a fault's drops are counted by the fault injector, not the collector)
    assert collector.counters["completions"] == int(np.count_nonzero(table.status == COMPLETED))


def assert_planes_identical(spec: ScenarioSpec) -> None:
    """Run ``spec`` through both planes and require byte-identical output."""
    reset_request_ids()
    event = run_scenario(spec)
    reset_request_ids()
    columnar = run_scenario(_columnar(spec))
    for outcome in (event, columnar):
        if outcome.sim is not None:
            assert_table_is_the_request_record(outcome)

    event_data = dict(event.data)
    columnar_data = dict(columnar.data)
    # the spec echo legitimately differs by exactly the data_plane field
    assert columnar_data["scenario"].pop("data_plane", "event") == "columnar"
    assert "data_plane" not in event_data["scenario"]
    assert canonical_json(columnar_data) == canonical_json(event_data), (
        f"envelope mismatch for scenario {spec.name!r}"
    )
    if event.sim is not None:
        assert columnar.sim is not None
        assert _record_rows(event) == _record_rows(columnar), (
            f"per-request lifecycle mismatch for scenario {spec.name!r}"
        )


# ----------------------------------------------------------------------
# Every registered scenario, scaled down but structurally intact
# ----------------------------------------------------------------------
# REGISTRY_CASES / FEDERATED_CASES — the CI-size build
# of every registered scenario — live in tools/envelope_digests.py, which
# hashes the same runs for cross-commit comparison.


def test_every_registered_scenario_has_a_differential_case():
    """The gauntlet goes stale the moment someone registers a scenario."""
    from repro.scenarios import registry

    assert set(REGISTRY_CASES) | set(FEDERATED_CASES) == set(registry.names())
    assert not set(REGISTRY_CASES) & set(FEDERATED_CASES)


@pytest.mark.parametrize("name", sorted(FEDERATED_CASES))
def test_federated_scenarios_reject_the_columnar_plane(name):
    """Every federated shard refuses the columnar plane at spec level."""
    built = build(name, **FEDERATED_CASES[name])
    shards = shards_of(built)
    assert shards, name
    for spec in shards:
        assert spec.federation is not None
        with pytest.raises(ValueError, match="data_plane='event'"):
            apply_overrides(spec, {"data_plane": "columnar"})


@pytest.mark.parametrize("name", sorted(REGISTRY_CASES))
def test_columnar_matches_event_plane(name):
    """Columnar ≡ event-level on every shard of every registered scenario."""
    built = build(name, **REGISTRY_CASES[name])
    shards = shards_of(built)
    assert shards, name
    for spec in shards:
        assert_planes_identical(spec)


@pytest.mark.parametrize("name", sorted(FEDERATED_CASES))
def test_federated_merge_seals_the_table_of_its_merged_requests(name):
    """A federation's envelope is reduced from one table over the site-ordered merge."""
    for spec in shards_of(build(name, **FEDERATED_CASES[name])):
        reset_request_ids()
        assert_table_is_the_request_record(run_scenario(spec))


def test_policy_shootout_covers_all_policies_and_fault_arms():
    """The shootout case really is the policies × faults cross product."""
    shards = shards_of(build("policy-shootout", duration=40.0))
    arms = {(s.controller.policy, s.faults is not None) for s in shards}
    for policy in SHOOTOUT_POLICIES:
        assert (policy, False) in arms
        assert (policy, True) in arms


def test_noop_policy_matches():
    """The sixth policy (noop) is not in the shootout; cover it directly."""
    spec = apply_overrides(
        build("quickstart", duration=30.0), {"controller.policy": "noop"}
    )
    assert_planes_identical(spec)


# ----------------------------------------------------------------------
# workers=1 ≡ workers=N with the columnar plane enabled
# ----------------------------------------------------------------------
def test_columnar_sweep_workers_byte_identical():
    """A columnar sweep shards exactly like an event-level one.

    ``workers=1`` and ``workers=4`` must produce byte-identical sweep
    JSON, and each shard's envelope must equal its event-plane twin
    modulo the ``data_plane`` spec echo.
    """
    sweep = build("fig3", mus=(10.0,), slo_deadlines=(0.1,),
                  arrival_rates=(10.0, 20.0, 30.0), duration=30.0)
    columnar_sweep = dataclasses.replace(
        sweep, base=apply_overrides(sweep.base, {"data_plane": "columnar"})
    )
    serial = ResilientSweepRunner(columnar_sweep, workers=1, on_failure="raise").run_json()
    parallel = ResilientSweepRunner(columnar_sweep, workers=4, on_failure="raise").run_json()
    assert serial == parallel

    event_results = json.loads(ResilientSweepRunner(sweep, workers=1, on_failure="raise").run_json())["results"]
    columnar_results = json.loads(serial)["results"]
    assert len(event_results) == len(columnar_results) == 3
    for event_shard, columnar_shard in zip(event_results, columnar_results):
        assert columnar_shard["scenario"].pop("data_plane") == "columnar"
        assert columnar_shard == event_shard


# ----------------------------------------------------------------------
# Hypothesis: random small workloads, byte-for-byte
# ----------------------------------------------------------------------
@given(
    rate=st.floats(min_value=2.0, max_value=40.0),
    duration=st.floats(min_value=12.0, max_value=35.0),
    seed=st.integers(min_value=0, max_value=2**16),
    policy=st.sampled_from(("lass", "hybrid", "reactive", "static")),
)
@SIM_PROPERTY_SETTINGS
def test_random_workloads_byte_for_byte(rate, duration, seed, policy):
    """Columnar ≡ event-level on randomly drawn small workloads."""
    overrides = {"controller.policy": policy}
    if policy == "static":
        overrides["controller.policy_params"] = {"allocations": {"squeezenet": 4}}
    spec = apply_overrides(
        build("quickstart", rate=rate, duration=duration, seed=seed), overrides
    )
    assert_planes_identical(spec)


#: Every registered policy that runs the shared-queue data path (all but
#: OpenWhisk; ``test_policies.py`` holds the registry to that).
SHARED_QUEUE_POLICIES = tuple(name for name in policy_names() if name != "openwhisk")


@given(
    crash_probability=st.floats(min_value=0.0, max_value=0.2),
    rate=st.floats(min_value=4.0, max_value=25.0),
    seed=st.integers(min_value=0, max_value=2**16),
    policy=st.sampled_from(SHARED_QUEUE_POLICIES),
)
# every policy at least once: crash hooks, requeues and the interceptor are
# the base's, but each policy's recovery pass reacts to them differently
@example(crash_probability=0.1, rate=20.0, seed=23, policy="lass")
@example(crash_probability=0.1, rate=20.0, seed=23, policy="hybrid")
@example(crash_probability=0.1, rate=20.0, seed=23, policy="reactive")
@example(crash_probability=0.1, rate=20.0, seed=23, policy="static")
@example(crash_probability=0.1, rate=20.0, seed=23, policy="noop")
# a crash on the first dispatch: hybrid's recovery pass sized its model floor
# at a 1e9/s start-up estimate, and the solver's refusal ended the run
@example(crash_probability=0.125, rate=4.0, seed=1, policy="hybrid")
@SIM_PROPERTY_SETTINGS
def test_random_faulted_workloads_byte_for_byte(crash_probability, rate, seed, policy):
    """Crash-on-dispatch consumes fault RNG identically in both planes, under every policy."""
    overrides = {"controller.policy": policy}
    if policy == "static":
        overrides["controller.policy_params"] = {"allocations": {"squeezenet": 4}}
    spec = apply_overrides(
        build("flaky-containers", crash_probability=crash_probability,
              rate=rate, duration=45.0, seed=seed), overrides
    )
    assert_planes_identical(spec)


# ----------------------------------------------------------------------
# Results path: analysis reads the table, objects are built on request
# ----------------------------------------------------------------------
def _quickstart_runner(plane: str):
    """A small LaSS run (two functions, queueing and cold starts) on ``plane``."""
    from repro.simulation import SimulationRunner
    from repro.workloads import StaticRate, WorkloadBinding, get_function

    reset_request_ids()
    bindings = [
        WorkloadBinding(get_function(name), StaticRate(rate, duration=20.0), slo_deadline=0.1)
        for name, rate in (("squeezenet", 30.0), ("mobilenet", 12.0))
    ]
    return SimulationRunner(workloads=bindings, seed=5, data_plane=plane)


def test_columnar_analysis_builds_no_request_object():
    """summary / slo / waiting_summary / throughput leave the deferred fill unrun."""
    deadlines = {"squeezenet": 0.1, "mobilenet": 0.1}
    event = _quickstart_runner("event").run(duration=20.0)
    columnar = _quickstart_runner("columnar").run(duration=20.0)
    assert columnar.kernel_stats is not None
    collector = columnar.metrics

    assert collector.summary(deadlines) == event.metrics.summary(deadlines)
    assert columnar.slo(deadlines, warmup=5.0) == event.slo(deadlines, warmup=5.0)
    for name in (None, "squeezenet", "mobilenet", "absent"):
        assert columnar.waiting_summary(name, warmup=5.0) == event.waiting_summary(name, warmup=5.0)
        assert collector.throughput(name) == len(event.metrics.completed_requests(name))
    assert collector._deferred_fill is not None and collector._requests == []

    # asking for objects still returns the list the event plane recorded
    requests = collector.requests
    assert collector._deferred_fill is None and collector.requests is requests
    assert requests == event.metrics.requests and len(requests) > 400
    assert collector.completed_requests() == event.metrics.completed_requests()
    assert collector.dropped_requests() == event.metrics.dropped_requests()


# ----------------------------------------------------------------------
# Which plane ran, and why (``data_plane_used`` / ``fallback_reason``)
# ----------------------------------------------------------------------
def test_a_run_reports_the_plane_it_asked_for_when_that_is_the_plane_that_ran():
    event = _quickstart_runner("event").run(duration=20.0)
    columnar = _quickstart_runner("columnar").run(duration=20.0)
    assert (event.data_plane_used, event.fallback_reason) == ("event", None)
    assert (columnar.data_plane_used, columnar.fallback_reason) == ("columnar", None)


def _no_plan_method(runner):
    runner.policy.columnar_plan = None            # an ad-hoc policy written before the kernel


def _no_plan(runner):
    runner.policy.columnar_plan = lambda: None    # what the OpenWhisk policy inherits


def _detached_dispatcher(runner):
    runner.policy.dispatcher._attached = False


def _foreign_interceptor(runner):
    runner.policy.dispatcher.interceptor = lambda request, container: True


@pytest.mark.parametrize("sabotage, reason", [
    (_no_plan_method, "policy 'lass' has no columnar_plan method"),
    (_no_plan, "policy 'lass' publishes no columnar plan"),
    (_detached_dispatcher, "the plan's dispatcher is not attached to a cluster"),
    (_foreign_interceptor, "an unknown dispatch interceptor is installed"),
])
def test_each_fallback_names_its_reason_and_runs_the_event_plane(sabotage, reason):
    runner = _quickstart_runner("columnar")
    sabotage(runner)
    result = runner.run(duration=20.0)
    assert result.data_plane_used == "event" and result.kernel_stats is None
    assert result.fallback_reason == reason
    # and the fallback is the event plane, untouched: no RNG drawn, no generator started early
    deadlines = {"squeezenet": 0.1, "mobilenet": 0.1}
    event = _quickstart_runner("event").run(duration=20.0)
    assert result.metrics.summary(deadlines) == event.metrics.summary(deadlines)
    assert result.generated_requests == event.generated_requests


def test_the_openwhisk_policy_falls_back_by_name():
    from repro.simulation import SimulationRunner
    from repro.workloads import StaticRate, WorkloadBinding, get_function

    binding = WorkloadBinding(get_function("squeezenet"), StaticRate(10.0, duration=5.0),
                              slo_deadline=0.1)
    result = SimulationRunner(workloads=[binding], seed=5, policy="openwhisk",
                              data_plane="columnar").run(duration=5.0)
    assert result.data_plane_used == "event"
    assert result.fallback_reason == "policy 'openwhisk' publishes no columnar plan"


def test_event_plane_query_inside_the_run_sees_current_state():
    """A collector queried from an engine callback extracts afresh; a finished run does not."""
    from repro.metrics.slo import slo_report

    runner = _quickstart_runner("event")
    collector = runner.metrics
    deadlines = {"squeezenet": 0.1, "mobilenet": 0.1}
    seen = []

    def probe():
        assert collector._table is None
        objects = list(collector.requests)
        reports = collector.slo(deadlines)
        # the reduction over a fresh extraction, not over an earlier one
        assert reports == slo_report(objects, deadlines)
        assert collector.throughput() == len(collector.completed_requests())
        seen.append((sum(r.total_requests for r in reports.values()),
                     collector.waiting_summary().count))

    for at in (4.0, 9.0, 15.0):
        runner.engine.call_at(at, probe)
    result = runner.run(duration=20.0)
    assert len(seen) == 3
    assert seen[0][0] < seen[1][0] < seen[2][0] < len(collector.requests)
    assert seen[0][1] < seen[1][1] < seen[2][1] < result.waiting_summary().count
    # once the run has handed back its result, every query shares one table
    assert collector._table is not None
    assert collector.request_table() is collector.request_table()


@pytest.mark.parametrize("plane", ("event", "columnar"))
def test_every_run_keeps_its_record_and_reduces_it(plane):
    """Both planes store every request; summaries with a warmup equal the object loop."""
    from test_metrics import _oracle_summarize_waiting_times

    result = _quickstart_runner(plane).run(duration=20.0)
    collector = result.metrics
    table = collector.request_table()
    assert len(table) == collector.counters["arrivals"] > 400
    summaries = {(name, warmup): result.waiting_summary(name, warmup=warmup)
                 for name in (None, "squeezenet", "mobilenet", "absent")
                 for warmup in (0.0, 5.0, 1e9)}
    requests = collector.requests             # built only now on the columnar plane
    for (name, warmup), summary in summaries.items():
        assert summary == _oracle_summarize_waiting_times(requests, name, warmup)
    assert summaries[None, 0.0].count == collector.counters["completions"]
    assert 0 < summaries[None, 5.0].count < summaries[None, 0.0].count
