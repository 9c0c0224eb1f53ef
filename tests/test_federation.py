"""Federation layer: specs, routers, failover semantics, determinism.

Four clusters of coverage:

* spec-level: :class:`~repro.federation.spec.FederationSpec` /
  :class:`~repro.faults.spec.SiteBlackoutSpec` /
  :class:`~repro.faults.spec.WanPartitionSpec` validation and exact
  JSON round-trips, plus the ``ScenarioSpec.federation`` gate;
* registry-level: the three built-in global routers and their
  parameter validation;
* behaviour: blackout failover, WAN-partition edge autonomy,
  requeue-at-head on rejoin, and the site-scoped availability records
  (a site rejoining with fewer nodes still closes its record);
* determinism: every (router, failure-mode) arm of the ``fig12``
  sweep is byte-identical run-to-run, and the federated sweep is
  byte-identical across worker counts — plus hypothesis properties
  (no request ever runs on a blacked-out site; the redirect chain
  never exceeds ``max_redirects``).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.spec import FaultSpec, SiteBlackoutSpec, WanPartitionSpec
from repro.federation.router import (
    describe_routers,
    get_router,
    router_names,
    validate_router,
)
from repro.federation.spec import FederationSpec
from repro.metrics.availability import AvailabilityTracker, RecoveryRecord
from repro.scenarios.executor import ResilientSweepRunner
from repro.scenarios.registry import FIG12_ROUTERS, build
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec, canonical_json
from repro.sim.request import RequestStatus

#: Simulation-backed hypothesis examples are expensive; keep the count
#: modest and derandomized so CI time is predictable.
SIM_PROPERTY_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _federation_dict(**overrides):
    """A small three-site federation as a plain dict."""
    data = {
        "sites": [
            {"name": "edge-a", "node_count": 3, "cpu_per_node": 4.0,
             "memory_per_node_mb": 16384.0, "cold_start_latency": 0.5,
             "policy": "lass"},
            {"name": "edge-b", "node_count": 2, "cpu_per_node": 4.0,
             "memory_per_node_mb": 16384.0, "cold_start_latency": 0.5,
             "policy": "lass"},
            {"name": "cloud", "node_count": 4, "cpu_per_node": 8.0,
             "memory_per_node_mb": 32768.0, "cold_start_latency": 1.5,
             "policy": "lass", "cloud": True},
        ],
        "router": "latency-aware",
        "wan_latency": 0.05,
        "wan_overrides": {"edge-a->edge-b": 0.02},
        "origins": {"geofence": "edge-a"},
        "probe_interval": 5.0,
        "probe_backoff_base": 1.0,
        "probe_backoff_cap": 8.0,
        "max_redirects": 3,
    }
    data.update(overrides)
    return data


def _scenario_dict(duration=60.0, seed=7, faults=None, **federation_overrides):
    """A federated scenario as a plain dict (geofence traffic at edge-a)."""
    data = {
        "name": "fed-test",
        "kind": "simulate",
        "duration": duration,
        "seed": seed,
        "workloads": [
            {"function": "geofence",
             "schedule": {"kind": "static", "params": {"rate": 20.0, "duration": None}},
             "slo_deadline": 0.1},
        ],
        "controller": {"policy": "lass"},
        "warm_start": {"geofence": 1},
        "metrics": ["waiting", "slo", "utilization", "counters", "generated"],
        "federation": _federation_dict(**federation_overrides),
    }
    if faults is not None:
        data["faults"] = faults
    return data


# ----------------------------------------------------------------------
# Fault-spec families
# ----------------------------------------------------------------------
class TestSiteFaultSpecs:
    def test_blackout_round_trip(self):
        spec = FaultSpec(site_blackouts=(
            SiteBlackoutSpec("edge-a", fail_at=10.0, recover_at=20.0,
                             rejoin_nodes=2),
        ))
        clone = FaultSpec.from_dict(spec.to_dict())
        assert canonical_json(clone.to_dict()) == canonical_json(spec.to_dict())
        assert clone.site_blackouts[0].rejoin_nodes == 2

    def test_partition_round_trip(self):
        spec = FaultSpec(wan_partitions=(
            WanPartitionSpec("edge-b", start_at=5.0, heal_at=15.0),
        ))
        clone = FaultSpec.from_dict(spec.to_dict())
        assert canonical_json(clone.to_dict()) == canonical_json(spec.to_dict())

    def test_site_fault_keys_omitted_when_empty(self):
        # pre-federation fault envelopes must keep their exact bytes
        data = FaultSpec(crash_probability=0.1).to_dict()
        assert "site_blackouts" not in data
        assert "wan_partitions" not in data

    def test_rejoin_nodes_requires_recover_at(self):
        with pytest.raises(ValueError, match="rejoin_nodes"):
            SiteBlackoutSpec("edge-a", fail_at=10.0, rejoin_nodes=2)

    def test_rejoin_nodes_must_be_positive(self):
        with pytest.raises(ValueError, match="rejoin_nodes"):
            SiteBlackoutSpec("edge-a", fail_at=10.0, recover_at=20.0,
                             rejoin_nodes=0)

    def test_overlapping_blackouts_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            FaultSpec(site_blackouts=(
                SiteBlackoutSpec("edge-a", fail_at=10.0, recover_at=30.0),
                SiteBlackoutSpec("edge-a", fail_at=20.0, recover_at=40.0),
            ))

    def test_overlapping_partitions_on_distinct_sites_ok(self):
        spec = FaultSpec(wan_partitions=(
            WanPartitionSpec("edge-a", start_at=10.0, heal_at=30.0),
            WanPartitionSpec("edge-b", start_at=20.0, heal_at=40.0),
        ))
        assert spec.has_site_faults() and not spec.has_node_faults()


# ----------------------------------------------------------------------
# Federation spec
# ----------------------------------------------------------------------
class TestFederationSpec:
    def test_round_trip_is_exact(self):
        spec = FederationSpec.from_dict(_federation_dict())
        clone = FederationSpec.from_dict(spec.to_dict())
        assert canonical_json(clone.to_dict()) == canonical_json(spec.to_dict())

    def test_latency_matrix_is_symmetric_with_overrides(self):
        spec = FederationSpec.from_dict(_federation_dict())
        assert spec.latency("edge-a", "edge-a") == 0.0
        assert spec.latency("edge-a", "edge-b") == 0.02
        assert spec.latency("edge-b", "edge-a") == 0.02  # symmetric fallback
        assert spec.latency("edge-b", "cloud") == 0.05   # default

    def test_duplicate_site_names_rejected(self):
        sites = [{"name": "edge-a"}, {"name": "edge-a"}]
        with pytest.raises(ValueError, match="duplicate"):
            FederationSpec.from_dict(_federation_dict(sites=sites))

    def test_unknown_router_rejected(self):
        with pytest.raises(ValueError, match="unknown router"):
            FederationSpec.from_dict(_federation_dict(router="teleport"))

    def test_wan_override_key_must_name_known_sites(self):
        with pytest.raises(ValueError, match="unknown site"):
            FederationSpec.from_dict(
                _federation_dict(wan_overrides={"edge-a->mars": 0.1}))

    def test_spillover_requires_a_cloud_site(self):
        sites = [{"name": "edge-a"}, {"name": "edge-b"}]
        with pytest.raises(ValueError, match="cloud"):
            FederationSpec.from_dict(
                _federation_dict(sites=sites, router="spillover-to-cloud"))

    def test_spillover_accepts_explicit_cloud_site_param(self):
        sites = [{"name": "edge-a"}, {"name": "edge-b"}]
        spec = FederationSpec.from_dict(_federation_dict(
            sites=sites, router="spillover-to-cloud",
            router_params={"cloud_site": "edge-b"}))
        assert spec.cloud_site() == "edge-b"

    def test_origin_defaults_to_first_site(self):
        spec = FederationSpec.from_dict(_federation_dict(origins={}))
        assert spec.origin_of("anything") == "edge-a"

    def test_integer_numbers_load_as_the_floats_they_were(self):
        data = _federation_dict(wan_latency=0, probe_interval=5, wan_overrides={"edge-a->edge-b": 1})
        data["sites"][0].update(cpu_per_node=4, memory_per_node_mb=16384, cold_start_latency=0)
        spec = FederationSpec.from_dict(data)
        assert canonical_json(spec.to_dict()) == canonical_json(
            FederationSpec.from_dict(spec.to_dict()).to_dict())
        assert type(spec.sites[0].cpu_per_node) is float and spec.sites[0].cpu_per_node == 4.0
        assert type(spec.wan_latency) is float and spec.wan_overrides["edge-a->edge-b"] == 1.0


#: (path into _federation_dict, value, what the refusal names): values the
#: specs used to coerce — 2.5 nodes to 2, "false" to a cloud site, ...
UNCOERCED_CASES = [
    ("sites.1.node_count", 2.5, "'edge-b': node_count"),
    ("sites.1.node_count", True, "'edge-b': node_count"),
    ("sites.1.node_count", "2", "'edge-b': node_count"),
    ("sites.1.cpu_per_node", "8", "'edge-b': cpu_per_node"),
    ("sites.1.cpu_per_node", True, "'edge-b': cpu_per_node"),
    ("sites.1.cpu_per_node", float("nan"), "'edge-b': cpu_per_node"),
    ("sites.1.memory_per_node_mb", "16384", "'edge-b': memory_per_node_mb"),
    ("sites.1.cold_start_latency", None, "'edge-b': cold_start_latency"),
    ("sites.1.cloud", "false", "'edge-b': cloud"),
    ("sites.1.cloud", 0, "'edge-b': cloud"),
    ("max_redirects", 2.5, "max_redirects"),
    ("max_redirects", True, "max_redirects"),
    ("max_redirects", "3", "max_redirects"),
    ("wan_latency", "0.05", "wan_latency"),
    ("probe_interval", False, "probe_interval"),
    ("probe_backoff_cap", float("inf"), "probe_backoff_cap"),
    ("wan_overrides.edge-a->edge-b", "0.02", "wan_overrides"),
]


def _set_path(data, path, value):
    """``data`` with the field at dotted ``path`` (ints index lists) set to ``value``."""
    *parents, last = path.split(".")
    node = data
    for key in parents:
        node = node[int(key)] if key.isdigit() else node[key]
    node[last] = value
    return data


@pytest.mark.parametrize("path, value, named", UNCOERCED_CASES,
                         ids=[f"{path}={value!r}" for path, value, _ in UNCOERCED_CASES])
def test_a_federation_spec_refuses_what_it_used_to_coerce(path, value, named):
    with pytest.raises(ValueError, match=named):
        FederationSpec.from_dict(_set_path(_federation_dict(), path, value))


def test_the_cli_refuses_a_string_cloud_flag(tmp_path, capsys):
    import json

    from repro.cli import main

    data = _scenario_dict()
    data["federation"]["sites"][1]["cloud"] = "false"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["scenario", str(spec_path)]) == 2
    assert "'edge-b': cloud" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Router registry
# ----------------------------------------------------------------------
class TestRouterRegistry:
    def test_builtins_registered(self):
        assert set(FIG12_ROUTERS) <= set(router_names())
        assert set(describe_routers()) == set(router_names())

    def test_unknown_router_raises_with_available(self):
        with pytest.raises(KeyError, match="nearest-site"):
            get_router("teleport")

    def test_spillover_rejects_unknown_params(self):
        with pytest.raises(ValueError, match="unknown"):
            validate_router("spillover-to-cloud", {"warp_factor": 9})

    def test_nearest_site_rejects_any_params(self):
        with pytest.raises(ValueError, match="unknown"):
            validate_router("nearest-site", {"anything": 1})


# ----------------------------------------------------------------------
# ScenarioSpec.federation gate
# ----------------------------------------------------------------------
class TestScenarioFederationValidation:
    def test_round_trip_and_key_omitted_when_absent(self):
        spec = ScenarioSpec.from_dict(_scenario_dict())
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert canonical_json(clone.to_dict()) == canonical_json(spec.to_dict())
        plain = _scenario_dict()
        del plain["federation"]
        assert "federation" not in ScenarioSpec.from_dict(plain).to_dict()

    def test_site_faults_without_federation_rejected(self):
        data = _scenario_dict(
            faults={"site_blackouts": [{"site": "edge-a", "fail_at": 10.0,
                                        "recover_at": None, "rejoin_nodes": None}]})
        del data["federation"]
        with pytest.raises(ValueError, match="federation"):
            ScenarioSpec.from_dict(data)

    def test_node_faults_with_federation_rejected(self):
        data = _scenario_dict(
            faults={"node_failures": [{"node": "node-0", "fail_at": 10.0,
                                       "recover_at": 20.0}]})
        with pytest.raises(ValueError, match="site-level"):
            ScenarioSpec.from_dict(data)

    def test_blackout_site_must_exist(self):
        data = _scenario_dict(
            faults={"site_blackouts": [{"site": "mars", "fail_at": 10.0,
                                        "recover_at": None, "rejoin_nodes": None}]})
        with pytest.raises(ValueError, match="mars"):
            ScenarioSpec.from_dict(data)

    def test_rejoin_nodes_cannot_exceed_site_nodes(self):
        data = _scenario_dict(
            faults={"site_blackouts": [{"site": "edge-b", "fail_at": 10.0,
                                        "recover_at": 20.0, "rejoin_nodes": 5}]})
        with pytest.raises(ValueError, match="rejoin_nodes"):
            ScenarioSpec.from_dict(data)

    def test_origins_must_name_workload_functions(self):
        data = _scenario_dict(origins={"mobilenet": "edge-a"})
        with pytest.raises(ValueError, match="mobilenet"):
            ScenarioSpec.from_dict(data)

    def test_timeline_metric_rejected(self):
        data = _scenario_dict()
        data["metrics"] = ["waiting", "timeline"]
        with pytest.raises(ValueError, match="timeline"):
            ScenarioSpec.from_dict(data)


# ----------------------------------------------------------------------
# Site-scoped availability records (a rejoined site may be smaller)
# ----------------------------------------------------------------------
class TestSiteScopedAvailability:
    def test_full_rejoin_closes_when_warm_targets_met(self):
        tracker = AvailabilityTracker()
        tracker.open_site_record("edge-a", 10.0, containers_lost=3,
                                 warm_targets={"geofence": 2})
        tracker.site_rejoined("edge-a", 30.0, capacity_ratio=1.0)
        assert not tracker.check_site_recovery("edge-a", 31.0,
                                               lambda fn: {"geofence": 1}[fn])
        assert tracker.check_site_recovery("edge-a", 33.5,
                                           lambda fn: {"geofence": 2}[fn])
        (record,) = tracker.records
        assert record.scope == "site"
        assert record.recovery_time == pytest.approx(23.5)

    def test_smaller_rejoin_clamps_warm_targets(self):
        # the satellite fix: rejoining with fewer nodes clamps the warm
        # targets proportionally, so the record can still close
        tracker = AvailabilityTracker()
        tracker.open_site_record("edge-a", 10.0, containers_lost=6,
                                 warm_targets={"geofence": 4})
        tracker.site_rejoined("edge-a", 30.0, capacity_ratio=0.5)
        assert tracker.check_site_recovery("edge-a", 32.0,
                                           lambda fn: {"geofence": 2}[fn])
        (record,) = tracker.records
        assert record.recovery_time == pytest.approx(22.0)

    def test_zero_capacity_rejoin_leaves_record_open(self):
        tracker = AvailabilityTracker()
        tracker.open_site_record("edge-a", 10.0, containers_lost=3,
                                 warm_targets={"geofence": 2})
        tracker.site_rejoined("edge-a", 30.0, capacity_ratio=0.0)
        assert not tracker.check_site_recovery("edge-a", 99.0,
                                               lambda fn: 99)
        (record,) = tracker.records
        assert record.recovery_time is None

    def test_scope_serialized_only_for_site_records(self):
        tracker = AvailabilityTracker()
        tracker.open_site_record("edge-a", 10.0, containers_lost=0,
                                 warm_targets={})
        (site_record,) = tracker.records
        assert site_record.as_dict()["scope"] == "site"
        node_tracker = AvailabilityTracker()
        node_tracker.open_record(RecoveryRecord(
            node="node-0", fail_at=5.0, recover_at=None,
            containers_lost=1, warm_targets={"geofence": 1}))
        (node_record,) = node_tracker.records
        assert "scope" not in node_record.as_dict()


# ----------------------------------------------------------------------
# Behaviour: failover, edge autonomy, requeue-at-head
# ----------------------------------------------------------------------
class TestFederatedBehaviour:
    def test_blackout_fails_over_and_recovers(self):
        data = _scenario_dict(duration=90.0, faults={"site_blackouts": [
            {"site": "edge-a", "fail_at": 32.0, "recover_at": 63.0,
             "rejoin_nodes": 2}]})
        outcome = run_scenario(ScenarioSpec.from_dict(data))
        faults = outcome.data["faults"]
        assert faults["site_blackouts"] == 1
        assert faults["site_recoveries"] == 1
        assert faults["unrecovered_parked"] == 0
        assert 0.0 < faults["capacity_availability"] < 1.0
        recovery = faults["sites"]["edge-a"]["mean_recovery_time"]
        assert recovery is not None and recovery > 0.0
        router = outcome.data["federation"]["router"]
        # traffic really moved: some work ran away from the origin site
        assert sum(count for site, count in router["dispatched"].items()
                   if site != "edge-a") > 0

    def test_partition_serves_locally_and_merges_back(self):
        data = _scenario_dict(duration=90.0, faults={"wan_partitions": [
            {"site": "edge-a", "start_at": 32.0, "heal_at": 63.0}]})
        outcome = run_scenario(ScenarioSpec.from_dict(data))
        faults = outcome.data["faults"]
        assert faults["wan_partitions"] == 1 and faults["wan_heals"] == 1
        # no capacity was ever lost — only the WAN path
        assert faults["capacity_availability"] == 1.0
        assert faults["failed_requests"] == 0
        router = outcome.data["federation"]["router"]
        # the origin site kept serving its own arrivals while unreachable
        assert router["local_autonomy"] > 0

    def test_degraded_slo_stays_within_capacity_bound(self):
        # the acceptance criterion: under a full origin-site blackout the
        # latency-aware router keeps serving — nothing is lost beyond
        # the blackout's own interrupted requests, and attainment does
        # not collapse below the healthy arm by more than the capacity
        # the federation actually lost
        healthy = run_scenario(ScenarioSpec.from_dict(
            _scenario_dict(duration=90.0)))
        faulted = run_scenario(ScenarioSpec.from_dict(_scenario_dict(
            duration=90.0, faults={"site_blackouts": [
                {"site": "edge-a", "fail_at": 32.0, "recover_at": 63.0,
                 "rejoin_nodes": 2}]})))
        h = healthy.data["metrics"]["functions"]["geofence"]["slo"]["attainment"]
        f = faulted.data["metrics"]["functions"]["geofence"]["slo"]["attainment"]
        lost_capacity = 1.0 - faulted.data["faults"]["capacity_availability"]
        assert f >= h - lost_capacity - 0.05
        assert faulted.data["faults"]["request_availability"] > 0.99


# ----------------------------------------------------------------------
# Determinism: bytes per arm, bytes across workers
# ----------------------------------------------------------------------
def _arm_specs(duration=30.0):
    """The nine fig12 shard specs (3 routers x 3 failure modes)."""
    return build("fig12", duration=duration).expand()


def test_fig12_covers_every_router_and_failure_mode():
    specs = _arm_specs()
    arms = {(s.federation.router,
             "healthy" if s.faults is None or s.faults.is_empty()
             else "blackout" if s.faults.site_blackouts else "partition")
            for s in specs}
    assert arms == {(router, mode) for router in FIG12_ROUTERS
                    for mode in ("healthy", "blackout", "partition")}


@pytest.mark.parametrize("index", range(9))
def test_fig12_arm_bytes_are_run_to_run_identical(index):
    spec = _arm_specs()[index]
    first = canonical_json(run_scenario(spec).data)
    second = canonical_json(run_scenario(spec).data)
    assert first == second, spec.name


def test_an_openwhisk_site_runs_federated_and_byte_identically():
    """Every policy draws work from its own stream, so any can run at a site."""
    data = build("site-outage-failover", duration=60.0).to_dict()
    for site in data["federation"]["sites"]:
        if site["name"] == "edge-b":
            site["policy"] = "openwhisk"
    spec = ScenarioSpec.from_dict(data)
    first = run_scenario(spec)
    edge_b = first.data["federation"]["sites"]["edge-b"]["counters"]
    assert edge_b["arrivals"] > 0
    assert edge_b["invoker_failures"] > 0
    assert canonical_json(first.data) == canonical_json(run_scenario(spec).data)


def test_an_openwhisk_site_takes_its_parked_work_back_when_it_rejoins():
    """A blackout parks what OpenWhisk's containers had queued; the rejoin hands it back."""
    data = build("site-outage-failover", duration=60.0).to_dict()
    for site in data["federation"]["sites"]:
        if site["name"] == "edge-a":
            # one container a node, so OpenWhisk queues on its containers
            site.update(policy="openwhisk", memory_per_node_mb=512.0)
    for workload in data["workloads"]:
        workload["schedule"]["params"]["rate"] *= 3
    outcome = run_scenario(ScenarioSpec.from_dict(data))
    edge_a = outcome.data["federation"]["sites"]["edge-a"]["counters"]
    assert edge_a["parked_requests"] == edge_a["requeued_requests"] > 0
    statuses = [r.status for r in outcome.sim.metrics.requests]
    assert statuses.count(RequestStatus.QUEUED) <= edge_a["parked_requests"]


def test_federated_sweep_bytes_identical_across_workers():
    sweep = build("fig12", duration=30.0)
    serial = ResilientSweepRunner(sweep, workers=1, on_failure="raise").run_json()
    parallel = ResilientSweepRunner(sweep, workers=4, on_failure="raise").run_json()
    assert serial == parallel


# ----------------------------------------------------------------------
# Hypothesis properties
# ----------------------------------------------------------------------
@given(seed=st.integers(min_value=0, max_value=2**16),
       fail_at=st.floats(min_value=12.0, max_value=28.0),
       dark=st.floats(min_value=6.0, max_value=25.0))
@SIM_PROPERTY_SETTINGS
def test_no_request_ever_runs_on_a_blacked_out_site(seed, fail_at, dark):
    """During the dark window, nothing starts on the dead site's nodes."""
    recover_at = fail_at + dark
    data = _scenario_dict(duration=60.0, seed=seed, faults={"site_blackouts": [
        {"site": "edge-a", "fail_at": fail_at, "recover_at": recover_at,
         "rejoin_nodes": None}]})
    outcome = run_scenario(ScenarioSpec.from_dict(data))
    offenders = [
        r for r in outcome.sim.metrics.requests
        if r.node_name is not None and r.node_name.startswith("edge-a/")
        and r.start_time is not None
        and fail_at < r.start_time < recover_at
        and r.status is not RequestStatus.FAILED
    ]
    assert not offenders, [(r.request_id, r.start_time) for r in offenders]


@given(seed=st.integers(min_value=0, max_value=2**16),
       max_redirects=st.integers(min_value=0, max_value=3),
       fail_at=st.floats(min_value=12.0, max_value=28.0))
@SIM_PROPERTY_SETTINGS
def test_redirect_chain_never_exceeds_the_bound(seed, max_redirects, fail_at):
    """The per-request redirect-hop count respects ``max_redirects``."""
    data = _scenario_dict(duration=60.0, seed=seed,
                          max_redirects=max_redirects,
                          faults={"site_blackouts": [
                              {"site": "edge-a", "fail_at": fail_at,
                               "recover_at": fail_at + 15.0,
                               "rejoin_nodes": None}]})
    outcome = run_scenario(ScenarioSpec.from_dict(data))
    router = outcome.data["federation"]["router"]
    assert router["max_redirect_hops"] <= max_redirects
    assert set(router["drops"]) <= {"no_healthy_site", "router_refused",
                                    "redirect_exhausted"}
