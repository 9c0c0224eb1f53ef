"""The spec layer's field table (``repro.spec_fields``).

Every spec parses its fields by the kinds its table declares, so one
property covers every parser: start from a valid dict, make one change —
drop a required key, add an unknown one, or put a value of the wrong
type where the table says what belongs — and ``from_dict`` must refuse
it with a ``ValueError`` (never a ``TypeError``, never a silent
acceptance).  Construction only: no scenario here is run.
"""

import copy
import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.spec import (
    ColdStartSpec,
    FaultSpec,
    NodeFailureSpec,
    SiteBlackoutSpec,
    WanPartitionSpec,
)
from repro.federation.spec import FederationSpec, SiteSpec
from repro.scenarios import ScenarioSpec, SweepSpec, apply_overrides, build
from repro.scenarios.spec import (
    AllocationSpec,
    ClusterSpec,
    ControllerSpec,
    ScheduleSpec,
    WorkloadSpec,
    _ScheduleParam,
)
from repro.scenarios.sweep import SweepAxis
from repro.spec_fields import Flag, Kind, Many, Maybe, Nested, Table, Text, _table

SPEC_CLASSES = (ScheduleSpec, WorkloadSpec, ClusterSpec, ControllerSpec, AllocationSpec,
                ScenarioSpec, NodeFailureSpec, SiteBlackoutSpec, WanPartitionSpec,
                ColdStartSpec, FaultSpec, SiteSpec, FederationSpec, SweepAxis, SweepSpec)

NAN, INF = float("nan"), float("inf")

#: what the property puts where a value of the wrong type does not belong
FOREIGN_VALUES = (True, False, "x", NAN, INF, -INF, [1.0], None)


@lru_cache(maxsize=None)
def valid_dicts():
    """``(spec class, valid dict)`` pairs that between them reach every spec class."""
    quickstart = build("quickstart", duration=5.0).to_dict()
    quickstart["cluster"] = ClusterSpec().to_dict()
    quickstart["warm_start"] = {"squeezenet": 1}
    quickstart["faults"] = FaultSpec(
        node_failures=(NodeFailureSpec("node-0", 1.0, 2.0),), crash_probability=0.1,
        crash_functions=("squeezenet",),
        cold_start=ColdStartSpec("uniform", {"low": 0.1, "high": 0.2})).to_dict()
    federated = build("site-outage-failover").to_dict()
    partitioned = build("partitioned-control-plane").to_dict()
    fig3 = build("fig3", mus=(10.0,), slo_deadlines=(0.1,), arrival_rates=(10.0, 20.0),
                 duration=30.0)
    replay = build("fig9-at-scale", functions=12, duration_minutes=12, shards=3,
                   chunk_minutes=5)
    fig8 = build("fig8", phase_duration=10.0)
    grid = SweepSpec(name="grid", base=build("quickstart", duration=5.0), axes=(
        SweepAxis("seed", (1, 2)), SweepAxis("controller.reclamation", ("termination",))))
    return (
        (ScenarioSpec, quickstart),
        (ScenarioSpec, federated),
        (ScenarioSpec, partitioned),
        (ScenarioSpec, fig3.expand()[0].to_dict()),
        (ScenarioSpec, replay.expand()[0].to_dict()),
        (SweepSpec, fig3.to_dict()),
        (SweepSpec, fig8.to_dict()),
        (SweepSpec, grid.to_dict()),
        (FaultSpec, quickstart["faults"]),
        (FaultSpec, partitioned["faults"]),
        (FederationSpec, federated["federation"]),
    )


def refuses(kind, value):
    """Whether ``kind`` must refuse ``value`` whatever the rest of the spec says."""
    if isinstance(kind, Maybe):
        return value is not None and refuses(kind.kind, value)
    if isinstance(kind, _ScheduleParam):  # a list, a mapping or null may be a param
        return value is not None and not isinstance(value, (list, dict))
    if type(kind) is Kind:  # raw JSON takes anything
        return False
    if isinstance(kind, Text):  # a string may be a valid choice
        return not isinstance(value, str)
    if isinstance(kind, Flag):
        return not isinstance(value, bool)
    if isinstance(kind, Many):  # a list may hold valid items
        return not isinstance(value, list)
    return True  # a count, a number, a nested spec or a mapping: nothing foreign fits


def mutations(cls, data, path=()):
    """Every one-change mutation of the spec-level dict ``data`` and the dicts inside it.

    Yields ``(path, action, key, value)``: ``path`` leads to the dict,
    ``action`` is ``"drop"``, ``"add"`` or ``"set"``.
    """
    yield path, "add", "zz_unknown_key", 1
    for row in _table(cls):
        if row.name not in data:
            continue
        value = data[row.name]
        if row.required:
            yield path, "drop", row.name, None
        for foreign in FOREIGN_VALUES:
            if refuses(row.kind, foreign):
                yield path, "set", row.name, foreign
        kind = row.kind.kind if isinstance(row.kind, Maybe) else row.kind
        if isinstance(kind, Nested) and isinstance(value, dict):
            yield from mutations(kind.spec, value, path + (row.name,))
        elif isinstance(kind, Many) and isinstance(kind.item, Nested):
            for index, item in enumerate(value):
                yield from mutations(kind.item.spec, item, path + (row.name, index))
        elif isinstance(kind, Table) and isinstance(value, dict):
            for key, entry in value.items():
                for foreign in FOREIGN_VALUES:
                    if (refuses(kind.value, foreign)
                            and not isinstance(entry, (list, dict))):
                        yield path + (row.name,), "set", key, foreign


@lru_cache(maxsize=None)
def all_mutations():
    """``(seed index, mutation)`` for every seed dict."""
    return tuple((index, mutation) for index, (cls, data) in enumerate(valid_dicts())
                 for mutation in mutations(cls, data))


def mutate(data, path, action, key, value):
    """A deep copy of ``data`` with one mutation applied."""
    data = copy.deepcopy(data)
    node = data
    for step in path:
        node = node[step]
    if action == "drop":
        del node[key]
    else:
        node[key] = value
    return data


def test_the_seed_dicts_load_and_reach_every_spec_class():
    reached = set()
    for cls, data in valid_dicts():
        cls.from_dict(data)
        reached.add(cls)
        reached.update(_table_classes(cls, data))
    assert reached == set(SPEC_CLASSES)
    assert len(all_mutations()) > 500


def _table_classes(cls, data):
    """The spec classes a valid dict of ``cls`` holds, nested at any depth."""
    for row in _table(cls):
        kind = row.kind.kind if isinstance(row.kind, Maybe) else row.kind
        items = []
        if isinstance(kind, Nested) and isinstance(data.get(row.name), dict):
            items = [(kind.spec, data[row.name])]
        elif isinstance(kind, Many) and isinstance(kind.item, Nested):
            items = [(kind.item.spec, item) for item in data.get(row.name, ())]
        for spec, item in items:
            yield spec
            yield from _table_classes(spec, item)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_change_to_a_valid_spec_is_refused_by_name(data):
    index, (path, action, key, value) = data.draw(st.sampled_from(all_mutations()))
    cls, valid = valid_dicts()[index]
    bad = mutate(valid, path, action, key, value)
    with pytest.raises((ValueError, KeyError)) as refused:
        cls.from_dict(bad)
    assert str(key) in str(refused.value)


# ----------------------------------------------------------------------
# The malformed files a spec used to run on, or crash on, through the CLI
# ----------------------------------------------------------------------
def _quickstart():
    """The registered quickstart at CLI-test size, as plain data."""
    return build("quickstart", duration=5.0).to_dict()


def _with(path, value, data=None):
    """``data`` (default: the quickstart) with the dotted ``path`` set to ``value``."""
    data = _quickstart() if data is None else data
    *parents, last = path.split(".")
    node = data
    for step in parents:
        node = node[int(step)] if step.isdigit() else node[step]
    node[last] = value
    return data


#: (file contents, what the refusal names): each used to run on a default,
#: a coercion or a NaN and exit 0, or to end in a TypeError traceback
MALFORMED_FILES = {
    "duration-as-string": (lambda: _with("duration", "5"), "duration"),
    "typo-duration": (lambda: _with("durration", 5), "durration"),
    "typo-epoch-length": (lambda: _with("controller.epoch_lenght", 5.0), "epoch_lenght"),
    "lazy-termination-no": (lambda: _with("controller.lazy_termination", "no"),
                            "lazy_termination"),
    "typo-node-count": (lambda: _with("cluster", {"node_cont": 3}), "node_cont"),
    "fractional-rejoin": (lambda: _with("faults.site_blackouts.0.rejoin_nodes", 2.5,
                                        build("site-outage-failover").to_dict()),
                          "rejoin_nodes"),
    "boolean-fail-at": (lambda: _with("faults", {"node_failures": [
        {"node": "node-0", "fail_at": True}]}), "fail_at"),
    "nan-static-rate": (lambda: _with("workloads.0.schedule.params.rate", NAN), "rate"),
    "string-static-rate": (lambda: _with("workloads.0.schedule.params.rate", "20"), "rate"),
    "nan-cold-start-mu": (lambda: _with("faults", {"cold_start": {
        "kind": "lognormal", "params": {"mu": NAN, "sigma": 0.5}}}), "mu"),
    "workloads-a-number": (lambda: _with("workloads", 5), "workloads"),
    "schedule-a-string": (lambda: _with("workloads.0.schedule", "static"), "schedule"),
    # controller knobs the run refused only inside the run, or ran on
    "placement-nope": (lambda: _with("controller.placement_strategy", "nope"),
                       "placement_strategy"),
    "ewma-alpha-5": (lambda: _with("controller.ewma_alpha", 5.0), "ewma_alpha"),
    "ewma-alpha-0": (lambda: _with("controller.ewma_alpha", 0), "ewma_alpha"),
    "negative-long-window": (lambda: _with("controller.long_window", -10.0), "long_window"),
    "zero-short-window": (lambda: _with("controller.short_window", 0.0), "short_window"),
    "short-window-not-shorter": (lambda: _with("controller.short_window", 120.0),
                                 "short_window"),
    "burst-factor-1": (lambda: _with("controller.burst_factor", 1.0), "burst_factor"),
    "negative-deflation-threshold": (lambda: _with("controller.deflation_threshold", -1.0),
                                     "deflation_threshold"),
    "deflation-threshold-1": (lambda: _with("controller.deflation_threshold", 1.0),
                              "deflation_threshold"),
    "zero-deflation-increment": (lambda: _with("controller.deflation_increment", 0.0),
                                 "deflation_increment"),
    "increment-above-threshold": (lambda: _with("controller.deflation_increment", 0.5),
                                  "deflation_increment"),
    # a deflation curve's params, which the runner read with defaults
    "fig7-deflation-ratio": (lambda: _fig7_with("deflation_ratio", (0.0, 0.3),
                                                drop="deflation_ratios"), "deflation_ratio"),
    "fig7-mesured": (lambda: _fig7_with("mesured", True), "mesured"),
    "fig7-measured-1": (lambda: _fig7_with("measured", 1), "measured"),
    "fig7-ratio-1": (lambda: _fig7_with("deflation_ratios", [0.0, 1.0]), "deflation_ratios"),
    "fig7-function-a-number": (lambda: _fig7_with("functions", [5]), "functions"),
}


def _fig7_with(key, value, drop=None):
    """The registered fig7 as plain data, with ``params[key]`` set (and ``drop`` removed)."""
    data = build("fig7").to_dict()
    if drop is not None:
        del data["params"][drop]
    data["params"][key] = value
    return data


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_a_malformed_spec_file_exits_2_naming_the_field(case, tmp_path, capsys):
    from repro.cli import main

    contents, named = MALFORMED_FILES[case]
    data = contents()
    with pytest.raises(ValueError, match=named):
        ScenarioSpec.from_dict(data)
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


# ----------------------------------------------------------------------
# The table's rules, one at a time
# ----------------------------------------------------------------------
def test_a_json_integer_in_a_float_field_loads_as_the_float_it_echoes_as():
    spec = ScenarioSpec.from_dict(_with("duration", 5))
    assert type(spec.duration) is float
    assert spec.to_dict()["duration"] == 5.0
    assert ScenarioSpec.from_json(spec.to_json()).to_json() == spec.to_json()
    cluster = ClusterSpec(cpu_per_node=4, cold_start_latency=0)
    assert type(cluster.cpu_per_node) is float and type(cluster.cold_start_latency) is float


@pytest.mark.parametrize("value", [True, "4", NAN, INF, -INF, None, [4.0]])
def test_a_number_field_refuses_what_is_not_a_finite_number_by_name(value):
    with pytest.raises(ValueError, match=r"cluster\.cpu_per_node must be a finite number"):
        ClusterSpec(cpu_per_node=value)


def test_an_unknown_key_is_refused_with_the_closest_field_named():
    with pytest.raises(ValueError, match=r"'node_cont' \(did you mean 'node_count'\?\)"):
        ClusterSpec.from_dict({"node_cont": 3})
    with pytest.raises(ValueError, match="missing required keys: \\['node', 'fail_at'\\]"):
        NodeFailureSpec.from_dict({})
    with pytest.raises(ValueError, match="must be a mapping"):
        FaultSpec.from_dict([])


def test_a_wrong_schema_is_refused():
    with pytest.raises(ValueError, match="unsupported ScenarioSpec schema"):
        ScenarioSpec.from_dict(_with("schema", "repro/scenario@0"))


def test_the_reclamation_choices_are_the_reclamation_policies():
    from repro.core.allocation.reclamation import ReclamationPolicy
    from repro.scenarios.spec import _RECLAMATION_POLICIES

    assert set(_RECLAMATION_POLICIES) == {policy.value for policy in ReclamationPolicy}


def test_the_controller_and_deflation_curve_edges_load():
    """The closed ends of the new ranges, and the params a deflation curve may leave out."""
    spec = ControllerSpec.from_dict({"ewma_alpha": 1, "deflation_increment": 0.3,
                                     "short_window": 119.5, "burst_factor": 1.001})
    assert spec.ewma_alpha == 1.0 and spec.deflation_increment == spec.deflation_threshold
    data = build("fig7").to_dict()
    data["params"] = {"deflation_ratios": [0, 0.999]}
    ScenarioSpec.from_dict(data)
    data["params"] = {}
    ScenarioSpec.from_dict(data)


# ----------------------------------------------------------------------
# Sweep overrides create what the echo omits
# ----------------------------------------------------------------------
def test_the_echo_omits_exactly_these_fields_at_their_defaults():
    omitted = {(cls.__name__, row.name) for cls in SPEC_CLASSES for row in _table(cls)
               if row.omit_default}
    assert omitted == {
        ("ControllerSpec", "policy"), ("ControllerSpec", "policy_params"),
        ("ScenarioSpec", "federation"), ("ScenarioSpec", "data_plane"),
        ("FaultSpec", "site_blackouts"), ("FaultSpec", "wan_partitions"),
        ("SiteSpec", "policy_params"), ("SiteSpec", "cloud"),
        ("FederationSpec", "router_params"), ("FederationSpec", "wan_overrides"),
        ("FederationSpec", "origins"),
    }


def test_an_override_creates_a_site_field_the_echo_omits():
    spec = build("site-outage-failover")
    assert "cloud" not in spec.to_dict()["federation"]["sites"][0]
    cloud = apply_overrides(spec, {"federation.sites.0.cloud": True})
    assert cloud.federation.sites[0].cloud is True
    reactive = apply_overrides(spec, {
        "federation.sites.0.policy": "reactive",
        "federation.sites.0.policy_params": {"target_concurrency": 1.5},
    })
    assert reactive.federation.sites[0].policy_params == {"target_concurrency": 1.5}
    with pytest.raises(KeyError, match="does not resolve"):
        apply_overrides(spec, {"federation.sites.0.clod": True})
    with pytest.raises(KeyError, match="does not resolve"):
        apply_overrides(spec, {"workloads.0.schedule.params.durration": 5.0})


def test_a_spec_file_that_is_not_an_object_exits_2(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    assert main(["scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "one JSON object" in err and "Traceback" not in err


def _replay_shard():
    """A registered trace-replay shard as plain data."""
    return build("fig9-at-scale", functions=12, duration_minutes=12, shards=3,
                 chunk_minutes=5).expand()[0].to_dict()


def _fig4_shard():
    """A registered heterogeneous-sizing shard as plain data."""
    return build("fig4").expand()[0].to_dict()


#: (dict, path, value, what the refusal names): params maps that ran on a
#: truncated seed, or failed only inside the run
PARAMS_CASES = [
    (_replay_shard, "params.trace_seed", 2.5, "trace_seed"),
    (_replay_shard, "params.population.seed", "x", "population.seed"),
    (_replay_shard, "params.population.sporadic_fracton", 0.4, "sporadic_fracton"),
    (_fig4_shard, "allocation.sizing.percentile", "x", "sizing.percentile"),
    (_fig4_shard, "allocation.sizing.deflation_fraction", 1.0, "deflation_fraction"),
    (_fig4_shard, "allocation.sizing.deflated_fraction", 0.3, "deflated_fraction"),
    (_quickstart, "workloads.0.schedule.params.durration", 5.0, "durration"),
]


@pytest.mark.parametrize("shard, path, value, named", PARAMS_CASES,
                         ids=[path.rsplit(".", 1)[1] for _, path, _, _ in PARAMS_CASES])
def test_a_params_map_is_held_to_its_keys_and_kinds(shard, path, value, named):
    with pytest.raises(ValueError, match=named):
        ScenarioSpec.from_dict(_with(path, value, shard()))
    ScenarioSpec.from_dict(shard())
