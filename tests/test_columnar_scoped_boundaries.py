"""Warm-ups taken inside the columnar kernel: warm-up-dense runs, byte-for-byte.

A container warm-up costs the columnar kernel no boundary: it steps
the real event with the object-side queue empty and does the warm
hook's drain itself (see "Warm-ups" in :mod:`repro.sim.columnar`).
The registered scenarios of ``test_columnar_differential.py`` warm a
few dozen containers each; the cases here are *dense* in warm-ups — an
overloaded cluster under bursty step schedules, where the controller
creates and reclaims containers every epoch — and run them through both
planes, healthy and with crash-on-dispatch plus a node failure, so the
injector's recovery check and crash draws meet in-kernel warm-ups.

Every case also asserts, from the kernel's own counters, that the
in-kernel path actually fired: none of them can pass by falling back to
full boundaries.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.cluster.container as container_module
import repro.sim.request as request_module
from repro.cluster.cluster import ClusterConfig
from repro.cluster.container import Container, ContainerState
from repro.core.controller import ControllerConfig
from repro.core.dispatch import SharedQueueDispatcher
from repro.faults.injector import FaultInjector
from repro.faults.spec import ColdStartSpec, FaultSpec, NodeFailureSpec
from repro.scenarios.spec import canonical_json
from repro.sim.columnar import ColumnarKernel
from repro.simulation import SimulationRunner
from repro.workloads.functions import FUNCTION_CATALOG
from repro.workloads.generator import WorkloadBinding
from repro.workloads.schedules import StaticRate, StepSchedule
from test_columnar_differential import SIM_PROPERTY_SETTINGS

#: Crash-on-dispatch on every function plus one node outage mid-run.
FAULTS = FaultSpec(
    crash_probability=0.02,
    node_failures=(NodeFailureSpec("node-1", fail_at=8.0, recover_at=16.0),),
)


def _storm_bindings(seed: int, functions: int, duration: float, load: float):
    """``functions`` renamed Table-1 profiles under bursty step schedules."""
    rng = random.Random(seed)
    profiles = [FUNCTION_CATALOG[name] for name in sorted(FUNCTION_CATALOG)]
    bindings = []
    for index in range(functions):
        profile = profiles[index % len(profiles)]
        steps, t = [], 0.0
        while t < duration:
            burst = rng.uniform(3.0, 6.0) if rng.random() < 0.3 else 1.0
            rate = load * profile.service_rate * rng.uniform(0.5, 3.0) * burst
            steps.append((t, rate))
            t += rng.choice((3.0, 5.0, 8.0))
        bindings.append(WorkloadBinding(
            profile=dataclasses.replace(profile, name=f"f{index:02d}"),
            schedule=StepSchedule(steps, duration=duration),
            slo_deadline=0.1,
        ))
    return bindings


def _run(plane: str, *, seed: int = 11, policy: str = "lass", faults=None,
         functions: int = 48, duration: float = 30.0, load: float = 0.05,
         epoch_length: float = 1.0, cold_start_latency: float = 0.5,
         probes=(), bindings=None, policy_params=None):
    """One storm run on ``plane``; returns ``(fingerprint, kernel_stats, counters)``.

    The fingerprint is everything a run exposes — per-request lifecycle
    rows, counters, SLO/waiting summaries, the allocation timeline, the
    balancer's smoothing scores, the fault report — as canonical JSON,
    plus the counters an engine event read at each time in ``probes``.
    """
    request_module._request_counter = itertools.count(0)
    if bindings is None:
        bindings = _storm_bindings(seed, functions, duration, load)
    runner = SimulationRunner(
        workloads=bindings,
        cluster_config=ClusterConfig(node_count=3, cpu_per_node=8.0,
                                     cold_start_latency=cold_start_latency),
        controller_config=ControllerConfig(epoch_length=epoch_length),
        seed=seed,
        fault_spec=faults,
        policy=policy,
        policy_params=policy_params,
        data_plane=plane,
    )
    seen = []
    for at in probes:
        runner.engine.call_at(at, lambda: seen.append(dict(runner.metrics.counters)))
    result = runner.run(duration=duration)
    names = [b.profile.name for b in bindings]
    deadlines = {name: 0.1 for name in names}
    fingerprint = {
        "requests": sorted(
            (r.request_id, r.function_name, r.arrival_time, r.work,
             r.status.value, r.start_time, r.completion_time, r.container_id,
             r.node_name, r.cold_start)
            for r in result.metrics.requests
        ),
        "counters": dict(result.metrics.counters),
        "summary": result.metrics.summary(deadlines),
        "waiting": {name: result.waiting_summary(name).as_dict() for name in names},
        "waiting_all": result.waiting_summary().as_dict(),
        "timeline": {
            name: [[p.time, p.containers, p.cpu, p.desired_containers, p.arrival_rate]
                   for p in result.metrics.timeline.series(name)]
            for name in names
        },
        # (the kernel pre-creates an empty score dict per function)
        "scores": {name: scores for name, scores
                   in runner.policy.dispatcher.balancer._scores.items() if scores},
        "faults": (runner.fault_injector.report(duration)
                   if runner.fault_injector is not None else None),
        "probes": seen,
    }
    return canonical_json(fingerprint), result.kernel_stats, result.metrics.counters


def _assert_identical(**kwargs):
    """Both planes, byte-for-byte; returns ``(kernel_stats, run counters)``."""
    event, event_stats, counters = _run("event", **kwargs)
    columnar, stats, _ = _run("columnar", **kwargs)
    assert event_stats is None
    assert columnar == event
    return stats, counters


# ----------------------------------------------------------------------
# The dense case
# ----------------------------------------------------------------------
#: Creations each policy reaches on the healthy storm (LaSS reclaims and
#: re-creates every epoch; the reactive scalers only follow queue growth).
STORM_CREATIONS = {"lass": 200, "reactive": 90, "hybrid": 30}


@pytest.mark.parametrize("faults", (None, FAULTS), ids=("healthy", "faulted"))
@pytest.mark.parametrize("policy", sorted(STORM_CREATIONS))
def test_cold_start_storm_matches_event_plane(policy, faults):
    """Hundreds of warm-ups, each taken inside the kernel, change no byte.

    LaSS learns online (completion folds are deferred across warm-ups);
    reactive and hybrid do not, and hybrid's crash hook re-evaluates
    every function.
    """
    stats, counters = _assert_identical(policy=policy, faults=faults)
    assert counters["creations"] >= STORM_CREATIONS[policy]
    # every warm-up is taken in-kernel, bar the few that share their
    # timestamp with an earlier boundary event, whose drain sees another
    # idle container, or whose pull draws a crash
    assert 0.9 * counters["creations"] <= stats["warm_ups"] <= counters["creations"]
    if faults is not None:
        assert counters["container_crashes"] > 0
        assert counters["node_failures"] == 1


def _spy_run(monkeypatch, **kwargs):
    """A columnar storm run that records what every in-kernel warm-up did.

    Returns ``(kernel_stats, counters, drains, warmed, absorbs)``: the
    value of every ``SharedQueueDispatcher.drain`` called while
    ``ColumnarKernel._warm`` ran, how many in-kernel warm-ups found
    their container starting, and how many times
    ``ColumnarKernel._absorb`` ran.
    """
    drains, absorbs, warmed = [], [], []
    inside = []
    real_warm, real_drain = ColumnarKernel._warm, SharedQueueDispatcher.drain
    real_absorb = ColumnarKernel._absorb

    def warm(self, container):
        starting = container.state is ContainerState.STARTING
        inside.append(True)
        try:
            taken = real_warm(self, container)
        finally:
            inside.pop()
        if taken and starting:
            warmed.append(container.container_id)
        return taken

    def drain(self, function_name):
        started = real_drain(self, function_name)
        if inside:
            drains.append(started)
        return started

    def absorb(self):
        absorbs.append(True)
        return real_absorb(self)

    monkeypatch.setattr(ColumnarKernel, "_warm", warm)
    monkeypatch.setattr(ColumnarKernel, "_absorb", absorb)
    monkeypatch.setattr(SharedQueueDispatcher, "drain", drain)
    _, stats, counters = _run("columnar", **kwargs)
    return stats, counters, drains, len(warmed), len(absorbs)


@pytest.mark.parametrize("faults", (None, FAULTS), ids=("healthy", "faulted"))
def test_in_kernel_warm_ups_find_the_object_side_queue_empty(monkeypatch, faults):
    """The real warm hook's drain starts nothing: the kernel's absorb emptied its deque.

    If ``_absorb`` left the requests it read in the dispatcher's deque,
    the warm hook would start stale copies of rows the kernel already
    dispatched or still queues.  Healthy, a warm-up also synchronizes
    nothing: the only absorbs are the initial one and one per boundary.
    """
    stats, counters, drains, warmed, absorbs = _spy_run(monkeypatch, policy="lass",
                                                        faults=faults)
    # every in-kernel warm-up of a starting container reaches the hook once
    assert len(drains) == warmed >= 0.8 * counters["creations"]
    assert set(drains) == {0}
    if faults is None:
        assert absorbs == stats["boundaries_full"] + 1
    else:
        assert absorbs > stats["boundaries_full"] + 1  # crash syncs absorb too


#: Storms whose crash on a warm-up's pull decides a recovery time: on the
#: event plane the warm hooks run the drain (and its crash) before the
#: injector's recovery check, which must count the evicted container out.
RESTORING_CRASHES = ((8, 0.1), (9, 0.3), (10, 0.3), (12, 0.3))


@pytest.mark.parametrize("seed,crash_probability", RESTORING_CRASHES)
def test_crash_on_a_warm_up_runs_before_the_recovery_check(seed, crash_probability):
    """A warm-up whose pull will crash is a full boundary, so recovery times stay exact."""
    faults = FaultSpec(
        crash_probability=crash_probability,
        node_failures=(NodeFailureSpec("node-1", fail_at=4.0, recover_at=7.0),),
    )
    stats, counters = _assert_identical(seed=seed, faults=faults, functions=8,
                                        duration=12.0, load=0.08)
    assert counters["container_crashes"] > 0
    assert stats["warm_ups"] > 0


#: The storm in which LaSS marks two starting containers draining: ``c35``
#: (created at 1.98 s) is rescued before its cold start ends, ``c30``
#: (created at 1.60 s) after it.  Container ids count from 0.
RESCUE_STORM = dict(
    seed=1, functions=8, duration=12.0, load=0.08,
    faults=FaultSpec(
        crash_probability=0.1,
        node_failures=(NodeFailureSpec("node-1", fail_at=4.0, recover_at=7.0),),
    ),
)


@pytest.mark.parametrize("plane", ("event", "columnar"))
def test_a_container_marked_draining_while_starting_keeps_its_cold_start(monkeypatch, plane):
    """Rescued before its cold start ends, a container warms at the end, once, cold.

    ``_scale_down`` may pick a STARTING container; its rescue used to set
    WARM at once, so the container served requests before its cold start
    ended, its warm hooks never ran and no request on it counted as a
    cold start.  Rescued after the end, it returns WARM with the end on
    record and no hook (a draining container takes no work).
    """
    monkeypatch.setattr(container_module, "_container_counter", itertools.count())
    marked, rescued_starting, hooks = {}, set(), {}
    real_mark, real_unmark = Container.mark_draining, Container.unmark_draining
    real_check = FaultInjector._check_recovery

    def mark_draining(self):
        if self.state is ContainerState.STARTING:
            marked[self.container_id] = self
        real_mark(self)

    def unmark_draining(self):
        real_unmark(self)
        if self.state is ContainerState.STARTING:
            rescued_starting.add(self.container_id)

    def check_recovery(self, container):
        hooks[container.container_id] = hooks.get(container.container_id, 0) + 1
        real_check(self, container)

    monkeypatch.setattr(Container, "mark_draining", mark_draining)
    monkeypatch.setattr(Container, "unmark_draining", unmark_draining)
    monkeypatch.setattr(FaultInjector, "_check_recovery", check_recovery)
    fingerprint, _, _ = _run(plane, **RESCUE_STORM)
    rows = json.loads(fingerprint)["requests"]

    assert set(marked) == {"c30", "c35"} and rescued_starting == {"c35"}
    for cid, container in marked.items():
        cold_start_end = container.created_at + 0.5
        assert container.warm_since == cold_start_end
        served = sorted((row[5], row[9]) for row in rows if row[7] == cid)
        assert served and served[0][0] >= cold_start_end
        if cid in rescued_starting:
            assert hooks[cid] == 1
            assert served[0] == (cold_start_end, True)  # the first request pays the cold start
        else:
            assert cid not in hooks
            assert not any(cold for _, cold in served)


def test_the_rescue_storm_matches_across_planes():
    """The same storm, byte for byte, with its rescues."""
    stats, counters = _assert_identical(**RESCUE_STORM)
    assert counters["lazy_rescues"] >= 2 and stats["warm_ups"] > 0


@pytest.mark.parametrize("faults", (None, FAULTS), ids=("healthy", "faulted"))
def test_folds_deferred_by_warm_ups_are_current_at_the_next_boundary(faults):
    """Counters an event reads between epoch ticks equal the event plane's.

    A warm-up leaves every function's arrival and completion folds
    pending; each probe is a full boundary, so it must find all of them
    folded.
    """
    probes = [2.5 * k + 0.123 for k in range(1, 12)]
    event, _, _ = _run("event", faults=faults, probes=probes)
    columnar, stats, counters = _run("columnar", faults=faults, probes=probes)
    assert columnar == event
    seen = json.loads(columnar)["probes"]
    assert len(seen) == len(probes)
    assert 0 < seen[0]["completions"] < seen[-1]["completions"]
    assert counters["creations"] >= 200
    assert stats["warm_ups"] >= 0.9 * counters["creations"] - len(probes)


# ----------------------------------------------------------------------
# Exact-time ties
# ----------------------------------------------------------------------
def _static_bindings(rates):
    """One constant-rate squeezenet clone per entry of ``rates``."""
    profile = FUNCTION_CATALOG["squeezenet"]
    return [
        WorkloadBinding(profile=dataclasses.replace(profile, name=name),
                        schedule=StaticRate(rate, duration=12.0), slo_deadline=0.1)
        for name, rate in rates.items()
    ]


def test_same_instant_warm_ups_are_taken_one_at_a_time():
    """Containers of one function and of two functions warming at the same float.

    The static policy creates its whole allocation at ``start()``, so
    all five cold starts end at exactly the same timestamp while
    requests are already queued behind them: five in-kernel warm-ups in
    engine order, each pulling one queued row onto its container.
    """
    stats, counters = _assert_identical(
        policy="static", policy_params={"allocations": {"a": 3, "b": 2}},
        bindings=_static_bindings({"a": 40.0, "b": 25.0}), duration=12.0,
    )
    assert counters["creations"] == 5
    assert counters["cold_starts"] == 5
    assert stats["warm_ups"] == 5


def test_warm_up_landing_on_an_epoch_tick():
    """cold start == epoch length: every epoch's creations warm exactly on the next tick.

    Warm-ups run at data priority, the tick at control priority, so each
    such timestamp is a run of in-kernel warm-ups followed by a boundary.
    """
    stats, counters = _assert_identical(
        epoch_length=1.0, cold_start_latency=1.0,
    )
    assert counters["creations"] >= 100
    assert stats["warm_ups"] == counters["creations"]
    assert stats["boundaries_full"] >= 30  # one per epoch tick


# ----------------------------------------------------------------------
# Hypothesis: random cold-start storms
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    functions=st.integers(min_value=3, max_value=12),
    load=st.floats(min_value=0.02, max_value=0.12),
    epoch_length=st.sampled_from((0.5, 1.0, 2.0)),
    policy=st.sampled_from(("lass", "hybrid", "reactive")),
    crash_probability=st.sampled_from((0.0, 0.0, 0.05)),
    sigma=st.sampled_from((None, 0.5)),
)
@SIM_PROPERTY_SETTINGS
def test_random_cold_start_storms_byte_for_byte(seed, functions, load, epoch_length,
                                                policy, crash_probability, sigma):
    """Random storms, sampled cold-start latencies and crashes included."""
    faults = None
    if crash_probability or sigma:
        faults = FaultSpec(
            crash_probability=crash_probability,
            cold_start=(None if sigma is None
                        else ColdStartSpec("lognormal", {"mu": -0.7, "sigma": sigma})),
        )
    stats, counters = _assert_identical(
        seed=seed, policy=policy, faults=faults, functions=functions,
        duration=10.0, load=load, epoch_length=epoch_length,
    )
    # every function bootstraps one container on its first arrival
    assert counters["creations"] >= functions
    assert stats["warm_ups"] > 0
