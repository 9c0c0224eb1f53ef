"""Run-wide invariants of the shared queue: work conservation and FCFS, on both planes.

Every built-in policy but OpenWhisk dispatches through one shared FCFS
queue per function (:class:`~repro.core.dispatch.SharedQueueDispatcher`).
Two properties follow from that design whatever the control loop does —
autoscaling, draining marks and rescues, fair-share reclamation,
crash-on-dispatch faults, node outages — and they are checked here on
the finished run's own record, not on internal state:

* **Work conservation.**  No request waits while a container of its
  function is warm, not draining and idle.  A container's warm intervals
  come from its state transitions (recorded through the cluster's
  ``on_container_state`` hook); its busy intervals are the requests that
  ran on it, from start to completion or drop.  A request waits from its
  arrival to its start (or its drop on a crashed dispatch, or the end of
  the run).  Any overlap of positive length between a wait and an idle
  interval of the same function is a violation; instants shared by two
  events (a completion that pulls the queue head at the same time) have
  length zero and are not.
* **FCFS.**  Within a function, requests leave the queue in arrival
  order: the time each was handed to a container (its start, or its drop
  on a crashed dispatch) never decreases along arrival order, and a
  request that never left the queue is never overtaken.  The one
  sanctioned exception is a salvaged request that the dispatcher requeues
  at the head (``SharedQueueDispatcher.requeue``); those are left out.

The runs are ``test_columnar_differential.py``'s faulted strategy
(``flaky-containers`` under every shared-queue policy, crash-on-dispatch
drawn) and the 8-function storms of ``test_columnar_scoped_boundaries.py``
(bursty step schedules on an overloaded cluster, healthy and with a node
outage), each on the event plane and on the columnar plane.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import repro.sim.request as request_module
from repro.cluster.cluster import ClusterConfig
from repro.cluster.container import ContainerState
from repro.core.controller import ControllerConfig
from repro.scenarios.registry import build
from repro.scenarios.sweep import apply_overrides
from repro.simulation import SimulationRunner
from repro.sim.request import RequestStatus
from test_columnar_differential import SHARED_QUEUE_POLICIES, SIM_PROPERTY_SETTINGS
from test_columnar_scoped_boundaries import FAULTS, _storm_bindings


class RunRecorder:
    """Watches one runner: every container state transition and every requeued request."""

    def __init__(self, runner: SimulationRunner) -> None:
        self.runner = runner
        self.function_of = {}
        #: container id -> [(time, state)], one entry per change of state
        self.states = defaultdict(list)
        self.salvaged = set()
        cluster = runner.cluster
        for container in cluster.all_containers():
            self._saw(container)
        cluster.on_container_state(self._saw)
        dispatcher = runner.policy.dispatcher
        requeue = dispatcher.requeue

        def spy(requests):
            requests = list(requests)
            self.salvaged.update(r.request_id for r in requests)
            requeue(requests)

        dispatcher.requeue = spy

    def _saw(self, container) -> None:
        self.function_of[container.container_id] = container.function_name
        history = self.states[container.container_id]
        if not history or history[-1][1] is not container.state:
            history.append((self.runner.engine.now, container.state))

    def run(self, duration: float):
        result = self.runner.run(duration=duration)
        return result, self.runner.engine.now


def _available(history, end):
    """The intervals a container spent WARM (warm and not draining)."""
    spans = []
    for (t, state), (t_next, _) in zip(history, history[1:] + [(end, None)]):
        if state is ContainerState.WARM and t_next > t:
            spans.append((t, t_next))
    return spans


def _minus(spans, busy):
    """``spans`` less the (disjoint) ``busy`` intervals."""
    out = []
    busy = sorted(busy)
    for a, b in spans:
        cursor = a
        for s, e in busy:
            if e <= cursor or s >= b:
                continue
            if s > cursor:
                out.append((cursor, s))
            cursor = max(cursor, e)
        if cursor < b:
            out.append((cursor, b))
    return out


def _handed_over(request, end):
    """When the request left the queue: its start, its crashed dispatch, or never (``end``)."""
    if request.start_time is not None:
        return request.start_time
    if request.status is RequestStatus.DROPPED:
        return request.completion_time
    return end


def violations(recorder: RunRecorder, result, end: float):
    """``(work-conservation violations, FCFS violations)`` of a finished run, as readable rows."""
    requests = result.metrics.requests
    busy = defaultdict(list)
    for r in requests:
        if r.container_id is not None and r.start_time is not None:
            finish = r.completion_time if r.completion_time is not None else end
            busy[r.container_id].append((r.start_time, finish))
    idle_by_function = defaultdict(list)
    for cid, history in recorder.states.items():
        for span in _minus(_available(history, end), busy[cid]):
            idle_by_function[recorder.function_of[cid]].append(span + (cid,))

    conservation = []
    by_function = defaultdict(list)
    for r in requests:
        by_function[r.function_name].append(r)
        wait_end = _handed_over(r, end)
        idle = idle_by_function.get(r.function_name)
        if not idle or wait_end <= r.arrival_time:
            continue
        a = np.array([s[0] for s in idle])
        b = np.array([s[1] for s in idle])
        overlap = np.minimum(b, wait_end) - np.maximum(a, r.arrival_time)
        for k in np.flatnonzero(overlap > 0):
            conservation.append((r.request_id, r.function_name, r.arrival_time, wait_end,
                                 idle[k][2], idle[k][0], idle[k][1]))

    fcfs = []
    for name, rows in by_function.items():
        rows = sorted((r for r in rows if r.request_id not in recorder.salvaged),
                      key=lambda r: (r.arrival_time, r.request_id))
        latest, latest_id = -np.inf, None
        for r in rows:
            handed = _handed_over(r, end)
            if handed < latest:
                fcfs.append((name, latest_id, r.request_id, r.arrival_time, handed, latest))
            if handed >= latest:
                latest, latest_id = handed, r.request_id
    return conservation, fcfs


def _assert_invariants(runner: SimulationRunner, duration: float) -> None:
    recorder = RunRecorder(runner)
    result, end = recorder.run(duration)
    conservation, fcfs = violations(recorder, result, end)
    assert not conservation, f"{len(conservation)} waits beside an idle container, first {conservation[:3]}"
    assert not fcfs, f"{len(fcfs)} FCFS inversions, first {fcfs[:3]}"


def _flaky_runner(crash_probability, rate, seed, policy, plane):
    """``test_random_faulted_workloads_byte_for_byte``'s spec, wired as the scenario runner wires it."""
    overrides = {"controller.policy": policy, "data_plane": plane}
    if policy == "static":
        overrides["controller.policy_params"] = {"allocations": {"squeezenet": 4}}
    spec = apply_overrides(build("flaky-containers", crash_probability=crash_probability,
                                 rate=rate, duration=45.0, seed=seed), overrides)
    request_module._request_counter = itertools.count(0)
    runner = SimulationRunner(
        workloads=[w.build() for w in spec.workloads],
        cluster_config=spec.cluster.build() if spec.cluster is not None else None,
        controller_config=spec.controller.build(),
        seed=spec.seed,
        warm_start_containers=dict(spec.warm_start) or None,
        fault_spec=spec.faults,
        policy=spec.controller.policy,
        policy_params=dict(spec.controller.policy_params),
        data_plane=spec.data_plane,
    )
    return runner, spec.duration


@given(
    crash_probability=st.floats(min_value=0.0, max_value=0.2),
    rate=st.floats(min_value=4.0, max_value=25.0),
    seed=st.integers(min_value=0, max_value=2**16),
    policy=st.sampled_from(SHARED_QUEUE_POLICIES),
    plane=st.sampled_from(("event", "columnar")),
)
@example(crash_probability=0.1, rate=20.0, seed=23, policy="lass", plane="event")
@example(crash_probability=0.1, rate=20.0, seed=23, policy="lass", plane="columnar")
@example(crash_probability=0.1, rate=20.0, seed=23, policy="hybrid", plane="columnar")
@example(crash_probability=0.1, rate=20.0, seed=23, policy="reactive", plane="event")
@example(crash_probability=0.1, rate=20.0, seed=23, policy="static", plane="columnar")
@example(crash_probability=0.1, rate=20.0, seed=23, policy="noop", plane="event")
@example(crash_probability=0.125, rate=4.0, seed=1, policy="hybrid", plane="event")
@SIM_PROPERTY_SETTINGS
def test_faulted_runs_conserve_work_and_keep_fcfs(crash_probability, rate, seed, policy, plane):
    runner, duration = _flaky_runner(crash_probability, rate, seed, policy, plane)
    _assert_invariants(runner, duration)


#: The 8-function storms (12 s, load 0.08): healthy seeds, and one with the node outage and crashes.
STORMS = [(seed, None) for seed in (2, 3, 5, 11, 12)] + [(3, FAULTS)]


@pytest.mark.parametrize("plane", ("event", "columnar"))
@pytest.mark.parametrize("seed, faults", STORMS,
                         ids=[f"seed{s}-{'faulted' if f else 'healthy'}" for s, f in STORMS])
def test_storms_conserve_work_and_keep_fcfs(seed, faults, plane):
    """Overloaded bursty storms: draining marks, rescues and reclamation every epoch."""
    request_module._request_counter = itertools.count(0)
    runner = SimulationRunner(
        workloads=_storm_bindings(seed, 8, 12.0, 0.08),
        cluster_config=ClusterConfig(node_count=3, cpu_per_node=8.0, cold_start_latency=0.5),
        controller_config=ControllerConfig(epoch_length=1.0),
        seed=seed,
        fault_spec=faults,
        data_plane=plane,
    )
    _assert_invariants(runner, 12.0)


def test_the_checks_see_a_violation():
    """A request that waits beside an idle container, and one overtaken, are both reported."""
    runner, duration = _flaky_runner(0.0, 10.0, 3, "lass", "event")
    recorder = RunRecorder(runner)
    result, end = recorder.run(duration)
    requests = result.metrics.requests
    started = [r for r in requests if r.start_time is not None]
    assert violations(recorder, result, end) == ([], [])
    # delay the first request's start by a second: it now waits while its
    # container sits idle, and starts after requests that arrived later
    first = min(started, key=lambda r: r.arrival_time)
    first.start_time += 1.0
    conservation, fcfs = violations(recorder, result, end)
    assert any(row[0] == first.request_id for row in conservation)
    assert any(row[1] == first.request_id for row in fcfs)
