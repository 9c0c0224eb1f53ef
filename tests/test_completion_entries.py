"""A request's completion is one bare engine entry, voided by the container it names.

``Container._start`` pushes ``engine.call_at(finish, container._finish_current,
request, engine, on_complete)``: no :class:`~repro.sim.engine.Event` record
and no cancellation handle.  ``_finish_current`` returns at once when
``request`` is no longer the container's ``_current``, so a container torn
down while busy leaves an entry that runs and does nothing.  The columnar
kernel reads the container's ``_finish_time`` when it adopts a busy
container at an absorb, and drops every completion entry no container
runs any more (``SimulationEngine.drop_calls``): left on the heap, it
would read as a boundary of its own.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import repro.sim.request as request_module
from repro.cluster.container import Container, ContainerState
from repro.core.dispatch import SharedQueueDispatcher
from repro.faults.spec import FaultSpec
from repro.metrics.collector import MetricsCollector
from repro.scenarios.registry import build
from repro.scenarios.runner import run_scenario
from repro.scenarios.sweep import apply_overrides
from repro.sim import engine as engine_module
from repro.sim.columnar import ColumnarKernel
from repro.sim.engine import SimulationEngine
from repro.sim.request import Request, RequestStatus
from test_columnar_differential import SHARED_QUEUE_POLICIES, SIM_PROPERTY_SETTINGS
from test_columnar_scoped_boundaries import FAULTS, RESCUE_STORM, RESTORING_CRASHES, _run

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def _busy(work: float = 1.0):
    """A warm container behind a dispatcher, running one request with a second queued."""
    engine = SimulationEngine()
    metrics = MetricsCollector()
    dispatcher = SharedQueueDispatcher(engine, metrics)
    container = Container("fn", "n0", standard_cpu=1.0, memory_mb=128.0)
    container.mark_warm(0.0)
    dispatcher.watch_container(container)
    running, waiting = Request("fn", 0.0, work=work), Request("fn", 0.0, work=work)
    assert dispatcher.submit(running) and not dispatcher.submit(waiting)
    return engine, metrics, container, running, waiting


@pytest.mark.parametrize("teardown", ("terminate", "evict"))
def test_a_busy_container_torn_down_leaves_its_completion_a_no_op(teardown):
    """The request is DROPPED at the teardown, and its entry completes nothing."""
    engine, metrics, container, running, waiting = _busy()
    assert engine.pending_events == 1
    engine.run(until=0.4)
    getattr(container, teardown)(engine.now)
    completions = metrics.counters["completions"]
    processed = engine.events_processed
    engine.run()
    assert running.status is RequestStatus.DROPPED and running.completion_time == 0.4
    assert metrics.counters["completions"] == completions == 0
    assert container.completed_requests == 0 and container._finish_time is None
    # the entry ran (a no-op): it pulled nothing from the shared queue
    assert engine.events_processed == processed + 1 and engine.pending_events == 0
    assert waiting.status is RequestStatus.QUEUED and waiting.start_time is None


def test_a_completion_entry_for_another_request_does_nothing():
    """The entry names its request: a container running a different one ignores it."""
    engine, metrics, container, running, waiting = _busy()
    container._finish_current(waiting, engine, None)
    assert container.current_request is running and running.status is RequestStatus.RUNNING
    assert waiting.status is RequestStatus.QUEUED and container.completed_requests == 0


def test_a_completion_finishes_at_the_time_it_was_scheduled_for():
    """A resize during service changes neither ``_finish_time`` nor the completion."""
    engine, metrics, container, running, _ = _busy()
    assert container._finish_time == 1.0
    engine.run(until=0.5)
    container.deflate_to(0.25)
    assert container._finish_time == 1.0
    engine.run(until=1.0)
    assert running.status is RequestStatus.COMPLETED and running.completion_time == 1.0
    assert metrics.counters["completions"] == 1


def test_drop_calls_removes_only_matching_bare_entries_and_keeps_the_order():
    engine = SimulationEngine()
    fired = []
    for index, time in enumerate((3.0, 1.0, 2.0, 1.0, 0.5)):
        engine.call_at(time, fired.append, index)
    record = engine.schedule_at(1.0, fired.append, "record")
    assert engine.drop_calls(lambda callback, args: args[0] in (1, 4)) == 2
    assert engine.events_cancelled == 2 and engine.pending_events == 4
    engine.run()
    assert fired == [3, "record", 2, 0] and not record.cancelled
    assert engine.drop_calls(lambda callback, args: True) == 0


# ----------------------------------------------------------------------
# Event records: only the control plane builds them
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _spied_events():
    """Every :class:`Event` built inside the block, as ``(priority, callback name)``."""
    built = []
    real_init = engine_module.Event.__init__

    def init(self, time, priority, sequence, callback, args=(), kwargs=None):
        built.append((priority, getattr(callback, "__name__", repr(callback))))
        real_init(self, time, priority, sequence, callback, args, kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module.Event, "__init__", init)
        yield built


@pytest.mark.parametrize("policy", ("lass", "hybrid", "reactive"))
def test_an_event_plane_run_builds_event_records_only_for_control_and_fault_events(policy):
    """Hundreds of completions, crashes and a node outage: no data-priority ``Event``."""
    with _spied_events() as built:
        _, _, counters = _run("event", policy=policy, faults=FAULTS, functions=8,
                              duration=12.0, load=0.08)
    assert counters["completions"] > 300 and counters["container_crashes"] > 0
    assert built, "the control loop schedules its ticks as Event records"
    priorities = {priority for priority, _ in built}
    assert priorities <= {SimulationEngine.PRIORITY_CONTROL, SimulationEngine.PRIORITY_FAULT}
    assert "_finish_current" not in {name for _, name in built}


# ----------------------------------------------------------------------
# The columnar kernel's absorb leaves no completion it took over
# ----------------------------------------------------------------------
def _completion_entries(engine):
    """``(container, request)`` of every container completion on the engine heap."""
    return [(entry[3].__self__, entry[4][0]) for entry in engine._queue
            if getattr(entry[3], "__func__", None) is Container._finish_current]


@contextlib.contextmanager
def _checked_absorbs():
    """Check the engine heap after every ``ColumnarKernel._absorb``; yields the drop count.

    Only a container the kernel did not adopt (a draining one) may keep
    an entry, and only for the request it still runs.
    """
    dropped = [0]
    real_absorb = ColumnarKernel._absorb

    def absorb(kernel):
        cancelled = kernel.engine.events_cancelled
        real_absorb(kernel)
        dropped[0] += kernel.engine.events_cancelled - cancelled
        for container, request in _completion_entries(kernel.engine):
            assert container._current is request, (
                f"a stale completion of {container.container_id} is left on the heap")
            assert container.state is not ContainerState.WARM, (
                f"the adopted {container.container_id} kept its completion entry")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ColumnarKernel, "_absorb", absorb)
        yield dropped


#: The 8-function storms of ``test_columnar_scoped_boundaries.py``: the restoring crashes and the rescue.
STORMS = [dict(seed=seed, functions=8, duration=12.0, load=0.08,
               faults=FaultSpec(crash_probability=p,
                                node_failures=RESCUE_STORM["faults"].node_failures))
          for seed, p in RESTORING_CRASHES] + [RESCUE_STORM]


@pytest.mark.parametrize("storm", STORMS, ids=[f"seed{s['seed']}-{s['faults'].crash_probability}"
                                               for s in STORMS])
def test_no_adopted_or_stale_completion_is_left_after_an_absorb_in_a_storm(storm):
    with _checked_absorbs() as dropped:
        _, stats, counters = _run("columnar", **storm)
    assert counters["container_crashes"] > 0 and stats["boundaries_full"] > 0
    assert dropped[0] > 0, "every boundary's materialized completions are dropped again"


@given(
    crash_probability=st.floats(min_value=0.0, max_value=0.2),
    rate=st.floats(min_value=4.0, max_value=25.0),
    seed=st.integers(min_value=0, max_value=2**16),
    policy=st.sampled_from(SHARED_QUEUE_POLICIES),
)
@example(crash_probability=0.1, rate=20.0, seed=23, policy="lass")
@example(crash_probability=0.1, rate=20.0, seed=23, policy="hybrid")
@SIM_PROPERTY_SETTINGS
def test_no_adopted_or_stale_completion_is_left_after_an_absorb_under_faults(
        crash_probability, rate, seed, policy):
    """The faulted differential strategy (``test_random_faulted_workloads_byte_for_byte``), columnar side."""
    overrides = {"controller.policy": policy, "data_plane": "columnar"}
    if policy == "static":
        overrides["controller.policy_params"] = {"allocations": {"squeezenet": 4}}
    spec = apply_overrides(build("flaky-containers", crash_probability=crash_probability,
                                 rate=rate, duration=45.0, seed=seed), overrides)
    request_module._request_counter = itertools.count(0)
    with _checked_absorbs():
        run_scenario(spec)


# ----------------------------------------------------------------------
# The benchmark's columnar workloads cross the same boundaries
# ----------------------------------------------------------------------
#: ``SimulationResult.kernel_stats`` of the benchmark's columnar workloads at
#: seed 7, as the tree read them while each completion was a cancellable
#: ``Event`` record (commit 7c652fb).
KERNEL_STATS = {
    "steady_columnar": {"boundaries_full": 15, "warm_ups": 39, "slots_rebuilt": 760,
                        "rows_materialized": 6777},
    "burst_control": {"boundaries_full": 77, "warm_ups": 912, "slots_rebuilt": 2153,
                      "rows_materialized": 3198},
}


@pytest.mark.parametrize("workload", sorted(KERNEL_STATS))
def test_the_benchmark_workloads_keep_their_kernel_stats(workload):
    """No stale completion adds a boundary: the counts are the Event-record tree's."""
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    import drive
    import workloads

    inputs = workloads.generate(workload, 7)
    runner, _ = drive.build_simulation(inputs)
    assert runner.run(duration=inputs["duration"]).kernel_stats == KERNEL_STATS[workload]
