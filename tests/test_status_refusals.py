"""Every refusal and skip of the request-status and container-state checks, member by member.

The per-request paths test a request's status and a container's state by
identity against members bound once at import (``_QUEUED =
RequestStatus.QUEUED``), and a two-member test is an ``is not`` chain,
not a tuple membership test.  Each check below runs over every member of
both enums, so a constant bound to the wrong member, or a chain that lost
a term, fails a cell.  The container, request and dispatcher are driven
through their own methods; a status no method produces (a ``TIMED_OUT``,
or a status changed while the request waits) is written to the field.
``Container._start``'s and ``_finish_current``'s status refusals and
``Request.mark_queued``'s cover every member in
``test_container.py::TestInlineTransitions``.
"""

import pytest

from repro.cluster.container import Container, ContainerError, ContainerState
from repro.core.dispatch import SharedQueueDispatcher
from repro.metrics.collector import MetricsCollector
from repro.sim.request import Request, RequestStatus

STATUSES = list(RequestStatus)
STATES = list(ContainerState)
STARTABLE = (RequestStatus.PENDING, RequestStatus.QUEUED)


def request_in(status: RequestStatus, work: float = 0.1) -> Request:
    """A fresh request whose status field reads ``status``."""
    request = Request(function_name="fn", arrival_time=0.0, work=work)
    request.status = status
    return request


def container_in(state: ContainerState) -> Container:
    """A standalone container brought to ``state`` through its lifecycle marks."""
    container = Container(function_name="fn", node_name="node-0", standard_cpu=1.0, memory_mb=512)
    if state is not ContainerState.STARTING:
        container.mark_warm(0.0)
    if state is ContainerState.DRAINING:
        container.mark_draining()
    elif state is ContainerState.TERMINATED:
        container.terminate(0.0)
    assert container.state is state
    return container


def test_the_members_are_the_six_statuses_and_four_states():
    assert [s.name for s in STATUSES] == [
        "PENDING", "QUEUED", "RUNNING", "COMPLETED", "DROPPED", "TIMED_OUT"]
    assert [s.name for s in STATES] == ["STARTING", "WARM", "DRAINING", "TERMINATED"]


@pytest.mark.parametrize("status", STATUSES, ids=lambda s: s.name)
def test_a_completion_for_a_request_that_is_not_current_does_nothing(engine, status):
    container = container_in(ContainerState.WARM)
    running = request_in(RequestStatus.PENDING)
    container._start(running, engine, None)
    other = request_in(status)
    completions = []
    container._finish_current(other, engine, lambda r, c: completions.append(r))
    assert other.status is status and other.completion_time is None
    assert container.current_request is running and running.status is RequestStatus.RUNNING
    assert container.completed_requests == 0 and completions == []


@pytest.mark.parametrize("state", STATES, ids=lambda s: s.name)
@pytest.mark.parametrize("status", STATUSES, ids=lambda s: s.name)
def test_submit_refuses_a_terminated_container_then_a_request_it_cannot_take(
        engine, state, status):
    container = container_in(state)
    request = request_in(status)
    if state is ContainerState.TERMINATED or status not in STARTABLE:
        with pytest.raises(ContainerError) as refused:
            container.submit(request, engine)
        if state is ContainerState.TERMINATED:
            assert str(refused.value) == (
                f"cannot submit to container {container.container_id} in state terminated")
        else:
            assert str(refused.value) == (
                f"cannot submit request in state {status.value} to {container.container_id}")
        assert request.status is status
        assert container.current_request is None and container.queue_length == 0
        assert container.state is state and engine.pending_events == 0
        return
    container.submit(request, engine)
    if state is ContainerState.WARM:        # idle and warm: it starts at once
        assert request.status is RequestStatus.RUNNING and container.current_request is request
    else:                                   # starting or draining: it waits in the FCFS queue
        assert request.status is RequestStatus.QUEUED and container.queue_length == 1
        assert container.current_request is None and engine.pending_events == 0


@pytest.mark.parametrize("status", STATUSES, ids=lambda s: s.name)
def test_mark_dropped_refuses_only_a_final_request(status):
    request = request_in(status)
    if status in (RequestStatus.COMPLETED, RequestStatus.TIMED_OUT):
        with pytest.raises(ValueError) as refused:
            request.mark_dropped(1.0)
        assert str(refused.value) == f"cannot drop request in state {status}"
        assert request.status is status and request.completion_time is None
        return
    request.mark_dropped(1.0)
    assert request.status is RequestStatus.DROPPED and request.completion_time == 1.0


def watched(dispatcher: SharedQueueDispatcher) -> Container:
    """A warm standalone container in ``dispatcher``'s idle index."""
    container = container_in(ContainerState.WARM)
    dispatcher.watch_container(container)
    return container


@pytest.mark.parametrize("status", STATUSES, ids=lambda s: s.name)
def test_drain_starts_only_a_queued_request(engine, status):
    dispatcher = SharedQueueDispatcher(engine)
    request = request_in(RequestStatus.PENDING)
    assert dispatcher.submit(request) is False  # nothing warm yet: it queues
    request.status = status                     # changed while it waited
    container = watched(dispatcher)
    started = dispatcher.drain("fn")
    assert dispatcher.queue_length("fn") == 0
    if status is RequestStatus.QUEUED:
        assert started == 1 and request.status is RequestStatus.RUNNING
        assert container.current_request is request
    else:
        assert started == 0 and request.status is status
        assert container.is_idle and dispatcher._idle["fn"] == {container.container_id: container}


@pytest.mark.parametrize("status", STATUSES, ids=lambda s: s.name)
def test_requeue_takes_back_only_a_queued_request(engine, status):
    dispatcher = SharedQueueDispatcher(engine)
    request = request_in(status)
    dispatcher.requeue([request])
    expected = [request] if status is RequestStatus.QUEUED else []
    assert dispatcher.queued_requests("fn") == expected
    assert request.status is status


@pytest.mark.parametrize("status", STATUSES, ids=lambda s: s.name)
def test_a_completion_pulls_only_a_queued_request(engine, status):
    dispatcher = SharedQueueDispatcher(engine)
    container = watched(dispatcher)
    first = request_in(RequestStatus.PENDING)
    waiting = request_in(RequestStatus.PENDING)
    assert dispatcher.submit(first) is True
    assert dispatcher.submit(waiting) is False   # the one container is busy
    waiting.status = status                      # changed while it waited
    assert engine.step()                         # ``first`` completes; the hook pulls
    assert first.status is RequestStatus.COMPLETED
    assert dispatcher.queue_length("fn") == 0
    if status is RequestStatus.QUEUED:
        assert waiting.status is RequestStatus.RUNNING and container.current_request is waiting
        assert "fn" not in dispatcher._idle or not dispatcher._idle["fn"]
    else:
        assert waiting.status is status and waiting.start_time is None
        assert container.is_idle and dispatcher._idle["fn"] == {container.container_id: container}


def test_the_collector_reads_completed_and_final_drops_by_status():
    """``completed_requests`` is the COMPLETED one; ``dropped_requests`` DROPPED and TIMED_OUT."""
    collector = MetricsCollector()
    by_status = {status: request_in(status) for status in STATUSES}
    other = request_in(RequestStatus.TIMED_OUT)
    other.function_name = "other"
    for request in [*by_status.values(), other]:
        collector.record_request(request)
    assert collector.completed_requests() == [by_status[RequestStatus.COMPLETED]]
    assert collector.dropped_requests() == [
        by_status[RequestStatus.DROPPED], by_status[RequestStatus.TIMED_OUT], other]
    assert collector.dropped_requests("fn") == [
        by_status[RequestStatus.DROPPED], by_status[RequestStatus.TIMED_OUT]]
    assert collector.completed_requests("other") == []
