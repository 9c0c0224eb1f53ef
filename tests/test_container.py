"""Unit tests for the container model: lifecycle, execution, deflation."""

import dataclasses

import pytest

from repro.cluster.container import Container, ContainerError, ContainerState
from repro.sim.request import Request, RequestStatus


def make_container(**kwargs) -> Container:
    defaults = dict(function_name="fn", node_name="node-0", standard_cpu=1.0, memory_mb=512)
    defaults.update(kwargs)
    return Container(**defaults)


def make_request(arrival=0.0, work=0.1) -> Request:
    return Request(function_name="fn", arrival_time=arrival, work=work)


class TestLifecycle:
    def test_starts_in_starting_state(self):
        container = make_container()
        assert container.state is ContainerState.STARTING
        assert not container.is_available

    def test_mark_warm(self):
        container = make_container()
        container.mark_warm(0.5)
        assert container.state is ContainerState.WARM
        assert container.warm_since == 0.5
        assert container.is_available and container.is_idle

    def test_cannot_warm_twice(self):
        container = make_container()
        container.mark_warm(0.5)
        with pytest.raises(ContainerError):
            container.mark_warm(0.6)

    def test_draining_and_rescue(self):
        container = make_container()
        container.mark_warm(0.0)
        container.mark_draining()
        assert container.state is ContainerState.DRAINING
        assert not container.is_available
        container.unmark_draining()
        assert container.state is ContainerState.WARM

    def test_terminate_drops_queued_and_running_work(self, engine):
        container = make_container()
        container.mark_warm(0.0)
        first, second = make_request(), make_request()
        container.submit(first, engine)
        container.submit(second, engine)
        dropped = container.terminate(1.0)
        assert {r.request_id for r in dropped} == {first.request_id, second.request_id}
        assert first.status is RequestStatus.DROPPED
        assert container.state is ContainerState.TERMINATED

    def test_terminate_is_idempotent(self):
        container = make_container()
        container.mark_warm(0.0)
        assert container.terminate(1.0) == []
        assert container.terminate(2.0) == []


class TestDeflation:
    def test_deflate_by_ratio(self):
        container = make_container(standard_cpu=2.0)
        released = container.deflate_by(0.3)
        assert released == pytest.approx(0.6)
        assert container.current_cpu == pytest.approx(1.4)
        assert container.deflation_ratio == pytest.approx(0.3)

    def test_deflate_to_absolute_level(self):
        container = make_container(standard_cpu=2.0)
        container.deflate_to(1.5)
        assert container.cpu_fraction == pytest.approx(0.75)

    def test_deflate_never_exceeds_standard(self):
        container = make_container(standard_cpu=1.0)
        released = container.deflate_to(5.0)
        assert container.current_cpu == 1.0
        assert released == 0.0

    def test_inflate_restores_standard(self):
        container = make_container(standard_cpu=2.0)
        container.deflate_by(0.5)
        consumed = container.inflate()
        assert consumed == pytest.approx(1.0)
        assert container.current_cpu == 2.0

    def test_invalid_deflation_ratio_rejected(self):
        container = make_container()
        with pytest.raises(ValueError):
            container.deflate_by(1.0)
        with pytest.raises(ValueError):
            container.deflate_by(-0.1)

    def test_cannot_resize_terminated_container(self):
        container = make_container()
        container.mark_warm(0.0)
        container.terminate(1.0)
        with pytest.raises(ContainerError):
            container.deflate_to(0.5)

    def test_speed_follows_curve(self):
        container = make_container(standard_cpu=2.0, speed_of_cpu=lambda f: f**2)
        container.deflate_to(1.0)
        assert container.speed == pytest.approx(0.25)

    def test_default_speed_proportional(self):
        container = make_container(standard_cpu=2.0)
        container.deflate_to(1.0)
        assert container.speed == pytest.approx(0.5)


class TestExecution:
    def test_request_executes_for_work_divided_by_speed(self, engine):
        container = make_container()
        container.mark_warm(0.0)
        request = make_request(work=0.2)
        container.submit(request, engine)
        engine.run()
        assert request.status is RequestStatus.COMPLETED
        assert request.service_time == pytest.approx(0.2)

    def test_deflated_container_runs_slower(self, engine):
        container = make_container(standard_cpu=1.0)
        container.deflate_to(0.5)
        container.mark_warm(0.0)
        request = make_request(work=0.2)
        container.submit(request, engine)
        engine.run()
        assert request.service_time == pytest.approx(0.4)

    def test_fcfs_order(self, engine):
        container = make_container()
        container.mark_warm(0.0)
        first = make_request(work=0.1)
        second = make_request(work=0.1)
        container.submit(first, engine)
        container.submit(second, engine)
        engine.run()
        assert first.completion_time < second.completion_time
        assert second.waiting_time == pytest.approx(0.1)

    def test_completion_callback_invoked(self, engine):
        container = make_container()
        container.mark_warm(0.0)
        seen = []
        container.submit(make_request(), engine, on_complete=lambda r, c: seen.append((r, c)))
        engine.run()
        assert len(seen) == 1
        assert seen[0][1] is container

    def test_queued_request_starts_when_container_warms(self, engine):
        container = make_container()
        request = make_request()
        container.submit(request, engine)      # still cold
        assert request.status is RequestStatus.QUEUED
        container.mark_warm(1.0)
        container.on_warm_start(engine)
        engine.run()
        assert request.status is RequestStatus.COMPLETED

    def test_cannot_submit_to_terminated_container(self, engine):
        container = make_container()
        container.mark_warm(0.0)
        container.terminate(0.5)
        with pytest.raises(ContainerError):
            container.submit(make_request(), engine)

    def test_in_flight_and_queue_length(self, engine):
        container = make_container()
        container.mark_warm(0.0)
        container.submit(make_request(work=10.0), engine)
        container.submit(make_request(work=10.0), engine)
        assert container.in_flight == 2
        assert container.queue_length == 1
        assert not container.is_idle

    def test_completed_requests_counter(self, engine):
        container = make_container()
        container.mark_warm(0.0)
        for _ in range(3):
            container.submit(make_request(work=0.01), engine)
        engine.run()
        assert container.completed_requests == 3

    def test_draining_container_finishes_queued_work(self, engine):
        container = make_container()
        container.mark_warm(0.0)
        first = make_request(work=0.1)
        second = make_request(work=0.1)
        container.submit(first, engine)
        container.submit(second, engine)
        container.mark_draining()
        engine.run()
        assert first.status is RequestStatus.COMPLETED
        assert second.status is RequestStatus.COMPLETED


class _NoQueue:
    """Stands in for ``Container._queue``: empty, and any use of it beyond a truth test fails."""

    def __bool__(self):
        return False

    def __getattr__(self, name):
        raise AssertionError(f"the idle hand-off touched _queue.{name}")


class TestHandOff:
    """An idle warm container starts a request in one hop; everything else queues FCFS."""

    def test_idle_warm_submit_never_touches_the_queue(self, engine):
        container = make_container()
        container.mark_warm(0.0)
        container._queue = _NoQueue()
        seen = []
        for _ in range(3):  # each submit finds the container idle again
            request = make_request(work=0.1)
            container.submit(request, engine, on_complete=lambda r, c: seen.append(r))
            assert request.status is RequestStatus.RUNNING
            assert container.current_request is request
            engine.run()
            assert request.status is RequestStatus.COMPLETED
        assert len(seen) == 3 and container.completed_requests == 3

    def test_queued_request_waiting_since_submitted_queued_is_started_directly(self, engine):
        container = make_container()
        container.mark_warm(0.0)
        request = make_request()
        request.mark_queued()  # waited in a controller-level queue first
        container.submit(request, engine)
        assert request.status is RequestStatus.RUNNING and container.queue_length == 0

    @pytest.mark.parametrize("phase", ["starting", "draining", "busy"])
    def test_other_containers_keep_fcfs_order_through_the_deque(self, engine, phase):
        container = make_container()
        if phase != "starting":
            container.mark_warm(0.0)
            container.submit(make_request(work=0.5), engine)  # now busy
        if phase == "draining":
            container.mark_draining()
        waiting = [make_request(work=0.1) for _ in range(4)]
        for request in waiting:
            container.submit(request, engine)
            assert request.status is RequestStatus.QUEUED
        assert list(container._queue) == waiting
        if phase == "starting":
            container.mark_warm(1.0)
            container.on_warm_start(engine)
        engine.run()
        starts = [r.start_time for r in waiting]
        assert all(r.status is RequestStatus.COMPLETED for r in waiting)
        assert starts == sorted(starts) and len(set(starts)) == 4

    def test_idle_draining_container_queues_without_starting(self, engine):
        container = make_container()
        container.mark_warm(0.0)
        container.mark_draining()
        request = make_request()
        container.submit(request, engine)
        assert request.status is RequestStatus.QUEUED and container.current_request is None

    def test_cold_start_flag_marks_exactly_the_first_request_started_at_warm_since(self, engine):
        # through the deque: three requests wait out the cold start
        container = make_container()
        waited = [make_request(work=0.1) for _ in range(3)]
        for request in waited:
            container.submit(request, engine)
        engine.schedule(1.0, lambda: (container.mark_warm(engine.now),
                                      container.on_warm_start(engine)))
        engine.run()
        assert [r.cold_start for r in waited] == [True, False, False]

        # in one hop: the first arrives at the very instant the container warms
        container = make_container()
        arriving = [make_request(work=0.1) for _ in range(3)]
        engine.schedule(1.0, container.mark_warm, engine.now + 1.0)
        for delay, request in zip((1.0, 1.5, 2.0), arriving):
            engine.schedule(delay, container.submit, request, engine)
        engine.run()
        assert all(r.status is RequestStatus.COMPLETED for r in arriving)
        assert [r.cold_start for r in arriving] == [True, False, False]

    def test_request_arriving_after_warm_since_is_not_a_cold_start(self, engine):
        container = make_container()
        container.mark_warm(0.0)
        engine.schedule(0.25, lambda: None)
        engine.run()
        request = make_request()
        container.submit(request, engine)
        assert request.status is RequestStatus.RUNNING and request.cold_start is False

    @pytest.mark.parametrize("busy", [False, True])
    def test_submitting_a_running_or_finished_request_raises(self, engine, busy):
        container = make_container()
        container.mark_warm(0.0)
        if busy:
            container.submit(make_request(work=5.0), engine)
        running = make_request()
        running.mark_running(0.0, "elsewhere", "n9")
        finished = make_request()
        finished.mark_running(0.0, "elsewhere", "n9")
        finished.mark_completed(0.1)
        before = (container.current_request, container.queue_length)
        for request in (running, finished):
            with pytest.raises(ContainerError):
                container.submit(request, engine)
        assert (container.current_request, container.queue_length) == before

    def test_the_three_idle_predicates_agree(self, engine):
        container = make_container()
        states = []

        def note():
            states.append((container.is_available, container.is_idle, container.is_dispatchable))
            assert container.is_dispatchable == (container.is_available and container.is_idle)

        note()                                   # STARTING
        container.mark_warm(0.0); note()         # WARM, idle
        container.submit(make_request(), engine); note()   # busy
        engine.run(); note()                     # idle again
        container.mark_draining(); note()        # DRAINING
        container.terminate(engine.now); note()  # TERMINATED
        assert states == [(False, False, False), (True, True, True), (True, False, False),
                          (True, True, True), (False, False, False), (False, False, False)]


def request_in(status: RequestStatus) -> Request:
    """A fresh request brought to ``status`` through the Request's own transitions."""
    request = make_request()
    if status is RequestStatus.QUEUED:
        request.mark_queued()
    elif status in (RequestStatus.RUNNING, RequestStatus.COMPLETED):
        request.mark_running(0.0, "elsewhere", "n9")
        if status is RequestStatus.COMPLETED:
            request.mark_completed(0.1)
    elif status is RequestStatus.DROPPED:
        request.mark_dropped(0.0)
    elif status is RequestStatus.TIMED_OUT:
        request.mark_timed_out(0.0)
    return request


class TestInlineTransitions:
    """``_start`` and ``_finish_current`` write the Request's transitions inline.

    Each must test the status as ``Request.mark_running`` /
    ``mark_completed`` do and refuse with the same error, leaving the
    container and the request as they were.
    """

    @pytest.mark.parametrize("status", [RequestStatus.DROPPED, RequestStatus.RUNNING,
                                        RequestStatus.COMPLETED, RequestStatus.TIMED_OUT])
    def test_start_refuses_what_mark_running_refuses(self, engine, status):
        request, twin = request_in(status), request_in(status)
        with pytest.raises(ValueError) as expected:
            twin.mark_running(0.0, "c", "n")
        container = make_container()
        container.mark_warm(0.0)
        before = (request.status, request.start_time, request.container_id)
        with pytest.raises(ValueError) as refused:
            container._start(request, engine, None)
        assert str(refused.value) == str(expected.value) == f"cannot start request in state {status}"
        assert container.current_request is None and engine.pending_events == 0
        assert (request.status, request.start_time, request.container_id) == before

    @pytest.mark.parametrize("status", [RequestStatus.PENDING, RequestStatus.QUEUED])
    def test_start_writes_what_mark_running_writes(self, engine, status):
        request, twin = request_in(status), request_in(status)
        container = make_container()
        container.mark_warm(0.0)
        container._start(request, engine, None)
        twin.mark_running(engine.now, container.container_id, container.node_name,
                          cold_start=True)
        fields = ("status", "start_time", "container_id", "node_name", "cold_start")
        assert [getattr(request, f) for f in fields] == [getattr(twin, f) for f in fields]
        engine.run()
        twin.mark_completed(engine.now)
        fields += ("completion_time",)
        assert [getattr(request, f) for f in fields] == [getattr(twin, f) for f in fields]

    @pytest.mark.parametrize("status", [RequestStatus.PENDING, RequestStatus.QUEUED,
                                        RequestStatus.COMPLETED, RequestStatus.DROPPED,
                                        RequestStatus.TIMED_OUT])
    def test_a_completion_refuses_a_request_that_is_not_running(self, engine, status):
        container = make_container()
        container.mark_warm(0.0)
        request = make_request(work=1.0)
        container.submit(request, engine)
        request.status = status             # changed under the container's feet
        twin = dataclasses.replace(request)  # same id, same fields
        with pytest.raises(ValueError) as expected:
            twin.mark_completed(1.0)
        with pytest.raises(ValueError) as refused:
            engine.run()
        assert str(refused.value) == str(expected.value) == (
            f"request {request.request_id} is {status.value}, expected running")
        assert request.status is status and request.completion_time is None
        assert container.completed_requests == 0 and container.current_request is request

    @pytest.mark.parametrize("status", [RequestStatus.QUEUED, RequestStatus.RUNNING,
                                        RequestStatus.COMPLETED, RequestStatus.DROPPED])
    def test_mark_queued_refuses_a_request_that_is_not_pending(self, status):
        request = request_in(status)
        with pytest.raises(ValueError) as refused:
            request.mark_queued()
        assert str(refused.value) == (
            f"request {request.request_id} is {status.value}, expected pending")
        assert request.status is status


class TestValidation:
    def test_positive_sizes_required(self):
        with pytest.raises(ValueError):
            make_container(standard_cpu=0.0)
        with pytest.raises(ValueError):
            make_container(memory_mb=-1)
