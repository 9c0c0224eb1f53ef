"""Unit tests for RNG streams and the request lifecycle."""

import pytest

from repro.sim.request import Request, RequestStatus
from repro.sim.rng import RngStreams


class TestRngStreams:
    def test_same_seed_same_stream_is_reproducible(self):
        a = RngStreams(42).stream("arrivals").exponential(1.0)
        b = RngStreams(42).stream("arrivals").exponential(1.0)
        assert a == b

    def test_different_names_give_different_draws(self):
        rng = RngStreams(42)
        a = rng.stream("arrivals").random(100)
        b = rng.stream("service").random(100)
        assert not (a == b).all()

    def test_different_seeds_give_different_draws(self):
        a = RngStreams(1).stream("x").random(50)
        b = RngStreams(2).stream("x").random(50)
        assert not (a == b).all()

    def test_stream_is_cached(self):
        rng = RngStreams(7)
        assert rng.stream("a") is rng.stream("a")

    def test_reset_single_stream(self):
        rng = RngStreams(7)
        first = rng.stream("a").random()
        rng.reset("a")
        assert rng.stream("a").random() == first

    def test_reset_all_streams(self):
        rng = RngStreams(7)
        first_a = rng.stream("a").random()
        first_b = rng.stream("b").random()
        rng.reset()
        assert rng.stream("a").random() == first_a
        assert rng.stream("b").random() == first_b

    def test_spawn_is_deterministic_and_independent(self):
        child1 = RngStreams(9).spawn("worker")
        child2 = RngStreams(9).spawn("worker")
        assert child1.master_seed == child2.master_seed
        assert child1.master_seed != 9

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RngStreams(1).stream("")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStreams(-1)

    def test_names_lists_created_streams(self):
        rng = RngStreams(3)
        rng.stream("x")
        rng.stream("y")
        assert set(rng.names()) == {"x", "y"}


def run_and_complete(request, start, completion):
    """Write what a container's ``_start`` and ``_finish_current`` write."""
    request.status = RequestStatus.COMPLETED
    request.start_time, request.completion_time = start, completion
    request.container_id, request.node_name = "c1", "node-0"


class TestRequestLifecycle:
    def make(self, **kwargs) -> Request:
        defaults = dict(function_name="fn", arrival_time=1.0, work=0.05)
        defaults.update(kwargs)
        return Request(**defaults)

    def test_initial_state(self):
        request = self.make()
        assert request.status is RequestStatus.PENDING
        assert request.waiting_time is None
        assert request.service_time is None

    def test_full_lifecycle_metrics(self):
        request = self.make()
        request.mark_queued()
        run_and_complete(request, 1.2, 1.3)
        assert request.waiting_time == pytest.approx(0.2)
        assert request.service_time == pytest.approx(0.1)

    def test_drop_records_completion_time(self):
        request = self.make()
        request.mark_queued()
        request.mark_dropped(2.0)
        assert request.status is RequestStatus.DROPPED
        assert request.completion_time == 2.0

    def test_cannot_drop_completed_request(self):
        request = self.make()
        run_and_complete(request, 1.0, 1.1)
        with pytest.raises(ValueError):
            request.mark_dropped(1.2)

    def test_request_ids_are_unique(self):
        ids = {self.make().request_id for _ in range(100)}
        assert len(ids) == 100

    def test_queue_transition_requires_pending(self):
        request = self.make()
        request.mark_queued()
        with pytest.raises(ValueError):
            request.mark_queued()
