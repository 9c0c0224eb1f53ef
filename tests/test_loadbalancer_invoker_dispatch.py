"""Unit tests for the WRR load balancer and the shared-queue dispatcher."""

import collections

import pytest

from repro.cluster.cluster import ClusterConfig, EdgeCluster, FunctionDeployment
from repro.cluster.container import Container
from repro.cluster.loadbalancer import WeightedRoundRobinBalancer
from repro.core.dispatch import SharedQueueDispatcher
from repro.metrics.collector import MetricsCollector
from repro.sim.request import Request, RequestStatus


def warm_container(cpu=1.0, name="fn") -> Container:
    container = Container(function_name=name, node_name="n0", standard_cpu=cpu, memory_mb=128)
    container.mark_warm(0.0)
    return container


def watched_container(dispatcher, cpu=1.0) -> Container:
    """A warm standalone container tracked in ``dispatcher``'s idle index."""
    container = warm_container(cpu=cpu)
    dispatcher.watch_container(container)
    return container


def make_request(name="fn", work=0.1, arrival=0.0) -> Request:
    return Request(function_name=name, arrival_time=arrival, work=work)


def dispatch_counts(balancer, function_name, containers, n):
    """``n`` consecutive picks, counted per container id."""
    counts = {c.container_id: 0 for c in containers}
    for _ in range(n):
        chosen = balancer.pick(function_name, containers)
        if chosen is None:
            break
        counts[chosen.container_id] += 1
    return counts


class TestWeightedRoundRobin:
    def test_equal_weights_round_robin_evenly(self):
        balancer = WeightedRoundRobinBalancer()
        containers = [warm_container() for _ in range(3)]
        counts = dispatch_counts(balancer, "fn", containers, 300)
        assert all(count == 100 for count in counts.values())

    def test_weights_follow_cpu_allocation(self):
        balancer = WeightedRoundRobinBalancer()
        big, small = warm_container(cpu=2.0), warm_container(cpu=1.0)
        counts = dispatch_counts(balancer, "fn", [big, small], 300)
        assert counts[big.container_id] == 200
        assert counts[small.container_id] == 100

    def test_deflated_container_receives_less(self):
        balancer = WeightedRoundRobinBalancer()
        a, b = warm_container(), warm_container()
        b.deflate_to(0.5)
        counts = dispatch_counts(balancer, "fn", [a, b], 300)
        assert counts[a.container_id] == 200
        assert counts[b.container_id] == 100

    def test_smooth_interleaving_not_bursty(self):
        balancer = WeightedRoundRobinBalancer()
        big, small = warm_container(cpu=3.0), warm_container(cpu=1.0)
        picks = [balancer.pick("fn", [big, small]).container_id for _ in range(8)]
        # the small container should never wait more than 4 picks in a row
        assert small.container_id in picks[:4]
        assert small.container_id in picks[4:]

    def test_returns_none_without_available_containers(self):
        balancer = WeightedRoundRobinBalancer()
        cold = Container(function_name="fn", node_name="n0", standard_cpu=1.0, memory_mb=128)
        assert balancer.pick("fn", []) is None
        assert balancer.pick("fn", [cold]) is None

    def test_state_pruned_for_gone_containers(self):
        balancer = WeightedRoundRobinBalancer()
        a, b = warm_container(), warm_container()
        balancer.pick("fn", [a, b])
        balancer.pick("fn", [a])
        assert b.container_id not in balancer._scores["fn"]

    def test_reset(self):
        balancer = WeightedRoundRobinBalancer()
        balancer.pick("fn", [warm_container()])
        balancer.reset("fn")
        assert "fn" not in balancer._scores


class TestSharedQueueDispatcher:
    def test_dispatches_to_idle_container_immediately(self, engine):
        dispatcher = SharedQueueDispatcher(engine)
        watched_container(dispatcher)
        request = make_request()
        assert dispatcher.submit(request) is True
        engine.run()
        assert request.status is RequestStatus.COMPLETED
        assert request.waiting_time == 0.0

    def test_queues_when_all_containers_busy(self, engine):
        dispatcher = SharedQueueDispatcher(engine)
        watched_container(dispatcher)
        first, second = make_request(work=0.2), make_request(work=0.2)
        dispatcher.submit(first)
        assert dispatcher.submit(second) is False
        assert dispatcher.queue_length("fn") == 1
        engine.run()
        assert second.status is RequestStatus.COMPLETED
        assert second.waiting_time == pytest.approx(0.2)

    def test_behaves_like_shared_queue_not_per_container(self, engine):
        # with 2 containers and 3 requests, the third runs on whichever
        # container frees first — total makespan 2 service times, not 3
        dispatcher = SharedQueueDispatcher(engine)
        watched_container(dispatcher)
        watched_container(dispatcher)
        requests = [make_request(work=0.1) for _ in range(3)]
        for request in requests:
            dispatcher.submit(request)
        engine.run()
        assert max(r.completion_time for r in requests) == pytest.approx(0.2)

    def test_drain_moves_queued_work_to_new_containers(self, engine):
        dispatcher = SharedQueueDispatcher(engine)
        request = make_request()
        dispatcher.submit(request)              # nothing warm yet
        assert dispatcher.queue_length("fn") == 1
        watched_container(dispatcher)
        started = dispatcher.drain("fn")
        assert started == 1
        engine.run()
        assert request.status is RequestStatus.COMPLETED

    def test_a_completion_is_counted_and_folded_by_the_dispatcher(self, engine):
        observed = []

        class Estimator:
            def observe(self, cpu_fraction, service_time):
                observed.append((cpu_fraction, service_time))

        metrics = MetricsCollector()
        dispatcher = SharedQueueDispatcher(engine, metrics, {"fn": Estimator()})
        assert dispatcher.metrics is metrics
        watched_container(dispatcher, cpu=2.0).deflate_to(1.0)
        request = make_request(work=0.1)
        dispatcher.submit(request)
        engine.run()
        assert metrics.counters["completions"] == 1
        assert observed == [(0.5, request.service_time)]
        # a bare dispatcher counts in a collector of its own and folds nothing
        bare = SharedQueueDispatcher(engine)
        watched_container(bare)
        bare.submit(make_request())
        engine.run()
        assert bare.metrics.counters["completions"] == 1 and bare.completion_folds is None

    def test_skips_requests_dropped_while_queued(self, engine):
        dispatcher = SharedQueueDispatcher(engine)
        request = make_request()
        dispatcher.submit(request)
        request.mark_dropped(1.0)
        watched_container(dispatcher)
        started = dispatcher.drain("fn")
        assert started == 0

    def test_total_queued_counts_all_functions(self, engine):
        dispatcher = SharedQueueDispatcher(engine)
        dispatcher.submit(make_request(name="a"))
        dispatcher.submit(make_request(name="b"))
        assert dispatcher.total_queued() == 2

    def test_larger_containers_get_more_dispatches(self, engine):
        dispatcher = SharedQueueDispatcher(engine)
        big = watched_container(dispatcher, cpu=2.0)
        small = watched_container(dispatcher, cpu=1.0)
        small.deflate_to(1.0)
        # submit many short requests with gaps so both are idle each time
        requests = [make_request(work=0.001, arrival=i * 1.0) for i in range(30)]
        for i, request in enumerate(requests):
            engine.schedule_at(i * 1.0, lambda r=request: dispatcher.submit(r))
        engine.run()
        assert all(r.status is RequestStatus.COMPLETED for r in requests)
        completions = collections.Counter(r.container_id for r in requests)
        assert completions[big.container_id] == 20
        assert completions[small.container_id] == 10


class TestIncrementalIdleSets:
    """Cluster-attached dispatch: idle sets maintained by state hooks."""

    @pytest.fixture
    def cluster(self, engine):
        cluster = EdgeCluster(engine, ClusterConfig())
        cluster.deploy(FunctionDeployment(name="fn", cpu=1.0, memory_mb=256))
        return cluster

    def _warm(self, engine, cluster, count=1):
        containers = [cluster.create_container("fn") for _ in range(count)]
        engine.run(until=engine.now + cluster.config.cold_start_latency + 1e-6)
        return containers

    def test_warm_container_enters_idle_set(self, engine, cluster):
        dispatcher = SharedQueueDispatcher(engine)
        dispatcher.attach_cluster(cluster)
        [container] = self._warm(engine, cluster)
        request = make_request()
        assert dispatcher.submit(request) is True
        engine.run()
        assert request.status is RequestStatus.COMPLETED
        assert request.container_id == container.container_id

    def test_attach_indexes_preexisting_containers(self, engine, cluster):
        [container] = self._warm(engine, cluster)
        dispatcher = SharedQueueDispatcher(engine)
        dispatcher.attach_cluster(cluster)  # attached after the container warmed
        assert dispatcher.submit(make_request()) is True

    def test_busy_container_leaves_idle_set(self, engine, cluster):
        dispatcher = SharedQueueDispatcher(engine)
        dispatcher.attach_cluster(cluster)
        self._warm(engine, cluster)
        first, second = make_request(work=0.2), make_request(work=0.2)
        assert dispatcher.submit(first) is True
        assert dispatcher.submit(second) is False  # only container busy -> queued
        engine.run()
        assert second.status is RequestStatus.COMPLETED
        # FCFS through the shared queue: the second starts when the first ends
        assert second.start_time == pytest.approx(first.completion_time)

    def test_draining_container_not_dispatchable(self, engine, cluster):
        dispatcher = SharedQueueDispatcher(engine)
        dispatcher.attach_cluster(cluster)
        [container] = self._warm(engine, cluster)
        container.mark_draining()
        assert dispatcher.submit(make_request()) is False
        # rescuing the container makes it dispatchable again without a rescan
        container.unmark_draining()
        assert dispatcher.submit(make_request()) is True

    def test_terminated_container_removed_from_idle_set(self, engine, cluster):
        dispatcher = SharedQueueDispatcher(engine)
        dispatcher.attach_cluster(cluster)
        [container] = self._warm(engine, cluster)
        cluster.terminate_container(container.container_id)
        assert dispatcher.submit(make_request()) is False
        assert dispatcher.queue_length("fn") == 1

    def test_completion_returns_container_to_idle_set(self, engine, cluster):
        dispatcher = SharedQueueDispatcher(engine)
        dispatcher.attach_cluster(cluster)
        self._warm(engine, cluster)
        first = make_request(work=0.1)
        dispatcher.submit(first)
        engine.run()
        assert first.status is RequestStatus.COMPLETED
        # the container completed and must be dispatchable again
        assert dispatcher.submit(make_request()) is True

    def test_deflated_container_stays_dispatchable(self, engine, cluster):
        dispatcher = SharedQueueDispatcher(engine)
        dispatcher.attach_cluster(cluster)
        [container] = self._warm(engine, cluster)
        cluster.deflate_container(container.container_id, 0.5)
        request = make_request(work=0.1)
        assert dispatcher.submit(request) is True
        engine.run()
        # half the CPU -> double the service time under the default curve
        assert request.service_time == pytest.approx(0.2)

    def test_stale_entries_discarded_lazily(self, engine, cluster):
        dispatcher = SharedQueueDispatcher(engine)
        dispatcher.attach_cluster(cluster)
        [container] = self._warm(engine, cluster)
        # bypass the dispatcher: the idle entry is now stale
        container.submit(make_request(work=0.5), engine)
        assert dispatcher.submit(make_request()) is False  # stale entry discarded, queued
        assert dispatcher.queue_length("fn") == 1

    def test_drain_without_explicit_list(self, engine, cluster):
        """``drain`` takes its candidates from the idle index."""
        dispatcher = SharedQueueDispatcher(engine)
        dispatcher.attach_cluster(cluster)
        request = make_request()
        dispatcher.submit(request)               # queued: nothing warm yet
        assert dispatcher.queue_length("fn") == 1
        self._warm(engine, cluster)
        assert dispatcher.drain("fn") == 1
        engine.run()
        assert request.status is RequestStatus.COMPLETED

    def test_deflation_then_termination_under_queue(self, engine, cluster):
        dispatcher = SharedQueueDispatcher(engine)
        dispatcher.attach_cluster(cluster)
        first, second = self._warm(engine, cluster, count=2)
        blocked = [make_request(work=1.0) for _ in range(4)]
        for request in blocked:
            dispatcher.submit(request)
        assert dispatcher.queue_length("fn") == 2
        dropped = cluster.terminate_container(first.container_id)
        assert len(dropped) == 1                 # the one running on the victim
        engine.run()
        # the survivor works through the shared queue alone
        done = [r for r in blocked if r.status is RequestStatus.COMPLETED]
        assert len(done) == 3
        assert all(r.container_id == second.container_id for r in done)


class TestSingleChokePoint:
    """Every route onto a container consults the interceptor once, from ``_dispatch_to``."""

    ROUTES = ("single-candidate submit", "multi-candidate submit", "completion pull", "drain")

    def _dispatch_once(self, engine, route, crash):
        """Set ``route`` up, arm the interceptor, make exactly one dispatch attempt."""
        import sys

        dispatcher = SharedQueueDispatcher(engine)
        consulted = []

        def interceptor(request, container):
            consulted.append((sys._getframe(1).f_code.co_name, request, container))
            if crash:  # what FaultInjector.apply_crash does to the two objects
                request.mark_dropped(engine.now)
                container.evict(engine.now)
            return not crash

        balancer = dispatcher.balancer
        for method in ("pick", "pick_idle", "forced_pick"):
            def spy(*args, _name=method, _original=getattr(balancer, method)):
                self.balancer_calls.append(_name)
                return _original(*args)
            setattr(balancer, method, spy)
        self.balancer_calls = []

        request = make_request(work=0.1)
        if route == "single-candidate submit":
            watched_container(dispatcher)
            dispatcher.interceptor = interceptor
            started = dispatcher.submit(request)
        elif route == "multi-candidate submit":
            watched_container(dispatcher, cpu=1.0)
            watched_container(dispatcher, cpu=2.0)
            dispatcher.interceptor = interceptor
            started = dispatcher.submit(request)
        elif route == "completion pull":
            watched_container(dispatcher)
            assert dispatcher.submit(make_request(work=0.1)) is True   # occupies it
            assert dispatcher.submit(request) is False                 # waits
            dispatcher.interceptor = interceptor
            engine.run(until=0.15)                                     # first one completes
            started = request.status is RequestStatus.RUNNING
        else:
            assert dispatcher.submit(request) is False                 # nothing to run on yet
            watched_container(dispatcher)
            dispatcher.interceptor = interceptor
            started = dispatcher.drain("fn") == 1
        return dispatcher, consulted, request, started

    @pytest.mark.parametrize("route", ROUTES)
    def test_healthy_dispatch_consults_once(self, engine, route):
        dispatcher, consulted, request, started = self._dispatch_once(engine, route, crash=False)
        assert started and request.status is RequestStatus.RUNNING
        assert [(caller, r) for caller, r, _ in consulted] == [("_dispatch_to", request)]
        assert consulted[0][2].current_request is request
        assert self.balancer_calls == {
            "single-candidate submit": ["forced_pick"],      # straight from the idle index
            "multi-candidate submit": ["pick_idle"],         # one pass over the index
            "completion pull": ["forced_pick"],              # only the set-up's own submit
            "drain": ["pick_idle", "forced_pick"],           # the single-survivor branch
        }[route]
        engine.run()
        assert request.status is RequestStatus.COMPLETED and len(consulted) == 1

    @pytest.mark.parametrize("route", ROUTES)
    def test_crash_fails_the_request_evicts_and_unindexes(self, engine, route):
        dispatcher, consulted, request, started = self._dispatch_once(engine, route, crash=True)
        assert not started
        assert [(caller, r) for caller, r, _ in consulted] == [("_dispatch_to", request)]
        crashed = consulted[0][2]
        # the same end state on the fast path as on the three general ones
        assert request.status is RequestStatus.DROPPED and request.start_time is None
        assert crashed.state.value == "terminated" and crashed.current_request is None
        assert crashed.container_id not in dispatcher._idle.get("fn", {})
        assert dispatcher.queue_length("fn") == 0          # failed, not queued
        engine.run()
        assert len(consulted) == 1


class TestUnattachedDispatcherHygiene:
    def test_unattached_dispatcher_does_not_pin_containers(self, engine):
        """A dispatcher nobody attached sees no containers: it indexes
        nothing (so nothing can leak) and queues every request."""
        dispatcher = SharedQueueDispatcher(engine)
        container = warm_container()
        assert dispatcher.submit(make_request(work=0.01)) is False
        container.terminate(engine.now)
        assert dispatcher.drain("fn") == 0
        assert all(not index for index in dispatcher._idle.values())

    def test_watch_container_tracks_standalone_container(self, engine):
        dispatcher = SharedQueueDispatcher(engine)
        container = warm_container()
        dispatcher.watch_container(container)
        request = make_request()
        assert dispatcher.submit(request) is True
        engine.run()
        assert request.status is RequestStatus.COMPLETED
        container.terminate(engine.now)
        assert all(not index for index in dispatcher._idle.values())

    def test_watch_container_refuses_cluster_owned_containers(self, engine):
        cluster = EdgeCluster(engine, ClusterConfig())
        cluster.deploy(FunctionDeployment(name="fn", cpu=1.0, memory_mb=256))
        container = cluster.create_container("fn")
        dispatcher = SharedQueueDispatcher(engine)
        with pytest.raises(ValueError):
            dispatcher.watch_container(container)
