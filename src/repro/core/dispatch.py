"""Shared per-function request queue + idle-container dispatch.

OpenWhisk's controller tracks how many activations are in flight on
every container and only forwards a new invocation to a container with
a free slot; excess invocations wait in the controller (Kafka) until a
slot frees up.  The effect is a *shared FCFS queue per function* in
front of the function's containers — which is exactly the M/M/c system
the paper's sizing model assumes (each container is a "queueing
server").

:class:`SharedQueueDispatcher` reproduces that data path for the
simulator: requests go to an idle container immediately when one
exists (chosen by weighted round robin, so larger/faster containers
take proportionally more of the load when sizes are heterogeneous) and
otherwise wait in the function's queue; whenever a container finishes a
request or a new container warms up, the queue is drained.

Fast path
---------
When the dispatcher is attached to a cluster
(:meth:`SharedQueueDispatcher.attach_cluster`), it maintains
**per-function idle sets incrementally**: containers enter the set when
they warm up or finish a request with an empty queue, and leave it when
they receive work, start draining, or terminate (driven by the
cluster's container state hooks).  ``submit``/``drain`` then take the
candidate set straight from the index — the seed implementation instead
rebuilt the idle list with two full cluster scans per dispatched
request.  Entries are validated lazily at pick time
(:meth:`~repro.cluster.loadbalancer.WeightedRoundRobinBalancer.pick_idle`,
one pass over the index), so code that bypasses the dispatcher (tests
submitting to containers directly) can never corrupt a dispatch, only
leave a stale entry to be discarded.  With exactly one idle container
``submit`` skips the candidate list, the sort and the scoring
(``forced_pick``).  The index stays a dict because every request enters
and leaves it once, in O(1), and only the multi-candidate submits (a
third, on the steady benchmark workload) need it in order.  Every route
still ends in :meth:`SharedQueueDispatcher._dispatch_to` — the single choke
point, and the only place the crash-on-dispatch interceptor is consulted.

The hot sites test idleness on the three fields
:attr:`~repro.cluster.container.Container.is_dispatchable` reads (warm,
nothing running, nothing queued) rather than through the property.

The index is the only source of candidates: a dispatcher that was never
attached (nor given a container through
:meth:`SharedQueueDispatcher.watch_container`) sees no containers and
queues everything.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.cluster.container import Container, ContainerState
from repro.cluster.loadbalancer import WeightedRoundRobinBalancer
from repro.sim.engine import SimulationEngine
from repro.sim.request import Request, RequestStatus

_WARM = ContainerState.WARM


class SharedQueueDispatcher:
    """Per-function shared FCFS queues in front of idle-container dispatch.

    Parameters
    ----------
    engine:
        The simulation engine requests execute on.
    on_complete:
        Optional callback invoked with ``(request, container)`` after each
        completion (after the dispatcher's own bookkeeping).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        on_complete: Optional[Callable[[Request, Container], None]] = None,
    ) -> None:
        """Create an empty dispatcher and bind the completion callback."""
        self.engine = engine
        self.balancer = WeightedRoundRobinBalancer()
        self._queues: Dict[str, Deque[Request]] = {}
        self._on_complete = on_complete
        #: Optional fault hook consulted at the single dispatch choke
        #: point (:meth:`_dispatch_to`).  Returning ``False`` means the
        #: container crashed on dispatch: the interceptor has already
        #: disposed of the request and evicted the container, and the
        #: dispatcher must not submit.  ``None`` (the default) keeps the
        #: healthy hot path branch-predictable and byte-exact.
        self.interceptor: Optional[Callable[[Request, Container], bool]] = None
        # function name -> container id -> container (insertion-ordered)
        self._idle: Dict[str, Dict[str, Container]] = {}
        #: True once container state notifications are wired up; until
        #: then the idle index is empty and every request queues (the
        #: columnar kernel refuses such a dispatcher)
        self._attached = False

    # ------------------------------------------------------------------
    # Incremental idle tracking
    # ------------------------------------------------------------------
    def attach_cluster(self, cluster) -> None:
        """Maintain idle sets from the cluster's container state changes.

        Containers that already exist are indexed immediately.
        """
        self._attached = True
        cluster.on_container_state(self._on_container_state)
        for container in cluster.all_containers():
            self._on_container_state(container)

    def watch_container(self, container: Container) -> None:
        """Track one standalone (cluster-less) container in the idle index.

        For tests and benchmarks that build containers directly; normal
        code paths use :meth:`attach_cluster`.  Refuses containers that
        already have a state observer (e.g. cluster-created ones) —
        overwriting it would silently disconnect the cluster's own
        terminated-container cleanup.
        """
        existing = container.state_observer
        if existing is not None and existing is not self._on_container_state:
            raise ValueError(
                f"container {container.container_id} already has a state observer "
                "(cluster-created containers are tracked via attach_cluster)"
            )
        self._attached = True
        container.state_observer = self._on_container_state
        self._on_container_state(container)

    def _on_container_state(self, container: Container) -> None:
        """Observer hook, also run after each completion: keep the idle set in sync."""
        index = self._idle.get(container.function_name)
        if container.state is _WARM and container._current is None and not container._queue:
            if index is None:
                index = self._idle[container.function_name] = {}
            index[container.container_id] = container
        elif index is not None:
            index.pop(container.container_id, None)

    # ------------------------------------------------------------------
    # Queue state
    # ------------------------------------------------------------------
    def queue_length(self, function_name: str) -> int:
        """Requests currently waiting in the function's shared queue."""
        return len(self._queues.get(function_name, ()))

    def queued_requests(self, function_name: str) -> List[Request]:
        """The waiting requests of a function (a copy, FCFS order)."""
        return list(self._queues.get(function_name, ()))

    def total_queued(self) -> int:
        """Waiting requests across all functions."""
        return sum(len(q) for q in self._queues.values())

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_to(self, container: Container, request: Request) -> bool:
        """Hand one request to one container — the single dispatch choke point.

        Every path that moves a request onto a container (fresh submits,
        queue drains, completion-driven pulls) goes through here, so the
        fault injector's crash-on-dispatch interceptor sees *every*
        dispatch exactly once.  Returns ``False`` when the interceptor
        reports a crash (the request is already disposed of); ``True``
        when the request was submitted.
        """
        interceptor = self.interceptor
        if interceptor is not None and not interceptor(request, container):
            return False
        index = self._idle.get(container.function_name)
        if index is not None:
            index.pop(container.container_id, None)
        container.submit(request, self.engine, self._completion_hook)
        return True

    def submit(self, request: Request) -> bool:
        """Dispatch a new request onto an idle container of its function.

        Returns ``True`` if the request started on an idle container
        immediately, ``False`` if it was queued — or if the chosen
        container crashed on dispatch (fault injection), in which case
        the request was failed, not queued.
        """
        name = request.function_name
        index = self._idle.get(name)
        if index:
            if len(index) == 1:
                only = next(iter(index.values()))
                if only.state is _WARM and only._current is None and not only._queue:
                    self.balancer.forced_pick(name, only)  # no list, no sort, no scoring
                    return self._dispatch_to(only, request)
            chosen = self.balancer.pick_idle(name, index)
            if chosen is not None:
                return self._dispatch_to(chosen, request)
        queue = self._queues.get(name)
        if queue is None:
            queue = self._queues[name] = deque()
        request.mark_queued()
        queue.append(request)
        return False

    def drain(self, function_name: str) -> int:
        """Move as many queued requests as possible onto idle containers.

        Returns the number of requests that started executing.
        """
        queue = self._queues.get(function_name)
        if not queue:
            return 0
        index = self._idle.get(function_name)
        started = 0
        # ``_dispatch_to`` takes the chosen container out of the index, and
        # a crash on dispatch evicts it, which the state observer unindexes;
        # stale entries are found by the first pick, not before the loop
        while queue and index:
            request = queue.popleft()
            if request.status is not RequestStatus.QUEUED:
                continue  # dropped while waiting (e.g. container terminated it)
            chosen = self.balancer.pick_idle(function_name, index)
            if chosen is None:  # only stale entries, and the pick discarded them
                queue.appendleft(request)
                break
            if self._dispatch_to(chosen, request):
                started += 1
        return started

    def requeue(self, requests: Sequence[Request]) -> None:
        """Put dropped-but-unstarted requests back at the head of their queues.

        Used when a container is terminated while holding queued work that
        should be retried elsewhere.
        """
        for request in reversed(list(requests)):
            if request.status is not RequestStatus.QUEUED:
                continue
            self._queues.setdefault(request.function_name, deque()).appendleft(request)

    def _completion_hook(self, request: Request, container: Container) -> None:
        """Completion callback: notify the owner, then reuse the freed container."""
        if self._on_complete is not None:
            self._on_complete(request, container)
        # the container just went idle: pull the next queued request onto it
        queue = self._queues.get(request.function_name)
        while (queue and container.state is _WARM and container._current is None
               and not container._queue):
            next_request = queue.popleft()
            if (next_request.status is RequestStatus.QUEUED
                    and self._dispatch_to(container, next_request)):
                return  # busy again, and _dispatch_to took it out of the idle index
        self._on_container_state(container)


__all__ = ["SharedQueueDispatcher"]
