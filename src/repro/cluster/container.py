"""Container model: lifecycle, FCFS execution, and in-place CPU deflation.

A container hosts exactly one serverless function.  Requests dispatched
to it by the load balancer are served in FCFS order, one at a time (the
standard OpenWhisk model of one activation per container at a time).  An
idle warm container starts a request in the call that hands it over; the
FCFS deque holds only what arrives while it is starting, draining or busy.

Deflation (paper §4.2) reduces the container's CPU allocation in place.
The effect on performance is captured by a *speed factor*: a container
running at ``current_cpu`` executes work at
``speed = deflation_response(current_cpu / standard_cpu)`` relative to a
standard-sized container.  The response curve comes from the function
profile (:mod:`repro.workloads.functions`) and reproduces Figure 7 of
the paper: small deflations are nearly free, large deflations slow the
function roughly linearly.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple, TYPE_CHECKING

from repro.sim.request import Request, RequestStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.cluster.node import Node
    from repro.sim.engine import SimulationEngine

_container_counter = itertools.count()


class ContainerState(enum.Enum):
    """Lifecycle states of a container."""

    STARTING = "starting"      #: created; paying the cold-start latency
    WARM = "warm"              #: ready to execute requests
    DRAINING = "draining"      #: marked for lazy termination; finishes queued work
    TERMINATED = "terminated"  #: gone; resources released


class ContainerError(RuntimeError):
    """Raised on invalid container operations (e.g. running work on a terminated container)."""


class Container:
    """A single function container.

    Parameters
    ----------
    function_name:
        Name of the hosted function.
    node_name:
        The worker node this container lives on.
    standard_cpu:
        The CPU allocation (in vCPUs) of a *standard-sized* container of
        this function (Table 1 of the paper).
    memory_mb:
        Memory allocation in MB.  Memory is never deflated (§5: only CPU
        deflation is implemented because shrinking memory can kill the
        container).
    speed_of_cpu:
        Callable mapping a CPU *fraction* of the standard size (e.g. 0.7
        after 30 % deflation) to a relative execution speed in (0, 1].
        Defaults to proportional scaling.
    created_at:
        Simulation time of creation.
    """

    def __init__(
        self,
        function_name: str,
        node_name: str,
        standard_cpu: float,
        memory_mb: float,
        speed_of_cpu: Optional[Callable[[float], float]] = None,
        created_at: float = 0.0,
        container_id: Optional[str] = None,
    ) -> None:
        """Create a container in the STARTING state at its standard size."""
        if standard_cpu <= 0:
            raise ValueError("standard_cpu must be positive")
        if memory_mb <= 0:
            raise ValueError("memory_mb must be positive")
        self.container_id = container_id or f"c{next(_container_counter)}"
        self.function_name = function_name
        self.node_name = node_name
        self.standard_cpu = float(standard_cpu)
        self.current_cpu = float(standard_cpu)
        self.memory_mb = float(memory_mb)
        self.created_at = created_at
        self.warm_since: Optional[float] = None
        self.state = ContainerState.STARTING
        self._speed_of_cpu = speed_of_cpu or (lambda fraction: fraction)
        #: cached speed; the response curve is a pure function of the CPU
        #: fraction, so it only needs re-evaluating after a resize
        self._speed: Optional[float] = None
        #: invoked with the container after every write to ``state`` or
        #: ``current_cpu`` (a lifecycle transition or a resize); the owning
        #: cluster uses it to keep derived indexes (its sorted per-function
        #: lists, the dispatcher's idle sets) in sync without scanning.
        #: Nothing but the methods below may assign either attribute (the
        #: ledger invariant in docs/architecture.md, "Control path").
        self.state_observer: Optional[Callable[["Container"], None]] = None
        #: the node hosting the container (``Node.add_container`` sets it,
        #: ``remove_container`` clears it); the same writes drop its cached
        #: allocation sums
        self.host: Optional["Node"] = None

        self._queue: Deque[Request] = deque()
        self._current: Optional[Request] = None
        self._completion_event = None
        self.completed_requests = 0
        self.busy_time = 0.0
        self._busy_since: Optional[float] = None

    # ------------------------------------------------------------------
    # Capacity / speed
    # ------------------------------------------------------------------
    @property
    def cpu_fraction(self) -> float:
        """Current CPU allocation as a fraction of the standard size."""
        return self.current_cpu / self.standard_cpu

    @property
    def deflation_ratio(self) -> float:
        """Fraction of the standard CPU allocation that has been reclaimed."""
        return 1.0 - self.cpu_fraction

    @property
    def speed(self) -> float:
        """Relative execution speed (1.0 = standard container)."""
        speed = self._speed
        if speed is None:
            speed = self._speed = max(1e-9, float(self._speed_of_cpu(self.cpu_fraction)))
        return speed

    @property
    def effective_service_rate_scale(self) -> float:
        """Multiplier to apply to the function's standard service rate μ."""
        return self.speed

    @property
    def is_available(self) -> bool:
        """Whether the load balancer may dispatch new requests to this container."""
        return self.state is ContainerState.WARM

    @property
    def is_idle(self) -> bool:
        """Warm and with no running or queued request."""
        return self.state is ContainerState.WARM and self._current is None and not self._queue

    #: ``is_available and is_idle``; idle already implies warm, so it is the same test.
    #: The dispatcher and the balancer's ``pick_idle`` read the same three
    #: fields directly on the data path: change them together.
    is_dispatchable = is_idle

    @property
    def queue_length(self) -> int:
        """Number of requests queued (not counting the one running)."""
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        """Requests running plus queued at this container."""
        return len(self._queue) + (1 if self._current is not None else 0)

    @property
    def current_request(self) -> Optional[Request]:
        """The request currently executing, if any."""
        return self._current

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _notify_state(self) -> None:
        """``state`` or ``current_cpu`` was written: tell the hosting node and the observer."""
        host = self.host
        if host is not None:
            host.drop_sums()
        observer = self.state_observer
        if observer is not None:
            observer(self)

    def mark_warm(self, time: float) -> None:
        """Finish the cold start; the container can now execute requests."""
        if self.state != ContainerState.STARTING:
            raise ContainerError(f"container {self.container_id} is {self.state.value}, cannot warm")
        self.state = ContainerState.WARM
        self.warm_since = time
        self._notify_state()

    def mark_draining(self) -> None:
        """Lazily mark for termination; existing work drains, no new work accepted."""
        if self.state == ContainerState.TERMINATED:
            raise ContainerError("container already terminated")
        self.state = ContainerState.DRAINING
        self._notify_state()

    def unmark_draining(self) -> None:
        """Rescue a draining container (load rose again before it was reclaimed)."""
        if self.state != ContainerState.DRAINING:
            raise ContainerError("container is not draining")
        self.state = ContainerState.WARM
        self._notify_state()

    def _teardown(self, time: float, drop_queued: bool) -> Tuple[List[Request], List[Request]]:
        """Shared terminate/evict teardown: stop work, release state, notify.

        Cancels the in-flight completion event, drops the running
        request, closes the busy-time accounting, transitions to
        ``TERMINATED`` and notifies the state observer.  ``drop_queued``
        selects what happens to the FCFS queue: mark everything dropped
        (orderly termination) or hand the requests back untouched, still
        ``QUEUED`` (failure eviction).  Returns ``(dropped, salvaged)``.
        """
        if self.state == ContainerState.TERMINATED:
            return [], []
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        dropped: List[Request] = []
        if self._current is not None:
            self._current.mark_dropped(time)
            dropped.append(self._current)
            self._current = None
        salvaged = list(self._queue)
        self._queue.clear()
        if drop_queued:
            for request in salvaged:
                request.mark_dropped(time)
            dropped.extend(salvaged)
            salvaged = []
        if self._busy_since is not None:
            self.busy_time += time - self._busy_since
            self._busy_since = None
        self.state = ContainerState.TERMINATED
        self._notify_state()
        return dropped, salvaged

    def terminate(self, time: float) -> List[Request]:
        """Terminate immediately.  Returns the requests that were dropped."""
        dropped, _ = self._teardown(time, drop_queued=True)
        return dropped

    def evict(self, time: float) -> Tuple[List[Request], List[Request]]:
        """Crash-terminate the container, salvaging its queued requests.

        Failure semantics (the fault-injection contract, distinct from
        :meth:`terminate`): the request *running* at eviction time is
        lost — it was executing on the dead node/process — and is marked
        dropped; requests still *waiting* in the FCFS queue never
        started, so they are returned **untouched** (still ``QUEUED``)
        for the dispatcher to requeue onto surviving containers.

        Returns ``(interrupted, salvaged)``: the dropped in-flight
        request (0 or 1 element) and the still-queued survivors in FCFS
        order.
        """
        return self._teardown(time, drop_queued=False)

    # ------------------------------------------------------------------
    # Deflation
    # ------------------------------------------------------------------
    def deflate_to(self, cpu: float) -> float:
        """Set the CPU allocation to ``cpu`` vCPUs (clamped to (0, standard]).

        Returns the amount of CPU released (negative if inflating).
        """
        if self.state == ContainerState.TERMINATED:
            raise ContainerError("cannot resize a terminated container")
        new_cpu = min(self.standard_cpu, max(1e-6, float(cpu)))
        released = self.current_cpu - new_cpu
        self.current_cpu = new_cpu
        self._speed = None
        self._notify_state()
        return released

    def deflate_by(self, ratio: float) -> float:
        """Deflate by ``ratio`` of the *standard* size (e.g. 0.3 removes 30 %)."""
        if not 0.0 <= ratio < 1.0:
            raise ValueError("deflation ratio must be in [0, 1)")
        return self.deflate_to(self.standard_cpu * (1.0 - ratio))

    def inflate(self) -> float:
        """Restore the standard CPU allocation.  Returns the extra CPU consumed."""
        return -self.deflate_to(self.standard_cpu)

    # ------------------------------------------------------------------
    # Execution (FCFS, one request at a time)
    # ------------------------------------------------------------------
    def submit(
        self,
        request: Request,
        engine: "SimulationEngine",
        on_complete: Optional[Callable[[Request, "Container"], None]] = None,
    ) -> None:
        """Accept a request for execution.

        An idle warm container starts it at once, without a pass through
        the FCFS queue; a starting, draining or busy one queues it.
        Requests may arrive either fresh (``PENDING``) or having already
        waited in a controller-level shared queue (``QUEUED``).
        """
        state = self.state
        if state is ContainerState.TERMINATED:
            raise ContainerError(
                f"cannot submit to container {self.container_id} in state {state.value}"
            )
        status = request.status
        if status is not RequestStatus.PENDING and status is not RequestStatus.QUEUED:
            raise ContainerError(
                f"cannot submit request in state {status.value} to {self.container_id}"
            )
        if state is ContainerState.WARM and self._current is None and not self._queue:
            self._start(request, engine, on_complete)
            return
        if status is RequestStatus.PENDING:
            request.mark_queued()
        self._queue.append(request)
        if state is ContainerState.WARM:
            self._try_start_next(engine, on_complete)

    def on_warm_start(
        self,
        engine: "SimulationEngine",
        on_complete: Optional[Callable[[Request, "Container"], None]] = None,
    ) -> None:
        """Kick the execution loop once the cold start finishes."""
        self._try_start_next(engine, on_complete)

    def _try_start_next(
        self,
        engine: "SimulationEngine",
        on_complete: Optional[Callable[[Request, "Container"], None]],
    ) -> None:
        """Start the next queued request if the container has capacity for it."""
        if self._current is None and self._queue:
            self._start(self._queue.popleft(), engine, on_complete)

    def _start(
        self,
        request: Request,
        engine: "SimulationEngine",
        on_complete: Optional[Callable[[Request, "Container"], None]],
    ) -> None:
        """Begin executing ``request`` now; the caller has checked nothing is running."""
        now = engine._now  # the clock's field: the property is a frame per request
        self._current = request
        cold = self.warm_since is not None and self.completed_requests == 0 and now == self.warm_since
        request.mark_running(now, self.container_id, self.node_name, cold_start=cold)
        self._busy_since = now
        self._completion_event = engine.schedule(
            max(1e-9, request.work / self.speed), self._finish_current, engine, on_complete
        )

    def _finish_current(
        self,
        engine: "SimulationEngine",
        on_complete: Optional[Callable[[Request, "Container"], None]],
    ) -> None:
        """Complete the in-flight request and pull the next queued one."""
        request = self._current
        if request is None:  # pragma: no cover - defensive
            return
        now = engine._now
        request.mark_completed(now)
        self.completed_requests += 1
        if self._busy_since is not None:
            self.busy_time += now - self._busy_since
            self._busy_since = None
        self._current = None
        self._completion_event = None
        if on_complete is not None:
            on_complete(request, self)
        # whatever ``on_complete`` handed over has started on its own
        if self._queue and self.state in (ContainerState.WARM, ContainerState.DRAINING):
            self._try_start_next(engine, on_complete)

    def utilization(self, now: float) -> float:
        """Fraction of this container's lifetime spent executing requests."""
        lifetime = max(1e-12, now - self.created_at)
        busy = self.busy_time
        if self._busy_since is not None:
            busy += now - self._busy_since
        return min(1.0, busy / lifetime)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Debugging summary of id, function, node, CPU, and state."""
        return (
            f"Container({self.container_id}, fn={self.function_name!r}, node={self.node_name!r}, "
            f"cpu={self.current_cpu:.2f}/{self.standard_cpu:.2f}, state={self.state.value})"
        )
