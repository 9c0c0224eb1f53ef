"""Request (function invocation) objects that flow through the simulated cluster.

A :class:`Request` records every timestamp relevant to the paper's
metrics: arrival at the dispatcher, the moment a container begins
executing it (end of queueing), completion, and whether it was dropped or
violated its SLO deadline.  The paper's headline metric — the 95th/99th
percentile of *waiting* time — is ``start_time - arrival_time``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

_request_counter = itertools.count()


class RequestStatus(enum.Enum):
    """Lifecycle states of an invocation request."""

    PENDING = "pending"          #: created, not yet dispatched
    QUEUED = "queued"            #: waiting for a container to become free
    RUNNING = "running"          #: executing inside a container
    COMPLETED = "completed"      #: finished successfully
    DROPPED = "dropped"          #: rejected (queue overflow / node failure)
    TIMED_OUT = "timed_out"      #: exceeded the platform's hard execution limit

    #: singletons compared by identity; ``Enum.__hash__`` is a Python frame per
    #: lookup.  No set of statuses is iterated, so the per-process hash orders nothing.
    __hash__ = object.__hash__


@dataclass(slots=True)
class Request:
    """A single invocation of a serverless function.

    ``slots=True`` matters here: requests are the simulator's highest-
    volume objects, and the per-instance ``__dict__`` a plain dataclass
    carries roughly doubled allocation cost on the record path (the
    ``bench_record_path`` micro-benchmark guards this).

    Attributes
    ----------
    function_name:
        The function this request invokes.
    arrival_time:
        Simulation time at which the request reached the dispatcher.
    deadline:
        Absolute SLO deadline (arrival time + relative deadline), or
        ``None`` if the function has no SLO.
    work:
        Amount of work in "standard-container seconds".  A container with
        relative speed ``s`` executes the request in ``work / s`` seconds.
    """

    function_name: str
    arrival_time: float
    deadline: Optional[float] = None
    work: float = 0.0
    request_id: int = field(default_factory=lambda: next(_request_counter))

    status: RequestStatus = RequestStatus.PENDING
    start_time: Optional[float] = None
    completion_time: Optional[float] = None
    container_id: Optional[str] = None
    node_name: Optional[str] = None
    cold_start: bool = False

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def waiting_time(self) -> Optional[float]:
        """Time spent queued before a container started executing the request."""
        if self.start_time is None:
            return None
        return self.start_time - self.arrival_time

    @property
    def service_time(self) -> Optional[float]:
        """Time spent executing inside the container."""
        if self.start_time is None or self.completion_time is None:
            return None
        return self.completion_time - self.start_time

    @property
    def response_time(self) -> Optional[float]:
        """End-to-end latency (waiting + service)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time

    @property
    def met_deadline(self) -> Optional[bool]:
        """Whether the request finished by its SLO deadline.

        Returns ``None`` when the request has no deadline or has not
        completed.
        """
        if self.deadline is None or self.completion_time is None:
            return None
        return self.completion_time <= self.deadline

    @property
    def waiting_met_deadline(self) -> Optional[bool]:
        """Whether the request *started* by its SLO deadline.

        The paper's default SLO ("95% of requests should start being
        processed within 100 ms") is about waiting time, not response
        time; this property implements that interpretation.
        """
        if self.deadline is None or self.start_time is None:
            return None
        return self.start_time <= self.deadline

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------
    def mark_queued(self) -> None:
        """Transition PENDING → QUEUED."""
        if self.status is not RequestStatus.PENDING:
            raise ValueError(
                f"request {self.request_id} is {self.status.value}, expected pending")
        self.status = RequestStatus.QUEUED

    def mark_running(self, time: float, container_id: str, node_name: str, cold_start: bool = False) -> None:
        """Transition QUEUED/PENDING → RUNNING (``Container._start`` writes it inline too)."""
        if self.status not in (RequestStatus.PENDING, RequestStatus.QUEUED):
            raise ValueError(f"cannot start request in state {self.status}")
        self.status = RequestStatus.RUNNING
        self.start_time = time
        self.container_id = container_id
        self.node_name = node_name
        self.cold_start = cold_start

    def mark_completed(self, time: float) -> None:
        """Transition RUNNING → COMPLETED (``Container._finish_current`` writes it inline too)."""
        if self.status is not RequestStatus.RUNNING:
            raise ValueError(
                f"request {self.request_id} is {self.status.value}, expected running")
        self.status = RequestStatus.COMPLETED
        self.completion_time = time

    def mark_dropped(self, time: float) -> None:
        """Mark the request as dropped (e.g. its container was terminated)."""
        if self.status in (RequestStatus.COMPLETED, RequestStatus.TIMED_OUT):
            raise ValueError(f"cannot drop request in state {self.status}")
        self.status = RequestStatus.DROPPED
        self.completion_time = time

    def mark_timed_out(self, time: float) -> None:
        """Mark the request as having exceeded the hard execution limit."""
        self.status = RequestStatus.TIMED_OUT
        self.completion_time = time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Debugging summary of id, function, status, and arrival time."""
        return (
            f"Request(id={self.request_id}, fn={self.function_name!r}, "
            f"status={self.status.value}, t_arr={self.arrival_time:.3f})"
        )
