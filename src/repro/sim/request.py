"""Request (function invocation) objects that flow through the simulated cluster.

A :class:`Request` records every timestamp relevant to the paper's
metrics: arrival at the dispatcher, the moment a container begins
executing it (end of queueing), completion, and whether it was dropped;
whether it met its SLO is asked of the function's relative deadline
(:func:`repro.metrics.slo.slo_report`).  The paper's headline metric —
the 95th/99th percentile of *waiting* time — is ``start_time - arrival_time``.
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
    TIMED_OUT = "timed_out"      #: exceeded the platform's hard execution limit (no run sets it)

    #: singletons compared by identity; ``Enum.__hash__`` is a Python frame per
    #: lookup.  No set of statuses is iterated, so the per-process hash orders nothing.
    __hash__ = object.__hash__


#: the members the transitions read, bound once: ``EnumType`` defines
#: ``__getattr__``, so every ``RequestStatus.X`` read takes the hooked slot
_PENDING, _QUEUED = RequestStatus.PENDING, RequestStatus.QUEUED
_COMPLETED, _DROPPED, _TIMED_OUT = (
    RequestStatus.COMPLETED, RequestStatus.DROPPED, RequestStatus.TIMED_OUT)


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
    work:
        Amount of work in "standard-container seconds".  A container with
        relative speed ``s`` executes the request in ``work / s`` seconds.
    """

    function_name: str
    arrival_time: float
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

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------
    def mark_queued(self) -> None:
        """Transition PENDING → QUEUED."""
        if self.status is not _PENDING:
            raise ValueError(
                f"request {self.request_id} is {self.status.value}, expected pending")
        self.status = _QUEUED

    def mark_dropped(self, time: float) -> None:
        """Mark the request as dropped (e.g. its container was terminated)."""
        status = self.status
        if status is _COMPLETED or status is _TIMED_OUT:
            raise ValueError(f"cannot drop request in state {status}")
        self.status = _DROPPED
        self.completion_time = time
