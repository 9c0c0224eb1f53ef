"""Core discrete-event simulation engine.

The engine maintains a priority queue of timestamped events.  Each event
carries a callback; running the simulation repeatedly pops the earliest
event and invokes its callback, which may schedule further events.

Hot-path design
---------------
The heap holds plain 5-tuples ``(time, priority, sequence, target,
args)`` rather than rich comparable objects: tuple comparison is native
code, and the monotonically increasing sequence number guarantees a
comparison never reaches the non-comparable ``target`` slot.  Entries
come in two shapes, distinguished by the ``args`` slot:

* **Bare events** — ``target`` is the callback itself and ``args`` is
  its (possibly empty) positional-argument tuple.  Created by
  :meth:`SimulationEngine.call_later`, :meth:`SimulationEngine.call_at`
  and :meth:`SimulationEngine.schedule_many`; no :class:`Event` record,
  no kwargs dict, no cancellation handle — one tuple per event, total.
* **Event records** — ``target`` is an :class:`Event` (``__slots__``)
  and ``args`` is ``None``.  Created by
  :meth:`SimulationEngine.schedule` / :meth:`SimulationEngine.schedule_at`
  for callers that need cancellation or keyword arguments.

Cancellation is lazy: :meth:`Event.cancel` flips a flag and the event is
discarded when it reaches the top of the heap, never by re-heapifying.
The engine counts those discards (:attr:`SimulationEngine.events_cancelled`)
so cancellation-heavy workloads can be diagnosed.

Determinism guarantees
----------------------
* Events with identical ``(time, priority)`` are executed in the order
  they were scheduled (the sequence number breaks ties), regardless of
  entry shape.
* All randomness must come from :class:`repro.sim.rng.RngStreams`, which
  is seeded explicitly, so a simulation run is a pure function of its
  configuration and seed.

Counting semantics
------------------
``events_processed`` counts every event whose callback was *invoked*,
including an event whose callback raised :class:`_StopSimulation` (via
:func:`stop_simulation`) — the callback did run, so it is counted, by
both :meth:`SimulationEngine.run` and :meth:`SimulationEngine.step`.
Cancelled events are never invoked and never counted.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Iterable, Optional, Tuple

_INF = math.inf


class SimulationError(RuntimeError):
    """Raised when the engine is used incorrectly (e.g. scheduling in the past)."""


class _StopSimulation(Exception):
    """Internal control-flow exception used to stop the event loop."""


def stop_simulation() -> None:
    """Immediately stop the currently running simulation.

    May only be called from inside an event callback.
    """
    raise _StopSimulation()


class Event:
    """A scheduled event: callback + arguments + a lazy-cancellation flag.

    Only :meth:`SimulationEngine.schedule` / :meth:`SimulationEngine.schedule_at`
    produce ``Event`` records; the fire-and-forget fast paths push bare
    heap entries instead (see the module docstring).  ``kwargs`` is
    ``None`` (not an empty dict) when the event was scheduled without
    keyword arguments, which selects the args-only invocation path.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "args", "kwargs", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[..., Any],
        args: tuple = (),
        kwargs: Optional[dict] = None,
    ) -> None:
        """Bind the callback and its arguments."""
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Debugging summary of the event's time and target."""
        flag = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.6f}, prio={self.priority}, seq={self.sequence}{flag})"


class SimulationEngine:
    """A minimal but complete discrete-event simulation engine.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock, in seconds.

    Examples
    --------
    >>> engine = SimulationEngine()
    >>> fired = []
    >>> _ = engine.schedule(1.5, lambda: fired.append(engine.now))
    >>> engine.run()
    >>> fired
    [1.5]
    """

    #: Default priority for data-path events.
    PRIORITY_DATA = 0
    #: Priority for fault-injection events (node failures/recoveries):
    #: after data events at the same instant — a request arriving at the
    #: failure time is dispatched before the node dies — but before the
    #: control plane, so an epoch tick at the same instant sees the
    #: post-failure cluster.
    PRIORITY_FAULT = 5
    #: Priority for control-plane events; runs after data events at the same time.
    PRIORITY_CONTROL = 10

    def __init__(self, start_time: float = 0.0) -> None:
        """Start the engine at time zero with an empty event heap."""
        self._now = float(start_time)
        # heap of (time, priority, sequence, Event_or_callback, None_or_args)
        self._queue: list = []
        self._sequence = 0
        self._events_processed = 0
        self._events_cancelled = 0
        self._running = False

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events whose callbacks have been invoked so far."""
        return self._events_processed

    @property
    def events_cancelled(self) -> int:
        """Cancelled events discarded (lazily) from the top of the heap so far."""
        return self._events_cancelled

    @property
    def pending_events(self) -> int:
        """Number of events still in the queue (including cancelled ones)."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DATA,
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which can be cancelled.  Use
        :meth:`call_later` for fire-and-forget events on hot paths.
        """
        if not 0.0 <= delay < _INF:  # rejects negatives, NaN and inf in one test
            raise SimulationError(f"invalid delay: {delay}")
        time = self._now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, priority, sequence, callback, args, kwargs or None)
        heapq.heappush(self._queue, (time, priority, sequence, event, None))
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DATA,
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback`` at an absolute simulation time."""
        time = float(time)
        if not self._now <= time < _INF:  # also rejects NaN
            raise SimulationError(f"cannot schedule at {time!r}; now={self._now:.6f}")
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, priority, sequence, callback, args, kwargs or None)
        heapq.heappush(self._queue, (time, priority, sequence, event, None))
        return event

    def call_later(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DATA,
    ) -> None:
        """Args-only fast path: schedule a fire-and-forget callback.

        Unlike :meth:`schedule` this allocates no :class:`Event` record
        and no kwargs dict — one heap tuple per event — but consequently
        returns no cancellation handle and accepts no keyword arguments.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"invalid delay: {delay}")
        sequence = self._sequence
        self._sequence = sequence + 1
        heapq.heappush(self._queue, (self._now + delay, priority, sequence, callback, args))

    def call_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_DATA,
    ) -> None:
        """Absolute-time variant of :meth:`call_later`."""
        time = float(time)
        if not self._now <= time < _INF:
            raise SimulationError(f"cannot schedule at {time!r}; now={self._now:.6f}")
        sequence = self._sequence
        self._sequence = sequence + 1
        heapq.heappush(self._queue, (time, priority, sequence, callback, args))

    def schedule_many_events(
        self,
        entries: Iterable[Tuple[float, Callable[..., Any], tuple]],
        priority: int = PRIORITY_DATA,
    ) -> list:
        """Batch variant of :meth:`schedule_at` returning cancellable events.

        Like :meth:`schedule_many` this reads engine state once and keeps
        scheduling order as the tie-break at equal ``(time, priority)``,
        but each entry gets an :class:`Event` record so the caller can
        cancel it later — the shape the columnar data plane needs when it
        re-materializes in-flight service completions at a control-plane
        boundary.

        Returns the list of :class:`Event` handles, in entry order.
        """
        now = self._now
        queue = self._queue
        push = heapq.heappush
        sequence = self._sequence
        events = []
        try:
            for time, callback, args in entries:
                if not now <= time < _INF:
                    raise SimulationError(f"cannot schedule at {time!r}; now={now:.6f}")
                event = Event(time, priority, sequence, callback, args, None)
                push(queue, (time, priority, sequence, event, None))
                sequence += 1
                events.append(event)
        finally:
            self._sequence = sequence
        return events

    def schedule_many(
        self,
        entries: Iterable[Tuple[float, Callable[..., Any], tuple]],
        priority: int = PRIORITY_DATA,
    ) -> int:
        """Schedule a batch of ``(absolute_time, callback, args)`` entries.

        The batch API exists for producers that pre-compute many future
        timestamps at once (the vectorized arrival generator): it skips
        the per-call argument packing of :meth:`call_at` and reads
        engine state once.  Entries keep scheduling order as the
        tie-break order at equal ``(time, priority)``.  Like
        :meth:`call_later` the events are fire-and-forget.

        Returns the number of events scheduled.
        """
        now = self._now
        queue = self._queue
        push = heapq.heappush
        sequence = self._sequence
        count = 0
        try:
            for time, callback, args in entries:
                if not now <= time < _INF:
                    raise SimulationError(f"cannot schedule at {time!r}; now={now:.6f}")
                push(queue, (time, priority, sequence, callback, args))
                sequence += 1
                count += 1
        finally:
            self._sequence = sequence
        return count

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the clock would advance strictly past this time.
            Events scheduled exactly at ``until`` are executed.
        max_events:
            Safety valve; stop after this many events.

        Returns
        -------
        float
            The simulation time when the loop stopped.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run() call)")
        self._running = True
        horizon = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        queue = self._queue
        pop = heapq.heappop
        push = heapq.heappush
        executed = 0
        cancelled = 0
        try:
            while queue:
                entry = pop(queue)
                time = entry[0]
                if time > horizon:
                    push(queue, entry)  # the popped entry was the heap minimum
                    self._now = horizon
                    break
                target = entry[3]
                args = entry[4]
                try:
                    if args is not None:  # bare fast-path event
                        self._now = time
                        target(*args)
                    else:  # Event record: cancellable, may carry kwargs
                        if target.cancelled:
                            cancelled += 1
                            continue
                        self._now = time
                        kwargs = target.kwargs
                        if kwargs is None:
                            target.callback(*target.args)
                        else:
                            target.callback(*target.args, **kwargs)
                except _StopSimulation:
                    executed += 1
                    break
                executed += 1
                if executed >= budget:
                    break
            else:
                # queue drained; if an 'until' horizon was given, advance to it
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._events_processed += executed
            self._events_cancelled += cancelled
            self._running = False
        return self._now

    def peek(self) -> Optional[Tuple[float, Callable[..., Any], tuple]]:
        """``(time, callback, args)`` of the next live event, or ``None`` if the queue is empty.

        Cancelled :class:`Event` records sitting at the top of the heap
        are discarded (and counted) exactly as :meth:`run` would discard
        them, so the returned event is the one :meth:`step` would
        execute.  The clock is not advanced and no callback runs.  Both
        entry shapes read the same way (an :class:`Event` record's
        keyword arguments are not reported).
        """
        queue = self._queue
        while queue:
            entry = queue[0]
            target = entry[3]
            args = entry[4]
            if args is not None:
                return entry[0], target, args
            if target.cancelled:
                heapq.heappop(queue)
                self._events_cancelled += 1
                continue
            return entry[0], target.callback, target.args
        return None

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event (see :meth:`peek`), or ``None``."""
        event = self.peek()
        return None if event is None else event[0]

    def step(self) -> bool:
        """Execute a single event.  Returns ``False`` if the queue is empty.

        An event that stops the simulation (see :func:`stop_simulation`)
        is still counted in :attr:`events_processed` — its callback ran —
        but ``step`` returns ``False``, mirroring :meth:`run`.
        """
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            target = entry[3]
            args = entry[4]
            try:
                if args is not None:
                    self._now = entry[0]
                    target(*args)
                else:
                    if target.cancelled:
                        self._events_cancelled += 1
                        continue
                    self._now = entry[0]
                    kwargs = target.kwargs
                    if kwargs is None:
                        target.callback(*target.args)
                    else:
                        target.callback(*target.args, **kwargs)
            except _StopSimulation:
                self._events_processed += 1
                return False
            self._events_processed += 1
            return True
        return False

    def reset(self, start_time: float = 0.0) -> None:
        """Drop all pending events and rewind the clock."""
        if self._running:
            raise SimulationError("cannot reset a running engine")
        self._queue.clear()
        self._now = float(start_time)
        self._sequence = 0
        self._events_processed = 0
        self._events_cancelled = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Debugging summary of the clock and event counters."""
        return (
            f"SimulationEngine(now={self._now:.3f}, pending={len(self._queue)}, "
            f"processed={self._events_processed})"
        )
