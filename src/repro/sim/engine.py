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
  :meth:`SimulationEngine.call_later` and :meth:`SimulationEngine.call_at`;
  no :class:`Event` record, no kwargs dict, no cancellation handle —
  one tuple per event, total.  Every request's completion is one
  (``Container._start``); a callback that must not run any more either
  returns at once by itself (a torn-down container's completion) or is
  removed with :meth:`SimulationEngine.drop_calls`.
* **Event records** — ``target`` is an :class:`Event` (``__slots__``)
  and ``args`` is ``None``.  Created by
  :meth:`SimulationEngine.schedule` / :meth:`SimulationEngine.schedule_at`
  for callers that need cancellation or keyword arguments.

Cancellation is lazy: :meth:`Event.cancel` flips a flag and the event is
discarded when it reaches the top of the heap, never by re-heapifying.
The engine counts those discards (:attr:`SimulationEngine.events_cancelled`),
and the bare entries :meth:`SimulationEngine.drop_calls` removes, so
cancellation-heavy workloads can be diagnosed.

The stream
----------
Events whose times are all known up front (a run's pre-sampled
arrivals) need no heap: :meth:`SimulationEngine.merge_stream` takes
them as one time-sorted stream, event *i* calling
``targets[i](times[i])``, which :meth:`~SimulationEngine.run`,
:meth:`~SimulationEngine.step` and :meth:`~SimulationEngine.peek` read
beside the heap: an index step an event instead of a push and a pop.
**Tie rule:** at equal time a stream event runs before every heap entry,
whatever its priority and whenever it was scheduled; stream events run
in stream order.

Determinism guarantees
----------------------
* Heap events with identical ``(time, priority)`` are executed in the
  order they were scheduled (the sequence number breaks ties),
  regardless of entry shape; stream events follow the tie rule above.
* All randomness must come from :class:`repro.sim.rng.RngStreams`, which
  is seeded explicitly, so a simulation run is a pure function of its
  configuration and seed.

Counting semantics
------------------
``events_processed`` counts every event whose callback was *invoked*,
stream events included, and including an event whose callback raised
:class:`_StopSimulation` (via :func:`stop_simulation`) — the callback
did run, so it is counted, by both :meth:`SimulationEngine.run` and
:meth:`SimulationEngine.step`.  Cancelled events are never invoked and
never counted, nor are entries removed by ``drop_calls``.
``pending_events`` is the heap's length (cancelled entries included);
the stream's unread events are not in it.
"""

from __future__ import annotations

import heapq
import math
from functools import partial
from itertools import islice
from operator import le
from typing import Any, Callable, Optional, Sequence, Tuple

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
        self._clear_stream()

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
        """Cancelled events discarded so far, plus the entries :meth:`drop_calls` removed."""
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

    def drop_calls(self, stale: Callable[[Callable[..., Any], tuple], bool]) -> int:
        """Remove every bare heap entry for which ``stale(callback, args)`` holds; return how many.

        They count in :attr:`events_cancelled`; the rest keep their order.
        """
        queue = self._queue
        kept = [entry for entry in queue if entry[4] is None or not stale(entry[3], entry[4])]
        dropped = len(queue) - len(kept)
        if dropped:
            heapq.heapify(kept)
            queue[:] = kept  # in place: a running loop holds the list
            self._events_cancelled += dropped
        return dropped

    def merge_stream(self, times: Sequence[float],
                     targets: Sequence[Callable[[float], Any]]) -> None:
        """Run ``targets[i](times[i])``, for every ``i``, beside the heap (module docstring).

        ``times`` must be sorted, finite and not before :attr:`now`, one
        target per time.  One stream at a time: a stream merged while the
        last has unread events, or while the engine runs, is refused with
        a :class:`SimulationError` that leaves the engine as it was.  The
        engine reads both lists as given until their last event has run.
        """
        if self._running:
            raise SimulationError("cannot merge a stream into a running engine")
        if self._stream_pos < self._stream_end:
            raise SimulationError("the engine still holds unread stream events")
        count = len(times)
        if len(targets) != count:
            raise SimulationError(f"stream lengths differ: {count} times, {len(targets)} targets")
        # NaN fails every comparison, so it fails one of the three tests
        if count and not (self._now <= times[0] and times[-1] < _INF
                          and all(map(le, times, islice(times, 1, None)))):
            raise SimulationError(
                f"stream times must be sorted, finite and not before now={self._now:.6f}")
        self._stream_times = times
        self._stream_targets = targets
        self._stream_end = count

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the event loop over the heap and the stream.

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
        times = self._stream_times
        targets = self._stream_targets
        end = self._stream_end
        pos = self._stream_pos
        next_time = times[pos] if pos < end else _INF  # the stream's next event
        executed = 0
        cancelled = 0
        try:
            while True:
                try:
                    if queue and queue[0][0] < next_time:  # the heap's top runs first
                        entry = pop(queue)
                        time = entry[0]
                        if time > horizon:
                            heapq.heappush(queue, entry)  # the popped entry was the heap minimum
                            self._now = horizon
                            break
                        target = entry[3]
                        args = entry[4]
                        if args is not None:  # bare fast-path event
                            self._now = time
                            target(*args)
                        elif target.cancelled:  # Event record: cancellable, may carry kwargs
                            cancelled += 1
                            continue
                        else:
                            self._now = time
                            kwargs = target.kwargs
                            if kwargs is None:
                                target.callback(*target.args)
                            else:
                                target.callback(*target.args, **kwargs)
                    elif next_time < _INF:  # the stream's event runs first
                        time = next_time
                        if time > horizon:
                            self._now = horizon
                            break
                        self._now = time
                        target = targets[pos]
                        pos += 1
                        next_time = times[pos] if pos < end else _INF
                        target(time)
                    else:
                        # both drained; if an 'until' horizon was given, advance to it
                        if until is not None and until > self._now:
                            self._now = until
                        break
                except _StopSimulation:
                    executed += 1
                    break
                executed += 1
                if executed >= budget:
                    break
        finally:
            self._stream_pos = pos
            if pos == end:
                self._clear_stream()  # read whole: let the lists go
            self._events_processed += executed
            self._events_cancelled += cancelled
            self._running = False
        return self._now

    def peek(self) -> Optional[Tuple[float, Callable[..., Any], tuple]]:
        """``(time, callback, args)`` of the next live event, heap or stream, or ``None``.

        Cancelled :class:`Event` records at the top of the heap ahead of
        it are discarded (and counted) exactly as :meth:`run` would
        discard them, so the returned event is the one :meth:`step` would
        execute.  The clock is not advanced and no callback runs.  Every
        entry shape reads the same way (an :class:`Event` record's keyword
        arguments are not reported).
        """
        queue = self._queue
        pos = self._stream_pos
        next_time = self._stream_times[pos] if pos < self._stream_end else _INF
        while queue and queue[0][0] < next_time:
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
        if next_time < _INF:
            return next_time, self._stream_targets[pos], (next_time,)
        return None

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event (see :meth:`peek`), or ``None``."""
        event = self.peek()
        return None if event is None else event[0]

    def step(self) -> bool:
        """Execute a single event.  Returns ``False`` if there is none.

        An event that stops the simulation (see :func:`stop_simulation`)
        is still counted in :attr:`events_processed` — its callback ran —
        but ``step`` returns ``False``, mirroring :meth:`run`.
        """
        queue = self._queue
        pos = self._stream_pos
        next_time = self._stream_times[pos] if pos < self._stream_end else _INF
        while queue and queue[0][0] < next_time:  # the heap's top runs first
            time, _, _, target, args = heapq.heappop(queue)
            if args is None:  # an Event record
                if target.cancelled:
                    self._events_cancelled += 1
                    continue
                args, kwargs, target = target.args, target.kwargs, target.callback
                if kwargs is not None:
                    target = partial(target, **kwargs)
            break
        else:
            if next_time == _INF:
                return False
            time, target, args = next_time, self._stream_targets[pos], (next_time,)
            self._stream_pos = pos + 1
            if pos + 1 == self._stream_end:
                self._clear_stream()  # read whole: let the lists go
        self._now = time
        try:
            target(*args)
        except _StopSimulation:
            self._events_processed += 1
            return False
        self._events_processed += 1
        return True

    def reset(self, start_time: float = 0.0) -> None:
        """Drop all pending events, heap and stream, and rewind the clock."""
        if self._running:
            raise SimulationError("cannot reset a running engine")
        self._queue.clear()
        self._clear_stream()
        self._now = float(start_time)
        self._sequence = 0
        self._events_processed = 0
        self._events_cancelled = 0

    def _clear_stream(self) -> None:
        """Hold an empty stream."""
        self._stream_times: Sequence[float] = ()
        self._stream_targets: Sequence[Callable[[float], Any]] = ()
        self._stream_end = self._stream_pos = 0
