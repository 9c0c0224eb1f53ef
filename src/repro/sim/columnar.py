"""Columnar data plane: a vectorized request-lifecycle kernel.

The event-level path simulates every request as a handful of engine
events and callback hops (arrival → dispatch → completion), each
touching a live :class:`~repro.sim.request.Request` object.  That is
the oracle — and, since PR 1/PR 3 made the control plane fast, the
dominant cost of every simulated second.

This module executes the same lifecycle *columnar*: all arrival times
and per-request work are materialized up front and merged across
functions by :func:`~repro.workloads.generator.merge_arrivals` — the
same merge the event plane streams beside its heap — request state
lives in parallel per-function columns
(arrival/start/finish/status/container), and the kernel advances that
merged arrival pointer against a completion heap instead of running
per-request engine events.  Metrics are folded into the existing
:class:`~repro.metrics.collector.MetricsCollector` at *epoch
granularity* (right before every engine event boundary).  The
per-request record leaves the kernel as columns too: :meth:`ColumnarKernel.run`
ends by exporting a :class:`~repro.metrics.table.RequestTable`, which is
what SLO, waiting-time and count analysis reduce; ``Request`` objects
for the whole run are only rebuilt if somebody reads
``collector.requests``.

Oracle contract
---------------
The kernel is an exact replica of the event-level path, not an
approximation: per-request lifecycle records (ids, arrival/start/
finish times, container placement, statuses), WRR balancer state,
estimator contents, counters, and therefore whole results envelopes
are byte-identical to the event-level plane (the differential suite in
``tests/test_columnar_differential.py`` enforces this across every
registered scenario, fault arm, and policy).  The one tolerated
divergence class is measure-zero exact-time ties between continuously
distributed timestamps (e.g. an arrival landing on the exact float of
an epoch boundary), which cannot occur for continuous workloads.

Control plane at boundaries
---------------------------
Everything that is *not* the per-request hot path still runs the real
code: controller epoch/rate ticks, container warm-ups, node
failures/recoveries, and draining-container completions are ordinary
engine events.  Every one but a warm-up is a *boundary*: the kernel
*flushes* folded metrics and *materializes* columns back into real
objects (queued ``Request`` deques, busy containers with their bare
completion entries, the dispatcher's idle index), lets the engine
execute every event at that timestamp, then *absorbs* the resulting
object state back into columns and continues; the absorb drops every
completion entry no container runs any more, which would otherwise be
a boundary of its own.  Container
crash-on-dispatch faults are handled at request granularity: the kernel
draws from the injector's own RNG at every dispatch and hands confirmed
crashes to the injector's real crash path.

An arrival that queues against a function with no container calls the
plan's ``create_on_empty`` hook, as the event plane's ``dispatch`` does,
but at most once per function between two boundaries: until the next
:meth:`~ColumnarKernel._absorb` the only capacity changes are the
kernel's own creations, which can only shrink free capacity, so a
create that placed nothing would place nothing again.  A create that
placed a container returns to the engine, whose queue now holds its
warm-up.

Warm-ups
--------
A container warm-up (``EdgeCluster._finish_cold_start(container)``)
adds one idle container, which pulls the function's queued requests.
The kernel steps that real event — ``mark_warm``, the cluster's
indexes, every warm hook — with the object-side queue empty
(:meth:`_absorb` clears the dispatcher's deques after reading them), so
the policy's warm hook, which the :class:`ColumnarPlan` contract limits
to ``dispatcher.drain`` of that function, starts nothing.  The kernel
then adopts the container as a slot and does the drain itself: dead rows
leave the queue, and the head queued row starts on the container, a
cold start, after the same WRR pick (``forced_pick``: one candidate) and
crash draw as any in-kernel dispatch.  Pending folds ride to the next
boundary in larger batches, exact because per-function estimators are
independent and their batch folds are split-invariant.  A warm-up whose
drain would see other idle containers, or whose crash draw will hit
(:meth:`~repro.faults.injector.FaultInjector.peek_crash`), is a full
boundary instead: on the event plane that crash runs inside the warm
hooks, ahead of the injector's recovery check, which must see it.

Fallback conditions
-------------------
:func:`build_kernel` returns no kernel — and the runner falls back to
the event-level plane, saying so in
:attr:`~repro.simulation.SimulationResult.fallback_reason` — when the
policy has no ``columnar_plan`` method, when it does not publish a
:class:`ColumnarPlan` (every policy that is not a
:class:`~repro.core.dispatch.SharedQueuePolicy`: today only the
OpenWhisk compatibility policy), when the dispatcher is not attached to
the cluster, or when an unknown dispatch interceptor is installed (only
the fault injector's crash-on-dispatch hook is understood).
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import inf
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.container import Container, ContainerState
from repro.metrics.table import RequestTable, code_dtype
from repro.sim import request as request_module
from repro.sim.request import Request, RequestStatus
from repro.workloads.generator import merge_arrivals

#: Idle-candidate count at which the WRR pick switches to the
#: vectorized scoring path; below it, list/array setup costs more than
#: the scalar scan saves.
_VECTOR_PICK_MIN = 8

#: Column status codes (kept tiny so the column is a ``bytearray``).
_UNSEEN = 0     #: arrival not yet processed
_QUEUED = 1     #: waiting in the function's shared queue
_RUNNING = 2    #: executing on a container
_COMPLETED = 3  #: finished successfully
_DROPPED = 4    #: dropped or timed out (faults)

#: the enum members the boundary code reads, bound once (an ``Enum`` member
#: read is a hooked ``EnumType`` lookup); not the column codes above
_STARTING, _WARM = ContainerState.STARTING, ContainerState.WARM
_STATUS_PENDING, _STATUS_QUEUED, _STATUS_RUNNING, _STATUS_COMPLETED = (
    RequestStatus.PENDING, RequestStatus.QUEUED, RequestStatus.RUNNING, RequestStatus.COMPLETED)


@dataclass
class ColumnarPlan:
    """What a control-plane policy exposes so the kernel can stand in for it.

    A plan says that the policy's per-request ``dispatch``/completion
    work is exactly: fold the arrival into ``fold_arrivals`` state, count
    it in the collector, submit through the shared-queue dispatcher,
    create one container when the function has none
    (``create_on_empty``), and observe completions via
    ``fold_completions`` — which is precisely what the kernel replays
    columnar — and that its container-warm hook does nothing but
    ``dispatcher.drain(container.function_name)``: the kernel steps a
    warm-up with that function's object-side queue empty, so the hook
    starts nothing, and does the drain itself (see "Warm-ups" in the
    module docstring).

    :class:`~repro.core.dispatch.SharedQueuePolicy` is the one place that
    holds a policy to this: its event-plane ``dispatch``, completion
    callback and warm hook are that data path, and its ``columnar_plan``
    builds the plan from the same per-function estimators (the scalar
    ``record_arrival`` / ``observe`` there, the batch
    ``record_arrivals_many`` / ``observe_many`` here), so the two cannot
    drift apart.  Every other policy keeps the default ``None`` and the
    event-level path.
    """

    #: The policy's live :class:`~repro.core.dispatch.SharedQueueDispatcher`.
    dispatcher: Any
    #: The run's :class:`~repro.metrics.collector.MetricsCollector`.
    collector: Any
    #: Fold a batch of arrival times (non-decreasing) for one function
    #: into the policy's estimator state; ``None`` when the policy keeps
    #: no per-arrival state (static/noop/reactive).
    fold_arrivals: Optional[Callable[[str, Sequence[float]], None]] = None
    #: Replica of the policy's "queued a request but the function has no
    #: containers" reaction; ``None`` when the policy never reacts.
    create_on_empty: Optional[Callable[[str], None]] = None
    #: Batched completion observations for one function:
    #: ``(function, cpu_fractions, service_times)`` in completion order;
    #: ``None`` when the policy does not learn online.
    fold_completions: Optional[Callable[[str, Sequence[float], Sequence[float]], None]] = None


class _Slot:
    """The kernel's per-container mirror: hot fields of one warm container.

    A function's slots are rebuilt from its live
    :class:`~repro.cluster.container.Container` objects at every
    boundary, and a warm-up adds one.  Sizes and speeds only change at
    boundaries (deflation is a controller action), so the values
    snapshotted here are always current.
    """

    __slots__ = (
        "container", "cid", "node_name", "speed", "weight", "key",
        "cpu_fraction", "busy_fs", "busy_row", "completed",
    )

    def __init__(self, container: Any) -> None:
        """Snapshot the container's dispatch-relevant fields."""
        self.container = container
        self.cid = container.container_id
        self.node_name = container.node_name
        self.speed = container.speed
        self.weight = max(1e-9, container.current_cpu)
        self.key = (container.current_cpu, container.container_id)
        self.cpu_fraction = container.cpu_fraction
        self.busy_fs: Optional["_FnState"] = None
        self.busy_row = -1
        self.completed = container.completed_requests

    def __lt__(self, other: "_Slot") -> bool:
        """Order slots the way the dispatcher sorts idle candidates."""
        return self.key < other.key


class _FnState:
    """Per-function columns plus queue/idle bookkeeping."""

    __slots__ = (
        "name", "times", "works", "rid", "status", "start",
        "finish", "cold", "ccid", "cnode", "obj", "pos", "flush_pos",
        "queue", "idle", "idle_ids", "scores", "prune_pending",
        "may_create", "done_rows", "done_fracs", "slots", "live",
    )

    def __init__(self, name: str) -> None:
        """Create empty columns for one function."""
        self.name = name
        self.times: List[float] = []
        self.works: List[float] = []
        self.rid: List[int] = []
        self.status = bytearray()
        self.start: List[float] = []
        self.finish: List[float] = []
        self.cold = bytearray()
        self.ccid: List[Optional[str]] = []
        self.cnode: List[Optional[str]] = []
        self.obj: List[Optional[Request]] = []
        self.pos = 0          # arrivals processed (== rows consumed)
        self.flush_pos = 0    # arrivals already folded into metrics
        self.queue: deque = deque()           # queued row indices
        self.idle: List[_Slot] = []           # sorted by _Slot.key
        self.idle_ids: set = set()
        self.scores: Dict[str, float] = {}
        # score keys that may have gone stale (their container left the
        # idle set) since the last pick pruned; the event-level balancer
        # scans the whole dict at every pick, the kernel only these
        self.prune_pending: set = set()
        # no container at the last absorb, and no create-on-empty tried since
        self.may_create = False
        self.done_rows: List[int] = []     # completions since last flush
        self.done_fracs: List[float] = []  # their containers' CPU fractions
        self.slots: List[_Slot] = []       # every warm container's mirror
        self.live: List[int] = []          # rows whose Request object may still change

    def _allocate(self) -> None:
        """Size the per-row state columns once all arrivals are known."""
        n = len(self.times)
        self.status = bytearray(n)
        self.start = [0.0] * n
        self.finish = [0.0] * n
        self.cold = bytearray(n)
        self.ccid = [None] * n
        self.cnode = [None] * n
        self.obj = [None] * n


def _void_completion(callback: Callable[..., Any], args: tuple) -> bool:
    """Whether a heap entry is a container's completion of a request it no longer runs."""
    return (getattr(callback, "__func__", None) is Container._finish_current
            and callback.__self__._current is not args[0])


def build_kernel(engine: Any, cluster: Any, policy: Any, generators: Sequence[Any],
                 ) -> Tuple[Optional["ColumnarKernel"], Optional[str]]:
    """Build a :class:`ColumnarKernel` for a run: ``(kernel, None)``, or ``(None, why not)``.

    Falling back leaves every generator unmaterialized and consumes no RNG,
    so the caller can run the event-level path untouched; the reason is
    a sentence for :attr:`~repro.simulation.SimulationResult.fallback_reason`.
    See the module docstring for the fallback conditions.
    """
    plan_method = getattr(policy, "columnar_plan", None)
    if plan_method is None:
        return None, f"policy {_policy_name(policy)} has no columnar_plan method"
    plan = plan_method()
    if plan is None:
        return None, f"policy {_policy_name(policy)} publishes no columnar plan"
    dispatcher = plan.dispatcher
    if dispatcher is None or not getattr(dispatcher, "_attached", False):
        return None, "the plan's dispatcher is not attached to a cluster"
    injector = None
    interceptor = dispatcher.interceptor
    if interceptor is not None:
        owner = getattr(interceptor, "__self__", None)
        if (
            owner is None
            or not hasattr(owner, "crash_decision")
            or not hasattr(owner, "apply_crash")
            or getattr(owner, "_intercept_dispatch", None) != interceptor
        ):
            # only the fault injector's crash-on-dispatch hook is understood
            return None, "an unknown dispatch interceptor is installed"
        injector = owner
    return ColumnarKernel(engine, cluster, plan, injector, generators), None


def _policy_name(policy: Any) -> str:
    """A policy's registered name for a fallback reason, or its class name."""
    return repr(getattr(policy, "name", type(policy).__name__))


class ColumnarKernel:
    """Drives one simulation run through the columnar data plane.

    Constructing the kernel materializes and merges every generator's
    arrivals (the RNG point of no return); :meth:`run` then replaces the
    event plane's ``stream_arrivals()`` + ``engine.run()`` pair.
    """

    def __init__(self, engine: Any, cluster: Any, plan: ColumnarPlan,
                 injector: Optional[Any], generators: Sequence[Any]) -> None:
        """Materialize arrivals into merged columns and take over container state."""
        self.engine = engine
        self.cluster = cluster
        self.plan = plan
        self.dispatcher = plan.dispatcher
        self.collector = plan.collector
        self.injector = injector

        per_times, per_works, order, sorted_gen, g_times = merge_arrivals(generators)
        fn_list = [_FnState(g.profile.name) for g in generators]
        counts = [len(times) for times in per_times]
        total = len(g_times)

        # Reserve the exact request-id block the event-level plane would
        # hand out: it draws ids in arrival-execution order, which is the
        # merged order.
        rid0 = self._rid0 = next(request_module._request_counter)
        request_module._request_counter = itertools.count(rid0 + total)

        offsets = np.zeros(len(fn_list), dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        merged_pos = np.empty(total, dtype=np.int64)
        merged_pos[order] = np.arange(total)
        g_fs = [fn_list[g] for g in sorted_gen.tolist()]
        g_row = (order - offsets[sorted_gen]).tolist()
        for gi, fs in enumerate(fn_list):
            lo, hi = int(offsets[gi]), int(offsets[gi]) + counts[gi]
            fs.times = per_times[gi]
            fs.works = per_works[gi]
            fs.rid = (rid0 + merged_pos[lo:hi]).tolist()
            fs._allocate()

        self._fn_list = fn_list
        self._fn_by_name = {fs.name: fs for fs in fn_list}
        self._g_times = g_times
        self._g_fs = g_fs
        self._g_row = g_row
        self._gpos = 0
        self._comp: List[Tuple[float, int, _Slot]] = []
        # completion-heap tie-break: dispatch order, across boundaries
        self._seq = itertools.count()
        self._has_live = False
        self._row_by_rid: Dict[int, Tuple[_FnState, int]] = {}
        #: Exact counts of the protocol's work: engine boundaries,
        #: warm-ups taken in-kernel and, over every synchronization
        #: (crash syncs and the final one included), slots rebuilt and
        #: queued + running rows written back into live objects.
        #: Repeatable, but deliberately not part of any results envelope.
        self.stats: Dict[str, int] = dict.fromkeys(
            ("boundaries_full", "warm_ups", "slots_rebuilt", "rows_materialized"), 0)
        self._absorb()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Advance the run to ``until`` (workload horizon plus drain).

        Alternates columnar draining with real engine boundaries: every
        pending engine event (control tick, fault, draining completion)
        executes against materialized object state, exactly as on the
        event-level plane, and a warm-up is taken in-kernel
        (:meth:`_warm`).
        """
        engine = self.engine
        warm_up = self.cluster._finish_cold_start
        while True:
            event = engine.peek()
            if event is None or event[0] > until:
                if self._drain(until, inclusive=True):
                    continue  # a sync scheduled new engine events; re-peek
                break
            boundary = event[0]
            if self._drain(boundary, inclusive=False):
                continue
            if event[1] == warm_up and self._warm(event[2][0]):
                continue
            self._flush()
            self._materialize()
            engine.step()
            while engine.peek_time() == boundary:
                engine.step()
            self.stats["boundaries_full"] += 1
            self._absorb()
        self._flush()
        self._materialize()
        self.collector.defer_requests(self._fill, self._export())
        # settle the clock (and any past-horizon events) like the event plane
        engine.run(until=until)

    def _warm(self, container: Any) -> bool:
        """Take the next engine event, ``container``'s warm-up, without a boundary.

        Steps the real ``_finish_cold_start``, then does its warm hook's
        drain in-kernel (see "Warm-ups" in the module docstring).
        Returns ``False``, stepping nothing, when the warm-up must be a
        full boundary instead: the drain would have other idle
        candidates, or its crash draw will hit.
        """
        fs = self._fn_by_name.get(container.function_name)
        if container.state is not _STARTING:
            fs = None  # terminated or draining: the event warms nothing
        elif fs is not None:
            status = fs.status
            queue = fs.queue
            head = next((i for i in queue if status[i] == _QUEUED), None)
            injector = self.injector
            if head is not None and (fs.idle or (injector is not None
                                                 and injector.peek_crash(fs.name))):
                return False
        engine = self.engine
        engine.step()
        self.stats["warm_ups"] += 1
        if fs is None:
            return True
        slot = _Slot(container)
        fs.slots.append(slot)
        insort(fs.idle, slot)
        fs.idle_ids.add(slot.cid)
        if head is None:
            queue.clear()
            return True
        while queue.popleft() != head:
            pass
        self._pick(fs)
        if injector is not None:
            injector.crash_decision(fs.name)  # the peeked miss
        now = engine._now
        status[head] = _RUNNING
        fs.start[head] = now
        fs.ccid[head] = slot.cid
        fs.cnode[head] = slot.node_name
        fs.cold[head] = 1
        heappush(self._comp, (now + max(1e-9, fs.works[head] / slot.speed),
                              next(self._seq), slot))
        slot.busy_fs = fs
        slot.busy_row = head
        obj = fs.obj[head]
        if obj is not None:
            obj.status = _STATUS_RUNNING
            obj.start_time = now
            obj.container_id = slot.cid
            obj.node_name = slot.node_name
            obj.cold_start = True
        return True

    # ------------------------------------------------------------------
    # Columnar draining
    # ------------------------------------------------------------------
    def _drain(self, limit: float, inclusive: bool) -> bool:
        """Process arrivals/completions up to ``limit``.

        ``inclusive`` selects whether events exactly at ``limit`` are
        processed (final horizon) or left for the engine boundary
        (strict ``<`` — the boundary event itself runs first at ties,
        a measure-zero case for continuous workloads).  Returns ``True``
        when a synchronization (container creation or crash) changed
        engine/object state and the caller must re-examine the engine
        queue; ``False`` once drained to ``limit``.
        """
        g_times = self._g_times
        g_fs = self._g_fs
        g_row = self._g_row
        n_total = len(g_times)
        comp = self._comp
        pos = self._gpos
        injector = self.injector
        crash_decision = injector.crash_decision if injector is not None else None
        create = self.plan.create_on_empty
        pick = self._pick
        next_seq = self._seq.__next__
        running = _STATUS_RUNNING
        completed_status = _STATUS_COMPLETED
        # rows only carry live Request objects after a boundary
        # materialized them; in the steady state between boundaries the
        # object-sync branches are dead and skipped wholesale
        has_live = self._has_live
        try:
            at = g_times[pos] if pos < n_total else inf
            ct = comp[0][0] if comp else inf
            while True:
                if at <= ct:
                    if (at > limit) if inclusive else (at >= limit):
                        return False
                    # ---- arrival ----
                    fs = g_fs[pos]
                    i = g_row[pos]
                    pos += 1
                    fs.pos = i + 1
                    idle = fs.idle
                    if idle:
                        if len(idle) == 1:
                            # inlined single-candidate pick (the hot case
                            # near saturation); mirrors _pick's fast path
                            slot = idle[0]
                            cid = slot.cid
                            scores = fs.scores
                            if scores and (len(scores) > 1 or cid not in scores):
                                kept = scores.get(cid)
                                scores.clear()
                                if kept is not None:
                                    scores[cid] = kept
                            del idle[0]
                            fs.idle_ids.discard(cid)
                            pending = fs.prune_pending
                            pending.clear()
                            pending.add(cid)
                        else:
                            slot = pick(fs)
                        if crash_decision is not None and crash_decision(fs.name):
                            self._crash_sync(fs, i, slot, at, queued=False)
                            return True
                        # dispatch (cold starts only happen at warm-ups,
                        # which _warm handles)
                        fs.status[i] = _RUNNING
                        fs.start[i] = at
                        fs.ccid[i] = slot.cid
                        fs.cnode[i] = slot.node_name
                        duration = fs.works[i] / slot.speed
                        if duration < 1e-9:
                            duration = 1e-9
                        heappush(comp, (at + duration, next_seq(), slot))
                        ct = comp[0][0]
                        slot.busy_fs = fs
                        slot.busy_row = i
                        if has_live:
                            obj = fs.obj[i]
                            if obj is not None:
                                obj.status = running
                                obj.start_time = at
                                obj.container_id = slot.cid
                                obj.node_name = slot.node_name
                                obj.cold_start = False
                    else:
                        fs.status[i] = _QUEUED
                        fs.queue.append(i)
                        if fs.may_create and create is not None:
                            # tried once per boundary: until the next one the
                            # only capacity changes are these creations,
                            # which shrink it, so a retry cannot fit
                            fs.may_create = False
                            self.engine._now = at
                            create(fs.name)
                            if self.cluster.has_containers(fs.name):
                                return True  # its warm-up is an engine event
                    at = g_times[pos] if pos < n_total else inf
                else:
                    if (ct > limit) if inclusive else (ct >= limit):
                        return False
                    # ---- completion ----
                    t, _, slot = heappop(comp)
                    fs = slot.busy_fs
                    i = slot.busy_row
                    fs.finish[i] = t
                    fs.status[i] = _COMPLETED
                    slot.completed += 1
                    slot.busy_fs = None
                    if has_live:
                        obj = fs.obj[i]
                        if obj is not None:
                            obj.status = completed_status
                            obj.completion_time = t
                    fs.done_rows.append(i)
                    fs.done_fracs.append(slot.cpu_fraction)
                    # pull the next queued request onto the freed container
                    queue = fs.queue
                    dispatched = False
                    while queue:
                        j = queue.popleft()
                        if fs.status[j] != _QUEUED:
                            continue
                        if crash_decision is not None and crash_decision(fs.name):
                            self._crash_sync(fs, j, slot, t, queued=True)
                            return True
                        fs.status[j] = _RUNNING
                        fs.start[j] = t
                        fs.ccid[j] = slot.cid
                        fs.cnode[j] = slot.node_name
                        duration = fs.works[j] / slot.speed
                        if duration < 1e-9:
                            duration = 1e-9
                        heappush(comp, (t + duration, next_seq(), slot))
                        slot.busy_fs = fs
                        slot.busy_row = j
                        if has_live:
                            nxt = fs.obj[j]
                            if nxt is not None:
                                nxt.status = running
                                nxt.start_time = t
                                nxt.container_id = slot.cid
                                nxt.node_name = slot.node_name
                                nxt.cold_start = False
                        dispatched = True
                        break
                    if not dispatched:
                        insort(fs.idle, slot)
                        fs.idle_ids.add(slot.cid)
                    ct = comp[0][0] if comp else inf
        finally:
            self._gpos = pos

    def _pick(self, fs: _FnState) -> _Slot:
        """Smooth-WRR pick over the function's idle slots (exact replica).

        Mutates the *real* balancer score dict in place, including the
        single-candidate fast path's stale-state cleanup, so balancer
        state stays byte-identical to the event-level plane.  The chosen
        slot is removed from the idle set.
        """
        idle = fs.idle
        scores = fs.scores
        pending = fs.prune_pending
        if len(idle) == 1:
            slot = idle[0]
            cid = slot.cid
            if scores and (len(scores) > 1 or cid not in scores):
                kept = scores.get(cid)
                scores.clear()
                if kept is not None:
                    scores[cid] = kept
            del idle[0]
            fs.idle_ids.discard(cid)
            pending.clear()
            pending.add(cid)
            return slot
        idle_ids = fs.idle_ids
        if pending:
            # deferred replica of the balancer's per-pick stale prune:
            # only keys that left the idle set since the last prune can
            # be stale, and those are exactly the pending ones
            for cid in pending:
                if cid not in idle_ids and cid in scores:
                    del scores[cid]
            pending.clear()
        get_score = scores.get
        n = len(idle)
        if n >= _VECTOR_PICK_MIN:
            # vectorized replica of the scalar scan below: the
            # element-wise float64 add is bit-identical to the per-slot
            # ``old + weight``, and ``total_weight`` keeps the scalar
            # path's left-to-right accumulation order (never np.sum,
            # whose pairwise reduction rounds differently)
            weights = [slot.weight for slot in idle]
            total_weight = sum(weights)
            old = np.fromiter((get_score(slot.cid, 0.0) for slot in idle),
                              dtype=np.float64, count=n)
            new = old + np.asarray(weights, dtype=np.float64)
            new_list = new.tolist()
            for slot, score in zip(idle, new_list):
                scores[slot.cid] = score
            top = new.max()
            if int((new >= top - 1e-15).sum()) == 1:
                best_index = int(new.argmax())
            else:
                # scores within the epsilon of the max: replay the
                # scalar first-wins-beyond-epsilon scan exactly
                best_index = 0
                best_score = -inf
                for index, score in enumerate(new_list):
                    if score > best_score + 1e-15:
                        best_score = score
                        best_index = index
            best = idle[best_index]
            scores[best.cid] = new_list[best_index] - total_weight
        else:
            total_weight = 0.0
            best = None
            best_index = -1
            best_score = -inf
            for index, slot in enumerate(idle):
                weight = slot.weight
                total_weight += weight
                score = get_score(slot.cid, 0.0) + weight
                scores[slot.cid] = score
                if score > best_score + 1e-15:
                    best_score = score
                    best = slot
                    best_index = index
            scores[best.cid] -= total_weight
        del idle[best_index]
        idle_ids.discard(best.cid)
        pending.add(best.cid)
        return best

    # ------------------------------------------------------------------
    # Metric folds
    # ------------------------------------------------------------------
    def _flush(self) -> None:
        """Fold every function's pending arrivals and completions into policy/collector state.

        Runs before every engine boundary, so everything its events can
        observe (rate estimators, epoch arrival counts, counters) is
        exactly as the event-level plane would have left it at that
        timestamp; what a warm-up leaves pending folds at the next
        boundary.  Per-function estimators are independent, so folding
        each function's completions as one batch (in its own completion
        order) is exact.
        """
        plan = self.plan
        collector = self.collector
        fns = self._fn_list
        fold_arrivals = plan.fold_arrivals
        for fs in fns:
            pos = fs.pos
            start = fs.flush_pos
            if pos > start:
                if fold_arrivals is not None:
                    fold_arrivals(fs.name, fs.times[start:pos])
                collector.fold_arrivals(pos - start)
                fs.flush_pos = pos
        fold_completions = plan.fold_completions
        count = 0
        cold = 0
        for fs in fns:
            rows = fs.done_rows
            if not rows:
                continue
            count += len(rows)
            cold += sum(map(fs.cold.__getitem__, rows))
            if fold_completions is not None:
                start = fs.start
                finish = fs.finish
                fold_completions(
                    fs.name, fs.done_fracs,
                    [finish[i] - start[i] for i in rows],
                )
            fs.done_rows = []
            fs.done_fracs = []
        if count:
            collector.fold_completions_bulk(count, cold)

    # ------------------------------------------------------------------
    # Object-state synchronization
    # ------------------------------------------------------------------
    def _request_for(self, fs: _FnState, i: int) -> Request:
        """Materialize (or fetch) the live ``Request`` object for one row."""
        obj = fs.obj[i]
        if obj is None:
            obj = Request(
                function_name=fs.name,
                arrival_time=fs.times[i],
                work=fs.works[i],
                request_id=fs.rid[i],
            )
            if fs.status[i] == _QUEUED:
                obj.status = _STATUS_QUEUED
            fs.obj[i] = obj
            self._row_by_rid[obj.request_id] = (fs, i)
            fs.live.append(i)
        return obj

    def _materialize(self) -> None:
        """Write the columnar state back into the real objects.

        After this, the dispatcher's queues and idle index, the
        containers' in-flight requests, finish times and completion
        entries (pushed in finish order, as bare ``call_at`` entries),
        and the per-container counters look exactly as if the
        event-level plane had run — so an engine event may execute real
        code.  The completion heap empties: the engine owns its entries
        until the absorb.  Every deque it fills is empty beforehand,
        because :meth:`_absorb` leaves it so.
        """
        dispatcher = self.dispatcher
        engine = self.engine
        queues = dispatcher._queues
        idle_index = dispatcher._idle
        rows = 0
        for fs in self._fn_list:
            if fs.queue:
                dq = queues.get(fs.name)
                if dq is None:
                    dq = queues[fs.name] = deque()
                dq.extend([self._request_for(fs, j) for j in fs.queue])
                rows += len(fs.queue)
            idle_index[fs.name] = {slot.cid: slot.container for slot in fs.idle}
        busy = self._comp
        if busy:
            busy.sort()
            self._comp = []
            rows += len(busy)
            call_at = engine.call_at
            completion_hook = dispatcher._completion_hook
            for finish, _, slot in busy:
                fs = slot.busy_fs
                i = slot.busy_row
                obj = self._request_for(fs, i)
                obj.status = _STATUS_RUNNING
                obj.start_time = fs.start[i]
                obj.container_id = slot.cid
                obj.node_name = slot.node_name
                obj.cold_start = bool(fs.cold[i])
                container = slot.container
                container._current = obj
                container._finish_time = finish
                call_at(finish, container._finish_current, obj, engine, completion_hook)
        for fs in self._fn_list:
            for slot in fs.slots:
                slot.container.completed_requests = slot.completed
        self.stats["rows_materialized"] += rows

    def _absorb(self) -> None:
        """Re-adopt the object state into columns after an engine boundary.

        Syncs previously materialized requests' status back into the
        columns, takes over each warm container (its request moves to the
        kernel's heap at its ``_finish_time``; the engine drops the entry), and rebuilds
        queues, idle sets and slots from the live dispatcher state,
        leaving the dispatcher's deques empty (see "Warm-ups" in the
        module docstring).  Containers in STARTING or DRAINING states
        stay object-side — their transitions are real engine events.
        """
        row_by_rid = self._row_by_rid
        queues = self.dispatcher._queues
        scores = self.dispatcher.balancer._scores
        cluster = self.cluster
        comp = self._comp
        next_seq = self._seq.__next__
        for fs in self._fn_list:
            still_live: List[int] = []
            for i in fs.live:
                obj = fs.obj[i]
                status = obj.status
                if status is _STATUS_COMPLETED:
                    fs.status[i] = _COMPLETED
                    fs.start[i] = obj.start_time
                    fs.finish[i] = obj.completion_time
                    fs.ccid[i] = obj.container_id
                    fs.cnode[i] = obj.node_name
                    fs.cold[i] = 1 if obj.cold_start else 0
                elif status is _STATUS_RUNNING:
                    fs.status[i] = _RUNNING
                    fs.start[i] = obj.start_time
                    fs.ccid[i] = obj.container_id
                    fs.cnode[i] = obj.node_name
                    fs.cold[i] = 1 if obj.cold_start else 0
                    still_live.append(i)
                elif status is _STATUS_QUEUED:
                    fs.status[i] = _QUEUED
                    still_live.append(i)
                elif status is _STATUS_PENDING:
                    still_live.append(i)
                else:  # dropped / timed out
                    fs.status[i] = _DROPPED
            fs.live = still_live

            idle: List[_Slot] = []
            slots: List[_Slot] = []
            for container in cluster.containers_of(fs.name):
                if container.state is not _WARM:
                    continue
                request = container._current
                if request is not None:
                    container._current = None
                    slot = _Slot(container)
                    slot.busy_fs, slot.busy_row = row_by_rid[request.request_id]
                    comp.append((container._finish_time, next_seq(), slot))
                    slots.append(slot)
                elif container.is_dispatchable:
                    slot = _Slot(container)
                    idle.append(slot)
                    slots.append(slot)
            idle.sort()
            fs.idle = idle
            fs.idle_ids = {slot.cid for slot in idle}
            fs.slots = slots
            self.stats["slots_rebuilt"] += len(slots)
            fs.queue = deque()
            dq = queues.get(fs.name)
            if dq:
                for obj in dq:
                    fs.queue.append(row_by_rid[obj.request_id][1])
                dq.clear()
            fs.may_create = not cluster.has_containers(fs.name)
            fs.scores = scores.setdefault(fs.name, {})
            # boundary code may have touched balancer state arbitrarily:
            # every key is suspect until the next pick prunes
            fs.prune_pending = set(fs.scores)
        heapify(comp)
        self.engine.drop_calls(_void_completion)
        self._has_live = any(fs.live for fs in self._fn_list)

    def _crash_sync(self, fs: _FnState, i: int, slot: _Slot, time: float,
                    queued: bool) -> None:
        """Hand a confirmed crash-on-dispatch to the injector's real path.

        ``queued`` distinguishes the two event-level crash sites: a
        fresh submit (the request is still PENDING and the policy may
        create a replacement container afterwards) versus a
        completion-driven queue pull (the request was QUEUED; the
        event-level pull loop simply stops because the container
        terminated).  The full flush + materialize beforehand matters:
        crash hooks like the hybrid policy's re-evaluate-and-drain read
        estimators, queues, and container state.
        """
        self.engine._now = time
        self._flush()
        self._materialize()
        obj = self._request_for(fs, i)
        self.injector.apply_crash(obj, slot.container)
        if not queued:
            create = self.plan.create_on_empty
            if create is not None and not self.cluster.has_containers(fs.name):
                create(fs.name)
        self._absorb()

    # ------------------------------------------------------------------
    # Deferred per-request records
    # ------------------------------------------------------------------
    def _export(self) -> RequestTable:
        """The finished run's request table, straight from the columns.

        Rows are in arrival order (``rid - rid0``), as :meth:`_fill`
        lists them, and follow its precedence: a row that owns a live
        ``Request`` — everything still queued or running at the end, and
        every drop — reports the object's fields; a row that lived and
        died inside the kernel reports its columns.  The column status
        codes of object-less rows (unseen, completed) coincide with the
        table's (pending, completed).
        """
        total = len(self._g_times)
        rid0 = self._rid0
        nan = np.nan
        codes = np.empty(total, dtype=code_dtype(len(self._fn_list)))
        status = np.empty(total, dtype=np.uint8)
        start = np.empty(total)
        completion = np.empty(total)
        for code, fs in enumerate(self._fn_list):
            if not fs.rid:
                continue
            at = np.asarray(fs.rid) - rid0
            state = np.frombuffer(fs.status, dtype=np.uint8)
            done = state == _COMPLETED
            codes[at] = code
            status[at] = state
            start[at] = np.where(done, fs.start, nan)
            completion[at] = np.where(done, fs.finish, nan)
        live = [fs.obj[i] for fs, i in self._row_by_rid.values()]
        if live:
            at = np.fromiter((obj.request_id - rid0 for obj in live), np.intp, len(live))
            held = RequestTable.from_requests(live)
            status[at] = held.status
            start[at] = held.start
            completion[at] = held.completion
        return RequestTable([fs.name for fs in self._fn_list], codes,
                            np.array(self._g_times, dtype=np.float64),
                            start, completion, status)

    def _fill(self) -> List[Request]:
        """Reconstruct the collector's per-request list in arrival order.

        Registered via ``MetricsCollector.defer_requests`` and invoked
        only when somebody reads ``collector.requests`` — the analysis
        helpers reduce the exported table (:meth:`_export`) and never
        need an object.  Rows that were materialized return their live
        object; the rest (requests that lived and died entirely inside
        the kernel) are rebuilt from columns, one constructor call each.
        """
        out: List[Optional[Request]] = [None] * len(self._g_times)
        rid0 = self._rid0
        for fs in self._fn_list:
            name = fs.name
            objs = fs.obj
            rows = zip(fs.rid, objs, fs.times, fs.works, fs.status, fs.start,
                       fs.finish, fs.ccid, fs.cnode, fs.cold)
            for i, (rid, obj, time, work, status, start, finish, ccid, cnode, cold) in enumerate(rows):
                if obj is None:
                    if status == _COMPLETED:
                        obj = Request(name, time, work, rid, _STATUS_COMPLETED,
                                      start, finish, ccid, cnode, bool(cold))
                    else:
                        obj = Request(name, time, work, rid)
                        if status == _QUEUED:  # pragma: no cover - queued rows are materialized
                            obj.status = _STATUS_QUEUED
                    objs[i] = obj
                out[rid - rid0] = obj
        return out


__all__ = ["ColumnarPlan", "ColumnarKernel", "build_kernel"]
