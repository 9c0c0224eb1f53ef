"""Columnar data plane: a vectorized request-lifecycle kernel.

The event-level path simulates every request as a handful of engine
events and callback hops (arrival → dispatch → completion), each
touching a live :class:`~repro.sim.request.Request` object.  That is
the oracle — and, since PR 1/PR 3 made the control plane fast, the
dominant cost of every simulated second.

This module executes the same lifecycle *columnar*: all arrival times
and per-request work are materialized up front (batch-size-invariant
RNG consumption, see
:meth:`~repro.workloads.generator.ArrivalGenerator.materialize_arrivals`),
request state lives in parallel per-function columns
(arrival/start/finish/status/container), and the kernel advances a
merged arrival pointer against a completion heap instead of pumping
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
engine events.  Each is a *boundary*: the kernel *flushes* folded
metrics and *materializes* columns back into real objects (queued
``Request`` deques, busy containers with scheduled completion events,
the dispatcher's idle index) for the functions the event can touch —
its *scope* — lets the engine execute it, then *absorbs* the resulting
object state of those functions back into columns and continues.
Container crash-on-dispatch faults are handled the same way at request
granularity: the kernel draws from the injector's own RNG at every
dispatch and hands confirmed crashes to the injector's real crash path.

Boundary scopes
---------------
The scope is read off the next engine event.  A container warm-up
(``EdgeCluster._finish_cold_start(container)``) reaches only that
container's function — ``mark_warm`` → the dispatcher's idle index for
the function → the policy's warm hook, which the :class:`ColumnarPlan`
contract limits to draining that function's queue — so only that
function is flushed, materialized and absorbed, exactly one event is
stepped, and every other function's columns, slots and completion-heap
entries stay untouched.  Their pending folds ride to the next full
boundary in larger batches, which is exact because per-function
estimators are independent and their batch folds are split-invariant.
Every other event (epoch tick, fault, draining completion) gets the
full scope and, as before, every event at its timestamp runs inside
one boundary; same-timestamp warm-ups are taken one scope at a time in
engine order.  One thing widens a scoped boundary to the full one: a
crash-on-dispatch drawn while the warm hook drains (the policy's crash
hook may read and resize any function, so the rest is flushed and
materialized before it runs).

Fallback conditions
-------------------
:func:`build_kernel` returns no kernel — and the runner falls back to
the event-level plane, saying so in
:attr:`~repro.simulation.SimulationResult.fallback_reason` — when the
policy has no ``columnar_plan`` method, when it does not publish a
:class:`ColumnarPlan` (e.g. the OpenWhisk compatibility policy), when
the dispatcher is not attached to the cluster, or when an unknown
dispatch interceptor is installed (only the fault injector's
crash-on-dispatch hook is understood).
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

from repro.cluster.container import ContainerState
from repro.metrics.table import RequestTable, code_dtype
from repro.sim import request as request_module
from repro.sim.request import Request, RequestStatus

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


@dataclass
class ColumnarPlan:
    """What a control-plane policy exposes so the kernel can stand in for it.

    A policy that returns a plan from
    :meth:`~repro.core.policy.ControlPolicy.columnar_plan` asserts that
    its per-request ``dispatch``/completion work is exactly: fold the
    arrival into ``fold_arrivals`` state, count it in the collector,
    submit through the shared-queue dispatcher, create one container
    when the function has none (``create_on_empty``), and observe
    completions via ``fold_completions`` — which is precisely what the
    kernel replays columnar.  It also asserts that its container-warm
    hook does nothing but ``dispatcher.drain(container.function_name)``:
    the kernel synchronizes only that function's state around a warm-up
    (see "Boundary scopes" in the module docstring).  Policies with
    richer per-request or warm hooks must return ``None`` and keep the
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
    :class:`~repro.cluster.container.Container` objects whenever a
    boundary's scope includes the function.  Sizes and speeds only
    change at full-scope boundaries (deflation is a controller action),
    so the values snapshotted here are always current.
    """

    __slots__ = (
        "container", "cid", "node_name", "speed", "weight", "key",
        "cpu_fraction", "busy_fs", "busy_row", "busy_since",
        "completed", "busy_time",
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
        self.busy_since = 0.0
        self.completed = container.completed_requests
        self.busy_time = container.busy_time

    def __lt__(self, other: "_Slot") -> bool:
        """Order slots the way the dispatcher sorts idle candidates."""
        return self.key < other.key


class _FnState:
    """Per-function columns plus queue/idle bookkeeping."""

    __slots__ = (
        "name", "slo", "times", "works", "rid", "status", "start",
        "finish", "cold", "ccid", "cnode", "obj", "pos", "flush_pos",
        "queue", "idle", "idle_ids", "scores", "prune_pending",
        "has_containers", "done_rows", "done_fracs", "slots", "live",
    )

    def __init__(self, name: str, slo_deadline: Optional[float]) -> None:
        """Create empty columns for one function."""
        self.name = name
        self.slo = slo_deadline
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
        self.has_containers = False
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


def build_kernel(engine: Any, cluster: Any, policy: Any, generators: Sequence[Any],
                 ) -> Tuple[Optional["ColumnarKernel"], Optional[str]]:
    """Build a :class:`ColumnarKernel` for a run: ``(kernel, None)``, or ``(None, why not)``.

    Falling back leaves every generator unstarted and consumes no RNG,
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

    Constructing the kernel materializes every generator's arrivals
    (the RNG point of no return); :meth:`run` then replaces the
    runner's ``generator.start()`` + ``engine.run()`` pair.
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

        fn_list: List[_FnState] = []
        per_times: List[List[float]] = []
        per_works: List[List[float]] = []
        for generator in generators:
            times, works = generator.materialize_arrivals()
            fn_list.append(_FnState(generator.profile.name, generator.slo_deadline))
            per_times.append(times)
            per_works.append(works)
        counts = [len(times) for times in per_times]
        total = sum(counts)

        # Reserve the exact request-id block the event-level plane would
        # hand out: _emit draws ids in global arrival-execution order,
        # which is the merged time order built here.
        rid0 = self._rid0 = next(request_module._request_counter)
        request_module._request_counter = itertools.count(rid0 + total)

        if total:
            cat = np.concatenate(
                [np.asarray(times, dtype=np.float64) for times in per_times]
            )
            gen_of = np.repeat(np.arange(len(fn_list)), counts)
            # stable sort by (time, generator); within both, original order
            # — i.e. the per-generator local index, which is already time-
            # sorted.  Exactly the (t, gen, local) merge the event plane's
            # engine ordering produces.
            order = np.lexsort((gen_of, cat))
            offsets = np.zeros(len(fn_list), dtype=np.int64)
            np.cumsum(counts[:-1], out=offsets[1:])
            sorted_gen = gen_of[order]
            merged_pos = np.empty(total, dtype=np.int64)
            merged_pos[order] = np.arange(total)
            g_times = cat[order].tolist()
            g_fs = [fn_list[g] for g in sorted_gen.tolist()]
            g_row = (order - offsets[sorted_gen]).tolist()
            for gi, fs in enumerate(fn_list):
                lo, hi = int(offsets[gi]), int(offsets[gi]) + counts[gi]
                fs.times = per_times[gi]
                fs.works = per_works[gi]
                fs.rid = (rid0 + merged_pos[lo:hi]).tolist()
                fs._allocate()
        else:
            g_times, g_fs, g_row = [], [], []
            for fs in fn_list:
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
        # whose state is object-side during a boundary (full list outside one)
        self._scope: List[_FnState] = fn_list
        self._warm_up = cluster._finish_cold_start
        #: Exact counts of the protocol's work: engine boundaries by the
        #: scope they ended with and, over every synchronization (crash
        #: syncs and the final one included), functions absorbed, slots
        #: rebuilt, queued + running rows written back into live objects.
        #: Repeatable, but deliberately not part of any results envelope.
        self.stats: Dict[str, int] = dict.fromkeys(
            ("boundaries_full", "boundaries_scoped", "functions_visited",
             "slots_rebuilt", "rows_materialized"), 0)
        self._absorb(fn_list)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Advance the run to ``until`` (workload horizon plus drain).

        Alternates columnar draining with real engine boundaries: every
        pending engine event (control tick, warm-up, fault, draining
        completion) executes against materialized object state for
        everything it can touch, exactly as on the event-level plane.
        """
        engine = self.engine
        fn_list = self._fn_list
        dispatcher = self.dispatcher
        interceptor = dispatcher.interceptor
        if self.injector is not None:
            dispatcher.interceptor = self._intercept
        try:
            while True:
                event = engine.peek()
                if event is None or event[0] > until:
                    if self._drain(until, inclusive=True):
                        continue  # a sync scheduled new engine events; re-peek
                    break
                boundary = event[0]
                if self._drain(boundary, inclusive=False):
                    continue
                scope = self._scope = self._event_scope(event)
                self._flush(scope)
                self._materialize(scope)
                # a scoped boundary is exactly its one event; the full scope
                # (from the start, or widened by a crash) takes the timestamp
                engine.step()
                while self._scope is fn_list and engine.peek_time() == boundary:
                    engine.step()
                full = self._scope is fn_list
                self.stats["boundaries_full" if full else "boundaries_scoped"] += 1
                self._absorb(self._scope)
                self._scope = fn_list
        finally:
            dispatcher.interceptor = interceptor
        self._flush(fn_list)
        self._materialize(fn_list)
        self.collector.defer_requests(self._fill, self._export())
        # settle the clock (and any past-horizon events) like the event plane
        engine.run(until=until)

    def _event_scope(self, event: Tuple[float, Callable[..., Any], tuple]) -> List[_FnState]:
        """The functions the next engine event can touch (the full list if unknown)."""
        if event[1] != self._warm_up:
            return self._fn_list
        fs = self._fn_by_name.get(event[2][0].function_name)
        return [] if fs is None else [fs]

    def _widen(self) -> None:
        """Turn the boundary in progress into a full one, mid-event."""
        scope = self._scope
        if scope is not self._fn_list:
            rest = [fs for fs in self._fn_list if fs not in scope]
            self._scope = self._fn_list
            self._flush(rest)
            self._materialize(rest)

    def _intercept(self, request: Request, container: Any) -> bool:
        """The injector's dispatch interceptor, widening the scope before a crash.

        Installed while the kernel runs: a crash drawn inside a scoped
        boundary (the warm hook's drain) reaches the policy's crash
        hook, which may read estimators and resize any function.
        """
        if not self.injector.crash_decision(request.function_name):
            return True
        self._widen()
        self.injector.apply_crash(request, container)
        return False

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
        running = RequestStatus.RUNNING
        completed_status = RequestStatus.COMPLETED
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
                        # dispatch (cold starts only happen at warm
                        # boundaries, which the engine handles)
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
                        slot.busy_since = at
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
                        if not fs.has_containers and create is not None:
                            self.engine._now = at
                            create(fs.name)
                            fs.has_containers = self.cluster.has_containers(fs.name)
                            return True
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
                    slot.busy_time += t - slot.busy_since
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
                        slot.busy_since = t
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
    def _flush(self, fns: List[_FnState]) -> None:
        """Fold the pending arrivals and completions of ``fns`` into policy/collector state.

        Runs before every engine boundary over the boundary's scope, so
        everything its event can observe (rate estimators, epoch arrival
        counts, counters) is exactly as the event-level plane would have
        left it at that timestamp; what a scoped boundary leaves pending
        folds at the next full one.  Per-function estimators are
        independent, so folding each function's completions as one batch
        (in its own completion order) is exact.
        """
        plan = self.plan
        collector = self.collector
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
            times = fs.times
            obj = Request(
                function_name=fs.name,
                arrival_time=times[i],
                deadline=None if fs.slo is None else times[i] + fs.slo,
                work=fs.works[i],
                request_id=fs.rid[i],
            )
            if fs.status[i] == _QUEUED:
                obj.status = RequestStatus.QUEUED
            fs.obj[i] = obj
            self._row_by_rid[obj.request_id] = (fs, i)
            fs.live.append(i)
        return obj

    def _materialize(self, fns: List[_FnState]) -> None:
        """Write the columnar state of ``fns`` back into the real objects.

        After this, those functions' dispatcher queues and idle index,
        their containers' in-flight requests + scheduled completion
        events, and the per-container counters look exactly as if the
        event-level plane had run — so an engine event that touches
        only them may execute real code.  Their completion-heap entries
        leave the heap (the engine owns them until the absorb); every
        other function's entries stay where they are.
        """
        dispatcher = self.dispatcher
        engine = self.engine
        queues = dispatcher._queues
        idle_index = dispatcher._idle
        rows = 0
        for fs in fns:
            if fs.queue:
                dq = queues.get(fs.name)
                if dq is None:
                    dq = queues[fs.name] = deque()
                else:
                    dq.clear()
                for j in fs.queue:
                    dq.append(self._request_for(fs, j))
                rows += len(fs.queue)
            else:
                dq = queues.get(fs.name)
                if dq:
                    dq.clear()
            idle_index[fs.name] = {slot.cid: slot.container for slot in fs.idle}
        scope = set(fns)
        busy = []
        rest = []
        for entry in self._comp:
            (busy if entry[2].busy_fs in scope else rest).append(entry)
        if busy:
            busy.sort()
            heapify(rest)
            self._comp = rest
            rows += len(busy)
            entries = []
            completion_hook = dispatcher._completion_hook
            for finish, _, slot in busy:
                fs = slot.busy_fs
                i = slot.busy_row
                obj = self._request_for(fs, i)
                obj.status = RequestStatus.RUNNING
                obj.start_time = fs.start[i]
                obj.container_id = slot.cid
                obj.node_name = slot.node_name
                obj.cold_start = bool(fs.cold[i])
                container = slot.container
                container._current = obj
                container._busy_since = slot.busy_since
                entries.append(
                    (finish, container._finish_current, (engine, completion_hook))
                )
            events = engine.schedule_many_events(entries)
            for (_, _, slot), event in zip(busy, events):
                slot.container._completion_event = event
        for fs in fns:
            for slot in fs.slots:
                container = slot.container
                container.completed_requests = slot.completed
                container.busy_time = slot.busy_time
        self.stats["rows_materialized"] += rows

    def _absorb(self, fns: List[_FnState]) -> None:
        """Re-adopt the object state of ``fns`` into columns after an engine boundary.

        Syncs their previously materialized requests' status back into
        the columns, takes over each of their warm containers
        (cancelling its pending completion event in favour of the
        kernel's heap), and rebuilds their queues, idle sets and slots
        from the live dispatcher state.  Containers in STARTING or
        DRAINING states stay object-side — their transitions are real
        engine events and therefore future boundaries.
        """
        completed = RequestStatus.COMPLETED
        running = RequestStatus.RUNNING
        queued = RequestStatus.QUEUED
        row_by_rid = self._row_by_rid
        queues = self.dispatcher._queues
        scores = self.dispatcher.balancer._scores
        cluster = self.cluster
        comp = self._comp
        next_seq = self._seq.__next__
        warm = ContainerState.WARM
        for fs in fns:
            still_live: List[int] = []
            for i in fs.live:
                obj = fs.obj[i]
                status = obj.status
                if status is completed:
                    fs.status[i] = _COMPLETED
                    fs.start[i] = obj.start_time
                    fs.finish[i] = obj.completion_time
                    fs.ccid[i] = obj.container_id
                    fs.cnode[i] = obj.node_name
                    fs.cold[i] = 1 if obj.cold_start else 0
                elif status is running:
                    fs.status[i] = _RUNNING
                    fs.start[i] = obj.start_time
                    fs.ccid[i] = obj.container_id
                    fs.cnode[i] = obj.node_name
                    fs.cold[i] = 1 if obj.cold_start else 0
                    still_live.append(i)
                elif status is queued:
                    fs.status[i] = _QUEUED
                    still_live.append(i)
                elif status is RequestStatus.PENDING:
                    still_live.append(i)
                else:  # dropped / timed out
                    fs.status[i] = _DROPPED
            fs.live = still_live

            idle: List[_Slot] = []
            slots: List[_Slot] = []
            for container in cluster.containers_of(fs.name):
                if container.state is not warm:
                    continue
                if container._current is not None:
                    event = container._completion_event
                    finish = event.time
                    event.cancel()
                    container._completion_event = None
                    request = container._current
                    container._current = None
                    busy_since = container._busy_since
                    container._busy_since = None
                    slot = _Slot(container)
                    busy_fs, busy_row = row_by_rid[request.request_id]
                    slot.busy_fs = busy_fs
                    slot.busy_row = busy_row
                    slot.busy_since = busy_since
                    comp.append((finish, next_seq(), slot))
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
            fs.has_containers = cluster.has_containers(fs.name)
            fs.scores = scores.setdefault(fs.name, {})
            # boundary code may have touched balancer state arbitrarily:
            # every key is suspect until the next pick prunes
            fs.prune_pending = set(fs.scores)
        heapify(comp)
        self.stats["functions_visited"] += len(fns)
        # out-of-scope rows that finished in-kernel since their last absorb
        # are still listed; they must not keep _drain's object-sync branch on
        self._has_live = any(
            fs.status[i] < _COMPLETED for fs in self._fn_list for i in fs.live
        )

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
        self._flush(self._fn_list)
        self._materialize(self._fn_list)
        obj = self._request_for(fs, i)
        self.injector.apply_crash(obj, slot.container)
        if not queued:
            create = self.plan.create_on_empty
            if create is not None and not self.cluster.has_containers(fs.name):
                create(fs.name)
        self._absorb(self._fn_list)

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
        completed = RequestStatus.COMPLETED
        for fs in self._fn_list:
            name = fs.name
            slo = fs.slo
            objs = fs.obj
            rows = zip(fs.rid, objs, fs.times, fs.works, fs.status, fs.start,
                       fs.finish, fs.ccid, fs.cnode, fs.cold)
            for i, (rid, obj, time, work, status, start, finish, ccid, cnode, cold) in enumerate(rows):
                if obj is None:
                    deadline = None if slo is None else time + slo
                    if status == _COMPLETED:
                        obj = Request(name, time, deadline, work, rid, completed,
                                      start, finish, ccid, cnode, bool(cold))
                    else:
                        obj = Request(name, time, deadline, work, rid)
                        if status == _QUEUED:  # pragma: no cover - queued rows are materialized
                            obj.status = RequestStatus.QUEUED
                    objs[i] = obj
                out[rid - rid0] = obj
        return out


__all__ = ["ColumnarPlan", "ColumnarKernel", "build_kernel"]
