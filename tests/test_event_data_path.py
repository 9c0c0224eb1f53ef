"""The event plane's data path is held to the bodies it replaced.

Frozen oracles, pasted verbatim from commit 8f5342b (PR 21):
``frozen_idle_candidates`` + ``FrozenBalancer.pick`` / ``forced_pick`` —
``SharedQueueDispatcher._idle_candidates`` and
``WeightedRoundRobinBalancer.pick`` as ``submit`` composed them
(``frozen_choose``) — and ``frozen_drain``, ``SharedQueueDispatcher.drain``
over the same two.  Consumed by
``test_one_pass_pick_matches_the_frozen_candidates_and_pick``,
``test_submit_takes_the_container_the_frozen_path_would``,
``test_drain_starts_what_the_frozen_drain_would`` and
``test_public_pick_scores_warm_containers_in_the_order_given``.
``test_dispatch_starts_work_only_on_a_warm_empty_container`` holds the
three dispatch routes to the precondition ``_dispatch_to`` relies on.
"""

import sys
from collections import deque
from operator import attrgetter
from typing import Dict, List, Optional, Sequence

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster.container import Container, ContainerState
from repro.cluster.loadbalancer import WeightedRoundRobinBalancer
from repro.core.dispatch import SharedQueueDispatcher
from repro.sim.engine import SimulationEngine
from repro.sim.request import Request, RequestStatus

# ----------------------------------------------------------------------
# Frozen from 8f5342b: core/dispatch.py and cluster/loadbalancer.py
# ----------------------------------------------------------------------
_idle_sort_key = attrgetter("current_cpu", "container_id")


def frozen_idle_candidates(index: Dict[str, Container]) -> List[Container]:
    """``SharedQueueDispatcher._idle_candidates`` with the index passed in."""
    if not index:
        return []
    stale = [
        cid for cid, c in index.items() if not (c.is_dispatchable)
    ]
    for cid in stale:
        del index[cid]
    if not index:
        return []
    return sorted(index.values(), key=_idle_sort_key)


class FrozenBalancer:
    """``WeightedRoundRobinBalancer`` as it scored before the one-pass pick."""

    def __init__(self) -> None:
        self._scores: Dict[str, Dict[str, float]] = {}

    def pick(self, function_name: str, containers: Sequence[Container]) -> Optional[Container]:
        eligible = [c for c in containers if c.is_available]
        if not eligible:
            return None
        if len(eligible) == 1:
            self.forced_pick(function_name, eligible[0])
            return eligible[0]
        scores = self._scores.setdefault(function_name, {})
        # prune state for containers that no longer exist
        live_ids = {c.container_id for c in eligible}
        for stale in [cid for cid in scores if cid not in live_ids]:
            del scores[stale]

        total_weight = 0.0
        best: Optional[Container] = None
        best_score = float("-inf")
        for container in eligible:
            weight = self._weight(container)
            total_weight += weight
            score = scores.get(container.container_id, 0.0) + weight
            scores[container.container_id] = score
            if score > best_score + 1e-15:
                best_score = score
                best = container
        assert best is not None
        scores[best.container_id] -= total_weight
        return best

    def forced_pick(self, function_name: str, only: Container) -> None:
        scores = self._scores.get(function_name)
        if scores and (len(scores) > 1 or only.container_id not in scores):
            kept = scores.get(only.container_id)
            scores.clear()
            if kept is not None:
                scores[only.container_id] = kept

    @staticmethod
    def _weight(container: Container) -> float:
        return max(1e-9, container.current_cpu)


def frozen_choose(balancer: FrozenBalancer, name: str,
                  index: Dict[str, Container]) -> Optional[Container]:
    """The candidate selection of ``SharedQueueDispatcher.submit`` at 8f5342b."""
    chosen = None
    if index:
        only = next(iter(index.values())) if len(index) == 1 else None
        if only is not None and only.is_dispatchable:
            balancer.forced_pick(name, only)
            chosen = only
        else:
            idle = frozen_idle_candidates(index)
            chosen = balancer.pick(name, idle) if idle else None
    return chosen


# ----------------------------------------------------------------------
# Random idle indexes: live and stale entries, deflated weights, seeded scores
# ----------------------------------------------------------------------
#: What an index entry can be; everything but "idle" is a stale entry.
KINDS = ("idle", "busy", "draining", "terminated", "starting")
CPUS = (1.0, 1.0, 0.5, 0.25, 0.7, 0.0)      # 0.0: written past ``deflate_to``'s clamp, the 1e-9 floor
SCORES = (0.0, 0.5, -0.5, 1.0, -1.0, 0.5 + 4e-16, 0.5 - 4e-16, 0.5 + 3e-15, 1.75, -2.25)

entries = st.lists(
    st.tuples(st.sampled_from(KINDS + ("idle", "idle", "idle")), st.sampled_from(CPUS),
              st.one_of(st.none(), st.sampled_from(SCORES))),
    min_size=0, max_size=8)
stale_scores = st.dictionaries(st.sampled_from(["gone-0", "gone-1", "gone-2"]),
                               st.sampled_from(SCORES), max_size=3)


def build_container(engine: SimulationEngine, position: int, kind: str, cpu: float) -> Container:
    """One standalone container of ``fn`` in the given condition."""
    container = Container("fn", "n0", standard_cpu=1.0, memory_mb=128.0,
                          container_id=f"c{position:02d}")
    if kind != "starting":
        container.mark_warm(0.0)
    if cpu == 0.0:
        container.current_cpu = 0.0    # no observer yet, so no ledger to go stale
    elif cpu != 1.0:
        container.deflate_to(cpu)
    if kind == "busy":
        container.submit(Request("fn", 0.0, work=5.0), engine)
    elif kind == "draining":
        container.mark_draining()
    elif kind == "terminated":
        container.terminate(0.0)
    return container


def build_case(engine, drawn, stale, shuffle_seed):
    """``(index, scores)`` for one drawn case, the index in a seeded insertion order."""
    containers = [build_container(engine, i, kind, cpu) for i, (kind, cpu, _) in enumerate(drawn)]
    order = list(range(len(containers)))
    np.random.default_rng(shuffle_seed).shuffle(order)
    index = {containers[i].container_id: containers[i] for i in order}
    scores = dict(stale)
    for container, (_, _, score) in zip(containers, drawn):
        if score is not None:
            scores[container.container_id] = score
    return index, scores


@settings(max_examples=400, deadline=None)
@given(drawn=entries, stale=stale_scores, seeded=st.booleans(),
       shuffle_seed=st.integers(0, 7), picks=st.integers(1, 3))
def test_one_pass_pick_matches_the_frozen_candidates_and_pick(drawn, stale, seeded,
                                                              shuffle_seed, picks):
    engine = SimulationEngine()
    index, scores = build_case(engine, drawn, stale, shuffle_seed)
    old_index, new_index = dict(index), dict(index)
    old, new = FrozenBalancer(), WeightedRoundRobinBalancer()
    if seeded or scores:
        old._scores["fn"] = dict(scores)
        new._scores["fn"] = dict(scores)
    for _ in range(picks):      # repeated picks walk the smoothing sequence, not one step of it
        # one survivor included: ``pick_idle`` ends in ``forced_pick``'s cleanup, as the
        # frozen route does; ``submit``'s own shortcut for it is the next test's
        assert new.pick_idle("fn", new_index) is frozen_choose(old, "fn", old_index)
        assert new._scores == old._scores
        assert new_index == old_index


@settings(max_examples=150, deadline=None)
@given(drawn=entries, stale=stale_scores, shuffle_seed=st.integers(0, 7))
def test_submit_takes_the_container_the_frozen_path_would(drawn, stale, shuffle_seed):
    engine = SimulationEngine()
    index, scores = build_case(engine, drawn, stale, shuffle_seed)
    dispatcher = SharedQueueDispatcher(engine)
    dispatcher._attached = True
    dispatcher._idle["fn"] = dict(index)
    dispatcher.balancer._scores["fn"] = dict(scores)
    old = FrozenBalancer()
    old._scores["fn"] = dict(scores)
    old_index = dict(index)
    expected = frozen_choose(old, "fn", old_index)

    request = Request("fn", 0.0, work=1.0)
    started = dispatcher.submit(request)
    if expected is None:
        assert started is False and request.status is RequestStatus.QUEUED
        assert dispatcher.queued_requests("fn") == [request]
    else:
        assert started is True and request.container_id == expected.container_id
        assert expected.current_request is request
        old_index.pop(expected.container_id)     # what ``_dispatch_to`` does to the index
    assert dispatcher.balancer._scores == old._scores
    assert dispatcher._idle["fn"] == old_index


def frozen_drain(dispatcher: SharedQueueDispatcher, balancer: FrozenBalancer,
                 function_name: str) -> int:
    """``SharedQueueDispatcher.drain`` at 8f5342b, picking through the frozen balancer."""
    queue = dispatcher._queues.get(function_name)
    if not queue:
        return 0
    idle = frozen_idle_candidates(dispatcher._idle.get(function_name))
    started = 0
    while queue and idle:
        request = queue.popleft()
        if request.status is not RequestStatus.QUEUED:
            continue  # dropped while waiting (e.g. container terminated it)
        chosen = balancer.pick(function_name, idle)
        if chosen is None:  # pragma: no cover - idle is non-empty
            queue.appendleft(request)
            break
        if not dispatcher._dispatch_to(chosen, request):
            # crashed on dispatch: the request is gone, the container too
            idle = [c for c in idle if c.is_dispatchable]
            continue
        idle = [c for c in idle if c.is_idle]
        started += 1
    return started


def drain_once(drawn, stale, shuffle_seed, waiting, crash_every, frozen):
    """One world, drained once by the frozen body or the live one: what it left behind."""
    engine = SimulationEngine()
    index, scores = build_case(engine, drawn, stale, shuffle_seed)
    dispatcher = SharedQueueDispatcher(engine)
    dispatcher._attached = True
    dispatcher._idle["fn"] = index
    for container in index.values():       # from here on an eviction reaches the index
        container.state_observer = dispatcher._on_container_state
    requests = [Request("fn", 0.0, work=1.0, request_id=i) for i in range(len(waiting))]
    for request, alive in zip(requests, waiting):
        request.mark_queued()
        if not alive:
            request.mark_dropped(0.0)      # dropped while it waited
    dispatcher._queues["fn"] = deque(requests)
    dispatches = []

    def interceptor(request, container):   # every ``crash_every``-th dispatch crashes
        dispatches.append(request.request_id)
        if crash_every and len(dispatches) % crash_every == 0:
            request.mark_dropped(engine.now)
            container.evict(engine.now)
            return False
        return True

    dispatcher.interceptor = interceptor
    if frozen:
        balancer = FrozenBalancer()
        balancer._scores["fn"] = dict(scores)
        started = frozen_drain(dispatcher, balancer, "fn")
    else:
        balancer = dispatcher.balancer
        balancer._scores["fn"] = dict(scores)
        started = dispatcher.drain("fn")
    left = list(dispatcher._queues["fn"])
    # The frozen drain validated the whole index before it looked at the queue; the live
    # one validates at its first pick.  No path in src/ leaves a stale entry, and one that
    # a test leaves is still discarded before it can be chosen — so the index is compared
    # as the next pick will see it ...
    indexed = sorted(cid for cid, c in dispatcher._idle["fn"].items() if c.is_dispatchable)
    if not indexed and started == 0:
        # ... and with nothing to run on, the live drain may have discarded heads that
        # were already dropped where the frozen one returned at once: same waiting work
        left = [r for r in left if r.status is RequestStatus.QUEUED]
    return (started, dispatches, [(r.status, r.container_id) for r in requests],
            [r.request_id for r in left], balancer._scores, indexed)


@settings(max_examples=200, deadline=None)
@given(drawn=entries, stale=stale_scores, shuffle_seed=st.integers(0, 7),
       waiting=st.lists(st.booleans(), max_size=10), crash_every=st.sampled_from([0, 0, 2, 3]))
def test_drain_starts_what_the_frozen_drain_would(drawn, stale, shuffle_seed, waiting,
                                                  crash_every):
    assert (drain_once(drawn, stale, shuffle_seed, waiting, crash_every, frozen=False)
            == drain_once(drawn, stale, shuffle_seed, waiting, crash_every, frozen=True))


def test_public_pick_scores_warm_containers_in_the_order_given():
    """``pick`` on a plain sequence: busy-but-warm containers stay eligible, as before."""
    engine = SimulationEngine()
    containers = [build_container(engine, i, kind, cpu) for i, (kind, cpu) in enumerate(
        [("idle", 0.5), ("busy", 1.0), ("starting", 1.0), ("idle", 1.0), ("draining", 1.0)])]
    old, new = FrozenBalancer(), WeightedRoundRobinBalancer()
    for _ in range(12):
        assert new.pick("fn", containers) is old.pick("fn", containers)
        assert new._scores == old._scores
    assert new.pick("fn", containers[2:3]) is None and old.pick("fn", containers[2:3]) is None


@settings(max_examples=150, deadline=None)
@given(drawn=entries, stale=stale_scores, shuffle_seed=st.integers(0, 7),
       arrivals=st.lists(st.floats(0.0, 4.0), max_size=12),
       crash_every=st.sampled_from([0, 0, 2, 3]))
def test_dispatch_starts_work_only_on_a_warm_empty_container(drawn, stale, shuffle_seed,
                                                             arrivals, crash_every):
    """``_dispatch_to`` starts the request on the container without a second look.

    So each of its three routes — a fresh submit, a drain when a container
    warms, the pull after a completion — must hand it a container that is
    warm, running nothing and queueing nothing, whatever stale entries the
    index holds and whatever crashes on dispatch evict on the way.
    """
    engine = SimulationEngine()
    index, _ = build_case(engine, drawn, stale, shuffle_seed)
    dispatcher = SharedQueueDispatcher(engine)
    dispatcher._attached = True
    dispatcher._idle["fn"] = index
    for container in index.values():
        container.state_observer = dispatcher._on_container_state
    handed = []
    dispatch_to = dispatcher._dispatch_to

    def checked(container, request):
        handed.append((sys._getframe(1).f_code.co_name, container.state,
                       container._current, len(container._queue)))
        return dispatch_to(container, request)

    dispatcher._dispatch_to = checked
    dispatches = []

    def interceptor(request, container):   # every ``crash_every``-th dispatch crashes
        dispatches.append(request.request_id)
        if crash_every and len(dispatches) % crash_every == 0:
            request.mark_dropped(engine.now)
            container.evict(engine.now)
            return False
        return True

    dispatcher.interceptor = interceptor
    for container in index.values():
        if container.state is ContainerState.STARTING:   # warms mid-run and drains the queue
            engine.call_at(1.0, container.mark_warm, 1.0)
            engine.call_at(1.0, dispatcher.drain, "fn")
    requests = [Request("fn", t, work=0.75, request_id=i) for i, t in enumerate(sorted(arrivals))]
    for request in requests:
        engine.call_at(request.arrival_time, dispatcher.submit, request)
    engine.run()
    assert all(state is ContainerState.WARM and current is None and queued == 0
               for _, state, current, queued in handed), handed
    assert {route for route, *_ in handed} <= {"submit", "drain", "_completion_hook"}
    # no container ran two requests at once
    runs = sorted((r.container_id, r.start_time, r.completion_time) for r in requests
                  if r.completion_time is not None and r.status is RequestStatus.COMPLETED)
    for (cid, _, end), (next_cid, start, _) in zip(runs, runs[1:]):
        assert cid != next_cid or end <= start
