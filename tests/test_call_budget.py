"""The event plane's call budget: Python frames per simulated request.

A count, not a timing, so it can gate in tier-1 (like
``test_import_budget.py``): the event plane is the default of every
``python -m repro run`` and the oracle the columnar kernel is tested
against, and most of its cost is the number of Python-level frames one
request walks through.  Not all of it: work that runs no frame is
invisible to a frame count, and one such cost, an attribute read off an
``Enum`` class, is gated here by a count of its own (the last paragraph
below).  The micro-benchmarks that used to
watch this (``event_loop`` 3.84x → 3.40x, ``dispatch_incremental``
2.32x → 1.96x between BENCH_PR1 and BENCH_PR9) drifted in a JSON file
nobody diffed; this fails instead.

The scenario is ``steady_event``'s inputs at a quarter of the size
(8 × 50 ms functions × 100 req/s × 15 simulated s, seed 7).  It read
56.5 frames a request before the estimators folded at their reads and
an idle container took a request in one hop (PR 20), 39.54 after the
control epoch kept its books at the write (PR 21), and reads 30.28
since one pass picks and the hand-off reads fields (PR 22).  Five of
those are the generator passes of ``RequestTable.from_requests`` at the
seal: PR 22 measured ``map(attrgetter(...))`` in their place at 25.28
frames and *twice* the time (a frame resumed is cheaper on CPython 3.11
than an ``attrgetter`` call), and left them.

The 30.28 became 20.65 once the container wrote the request's
transitions inline, the dispatcher started work on the container it had
proved free, and the dispatcher's completion hook became the one
completion body (count, fold, pull the next request).  It reads 20.49
since the arrivals come from one merged stream beside the engine's heap
instead of a batch pump; the same run also gates the heap's work, which
that change halved (pushes per request) and cut 67-fold (peak size).
It read 19.97 once a node refilled both allocation sums in one pass of
``sum(map(attrgetter(...)))`` (no generator frame resumed per container)
and kept them across warm-ups and draining marks, and reads 18.96 since
a request's completion is one bare ``engine.call_at`` entry instead of a
cancellable ``Event`` record (no ``schedule`` frame, no ``Event.__init__``).

The frame count stayed 18.96 when the hot paths stopped reading enum
members off their class: ``EnumType`` defines ``__getattr__`` on CPython
3.11, so each ``RequestStatus.X`` / ``ContainerState.X`` read takes the
hooked attribute slot, about 10x a module global, with no frame to count.
An opcode trace of this scenario counted 7.45 such reads a request
(``Container._start`` 3.00, ``_finish_current`` 2.00, ``mark_queued``
1.57, the completion hook's pull 0.78) before each module bound the
members it reads to constants at import; it counts 0 now.
:func:`enum_member_loads` keeps that at 0 for every function the run
enters, naming the function and line of any read that comes back.
"""

import collections
import dis
import enum
import gc
import heapq
import sys
from dataclasses import replace
from pathlib import Path

from repro.cluster.cluster import ClusterConfig
from repro.core.controller import ControllerConfig
from repro.simulation import SimulationRunner
from repro.workloads.functions import microbenchmark
from repro.workloads.generator import WorkloadBinding
from repro.workloads.schedules import StaticRate

SRC = str(Path(__file__).resolve().parents[1] / "src") + "/"

#: About 5 % above what the tree achieves (18.96).  Raise it only with a
#: reason in the commit that does; lower it when a change earns it.
FRAMES_PER_REQUEST_CEILING = 19.9

#: About 5 % above what the tree reads on the same run: 1.005 heap pushes a
#: request (the completion, plus the control events) and a peak of 53
#: pending heap entries.  With each arrival pushed into the heap, as the
#: batch pump did, they read 2.008 and 3,547.
HEAP_PUSHES_PER_REQUEST_CEILING = 1.06
PEAK_PENDING_EVENTS_CEILING = 56

DURATION = 15.0


def build_runner(data_plane: str = "event") -> SimulationRunner:
    """The scenario, wired and ready to run (on the event plane unless told otherwise)."""
    return SimulationRunner(
        workloads=[
            WorkloadBinding(profile=replace(microbenchmark(0.05), name=f"fn-{i:02d}"),
                            schedule=StaticRate(100.0, duration=DURATION), slo_deadline=0.1)
            for i in range(8)
        ],
        cluster_config=ClusterConfig(node_count=8, cpu_per_node=8.0),
        controller_config=ControllerConfig(epoch_length=DURATION / 6.0),
        seed=7,
        warm_start_containers={f"fn-{i:02d}": 2 for i in range(8)},
        data_plane=data_plane,
    )


def count_frames():
    """Run the scenario under ``sys.setprofile``: (requests, ``call`` events by file, heap, entered).

    ``heap`` is ``(pushes, peak)``: the calls of ``heapq.heappush`` (on
    the event plane only the engine's heap is pushed to) and the largest
    ``engine.pending_events`` read after one.  ``entered`` maps each code
    object the run entered to its frame's globals (for
    :func:`enum_member_loads`).  The collector is off for
    the run, as in ``test_epoch_budget.py``: a collection would add the
    frames of whatever ``gc.callbacks`` the test process carries
    (hypothesis installs one the first time a ``@given`` test runs), and
    when collections fall depends on what ran before.
    """
    runner = build_runner()
    engine = runner.engine
    frames = collections.Counter()
    heap = [0, 0]
    entered = {}

    def profile(frame, event, arg):
        if event == "call":
            frames[frame.f_code.co_filename] += 1
            entered[frame.f_code] = frame.f_globals
        elif event == "c_return" and arg is heapq.heappush:
            heap[0] += 1
            heap[1] = max(heap[1], engine.pending_events)

    previous, collecting = sys.getprofile(), gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = runner.run(duration=DURATION)
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return sum(result.generated_requests.values()), frames, tuple(heap), entered


def split_by_module(frames, generated):
    """The per-module table printed when the budget is blown."""
    rows = [f"  {count / generated:7.2f}  {name.replace(SRC, '')}"
            for name, count in frames.most_common(16)]
    return "\n".join(["frames/request by file:"] + rows)


def test_frames_per_request_repeat_exactly_and_stay_under_the_ceiling():
    build_runner().run(duration=DURATION)   # process-wide caches (the log-factorial table) fill once
    generated, frames, *_ = count_frames()
    again_generated, again, *_ = count_frames()
    assert generated == again_generated > 10_000
    assert frames == again, "the frame count is not a pure function of the scenario"
    per_request = sum(frames.values()) / generated
    assert per_request <= FRAMES_PER_REQUEST_CEILING, (
        f"{per_request:.2f} Python frames per simulated request, ceiling "
        f"{FRAMES_PER_REQUEST_CEILING}\n{split_by_module(frames, generated)}"
    )


def test_an_arrival_costs_no_heap_push():
    """Heap pushes per request and the heap's peak stay under their ceilings.

    Arrivals are read from the engine's stream beside the heap, so the
    heap holds completions and control events only.  A pre-sampled
    arrival pushed back into the heap adds a push per request and
    thousands of entries to the peak, and fails here.
    """
    build_runner().run(duration=DURATION)
    generated, _, (pushes, peak), _ = count_frames()
    assert pushes / generated <= HEAP_PUSHES_PER_REQUEST_CEILING, (
        f"{pushes / generated:.3f} heap pushes per simulated request, ceiling "
        f"{HEAP_PUSHES_PER_REQUEST_CEILING}")
    assert peak <= PEAK_PENDING_EVENTS_CEILING, (
        f"engine.pending_events peaked at {peak}, ceiling {PEAK_PENDING_EVENTS_CEILING}")


def enum_member_loads(entered):
    """Where the repo's entered code reads a member off an ``enum.Enum`` class.

    ``entered`` maps code objects to their globals.  A site is a
    ``LOAD_GLOBAL`` whose name resolves, in those globals, to an
    ``enum.EnumType`` instance, followed by a ``LOAD_ATTR``: on CPython
    3.11 ``EnumType`` defines ``__getattr__``, so that read takes the
    hooked attribute slot every time (about 10x a module global), and it
    runs no Python frame, so no frame count sees it.  Returns one
    ``"qualname (file:line) Class.MEMBER"`` line per site.
    """
    sites = []
    for code, f_globals in entered.items():
        if not code.co_filename.startswith(SRC):
            continue
        previous = None
        for instruction in dis.get_instructions(code):
            if instruction.opname == "EXTENDED_ARG":
                continue
            if (instruction.opname == "LOAD_ATTR" and previous is not None
                    and previous.opname == "LOAD_GLOBAL"
                    and isinstance(f_globals.get(previous.argval), enum.EnumType)):
                path = code.co_filename.replace(SRC, "")
                sites.append(f"{code.co_qualname} ({path}:{instruction.positions.lineno}) "
                             f"{previous.argval}.{instruction.argval}")
            previous = instruction
    return sorted(sites)


def test_no_function_the_event_plane_enters_reads_an_enum_member_off_its_class():
    """Each enum member a hot path reads is bound to a module constant once, at import."""
    *_, entered = count_frames()
    sites = enum_member_loads(entered)
    assert not sites, (
        "enum members read off their class on the event plane's path; bind each to a "
        "module constant (``_WARM = ContainerState.WARM``):\n  " + "\n  ".join(sites))
