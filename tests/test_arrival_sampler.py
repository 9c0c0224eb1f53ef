"""The two-pass thinning sampler is held to the single array pass it replaced.

``oracles/thinning_sampler.py`` is ``_ThinningSampler`` as of e1dd094:
every window thinned by numpy over the whole rest of its chunk.  The
tree's sampler walks a sparse window float by float and sweeps a dense
one; which pass ran must be invisible — in the arrivals, in
``(_pos, _t, _window_end, exhausted)`` after every call and in the
generator's next draw — for every schedule kind, window, chunk size and
request size.  The second half is the count gate: a sparse window makes
no numpy call at all, and a drained sampler holds no chunk.
"""

import collections
import inspect
import sys
import textwrap
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.thinning_sampler import FrozenThinningSampler
from repro.workloads import generator as generator_module
from repro.workloads.generator import _ThinningSampler
from repro.workloads.schedules import (
    CompositeSchedule,
    RampSchedule,
    RateSchedule,
    StaticRate,
    StepSchedule,
    TraceSchedule,
)
from test_epoch_budget import build_runner as quarter_burst_control


class RateOnly(RateSchedule):
    """A schedule that overrides only ``rate``: ``rate_many`` is the base class's loop."""

    def __init__(self, inner: RateSchedule) -> None:
        self.inner = inner

    def rate(self, t: float) -> float:
        return self.inner.rate(t)

    def max_rate(self, start: float, end: float) -> float:
        return self.inner.max_rate(start, end)

    @property
    def end_time(self) -> Optional[float]:
        return self.inner.end_time


class LatticeRng:
    """A generator whose accept uniforms sit on a lattice of eighths.

    With rates on a lattice too, ``accept * bound == rate(candidate)``
    happens in most windows, which a continuous uniform never shows:
    the ``<=`` of the accept test is then part of what is compared.
    """

    def __init__(self, seed: int) -> None:
        self.inner = np.random.default_rng(seed)

    def random(self, size=None):
        drawn = self.inner.random(size)
        if size is not None:
            drawn[:, 1] = np.floor(drawn[:, 1] * 8.0) / 8.0
        return drawn


# ----------------------------------------------------------------------
# Strategies: rates from 0 (idle windows) to 2,000 /s, so one schedule's
# windows fall on both sides of the threshold
# ----------------------------------------------------------------------
rates = st.one_of(
    st.just(0.0),
    st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 64.0, 512.0]),
    st.floats(0.01, 30.0),
    st.floats(30.0, 2000.0),
)
segments = st.lists(st.tuples(st.sampled_from([0.05, 0.3, 1.0, 2.5]), rates), min_size=1, max_size=6)


def _times(durations: List[float]) -> List[float]:
    """Segment start times of consecutive durations, from 0."""
    out, t = [], 0.0
    for d in durations:
        out.append(t)
        t += d
    return out


@st.composite
def plain_schedules(draw) -> RateSchedule:
    """One of the four concrete leaf schedules."""
    kind = draw(st.sampled_from(["static", "step", "ramp", "trace"]))
    segs = draw(segments)
    total = sum(d for d, _ in segs)
    if kind == "static":
        return StaticRate(segs[0][1], duration=draw(st.sampled_from([None, total])))
    if kind == "step":
        steps = list(zip(_times([d for d, _ in segs]), [r for _, r in segs]))
        return StepSchedule(steps, duration=draw(st.sampled_from([None, total])))
    if kind == "ramp":
        knots = list(zip(_times([d for d, _ in segs]), [r for _, r in segs])) + [(total, draw(rates))]
        return RampSchedule(knots, duration=draw(st.sampled_from([None, total])))
    interval = draw(st.sampled_from([0.3, 1.0, 60.0]))
    return TraceSchedule([r * interval for _, r in segs], interval=interval,
                         start=draw(st.sampled_from([0.0, 0.4])))


@st.composite
def schedules(draw) -> RateSchedule:
    """Every kind the issue names: the four leaves, their sum, and a ``rate``-only subclass."""
    shape = draw(st.sampled_from(["plain", "plain", "composite", "rate_only"]))
    if shape == "composite":
        return CompositeSchedule(draw(st.lists(plain_schedules(), min_size=1, max_size=3)))
    inner = draw(plain_schedules())
    return RateOnly(inner) if shape == "rate_only" else inner


def _horizon(schedule: RateSchedule, start: float, asked: float, chunk: int) -> float:
    """Clip the horizon so an example thins a bounded number of candidates.

    The frozen body pays ~17 numpy calls a window *and* a chunk, so the
    budget shrinks with the chunk size; a 2,000 /s schedule still gets
    dense windows, only fewer of them.
    """
    peak = schedule.max_rate(start, start + asked)
    budget = {1: 150.0, 2: 300.0, 7: 1000.0}.get(chunk, 6000.0)
    return start + min(asked, budget / peak) if peak > 0 else start + asked


def drain_in_step(schedule, seed, start, horizon, window, chunk, max_count, lattice, sampler_class):
    """Drain a frozen sampler and ``sampler_class`` side by side; return the first difference or ``None``."""
    make_rng = LatticeRng if lattice else np.random.default_rng
    frozen = FrozenThinningSampler(schedule, make_rng(seed), start, horizon, window, chunk)
    head = sampler_class(schedule, make_rng(seed), start, horizon, window, chunk)
    for call in range(100_000):
        want, got = frozen.next_arrivals(max_count), head.next_arrivals(max_count)
        if want != got:
            return f"call {call}: arrivals differ"
        want_state = (frozen._pos, frozen._t, frozen._window_end, frozen.exhausted)
        got_state = (head._pos, head._t, head._window_end, head.exhausted)
        if want_state != got_state:
            return f"call {call}: state {got_state}, frozen {want_state}"
        if frozen.rng.random() != head.rng.random():
            return f"call {call}: the generators have parted"
        if not want:
            return None
    raise AssertionError("the sampler never reached its horizon")


@settings(max_examples=500, deadline=None)
@given(
    schedule=schedules(),
    seed=st.integers(0, 2**32 - 1),
    start=st.sampled_from([0.0, 0.5, 0.137]),
    asked=st.sampled_from([0.4, 3.0, 11.0]),
    window=st.sampled_from([0.05, 0.25, 1.0, 5.0]),
    chunk=st.sampled_from([1, 2, 7, 256]),
    max_count=st.sampled_from([1, 256, 1024]),
    lattice=st.booleans(),
)
def test_both_passes_are_the_frozen_pass(schedule, seed, start, asked, window, chunk, max_count, lattice):
    horizon = _horizon(schedule, start, asked, chunk)
    assert drain_in_step(schedule, seed, start, horizon, window, chunk, max_count, lattice,
                         _ThinningSampler) is None


#: (schedule, start, horizon, window, chunk): between them they are idle,
#: sparse and dense, overshoot on a window's first pair, run out of chunk
#: inside sparse and inside dense windows, and hit ``accept * bound ==
#: rate`` on the lattice.
PINNED_CASES = [
    (StepSchedule([(0.0, 3.0), (2.0, 0.0), (3.0, 1500.0), (3.5, 6.0)], duration=6.0), 0.0, 6.0, 0.25, 256),
    (StepSchedule([(0.0, 4.0), (1.0, 8.0), (2.0, 4.0)], duration=40.0), 0.5, 40.0, 5.0, 7),
    (StaticRate(2000.0, duration=2.0), 0.0, 2.0, 5.0, 256),
    (StaticRate(0.5), 0.137, 60.0, 5.0, 2),
    (CompositeSchedule([StaticRate(4.0, duration=30.0), StepSchedule([(0.0, 0.0), (10.0, 4.0)])]), 0.0, 30.0, 1.0, 256),
    (RateOnly(RampSchedule([(0.0, 0.0), (5.0, 40.0), (10.0, 400.0)], duration=10.0)), 0.0, 10.0, 1.0, 256),
    (TraceSchedule([3.0, 0.0, 240.0, 12.0], interval=1.0, start=0.4), 0.0, 5.0, 0.25, 7),
]


def _passes_run(case) -> collections.Counter:
    """How often each pass ran, and how often a window was left at the end of its chunk."""
    schedule, start, horizon, window, chunk = case
    seen = collections.Counter()

    class Counting(_ThinningSampler):
        def _walk_window(self, out, bound, window_end):
            seen["walk"] += 1
            super()._walk_window(out, bound, window_end)
            seen["walk ran out of chunk"] += self._window_end is not None

        def _sweep_window(self, out, bound, window_end):
            seen["sweep"] += 1
            super()._sweep_window(out, bound, window_end)
            seen["sweep ran out of chunk"] += self._window_end is not None

    for lattice in (False, True):
        assert drain_in_step(schedule, 11, start, horizon, window, chunk, 256, lattice, Counting) is None
    return seen


def test_the_pinned_cases_cross_the_threshold_both_ways_and_refill_mid_window():
    per_case = [_passes_run(case) for case in PINNED_CASES]
    seen = sum(per_case, collections.Counter())
    assert seen["walk"] > 100 and seen["sweep"] > 20
    assert seen["walk ran out of chunk"] > 10 and seen["sweep ran out of chunk"] > 5
    # the first case alone takes both passes: its windows are idle, sparse and dense
    assert per_case[0]["walk"] and per_case[0]["sweep"]


def _mutant(*edits) -> type:
    """``_ThinningSampler`` with ``_walk_window``'s source edited: ``(old, new)`` pairs, each must apply."""
    source = textwrap.dedent(inspect.getsource(_ThinningSampler._walk_window))
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = dict(vars(generator_module))
    exec(source, namespace)
    return type("Mutant", (_ThinningSampler,), {"_walk_window": namespace["_walk_window"]})


MUTATIONS = {
    "the overshooting pair is not consumed": [("self._pos = k + 1", "self._pos = k")],
    "< for <= in the accept test": [("accept[k] * bound <= rate(candidate)", "accept[k] * bound < rate(candidate)")],
    "elapsed carried over from the previous window": [
        ("elapsed = 0.0", "elapsed = self.__dict__.get('_stale', 0.0)"),
        ("candidate = start + elapsed", "candidate = start + elapsed; self._stale = elapsed"),
    ],
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_a_mutated_walk_is_caught(name):
    mutant = _mutant(*MUTATIONS[name])
    caught = [
        drain_in_step(schedule, 11, start, horizon, window, chunk, 256, lattice, mutant)
        for schedule, start, horizon, window, chunk in PINNED_CASES
        for lattice in (False, True)
    ]
    assert any(caught), f"no pinned case notices: {name}"


def test_an_unmutated_rebuild_of_the_walk_passes():
    """The rebuild itself (``exec`` of the source) is not what the mutants are caught for."""
    rebuilt = _mutant()
    for schedule, start, horizon, window, chunk in PINNED_CASES:
        assert drain_in_step(schedule, 11, start, horizon, window, chunk, 256, True, rebuilt) is None


# ----------------------------------------------------------------------
# Count gate: a sparse window makes no numpy call
# ----------------------------------------------------------------------
def _is_numpy(function) -> bool:
    """Whether a ``c_call``'s callee belongs to numpy (ufuncs carry no ``__module__``)."""
    owner = getattr(function, "__self__", None)
    module = getattr(function, "__module__", None) or type(owner).__module__
    return isinstance(function, np.ufunc) or module.split(".")[0] == "numpy"


def test_a_sparse_window_makes_no_numpy_call_and_a_drained_sampler_holds_no_chunk():
    """Quarter-size ``burst_control`` schedules under ``sys.setprofile``.

    The frozen body makes ~17 numpy calls a window.  Here numpy is
    reached from a refill (the draw and ``log1p``, plus the two
    ``tolist`` copies the chunk's first walk asks for: at most 4) or from
    a dense window (at most 24, ``rate_many`` included), and from nowhere
    else.
    """
    runner = quarter_burst_control()
    horizon = 40.0
    samplers, calls = [], collections.Counter()
    for binding in runner.bindings:
        samplers.append(_ThinningSampler(binding.schedule, np.random.default_rng(7), 0.5, horizon, 5.0))
    where: List[str] = []
    scopes = {code: name for name, code in (
        ("refill", _ThinningSampler._refill.__code__),
        ("walk", _ThinningSampler._walk_window.__code__),
        ("sweep", _ThinningSampler._sweep_window.__code__),
    )}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in scopes:
            where.append(scopes[frame.f_code])
            calls[scopes[frame.f_code] + " entered"] += 1
        elif event == "return" and frame.f_code in scopes:
            where.pop()
        elif event == "c_call" and _is_numpy(arg):
            calls[where[-1] if where else "elsewhere"] += 1

    arrivals = 0
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for sampler in samplers:
            while True:
                batch = sampler.next_arrivals(256)
                if not batch:
                    break
                arrivals += len(batch)
    finally:
        sys.setprofile(previous)

    windows = calls["walk entered"] + calls["sweep entered"]
    assert arrivals > 1000 and calls["walk entered"] > 0.8 * windows > 90, calls
    # a refill draws and takes the logarithm; a chunk's first walk makes the two list copies
    assert calls["refill"] + calls["walk"] <= 4 * calls["refill entered"]
    assert calls["sweep"] <= 24 * calls["sweep entered"]
    assert calls["elsewhere"] == 0
    assert sum(calls[scope] for scope in ("refill", "walk", "sweep")) < 2 * windows   # the parent: ~17 a window
    for sampler in samplers:
        assert sampler.exhausted
        assert len(sampler._unit) == 0 and len(sampler._accept) == 0 and sampler._floats is None
