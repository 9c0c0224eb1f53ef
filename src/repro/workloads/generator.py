"""Poisson arrival generation driven by a rate schedule.

:class:`ArrivalGenerator` is the simulation-side equivalent of the
paper's configurable IoT workload generator: it samples arrival times
from a (possibly time-varying) Poisson process via thinning, creates
:class:`~repro.sim.request.Request` objects with per-request work drawn
from the function's service-time distribution, and hands them to the
controller's ``dispatch``.

Fast path
---------
A :class:`_ThinningSampler` draws ``(gap, accept)`` uniform pairs from
the RNG in fixed-size chunks and takes the chunk's unit-rate gaps
(``-log1p(-u)``) once, at the draw.  A thinning window is then read off
the chunk by one of two passes, chosen by how many candidates the
window expects (``bound × window``, against ``_SWEEP_MIN_CANDIDATES``):

* a **dense** window (the steady workloads: 500 candidates) takes the
  array pass — one ``cumsum`` of ``unit / bound`` over the rest of the
  chunk, one ``searchsorted`` for the window's end, the candidates thinned
  against ``rate_many``;
* a **sparse** window (many low-rate IoT functions: a handful of
  candidates) is walked float by float over list copies of the chunk,
  against ``schedule.rate`` — no numpy call at all, where the array pass
  spends ~17 on the whole remaining chunk to keep a few floats.

Both do the same IEEE operations in the same order — ``cumsum`` is a
left-to-right sum and so is the walk's ``elapsed +=``, every concrete
``rate_many`` is its ``rate`` element by element — and both consume the
overshooting pair, so which pass ran is invisible in the arrivals, in
``(pos, t, window_end)`` and in the generator's state
(``tests/test_arrival_sampler.py`` holds both to the single-pass body
they replaced).

A run's arrivals are sampled whole before it starts
(:meth:`ArrivalGenerator.materialize_arrivals`) and merged across
generators by :func:`merge_arrivals`.  Both data planes read that one
merge: the event plane as the engine's stream beside its heap
(:func:`stream_arrivals`: no pump, no heap push per arrival, one frame,
:meth:`ArrivalGenerator._arrive`), the columnar kernel as its arrival
pointer.  The sampler's RNG consumption does not depend on how many
arrivals a caller asks for at a time, and per-request work comes from a
dedicated ``work_rng`` stream, so the stream equals what the deleted
batch pump (``tests/oracles/arrival_pump.py``) drew at any batch size,
the seed implementation's one event per arrival included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim import request as request_module
from repro.sim.engine import SimulationEngine
from repro.sim.request import Request
from repro.workloads.functions import FunctionProfile
from repro.workloads.schedules import RateSchedule


#: Fewest expected candidates (``bound × what is left of the window``) for
#: which a thinning window takes the array pass.  The walk costs ~0.4 µs a
#: candidate under a ``StepSchedule`` and the sweep ~20 µs a window plus
#: ~0.2 µs a candidate *of the chunk* (it cannot know where the window
#: ends before it has summed): they cross at ~64 candidates for
#: ``StaticRate``, 96–128 for ``StepSchedule``, ~48 for ``TraceSchedule``
#: (EXPERIMENTS.md "Arrival synthesis (PR 23)").  ``burst_control`` sits at
#: a mean of 5.7, the steady workloads at 500; either pass gives the same
#: bits, so the value only ever moves time.
_SWEEP_MIN_CANDIDATES = 64.0

#: What a sampler holds before its first draw and after its last window.
_NO_CHUNK = np.empty(0)


@dataclass
class WorkloadBinding:
    """One function's workload: its profile plus a rate schedule."""

    profile: FunctionProfile
    schedule: RateSchedule
    slo_deadline: Optional[float] = 0.1
    weight: float = 1.0
    user: str = "default"


class _ThinningSampler:
    """Non-homogeneous Poisson sampling by thinning, one chunk of uniform pairs at a time.

    For each thinning window ``[w, w + W)`` (clipped to the horizon) with
    rate bound ``B = max_rate(w, w + W)``, candidate arrivals are the
    cumulative sums of ``Exp(B)`` gaps; each candidate at time ``t`` is
    accepted with probability ``rate(t) / B``.  Every candidate consumes
    exactly one ``(gap, accept)`` uniform pair — including the candidate
    that overshoots the window — so RNG consumption depends only on the
    pair stream itself, never on how many arrivals a caller requests per
    :meth:`next_arrivals` call, and never on which of the two passes
    (:meth:`_walk_window`, :meth:`_sweep_window`) thinned a window.
    """

    def __init__(
        self,
        schedule: RateSchedule,
        rng: np.random.Generator,
        start: float,
        horizon: Optional[float],
        thinning_window: float,
        chunk: int = 256,
    ) -> None:
        """Bind the schedule, RNG, and thinning-window geometry."""
        self.schedule = schedule
        self.rng = rng
        self.horizon = horizon
        self.window = float(thinning_window)
        self.chunk = int(chunk)
        self._t = float(start)
        self._window_end: Optional[float] = None
        self._bound = 0.0
        self._release()
        self._pos = 0
        self.exhausted = False

    def _release(self) -> None:
        """Drop the chunk: nothing is drawn yet, or nothing will be read again."""
        self._unit = self._accept = _NO_CHUNK
        self._floats: Optional[Tuple[List[float], List[float]]] = None

    def _refill(self) -> None:
        """Draw the next chunk of uniform pairs and take its unit-rate gaps.

        A window's ``Exp(bound)`` gaps are ``unit / bound``, element by
        element, so the logarithm is taken here, once, and not over the
        rest of the chunk by every window that reads it.
        """
        pairs = self.rng.random((self.chunk, 2))
        self._unit = -np.log1p(-pairs[:, 0])
        self._accept = pairs[:, 1]
        self._floats = None
        self._pos = 0

    def next_arrivals(self, max_count: int) -> List[float]:
        """Return at least ``max_count`` arrivals if any remain (may overshoot).

        Returns an empty list once the horizon is reached.  The overshoot
        happens because a window is thinned whole (up to the end of the
        chunk); callers schedule everything they receive.
        """
        out: List[float] = []
        horizon = self.horizon
        while len(out) < max_count and not self.exhausted:
            if horizon is not None and self._t >= horizon:
                self.exhausted = True
                self._release()
                break
            if self._window_end is None or self._t >= self._window_end:
                window_end = self._t + self.window
                if horizon is not None:
                    window_end = min(window_end, horizon)
                self._window_end = window_end
                self._bound = self.schedule.max_rate(self._t, window_end)
            bound = self._bound
            if bound <= 0.0:
                # idle window: hop to its end and start a fresh window
                self._t = self._window_end
                self._window_end = None
                continue
            if self._pos >= len(self._unit):
                self._refill()
            if bound * (self._window_end - self._t) < _SWEEP_MIN_CANDIDATES:
                self._walk_window(out, bound, self._window_end)
            else:
                self._sweep_window(out, bound, self._window_end)
        return out

    def _walk_window(self, out: List[float], bound: float, window_end: float) -> None:
        """Thin the rest of the window (or of the chunk) one float at a time.

        The arithmetic is :meth:`_sweep_window`'s, operation for operation:
        ``elapsed`` is ``np.cumsum``'s own left-to-right sum of the same
        quotients, ``schedule.rate`` is the scalar ``rate_many``.
        """
        if self._floats is None:
            self._floats = (self._unit.tolist(), self._accept.tolist())
        unit, accept = self._floats
        rate = self.schedule.rate
        candidate = start = self._t
        elapsed = 0.0
        for k in range(self._pos, len(unit)):
            elapsed += unit[k] / bound
            candidate = start + elapsed
            if candidate > window_end:
                # this pair was consumed by the overshoot candidate
                self._pos = k + 1
                self._t = window_end
                self._window_end = None
                return
            if accept[k] * bound <= rate(candidate):
                out.append(candidate)
        # chunk exhausted inside the window: continue from the last candidate
        self._pos = len(unit)
        self._t = candidate

    def _sweep_window(self, out: List[float], bound: float, window_end: float) -> None:
        """Thin the rest of the window (or of the chunk) in one array pass."""
        candidates = self._t + np.cumsum(self._unit[self._pos :] / bound)
        crossed = int(np.searchsorted(candidates, window_end, side="right"))
        if crossed:
            in_window = candidates[:crossed]
            accept_u = self._accept[self._pos : self._pos + crossed]
            rates = self.schedule.rate_many(in_window)
            out.extend(in_window[accept_u * bound <= rates].tolist())
        if crossed < len(candidates):
            # the (crossed+1)-th pair was consumed by the overshoot candidate
            self._pos += crossed + 1
            self._t = window_end
            self._window_end = None
        else:
            # chunk exhausted inside the window: continue from the last candidate
            self._pos += crossed
            self._t = float(candidates[-1])


class ArrivalGenerator:
    """Generates Poisson arrivals for one function; each one becomes a dispatched request.

    Parameters
    ----------
    engine:
        Shared simulation engine.
    profile:
        The function being invoked (supplies the per-request work sampler).
    schedule:
        Arrival-rate schedule λ(t).
    dispatch:
        Callback receiving each created :class:`Request` (normally
        ``LassController.dispatch``).
    rng:
        Random generator for inter-arrival times.
    work_rng:
        Dedicated random generator for per-request work sampling.
    horizon:
        Stop generating at this simulation time even if the schedule
        continues (defaults to the schedule's own end).  May be assigned
        until :meth:`materialize_arrivals` is called.
    thinning_window:
        Length of the look-ahead window used to bound the rate for
        thinning; small enough that step changes are picked up promptly.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        profile: FunctionProfile,
        schedule: RateSchedule,
        dispatch: Callable[[Request], None],
        rng: np.random.Generator,
        work_rng: np.random.Generator,
        horizon: Optional[float] = None,
        thinning_window: float = 5.0,
    ) -> None:
        """Wire the generator's sampler and RNG streams (see the class docstring for parameter semantics)."""
        if thinning_window <= 0:
            raise ValueError("thinning_window must be positive")
        self.engine = engine
        self.profile = profile
        self.schedule = schedule
        self.dispatch = dispatch
        self.rng = rng
        self.work_rng = work_rng
        self.horizon = horizon if horizon is not None else schedule.end_time
        self.thinning_window = float(thinning_window)
        self.generated: int = 0
        self._sampler: Optional[_ThinningSampler] = None
        #: the works of the arrivals still to come, in order (event plane)
        self._works: Iterator[float] = iter(())

    def _arrive(self, arrival_time: float) -> None:
        """Create the next request at its arrival time and hand it to dispatch.

        Its work is the next of the works :func:`stream_arrivals` set aside.
        """
        # the id is drawn here, as the dataclass default would, without its
        # factory frame; through the module, because the counter is rebound
        self.dispatch(Request(self.profile.name, arrival_time, next(self._works),
                              next(request_module._request_counter)))

    def materialize_arrivals(self) -> "tuple[List[float], List[float]]":
        """Sample the whole run's arrivals up front.

        Returns ``(times, works)`` — every arrival time up to the
        horizon plus each request's sampled work (one
        ``sample_work_many`` call on the dedicated ``work_rng``).  A
        generator materialises once: a second call is refused.
        """
        if self._sampler is not None:
            raise RuntimeError("generator already started")
        sampler = self._sampler = _ThinningSampler(
            self.schedule,
            self.rng,
            start=self.engine.now,
            horizon=self.horizon,
            thinning_window=self.thinning_window,
        )
        times = sampler.next_arrivals(math.inf)
        self.generated = len(times)
        return times, self.profile.sample_work_many(self.work_rng, len(times)).tolist()


def merge_arrivals(generators: Sequence[ArrivalGenerator]) -> Tuple[
        List[List[float]], List[List[float]], np.ndarray, np.ndarray, List[float]]:
    """Materialise every generator's arrivals and merge them in ``(time, generator)`` order.

    Returns ``(times, works, order, source, merged)``: per generator, the
    times and works :meth:`ArrivalGenerator.materialize_arrivals` returned;
    per merged position, the position in the concatenation of ``times``
    and the generator's index; and the merged times.  The merge is a
    stable sort by time, then by generator, then by the generator's own
    order — the order the engine ran per-arrival events in when each
    generator scheduled its own, so both data planes dispatch, and draw
    request ids, in it.
    """
    times, works = [], []
    for generator in generators:
        generator_times, generator_works = generator.materialize_arrivals()
        times.append(generator_times)
        works.append(generator_works)
    flat = np.concatenate([np.asarray(t, dtype=np.float64) for t in times] or [np.empty(0)])
    source = np.repeat(np.arange(len(times)), [len(t) for t in times])
    order = np.lexsort((source, flat))
    return times, works, order, source[order], flat[order].tolist()


def stream_arrivals(engine: SimulationEngine, generators: Sequence[ArrivalGenerator]) -> None:
    """Merge the generators' arrivals and give them to ``engine`` as its stream.

    The event plane's arrival path: each arrival of the merge runs its
    generator's :meth:`ArrivalGenerator._arrive` at its time, beside the
    heap (:meth:`~repro.sim.engine.SimulationEngine.merge_stream`).  A
    generator's works stay in its own list, read in arrival order.
    """
    _, works, _, source, merged = merge_arrivals(generators)
    arrive = []
    for generator, generator_works in zip(generators, works):
        generator._works = iter(generator_works)  # drops the list once read whole
        arrive.append(generator._arrive)
    engine.merge_stream(merged, list(map(arrive.__getitem__, source.tolist())))


__all__ = ["ArrivalGenerator", "WorkloadBinding", "merge_arrivals", "stream_arrivals"]
