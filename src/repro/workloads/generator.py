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
they replaced).  The generator injects each batch of accepted arrivals
through the engine's ``schedule_many`` — one batch call instead of one
engine event per arrival.

The sampler's RNG consumption is a pure function of the schedule and
the chunk size — it does not depend on ``batch_size`` (how many
arrivals the generator schedules per engine batch).  Per-request work
comes from a second, dedicated ``work_rng`` stream, so a run's arrival
*and* work realisations are identical for every ``batch_size``,
including the ``batch_size=1`` per-event mode that mirrors the seed
implementation's one-event-per-arrival cadence.  The determinism
regression test relies on exactly this property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

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
    """Generates Poisson arrivals for one function and injects them into the engine.

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
    slo_deadline:
        Relative SLO deadline stamped onto each request (``None`` for no SLO).
    horizon:
        Stop generating at this simulation time even if the schedule
        continues (defaults to the schedule's own end).  May be assigned
        up to the moment :meth:`start` is called.
    thinning_window:
        Length of the look-ahead window used to bound the rate for
        thinning; small enough that step changes are picked up promptly.
    batch_size:
        Target number of arrivals scheduled per engine batch.  The
        default injects arrivals in vectorized batches through
        ``schedule_many``; ``batch_size=1`` reproduces the seed
        implementation's one-event-per-arrival cadence (used by the
        determinism regression test).  Results are independent of
        ``batch_size``.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        profile: FunctionProfile,
        schedule: RateSchedule,
        dispatch: Callable[[Request], None],
        rng: np.random.Generator,
        work_rng: np.random.Generator,
        slo_deadline: Optional[float] = 0.1,
        horizon: Optional[float] = None,
        thinning_window: float = 5.0,
        batch_size: int = 256,
    ) -> None:
        """Wire the generator's sampler and RNG streams (see the class docstring for parameter semantics)."""
        if thinning_window <= 0:
            raise ValueError("thinning_window must be positive")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.engine = engine
        self.profile = profile
        self.schedule = schedule
        self.dispatch = dispatch
        self.rng = rng
        self.work_rng = work_rng
        self.slo_deadline = slo_deadline
        self.horizon = horizon if horizon is not None else schedule.end_time
        self.thinning_window = float(thinning_window)
        self.batch_size = int(batch_size)
        self.generated: int = 0
        self._started = False
        self._sampler: Optional[_ThinningSampler] = None

    # ------------------------------------------------------------------
    # Driving the process
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Sample and schedule the first batch of arrivals."""
        if self._started:
            return
        self._started = True
        self._sampler = _ThinningSampler(
            self.schedule,
            self.rng,
            start=self.engine.now,
            horizon=self.horizon,
            thinning_window=self.thinning_window,
        )
        self._pump()

    def _pump(self) -> None:
        """Schedule the next batch of arrivals plus the follow-up pump.

        The pump event is scheduled at the batch's last arrival time with
        the same (data) priority but a later sequence number, so it fires
        after that arrival's dispatch — the next batch is then sampled
        with the RNG positioned exactly as in per-event mode.
        """
        assert self._sampler is not None
        times = self._sampler.next_arrivals(self.batch_size)
        if not times:
            return
        # pre-sample the whole batch's work in one vectorized draw; the RNG
        # stream consumption is identical to per-emit scalar draws, so this
        # does not change a seeded realisation (see sample_work_many)
        works = self.profile.sample_work_many(self.work_rng, len(times))
        emit = self._emit
        self.engine.schedule_many(
            (t, emit, (t, w)) for t, w in zip(times, works.tolist())
        )
        self.engine.call_at(times[-1], self._pump)

    def _emit(self, arrival_time: float, work: float) -> None:
        """Create one request at its arrival time and hand it to dispatch."""
        deadline = None if self.slo_deadline is None else arrival_time + self.slo_deadline
        self.generated += 1
        # the id is drawn here, as the dataclass default would, without its
        # factory frame; through the module, because the counter is rebound
        self.dispatch(Request(self.profile.name, arrival_time, deadline, work,
                              next(request_module._request_counter)))

    def materialize_arrivals(self) -> "tuple[List[float], List[float]]":
        """Sample the whole run's arrivals up front (columnar data plane).

        Returns ``(times, works)`` — every arrival time up to the
        horizon plus each request's sampled work — instead of pumping
        them through engine events.  The realisation is *identical* to
        the event-driven path's: the sampler's draws do not depend on
        how many arrivals are asked for at a time, and the works are one
        ``sample_work_many`` call on the dedicated ``work_rng``, which
        draws the same values as :meth:`_pump`'s per-batch calls.  Marks
        the generator as started; a generator can drive exactly one of
        the two data planes.
        """
        if self._started:
            raise RuntimeError("generator already started")
        self._started = True
        sampler = _ThinningSampler(
            self.schedule,
            self.rng,
            start=self.engine.now,
            horizon=self.horizon,
            thinning_window=self.thinning_window,
        )
        self._sampler = sampler
        times: List[float] = []
        while True:
            batch = sampler.next_arrivals(self.batch_size)
            if not batch:
                break
            times.extend(batch)
        self.generated = len(times)
        return times, self.profile.sample_work_many(self.work_rng, len(times)).tolist()


def generate_arrival_times(
    schedule: RateSchedule,
    rng: np.random.Generator,
    horizon: float,
    thinning_window: float = 5.0,
) -> List[float]:
    """Stand-alone sampling of arrival times (no engine), used by tests.

    Samples a non-homogeneous Poisson process over ``[0, horizon]`` by
    thinning, identical in distribution to what :class:`ArrivalGenerator`
    injects into the simulation (it runs the same sampler).
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    sampler = _ThinningSampler(schedule, rng, start=0.0, horizon=horizon, thinning_window=thinning_window)
    times: List[float] = []
    while True:
        batch = sampler.next_arrivals(1024)
        if not batch:
            return times
        times.extend(batch)


__all__ = ["ArrivalGenerator", "WorkloadBinding", "generate_arrival_times"]
