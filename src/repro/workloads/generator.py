"""Poisson arrival generation driven by a rate schedule.

:class:`ArrivalGenerator` is the simulation-side equivalent of the
paper's configurable IoT workload generator: it samples arrival times
from a (possibly time-varying) Poisson process via thinning, creates
:class:`~repro.sim.request.Request` objects with per-request work drawn
from the function's service-time distribution, and hands them to the
controller's ``dispatch``.

Fast path
---------
Arrival sampling is vectorized: a :class:`_ThinningSampler` draws
``(gap, accept)`` uniform pairs from the RNG in fixed-size chunks,
converts them to candidate times with one ``cumsum`` per thinning
window, thins the whole candidate batch against ``rate_many``, and the
generator injects each batch of accepted arrivals through the engine's
``schedule_many`` — one numpy pass plus one batch call instead of one
RNG draw and one engine event per arrival.

The sampler's RNG consumption is a pure function of the schedule and
the chunk size — it does not depend on ``batch_size`` (how many
arrivals the generator schedules per engine batch).  Combined with a
dedicated ``work_rng`` stream for per-request work, a run's arrival
*and* work realisations are identical for every ``batch_size``,
including the ``batch_size=1`` per-event mode that mirrors the seed
implementation's one-event-per-arrival cadence.  The determinism
regression test relies on exactly this property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.sim import request as request_module
from repro.sim.engine import SimulationEngine
from repro.sim.request import Request
from repro.workloads.functions import FunctionProfile
from repro.workloads.schedules import RateSchedule


@dataclass
class WorkloadBinding:
    """One function's workload: its profile plus a rate schedule."""

    profile: FunctionProfile
    schedule: RateSchedule
    slo_deadline: Optional[float] = 0.1
    weight: float = 1.0
    user: str = "default"


class _ThinningSampler:
    """Vectorized non-homogeneous Poisson sampling by thinning.

    For each thinning window ``[w, w + W)`` (clipped to the horizon) with
    rate bound ``B = max_rate(w, w + W)``, candidate arrivals are the
    cumulative sums of ``Exp(B)`` gaps; each candidate at time ``t`` is
    accepted with probability ``rate(t) / B``.  Every candidate consumes
    exactly one ``(gap, accept)`` uniform pair — including the candidate
    that overshoots the window — so RNG consumption depends only on the
    pair stream itself, never on how many arrivals a caller requests per
    :meth:`next_arrivals` call.
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
        self._pairs = np.empty((0, 2))
        self._pos = 0
        self.exhausted = False

    def _refill(self) -> None:
        """Thin one window of candidates and append the accepted arrivals."""
        self._pairs = self.rng.random((self.chunk, 2))
        self._pos = 0

    def next_arrivals(self, max_count: int) -> List[float]:
        """Return at least ``max_count`` arrivals if any remain (may overshoot).

        Returns an empty list once the horizon is reached.  The overshoot
        happens because a whole window chunk is thinned at once; callers
        schedule everything they receive.
        """
        out: List[float] = []
        while len(out) < max_count and not self.exhausted:
            horizon = self.horizon
            if horizon is not None and self._t >= horizon:
                self.exhausted = True
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
            if self._pos >= len(self._pairs):
                self._refill()
            view = self._pairs[self._pos :]
            gaps = -np.log1p(-view[:, 0]) / bound
            candidates = self._t + np.cumsum(gaps)
            crossed = int(np.searchsorted(candidates, self._window_end, side="right"))
            if crossed == 0:
                # first candidate already overshoots the window
                self._pos += 1
                self._t = self._window_end
                self._window_end = None
                continue
            in_window = candidates[:crossed]
            accept_u = view[:crossed, 1]
            rates = self.schedule.rate_many(in_window)
            accepted = in_window[accept_u * bound <= rates]
            out.extend(accepted.tolist())
            if crossed < len(candidates):
                # the (crossed+1)-th pair was consumed by the overshoot candidate
                self._pos += crossed + 1
                self._t = self._window_end
                self._window_end = None
            else:
                # buffer exhausted inside the window: continue from the last candidate
                self._pos += crossed
                self._t = float(candidates[-1])
        return out


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
        Random generator for inter-arrival times (and for work sampling
        when ``work_rng`` is not given).
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
        ``batch_size`` when ``work_rng`` is a separate stream.
    work_rng:
        Optional dedicated stream for per-request work sampling.  When
        omitted, work is drawn from ``rng`` (deterministic for a fixed
        ``batch_size``, but interleaved with arrival sampling).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        profile: FunctionProfile,
        schedule: RateSchedule,
        dispatch: Callable[[Request], None],
        rng: np.random.Generator,
        slo_deadline: Optional[float] = 0.1,
        horizon: Optional[float] = None,
        thinning_window: float = 5.0,
        batch_size: int = 256,
        work_rng: Optional[np.random.Generator] = None,
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
        self.work_rng = work_rng if work_rng is not None else rng
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
        them through engine events.  RNG consumption is *identical* to
        the event-driven path: batches of ``batch_size`` arrivals are
        drawn from the sampler and each batch's work is drawn
        immediately afterwards, exactly mirroring :meth:`_pump`'s
        interleaving (which matters when ``work_rng`` is the shared
        arrival stream).  Marks the generator as started; a generator
        can drive exactly one of the two data planes.
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
        works: List[float] = []
        while True:
            batch = sampler.next_arrivals(self.batch_size)
            if not batch:
                break
            times.extend(batch)
            works.extend(self.profile.sample_work_many(self.work_rng, len(batch)).tolist())
        self.generated = len(times)
        return times, works

    # ------------------------------------------------------------------
    # Request construction
    # ------------------------------------------------------------------
    def make_request(self, arrival_time: float) -> Request:
        """Create one request with sampled work and an absolute deadline."""
        deadline = None if self.slo_deadline is None else arrival_time + self.slo_deadline
        return Request(
            function_name=self.profile.name,
            arrival_time=arrival_time,
            deadline=deadline,
            work=self.profile.sample_work(self.work_rng),
        )


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
