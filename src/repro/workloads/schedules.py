"""Arrival-rate schedules: how a function's request rate varies over time.

The paper's IoT workload generator supports three modes (§6.1); two are
reproduced:

* **Static** — a constant arrival rate (:class:`StaticRate`).
* **Discrete change** — the rate changes at discrete instants and is
  constant in between (:class:`StepSchedule`); this is also the mode
  used to replay the per-minute Azure traces (:class:`TraceSchedule`).

The third mode, **continuous change** (the rate adjusted continuously),
drives none of the reproduced figures and has no schedule here.

A schedule is a deterministic function ``rate(t)`` plus enough
structure (``max_rate``) for the thinning-based Poisson generator to
sample arrivals exactly.
"""

from __future__ import annotations

import abc
import bisect
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np


class RateSchedule(abc.ABC):
    """A time-varying arrival rate λ(t), in requests per second."""

    @abc.abstractmethod
    def rate(self, t: float) -> float:
        """The instantaneous arrival rate at time ``t``."""

    @abc.abstractmethod
    def max_rate(self, start: float, end: float) -> float:
        """An upper bound on the rate over ``[start, end]`` (for thinning)."""

    @property
    @abc.abstractmethod
    def end_time(self) -> Optional[float]:
        """Time after which the rate is zero forever (``None`` = never ends)."""

    def rate_many(self, times: np.ndarray) -> np.ndarray:
        """Vectorized λ(t) for an array of times.

        The base implementation loops over :meth:`rate`; concrete
        schedules override it with a true numpy evaluation so the
        vectorized arrival generator can thin whole candidate batches
        without a Python call per candidate.

        Contract for an override: ``rate_many([t])[0] == rate(t)`` to the
        bit, for every ``t``.  The arrival sampler reads a sparse thinning
        window through :meth:`rate` and a dense one through this method,
        so a schedule whose two evaluations differ in a last bit has
        arrivals that depend on which pass ran
        (``tests/test_arrival_sampler.py`` holds every in-tree kind to it).
        """
        return np.array([self.rate(float(t)) for t in np.asarray(times).ravel()], dtype=float)


@dataclass(frozen=True)
class StaticRate(RateSchedule):
    """A constant arrival rate, optionally ending at ``duration`` seconds."""

    value: float
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        """Validate the rate and duration."""
        if self.value < 0:
            raise ValueError("rate must be non-negative")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("duration must be positive")

    def rate(self, t: float) -> float:
        """The instantaneous rate at time ``t``."""
        if t < 0:
            return 0.0
        if self.duration is not None and t >= self.duration:
            return 0.0
        return self.value

    def max_rate(self, start: float, end: float) -> float:
        """Upper bound on the rate over ``[start, end]``."""
        return self.value

    def rate_many(self, times: np.ndarray) -> np.ndarray:
        """Vectorized λ(t) evaluation."""
        times = np.asarray(times, dtype=float)
        live = times >= 0
        if self.duration is not None:
            live &= times < self.duration
        return np.where(live, self.value, 0.0)

    @property
    def end_time(self) -> Optional[float]:
        """Time after which the rate is zero forever (``None`` = never)."""
        return self.duration


class StepSchedule(RateSchedule):
    """Piecewise-constant rate: the paper's "discrete change" mode.

    Parameters
    ----------
    steps:
        ``(start_time, rate)`` pairs sorted by time; each rate holds from
        its start time until the next step.
    duration:
        Optional end of the workload (rate is zero afterwards).
    """

    def __init__(self, steps: Sequence[Tuple[float, float]], duration: Optional[float] = None) -> None:
        """Validate and index the ``(time, rate)`` steps."""
        if not steps:
            raise ValueError("at least one step is required")
        ordered = sorted((float(t), float(r)) for t, r in steps)
        if any(r < 0 for _, r in ordered):
            raise ValueError("rates must be non-negative")
        self._times = [t for t, _ in ordered]
        self._rates = [r for _, r in ordered]
        # ndarray views for rate_many, which sits on the vectorized thinning
        # hot path — rebuilding them per call would scale with the step count
        self._times_arr = np.asarray(self._times)
        self._rates_arr = np.asarray(self._rates)
        self._duration = duration

    def rate(self, t: float) -> float:
        """The instantaneous rate at time ``t``."""
        if t < self._times[0]:
            return 0.0
        if self._duration is not None and t >= self._duration:
            return 0.0
        index = bisect.bisect_right(self._times, t) - 1
        return self._rates[index]

    def rate_many(self, times: np.ndarray) -> np.ndarray:
        """Vectorized λ(t) evaluation."""
        times = np.asarray(times, dtype=float)
        indices = np.searchsorted(self._times_arr, times, side="right") - 1
        rates = self._rates_arr[np.clip(indices, 0, None)]
        dead = indices < 0
        if self._duration is not None:
            dead |= times >= self._duration
        return np.where(dead, 0.0, rates)

    def max_rate(self, start: float, end: float) -> float:
        """Upper bound on the rate over ``[start, end]``."""
        first = bisect.bisect_left(self._times, start)
        last = bisect.bisect_right(self._times, end)
        return max([self.rate(start), *self._rates[first:last]])

    @property
    def end_time(self) -> Optional[float]:
        """Time after which the rate is zero forever (``None`` = never)."""
        return self._duration

    @property
    def steps(self) -> List[Tuple[float, float]]:
        """The ``(time, rate)`` steps (a copy)."""
        return list(zip(self._times, self._rates))

    @classmethod
    def staircase(
        cls,
        rates: Sequence[float],
        step_duration: float,
        start: float = 0.0,
    ) -> "StepSchedule":
        """Equal-duration steps through ``rates`` — e.g. 5→30→5 req/s in Figure 6."""
        if step_duration <= 0:
            raise ValueError("step_duration must be positive")
        steps = [(start + i * step_duration, rate) for i, rate in enumerate(rates)]
        return cls(steps, duration=start + len(rates) * step_duration)


class TraceSchedule(RateSchedule):
    """Replay of per-interval invocation counts (e.g. Azure per-minute traces).

    Each count covers one interval of ``interval`` seconds; the rate
    during that interval is ``count / interval``.
    """

    def __init__(self, counts: Sequence[float], interval: float = 60.0, start: float = 0.0) -> None:
        """Validate the per-interval counts."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        counts_arr = np.asarray(counts, dtype=float)
        if counts_arr.ndim != 1 or counts_arr.size == 0:
            raise ValueError("counts must be a non-empty 1-D sequence")
        if (counts_arr < 0).any():
            raise ValueError("counts must be non-negative")
        self._counts = counts_arr
        self.interval = float(interval)
        self.start = float(start)

    def rate(self, t: float) -> float:
        """The instantaneous rate at time ``t``."""
        offset = t - self.start
        if offset < 0:
            return 0.0
        index = int(offset // self.interval)
        if index >= self._counts.size:
            return 0.0
        return float(self._counts[index] / self.interval)

    def rate_many(self, times: np.ndarray) -> np.ndarray:
        """Vectorized λ(t) evaluation."""
        offsets = np.asarray(times, dtype=float) - self.start
        indices = np.floor_divide(offsets, self.interval).astype(int)
        dead = (offsets < 0) | (indices >= self._counts.size)
        rates = self._counts[np.clip(indices, 0, self._counts.size - 1)] / self.interval
        return np.where(dead, 0.0, rates)

    def max_rate(self, start: float, end: float) -> float:
        """Upper bound on the rate over ``[start, end]``."""
        i0 = max(0, int((start - self.start) // self.interval))
        i1 = min(self._counts.size - 1, int((end - self.start) // self.interval))
        if i1 < i0:
            return 0.0
        return float(self._counts[i0 : i1 + 1].max() / self.interval)

    @property
    def end_time(self) -> Optional[float]:
        """Time after which the trace is exhausted."""
        return self.start + self._counts.size * self.interval

    @property
    def counts(self) -> np.ndarray:
        """The per-interval counts (a copy)."""
        return self._counts.copy()

    def total_invocations(self) -> float:
        """Total invocation count over the whole trace."""
        return float(self._counts.sum())


__all__ = [
    "RateSchedule",
    "StaticRate",
    "StepSchedule",
    "TraceSchedule",
]
