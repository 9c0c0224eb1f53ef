"""Service-time knowledge: offline profiles and online learning (paper §5).

"In order to use queueing theory based models to predict the capacity
needed for a latency sensitive function, the controller needs to know
the service time distribution.  In the scenario where the deflation
policy is used, the controller needs to know multiple service time
distributions under different container sizes.  LaSS supports two
approaches for this purpose: 1) load offline profiling results ... and
2) use an online learning algorithm to learn the service time
distribution(s) over time."

:class:`ServiceTimeProfile` is the offline path: a table of mean service
times per container size, interpolated for intermediate deflation
levels.  :class:`OnlineServiceTimeEstimator` is the online path: it
ingests ``(cpu_fraction, service_time)`` samples
from completed requests and keeps a running mean per CPU bucket —
noted at the completion, folded at the next read (see its pending-block
contract).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Most completions :meth:`OnlineServiceTimeEstimator.observe` holds back
#: before folding them itself: a memory bound for runs that never read the
#: estimator, not a tuning knob (see ``sliding_window._PENDING_BLOCK``).
_PENDING_BLOCK = 4096


@dataclass(frozen=True)
class ServiceTimeProfile:
    """Offline service-time profile of one function.

    Parameters
    ----------
    function_name:
        The profiled function.
    cpu_fractions:
        Sorted CPU fractions (of the standard container size) at which
        the function was profiled, e.g. ``(0.3, 0.5, 0.7, 1.0)``.
    mean_service_times:
        Mean service time measured at each profiled CPU fraction.
    """

    function_name: str
    cpu_fractions: Tuple[float, ...]
    mean_service_times: Tuple[float, ...]

    def __post_init__(self) -> None:
        """Validate the profile table's shape and ordering."""
        if len(self.cpu_fractions) != len(self.mean_service_times):
            raise ValueError("cpu_fractions and mean_service_times must have equal length")
        if len(self.cpu_fractions) == 0:
            raise ValueError("profile must contain at least one point")
        if any(f <= 0 or f > 1.0 + 1e-9 for f in self.cpu_fractions):
            raise ValueError("cpu fractions must be in (0, 1]")
        if any(s <= 0 for s in self.mean_service_times):
            raise ValueError("service times must be positive")
        if list(self.cpu_fractions) != sorted(self.cpu_fractions):
            raise ValueError("cpu_fractions must be sorted ascending")

    @classmethod
    def from_speed_curve(
        cls,
        function_name: str,
        standard_mean: float,
        speed_of_cpu,
        cpu_fractions: Sequence[float] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    ) -> "ServiceTimeProfile":
        """Build a profile from a deflation response curve.

        ``speed_of_cpu(fraction)`` gives relative speed; mean service time
        at that fraction is ``standard_mean / speed``.
        """
        fractions = tuple(sorted(float(f) for f in cpu_fractions))
        means = tuple(standard_mean / max(1e-9, speed_of_cpu(f)) for f in fractions)
        return cls(function_name, fractions, means)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def mean_service_time(self, cpu_fraction: float = 1.0) -> float:
        """Mean service time at a CPU fraction (linear interpolation)."""
        if cpu_fraction <= 0:
            raise ValueError("cpu_fraction must be positive")
        fractions = np.asarray(self.cpu_fractions)
        means = np.asarray(self.mean_service_times)
        return float(np.interp(cpu_fraction, fractions, means))

    def service_rate(self, cpu_fraction: float = 1.0) -> float:
        """Service rate μ at a CPU fraction."""
        return 1.0 / self.mean_service_time(cpu_fraction)


class OnlineServiceTimeEstimator:
    """Learns per-CPU-fraction service-time statistics from completed requests.

    Observations are bucketed by CPU fraction (default bucket width 10 %
    of the standard size) so that deflated and standard containers
    contribute to separate estimates, which is what the deflation policy
    needs (§5).

    Each bucket keeps a running ``[count, total]`` for the mean (so μ).

    Pending-block contract: :meth:`observe` validates its arguments at the
    call and notes them; the block goes through :meth:`observe_many` —
    state for state what per-observation folding leaves — when anything
    next reads ``_totals`` (every read method, and :meth:`observe_many`
    itself, so the two entry points interleave), or by itself at
    ``_PENDING_BLOCK`` entries.  A rejected call, on either entry point,
    leaves the estimator as it found it.
    """

    def __init__(self, bucket_width: float = 0.1) -> None:
        """Configure the CPU-fraction bucketing."""
        if not 0 < bucket_width <= 1:
            raise ValueError("bucket_width must be in (0, 1]")
        self.bucket_width = float(bucket_width)
        # [count, total] mutated in place (a fresh tuple per observation
        # showed up in hot-path profiles)
        self._folded_totals: Dict[int, List[float]] = {}
        self._pending_fractions: List[float] = []
        self._pending_times: List[float] = []

    @property
    def _totals(self) -> Dict[int, List[float]]:
        """Per-bucket ``[count, total]``, with every noted observation folded in."""
        if self._pending_times:
            self._fold()
        return self._folded_totals

    def _fold(self) -> None:
        """Move the pending block into the buckets."""
        fractions, self._pending_fractions = self._pending_fractions, []
        times, self._pending_times = self._pending_times, []
        self.observe_many(fractions, times)

    def _bucket(self, cpu_fraction: float) -> int:
        """Bucket index for a CPU fraction."""
        if cpu_fraction <= 0:
            raise ValueError("cpu_fraction must be positive")
        return int(round(min(1.0, cpu_fraction) / self.bucket_width))

    def observe(self, cpu_fraction: float, service_time: float) -> None:
        """Note one completed request's service time at the given CPU fraction."""
        if not service_time >= 0:  # also rejects NaN
            raise ValueError("service_time must be non-negative")
        if cpu_fraction <= 0:
            raise ValueError("cpu_fraction must be positive")
        self._pending_fractions.append(cpu_fraction)
        times = self._pending_times
        times.append(service_time)
        if len(times) >= _PENDING_BLOCK:
            self._fold()

    def observe_many(self, cpu_fractions: List[float],
                     service_times: List[float]) -> None:
        """Record a batch of completions, state-for-state identical to ``observe``.

        Observations are grouped by CPU-fraction bucket (preserving
        per-bucket order, which is all the running totals can see) so
        each bucket is touched once per batch.  Running
        totals still accumulate element by element in order — float
        addition is not associative, and the totals must stay bit-equal
        to the per-observation path.  The whole batch is validated before
        anything — pending block included — is folded.
        """
        bucket_width = self.bucket_width
        groups: Dict[int, List[float]]
        first = cpu_fractions[0] if cpu_fractions else 1.0
        if cpu_fractions and cpu_fractions.count(first) == len(cpu_fractions):
            # uniform fleet fast path: one bucket for the whole batch
            if first <= 0:
                raise ValueError("cpu_fraction must be positive")
            # a NaN can hide a negative from min() but never itself from sum()
            if min(service_times) < 0 or math.isnan(sum(service_times)):
                raise ValueError("service_time must be non-negative")
            key = int(round(min(1.0, first) / bucket_width))
            groups = {key: service_times}
        else:
            groups = {}
            for cpu_fraction, service_time in zip(cpu_fractions, service_times):
                if not service_time >= 0:  # also rejects NaN
                    raise ValueError("service_time must be non-negative")
                if cpu_fraction <= 0:
                    raise ValueError("cpu_fraction must be positive")
                key = int(round(min(1.0, cpu_fraction) / bucket_width))
                group = groups.get(key)
                if group is None:
                    group = groups[key] = []
                group.append(service_time)
        totals_of = self._totals  # older pending observations go first
        for key, values in groups.items():
            totals = totals_of.get(key)
            if totals is None:
                totals = totals_of[key] = [0, 0.0]
            totals[0] += len(values)
            # the loop's left-to-right additions, made in C
            totals[1] = reduce(operator.add, values, totals[1])

    def observations(self, cpu_fraction: float = 1.0) -> int:
        """Number of observations for the bucket containing ``cpu_fraction``."""
        return self.bucket_totals(cpu_fraction)[0]

    def bucket_totals(self, cpu_fraction: float = 1.0) -> Tuple[int, float]:
        """``(count, total)`` of the bucket containing ``cpu_fraction``, in one frame."""
        if cpu_fraction <= 0:
            raise ValueError("cpu_fraction must be positive")
        if self._pending_times:
            self._fold()
        key = int(round(min(1.0, cpu_fraction) / self.bucket_width))
        count, total = self._folded_totals.get(key, (0, 0.0))
        return count, total

    def mean_service_time(self, cpu_fraction: float = 1.0) -> Optional[float]:
        """Learned mean service time at a CPU fraction, or ``None`` if unseen.

        Falls back to the nearest observed bucket when the exact bucket
        has no data (e.g. asking about 70 % CPU when only standard
        containers have run so far); scales by the CPU ratio under the
        proportional-slowdown assumption.
        """
        key = self._bucket(cpu_fraction)
        if key in self._totals and self._totals[key][0] > 0:
            count, total = self._totals[key]
            return total / count
        if not self._totals:
            return None
        nearest = min(self._totals, key=lambda k: abs(k - key))
        count, total = self._totals[nearest]
        if count == 0:
            return None
        nearest_fraction = nearest * self.bucket_width
        observed_mean = total / count
        return observed_mean * (nearest_fraction / max(1e-9, cpu_fraction))

    def service_rate(self, cpu_fraction: float = 1.0) -> Optional[float]:
        """Learned service rate μ at a CPU fraction, or ``None`` if unseen."""
        mean = self.mean_service_time(cpu_fraction)
        return None if mean is None or mean <= 0 else 1.0 / mean


__all__ = ["ServiceTimeProfile", "OnlineServiceTimeEstimator"]
