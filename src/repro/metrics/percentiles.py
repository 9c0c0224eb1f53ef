"""Waiting-time and response-time percentile summaries.

The paper's model-validation experiments (Figures 3 and 4) report the
95th percentile of the measured waiting time against the SLO deadline,
along with box-and-whisker ranges; :func:`summarize_waiting_times`
computes all of those numbers from a run's request table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.metrics.table import COMPLETED, RequestTable
from repro.sim.request import Request


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (``p`` in (0, 1)) of a non-empty sequence.

    Accepts any ndarray, sequence, or iterable of numbers.  An ndarray
    input is used as-is (no copy unless a dtype conversion is needed);
    sequences are converted with a single ``asarray`` pass — the seed
    implementation materialised ``list(values)`` first, copying every
    ndarray or list input twice.
    """
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    if isinstance(values, np.ndarray):
        arr = values if values.dtype == float else values.astype(float)
    else:
        try:
            arr = np.asarray(values, dtype=float)
        except (TypeError, ValueError):
            # a lazy iterable (generator, map, ...): single-pass conversion
            arr = np.fromiter(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot take a percentile of an empty sequence")
    return float(np.quantile(arr, p))


@dataclass(frozen=True)
class WaitingTimeSummary:
    """Distributional summary of waiting times (all values in seconds)."""

    count: int
    mean: float
    median: float
    p90: float
    p95: float
    p99: float
    maximum: float
    minimum: float

    def as_dict(self) -> dict:
        """Plain-dict view, convenient for tabular experiment output."""
        return {
            "count": self.count,
            "mean": self.mean,
            "median": self.median,
            "p90": self.p90,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.maximum,
            "min": self.minimum,
        }


def _empty_summary() -> WaitingTimeSummary:
    """An all-zero summary for functions with no completed requests."""
    return WaitingTimeSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _summarize(requests: Union[RequestTable, Iterable[Request]], column: str,
               function_name: Optional[str], warmup: float) -> WaitingTimeSummary:
    """Summarise ``column - arrival`` over the selected completed requests."""
    table = RequestTable.from_requests(requests)
    moments = getattr(table, column)
    keep = (table.rows_of(function_name) & (table.status == COMPLETED)
            & ~(table.arrival < warmup) & ~np.isnan(moments))
    arr = moments[keep] - table.arrival[keep]
    if not arr.size:
        return _empty_summary()
    return WaitingTimeSummary(
        count=int(arr.size),
        mean=float(arr.mean()),
        median=float(np.quantile(arr, 0.5)),
        p90=float(np.quantile(arr, 0.90)),
        p95=float(np.quantile(arr, 0.95)),
        p99=float(np.quantile(arr, 0.99)),
        maximum=float(arr.max()),
        minimum=float(arr.min()),
    )


def summarize_waiting_times(
    requests: Union[RequestTable, Iterable[Request]],
    function_name: Optional[str] = None,
    warmup: float = 0.0,
) -> WaitingTimeSummary:
    """Summarise the waiting times of completed requests.

    Parameters
    ----------
    requests:
        A :class:`~repro.metrics.table.RequestTable`, or any iterable of
        :class:`~repro.sim.request.Request` (converted once).
    function_name:
        Restrict to a single function (``None`` keeps all).
    warmup:
        Ignore requests that arrived before this simulation time, so
        cold-start transients do not pollute steady-state percentiles.
    """
    return _summarize(requests, "start", function_name, warmup)


def summarize_response_times(
    requests: Union[RequestTable, Iterable[Request]],
    function_name: Optional[str] = None,
    warmup: float = 0.0,
) -> WaitingTimeSummary:
    """Like :func:`summarize_waiting_times` but over end-to-end response times."""
    return _summarize(requests, "completion", function_name, warmup)


__all__ = ["percentile", "WaitingTimeSummary", "summarize_waiting_times", "summarize_response_times"]
