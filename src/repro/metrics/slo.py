"""SLO accounting.

An SLO in this system is "percentile ``p`` of requests must start (or
finish) within deadline ``d``".  :func:`slo_report` evaluates whether a
set of completed requests met that target, per function, using either
the waiting-time interpretation (the paper's default: requests must
*start* being processed by the deadline) or the response-time
interpretation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Union

import numpy as np

from repro.metrics.table import COMPLETED, DROPPED, RequestTable
from repro.sim.request import Request


@dataclass(frozen=True)
class SloReport:
    """SLO attainment for one function."""

    function_name: str
    deadline: float
    target_percentile: float
    total_requests: int
    completed_requests: int
    dropped_requests: int
    within_deadline: int
    attainment: float
    satisfied: bool

    def as_dict(self) -> dict:
        """Plain-dict view for tabular output."""
        return {
            "function": self.function_name,
            "deadline": self.deadline,
            "target": self.target_percentile,
            "total": self.total_requests,
            "completed": self.completed_requests,
            "dropped": self.dropped_requests,
            "within_deadline": self.within_deadline,
            "attainment": self.attainment,
            "satisfied": self.satisfied,
        }


def slo_report(
    requests: Union[RequestTable, Iterable[Request]],
    deadlines: Mapping[str, float],
    target_percentile: float = 0.95,
    on_waiting_time: bool = True,
    warmup: float = 0.0,
    count_drops_as_violations: bool = True,
) -> Dict[str, SloReport]:
    """Evaluate SLO attainment per function.

    Parameters
    ----------
    requests:
        Requests observed during the experiment (any status): a
        :class:`~repro.metrics.table.RequestTable`, or any iterable of
        :class:`~repro.sim.request.Request` (converted once).
    deadlines:
        Relative SLO deadline per function name (seconds).
    target_percentile:
        Required fraction of requests meeting the deadline.
    on_waiting_time:
        If true, a request "meets" the SLO when its *waiting* time is at
        most the deadline; otherwise its response time is used.
    warmup:
        Requests arriving before this time are excluded.
    count_drops_as_violations:
        Dropped / timed-out requests count against attainment when true.
    """
    if not 0 < target_percentile < 1:
        raise ValueError("target_percentile must be in (0, 1)")
    table = RequestTable.from_requests(requests)
    names = table.names
    tracked = np.fromiter((name in deadlines for name in names), bool, len(names))
    keep = tracked[table.codes] & ~(table.arrival < warmup)
    codes = table.codes[keep]
    status = table.status[keep]
    done = status == COMPLETED
    limit = np.array([deadlines[name] + 1e-12 if name in deadlines else 0.0 for name in names])
    moment = (table.start if on_waiting_time else table.completion)[keep]
    # a moment that never came is NaN, and NaN <= limit is False
    met = done & (moment - table.arrival[keep] <= limit[codes])
    size = len(names)
    total = np.bincount(codes, minlength=size).tolist()
    completed = np.bincount(codes[done], minlength=size).tolist()
    dropped = np.bincount(codes[status >= DROPPED], minlength=size).tolist()
    within = np.bincount(codes[met], minlength=size).tolist()

    # reports come in the order each function first appears among the kept rows
    seen, first = np.unique(codes, return_index=True)
    reports: Dict[str, SloReport] = {}
    for code in seen[np.argsort(first)].tolist():
        name = names[code]
        denominator = total[code] if count_drops_as_violations else completed[code]
        attainment = within[code] / denominator if denominator else 1.0
        reports[name] = SloReport(
            function_name=name,
            deadline=deadlines[name],
            target_percentile=target_percentile,
            total_requests=total[code],
            completed_requests=completed[code],
            dropped_requests=dropped[code],
            within_deadline=within[code],
            attainment=attainment,
            satisfied=attainment >= target_percentile,
        )
    return reports


def overall_attainment(reports: Mapping[str, SloReport]) -> float:
    """Request-weighted SLO attainment across all functions."""
    total = sum(r.total_requests for r in reports.values())
    if total == 0:
        return 1.0
    within = sum(r.within_deadline for r in reports.values())
    return within / total


__all__ = ["SloReport", "slo_report", "overall_attainment"]
