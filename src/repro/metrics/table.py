"""The request table: a run's per-request record as parallel numpy columns.

Every number the evaluation reports per request — waiting-time
percentiles, SLO attainment, completion counts — is a reduction over
all requests of a run.  :class:`RequestTable` holds exactly the fields
those reductions read, one row per request in the order the collector
recorded them (arrival order for a single cluster, site order for a
federation merge), so :func:`~repro.metrics.slo.slo_report` and
:func:`~repro.metrics.percentiles.summarize_waiting_times` are a few
masked array operations instead of a Python loop over
:class:`~repro.sim.request.Request` objects.

The columnar kernel exports its columns straight into a table
(:meth:`repro.sim.columnar.ColumnarKernel.run`); anything that only has
objects converts them once with :meth:`RequestTable.from_requests`.
Apart from :mod:`repro.sim.request` (for the status enum) the module
imports nothing but numpy.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Union

import numpy as np

from repro.sim.request import Request, RequestStatus

#: ``status`` column codes: the position of each
#: :class:`~repro.sim.request.RequestStatus` in definition order.
PENDING, QUEUED, RUNNING, COMPLETED, DROPPED, TIMED_OUT = range(6)
_STATUS_CODE = {status: code for code, status in enumerate(RequestStatus)}


def code_dtype(count: int) -> np.dtype:
    """The narrowest unsigned dtype that can hold ``count`` distinct codes."""
    return np.min_scalar_type(max(count - 1, 0))


class RequestTable:
    """Parallel per-request columns, one row per recorded request.

    Attributes
    ----------
    names:
        Function names; ``codes[i]`` indexes into it.
    codes:
        Function code per row (the narrowest unsigned dtype that fits).
    arrival, start, completion:
        ``arrival_time`` / ``start_time`` / ``completion_time`` as
        float64, NaN where the request never got that far (``None`` on
        the object).
    status:
        Status code per row (uint8, see the module constants).
    """

    __slots__ = ("names", "code_of", "codes", "arrival", "start", "completion", "status")

    def __init__(self, names: Sequence[str], codes: np.ndarray, arrival: np.ndarray,
                 start: np.ndarray, completion: np.ndarray, status: np.ndarray) -> None:
        """Adopt the given columns (no copies)."""
        self.names = tuple(names)
        self.code_of: Dict[str, int] = {name: code for code, name in enumerate(self.names)}
        self.codes = codes
        self.arrival = arrival
        self.start = start
        self.completion = completion
        self.status = status

    def __len__(self) -> int:
        """Number of requests (rows)."""
        return len(self.status)

    def rows_of(self, function_name: Optional[str]) -> np.ndarray:
        """Boolean row mask of one function's requests: all rows for ``None``, none for an unknown name."""
        if function_name is None:
            return np.ones(len(self), dtype=bool)
        code = self.code_of.get(function_name)
        if code is None:
            return np.zeros(len(self), dtype=bool)
        return self.codes == code

    @classmethod
    def from_requests(cls, requests: Union["RequestTable", Iterable[Request]]) -> "RequestTable":
        """Read the columns off request objects in one pass per column.

        A table passes through unchanged, so analysis functions accept
        either; any other iterable (single-pass ones included) is read
        in iteration order.  The columns are filled straight from
        generators — no boxed intermediate list is ever built.
        """
        if isinstance(requests, RequestTable):
            return requests
        if not isinstance(requests, (list, tuple)):
            requests = list(requests)
        n = len(requests)
        nan = np.nan
        completed = RequestStatus.COMPLETED
        code_of: Dict[str, int] = {}
        codes = np.fromiter(
            (code_of.setdefault(r.function_name, len(code_of)) for r in requests), np.intp, n)
        return cls(
            list(code_of),
            codes.astype(code_dtype(len(code_of))),
            np.fromiter((r.arrival_time for r in requests), np.float64, n),
            np.fromiter((nan if r.start_time is None else r.start_time for r in requests),
                        np.float64, n),
            np.fromiter((nan if r.completion_time is None else r.completion_time
                         for r in requests), np.float64, n),
            # almost every request of a finished run is COMPLETED, and an
            # identity test is much cheaper than hashing an enum member
            np.fromiter((COMPLETED if r.status is completed else _STATUS_CODE[r.status]
                         for r in requests), np.uint8, n),
        )


__all__ = ["RequestTable", "code_dtype", "PENDING", "QUEUED", "RUNNING", "COMPLETED",
           "DROPPED", "TIMED_OUT"]
