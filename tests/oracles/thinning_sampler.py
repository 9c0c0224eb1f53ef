"""``_ThinningSampler`` as of commit e1dd094 (before PR 23), consumed by ``tests/test_arrival_sampler.py``.

Every window takes ``log1p`` / ``cumsum`` / ``searchsorted`` / ``rate_many``
over the whole rest of its chunk.  The body below is verbatim but for the
class name.
"""

from typing import List, Optional

import numpy as np

from repro.workloads.schedules import RateSchedule


class FrozenThinningSampler:
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
