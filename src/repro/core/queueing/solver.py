"""Memoized, warm-started M/M/c model solver — the control-plane fast path.

Every epoch the controller re-derives an Algorithm 1 sizing decision
per function, and in sweeps the same ``(λ, μ, c, t)`` solves repeat
thousands of times across epochs, functions and shards.  The paper
itself treats solver speed as first-class (the Julia-vs-Scala
comparison of Algorithm 1, Figure 5), so this subsystem owns all
wait-probability and sizing computations:

1. the process-wide, grow-only log-factorial table of
   :mod:`repro.core.queueing.logspace`, so log-space probes index
   ``log(k!)`` instead of recomputing it;
2. a candidate-vectorised :func:`wait_probabilities` that evaluates the
   paper's bound for many ``c`` values in one numpy pass over a shared
   triangular term matrix — the log-space kernel for wide queries;
3. a closed form for fleets of at most :data:`_SMALL_FLEET` containers
   (:func:`_small_bound` for the homogeneous chain,
   :func:`_small_fleet_bound` for a deflated fleet): the chain's head
   summed in Python floats, the geometric tail closed with one ``**``;
4. an exact-key LRU memo over ``(λ, μ, t, percentile)`` solves and
   ``(λ, μ, c, t)`` probability evaluations;
5. per-key (per-function) warm starts: control loops drift slowly, so a
   search starts from the key's previous answer;
6. the epoch entry points :meth:`SizingSolver.solve_batch` and
   :meth:`SizingSolver.solve_heterogeneous_batch`, which solve their
   queries one after another: memo, then anchor, then a one-count walk
   through the closed form; a walk past ``_SMALL_FLEET`` containers, or
   an anchor above it, goes to the log-space kernels and the stateless
   ladder and bisection.

Every sizing entry point runs :func:`validate_sizing` before it probes
or touches a memo: bad input is a ``ValueError`` that changes nothing.

Exactness
---------
Container counts are exact given one structural fact the rest of the
codebase already relies on (``tests/test_queueing_mmc.py`` checks it):
the paper's bound ``P(Q ≤ t) = Σ_{n≤L(c)} P_n(c)`` is non-decreasing in
``c`` — more containers both shift the queue-length distribution toward
emptier states and raise the cutoff ``L(c) = ⌊t·c·μ + c − 1⌋``.
Algorithm 1 returns the *smallest* ``c`` above a lower bound with
``P(Q ≤ t) ≥ percentile``; monotonicity makes that a threshold search,
so:

* the walk accepts ``c`` only once ``c − 1`` is known to miss (or ``c``
  is the stability minimum), and every other probe outcome narrows to
  an exact bracket;
* memoization — results are pure functions of the exact key, so a
  cache hit returns what a cold solve would;
* the constrained answer for a lower bound ``b`` is
  ``max(b, c*)`` where ``c*`` is the unconstrained minimum, which is
  what lets one memo entry serve every ``current_containers`` value.

The closed form and the log-space bodies round differently: the
solver's ``achieved_probability`` for a small fleet is within 1e-14 of
what the reference (:class:`~repro.core.queueing.mmc.MMcQueue`,
:func:`~repro.core.queueing.heterogeneous.wait_bounds`) reports — more
for long cutoffs and large log weights, where the log-space body's own
rounding grows — and the ``≥ percentile`` verdicts agree
(``tests/test_solver.py`` ``TestClosedForm``).  Nothing serialises the solver's probability;
the reference paths, whose probability ``scenarios/runner.py`` does
serialise, keep their log-space bodies.  A solver value is a pure
function of its own query: no query is evaluated beside another.

With caches on or off, warm or cold, the solver returns the same
containers as the reference
:func:`repro.core.queueing.sizing.required_containers`
(``tests/test_solver.py`` sweeps the equivalence grid).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import (Callable, Dict, Hashable, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.core.queueing.heterogeneous import wait_bounds
from repro.core.queueing.logspace import log_factorials


# ----------------------------------------------------------------------
# Candidate-vectorised wait-probability kernel
# ----------------------------------------------------------------------
#: cap on rows × columns of one triangular term matrix; larger requests
#: are evaluated in row chunks to bound peak memory (~8 bytes per cell
#: per temporary).
_MAX_CELLS = 4_000_000


def wait_probabilities(lam, mu, cs, t) -> np.ndarray:
    """The paper's bound ``P(Q ≤ t)`` for whole arrays of parameters.

    ``lam``, ``mu``, ``cs`` and ``t`` broadcast against each other, so
    one call can evaluate many candidate ``c`` values for one queue
    (the sizing search), or many independent ``(λ, μ, c, t)`` queries
    at once (the epoch-batched control plane).  The computation builds
    a single triangular matrix of log-space state terms and reduces it
    with row-wise ``logsumexp`` — no Python-level loop over candidates.

    Unstable rows (``ρ ≥ 1``) and negative budgets yield 0; rows whose
    ``λ/μ`` is 0 (``λ = 0``, or a positive ``λ`` whose ratio underflows)
    yield 1 (an empty system never waits).
    """
    cs_arr = np.asarray(cs)
    if not np.issubdtype(cs_arr.dtype, np.integer):
        cs_arr = cs_arr.astype(np.int64)
    lam_b, mu_b, c_b, t_b = np.broadcast_arrays(
        np.asarray(lam, dtype=float),
        np.asarray(mu, dtype=float),
        cs_arr,
        np.asarray(t, dtype=float),
    )
    if (c_b < 1).any():
        raise ValueError("number of servers must be >= 1")
    if (lam_b < 0).any():
        raise ValueError("arrival rate must be non-negative")
    if (mu_b <= 0).any():
        raise ValueError("service rate must be positive")

    lams = np.ascontiguousarray(lam_b, dtype=float).ravel()
    mus = np.ascontiguousarray(mu_b, dtype=float).ravel()
    ns = np.ascontiguousarray(c_b, dtype=np.int64).ravel()
    ts = np.ascontiguousarray(t_b, dtype=float).ravel()

    r = lams / mus
    out = np.zeros(lams.shape, dtype=float)
    out[(r == 0.0) & (ts >= 0.0)] = 1.0
    with np.errstate(invalid="ignore"):
        rho = r / ns
    L = np.floor(ts * ns * mus + ns - 1 + 1e-12).astype(np.int64)
    active = (r > 0.0) & (rho < 1.0) & (ts >= 0.0) & (L >= 0)
    if active.any():
        idx = np.nonzero(active)[0]
        cols = int(max(L[idx].max(), ns[idx].max()) + 1)
        rows_per_chunk = max(1, _MAX_CELLS // cols)
        for start in range(0, idx.size, rows_per_chunk):
            sub = idx[start:start + rows_per_chunk]
            out[sub] = _bound_kernel(r[sub], rho[sub], ns[sub], L[sub])
    return out.reshape(c_b.shape)


def _bound_kernel(r: np.ndarray, rho: np.ndarray, cs: np.ndarray,
                  L: np.ndarray) -> np.ndarray:
    """One triangular-matrix pass over stable rows (``ρ < 1``, ``L ≥ 0``).

    Rows are queries, columns are system states ``n``; the numerator
    masks states above each row's ``L`` and the normalising constant
    reuses the head terms (``n < c``) plus the closed-form geometric
    tail, exactly as the scalar :mod:`repro.core.queueing.mmc` path.

    A row's result depends in its last bits on its batch-mates: every
    row is padded to the widest row's columns, and ``sum(axis=1)`` groups
    its pairwise additions by that width, so ``log_num`` / ``log_head``
    can land an ulp away from what the row gives alone (after ``+ peak``,
    an ulp of a number that grows like ``c``: ≤ 7e-15 on the result for
    ``c ≤ 64``, 2e-13 at ``c ≈ 2000``).  The solver only ever batches the
    candidates of one query, so its values do not depend on other
    queries; a caller of :func:`wait_probabilities` that mixes queries
    still sees the gap.  ``tests/test_solver.py::TestBatchMates`` pins
    what holds (the gap, and an unchanged ``≥ percentile`` verdict); a
    width-independent reduction would move envelope digests.
    """
    cols = int(max(L.max(), cs.max()) + 1)
    table = log_factorials(cols - 1)

    n = np.arange(cols)                       # (cols,)
    log_r = np.log(r)[:, None]                # (rows, 1)
    c_col = cs[:, None]                       # (rows, 1)
    log_terms = n * log_r - table[np.minimum(n, c_col)]
    over = np.clip(n - c_col, 0, None)
    log_terms -= over * np.log(cs.astype(float))[:, None]
    log_terms[n > L[:, None]] = -np.inf       # states an arrival cannot see

    # One shifted exp pass serves both reductions: the head region
    # (n < c) is always inside the numerator region (L ≥ c − 1), and the
    # row peak sits at the distribution mode ⌊r⌋ < c, so the head sum
    # can never underflow to zero.  Hand-rolled logsumexp: a library
    # one carries heavy per-call dispatch overhead on this innermost path.
    peak = np.max(log_terms, axis=1)
    shifted = np.exp(log_terms - peak[:, None])
    log_num = np.log(shifted.sum(axis=1)) + peak
    log_head = np.log(np.where(n < c_col, shifted, 0.0).sum(axis=1)) + peak

    log_tail = cs * np.log(r) - table[cs] - np.log(1.0 - rho)
    log_norm = np.logaddexp(log_head, log_tail)
    return np.minimum(1.0, np.exp(log_num - log_norm))


# ----------------------------------------------------------------------
# Closed form for small fleets
# ----------------------------------------------------------------------
#: the widest fleet the closed form serves; it bounds the per-probe loop
#: (every head weight is at most ``e^32``, so nothing overflows for the
#: homogeneous chain)
_SMALL_FLEET = 32


def _closed_tail(head: float, w_c: float, ratio: float, excess: int) -> Optional[float]:
    """``Σ_{n≤L} P_n`` of a chain with a geometric tail, or ``None`` if a sum is not finite.

    ``head`` is ``Σ_{n<c} w_n``, ``w_c`` the weight at ``c``, ``ratio``
    the tail's ``ρ`` and ``excess = L − c + 1 ≥ 0``.  The states above
    ``L`` weigh ``w_c ρ^{L−c+1} / (1 − ρ)`` and all states
    ``head + w_c / (1 − ρ)``; the bound is one minus their quotient.
    """
    tail = w_c / (1.0 - ratio)
    norm = head + tail
    if not norm < math.inf:                 # overflowed, or inf − inf
        return None
    return 1.0 - tail * ratio ** excess / norm


def _small_bound(lam: float, mu: float, c: int, t: float) -> float:
    """The bound ``P(Q ≤ t)`` of an M/M/c queue, head summed in Python floats.

    For ``c ≤ _SMALL_FLEET``; agrees with :func:`wait_probabilities` to
    the tolerance of ``tests/test_solver.py::TestClosedForm``.  Unstable
    queues read 0.
    """
    r = lam / mu
    rho = r / c
    if not rho < 1.0:
        return 0.0
    cutoff = math.floor(t * c * mu + c - 1 + 1e-12)
    head, w = 0.0, 1.0
    for n in range(1, c + 1):
        head += w
        w = w * r / n
    prob = _closed_tail(head, w, rho, cutoff - c + 1)
    return prob if prob is not None else float(wait_probabilities(lam, mu, np.array([c]), t)[0])


def _small_fleet_bound(lam: float, rates: Sequence[float], t: float) -> float:
    """The Alves et al. bound of a fleet with ascending ``rates``, head summed in Python floats.

    For fleets of at most ``_SMALL_FLEET``; agrees with :func:`wait_bounds`
    to the tolerance of ``TestClosedForm``, and hands it the probe when
    tiny rates overflow the head (two rates of 1e-300 and a unit ``λ``
    do).  A fleet whose capacity does not exceed ``λ`` reads 0.
    """
    aggregate = float(sum(rates))
    if not lam < aggregate:
        return 0.0
    c = len(rates)
    cutoff = math.floor(t * aggregate + c - 1 + 1e-12)
    head, w, capacity = 0.0, 1.0, 0.0
    for rate in rates:
        head += w
        capacity += rate
        w = w * lam / capacity
    prob = _closed_tail(head, w, lam / aggregate, cutoff - c + 1)
    return prob if prob is not None else wait_bounds(((lam, rates, t),))[0]


def _walk(probe: Callable[[int], float], target: float, lo: int, start: int,
          top: int) -> Tuple[int, float, int]:
    """Walk one count at a time from ``start`` to the smallest ``k ≥ lo`` with ``probe(k) ≥ target``.

    ``probe`` is non-decreasing, so ``k`` is accepted only once ``k − 1``
    is known to miss (or ``k = lo``).  Returns ``(k, P(k), probes)``; a
    ``P(k)`` below ``target`` means every count from ``start`` to
    ``k = top`` missed.
    """
    k, prob, probes = start, probe(start), 1
    if prob >= target:
        while k > lo:
            below = probe(k - 1)
            probes += 1
            if below < target:
                break
            k, prob = k - 1, below
        return k, prob, probes
    while k < top:
        k += 1
        prob = probe(k)
        probes += 1
        if prob >= target:
            break
    return k, prob, probes


# ----------------------------------------------------------------------
# Threshold searches (all exact under monotonicity in c)
# ----------------------------------------------------------------------
#: bracket width below which the remaining candidates are evaluated in
#: one batched kernel call instead of bisected one probe at a time
_BATCH_BRACKET = 48
#: rungs evaluated per kernel call during the exponential bracket phase
_LADDER_GROUP = 8


def _unsatisfiable(lam: float, mu: float, t: float, target: float,
                   max_containers: int) -> ValueError:
    """The error every search path raises past ``max_containers`` (one wording)."""
    return ValueError(
        f"could not satisfy SLO with up to {max_containers} containers "
        f"(lam={lam}, mu={mu}, t={t}, p={target})"
    )


def _first_satisfying(lam: float, mu: float, t: float, target: float,
                      lo: int, hi: int, hi_prob: float) -> Tuple[int, float, int]:
    """Smallest ``c`` in ``[lo, hi]`` with ``P(c) ≥ target``; ``P(hi)`` is known to satisfy.

    Bisects with single-candidate kernel calls while the bracket is
    wide, then sweeps the final narrow bracket in one batched call.
    Returns ``(c, P(c), evaluations)``.
    """
    evals = 0
    while hi - lo > _BATCH_BRACKET:
        mid = (lo + hi) // 2
        prob = float(wait_probabilities(lam, mu, np.array([mid]), t)[0])
        evals += 1
        if prob >= target:
            hi, hi_prob = mid, prob
        else:
            lo = mid + 1
    if hi > lo:
        candidates = np.arange(lo, hi)
        probs = wait_probabilities(lam, mu, candidates, t)
        evals += candidates.size
        satisfied = np.nonzero(probs >= target)[0]
        if satisfied.size:
            first = int(satisfied[0])
            return int(candidates[first]), float(probs[first]), evals
    return hi, hi_prob, evals


def smallest_satisfying(lam: float, mu: float, t: float, target: float,
                         lo: int, max_containers: int) -> Tuple[int, float, int]:
    """Smallest ``c ≥ lo`` with ``P(Q ≤ t) ≥ target`` via ladder + bisection.

    The exponential ladder ``lo, lo+1, lo+3, lo+7, …`` is evaluated in
    vectorised groups of :data:`_LADDER_GROUP` rungs, so bracketing a
    count of thousands costs a handful of kernel calls rather than one
    per rung.  Raises :class:`ValueError` when no ``c`` up to
    ``max_containers`` satisfies the target (mirroring the reference).
    """
    if lo > max_containers:
        raise _unsatisfiable(lam, mu, t, target, max_containers)
    evals = 0
    k = 0
    last_unsatisfied = lo - 1
    while True:
        group: List[int] = []
        while len(group) < _LADDER_GROUP:
            rung = lo + (1 << k) - 1
            k += 1
            if rung >= max_containers:
                group.append(max_containers)
                break
            group.append(rung)
        group = [c for c in group if c > last_unsatisfied]
        if not group:
            raise _unsatisfiable(lam, mu, t, target, max_containers)
        probs = wait_probabilities(lam, mu, np.array(group), t)
        evals += len(group)
        satisfied = np.nonzero(probs >= target)[0]
        if satisfied.size:
            i = int(satisfied[0])
            bracket_lo = (group[i - 1] if i > 0 else last_unsatisfied) + 1
            c, prob, extra = _first_satisfying(
                lam, mu, t, target, bracket_lo, group[i], float(probs[i])
            )
            return c, prob, evals + extra
        last_unsatisfied = group[-1]
        if last_unsatisfied >= max_containers:
            raise _unsatisfiable(lam, mu, t, target, max_containers)


# ----------------------------------------------------------------------
# Results and queries
# ----------------------------------------------------------------------
class SizingResult(NamedTuple):
    """Outcome of a sizing computation (a row: one per function-epoch).

    Attributes
    ----------
    containers:
        The recommended number of containers ``c``.
    achieved_probability:
        The waiting-time bound ``P(Q <= t)`` at the recommendation.
    wait_budget:
        The waiting-time budget ``t`` that was targeted.
    iterations:
        How many candidate values of ``c`` were evaluated (0 on a full
        cache hit).
    """

    containers: int
    achieved_probability: float
    wait_budget: float
    iterations: int


def validate_sizing(lam: float, mu: float, wait_budget: float, percentile: float,
                    rates: Sequence[float] = ()) -> None:
    """Raise ``ValueError`` unless ``λ ≥ 0``, ``μ`` and every rate ``> 0``, ``t ≥ 0``
    (all finite; NaN fails every comparison) and the percentile is in ``(0, 1)``."""
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"arrival rate must be finite and non-negative, got {lam}")
    if not 0.0 < mu < math.inf:
        raise ValueError(f"service rate must be finite and positive, got {mu}")
    if not 0.0 <= wait_budget < math.inf:
        raise ValueError(f"wait budget must be finite and non-negative, got {wait_budget}")
    if not 0.0 < percentile < 1.0:
        raise ValueError(f"percentile must be in (0, 1), got {percentile}")
    for rate in rates:
        if not 0.0 < rate < math.inf:
            raise ValueError(f"existing service rates must be finite and positive, got {rate}")


class SizingQuery(NamedTuple):
    """One function's sizing inputs for the epoch-batched entry point.

    A row rather than a frozen dataclass: an epoch builds one per function
    and a tuple costs no per-field ``object.__setattr__``.  ``key``
    identifies the warm-start slot (the controller uses the function
    name); ``None`` disables warm starts for this query.
    """

    lam: float
    mu: float
    wait_budget: float
    percentile: float = 0.95
    current_containers: int = 0
    max_containers: int = 100_000
    key: Optional[Hashable] = None


class HeterogeneousQuery(NamedTuple):
    """One deflated fleet's inputs for :meth:`SizingSolver.solve_heterogeneous_batch`.

    ``existing_mus`` are the fleet's per-container rates (any order),
    ``standard_mu`` the rate of a container added at full size.  ``key``
    names the warm-start slot; ``None`` disables warm starts.
    """

    lam: float
    existing_mus: Sequence[float]
    standard_mu: float
    wait_budget: float
    percentile: float = 0.95
    max_additional: int = 100_000
    key: Optional[Hashable] = None


def _fleet_bounds(probes: Sequence[Tuple[HeterogeneousQuery, int]]) -> List[float]:
    """The bound of each ``(query, added)``: its fleet plus ``added`` standard containers.

    One :func:`wait_bounds` call for all of them.  A fleet whose rates,
    summed fleet first, do not exceed ``λ`` is passed empty and reads 0.
    """
    fleets = [(q, list(q.existing_mus) + [q.standard_mu] * added) for q, added in probes]
    return wait_bounds([(q.lam, tuple(sorted(mus)) if sum(mus) > q.lam else (), q.wait_budget)
                        for q, mus in fleets])


#: the error every heterogeneous search raises past ``max_additional``
_NO_ROOM = "could not satisfy SLO within max_additional containers"


# ----------------------------------------------------------------------
# Global cache kill switch (tests / ablations)
# ----------------------------------------------------------------------
_CACHES_DISABLED = False


@contextmanager
def caches_disabled() -> Iterator[None]:
    """Force every :class:`SizingSolver` in the process to solve cold.

    Inside the context no solver reads or writes its memo, probability
    cache, or warm-start state.  Used by the determinism guard tests to
    show cached and cold runs produce byte-identical results.
    """
    global _CACHES_DISABLED
    previous = _CACHES_DISABLED
    _CACHES_DISABLED = True
    try:
        yield
    finally:
        _CACHES_DISABLED = previous


# ----------------------------------------------------------------------
# The solver
# ----------------------------------------------------------------------
@dataclass
class SolverStats:
    """Counters describing how much work the solver avoided."""

    solves: int = 0
    cache_hits: int = 0
    warm_hits: int = 0
    warm_fallbacks: int = 0
    full_searches: int = 0
    probability_evaluations: int = 0
    batches: int = 0


class _LruCache:
    """A small exact-key LRU map (insertion-ordered dict + move-to-end)."""

    def __init__(self, maxsize: int) -> None:
        """Create a cache holding at most ``maxsize`` entries (0 disables)."""
        self.maxsize = int(maxsize)
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()

    def get(self, key: Hashable):
        """Return the cached value or ``None``, refreshing recency."""
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value) -> None:
        """Insert ``key``, evicting the least recently used entry if full."""
        if self.maxsize <= 0:
            return
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if len(data) > self.maxsize:
            data.popitem(last=False)

    def __len__(self) -> int:
        """Number of live entries."""
        return len(self._data)

    def clear(self) -> None:
        """Drop every entry."""
        self._data.clear()


class SizingSolver:
    """Memoized, warm-started Algorithm 1 solver.

    Parameters
    ----------
    cache_size:
        Maximum entries in the exact-key solve / probability memos
        (0 disables memoization entirely).
    warm_start:
        Whether to start each search from the previous answer of the
        same ``key`` instead of the stability minimum.

    Container counts equal the reference
    :func:`repro.core.queueing.sizing.required_containers` — caching and
    warm starts change only the work performed, never the answer (see
    the module docstring for the exactness argument).
    """

    def __init__(self, cache_size: int = 65_536, warm_start: bool = True) -> None:
        """Configure memo capacity and the warm-start shortcut."""
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        self.cache_size = int(cache_size)
        self.warm_start = bool(warm_start)
        self._solutions = _LruCache(cache_size)
        self._probabilities = _LruCache(cache_size)
        self._heterogeneous = _LruCache(cache_size)
        self._warm: Dict[Hashable, int] = {}
        self._warm_heterogeneous: Dict[Hashable, int] = {}
        self.stats = SolverStats()

    # -- cache plumbing -------------------------------------------------
    @property
    def _caching(self) -> bool:
        """Whether memo reads/writes are live right now."""
        return self.cache_size > 0 and not _CACHES_DISABLED

    @property
    def _warming(self) -> bool:
        """Whether warm-start reads/writes are live right now."""
        return self.warm_start and not _CACHES_DISABLED

    def clear(self) -> None:
        """Drop all memoized solves, probabilities, and warm-start state."""
        self._solutions.clear()
        self._probabilities.clear()
        self._heterogeneous.clear()
        self._warm.clear()
        self._warm_heterogeneous.clear()

    def _probability(self, lam: float, mu: float, c: int, t: float) -> float:
        """Memoized single-point bound ``P(Q ≤ t)``, in closed form up to :data:`_SMALL_FLEET`."""
        key = (lam, mu, c, t)
        if self._caching:
            hit = self._probabilities.get(key)
            if hit is not None:
                return hit  # type: ignore[return-value]
        prob = (_small_bound(lam, mu, c, t) if c <= _SMALL_FLEET
                else float(wait_probabilities(lam, mu, np.array([c]), t)[0]))
        self.stats.probability_evaluations += 1
        if self._caching:
            self._probabilities.put(key, prob)
        return prob

    def _search(self, previous: Optional[int], lo: int, hi: int, small: int, target: float,
                close: Callable[[int], float], wide: Callable[[List[int]], List[float]],
                down: Callable[[int, int, float], Tuple[int, float, int]],
                up: Callable[[int], Tuple[int, float, int]]) -> Tuple[int, float, int]:
        """Smallest count ``k`` in ``[lo, hi]`` with ``P(k) ≥ target``: ``(k, P(k), probes)``.

        The search starts at ``previous`` (clamped into ``[lo, hi]``) or,
        cold, at ``lo``.  Up to ``small`` it walks one count at a time
        through the closed form ``close(k)`` (:func:`_walk`); a walk that
        misses every count up to ``small`` hands over to ``up(k)``, the
        stateless search above ``k − 1``.  A start above ``small`` probes
        ``{k−1, k, k+1}`` in one log-space call ``wide(ks)`` and finishes
        with ``down(lo, hi, P(hi))`` (``hi`` known to satisfy) or ``up``.
        A warm start is a hit when it settles on those three counts, a
        fallback otherwise.
        """
        if lo > hi:
            return up(lo)                       # raises: no count is allowed
        if previous is None:
            self.stats.full_searches += 1
            start = lo
        else:
            start = min(max(previous, lo), hi)
        if start <= small:
            k, prob, probes = _walk(close, target, lo, start, min(small, hi))
            near = probes <= 2
            if prob < target:                   # every count up to k missed
                k, prob, extra = up(k + 1)
                probes, near = probes + extra, False
        else:
            ks = [k for k in (start - 1, start, start + 1) if lo <= k <= hi]
            value = dict(zip(ks, wide(ks)))
            k, prob, probes, near = start, value[start], len(ks), True
            if prob >= target:
                if start > lo and value[start - 1] >= target:
                    k, prob, extra = down(lo, start - 1, value[start - 1])
                    probes, near = probes + extra, extra == 0
            elif value.get(start + 1, -1.0) >= target:
                k, prob = start + 1, value[start + 1]
            else:
                k, prob, extra = up(start + 2)
                probes, near = probes + extra, False
        if previous is not None:
            if near:
                self.stats.warm_hits += 1
            else:
                self.stats.warm_fallbacks += 1
        self.stats.probability_evaluations += probes
        return k, prob, probes

    # -- homogeneous solves ---------------------------------------------
    def solve(
        self,
        lam: float,
        mu: float,
        wait_budget: float,
        percentile: float = 0.95,
        current_containers: int = 0,
        max_containers: int = 100_000,
        key: Optional[Hashable] = None,
    ) -> SizingResult:
        """Algorithm 1 for one function: smallest ``c`` meeting the SLO.

        Identical in contract (and count) to
        :func:`repro.core.queueing.sizing.required_containers`; ``key``
        selects the warm-start slot.
        """
        query = SizingQuery(
            lam=float(lam), mu=float(mu), wait_budget=float(wait_budget),
            percentile=float(percentile), current_containers=int(current_containers),
            max_containers=int(max_containers), key=key,
        )
        return self.solve_batch((query,))[0]

    def solve_batch(self, queries: Sequence[SizingQuery]) -> List[SizingResult]:
        """Size every query, one after another; results align with ``queries``.

        Each query reads the memo, then its warm anchor, then searches
        (:meth:`_search`), so a result is a pure function of its own
        query and the solver state the queries before it left.  Every
        query is validated before any is solved.
        """
        for q in queries:
            validate_sizing(q.lam, q.mu, q.wait_budget, q.percentile)
        self.stats.batches += 1
        return [self._solve_homogeneous(q) for q in queries]

    def _solve_homogeneous(self, q: SizingQuery) -> SizingResult:
        """One validated query: memo, warm anchor, search, then the lower bound."""
        self.stats.solves += 1
        lam, mu, t, target = q.lam, q.mu, q.wait_budget, q.percentile
        if lam == 0:
            return SizingResult(0, 1.0, t, 0)
        min_c = int(math.floor(lam / mu)) + 1
        lower = max(1, int(q.current_containers), min_c)
        solve_key = (lam, mu, t, target)
        caching, warm_key = self._caching, q.key if self._warming else None
        hit = self._solutions.get(solve_key) if caching else None
        if hit is not None:
            self.stats.cache_hits += 1
            c_star, p_star = hit  # type: ignore[misc]
            evals = 0
        else:
            c_star, p_star, evals = self._search(
                self._warm.get(warm_key) if warm_key is not None else None,
                min_c, q.max_containers, _SMALL_FLEET, target,
                lambda c: _small_bound(lam, mu, c, t),
                lambda cs: wait_probabilities(lam, mu, np.array(cs), t).tolist(),
                partial(_first_satisfying, lam, mu, t, target),
                lambda lo: smallest_satisfying(lam, mu, t, target, lo, q.max_containers),
            )
            if caching:
                self._solutions.put(solve_key, (c_star, p_star))
        if warm_key is not None:
            self._warm[warm_key] = c_star
        if max(lower, c_star) > q.max_containers:
            raise _unsatisfiable(lam, mu, t, target, q.max_containers)
        if lower <= c_star:
            return SizingResult(c_star, p_star, t, evals)
        # P(Q ≤ t) is non-decreasing in c: the smallest count ≥ lower is max(lower, c*)
        return SizingResult(lower, self._probability(lam, mu, lower, t), t, evals + 1)

    # -- heterogeneous solves -------------------------------------------
    def solve_heterogeneous(self, lam: float, existing_mus: Sequence[float],
                            standard_mu: float, wait_budget: float, percentile: float = 0.95,
                            max_additional: int = 100_000,
                            key: Optional[Hashable] = None) -> SizingResult:
        """Additional-standard-container sizing over a deflated fleet.

        The memoized, warm-started counterpart of
        :func:`repro.core.queueing.sizing.required_containers_heterogeneous`
        (identical counts); a batch of one.
        """
        return self.solve_heterogeneous_batch((HeterogeneousQuery(
            lam, existing_mus, standard_mu, wait_budget, percentile, max_additional, key),))[0]

    def solve_heterogeneous_batch(
        self, queries: Sequence[HeterogeneousQuery]
    ) -> List[SizingResult]:
        """Size every deflated fleet of an epoch, one after another; results align with ``queries``.

        Each query reads the memo, then its warm anchor (added containers),
        then searches (:meth:`_search`) with the closed form
        :func:`_small_fleet_bound` while the fleet has at most
        :data:`_SMALL_FLEET` containers and :func:`wait_bounds` past it.
        Every query is validated before any is solved.
        """
        rows = []
        for q in queries:
            existing = tuple(sorted(float(m) for m in q.existing_mus))
            validate_sizing(q.lam, q.standard_mu, q.wait_budget, q.percentile, existing)
            rows.append(HeterogeneousQuery(float(q.lam), existing, float(q.standard_mu),
                                           float(q.wait_budget), float(q.percentile),
                                           q.max_additional, q.key))
        return [self._solve_fleet(q) for q in rows]

    def _solve_fleet(self, q: HeterogeneousQuery) -> SizingResult:
        """One validated fleet (rates ascending): memo, warm anchor, then the search."""
        self.stats.solves += 1
        lam, existing, standard, t = q.lam, q.existing_mus, q.standard_mu, q.wait_budget
        if lam == 0:
            return SizingResult(len(existing), 1.0, t, 0)
        solve_key = q[:5]
        caching, warm_key = self._caching, q.key if self._warming else None
        hit = self._heterogeneous.get(solve_key) if caching else None
        if hit is not None:
            added, prob = hit  # type: ignore[misc]
            if added > q.max_additional:
                raise ValueError(_NO_ROOM)   # the cached optimum is minimal
            self.stats.cache_hits += 1
            evals = 0
        else:
            split = bisect_right(existing, standard)   # where added containers sort
            added, prob, evals = self._search(
                self._warm_heterogeneous.get(warm_key) if warm_key is not None else None,
                0, q.max_additional, _SMALL_FLEET - len(existing), q.percentile,
                lambda k: _small_fleet_bound(
                    lam, existing[:split] + (standard,) * k + existing[split:], t),
                lambda ks: _fleet_bounds([(q, k) for k in ks]),
                partial(self._bisect_heterogeneous, q),
                partial(self._ladder_heterogeneous, q),
            )
            if caching:
                self._heterogeneous.put(solve_key, (added, prob))
        if warm_key is not None:
            self._warm_heterogeneous[warm_key] = added
        return SizingResult(len(existing) + added, prob, t, evals)

    @staticmethod
    def _ladder_heterogeneous(q: HeterogeneousQuery, lo: int) -> Tuple[int, float, int]:
        """Exponential bracket + bisection over ``added ≥ lo``: ``(added, P, probes)``."""
        if lo > q.max_additional:
            raise ValueError(_NO_ROOM)
        last_unsatisfied, k = lo - 1, 0
        while True:
            capped = min(lo + (1 << k) - 1, q.max_additional)
            k += 1
            prob = _fleet_bounds(((q, capped),))[0]
            if prob >= q.percentile:
                added, prob, extra = SizingSolver._bisect_heterogeneous(
                    q, last_unsatisfied + 1, capped, prob)
                return added, prob, k + extra
            last_unsatisfied = capped
            if capped >= q.max_additional:
                raise ValueError(_NO_ROOM)

    @staticmethod
    def _bisect_heterogeneous(q: HeterogeneousQuery, lo: int, hi: int,
                              hi_prob: float) -> Tuple[int, float, int]:
        """Smallest ``added`` in ``[lo, hi]`` meeting the target (``hi`` known good)."""
        probes = 0
        while lo < hi:
            mid = (lo + hi) // 2
            prob = _fleet_bounds(((q, mid),))[0]
            probes += 1
            if prob >= q.percentile:
                hi, hi_prob = mid, prob
            else:
                lo = mid + 1
        return hi, hi_prob, probes


# ----------------------------------------------------------------------
# Process-wide default instance
# ----------------------------------------------------------------------
_DEFAULT_SOLVER: Optional[SizingSolver] = None


def default_solver() -> SizingSolver:
    """The shared process-wide :class:`SizingSolver` (lazily created).

    Exact-key memoization means sharing one instance across callers can
    never change results; components wanting isolated cache statistics
    or sizing (the controller, benchmarks) construct their own.
    """
    global _DEFAULT_SOLVER
    if _DEFAULT_SOLVER is None:
        _DEFAULT_SOLVER = SizingSolver()
    return _DEFAULT_SOLVER


__all__ = [
    "HeterogeneousQuery",
    "SizingResult",
    "SizingQuery",
    "SizingSolver",
    "SolverStats",
    "caches_disabled",
    "default_solver",
    "validate_sizing",
    "wait_probabilities",
]
