"""Memoized, batched M/M/c model solver — the control-plane fast path.

PR 1 made the simulation *data* plane fast; this module does the same
for the *control* plane.  Every epoch the controller re-derives an
Algorithm 1 sizing decision per function, and in sweeps the same
``(λ, μ, c, t)`` solves repeat thousands of times across epochs,
functions and shards.  The paper itself treats solver speed as
first-class (the Julia-vs-Scala comparison of Algorithm 1, Figure 5),
so this subsystem owns all wait-probability and sizing computations:

1. the process-wide, grow-only log-factorial table of
   :mod:`repro.core.queueing.logspace` (bit-equal to ``gammaln``, built
   without scipy), so probes index ``log(k!)`` instead of recomputing
   it over ``np.arange(c)`` from scratch;
2. a genuinely candidate-vectorised :func:`wait_probabilities` that
   evaluates the paper's bound for *all* candidate ``c`` values in one
   numpy pass over a shared triangular term matrix (no Python loop per
   candidate);
3. an exact-key LRU memo over ``(λ, μ, t, percentile)`` solves and
   ``(λ, μ, c, t)`` probability evaluations — safe because both are
   pure functions of their arguments, and exact float keys mean a hit
   can never change a result;
4. per-key (per-function) warm starts: control loops drift slowly, so
   the solver first checks ``{c*−1, c*, c*+1}`` from the previous
   epoch before falling back to a full search;
5. an epoch-batched entry point (:meth:`SizingSolver.solve_batch`)
   that sizes every registered function in one call, folding all
   warm-start probes into a single kernel invocation;
6. its twin for the epoch's deflated fleets
   (:meth:`SizingSolver.solve_heterogeneous_batch`), whose warm probes
   go to one :func:`repro.core.queueing.heterogeneous.wait_bounds` call.

Every sizing entry point runs :func:`validate_sizing` before it probes
or touches a memo: bad input is a ``ValueError`` that changes nothing.

Exactness
---------
All shortcuts are provably exact given one structural fact the rest of
the codebase already relies on (the binary search in the PR-0 fast
path assumed it, and ``tests/test_queueing_mmc.py`` checks it): the
paper's bound ``P(Q ≤ t) = Σ_{n≤L(c)} P_n(c)`` is non-decreasing in
``c`` — more containers both shift the queue-length distribution
toward emptier states and raise the cutoff ``L(c) = ⌊t·c·μ + c − 1⌋``.
Algorithm 1 returns the *smallest* ``c`` above a lower bound with
``P(Q ≤ t) ≥ percentile``; monotonicity makes that a threshold search,
so:

* warm start — if ``P(c_prev) ≥ p`` and ``P(c_prev − 1) < p`` then
  ``c_prev`` *is* the smallest satisfying count, no search needed;
  every other probe outcome narrows to an exact bracket;
* memoization — results are pure functions of the exact key, so a
  cache hit returns bit-identical output to a cold solve;
* the constrained answer for a lower bound ``b`` is
  ``max(b, c*)`` where ``c*`` is the unconstrained minimum, which is
  what lets one memo entry serve every ``current_containers`` value.

Determinism is therefore unaffected: with caches on or off, warm or
cold, the solver returns the same containers as the reference
:func:`repro.core.queueing.sizing.required_containers` and the naive
:func:`repro.core.queueing.sizing.required_containers_naive` oracles
(``tests/test_solver.py`` sweeps the equivalence grid).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

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

    Unstable rows (``ρ ≥ 1``) and negative budgets yield 0; ``λ = 0``
    rows yield 1 (an empty system never waits).
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

    out = np.zeros(lams.shape, dtype=float)
    out[(lams == 0.0) & (ts >= 0.0)] = 1.0

    r = lams / mus
    with np.errstate(invalid="ignore"):
        rho = r / ns
    L = np.floor(ts * ns * mus + ns - 1 + 1e-12).astype(np.int64)
    active = (lams > 0.0) & (rho < 1.0) & (ts >= 0.0) & (L >= 0)
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
    ``c ≤ 64``, 2e-13 at ``c ≈ 2000``).  ``solve_batch`` batches every
    function of an epoch.  ``tests/test_solver.py::TestBatchMates`` pins
    what holds (the gap, and an unchanged ``≥ percentile`` verdict); a
    width-independent reduction would move envelope digests and is left
    to the sizing collapse (ROADMAP (ii)).
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
    # can never underflow to zero.  Hand-rolled logsumexp: scipy's
    # carries heavy per-call dispatch overhead on this innermost path.
    peak = np.max(log_terms, axis=1)
    shifted = np.exp(log_terms - peak[:, None])
    log_num = np.log(shifted.sum(axis=1)) + peak
    log_head = np.log(np.where(n < c_col, shifted, 0.0).sum(axis=1)) + peak

    log_tail = cs * np.log(r) - table[cs] - np.log(1.0 - rho)
    log_norm = np.logaddexp(log_head, log_tail)
    return np.minimum(1.0, np.exp(log_num - log_norm))


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
    """Memoized, warm-started, batched Algorithm 1 solver.

    Parameters
    ----------
    cache_size:
        Maximum entries in the exact-key solve / probability memos
        (0 disables memoization entirely).
    warm_start:
        Whether to try ``{c*−1, c*, c*+1}`` from the previous solve of
        the same ``key`` before falling back to a full search.

    All results are bit-identical to the reference
    :func:`repro.core.queueing.sizing.required_containers` — caching
    and warm starts change only the work performed, never the answer
    (see the module docstring for the exactness argument).
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
        """Memoized single-point bound evaluation ``P(Q ≤ t)``."""
        key = (lam, mu, c, t)
        if self._caching:
            hit = self._probabilities.get(key)
            if hit is not None:
                return hit  # type: ignore[return-value]
        prob = float(wait_probabilities(lam, mu, np.array([c]), t)[0])
        self.stats.probability_evaluations += 1
        if self._caching:
            self._probabilities.put(key, prob)
        return prob

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

        Identical in contract (and answer) to
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
        """Size every query in one call, batching warm-start probes.

        Cache hits and ``λ = 0`` queries resolve immediately; all
        remaining warm-startable queries contribute their three probe
        candidates to a *single* kernel invocation; only queries whose
        optimum moved by more than one container fall back to a full
        (still vectorised) search.  Results are positionally aligned
        with ``queries``.  Every query is validated before any is solved.
        """
        for q in queries:
            validate_sizing(q.lam, q.mu, q.wait_budget, q.percentile)
        self.stats.batches += 1
        results: List[Optional[SizingResult]] = [None] * len(queries)
        warm: List[Tuple[int, SizingQuery, Tuple, int, int, int]] = []
        cold: List[Tuple[int, SizingQuery, Tuple, int, int]] = []
        leaders: set = set()
        followers: List[Tuple[int, SizingQuery, Tuple, int, int]] = []

        for i, q in enumerate(queries):
            self.stats.solves += 1
            if q.lam == 0:
                results[i] = SizingResult(0, 1.0, q.wait_budget, 0)
                continue
            min_c = int(math.floor(q.lam / q.mu)) + 1
            lower = max(1, int(q.current_containers), min_c)
            solve_key = (q.lam, q.mu, q.wait_budget, q.percentile)
            if self._caching:
                hit = self._solutions.get(solve_key)
                if hit is not None:
                    self.stats.cache_hits += 1
                    c_star, p_star = hit  # type: ignore[misc]
                    results[i] = self._finish(q, c_star, p_star, lower, evals=0)
                    continue
                if solve_key in leaders:
                    # duplicate within this batch: resolve from the memo
                    # once its leader has solved
                    followers.append((i, q, solve_key, min_c, lower))
                    continue
                leaders.add(solve_key)
            previous = self._warm.get(q.key) if (self._warming and q.key is not None) else None
            if previous is not None:
                anchor = min(max(previous, min_c), q.max_containers)
                warm.append((i, q, solve_key, min_c, lower, anchor))
            else:
                cold.append((i, q, solve_key, min_c, lower))

        if warm:
            self._resolve_warm(warm, results)
        if cold:
            self._resolve_cold(cold, results)
        for i, q, solve_key, min_c, lower in followers:
            hit = self._solutions.get(solve_key)
            if hit is not None:
                self.stats.cache_hits += 1
                c_star, p_star = hit  # type: ignore[misc]
                evals = 0
            else:
                # pathological: the leader's entry was evicted within this
                # very batch (cache_size < distinct leaders) — recompute
                self.stats.full_searches += 1
                c_star, p_star, evals = smallest_satisfying(
                    q.lam, q.mu, q.wait_budget, q.percentile, min_c, q.max_containers
                )
                self.stats.probability_evaluations += evals
                self._store(q, solve_key, c_star, p_star)
            results[i] = self._finish(q, c_star, p_star, lower, evals)
        return results  # type: ignore[return-value]

    def _resolve_cold(
        self,
        cold: List[Tuple[int, SizingQuery, Tuple, int, int]],
        results: List[Optional[SizingResult]],
    ) -> None:
        """Full searches for queries with no memo hit or warm anchor, pooled.

        The exponential ladders of all cold queries advance in lockstep:
        every round contributes up to :data:`_LADDER_GROUP` rungs per
        still-unbracketed query to one shared kernel call (one round
        covers optima up to ``min_c + 2^{_LADDER_GROUP} − 1``, which is
        nearly every realistic query, since ``c*`` sits a few percent
        above the stability minimum).  Narrow brackets then pool into a
        single final sweep; only pathologically wide ones bisect
        individually.
        """
        self.stats.full_searches += len(cold)
        exponent = [0] * len(cold)
        last_unsat = [entry[3] - 1 for entry in cold]   # min_c − 1
        evals = [0] * len(cold)
        brackets: Dict[int, Tuple[int, int, float]] = {}

        def could_not_satisfy(q: SizingQuery) -> ValueError:
            """The shared unsatisfiable-SLO error for one query's parameters."""
            return _unsatisfiable(q.lam, q.mu, q.wait_budget, q.percentile,
                                  q.max_containers)

        unresolved = list(range(len(cold)))
        while unresolved:
            lams, mus, ts, candidates = [], [], [], []
            groups: Dict[int, List[int]] = {}
            for j in unresolved:
                _, q, _, min_c, _ = cold[j]
                group: List[int] = []
                while len(group) < _LADDER_GROUP:
                    rung = min_c + (1 << exponent[j]) - 1
                    exponent[j] += 1
                    if rung >= q.max_containers:
                        group.append(q.max_containers)
                        break
                    group.append(rung)
                group = [c for c in group if c > last_unsat[j]]
                if not group:
                    raise could_not_satisfy(q)
                groups[j] = group
                lams.extend(q.lam for _ in group)
                mus.extend(q.mu for _ in group)
                ts.extend(q.wait_budget for _ in group)
                candidates.extend(group)
            probs = wait_probabilities(
                np.array(lams), np.array(mus), np.array(candidates), np.array(ts)
            )
            cursor = 0
            still: List[int] = []
            for j in unresolved:
                group = groups[j]
                window = probs[cursor:cursor + len(group)]
                cursor += len(group)
                evals[j] += len(group)
                _, q, _, _, _ = cold[j]
                satisfied = np.nonzero(window >= q.percentile)[0]
                if satisfied.size:
                    g = int(satisfied[0])
                    bracket_lo = (group[g - 1] if g > 0 else last_unsat[j]) + 1
                    brackets[j] = (bracket_lo, group[g], float(window[g]))
                else:
                    last_unsat[j] = group[-1]
                    if last_unsat[j] >= q.max_containers:
                        raise could_not_satisfy(q)
                    still.append(j)
            unresolved = still

        def conclude(j: int, c_star: int, p_star: float) -> None:
            """Store and finish one cold query's result."""
            i, q, solve_key, _min_c, lower, = cold[j]
            self.stats.probability_evaluations += evals[j]
            self._store(q, solve_key, c_star, p_star)
            results[i] = self._finish(q, c_star, p_star, lower, evals[j])

        sweep: List[int] = []
        for j, (b_lo, b_hi, b_prob) in brackets.items():
            _, q, _, _, _ = cold[j]
            if b_hi == b_lo:
                conclude(j, b_hi, b_prob)
            elif b_hi - b_lo > _BATCH_BRACKET:
                c_star, p_star, extra = _first_satisfying(
                    q.lam, q.mu, q.wait_budget, q.percentile, b_lo, b_hi, b_prob
                )
                evals[j] += extra
                conclude(j, c_star, p_star)
            else:
                sweep.append(j)
        if sweep:
            lams, mus, ts, candidates = [], [], [], []
            for j in sweep:
                _, q, _, _, _ = cold[j]
                b_lo, b_hi, _ = brackets[j]
                span = range(b_lo, b_hi)            # b_hi itself is known good
                lams.extend(q.lam for _ in span)
                mus.extend(q.mu for _ in span)
                ts.extend(q.wait_budget for _ in span)
                candidates.extend(span)
            probs = wait_probabilities(
                np.array(lams), np.array(mus), np.array(candidates), np.array(ts)
            )
            cursor = 0
            for j in sweep:
                _, q, _, _, _ = cold[j]
                b_lo, b_hi, b_prob = brackets[j]
                width = b_hi - b_lo
                window = probs[cursor:cursor + width]
                cursor += width
                evals[j] += width
                satisfied = np.nonzero(window >= q.percentile)[0]
                if satisfied.size:
                    g = int(satisfied[0])
                    conclude(j, b_lo + g, float(window[g]))
                else:
                    conclude(j, b_hi, b_prob)

    #: contiguous candidates probed per direction in the pooled second
    #: warm phase; drifts of up to ``1 + _WARM_WINDOW`` containers per
    #: epoch resolve in exactly two kernel calls for the whole batch
    _WARM_WINDOW = 8

    def _resolve_warm(
        self,
        warm: List[Tuple[int, SizingQuery, Tuple, int, int, int]],
        results: List[Optional[SizingResult]],
    ) -> None:
        """Settle warm-started queries with at most two pooled kernel calls.

        Phase 1 evaluates ``{c*−1, c*, c*+1}`` for every query in one
        call (the common steady-state case).  Queries whose optimum
        moved further pool a contiguous window of
        :data:`_WARM_WINDOW` candidates in the drift direction into a
        second shared call; only drifts beyond that window fall back to
        an individual bracketed search.  Every shortcut is exact by
        monotonicity: an answer is accepted only when its predecessor
        is known to miss the target.
        """
        def settle(entry: Tuple[int, SizingQuery, Tuple, int, int, int],
                   c_star: int, p_star: float, evals: int) -> None:
            """Record one resolved optimum and finish its result slot."""
            i, q, solve_key, _min_c, lower, _anchor = entry
            self._store(q, solve_key, c_star, p_star)
            results[i] = self._finish(q, c_star, p_star, lower, evals)

        lams, mus, ts, candidates = [], [], [], []
        for _, q, _, _, _, anchor in warm:
            below = max(1, anchor - 1)
            above = min(anchor + 1, q.max_containers)
            lams.extend((q.lam, q.lam, q.lam))
            mus.extend((q.mu, q.mu, q.mu))
            ts.extend((q.wait_budget, q.wait_budget, q.wait_budget))
            candidates.extend((below, anchor, above))
        probs = wait_probabilities(
            np.array(lams), np.array(mus), np.array(candidates), np.array(ts)
        )
        self.stats.probability_evaluations += len(candidates)

        # entries needing a second phase: (warm entry, window lo, window hi,
        # probability at the known-good / known-bad phase-1 neighbour)
        pending_down: List[Tuple[Tuple, int, int, float]] = []
        pending_up: List[Tuple[Tuple, int, int]] = []

        for slot, entry in enumerate(warm):
            i, q, solve_key, min_c, lower, anchor = entry
            p_below = float(probs[3 * slot])
            p_here = float(probs[3 * slot + 1])
            p_above = float(probs[3 * slot + 2])
            target = q.percentile
            if p_here >= target:
                if anchor == min_c or p_below < target:
                    self.stats.warm_hits += 1
                    settle(entry, anchor, p_here, 3)
                elif anchor - 1 == min_c:
                    self.stats.warm_hits += 1
                    settle(entry, anchor - 1, p_below, 3)
                else:
                    # optimum dropped by ≥ 2: window below anchor − 1
                    self.stats.warm_fallbacks += 1
                    lo_w = max(min_c, anchor - 1 - self._WARM_WINDOW)
                    pending_down.append((entry, lo_w, anchor - 2, p_below))
            else:
                above = min(anchor + 1, q.max_containers)
                if above > anchor and p_above >= target:
                    self.stats.warm_hits += 1
                    settle(entry, above, p_above, 3)
                else:
                    # optimum rose by ≥ 2 (or anchor hit the cap)
                    self.stats.warm_fallbacks += 1
                    hi_w = min(above + self._WARM_WINDOW, q.max_containers)
                    pending_up.append((entry, above + 1, hi_w))
        if not pending_down and not pending_up:
            return
        lams2, mus2, ts2, candidates2, spans = [], [], [], [], []
        for entry, lo_w, hi_w, _ in pending_down:
            spans.append(range(lo_w, hi_w + 1))
        for entry, lo_w, hi_w in pending_up:
            spans.append(range(lo_w, hi_w + 1))
        for (entry, *_), span in zip(pending_down + pending_up, spans):
            q = entry[1]
            for c in span:
                lams2.append(q.lam)
                mus2.append(q.mu)
                ts2.append(q.wait_budget)
                candidates2.append(c)
        probs2 = (
            wait_probabilities(np.array(lams2), np.array(mus2),
                               np.array(candidates2), np.array(ts2))
            if candidates2 else np.zeros(0)
        )
        self.stats.probability_evaluations += len(candidates2)

        cursor = 0
        for (entry, lo_w, hi_w, p_good), span in zip(pending_down, spans[:len(pending_down)]):
            i, q, solve_key, min_c, lower, anchor = entry
            window = probs2[cursor:cursor + len(span)]
            cursor += len(span)
            evals = 3 + len(span)
            satisfied = np.nonzero(window >= q.percentile)[0]
            if satisfied.size == 0:
                # anchor − 2 misses, anchor − 1 is known good: exact
                settle(entry, anchor - 1, p_good, evals)
            else:
                j = int(satisfied[0])
                if j > 0 or lo_w == min_c:
                    settle(entry, lo_w + j, float(window[j]), evals)
                else:
                    # the whole window satisfies: optimum is below it
                    c_star, p_star, extra = _first_satisfying(
                        q.lam, q.mu, q.wait_budget, q.percentile,
                        min_c, lo_w, float(window[0]),
                    )
                    self.stats.probability_evaluations += extra
                    settle(entry, c_star, p_star, evals + extra)
        for (entry, lo_w, hi_w), span in zip(pending_up, spans[len(pending_down):]):
            i, q, solve_key, min_c, lower, anchor = entry
            window = probs2[cursor:cursor + len(span)]
            cursor += len(span)
            evals = 3 + len(span)
            satisfied = np.nonzero(window >= q.percentile)[0]
            if satisfied.size:
                # predecessor of the first hit is in the window (or is the
                # known-bad anchor + 1): exact
                j = int(satisfied[0])
                settle(entry, lo_w + j, float(window[j]), evals)
            elif hi_w >= q.max_containers:
                raise _unsatisfiable(q.lam, q.mu, q.wait_budget, q.percentile,
                             q.max_containers)
            else:
                # drift larger than the window: bracketed search above it
                c_star, p_star, extra = smallest_satisfying(
                    q.lam, q.mu, q.wait_budget, q.percentile,
                    hi_w + 1, q.max_containers,
                )
                self.stats.probability_evaluations += extra
                settle(entry, c_star, p_star, evals + extra)

    def _store(self, q: SizingQuery, solve_key: Tuple, c_star: int, p_star: float) -> None:
        """Record a computed unconstrained optimum in the memo."""
        if self._caching:
            self._solutions.put(solve_key, (c_star, p_star))

    def _finish(self, q: SizingQuery, c_star: int, p_star: float,
                lower: int, evals: int) -> SizingResult:
        """Apply the lower bound to the unconstrained optimum and build the result.

        ``P(Q ≤ t)`` is non-decreasing in ``c``, so the smallest count
        at or above ``lower`` is simply ``max(lower, c*)``.
        """
        if self._warming and q.key is not None:
            self._warm[q.key] = c_star
        if max(lower, c_star) > q.max_containers:
            raise _unsatisfiable(q.lam, q.mu, q.wait_budget, q.percentile,
                         q.max_containers)
        if lower <= c_star:
            return SizingResult(c_star, p_star, q.wait_budget, evals)
        prob = self._probability(q.lam, q.mu, lower, q.wait_budget)
        return SizingResult(lower, prob, q.wait_budget, evals + 1)

    # -- heterogeneous solves -------------------------------------------
    def solve_heterogeneous(self, lam: float, existing_mus: Sequence[float],
                            standard_mu: float, wait_budget: float, percentile: float = 0.95,
                            max_additional: int = 100_000,
                            key: Optional[Hashable] = None) -> SizingResult:
        """Additional-standard-container sizing over a deflated fleet.

        The memoized, warm-started counterpart of
        :func:`repro.core.queueing.sizing.required_containers_heterogeneous`
        (identical answers); a batch of one.
        """
        return self.solve_heterogeneous_batch((HeterogeneousQuery(
            lam, existing_mus, standard_mu, wait_budget, percentile, max_additional, key),))[0]

    def solve_heterogeneous_batch(
        self, queries: Sequence[HeterogeneousQuery]
    ) -> List[SizingResult]:
        """Size every deflated fleet of an epoch; results align with ``queries``.

        Memo hits resolve at once.  Every warm-started query's probes at
        ``{a−1, a, a+1}`` added containers (``a`` its previous answer) are
        pooled into one :func:`wait_bounds` call; cold queries and drifts
        past ±1 take the ladder and bisection one probe at a time.  The
        answers, memo and warm anchors are those of solving the queries one
        after another: a query whose key or memo key repeats a pending one
        waits for the pool before it to settle.
        """
        rows = []
        for q in queries:
            existing = tuple(sorted(float(m) for m in q.existing_mus))
            validate_sizing(q.lam, q.standard_mu, q.wait_budget, q.percentile, existing)
            rows.append(HeterogeneousQuery(float(q.lam), existing, float(q.standard_mu),
                                           float(q.wait_budget), float(q.percentile),
                                           q.max_additional, q.key))
        results: List[Optional[SizingResult]] = [None] * len(rows)
        pool: List[Tuple[int, HeterogeneousQuery, Tuple, Optional[int]]] = []
        pending: set = set()
        for i, q in enumerate(rows):
            self.stats.solves += 1
            if q.lam == 0:
                results[i] = SizingResult(len(q.existing_mus), 1.0, q.wait_budget, 0)
                continue
            solve_key = q[:5]
            if solve_key in pending or (q.key is not None and q.key in pending):
                self._settle_heterogeneous(pool, results)
                pool, pending = [], set()
            hit = self._heterogeneous.get(solve_key) if self._caching else None
            if hit is not None:
                added, prob = hit  # type: ignore[misc]
                if added > q.max_additional:
                    raise ValueError(_NO_ROOM)   # the cached optimum is minimal
                self.stats.cache_hits += 1
                if self._warming and q.key is not None:
                    self._warm_heterogeneous[q.key] = added
                results[i] = SizingResult(len(q.existing_mus) + added, prob, q.wait_budget, 0)
                continue
            previous = (self._warm_heterogeneous.get(q.key)
                        if (self._warming and q.key is not None) else None)
            anchor = None if previous is None else min(max(previous, 0), q.max_additional)
            pool.append((i, q, solve_key, anchor))
            pending.update((solve_key, q.key))
        self._settle_heterogeneous(pool, results)
        return results  # type: ignore[return-value]

    def _settle_heterogeneous(
        self,
        pool: List[Tuple[int, HeterogeneousQuery, Tuple, Optional[int]]],
        results: List[Optional[SizingResult]],
    ) -> None:
        """Search every pooled query, the warm ones' first probes in one evaluator call.

        A warm answer is accepted only when its predecessor is known to
        miss the target, as the one-probe-at-a-time search did: the bound
        is non-decreasing in the number of added containers.  A warm start
        that needs no further probe is a hit, any other a fallback.
        """
        values = iter(_fleet_bounds([
            (q, added) for _, q, _, anchor in pool if anchor is not None
            for added in range(max(anchor - 1, 0), min(anchor + 1, q.max_additional) + 1)
        ]))
        for i, q, solve_key, anchor in pool:
            if anchor is None:
                self.stats.full_searches += 1
                added, prob, evals = self._ladder_heterogeneous(q, 0)
            else:
                p_below = next(values) if anchor > 0 else None
                p_here = next(values)
                p_above = next(values) if anchor < q.max_additional else None
                if p_here >= q.percentile and (p_below is None or p_below < q.percentile):
                    added, prob, extra = anchor, p_here, 0
                elif p_here >= q.percentile:
                    added, prob, extra = self._bisect_heterogeneous(q, 0, anchor - 1, p_below)
                elif p_above is None:
                    raise ValueError(_NO_ROOM)
                elif p_above >= q.percentile:
                    added, prob, extra = anchor + 1, p_above, 0
                else:
                    added, prob, extra = self._ladder_heterogeneous(q, anchor + 2)
                if extra:
                    self.stats.warm_fallbacks += 1
                else:
                    self.stats.warm_hits += 1
                evals = 1 + (p_below is not None) + (p_above is not None) + extra
            if self._caching:
                self._heterogeneous.put(solve_key, (added, prob))
            if self._warming and q.key is not None:
                self._warm_heterogeneous[q.key] = added
            self.stats.probability_evaluations += evals
            results[i] = SizingResult(len(q.existing_mus) + added, prob, q.wait_budget, evals)

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
    "smallest_satisfying",
    "validate_sizing",
    "wait_probabilities",
]
