"""Memoized, warm-started M/M/c model solver — the control-plane sizing path.

Every epoch the controller re-derives an Algorithm 1 sizing decision
per function, and in sweeps the same ``(λ, μ, c, t)`` solves repeat
thousands of times across epochs, functions and shards.  The paper
itself treats solver speed as first-class (the Julia-vs-Scala
comparison of Algorithm 1, Figure 5), so this subsystem owns all
wait-probability and sizing computations:

1. one search, :meth:`SizingSolver._walk`: Algorithm 1's walk, one
   count at a time, one probe per count;
2. a closed form for fleets of at most :data:`_SMALL_FLEET` containers
   (:func:`_small_bound` for the homogeneous chain,
   :func:`_small_fleet_bound` for a deflated fleet): the chain's head
   summed in Python floats, the geometric tail closed with one ``**``;
   above it a count is probed through the reference's own log-space
   body (:meth:`MMcQueue.wait_bound_probability
   <repro.core.queueing.mmc.MMcQueue.wait_bound_probability>`, or
   :func:`~repro.core.queueing.heterogeneous.wait_bound`);
3. an exact-key LRU memo over ``(λ, μ, t, percentile)`` solves and
   ``(λ, μ, c, t)`` probability evaluations;
4. per-key (per-function) warm starts inside the closed form's region:
   control loops drift slowly, so a walk starts from the key's previous
   answer while that answer is at most :data:`_SMALL_FLEET`; a wider
   query walks cold from the stability minimum, as the reference does;
5. the epoch entry points :meth:`SizingSolver.solve_batch` and
   :meth:`SizingSolver.solve_heterogeneous_batch`, which solve their
   queries one after another: memo, then anchor, then the walk.

Every sizing entry point runs :func:`validate_sizing` before it probes
or touches a memo: bad input is a ``ValueError`` that changes nothing.

Exactness
---------
Container counts are exact given one structural fact the rest of the
codebase already relies on (``tests/test_queueing_mmc.py`` checks it):
the paper's bound ``P(Q ≤ t) = Σ_{n≤L(c)} P_n(c)`` is non-decreasing in
``c`` — more containers both shift the queue-length distribution toward
emptier states and raise the cutoff ``L(c) = ⌊t·c·μ + c − 1⌋`` — and it
reads 0 below stability.  Algorithm 1 returns the *smallest* ``c``
above a lower bound with ``P(Q ≤ t) ≥ percentile``; monotonicity makes
that a threshold search, so:

* the walk accepts ``c`` only once ``c − 1`` is known to miss (or ``c``
  is the lower bound), wherever it starts: a warm anchor, the stability
  minimum, or for a deflated fleet one below the smallest number of
  added containers whose capacity exceeds ``λ``;
* memoization — results are pure functions of the exact key, so a
  cache hit returns what a cold solve would;
* the constrained answer for a lower bound ``b`` is
  ``max(b, c*)`` where ``c*`` is the unconstrained minimum, which is
  what lets one memo entry serve every ``current_containers`` value.

The closed form and the log-space bodies round differently: the
solver's ``achieved_probability`` for a small fleet is within 1e-14 of
what the reference (:class:`~repro.core.queueing.mmc.MMcQueue`,
:func:`~repro.core.queueing.heterogeneous.wait_bound`) reports — more
for long cutoffs and large log weights, where the log-space body's own
rounding grows — and the ``≥ percentile`` verdicts agree
(``tests/test_solver.py`` ``TestClosedForm``).  Above the closed form's
region the solver probes the reference's body, so its value is the
reference's, bit for bit.  Nothing serialises the solver's probability;
the reference paths, whose probability ``scenarios/runner.py`` does
serialise, keep their log-space bodies.  A solver value is a pure
function of its own query.

With caches on or off, warm or cold, the solver returns the same
containers as the reference
:func:`repro.core.queueing.sizing.required_containers`
(``tests/test_solver.py`` sweeps the equivalence grid), and a cold walk
probes no more counts than the reference does.
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

from repro.core.queueing.heterogeneous import wait_bound
from repro.core.queueing.mmc import MMcQueue


# ----------------------------------------------------------------------
# One probe per count: closed form for small fleets, log space above
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

    For ``c ≤ _SMALL_FLEET``; agrees with
    :meth:`~repro.core.queueing.mmc.MMcQueue.wait_bound_probability` to
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
    return prob if prob is not None else MMcQueue(lam, mu, c).wait_bound_probability(t)


def _small_fleet_bound(lam: float, rates: Sequence[float], t: float) -> float:
    """The Alves et al. bound of a fleet with ascending ``rates``, head summed in Python floats.

    For fleets of at most ``_SMALL_FLEET``; agrees with :func:`wait_bound`
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
    return prob if prob is not None else wait_bound(lam, rates, t)


def _bound(lam: float, mu: float, t: float, c: int) -> float:
    """The walk's probe of ``c`` homogeneous containers: the closed form, or the reference's body above it."""
    if c > _SMALL_FLEET:
        return MMcQueue(lam, mu, c).wait_bound_probability(t)
    return _small_bound(lam, mu, c, t)


def _fleet_bound(lam: float, t: float, below: Tuple[float, ...], standard: float,
                 above: Tuple[float, ...], added: int) -> float:
    """The walk's probe of a deflated fleet plus ``added`` standard containers.

    ``below`` and ``above`` are the fleet's ascending rates on either
    side of ``standard``, so the rates stay ascending; the closed form
    answers up to ``_SMALL_FLEET`` containers, :func:`wait_bound` above.
    """
    rates = below + (standard,) * added + above
    if len(rates) > _SMALL_FLEET:
        return wait_bound(lam, rates, t)
    return _small_fleet_bound(lam, rates, t)


def _unsatisfiable(lam: float, mu: float, t: float, target: float,
                   max_containers: int) -> ValueError:
    """The error every homogeneous solve raises past ``max_containers`` (one wording)."""
    return ValueError(
        f"could not satisfy SLO with up to {max_containers} containers "
        f"(lam={lam}, mu={mu}, t={t}, p={target})"
    )


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


#: the error every heterogeneous solve raises past ``max_additional``
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
        """Memoized single-point bound ``P(Q ≤ t)``, the walk's probe of ``c`` containers."""
        key = (lam, mu, c, t)
        if self._caching:
            hit = self._probabilities.get(key)
            if hit is not None:
                return hit  # type: ignore[return-value]
        prob = _bound(lam, mu, t, c)
        self.stats.probability_evaluations += 1
        if self._caching:
            self._probabilities.put(key, prob)
        return prob

    def _walk(self, anchor: Optional[int], lo: int, hi: int, cold: int, small: int,
              target: float, probe: Callable[[int], float]) -> Tuple[int, float, int]:
        """Smallest count ``k`` in ``[lo, hi]`` with ``probe(k) ≥ target``: ``(k, P(k), probes)``.

        Algorithm 1's walk, one count at a time: up from the start until a
        count meets the target, or down from it while the count below
        still does, so ``k`` is accepted only once ``k − 1`` is known to
        miss (or ``k = lo``).  A ``P(k)`` below ``target`` means every
        count from the start up to ``hi`` missed.

        The walk starts at the warm ``anchor`` (clamped into ``[lo, hi]``)
        only while it is inside the closed form's region (``≤ small``);
        otherwise it starts cold at ``cold``, the lowest count that may be
        stable (every count below it reads 0).  A warm start of at most two
        probes is a warm hit; an anchor whose count and the count above it
        both sit below ``cold`` is a fallback that starts at ``cold``.
        """
        if lo > hi:
            return lo, 0.0, 0
        if anchor is None or anchor > small:
            self.stats.full_searches += 1
            anchor, start = None, cold
        else:
            start = max(anchor, lo)
            if start + 1 < cold:                # the anchor and the count above it read 0
                self.stats.warm_fallbacks += 1
                anchor, start = None, cold
        k = min(start, hi)
        prob = probe(k)
        probes = 1
        if prob >= target:
            while k > lo:
                below = probe(k - 1)
                probes += 1
                if below < target:
                    break
                k, prob = k - 1, below
        else:
            while k < hi:
                k += 1
                prob = probe(k)
                probes += 1
                if prob >= target:
                    break
        if anchor is not None:
            if probes <= 2 and prob >= target:
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

        Each query reads the memo, then its warm anchor, then walks
        (:meth:`_walk`), so a result is a pure function of its own
        query and the solver state the queries before it left.  Every
        query is validated before any is solved.
        """
        for q in queries:
            validate_sizing(q.lam, q.mu, q.wait_budget, q.percentile)
        self.stats.batches += 1
        return [self._solve_homogeneous(q) for q in queries]

    def _solve_homogeneous(self, q: SizingQuery) -> SizingResult:
        """One validated query: memo, warm anchor, walk, then the lower bound."""
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
            c_star, p_star, evals = self._walk(
                self._warm.get(warm_key) if warm_key is not None else None,
                min_c, q.max_containers, min_c, _SMALL_FLEET, target,
                partial(_bound, lam, mu, t),
            )
            if p_star < target:
                raise _unsatisfiable(lam, mu, t, target, q.max_containers)
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
        then walks (:meth:`_walk`) with the closed form
        :func:`_small_fleet_bound` while the fleet has at most
        :data:`_SMALL_FLEET` containers and :func:`wait_bound` past it.
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
        """One validated fleet (rates ascending): memo, warm anchor, then the walk."""
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
            # the smallest ``added`` whose capacity exceeds λ, one below to absorb rounding
            deficit = lam - sum(existing)
            cold = int(min(deficit // standard, q.max_additional)) if deficit >= 0 else 0
            added, prob, evals = self._walk(
                self._warm_heterogeneous.get(warm_key) if warm_key is not None else None,
                0, q.max_additional, cold, _SMALL_FLEET - len(existing), q.percentile,
                partial(_fleet_bound, lam, t, existing[:split], standard, existing[split:]),
            )
            if prob < q.percentile:
                raise ValueError(_NO_ROOM)
            if caching:
                self._heterogeneous.put(solve_key, (added, prob))
        if warm_key is not None:
            self._warm_heterogeneous[warm_key] = added
        return SizingResult(len(existing) + added, prob, t, evals)


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
]
