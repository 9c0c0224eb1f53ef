"""Tests for the memoized, batched control-plane solver.

Three contracts are covered:

1. **Probe regression** — the solver's per-count probe ``_bound`` (a
   closed form up to 32 containers, the reference's own log-space body
   above) matches the scalar :class:`~repro.core.queueing.mmc.MMcQueue`
   bound across a (λ, μ, c, t) grid, including unstable and zero-load
   edges.
2. **Oracle equivalence** — across ~200 parameter combinations and all
   four cache/warm-start configurations, :class:`SizingSolver` returns
   the same container counts as the reference ``required_containers``
   and the frozen naive Algorithm 1 of ``tests/oracles/naive_sizing.py``
   (including ``λ = 0`` and near-instability ``ρ → 1`` edges).
3. **Shortcut mechanics** — warm starts stay exact under drifts and
   jumps, the LRU memo actually hits/evicts, batching aligns results
   positionally, and :func:`caches_disabled` forces cold solves.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

from oracles.naive_sizing import required_containers_naive
from repro.core.queueing import logspace
from repro.core.queueing.heterogeneous import HeterogeneousMMcQueue
from repro.core.queueing.logspace import log_factorials
from repro.core.queueing.mmc import MMcQueue
from repro.core.queueing.sizing import (
    SizingResult,
    required_containers,
    required_containers_heterogeneous,
)
from repro.core.queueing.heterogeneous import wait_bound
from repro.core.queueing.solver import (
    SizingQuery,
    SizingSolver,
    _bound,
    _closed_tail,
    _small_bound,
    _small_fleet_bound,
    caches_disabled,
)

#: the oracle-equivalence grid: 9 λ × 2 μ × 4 t × 3 p = 216 combinations.
#: 49.95 and 99.9 sit a hair under instability for small c at μ = 10
#: (ρ = 0.999 at the stability minimum); 0.0 exercises the zero-load
#: shortcut; 149.5 forces triple-digit container counts.
GRID_LAMS = (0.0, 0.5, 3.0, 9.9, 17.0, 49.95, 88.0, 99.9, 149.5)
GRID_MUS = (1.0, 10.0)
GRID_BUDGETS = (0.0, 0.02, 0.1, 0.5)
GRID_PERCENTILES = (0.5, 0.95, 0.99)


def grid():
    """Yield every (λ, μ, t, p) combination of the equivalence grid."""
    for lam in GRID_LAMS:
        for mu in GRID_MUS:
            for budget in GRID_BUDGETS:
                for percentile in GRID_PERCENTILES:
                    yield lam, mu, budget, percentile


#: the percentiles a closed-form probe must give the log-space verdict at
VERDICT_PERCENTILES = (0.5, 0.9, 0.95, 0.99)


def closed_form_tolerance(lam, rates, t):
    """How far the closed form may read from a log-space body for one probe (``rates`` ascending).

    1e-14, widened in step with the log-space body's own rounding: it adds
    logs as large as ``M = max |log w_n|`` over ``L + 1`` states.  On
    90,000 random probes (c ≤ 32, ρ up to 1 − 1e-12, t ≤ 5, μ ≤ 316,
    rates down to 1e-3 of standard) the gap stayed under
    1.3e-16·(1 + M)(L + 1), and exact rational arithmetic put both bodies
    equally far (2.3e-12 at worst) from the bound of the same float
    inputs: the gap is the problem's conditioning, not either body.
    """
    aggregate = float(sum(rates))
    cutoff = math.floor(t * aggregate + len(rates) - 1 + 1e-12)
    peak = log_w = capacity = 0.0
    for rate in rates:
        capacity += rate
        if lam / capacity > 0:
            log_w += math.log(lam / capacity)
        peak = max(peak, abs(log_w))
    return 1e-14 * max(1.0, (1.0 + peak) * (cutoff + 1) / 32.0)


def assert_agree(closed, log_space, tolerance):
    """Within ``tolerance``, and the same verdict wherever the tolerance cannot flip it."""
    assert abs(closed - log_space) <= tolerance, (closed, log_space, tolerance)
    for percentile in VERDICT_PERCENTILES:
        if abs(log_space - percentile) > tolerance:
            assert (closed >= percentile) == (log_space >= percentile)


class TestKernel:
    def test_matches_scalar_mmc_over_grid(self):
        for lam in (0.0, 2.0, 19.7, 49.95, 60.0, 149.5):
            for mu in (3.0, 10.0):
                for t in (0.0, 0.03, 0.1, 0.7):
                    for c in (1, 2, 5, 17, 32, 33, 64, 200):
                        value = _bound(lam, mu, t, c)
                        queue = MMcQueue(lam, mu, c)
                        expected = (
                            queue.wait_bound_probability(t) if queue.is_stable else 0.0
                        )
                        assert value == pytest.approx(expected, rel=1e-10, abs=1e-12), (
                            lam, mu, c, t,
                        )
                        if c > 32:      # the reference's own body, bit for bit
                            assert value == expected

    def test_edge_rows(self):
        # unstable → 0 and zero load → 1, on both sides of the closed form's region
        # (a negative budget never reaches a probe: validate_sizing refuses it)
        for c in (5, 40):
            assert _bound(10.0 * c, 10.0, 0.1, c) == 0.0
            assert _bound(0.0, 10.0, 0.1, c) == 1.0

    def test_log_factorial_table_grows_and_is_exact(self):
        # scipy is the oracle, not the builder: every entry the table can
        # serve equals gammaln bit for bit, across cephes' branch seams
        top = 1 << 17
        table = log_factorials(top)
        assert table.shape[0] >= top + 1
        expected = special.gammaln(np.arange(top + 1, dtype=float) + 1.0)
        np.testing.assert_array_equal(table[:top + 1], expected)
        # exact product below x = 13, polevl below x = 1000, short series from there
        for seam in (0, 1, 11, 12, 998, 999, 1000, top):
            assert table[seam] == expected[seam], seam
        # q alone above x = 1e8: no table gets there, the builder does
        far = np.arange(10**8 - 3, 10**8 + 3, dtype=float)
        np.testing.assert_array_equal(
            logspace._stirling(10**8 - 3, 10**8 + 3), special.gammaln(far + 1.0)
        )

    def test_log_factorial_growth_keeps_the_prefix(self, monkeypatch):
        # growth computes only the new tail, from whatever size it starts at
        full = log_factorials(5000).copy()
        for start in (12, 13, 999, 1000, 1001, 1024, 3000):
            seed = full[:start].copy()
            seed.setflags(write=False)
            monkeypatch.setattr(logspace, "_LOG_FACTORIALS", seed)
            grown = log_factorials(5000)
            assert grown.shape[0] >= 5001
            np.testing.assert_array_equal(grown[:5001], full[:5001])
            assert log_factorials(10) is grown  # never shrinks, never rebuilds

    def test_log_factorials_match_the_exact_factorial(self):
        # the scipy-independent anchor: a slow exact scalar oracle
        table = log_factorials(20_000)
        for k in itertools.chain(range(2000), range(2000, 20_001, 97)):
            exact = math.log(math.factorial(k))
            assert abs(table[k] - exact) <= 2 * math.ulp(exact), k

    def test_log_factorial_table_is_read_only(self):
        table = log_factorials(100)
        with pytest.raises(ValueError, match="read-only"):
            table[5] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            table -= 1.0


#: one probe of the closed form's domain: (c, ρ, μ, t)
_small_probes = st.tuples(
    st.integers(1, 32),
    st.floats(0.0, 1.0 - 1e-12) | st.floats(1e-12, 1e-3).map(lambda gap: 1.0 - gap),
    st.floats(0.5, 50.0),
    st.floats(0.0, 5.0),
)


class TestClosedForm:
    """The small-fleet closed form against the log-space bodies it stands in for.

    ``_small_bound`` / ``_small_fleet_bound`` sum the chain's head in
    Python floats and close the geometric tail with one ``**``; the
    reference paths (``MMcQueue``, ``wait_bound``) stay in log space, and
    the solver's walk probes them above 32 containers.
    """

    @given(probe=_small_probes)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_homogeneous_closed_form_matches_the_log_space_body(self, probe):
        c, rho, mu, t = probe
        lam = rho * c * mu
        closed = _small_bound(lam, mu, c, t)
        queue = MMcQueue(lam, mu, c)
        log_space = queue.wait_bound_probability(t) if queue.is_stable else 0.0
        assert_agree(closed, log_space, closed_form_tolerance(lam, [mu] * c, t))

    @given(probe=_small_probes,
           speeds=st.lists(st.floats(1e-3, 1.0) | st.just(1.0), min_size=32, max_size=32))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_fleet_closed_form_matches_wait_bound(self, probe, speeds):
        c, rho, standard, t = probe
        rates = tuple(sorted(standard * speed for speed in speeds[:c]))
        lam = rho * sum(rates)
        closed = _small_fleet_bound(lam, rates, t)
        assert_agree(closed, wait_bound(lam, rates, t),
                     closed_form_tolerance(lam, rates, t))

    def test_unstable_probes_read_zero(self):
        assert _small_bound(30.0, 10.0, 3, 0.1) == 0.0
        assert _small_fleet_bound(12.0, (5.0, 7.0), 0.1) == 0.0
        assert _small_fleet_bound(1.0, (), 0.1) == 0.0

    def test_an_overflowing_head_goes_to_the_log_space_body(self):
        # two validated rates of 1e-300 and a unit λ: w_1 = 1e300, w_2 = inf,
        # and an unguarded quotient would be inf / inf
        assert _closed_tail(math.inf, math.inf, 0.5, 0) is None
        for added in range(4):
            rates = (1e-300, 1e-300) + (5.0,) * added
            assert _small_fleet_bound(1.0, rates, 0.1) == wait_bound(1.0, rates, 0.1)
        got = SizingSolver().solve_heterogeneous(1.0, [1e-300, 1e-300], 5.0, 0.1, 0.99)
        reference = required_containers_heterogeneous(1.0, [1e-300, 1e-300], 5.0, 0.1, 0.99)
        assert (got.containers, got.achieved_probability) == (
            reference.containers, reference.achieved_probability)


class TestOracleEquivalence:
    @pytest.mark.parametrize("cache_size,warm_start", [
        (65_536, True), (65_536, False), (0, True), (0, False),
    ])
    def test_grid_matches_reference_and_naive(self, cache_size, warm_start):
        solver = SizingSolver(cache_size=cache_size, warm_start=warm_start)
        combos = 0
        for lam, mu, budget, percentile in grid():
            reference = required_containers(lam, mu, budget, percentile)
            naive = required_containers_naive(lam, mu, budget, percentile)
            # shared warm key across the grid walk: successive solves for
            # the same key exercise anchors far from the next optimum
            got = solver.solve(lam, mu, budget, percentile, key="grid")
            again = solver.solve(lam, mu, budget, percentile, key="grid")
            assert got.containers == reference.containers == naive.containers, (
                lam, mu, budget, percentile,
            )
            assert again.containers == got.containers
            combos += 1
        assert combos == 216

    def test_zero_load(self):
        result = SizingSolver().solve(0.0, 10.0, 0.1)
        assert result == SizingResult(0, 1.0, 0.1, 0)

    def test_near_instability_edge(self):
        # ρ = 0.999 at the stability minimum: the search has to climb
        # well past ⌈λ/μ⌉ for tight budgets
        solver = SizingSolver()
        for percentile in (0.95, 0.99):
            reference = required_containers(99.9, 10.0, 0.0, percentile)
            got = solver.solve(99.9, 10.0, 0.0, percentile)
            assert got.containers == reference.containers
            assert got.achieved_probability >= percentile

    def test_current_containers_lower_bound(self):
        solver = SizingSolver()
        for current in (0, 1, 7, 40, 200):
            reference = required_containers(30.0, 10.0, 0.1, 0.95,
                                            current_containers=current)
            got = solver.solve(30.0, 10.0, 0.1, 0.95, current_containers=current)
            assert got.containers == reference.containers
            assert got.achieved_probability == pytest.approx(
                reference.achieved_probability, rel=1e-9
            )

    def test_max_containers_raises_like_reference(self):
        with pytest.raises(ValueError):
            required_containers(50.0, 10.0, 0.0, 0.99, max_containers=6)
        with pytest.raises(ValueError):
            SizingSolver().solve(50.0, 10.0, 0.0, 0.99, max_containers=6)

    def test_validation_mirrors_reference(self):
        solver = SizingSolver()
        with pytest.raises(ValueError):
            solver.solve(-1.0, 10.0, 0.1)
        with pytest.raises(ValueError):
            solver.solve(1.0, -1.0, 0.1)
        with pytest.raises(ValueError):
            solver.solve(1.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            solver.solve(1.0, 1.0, 0.1, percentile=1.5)

    def test_a_cold_solver_matches_reference(self):
        # no memo, no warm start: every count comes from the search itself
        solver = SizingSolver(cache_size=0, warm_start=False)
        for lam in (5.0, 17.0, 60.0, 140.0, 999.0):
            for budget in (0.05, 0.1, 0.3):
                reference = required_containers(lam, 10.0, budget, 0.95).containers
                assert solver.solve(lam, 10.0, budget, 0.95).containers == reference


class TestWarmStart:
    def test_drifting_sequence_matches_reference(self):
        solver = SizingSolver()
        lam = 200.0
        for epoch in range(120):
            lam = max(1.0, lam * (1.0 + 0.15 * math.sin(float(epoch))))
            if epoch == 47:
                lam = 3000.0     # upward jump far beyond the warm window
            if epoch == 80:
                lam = 12.0       # collapse far below it
            reference = required_containers(lam, 10.0, 0.1, 0.95).containers
            got = solver.solve(lam, 10.0, 0.1, 0.95, key="fn").containers
            assert got == reference, (epoch, lam)
        assert solver.stats.warm_hits > 0
        assert solver.stats.full_searches >= 1

    def test_an_unmoved_optimum_costs_at_most_two_probes(self):
        # the walk probes the anchor, then its predecessor (which misses);
        # at the stability minimum the anchor alone settles it
        solver = SizingSolver(cache_size=0)  # no memo: isolate the warm path
        first = solver.solve(200.0, 10.0, 0.1, 0.95, key="fn")
        steady = solver.solve(200.0, 10.0, 0.1, 0.95, key="fn")
        assert steady.containers == first.containers
        assert steady.iterations == 2
        assert solver.solve(0.5, 10.0, 0.1, 0.95, key="idle").iterations == 1
        assert solver.solve(0.5, 10.0, 0.1, 0.95, key="idle").iterations == 1
        assert solver.stats.warm_hits == 2

    def test_keys_are_isolated(self):
        solver = SizingSolver(cache_size=0)
        solver.solve(500.0, 10.0, 0.1, 0.95, key="big")
        small = solver.solve(5.0, 10.0, 0.1, 0.95, key="small")
        assert small.containers == required_containers(5.0, 10.0, 0.1, 0.95).containers

    def test_disabled_warm_start_never_records_anchors(self):
        solver = SizingSolver(warm_start=False)
        solver.solve(200.0, 10.0, 0.1, 0.95, key="fn")
        assert solver._warm == {}
        assert solver.stats.warm_hits == 0


#: every cache/warm-start configuration a solver can run in
CONFIGS = ((65_536, True), (65_536, False), (0, True), (0, False))


@st.composite
def boundary_drifts(draw):
    """Load levels, in units of 32 standard containers, that drift and jump across 32.

    Each epoch either drifts the level by up to ±10 % (a warm anchor's
    neighbourhood) or jumps to a fresh level anywhere in 0.02–3 (a jump
    across the closed form's region, up or down).
    """
    level = draw(st.floats(0.02, 3.0))
    levels = [level]
    for _ in range(draw(st.integers(1, 7))):
        if draw(st.booleans()):
            level = level * draw(st.floats(0.9, 1.1))
        else:
            level = draw(st.floats(0.02, 3.0))
        levels.append(level)
    return levels


class TestWideWalk:
    """The one walk on both sides of 32 containers: counts ``==`` the reference's.

    A warm anchor is read only up to 32 containers; a wider query walks
    cold from the stability minimum (a deflated fleet: from one below the
    first added count whose capacity exceeds λ).  Sequences cross that
    boundary both ways, under all four cache/warm-start configurations.
    """

    @given(levels=boundary_drifts(), mu=st.sampled_from((5.0, 10.0)),
           budget=st.sampled_from((0.02, 0.1, 0.5)),
           percentile=st.sampled_from((0.5, 0.9, 0.95, 0.99)))
    @settings(max_examples=60, deadline=None)
    def test_homogeneous_counts_equal_the_reference_across_32(self, levels, mu, budget,
                                                               percentile):
        solvers = [SizingSolver(cache_size=size, warm_start=warm) for size, warm in CONFIGS]
        cold = solvers[-1]
        for level in levels:
            lam = level * 32 * mu
            reference = required_containers(lam, mu, budget, percentile)
            for solver in solvers:
                got = solver.solve(lam, mu, budget, percentile, key="fn")
                assert got.containers == reference.containers, (level, solver.cache_size)
            # a cold walk probes exactly the counts Algorithm 1 does
            assert cold.solve(lam, mu, budget, percentile).iterations == reference.iterations

    @given(levels=boundary_drifts(), standard=st.sampled_from((5.0, 10.0)),
           speeds=st.lists(st.floats(0.2, 1.0), min_size=1, max_size=40),
           budget=st.sampled_from((0.02, 0.1, 0.5)),
           percentile=st.sampled_from((0.5, 0.9, 0.95, 0.99)))
    @settings(max_examples=40, deadline=None)
    def test_deflated_fleet_counts_equal_the_reference_across_32(self, levels, standard, speeds,
                                                                 budget, percentile):
        existing = [standard * speed for speed in speeds]
        solvers = [SizingSolver(cache_size=size, warm_start=warm) for size, warm in CONFIGS]
        cold = solvers[-1]
        for level in levels:
            lam = level * 32 * standard
            reference = required_containers_heterogeneous(lam, existing, standard, budget,
                                                          percentile)
            for solver in solvers:
                got = solver.solve_heterogeneous(lam, existing, standard, budget, percentile,
                                                 key="fleet")
                assert got.containers == reference.containers, (level, solver.cache_size)
            walked = cold.solve_heterogeneous(lam, existing, standard, budget, percentile)
            assert walked.iterations <= reference.iterations

    def test_a_walk_across_32_both_ways_stays_short(self):
        # without the start rules, λ 20,000 → 1,000 at μ = 10 would walk
        # 1,902 counts down from the wide anchor, and a 5-container fleet
        # at λ = 20,000 2,002 counts up from added = 0
        solver = SizingSolver(cache_size=0)
        for lam in (20_000.0, 1_000.0, 150.0, 20_000.0):
            got = solver.solve(lam, 10.0, 0.1, 0.99, key="fn")
            reference = required_containers(lam, 10.0, 0.1, 0.99)
            assert (got.containers, got.iterations) == (reference.containers, reference.iterations)
        fleet = [7.0] * 5
        for lam in (20_000.0, 100.0, 20_000.0):
            got = solver.solve_heterogeneous(lam, fleet, 10.0, 0.1, 0.99, key="fleet")
            reference = required_containers_heterogeneous(lam, fleet, 10.0, 0.1, 0.99)
            assert got.containers == reference.containers
            assert got.iterations <= 8 < reference.iterations


class TestMemo:
    def test_exact_key_hit_skips_all_evaluation(self):
        solver = SizingSolver()
        cold = solver.solve(88.0, 10.0, 0.1, 0.95)
        hit = solver.solve(88.0, 10.0, 0.1, 0.95)
        assert hit.containers == cold.containers
        assert hit.iterations == 0
        assert solver.stats.cache_hits == 1

    def test_nearby_keys_do_not_collide(self):
        solver = SizingSolver()
        a = solver.solve(88.0, 10.0, 0.1, 0.95)
        b = solver.solve(88.00000001, 10.0, 0.1, 0.95)
        assert solver.stats.cache_hits == 0
        assert abs(a.containers - b.containers) <= 1

    def test_lru_evicts_oldest(self):
        solver = SizingSolver(cache_size=2, warm_start=False)
        solver.solve(10.0, 10.0, 0.1, 0.95)
        solver.solve(20.0, 10.0, 0.1, 0.95)
        solver.solve(30.0, 10.0, 0.1, 0.95)   # evicts the 10.0 entry
        assert len(solver._solutions) == 2
        solver.solve(10.0, 10.0, 0.1, 0.95)
        assert solver.stats.cache_hits == 0

    def test_clear_resets_state(self):
        solver = SizingSolver()
        solver.solve(88.0, 10.0, 0.1, 0.95, key="fn")
        solver.clear()
        assert len(solver._solutions) == 0
        assert solver._warm == {}

    def test_caches_disabled_context_forces_cold_solves(self):
        solver = SizingSolver()
        solver.solve(88.0, 10.0, 0.1, 0.95, key="fn")
        with caches_disabled():
            result = solver.solve(88.0, 10.0, 0.1, 0.95, key="fn")
            assert result.iterations > 0          # not a cache hit
            assert solver.stats.cache_hits == 0
        hit = solver.solve(88.0, 10.0, 0.1, 0.95, key="fn")
        assert hit.iterations == 0                # re-enabled afterwards

    def test_cache_hit_respects_max_containers(self):
        solver = SizingSolver()
        cold = solver.solve(50.0, 10.0, 0.0, 0.99)
        assert cold.containers > 8
        with pytest.raises(ValueError):
            solver.solve(50.0, 10.0, 0.0, 0.99, max_containers=8)


class TestBatch:
    def test_results_align_positionally(self):
        queries = [
            SizingQuery(lam=lam, mu=10.0, wait_budget=0.1, key=i)
            for i, lam in enumerate((90.0, 0.0, 5.0, 320.0, 17.0))
        ]
        results = SizingSolver().solve_batch(queries)
        for query, result in zip(queries, results):
            expected = required_containers(query.lam, 10.0, 0.1).containers
            assert result.containers == expected

    def test_epoch_sequence_mixes_hits_warm_and_cold(self):
        solver = SizingSolver()
        rates = [60.0 + 17.0 * i for i in range(12)]
        for epoch in range(6):
            drifted = [round(r * (1.0 + 0.02 * epoch), 2) for r in rates]
            queries = [
                SizingQuery(lam=lam, mu=10.0, wait_budget=0.1, key=i)
                for i, lam in enumerate(drifted)
            ]
            results = solver.solve_batch(queries)
            for lam, result in zip(drifted, results):
                assert result.containers == required_containers(lam, 10.0, 0.1).containers
        assert solver.stats.warm_hits > 0
        assert solver.stats.batches == 6

    def test_duplicate_queries_share_one_solve(self):
        solver = SizingSolver()
        queries = [SizingQuery(lam=88.0, mu=10.0, wait_budget=0.1)] * 5
        results = solver.solve_batch(queries)
        assert len({r.containers for r in results}) == 1
        assert solver.stats.cache_hits == 4

    def test_duplicates_survive_within_batch_eviction(self):
        # cache_size=1: the second leader evicts the first leader's entry
        # before its follower resolves — the follower must recompute, not
        # crash, and stay exact
        solver = SizingSolver(cache_size=1)
        q1 = SizingQuery(lam=88.0, mu=10.0, wait_budget=0.1)
        q2 = SizingQuery(lam=40.0, mu=10.0, wait_budget=0.1)
        results = solver.solve_batch([q1, q2, q1])
        assert results[0].containers == results[2].containers
        assert results[0].containers == required_containers(88.0, 10.0, 0.1).containers
        assert results[1].containers == required_containers(40.0, 10.0, 0.1).containers


class TestHeterogeneous:
    def test_matches_reference_over_grid(self):
        solver = SizingSolver()
        for lam in (10.0, 50.0, 60.0):
            for deflation in (0.9, 0.7, 0.5):
                base = required_containers(lam, 10.0, 0.1, 0.95).containers
                existing = [10.0 * deflation] * max(base, 1)
                reference = required_containers_heterogeneous(
                    lam, existing, 10.0, 0.1
                )
                got = solver.solve_heterogeneous(lam, existing, 10.0, 0.1, key="fn")
                again = solver.solve_heterogeneous(lam, existing, 10.0, 0.1, key="fn")
                assert got.containers == reference.containers
                assert again.containers == reference.containers
                assert got.achieved_probability == pytest.approx(
                    reference.achieved_probability, rel=1e-9
                )
        assert solver.stats.cache_hits > 0

    def test_zero_load_keeps_existing(self):
        result = SizingSolver().solve_heterogeneous(0.0, [7.0, 10.0], 10.0, 0.1)
        assert result.containers == 2
        assert result.achieved_probability == 1.0

    def test_warm_drift_stays_exact(self):
        solver = SizingSolver(cache_size=0)
        for lam in (40.0, 44.0, 48.0, 80.0, 30.0):
            existing = [7.0] * 5
            reference = required_containers_heterogeneous(lam, existing, 10.0, 0.1)
            got = solver.solve_heterogeneous(lam, existing, 10.0, 0.1, key="fn")
            assert got.containers == reference.containers

    def test_cache_hit_respects_max_additional(self):
        solver = SizingSolver()
        generous = solver.solve_heterogeneous(50.0, [1.0], 1.0, 0.1,
                                              max_additional=1000)
        assert generous.containers > 6
        with pytest.raises(ValueError):
            required_containers_heterogeneous(50.0, [1.0], 1.0, 0.1,
                                              max_additional=5)
        with pytest.raises(ValueError):
            solver.solve_heterogeneous(50.0, [1.0], 1.0, 0.1, max_additional=5)

    def test_validation(self):
        solver = SizingSolver()
        with pytest.raises(ValueError):
            solver.solve_heterogeneous(1.0, [1.0], 0.0, 0.1)
        with pytest.raises(ValueError):
            solver.solve_heterogeneous(1.0, [-1.0], 1.0, 0.1)
        with pytest.raises(ValueError):
            solver.solve_heterogeneous(-1.0, [1.0], 1.0, 0.1)

    def test_vectorised_chain_weights_match_direct_recurrence(self):
        # the cumsum vectorisation of HeterogeneousMMcQueue.log_unnormalised
        queue = HeterogeneousMMcQueue(15.0, [10.0, 7.0, 5.0])
        log_weights = queue.log_unnormalised(50)
        log_lam = math.log(15.0)
        log_s = np.log(np.cumsum([5.0, 7.0, 10.0]))
        expected = 0.0
        for n in range(1, 51):
            expected = expected + log_lam - log_s[min(n, 3) - 1]
            assert log_weights[n] == pytest.approx(expected, rel=1e-12)


    def test_matches_reference_over_equivalence_grid(self):
        # the homogeneous oracle grid (λ = 0 and ρ → 1 included), each point
        # over three deflated fleets; [λ/2, λ/2] puts λ exactly on S_2, so
        # the chain's two largest weights tie (duplicated maxima)
        solver = SizingSolver()
        for lam, mu, budget, percentile in grid():
            fleets = ([0.7 * mu] * 3, [0.5 * mu, 0.9 * mu, mu])
            if lam:
                fleets += ([lam / 2.0, lam / 2.0],)
            for existing in fleets:
                reference = required_containers_heterogeneous(
                    lam, existing, mu, budget, percentile
                )
                got = solver.solve_heterogeneous(
                    lam, existing, mu, budget, percentile, key="fn"
                )
                assert got.containers == reference.containers
                fleet = sorted(existing + [mu] * (got.containers - len(existing)))
                assert abs(got.achieved_probability - reference.achieved_probability) <= (
                    closed_form_tolerance(lam, fleet, budget))


def _scipy_log_p0(queue: HeterogeneousMMcQueue) -> float:
    """``log P_0`` through ``scipy.special.logsumexp`` — the oracle for the shared helper."""
    log_weights = queue.log_unnormalised(queue.c)
    ratio = queue.lam / queue.aggregate_rate
    log_tail = log_weights[queue.c] + math.log(ratio) - math.log(1.0 - ratio)
    return float(-special.logsumexp(np.append(log_weights, log_tail)))


class TestInlinedLogSumExp:
    """``logspace.logsumexp`` (once inlined in ``log_p0``) is scipy's reduction, bit for bit."""

    @given(
        values=st.lists(
            st.floats(min_value=-800.0, max_value=800.0) | st.just(-math.inf),
            min_size=1, max_size=60,
        ),
        ties=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=300, deadline=None)
    def test_shared_helper_equals_scipy_bitwise(self, values, ties):
        assume(max(values) > -math.inf)  # the helper's one precondition
        a = np.array(values + [max(values)] * ties)
        before = a.copy()
        assert logspace.logsumexp(a) == special.logsumexp(before)
        assert np.array_equal(a, before)  # the argument is not consumed

    def test_shared_helper_edge_vectors(self):
        for values in (
            [0.0],                               # a single element (c = 1)
            [-3.5],
            [1.0, 1.0],                          # ties at the maximum
            [2.0, -1.0, 2.0, 2.0, 0.5],
            [0.0, -math.inf],                    # −inf entries add nothing
            [-math.inf, 4.0, -math.inf, 4.0],
            [700.0, 700.0, -700.0],              # exp would overflow unshifted
            [-745.0, -746.0],                    # ... and underflow
        ):
            a = np.array(values)
            assert logspace.logsumexp(a) == special.logsumexp(a), values

    @given(
        mus=st.lists(st.floats(min_value=0.05, max_value=200.0), min_size=1, max_size=40),
        rho=st.floats(min_value=1e-6, max_value=1.0 - 1e-9),
        tie_at=st.none() | st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_log_p0_equals_scipy_bitwise(self, mus, rho, tie_at):
        lam = rho * sum(mus)
        if tie_at is not None:
            # λ == S_k makes weights k-1 and k equal: duplicated maxima
            # when the mode sits there
            partial = float(np.cumsum(sorted(mus))[min(tie_at, len(mus)) - 1])
            if partial < sum(mus):
                lam = partial
        queue = HeterogeneousMMcQueue(lam, mus)
        if not queue.is_stable:
            return
        assert queue.log_p0() == _scipy_log_p0(queue)

    def test_duplicated_maxima_and_near_instability(self):
        for lam, mus in (
            (2.0, [2.0, 3.0]),             # w_0 == w_1: two maxima
            (5.0, [2.0, 3.0, 4.0]),        # w_1 == w_2
            (10.0, [10.0, 10.0]),          # maxima at n = 0, 1
            (29.97, [10.0, 10.0, 10.0]),   # ρ = 0.999
            (1e-9, [1.0]),                 # tail ≪ head
        ):
            queue = HeterogeneousMMcQueue(lam, mus)
            assert queue.log_p0() == _scipy_log_p0(queue)

    def test_state_probabilities_share_one_weight_pass(self):
        # the weights computed once to max(L, c) are a prefix-stable
        # superset of the two passes they replaced
        queue = HeterogeneousMMcQueue(15.0, [10.0, 7.0, 5.0])
        for n_max in (0, 1, 3, 4, 40):
            expected = np.exp(queue.log_unnormalised(n_max) + _scipy_log_p0(queue))
            assert np.array_equal(queue.state_probabilities(n_max), expected)
        with pytest.raises(ValueError):
            HeterogeneousMMcQueue(30.0, [10.0, 7.0, 5.0]).state_probabilities(3)
        with pytest.raises(ValueError):
            queue.state_probabilities(-1)
        assert HeterogeneousMMcQueue(0.0, [1.0]).state_probabilities(2).tolist() == [1.0, 0.0, 0.0]
