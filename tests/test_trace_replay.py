"""Equivalence harness for the streaming trace replay (PR 9).

Four contracts are pinned here:

1. **Chunked ≡ monolithic synthesis** — byte-for-byte, at every chunk
   size, because NumPy ``Generator.poisson`` consumes the bit stream
   element-sequentially (a hypothesis property) and the azure generator
   draws in two ordered passes.
2. **Sharded ≡ whole-process replay** — the merged envelope is
   byte-identical across worker counts, run-twice stable, and identical
   across *different* shard decompositions of the same population.
3. **Exact histogram merge** — the merged percentiles are the type-1
   quantiles of the pooled raw per-minute counts (brute force, over
   random splits), the merge is a pure function of the set of shard
   results, and every histogram is checked against its own shard's
   counters.
4. **Edge cases fail eagerly** — invalid trace configs, invalid
   replay params, degraded sweep envelopes and malformed shard results
   (fuzzed) raise ``ValueError`` instead of producing silently-wrong
   numbers or another exception.
"""

from __future__ import annotations

import collections
import copy
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import build, canonical_json
from repro.scenarios.executor import ResilientSweepRunner
from repro.scenarios.journal import RunJournal, shard_spec_hash
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.trace_shard import (
    TRACE_MERGE_SCHEMA,
    histogram_quantiles,
    merge_trace_shards,
    run_trace_replay,
    shard_ranges,
)
from repro.workloads.azure import (
    AzureTraceConfig,
    azure_rate_series,
    synthesize_azure_trace,
    synthesize_azure_traces,
    trace_statistics,
)
from repro.workloads.stream import (
    iter_azure_trace_chunks,
    population_function,
    trace_rng,
)

#: Tiny population knobs reused across the equivalence tests.
SMALL = dict(functions=24, duration_minutes=6, chunk_minutes=4)


def _small_sweep(shards: int, **overrides):
    """The fig9-at-scale sweep at smoke scale."""
    kwargs = dict(SMALL, shards=shards)
    kwargs.update(overrides)
    return build("fig9-at-scale", **kwargs)


# ----------------------------------------------------------------------
# 1. chunked ingestion ≡ monolithic synthesis
# ----------------------------------------------------------------------
CHUNK_CONFIGS = {
    "steady": AzureTraceConfig(mean_rate=5.0, variability=0.4),
    "sporadic": AzureTraceConfig(mean_rate=2.0, sporadic=True),
    "zero-rate": AzureTraceConfig(mean_rate=0.0),
}


@pytest.mark.parametrize("label", sorted(CHUNK_CONFIGS))
@pytest.mark.parametrize("duration", [1, 17, 60])
@pytest.mark.parametrize("chunk", [1, 4, 60, 70])
def test_chunked_equals_monolithic(label, duration, chunk):
    """Concatenated chunks match the one-shot synthesis byte-for-byte."""
    config = CHUNK_CONFIGS[label]
    whole = synthesize_azure_trace(config, duration, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    parts = list(iter_azure_trace_chunks(config, duration, rng, chunk))
    chunked = np.concatenate(parts)
    assert chunked.tobytes() == whole.tobytes()
    # and the generators end in the same state: a consumer could keep
    # drawing from either and stay in lockstep
    reference = np.random.default_rng(7)
    synthesize_azure_trace(config, duration, reference)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_chunk_count_and_sizes():
    """Chunks tile the duration: all full-size except a shorter tail."""
    config = CHUNK_CONFIGS["steady"]
    parts = list(iter_azure_trace_chunks(config, 10, np.random.default_rng(1), 4))
    assert [len(p) for p in parts] == [4, 4, 2]


def test_chunk_minutes_must_be_positive():
    """Bad arguments raise at the call, before the first ``next()``."""
    with pytest.raises(ValueError, match="chunk_minutes"):
        iter_azure_trace_chunks(CHUNK_CONFIGS["steady"], 10,
                                np.random.default_rng(1), 0)
    with pytest.raises(ValueError, match="duration_minutes"):
        iter_azure_trace_chunks(CHUNK_CONFIGS["steady"], 0,
                                np.random.default_rng(1), 4)


def test_rate_series_rejects_bad_duration():
    with pytest.raises(ValueError, match="duration_minutes"):
        azure_rate_series(CHUNK_CONFIGS["steady"], 0, np.random.default_rng(1))


def _scalar_loop_rate_series(config, duration_minutes, rng):
    """The rate series as it was before the block draws, kept verbatim.

    One ``rng.uniform()`` / ``rng.normal()`` call and one scalar
    ``np.sin`` per simulated minute: the oracle the batched
    :func:`azure_rate_series` must match in values and in RNG end state.
    """
    minutes = np.arange(duration_minutes)
    base_per_minute = config.mean_rate * 60.0

    if config.sporadic:
        rates = np.zeros(duration_minutes)
        in_burst = False
        burst_left = 0
        for m in range(duration_minutes):
            if not in_burst and rng.uniform() < config.burst_probability:
                in_burst = True
                burst_left = max(1, int(rng.geometric(1.0 / config.burst_duration_minutes)))
            if in_burst:
                shape = np.sin(np.pi * min(1.0, (1 + m % max(burst_left, 1)) / max(burst_left, 1)))
                rates[m] = base_per_minute * config.burst_multiplier * max(0.3, shape)
                burst_left -= 1
                if burst_left <= 0:
                    in_burst = False
        rates += base_per_minute * 0.05
    else:
        phase = rng.uniform(0, 2 * np.pi)
        modulation = 1.0 + 0.25 * np.sin(2 * np.pi * minutes / max(duration_minutes, 1) + phase)
        noise = np.zeros(duration_minutes)
        sigma = config.variability
        for m in range(1, duration_minutes):
            noise[m] = 0.7 * noise[m - 1] + rng.normal(0, sigma)
        rates = base_per_minute * modulation * np.clip(1.0 + noise, 0.2, 3.0)
    return np.clip(rates, 0.0, None)


def _assert_matches_scalar_loop(config, duration, seed_rng):
    """Same array bytes and same generator end state as the frozen loop."""
    oracle_rng, batched_rng = seed_rng(), seed_rng()
    expected = _scalar_loop_rate_series(config, duration, oracle_rng)
    actual = azure_rate_series(config, duration, batched_rng)
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)
    assert batched_rng.bit_generator.state == oracle_rng.bit_generator.state


RATE_SERIES_CONFIGS = {
    **CHUNK_CONFIGS,
    # a burst every few minutes, long enough to run off the end of the trace
    "bursty": AzureTraceConfig(mean_rate=3.0, sporadic=True,
                               burst_probability=0.6,
                               burst_duration_minutes=9.0),
    "always-bursting": AzureTraceConfig(mean_rate=1.0, sporadic=True,
                                        burst_probability=1.0,
                                        burst_duration_minutes=1.0),
    "never-bursting": AzureTraceConfig(mean_rate=1.0, sporadic=True,
                                       burst_probability=0.0),
    "noiseless": AzureTraceConfig(mean_rate=4.0, variability=0.0),
    # mean lengths 1.5 and 3 give p >= 1/3, where numpy's geometric
    # searches instead of inverting
    "short-bursts": AzureTraceConfig(mean_rate=2.0, sporadic=True,
                                     burst_probability=0.3,
                                     burst_duration_minutes=1.5),
    "third-bursts": AzureTraceConfig(mean_rate=2.0, sporadic=True,
                                     burst_probability=0.2,
                                     burst_duration_minutes=3.0),
    # bursts far longer than the trace: the one that starts runs past its end
    "endless-bursts": AzureTraceConfig(mean_rate=2.0, sporadic=True,
                                       burst_probability=0.5,
                                       burst_duration_minutes=400.0),
    # geometric saturates at the int64 maximum: past 2**53 minutes left the
    # progress rounds, and the shape sits under its 0.3 floor either way
    "saturated-bursts": AzureTraceConfig(mean_rate=2.0, sporadic=True,
                                         burst_probability=0.5,
                                         burst_duration_minutes=1e30),
}


@pytest.mark.parametrize("label", sorted(RATE_SERIES_CONFIGS))
@pytest.mark.parametrize("duration", [1, 2, 3, 59, 720])
def test_rate_series_equals_scalar_loop(label, duration):
    """Block draws move no value and leave the generator where the loop did.

    ``duration == 1`` is the steady branch drawing no normal at all.
    """
    config = RATE_SERIES_CONFIGS[label]
    for seed in (7, 2019):
        _assert_matches_scalar_loop(config, duration,
                                    lambda: np.random.default_rng(seed))


@pytest.mark.parametrize("duration", [1, 2, 3, 59, 720])
def test_rate_series_equals_scalar_loop_over_the_population(duration):
    """The first few hundred default-population functions, seeded as the replay seeds them."""
    from repro.workloads.stream import DEFAULT_POPULATION

    sporadic = 0
    for index in range(300):
        fn = population_function(index, DEFAULT_POPULATION)
        sporadic += fn.config.sporadic
        _assert_matches_scalar_loop(fn.config, duration,
                                    lambda: trace_rng(2019, index))
    assert 0 < sporadic < 300


def _dyadic_probabilities():
    """``k · 2⁻⁵³`` for any 53-bit ``k``, and both of its float neighbours."""
    exact = st.integers(min_value=0, max_value=2 ** 53).map(lambda k: k * 2.0 ** -53)
    return st.one_of(
        exact,
        exact.map(lambda p: max(0.0, np.nextafter(p, 0.0))),
        exact.map(lambda p: min(1.0, np.nextafter(p, 1.0))),
        st.floats(min_value=0.0, max_value=1.0),
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(raw=st.integers(min_value=0, max_value=2 ** 64 - 1), p=_dyadic_probabilities())
def test_the_raw_draw_test_is_the_uniform_draw_test(raw, p):
    """The sporadic pass tests ``raw < ⌈p·2⁵³⌉·2¹¹``; ``random() < p`` is the verdict it stands for.

    ``random()`` is ``(raw >> 11) · 2⁻⁵³``, so the three tests agree for
    every 64-bit draw and every ``p`` in ``[0, 1]``.
    """
    p = float(p)
    uniform = (raw >> 11) * 2.0 ** -53
    assert ((raw >> 11) < p * 2 ** 53) == (uniform < p)
    assert (raw < math.ceil(p * 2 ** 53) << 11) == (uniform < p)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM,
                                           np.random.Philox, np.random.SFC64])
def test_the_raw_draw_is_what_random_scales(bit_generator):
    """For each accepted bit generator ``random()`` is ``(random_raw() >> 11) · 2⁻⁵³``,
    and the sporadic pass still matches the scalar loop on it."""
    raws, uniforms = bit_generator(5), bit_generator(5)
    drawn = [raws.random_raw() for _ in range(64)]
    assert [(r >> 11) * 2.0 ** -53 for r in drawn] == \
        [np.random.Generator(uniforms).random() for _ in range(64)]
    oracle_rng, batched_rng = (np.random.Generator(bit_generator(11)) for _ in range(2))
    config = RATE_SERIES_CONFIGS["bursty"]
    assert np.array_equal(azure_rate_series(config, 59, batched_rng),
                          _scalar_loop_rate_series(config, 59, oracle_rng))
    # Philox's state holds arrays, so compare where the two streams go next
    assert batched_rng.bit_generator.random_raw(4).tolist() == \
        oracle_rng.bit_generator.random_raw(4).tolist()


def test_a_sporadic_trace_refuses_a_32_bit_bit_generator():
    """MT19937's ``random()`` is not one raw draw scaled: refused, the generator untouched."""
    rng = np.random.Generator(np.random.MT19937(3))
    with pytest.raises(ValueError, match="64-bit bit generator"):
        azure_rate_series(RATE_SERIES_CONFIGS["bursty"], 10, rng)
    assert rng.bit_generator.random_raw(4).tolist() == \
        np.random.MT19937(3).random_raw(4).tolist()
    # the steady branch draws through the Generator and takes any bit generator
    assert azure_rate_series(CHUNK_CONFIGS["steady"], 10, rng).shape == (10,)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    lams=st.lists(st.floats(min_value=0.0, max_value=50.0), max_size=40),
    chunk=st.integers(min_value=1, max_value=45),
)
def test_poisson_batch_split_invariance(lams, chunk):
    """``Generator.poisson`` consumes the bit stream element-sequentially.

    This is the NumPy behaviour the whole chunked path rests on: drawing
    consecutive sub-arrays on one generator yields exactly the values —
    and exactly the final RNG state — of one whole-array call, for any
    split, including zero rates and empty sub-arrays.
    """
    lam = np.asarray(lams, dtype=float)
    whole_rng = np.random.default_rng(123)
    whole = whole_rng.poisson(lam)
    split_rng = np.random.default_rng(123)
    parts = [split_rng.poisson(lam[i:i + chunk])
             for i in range(0, len(lams), chunk)]
    chunked = np.concatenate(parts) if parts else np.empty(0, dtype=whole.dtype)
    assert np.array_equal(whole, chunked)
    assert whole_rng.bit_generator.state == split_rng.bit_generator.state


# ----------------------------------------------------------------------
# 2. sharded replay ≡ whole-process replay
# ----------------------------------------------------------------------
def test_workers_one_equals_four_bytes():
    """The standard runner guarantee holds for trace_replay shards."""
    sweep = _small_sweep(shards=4)
    serial = ResilientSweepRunner(sweep, workers=1, on_failure="raise").run()
    parallel = ResilientSweepRunner(sweep, workers=4, on_failure="raise").run()
    assert canonical_json(serial) == canonical_json(parallel)
    assert canonical_json(merge_trace_shards(serial)) == \
        canonical_json(merge_trace_shards(parallel))


def test_run_twice_is_byte_stable():
    """Two independent builds+runs produce identical merged bytes."""
    first = merge_trace_shards(ResilientSweepRunner(_small_sweep(shards=3), workers=1, on_failure="raise").run())
    second = merge_trace_shards(ResilientSweepRunner(_small_sweep(shards=3), workers=1, on_failure="raise").run())
    assert canonical_json(first) == canonical_json(second)


def _merged(shards: int, workers: int = 1, **overrides):
    """The merged replay of the smoke-scale population in ``shards`` shards."""
    sweep = _small_sweep(shards=shards, **overrides)
    return merge_trace_shards(ResilientSweepRunner(sweep, workers=workers, on_failure="raise").run())


def test_shard_decomposition_invariance():
    """shards=1 and shards=4 merge to the same totals, rates, percentiles.

    Counters and histograms both sum exactly, so *different*
    decompositions of the same population must agree on every derived
    number — the strongest form of "sharding never changes results".
    """
    merged = {shards: _merged(shards) for shards in (1, 4)}
    for group in ("totals", "rates", "percentiles", "minutes"):
        assert canonical_json(merged[1][group]) == canonical_json(merged[4][group])
    assert merged[4]["percentiles"]["per_minute_invocations"]["exact"] is True
    assert merged[4]["shard_count"] == 4


def test_decompositions_agree_where_a_reservoir_would_have_sampled():
    """Byte-identical totals and percentiles however the population is cut.

    48 functions x 12 minutes is 72 to 576 per-minute counts a shard:
    far past the 16 slots at which the shard reservoir the histogram
    replaced began to sample, and so gave each decomposition its own
    percentiles.
    """
    merged = {shards: _merged(shards, functions=48, duration_minutes=12,
                              chunk_minutes=5)
              for shards in (1, 3, 4, 8)}
    reference = merged[1]
    for shards, one in merged.items():
        assert canonical_json(one["totals"]) == canonical_json(reference["totals"]), shards
        assert canonical_json(one["percentiles"]) == \
            canonical_json(reference["percentiles"]), shards
    percentiles = reference["percentiles"]["per_minute_invocations"]
    assert percentiles["count"] == 48 * 12 and percentiles["exact"] is True


def test_per_function_results_independent_of_shard():
    """A single function replays identically whatever shard runs it."""
    sweep = _small_sweep(shards=1)
    base = next(iter(sweep.expand()))
    from repro.scenarios.sweep import apply_overrides

    one = apply_overrides(base, {"params.function_range": [5, 6],
                                 "name": "solo"})
    wide = apply_overrides(base, {"params.function_range": [0, 24],
                                  "name": "wide"})
    solo = run_trace_replay(one).data["replay"]
    whole = run_trace_replay(wide).data["replay"]
    # the solo shard's invocations are bounded by (and consistent with)
    # the whole population's — and re-running it is byte-stable
    assert solo["invocations"] <= whole["invocations"]
    assert canonical_json(run_trace_replay(one).data) == \
        canonical_json(run_trace_replay(one).data)


def test_population_function_is_pure():
    """Functions derive from (seed, index) only — byte-stable, index-local."""
    population = {"seed": 2021, "sporadic_fraction": 0.4,
                  "rate_log10_mean": -2.0, "rate_log10_sigma": 0.8,
                  "functions": 100}
    a = population_function(17, population)
    b = population_function(17, population)
    assert a == b
    assert a.name == "fn-000017"
    assert a.config.mean_rate > 0
    assert a.slo_deadline > a.service_time > 0
    counts_a = synthesize_azure_trace(a.config, 5, trace_rng(2019, 17))
    counts_b = synthesize_azure_trace(b.config, 5, trace_rng(2019, 17))
    assert counts_a.tobytes() == counts_b.tobytes()


#: rate_log10_mean -> (functions with c* > 1, with c* > 32) over the first 300
SIZING_POPULATIONS = {-2.0: (0, 0), 1.0: (139, 6), 2.0: (267, 59)}


@pytest.mark.parametrize("rate_log10_mean", sorted(SIZING_POPULATIONS))
def test_the_replays_solver_sizing_equals_the_oracle_over_the_population(rate_log10_mean):
    """The replay sizes with the solver; the ``required_containers`` oracle agrees.

    The default population has c* = 1 throughout; the heavier ones walk
    past the first count and, for some functions, past the closed form's
    32 containers into the log-space body.
    """
    from repro.core.queueing.sizing import required_containers
    from repro.core.queueing.solver import SizingSolver
    from repro.scenarios.trace_shard import SIZING_PERCENTILE
    from repro.workloads.stream import DEFAULT_POPULATION

    population = dict(DEFAULT_POPULATION, rate_log10_mean=rate_log10_mean)
    solver = SizingSolver()
    sized = []
    for index in range(300):
        fn = population_function(index, population)
        query = dict(lam=fn.config.mean_rate, mu=1.0 / fn.service_time,
                     wait_budget=fn.slo_deadline, percentile=SIZING_PERCENTILE)
        containers = solver.solve(**query).containers
        assert required_containers(**query).containers == containers, index
        sized.append(containers)
    assert (sum(c > 1 for c in sized), sum(c > 32 for c in sized)) == \
        SIZING_POPULATIONS[rate_log10_mean]


def test_a_heavy_population_replays_the_oracles_container_counts():
    """A shard's ``containers`` is the oracle's count summed over its functions."""
    from repro.core.queueing.sizing import required_containers
    from repro.scenarios.trace_shard import SIZING_PERCENTILE

    population = {"functions": 40, "seed": 2021, "sporadic_fraction": 0.4,
                  "rate_log10_mean": 2.0, "rate_log10_sigma": 0.8}
    spec = ScenarioSpec(name="heavy", kind="trace_replay", params={
        "population": population, "trace_seed": 2019, "duration_minutes": 3,
        "chunk_minutes": 2, "function_range": [0, 40]})
    expected = 0
    for index in range(40):
        fn = population_function(index, population)
        expected += required_containers(
            lam=fn.config.mean_rate, mu=1.0 / fn.service_time,
            wait_budget=fn.slo_deadline, percentile=SIZING_PERCENTILE).containers
    replay = run_trace_replay(spec).data["replay"]
    assert replay["containers"] == expected > 40


def test_shard_ranges_tile_exactly():
    for functions, shards in ((10, 3), (24, 4), (7, 7), (1, 1), (100, 1)):
        ranges = shard_ranges(functions, shards)
        assert ranges[0][0] == 0 and ranges[-1][1] == functions
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1
    with pytest.raises(ValueError):
        shard_ranges(10, 11)
    with pytest.raises(ValueError):
        shard_ranges(10, 0)
    with pytest.raises(ValueError):
        shard_ranges(0, 1)


# ----------------------------------------------------------------------
# 3. exact histogram merge
# ----------------------------------------------------------------------
def _histogram(counts):
    """``[value, minutes]`` pairs of raw per-minute counts, as a shard writes them."""
    return [[value, minutes] for value, minutes in sorted(collections.Counter(counts).items())]


def _type1_quantile(counts, p):
    """Brute force: walk the sorted raw counts to the first whose rank reaches ``p·n``."""
    ordered = sorted(counts)
    for rank, value in enumerate(ordered, start=1):
        if rank >= p * len(ordered):
            return float(value)
    return 0.0


def _raw_counts(population, trace_seed, duration_minutes, lo, hi):
    """Every per-minute count of functions ``[lo, hi)``, regenerated one by one."""
    counts = []
    for index in range(lo, hi):
        fn = population_function(index, population)
        counts.extend(synthesize_azure_trace(fn.config, duration_minutes,
                                             trace_rng(trace_seed, index)).tolist())
    return counts


#: Per-minute counts are >60 % zeros: draw mostly from a handful of
#: small integers so ties dominate, with the odd large count.
_COUNTS = st.one_of(
    st.sampled_from([0, 0, 0, 0, 1, 1, 2, 7]),
    st.integers(min_value=0, max_value=500),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    counts=st.lists(_COUNTS, max_size=120),
    cuts=st.lists(st.integers(min_value=0, max_value=120), max_size=7),
    extra=st.lists(st.floats(min_value=0.001, max_value=0.999), max_size=4),
)
def test_histogram_quantiles_equal_the_pooled_type1_quantile(counts, cuts, extra):
    """Any split of the counts, empty shards and shards=1 included, merges exactly."""
    quantiles = (0.5, 0.90, 0.95, 0.99, *extra)
    edges = [0] + sorted(min(c, len(counts)) for c in cuts) + [len(counts)]
    split = [_histogram(counts[lo:hi]) for lo, hi in zip(edges, edges[1:])]
    merged = histogram_quantiles(split, quantiles)
    assert merged.pop("count") == len(counts)
    assert merged.pop("exact") is True
    assert merged == {f"p{round(p * 100)}": _type1_quantile(counts, p) for p in quantiles}
    # the same counts as one shard, and with an empty shard beside them
    assert histogram_quantiles([_histogram(counts)], quantiles) == \
        histogram_quantiles(split + [[]], quantiles)


def test_merged_percentiles_are_the_quantiles_of_every_replayed_minute():
    """Regenerate each function's trace on its own; the merge must be its exact quantiles."""
    sweep = _small_sweep(shards=3, functions=36, duration_minutes=10)
    params = sweep.base.params
    counts = _raw_counts(params["population"], params["trace_seed"], 10, 0, 36)
    merged = merge_trace_shards(ResilientSweepRunner(sweep, workers=1, on_failure="raise").run())
    percentiles = merged["percentiles"]["per_minute_invocations"]
    assert percentiles == {
        "count": 360, "exact": True,
        **{f"p{round(p * 100)}": _type1_quantile(counts, p) for p in (0.5, 0.90, 0.95, 0.99)},
    }
    assert merged["totals"]["invocations"] == sum(counts)
    assert merged["totals"]["peak_per_minute"] == max(counts)


def test_shard_histogram_is_the_exact_multiset_of_its_counts():
    """One shard's pairs are its raw counts tallied: sorted, nothing dropped, chunk-free."""
    spec = next(iter(_small_sweep(shards=4).expand()))
    lo, hi = spec.params["function_range"]
    counts = _raw_counts(spec.params["population"], spec.params["trace_seed"],
                         SMALL["duration_minutes"], lo, hi)
    replay = run_trace_replay(spec).data["replay"]
    assert replay["histogram"] == _histogram(counts)
    assert "sketch" not in replay
    from repro.scenarios.sweep import apply_overrides
    one_chunk = apply_overrides(spec, {"params.chunk_minutes": 1})
    assert run_trace_replay(one_chunk).data["replay"]["histogram"] == replay["histogram"]


def test_histogram_quantiles_of_nothing_and_bad_quantiles():
    assert histogram_quantiles([]) == {"count": 0, "exact": True,
                                       "p50": 0.0, "p90": 0.0, "p95": 0.0, "p99": 0.0}
    assert histogram_quantiles([[], []])["count"] == 0
    with pytest.raises(ValueError, match="quantiles"):
        histogram_quantiles([[[1, 1]]], quantiles=(1.5,))


def test_merge_trace_shards_permutation_regression():
    """Every order of the sweep's results list merges to the same bytes."""
    envelope = ResilientSweepRunner(_small_sweep(shards=4), workers=1, on_failure="raise").run()
    reference = canonical_json(merge_trace_shards(envelope))
    for results in itertools.permutations(envelope["results"]):
        shuffled = dict(envelope, results=list(results))
        assert canonical_json(merge_trace_shards(shuffled)) == reference


def _corrupt(replay):
    """Corruptions of one shard's ``replay`` group, each breaking one histogram check."""
    pairs = replay["histogram"]
    return {
        "values out of order": dict(replay, histogram=[pairs[1], pairs[0]] + pairs[2:]),
        "negative value": dict(replay, histogram=[[-1, 1]] + pairs),
        "float value": dict(replay, histogram=[[float(pairs[0][0]), pairs[0][1]]] + pairs[1:]),
        "zero minutes": dict(replay, histogram=pairs + [[pairs[-1][0] + 1, 0]]),
        "float minutes": dict(replay, histogram=[[pairs[0][0], float(pairs[0][1])]] + pairs[1:]),
        "minutes sum": dict(replay, histogram=pairs[:-1] + [[pairs[-1][0], pairs[-1][1] + 1]]),
        "functions vs range": dict(replay, functions=replay["functions"] + 1),
        "minutes vs params": dict(replay, minutes=replay["minutes"] + 1),
        "invocations": dict(replay, invocations=replay["invocations"] + 1),
        "zero_minutes": dict(replay, zero_minutes=replay["zero_minutes"] + 1),
        "peak_per_minute": dict(replay, peak_per_minute=replay["peak_per_minute"] + 1),
        "reservoir instead": dict(
            {k: v for k, v in replay.items() if k != "histogram"},
            sketch={"count": 1, "max_samples": 4096, "samples": [0.0]}),
    }


#: corruption -> what the refusal says
CORRUPTIONS = {
    "values out of order": "strictly increasing non-negative ints",
    "negative value": "strictly increasing non-negative ints",
    "float value": "strictly increasing non-negative ints",
    "zero minutes": "minutes must be positive ints",
    "float minutes": "minutes must be positive ints",
    "minutes sum": "shard's functions x minutes is 72",
    "functions vs range": "replay functions is 13, not the range's 12",
    "minutes vs params": "replay minutes is 7, not the params' duration_minutes 6",
    "invocations": "shard's invocations is",
    "zero_minutes": "shard's zero_minutes is",
    "peak_per_minute": "shard's peak_per_minute is",
    "reservoir instead": "no per-minute histogram",
}


@pytest.fixture(scope="module")
def two_shard_envelope():
    """A healthy two-shard sweep envelope of the smoke population."""
    return ResilientSweepRunner(_small_sweep(shards=2), workers=1, on_failure="raise").run()


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_merge_refuses_a_histogram_that_disagrees_with_its_counters(
        two_shard_envelope, corruption):
    """Each check names the shard; a pre-histogram result fails the same way."""
    first, second = two_shard_envelope["results"]
    assert len(first["replay"]["histogram"]) >= 2
    broken = dict(first, replay=_corrupt(first["replay"])[corruption])
    envelope = dict(two_shard_envelope, results=[second, broken])
    with pytest.raises(ValueError, match=r"^shard 'fig9-at-scale.*' \[0, 12\)") as refused:
        merge_trace_shards(envelope)
    assert CORRUPTIONS[corruption] in str(refused.value)
    assert merge_trace_shards(two_shard_envelope)["totals"]["functions"] == 24


#: path into the two-shard envelope -> what replaces it (``DELETE`` drops the key)
DELETE = object()
MALFORMED = {
    "range not a pair": (("results", 0, "replay", "function_range"), 5),
    "range of floats": (("results", 0, "replay", "function_range"), [0, 12.0]),
    "range truncated by int()": (("results", 0, "replay", "function_range"), [0, 4.5]),
    "range of bools": (("results", 0, "replay", "function_range"), [False, True]),
    "invocations None": (("results", 0, "replay", "invocations"), None),
    "containers a float": (("results", 0, "replay", "containers"), 3.0),
    "replay a list": (("results", 0, "replay"), []),
    "params None": (("results", 0, "scenario", "params"), None),
    "name not a string": (("results", 0, "scenario", "name"), 5),
    "result an int": (("results", 0), 5),
    "scenario missing": (("results", 0, "scenario"), DELETE),
    "population missing": (("results", 0, "scenario", "params", "population"), DELETE),
    "functions missing": (("results", 0, "scenario", "params", "population", "functions"),
                          DELETE),
    "duration zero": (("results", 0, "scenario", "params", "duration_minutes"), 0),
    "replay minutes missing": (("results", 0, "replay", "minutes"), DELETE),
    "replay containers missing": (("results", 0, "replay", "containers"), DELETE),
    "sweep missing": (("sweep",), DELETE),
    "results a dict": (("results",), {}),
    "envelope a list": ((), []),
}


def _replaced(envelope, path, value):
    """A deep copy of ``envelope`` with ``path`` replaced by ``value`` (or deleted)."""
    if not path:
        return value
    clone = copy.deepcopy(envelope)
    parent = clone
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return clone


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_merge_refuses_a_malformed_envelope_with_a_value_error(two_shard_envelope, case):
    """Every key the merge reads, missing or mistyped: a ``ValueError`` naming the shard.

    Before the shape check these were ``TypeError`` / ``KeyError``
    tracebacks, and ``[0, 4.5]`` was truncated and merged.
    """
    path, value = MALFORMED[case]
    envelope = _replaced(two_shard_envelope, path, value)
    snapshot = copy.deepcopy(envelope)
    with pytest.raises(ValueError) as refused:
        merge_trace_shards(envelope)
    if path[:1] == ("results",) and len(path) > 2:
        assert str(refused.value).startswith(("shard 'fig9-at-scale#0000'", "shard #0"))
    assert envelope == snapshot


def _paths(node, prefix=()):
    """Every key or index path inside a JSON-like value, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


#: wrong-typed stand-ins a hand-edited envelope or journal might carry
_JUNK = st.sampled_from([DELETE, None, 5, -1, 0, 4.5, True, "x", [], {}, [0, 4.5], [5],
                         [[0, 1]], {"functions": 5}])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_merge_of_a_mutated_envelope_is_a_merge_or_a_value_error(two_shard_envelope, data):
    """Up to three keys or items replaced or dropped anywhere: never another exception.

    A mutation the merge never reads (a sweep description's name, a
    replay's ``chunk_minutes``) may merge; anything else is refused with
    a ``ValueError``, and a refused call leaves its input as it was.
    """
    envelope = two_shard_envelope
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        path = data.draw(st.sampled_from(list(_paths(envelope))))
        junk = data.draw(_JUNK)
        envelope = _replaced(envelope, path, junk if path or junk is not DELETE else None)
    snapshot = copy.deepcopy(envelope)
    try:
        merged = merge_trace_shards(envelope)
    except ValueError:
        assert repr(envelope) == repr(snapshot)
    else:
        assert merged["schema"] == TRACE_MERGE_SCHEMA
        assert merged["totals"]["functions"] == 24


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats(allow_nan=False)
    | st.sampled_from(["fig9-at-scale", "x"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["scenario", "replay", "params", "name", "population",
                         "functions", "function_range", "minutes", "histogram"]),
        inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(results=st.lists(_JSON, min_size=1, max_size=3))
def test_merge_refuses_arbitrary_shard_results_with_a_value_error(two_shard_envelope, results):
    """Shard results that are any small JSON value: refused, and only ever with ``ValueError``."""
    envelope = dict(two_shard_envelope, results=results)
    snapshot = copy.deepcopy(results)
    with pytest.raises(ValueError):
        merge_trace_shards(envelope)
    assert repr(results) == repr(snapshot)


def test_resume_over_a_journal_from_before_the_histogram_recomputes(tmp_path):
    """A journal of reservoir-era shards matches no current spec: every shard reruns.

    Its ``ok`` records are keyed by the hash of a spec that still carried
    the reservoir bound, and their results carry a ``sketch``; resuming
    over it must neither reuse them (a traceback in the merge) nor mix
    them in (a wrong number), but recompute and merge what a fresh run
    would.
    """
    sweep = _small_sweep(shards=3)
    fresh = merge_trace_shards(ResilientSweepRunner(sweep, workers=1, on_failure="raise").run())
    journal = tmp_path / "journal.jsonl"
    for spec in sweep.expand():
        old_spec = spec.to_dict()
        old_spec["params"]["sketch_size"] = 4096
        result = run_trace_replay(spec).data
        result["replay"]["sketch"] = {"count": 48, "max_samples": 4096, "samples": [0.0]}
        del result["replay"]["histogram"]
        RunJournal(str(journal)).append({"event": "ok", "name": spec.name, "attempt": 1,
                                         "spec_hash": shard_spec_hash(old_spec),
                                         "result": result})
    runner = ResilientSweepRunner(sweep, workers=1, journal=str(journal), resume=True,
                                  on_failure="raise")
    resumed = merge_trace_shards(runner.run())
    assert canonical_json(resumed) == canonical_json(fresh)
    sweep_records = [r for r in RunJournal.read_records(str(journal)) if r["event"] == "sweep"]
    assert sweep_records[-1]["resumed"] == 0


def test_merge_rejects_bad_envelopes():
    envelope = ResilientSweepRunner(_small_sweep(shards=2), workers=1, on_failure="raise").run()
    assert merge_trace_shards(envelope)["schema"] == TRACE_MERGE_SCHEMA

    with pytest.raises(ValueError, match="envelope"):
        merge_trace_shards({"schema": "something-else"})
    degraded = dict(envelope, incomplete=True)
    with pytest.raises(ValueError, match="incomplete"):
        merge_trace_shards(degraded)
    with pytest.raises(ValueError, match="no shard results"):
        merge_trace_shards(dict(envelope, results=[]))
    # a non-replay result in the list
    alien = dict(envelope, results=[{"scenario": {"name": "x"}}])
    with pytest.raises(ValueError, match="not a trace_replay result"):
        merge_trace_shards(alien)
    # a gap in the coverage
    gappy = dict(envelope, results=[envelope["results"][1]])
    with pytest.raises(ValueError, match="tile"):
        merge_trace_shards(gappy)
    # duplicated shard → overlap
    doubled = dict(envelope, results=list(envelope["results"])
                   + [envelope["results"][0]])
    with pytest.raises(ValueError, match="tile"):
        merge_trace_shards(doubled)


# ----------------------------------------------------------------------
# 4. edge cases fail eagerly (trace configs, stats, replay params)
# ----------------------------------------------------------------------
def test_azure_config_validation():
    with pytest.raises(ValueError, match="mean_rate"):
        AzureTraceConfig(mean_rate=-1.0)
    with pytest.raises(ValueError, match="burst_probability"):
        AzureTraceConfig(mean_rate=1.0, burst_probability=1.5)
    with pytest.raises(ValueError, match="burst_duration"):
        AzureTraceConfig(mean_rate=1.0, burst_duration_minutes=0.0)
    with pytest.raises(ValueError, match="burst_multiplier"):
        AzureTraceConfig(mean_rate=1.0, burst_multiplier=0.0)
    with pytest.raises(ValueError, match="variability"):
        AzureTraceConfig(mean_rate=1.0, variability=-0.1)


def test_trace_statistics_edge_cases():
    assert trace_statistics({}) == {}

    single = synthesize_azure_traces(
        {"only": AzureTraceConfig(mean_rate=5.0)}, duration_minutes=10, seed=1)
    stats = trace_statistics(single)
    assert set(stats) == {"only"}
    assert stats["only"]["total"] == float(sum(single["only"].counts))

    zero = synthesize_azure_traces(
        {"idle": AzureTraceConfig(mean_rate=0.0)}, duration_minutes=10, seed=1)
    idle = trace_statistics(zero)["idle"]
    assert idle["total"] == 0.0
    assert idle["zero_minutes"] == 10.0
    assert idle["peak_to_mean"] == float("inf")


def test_trace_replay_spec_validates_eagerly():
    good = {
        "population": {"functions": 10, "seed": 1, "sporadic_fraction": 0.4,
                       "rate_log10_mean": -2.0, "rate_log10_sigma": 0.8},
        "trace_seed": 2019, "duration_minutes": 5, "chunk_minutes": 3,
        "function_range": [0, 10],
    }
    ScenarioSpec(name="ok", kind="trace_replay", params=good)

    def bad(**changes):
        params = json.loads(json.dumps(good))
        params.update(changes)
        return params

    with pytest.raises(ValueError, match="missing keys"):
        ScenarioSpec(name="x", kind="trace_replay",
                     params={k: v for k, v in good.items() if k != "trace_seed"})
    with pytest.raises(ValueError, match="population missing key"):
        ScenarioSpec(name="x", kind="trace_replay",
                     params=bad(population={"functions": 10}))
    with pytest.raises(ValueError, match="sporadic_fraction"):
        ScenarioSpec(name="x", kind="trace_replay", params=bad(
            population=dict(good["population"], sporadic_fraction=1.5)))
    with pytest.raises(ValueError, match="rate_log10_sigma"):
        ScenarioSpec(name="x", kind="trace_replay", params=bad(
            population=dict(good["population"], rate_log10_sigma=-1.0)))
    with pytest.raises(ValueError, match="functions"):
        ScenarioSpec(name="x", kind="trace_replay", params=bad(
            population=dict(good["population"], functions=0)))
    with pytest.raises(ValueError, match="duration_minutes"):
        ScenarioSpec(name="x", kind="trace_replay", params=bad(duration_minutes=0))
    with pytest.raises(ValueError, match="chunk_minutes"):
        ScenarioSpec(name="x", kind="trace_replay", params=bad(chunk_minutes=0))
    # the reservoir bound of replays before exact percentiles is refused by name
    with pytest.raises(ValueError, match="unknown keys: \\['sketch_size'\\]"):
        ScenarioSpec(name="x", kind="trace_replay", params=bad(sketch_size=4096))
    with pytest.raises(ValueError, match="function_range"):
        ScenarioSpec(name="x", kind="trace_replay", params=bad(function_range=[4]))
    with pytest.raises(ValueError, match="function_range"):
        ScenarioSpec(name="x", kind="trace_replay",
                     params=bad(function_range=[6, 6]))
    with pytest.raises(ValueError, match="function_range"):
        ScenarioSpec(name="x", kind="trace_replay",
                     params=bad(function_range=[0, 11]))
    with pytest.raises(ValueError, match="workloads"):
        from repro.scenarios.spec import ScheduleSpec, WorkloadSpec
        ScenarioSpec(name="x", kind="trace_replay", params=good, workloads=(
            WorkloadSpec("squeezenet", ScheduleSpec.static(1.0)),))


def test_trace_replay_spec_round_trips():
    """from_dict(to_dict()) reproduces the shard spec exactly."""
    spec = next(iter(_small_sweep(shards=3).expand()))
    clone = ScenarioSpec.from_dict(spec.to_dict())
    assert canonical_json(clone.to_dict()) == canonical_json(spec.to_dict())


# ----------------------------------------------------------------------
# The experiment wrapper and its text rendering
# ----------------------------------------------------------------------
def test_fig9_at_scale_experiment_end_to_end():
    from repro.experiments import run_fig9_at_scale
    from repro.experiments.fig9_at_scale import format_fig9_at_scale

    result = run_fig9_at_scale(functions=24, duration_minutes=6, shards=4,
                               workers=2, chunk_minutes=4)
    assert result.functions == 24
    assert result.shard_count == 4
    assert result.duration_minutes == 6
    assert result.invocations == result.merged["totals"]["invocations"]
    assert 0.0 <= result.overload_fraction <= 1.0
    assert 0.0 <= result.zero_fraction <= 1.0
    text = format_fig9_at_scale(result)
    assert "Azure-scale streaming replay" in text
    assert "24 functions" in text and "4 shards" in text
    assert "sampled" not in text


# ----------------------------------------------------------------------
# CLI: the replay verb end to end
# ----------------------------------------------------------------------
def test_cli_replay_byte_identical_across_workers(tmp_path):
    from repro.cli import main

    args = ["replay", "--functions", "24", "--minutes", "6", "--shards", "4",
            "--chunk-minutes", "4"]
    out1 = tmp_path / "one.json"
    out4 = tmp_path / "four.json"
    assert main(args + ["-j", "1", "-o", str(out1)]) == 0
    assert main(args + ["-j", "4", "-o", str(out4)]) == 0
    assert out1.read_bytes() == out4.read_bytes()
    merged = json.loads(out1.read_text())
    assert merged["schema"] == TRACE_MERGE_SCHEMA
    assert merged["totals"]["functions"] == 24
    assert merged["shard_count"] == 4


def test_cli_replay_resume_over_a_corrupted_journal_exits_2(tmp_path, capsys):
    """An ``ok`` record whose result the merge refuses: one line on stderr, exit 2, no output."""
    from repro.cli import main

    journal = tmp_path / "journal.jsonl"
    args = ["replay", "--functions", "8", "--minutes", "4", "--shards", "2",
            "--chunk-minutes", "3", "--journal", str(journal)]
    assert main(args + ["-o", str(tmp_path / "first.json")]) == 0
    records = [json.loads(line) for line in journal.read_text().splitlines()]
    ok = next(record for record in records if record["event"] == "ok")
    ok["result"]["replay"]["function_range"] = 5
    journal.write_text("".join(json.dumps(record) + "\n" for record in records))
    capsys.readouterr()
    resumed = tmp_path / "resumed.json"
    assert main(args + ["--resume", "-o", str(resumed)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("replay merge refused: shard 'fig9-at-scale#")
    assert "function_range" in err and err.count("\n") == 1
    assert not resumed.exists()


def test_cli_replay_usage_errors(tmp_path, capsys):
    from repro.cli import main

    assert main(["replay", "--resume"]) == 2
    assert main(["replay", "--functions", "4", "--shards", "9",
                 "--minutes", "2"]) == 2
    with pytest.raises(SystemExit) as usage:
        main(["replay", "--sketch-size", "64"])
    assert usage.value.code == 2
    # a shard spec written before exact percentiles: exit 2, the key named
    shard = next(iter(_small_sweep(shards=2).expand())).to_dict()
    shard["params"]["sketch_size"] = 64
    path = tmp_path / "old_shard.json"
    path.write_text(json.dumps(shard), encoding="utf-8")
    capsys.readouterr()
    assert main(["scenario", str(path)]) == 2
    assert "sketch_size" in capsys.readouterr().err
