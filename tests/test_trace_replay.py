"""Equivalence harness for the streaming trace replay (PR 9).

Four contracts are pinned here:

1. **Chunked ≡ monolithic synthesis** — byte-for-byte, at every chunk
   size, because NumPy ``Generator.poisson`` consumes the bit stream
   element-sequentially (a hypothesis property) and the azure generator
   draws in two ordered passes.
2. **Sharded ≡ whole-process replay** — the merged envelope is
   byte-identical across worker counts, run-twice stable, and — with an
   exhaustive sketch — identical across *different* shard
   decompositions of the same population.
3. **Reservoir-merge determinism** — the cross-shard percentile merge
   is order-insensitive (a pure function of the multiset of shard
   states), with regression tests on both the raw merge and the full
   envelope merge.
4. **Edge cases fail eagerly** — invalid trace configs, invalid
   replay params, and degraded sweep envelopes raise instead of
   producing silently-wrong numbers.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.streaming import ReservoirQuantiles, merge_reservoir_states
from repro.scenarios import build, canonical_json
from repro.scenarios.executor import ResilientSweepRunner
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.trace_shard import (
    TRACE_MERGE_SCHEMA,
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
SMALL = dict(functions=24, duration_minutes=6, chunk_minutes=4, sketch_size=64)


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


def test_shard_decomposition_invariance_with_exhaustive_sketch():
    """shards=1 and shards=4 merge to the same totals, rates, percentiles.

    With a sketch large enough to retain every observation the merge is
    exact, so *different* decompositions of the same population must
    agree on every derived number — the strongest form of "sharding
    never changes results".
    """
    merged = {}
    for shards in (1, 4):
        sweep = _small_sweep(shards=shards, sketch_size=10_000)
        merged[shards] = merge_trace_shards(ResilientSweepRunner(sweep, workers=1, on_failure="raise").run())
    for group in ("totals", "rates", "percentiles", "minutes"):
        assert canonical_json(merged[1][group]) == canonical_json(merged[4][group])
    assert merged[4]["percentiles"]["per_minute_invocations"]["exact"] is True
    assert merged[4]["shard_count"] == 4


def test_sampled_sketch_counters_still_invariant():
    """Even when sketches overflow, the integer counters never drift."""
    merged = {}
    for shards in (1, 4):
        sweep = _small_sweep(shards=shards, sketch_size=16)
        merged[shards] = merge_trace_shards(ResilientSweepRunner(sweep, workers=1, on_failure="raise").run())
    assert merged[1]["totals"] == merged[4]["totals"]
    assert merged[1]["percentiles"]["per_minute_invocations"]["exact"] is False


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


def test_scalar_sizing_equals_the_solver_path_over_the_population():
    """The replay sizes with the scalar oracle; a cold solver agrees."""
    from repro.core.queueing.sizing import required_containers
    from repro.core.queueing.solver import SizingSolver
    from repro.scenarios.trace_shard import SIZING_PERCENTILE
    from repro.workloads.stream import DEFAULT_POPULATION

    solver = SizingSolver()
    for index in range(300):
        fn = population_function(index, DEFAULT_POPULATION)
        query = dict(lam=fn.config.mean_rate, mu=1.0 / fn.service_time,
                     wait_budget=fn.slo_deadline, percentile=SIZING_PERCENTILE)
        assert required_containers(**query).containers == \
            solver.solve(**query).containers


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
# 3. reservoir-merge determinism
# ----------------------------------------------------------------------
def _reservoir_state(values, max_samples=4096):
    sketch = ReservoirQuantiles(max_samples=max_samples)
    for value in values:
        sketch.add(float(value))
    return sketch.state()


def test_reservoir_state_snapshot():
    state = _reservoir_state([3.0, 1.0, 2.0], max_samples=10)
    assert state == {"count": 3, "max_samples": 10, "samples": [1.0, 2.0, 3.0]}
    overflowed = _reservoir_state(range(100), max_samples=10)
    assert overflowed["count"] == 100
    assert len(overflowed["samples"]) == 10
    assert overflowed["samples"] == sorted(overflowed["samples"])


def _reference_reservoir(values, max_samples, seed=2029):
    """Algorithm R written out independently of the sketch class.

    Keep the first ``max_samples``; observation ``n`` after that is
    accepted when ``U1 * n < max_samples`` and then evicts the resident
    at sorted position ``int(U2 * max_samples)``.  Returns the sorted
    sample and the RNG end state.
    """
    rng = random.Random(seed)
    kept = []
    for n, value in enumerate(values, start=1):
        if n > max_samples:
            if not rng.random() * n < max_samples:
                continue
            del kept[int(rng.random() * max_samples)]
        kept.append(value)
        kept.sort()
    return kept, rng.getstate()


#: Per-minute counts are >60 % zeros: draw mostly from a handful of
#: small integers so ties dominate, with the odd continuous value.
_TIED_VALUES = st.one_of(
    st.sampled_from([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 7.0]),
    st.floats(min_value=0.0, max_value=50.0),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    values=st.lists(_TIED_VALUES, max_size=80),
    max_samples=st.integers(min_value=10, max_value=30),
    cuts=st.lists(st.integers(min_value=0, max_value=80), max_size=6),
)
def test_add_many_equals_add_loop(values, max_samples, cuts):
    """``add_many`` over any split of the stream ≡ ``add`` per element.

    Samples, count *and* the stdlib RNG state agree — so the two can be
    interleaved freely — for batches that are empty, end exactly on
    ``max_samples``, or straddle it, and both agree with an independent
    reference on a sampled (overflowed) sketch.
    """
    one_by_one = ReservoirQuantiles(max_samples=max_samples)
    for value in values:
        one_by_one.add(value)

    batched = ReservoirQuantiles(max_samples=max_samples)
    edges = [0] + sorted(min(c, len(values)) for c in cuts) + [len(values)]
    for lo, hi in zip(edges, edges[1:]):
        batched.add_many(values[lo:hi])
    batched.add_many([])

    assert batched.state() == one_by_one.state()
    assert batched._rng.getstate() == one_by_one._rng.getstate()
    assert batched.count == one_by_one.count == len(values)
    for p in (0.5, 0.95, 0.99):
        assert batched.quantile(p) == one_by_one.quantile(p)

    # the cut that lands exactly on the fill boundary, every example
    at_boundary = ReservoirQuantiles(max_samples=max_samples)
    at_boundary.add_many(values[:max_samples])
    at_boundary.add_many(values[max_samples:])
    assert at_boundary.state() == one_by_one.state()
    assert at_boundary._rng.getstate() == one_by_one._rng.getstate()

    kept, rng_state = _reference_reservoir(values, max_samples)
    assert batched.state()["samples"] == kept
    assert batched._rng.getstate() == rng_state


def test_add_many_accepts_any_iterable_and_interleaves_with_add():
    """A generator is consumed once; ``add`` and ``add_many`` share one stream."""
    values = [float(v % 7) for v in range(200)]
    reference = _reservoir_state(values, max_samples=16)
    mixed = ReservoirQuantiles(max_samples=16)
    mixed.add_many(v for v in values[:5])
    mixed.add(values[5])
    mixed.add_many(iter(values[6:150]))
    for value in values[150:]:
        mixed.add(value)
    assert mixed.state() == reference
    assert reference["count"] == 200 and len(reference["samples"]) == 16


def test_merge_is_order_insensitive():
    """Permuting shard states can never change a merged byte."""
    rng = random.Random(5)
    states = [_reservoir_state([rng.uniform(0, 100) for _ in range(40)],
                               max_samples=16)  # sampled regime
              for _ in range(6)]
    reference = merge_reservoir_states(states)
    for _ in range(10):
        rng.shuffle(states)
        assert canonical_json(merge_reservoir_states(states)) == \
            canonical_json(reference)


def _walked_merge(states, quantiles):
    """The weighted type-1 inverted CDF by a walk from the start per quantile.

    What :func:`merge_reservoir_states` did before it took the running
    sums once: the reference its vectorised form must match to the byte.
    """
    pairs = []
    for state in states:
        if state["samples"]:
            weight = int(state["count"]) / len(state["samples"])
            pairs.extend((float(v), weight) for v in state["samples"])
    pairs.sort()
    total_weight = sum(w for _, w in pairs)
    merged = {}
    for p in quantiles:
        cumulative = 0.0
        value = pairs[-1][0] if pairs else 0.0
        for v, w in pairs:
            cumulative += w
            if cumulative >= p * total_weight:
                value = v
                break
        merged[f"p{round(p * 100)}"] = float(value)
    return merged


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    streams=st.lists(
        st.tuples(st.lists(_TIED_VALUES, max_size=60),
                  st.sampled_from([10, 16, 33])),
        max_size=5),
    extra=st.lists(st.floats(min_value=0.001, max_value=0.999), max_size=4),
)
def test_merge_equals_walked_reference(streams, extra):
    """Shards with unequal weights, heavy ties, empty and unfilled sketches."""
    states = [_reservoir_state(values, max_samples=k) for values, k in streams]
    quantiles = (0.5, 0.90, 0.95, 0.99, *extra)
    merged = merge_reservoir_states(states, quantiles)
    assert merged.pop("count") == sum(len(values) for values, _ in streams)
    assert merged.pop("exact") == all(len(v) <= k for v, k in streams)
    assert canonical_json(merged) == canonical_json(_walked_merge(states, quantiles))


def test_merge_exact_equals_any_decomposition():
    """With full retention, the merge is a pure function of the pooled data."""
    rng = random.Random(9)
    values = [rng.uniform(0, 50) for _ in range(200)]
    pooled = merge_reservoir_states([_reservoir_state(values)])
    for k in (2, 5, 8):
        cuts = sorted(rng.sample(range(1, len(values)), k - 1))
        groups = [values[a:b] for a, b in
                  zip([0] + cuts, cuts + [len(values)])]
        split = merge_reservoir_states([_reservoir_state(g) for g in groups])
        assert canonical_json(split) == canonical_json(pooled)
    assert pooled["exact"] is True
    assert pooled["count"] == 200


def test_merge_flags_sampled_states_and_validates_quantiles():
    sampled = merge_reservoir_states([_reservoir_state(range(100),
                                                       max_samples=10)])
    assert sampled["exact"] is False
    empty = merge_reservoir_states([])
    assert empty == {"count": 0, "exact": True,
                     "p50": 0.0, "p90": 0.0, "p95": 0.0, "p99": 0.0}
    with pytest.raises(ValueError, match="quantiles"):
        merge_reservoir_states([_reservoir_state([1.0])], quantiles=(1.5,))


def test_merge_trace_shards_permutation_regression():
    """Shuffling the sweep's results list never changes merged bytes."""
    envelope = ResilientSweepRunner(_small_sweep(shards=4), workers=1, on_failure="raise").run()
    reference = canonical_json(merge_trace_shards(envelope))
    shuffled = dict(envelope)
    results = list(envelope["results"])
    rng = random.Random(3)
    for _ in range(5):
        rng.shuffle(results)
        shuffled["results"] = list(results)
        assert canonical_json(merge_trace_shards(shuffled)) == reference


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
        "sketch_size": 16, "function_range": [0, 10],
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
    with pytest.raises(ValueError, match="sketch_size"):
        ScenarioSpec(name="x", kind="trace_replay", params=bad(sketch_size=5))
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
                               workers=2, chunk_minutes=4, sketch_size=1000)
    assert result.functions == 24
    assert result.shard_count == 4
    assert result.duration_minutes == 6
    assert result.invocations == result.merged["totals"]["invocations"]
    assert 0.0 <= result.overload_fraction <= 1.0
    assert 0.0 <= result.zero_fraction <= 1.0
    text = format_fig9_at_scale(result)
    assert "Azure-scale streaming replay" in text
    assert "24 functions" in text and "4 shards" in text


# ----------------------------------------------------------------------
# CLI: the replay verb end to end
# ----------------------------------------------------------------------
def test_cli_replay_byte_identical_across_workers(tmp_path):
    from repro.cli import main

    args = ["replay", "--functions", "24", "--minutes", "6", "--shards", "4",
            "--chunk-minutes", "4", "--sketch-size", "64"]
    out1 = tmp_path / "one.json"
    out4 = tmp_path / "four.json"
    assert main(args + ["-j", "1", "-o", str(out1)]) == 0
    assert main(args + ["-j", "4", "-o", str(out4)]) == 0
    assert out1.read_bytes() == out4.read_bytes()
    merged = json.loads(out1.read_text())
    assert merged["schema"] == TRACE_MERGE_SCHEMA
    assert merged["totals"]["functions"] == 24
    assert merged["shard_count"] == 4


def test_cli_replay_usage_errors(tmp_path):
    from repro.cli import main

    assert main(["replay", "--resume"]) == 2
    assert main(["replay", "--functions", "4", "--shards", "9",
                 "--minutes", "2"]) == 2
