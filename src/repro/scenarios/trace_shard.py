"""Sharded, constant-memory replay of an Azure-scale trace population.

This is the execution layer of the ``fig9-at-scale`` experiment: tens of
thousands of synthetic functions (heavy-tailed rates, sporadic/steady
mix — :mod:`repro.workloads.stream`) replayed against the paper's M/M/c
capacity model, sharded over the resilient sweep runner and merged into
one federated-style envelope.

Memory model
------------
One shard holds, at any instant: one function's rate series
(``duration_minutes`` floats), one chunk of counts (``chunk_minutes``
ints), the running integer counters, and one bounded reservoir sketch
(``sketch_size`` floats).  Nothing scales with the number of functions
or invocations — a shard of 10 functions and a shard of 10,000 have the
same resident footprint, which is what makes a week-long replay
journal-resumable without spilling.  The per-minute work is batched
*within* one function only — its rate series in block draws, each chunk
into the sketch through one ``ReservoirQuantiles.add_many`` call — and
each function is sized on its own with the scalar
``required_containers`` (one M/M/c evaluation concludes c* = 1 for
nearly the whole population); nothing is batched across functions.

Determinism contract
--------------------
* Every per-function quantity is a pure function of ``(population seed,
  trace seed, global index)`` — shard boundaries cannot perturb a
  function (seeding via ``SeedSequence(seed, spawn_key=(index,))``).
* Within a shard, functions are replayed in ascending global index and
  every per-minute count is fed to the shard sketch in that order, so a
  shard's result is a pure function of its ``function_range``.
  ``add_many`` consumes the sketch's RNG exactly as one ``add`` per
  count would (one draw per observation once the reservoir is full, a
  second per accepted one), so ``chunk_minutes`` never reaches the
  sketch either.
* Across shards, :func:`merge_trace_shards` sorts shard results by
  ``function_range`` and merges reservoir sketches with the
  order-insensitive weighted quantile of
  :func:`repro.metrics.streaming.merge_reservoir_states` — the merged
  envelope is a pure function of the *set* of shard results, pinned by
  permutation tests in ``tests/test_trace_replay.py``.

Together with the resilient runner's workers=1 ≡ N guarantee, this
makes the merged envelope byte-identical across worker counts and
across interrupt+resume.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

# Everything a replay shard runs is imported here, at module top: the
# sweep's parent process loads this module when it builds the shards, so
# forked workers inherit the sizing chain instead of importing it again.
from repro.core.queueing.sizing import required_containers
from repro.metrics.streaming import ReservoirQuantiles, merge_reservoir_states
from repro.scenarios.runner import ScenarioOutcome, _envelope
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.sweep import SWEEP_RESULT_SCHEMA
from repro.workloads.stream import (
    iter_azure_trace_chunks,
    population_function,
    trace_rng,
)

#: Schema identifier of the merged (federated-style) replay envelope.
TRACE_MERGE_SCHEMA = "repro/trace-replay@1"

#: Percentile of the per-function sizing model (the paper's default).
SIZING_PERCENTILE = 0.95


def shard_ranges(functions: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``[0, functions)`` into ``shards`` contiguous ``[lo, hi)`` ranges.

    The canonical decomposition used by the ``fig9-at-scale`` sweep:
    range ``i`` is ``[i*functions//shards, (i+1)*functions//shards)``,
    so the ranges tile the population exactly and differ in size by at
    most one.
    """
    if functions < 1:
        raise ValueError("functions must be >= 1")
    if not 1 <= shards <= functions:
        raise ValueError("shards must be in [1, functions]")
    return [
        (i * functions // shards, (i + 1) * functions // shards)
        for i in range(shards)
    ]


def run_trace_replay(spec: ScenarioSpec) -> ScenarioOutcome:
    """Replay one shard (``params.function_range``) of the population.

    Streams each function's trace chunk-by-chunk through the integer
    counters and the shard's reservoir sketch (see the module docstring
    for the memory and determinism contracts).  Every counter in the
    ``replay`` group is an integer — exactness is what lets
    :func:`merge_trace_shards` produce identical totals for *any* shard
    decomposition of the same population.
    """
    params = dict(spec.params)
    population = dict(params["population"])
    duration_minutes = int(params["duration_minutes"])
    chunk_minutes = int(params["chunk_minutes"])
    sketch_size = int(params["sketch_size"])
    lo, hi = (int(v) for v in params["function_range"])

    sketch = ReservoirQuantiles(max_samples=sketch_size)
    invocations = 0
    zero_minutes = 0
    overload_minutes = 0
    peak_per_minute = 0
    containers = 0
    sporadic_functions = 0

    for index in range(lo, hi):
        fn = population_function(index, population)
        sporadic_functions += int(fn.config.sporadic)
        sizing = required_containers(
            lam=fn.config.mean_rate,
            mu=1.0 / fn.service_time,
            wait_budget=fn.slo_deadline,
            percentile=SIZING_PERCENTILE,
        )
        containers += sizing.containers
        # what the sized allocation can serve in one minute
        capacity_per_minute = sizing.containers * 60.0 / fn.service_time
        rng = trace_rng(int(params["trace_seed"]), index)
        for chunk in iter_azure_trace_chunks(fn.config, duration_minutes,
                                             rng, chunk_minutes):
            invocations += int(chunk.sum())
            zero_minutes += int((chunk == 0).sum())
            overload_minutes += int((chunk > capacity_per_minute).sum())
            peak_per_minute = max(peak_per_minute, int(chunk.max()))
            sketch.add_many(chunk.astype(float).tolist())

    replay = {
        "function_range": [lo, hi],
        "functions": hi - lo,
        "sporadic_functions": sporadic_functions,
        "minutes": duration_minutes,
        "chunk_minutes": chunk_minutes,
        "invocations": invocations,
        "zero_minutes": zero_minutes,
        "overload_minutes": overload_minutes,
        "peak_per_minute": peak_per_minute,
        "containers": containers,
        "sketch": sketch.state(),
    }
    return ScenarioOutcome(spec=spec, data=_envelope(spec, replay=replay), sim=None)


def _shard_key(result: Mapping[str, Any]) -> Tuple[int, int]:
    """Canonical ordering key of one shard result (its function range)."""
    lo, hi = result["replay"]["function_range"]
    return (int(lo), int(hi))


def merge_trace_shards(envelope: Mapping[str, Any]) -> Dict[str, Any]:
    """Merge a sweep envelope of shard results into one replay envelope.

    Shards are re-sorted into canonical ``function_range`` order, their
    ranges checked to tile the population exactly (no gaps, no
    overlaps), integer counters summed (peak taken as max), and the
    reservoir sketches merged with the order-insensitive weighted
    quantile — so the output is a pure function of the set of shard
    results, regardless of sweep expansion or completion order.  Float
    aggregates (``rates``) are derived once, here, from the integer
    totals.  Raises :class:`ValueError` on a degraded (``incomplete``)
    sweep envelope — merging a partial replay would silently understate
    every total.
    """
    if envelope.get("schema") != SWEEP_RESULT_SCHEMA:
        raise ValueError(f"expected a {SWEEP_RESULT_SCHEMA} envelope")
    if envelope.get("incomplete"):
        raise ValueError("cannot merge an incomplete sweep envelope; "
                         "re-run with --resume until it completes")
    results: Sequence[Mapping[str, Any]] = envelope["results"]
    if not results:
        raise ValueError("sweep envelope has no shard results")
    for result in results:
        if "replay" not in result:
            name = result.get("scenario", {}).get("name", "?")
            raise ValueError(f"shard {name!r} is not a trace_replay result")
    ordered = sorted(results, key=_shard_key)

    base_params = dict(ordered[0]["scenario"]["params"])
    functions_total = int(base_params["population"]["functions"])
    expected_lo = 0
    for result in ordered:
        lo, hi = _shard_key(result)
        if lo != expected_lo:
            raise ValueError(
                f"shard ranges do not tile the population: expected a shard "
                f"starting at {expected_lo}, got [{lo}, {hi})"
            )
        expected_lo = hi
        shard_params = dict(result["scenario"]["params"])
        for key, value in base_params.items():
            if key != "function_range" and shard_params.get(key) != value:
                raise ValueError(
                    f"shard [{lo}, {hi}) disagrees on param {key!r}; "
                    "all shards must replay the same population"
                )
    if expected_lo != functions_total:
        raise ValueError(
            f"shard ranges cover [0, {expected_lo}) but the population has "
            f"{functions_total} functions"
        )

    totals = {
        "functions": functions_total,
        "sporadic_functions": 0,
        "invocations": 0,
        "zero_minutes": 0,
        "overload_minutes": 0,
        "peak_per_minute": 0,
        "containers": 0,
    }
    shards_out: List[Dict[str, Any]] = []
    for result in ordered:
        replay = result["replay"]
        totals["sporadic_functions"] += int(replay["sporadic_functions"])
        totals["invocations"] += int(replay["invocations"])
        totals["zero_minutes"] += int(replay["zero_minutes"])
        totals["overload_minutes"] += int(replay["overload_minutes"])
        totals["peak_per_minute"] = max(totals["peak_per_minute"],
                                        int(replay["peak_per_minute"]))
        totals["containers"] += int(replay["containers"])
        shards_out.append({
            "name": result["scenario"]["name"],
            "function_range": list(replay["function_range"]),
            "functions": int(replay["functions"]),
            "invocations": int(replay["invocations"]),
        })

    minutes = int(base_params["duration_minutes"])
    function_minutes = functions_total * minutes
    merged_sketch = merge_reservoir_states(
        r["replay"]["sketch"] for r in ordered
    )
    return {
        "schema": TRACE_MERGE_SCHEMA,
        "sweep": dict(envelope["sweep"]),
        "shard_count": len(ordered),
        "shards": shards_out,
        "minutes": minutes,
        "totals": totals,
        "rates": {
            "invocations_per_function_minute":
                totals["invocations"] / function_minutes,
            "overload_fraction":
                totals["overload_minutes"] / function_minutes,
            "zero_fraction": totals["zero_minutes"] / function_minutes,
            "containers_per_function": totals["containers"] / functions_total,
        },
        "percentiles": {"per_minute_invocations": merged_sketch},
    }


__all__ = [
    "SIZING_PERCENTILE",
    "TRACE_MERGE_SCHEMA",
    "merge_trace_shards",
    "run_trace_replay",
    "shard_ranges",
]
