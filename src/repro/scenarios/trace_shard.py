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
ints), the running integer counters, and one histogram of per-minute
counts (``{count: minutes}``, one entry per *distinct* count seen).
Per-minute counts are small non-negative integers, so the histogram is
exact and its size is the number of distinct counts — a few hundred on
a day of the default population — not the number of functions or
invocations: a shard of 10 functions and a shard of 10,000 have the
same resident footprint, which is what makes a week-long replay
journal-resumable without spilling.  The per-minute work is batched
*within* one function only — its rate series in block draws, each chunk
into the histogram through one ``np.unique`` call, from whose values and
counts every integer counter is read — and each function is sized on
its own by the shard's one :class:`~repro.core.queueing.solver.SizingSolver`
(``solve``: one closed-form probe concludes c* = 1 for nearly the whole
population, and the counts equal the ``required_containers`` oracle's);
nothing is batched across functions.

Determinism contract
--------------------
* Every per-function quantity is a pure function of ``(population seed,
  trace seed, global index)`` — shard boundaries cannot perturb a
  function (seeding via ``SeedSequence(seed, spawn_key=(index,))``).
* Within a shard, functions are replayed in ascending global index, so
  a shard's result is a pure function of its ``function_range``; the
  histogram is a multiset of counts, so ``chunk_minutes`` cannot reach
  it either.
* Across shards, :func:`merge_trace_shards` sorts shard results by
  ``function_range``, checks every histogram against its shard's own
  integer counters, sums the histograms and reads each percentile off
  the pooled counts (:func:`histogram_quantiles`).  Summation is exact
  and order-free, so the merged envelope — percentiles included — is a
  pure function of the replayed *population*: identical for every shard
  decomposition, shard permutation and worker count, and across
  interrupt+resume (pinned in ``tests/test_trace_replay.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

# Everything a replay shard runs is imported here, at module top: the
# sweep's parent process loads this module when it builds the shards, so
# forked workers inherit the sizing chain instead of importing it again.
from repro.core.queueing.solver import SizingSolver
from repro.scenarios.runner import ScenarioOutcome, _envelope
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.sweep import SWEEP_RESULT_SCHEMA
from repro.spec_fields import is_count
from repro.workloads.stream import (
    iter_azure_trace_chunks,
    population_function,
    trace_rng,
)

#: Schema identifier of the merged (federated-style) replay envelope.
TRACE_MERGE_SCHEMA = "repro/trace-replay@1"

#: Percentile of the per-function sizing model (the paper's default).
SIZING_PERCENTILE = 0.95

#: Percentiles of the per-minute invocation counts the merge reports.
REPORTED_QUANTILES = (0.5, 0.90, 0.95, 0.99)


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
    counters and the shard's histogram of per-minute counts (see the
    module docstring for the memory and determinism contracts).  Every
    number in the ``replay`` group is an integer — exactness is what
    lets :func:`merge_trace_shards` produce identical totals and
    percentiles for *any* shard decomposition of the same population.
    """
    params = dict(spec.params)
    population = dict(params["population"])
    duration_minutes = int(params["duration_minutes"])
    chunk_minutes = int(params["chunk_minutes"])
    lo, hi = (int(v) for v in params["function_range"])

    histogram: Dict[int, int] = {}
    invocations = 0
    zero_minutes = 0
    overload_minutes = 0
    peak_per_minute = 0
    containers = 0
    sporadic_functions = 0

    solver = SizingSolver()
    for index in range(lo, hi):
        fn = population_function(index, population)
        sporadic_functions += int(fn.config.sporadic)
        sized = solver.solve(fn.config.mean_rate, 1.0 / fn.service_time,
                             fn.slo_deadline, SIZING_PERCENTILE).containers
        containers += sized
        # what the sized allocation can serve in one minute
        capacity_per_minute = sized * 60.0 / fn.service_time
        rng = trace_rng(int(params["trace_seed"]), index)
        for chunk in iter_azure_trace_chunks(fn.config, duration_minutes,
                                             rng, chunk_minutes):
            # every counter is read off the chunk's histogram: its values
            # ascend, so the last is the chunk's peak and a 0 comes first
            values, minutes = np.unique(chunk, return_counts=True)
            values, minutes = values.tolist(), minutes.tolist()
            for value, count in zip(values, minutes):
                histogram[value] = histogram.get(value, 0) + count
                invocations += value * count
                if value > capacity_per_minute:
                    overload_minutes += count
            if values[0] == 0:
                zero_minutes += minutes[0]
            peak_per_minute = max(peak_per_minute, values[-1])

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
        "histogram": [[value, histogram[value]] for value in sorted(histogram)],
    }
    return ScenarioOutcome(spec=spec, data=_envelope(spec, replay=replay), sim=None)


def _shard_key(result: Mapping[str, Any]) -> Tuple[int, int]:
    """Canonical ordering key of one shape-checked shard result (its function range)."""
    lo, hi = result["replay"]["function_range"]
    return (lo, hi)


#: The integer counters of a shard's ``replay`` group the merge reads.
_REPLAY_COUNTS = ("functions", "sporadic_functions", "minutes", "invocations",
                  "zero_minutes", "overload_minutes", "peak_per_minute",
                  "containers")


def _shard_name(position: int, result: Any) -> str:
    """How a refusal names a shard: its scenario name, else its place in ``results``."""
    scenario = result.get("scenario") if isinstance(result, Mapping) else None
    name = scenario.get("name") if isinstance(scenario, Mapping) else None
    return f"shard {name!r}" if isinstance(name, str) else f"shard #{position}"


def _check_shape(position: int, result: Any) -> Tuple[int, int]:
    """Raise :class:`ValueError` naming the shard unless ``result`` is shaped
    like a :func:`run_trace_replay` result; return its ``function_range``.

    Every key the merge reads must be there with its type: the scenario's
    ``name`` and ``params`` (a ``population`` with a positive count of
    ``functions``, and a positive ``duration_minutes``) and the
    ``replay`` group, whose range is two non-negative ints ``lo < hi``
    spanning its ``functions`` and whose counters
    (:data:`_REPLAY_COUNTS`) are non-negative ints — judged by
    :func:`~repro.spec_fields.is_count`, so ``4.5`` or ``True`` is refused, never truncated.
    """
    shard = _shard_name(position, result)
    if not isinstance(result, Mapping) or not isinstance(result.get("replay"), Mapping):
        raise ValueError(f"{shard} is not a trace_replay result")
    scenario = result.get("scenario")
    if not (isinstance(scenario, Mapping) and isinstance(scenario.get("name"), str)):
        raise ValueError(f"{shard} carries no scenario name")
    params = scenario.get("params")
    population = params.get("population") if isinstance(params, Mapping) else None
    if not (isinstance(population, Mapping)
            and is_count(population.get("functions")) and population["functions"] > 0
            and is_count(params.get("duration_minutes")) and params["duration_minutes"] > 0):
        raise ValueError(f"{shard}: params need a population with a positive int "
                         "functions and a positive int duration_minutes")
    replay = result["replay"]
    bounds = replay.get("function_range")
    if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2
            and all(is_count(v) for v in bounds) and 0 <= bounds[0] < bounds[1]):
        raise ValueError(f"{shard}: function_range must be two ints 0 <= lo < hi; "
                         f"got {bounds!r}")
    lo, hi = bounds
    for key in _REPLAY_COUNTS:
        if not (is_count(replay.get(key)) and replay[key] >= 0):
            raise ValueError(f"{shard} [{lo}, {hi}): replay {key} must be a "
                             f"non-negative int; got {replay.get(key)!r}")
    if replay["functions"] != hi - lo:
        raise ValueError(f"{shard} [{lo}, {hi}): replay functions is "
                         f"{replay['functions']}, not the range's {hi - lo}")
    if replay["minutes"] != params["duration_minutes"]:
        raise ValueError(f"{shard} [{lo}, {hi}): replay minutes is "
                         f"{replay['minutes']}, not the params' "
                         f"duration_minutes {params['duration_minutes']}")
    return lo, hi


def _check_histogram(shard: str, replay: Mapping[str, Any]) -> None:
    """Raise :class:`ValueError` naming ``shard`` unless its histogram agrees with its counters.

    The histogram must be ``[value, minutes]`` pairs with strictly
    increasing non-negative integer values and positive integer minutes,
    and it must hold every function-minute of the shard: its minutes sum
    to ``functions × minutes``, its value-weighted sum is ``invocations``,
    its minutes at value 0 are ``zero_minutes`` and its largest value is
    ``peak_per_minute``.  A result written before the replay kept a
    histogram (it carries a reservoir ``sketch``) fails the first check.
    Runs after :func:`_check_shape`, so every counter is an int.
    """
    pairs = replay.get("histogram")
    if not isinstance(pairs, list):
        raise ValueError(f"{shard} carries no per-minute histogram (a result "
                         "from before exact replay percentiles); re-run it")
    previous = -1
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2
                and is_count(pair[0]) and pair[0] > previous):
            raise ValueError(f"{shard}: histogram values must be strictly "
                             f"increasing non-negative ints; got {pair!r}")
        if not (is_count(pair[1]) and pair[1] > 0):
            raise ValueError(f"{shard}: histogram minutes must be positive "
                             f"ints; got {pair!r}")
        previous = pair[0]
    expected = {
        "minutes": replay["functions"] * replay["minutes"],
        "invocations": replay["invocations"],
        "zero_minutes": replay["zero_minutes"],
        "peak_per_minute": replay["peak_per_minute"],
    }
    found = {
        "minutes": sum(minutes for _, minutes in pairs),
        "invocations": sum(value * minutes for value, minutes in pairs),
        "zero_minutes": pairs[0][1] if pairs and pairs[0][0] == 0 else 0,
        "peak_per_minute": pairs[-1][0] if pairs else 0,
    }
    for key, want in expected.items():
        if found[key] != want:
            what = "functions x minutes" if key == "minutes" else key
            raise ValueError(f"{shard}: histogram gives {key} {found[key]} "
                             f"but the shard's {what} is {want}")


def histogram_quantiles(
    histograms: Iterable[Sequence[Sequence[int]]],
    quantiles: Iterable[float] = REPORTED_QUANTILES,
) -> Dict[str, Any]:
    """Pool ``[value, minutes]`` histograms and read quantiles off the total.

    Each quantile ``p`` is the smallest value whose cumulative minutes
    reach ``p`` of the pooled total (the type-1 inverted CDF), so it is
    the exact ``p``-quantile of the pooled per-minute counts — a pure
    function of the multiset of counts, whatever the histograms' order
    or split.  No observations read 0.0 at every quantile.
    """
    pooled: Dict[int, int] = {}
    for pairs in histograms:
        for value, minutes in pairs:
            pooled[value] = pooled.get(value, 0) + minutes
    values = sorted(pooled)
    cumulative = list(accumulate(pooled[value] for value in values))
    total = cumulative[-1] if cumulative else 0
    result: Dict[str, Any] = {"count": total, "exact": True}
    for p in quantiles:
        if not 0.0 < p < 1.0:
            raise ValueError("quantiles must be in (0, 1)")
        # first value whose cumulative minutes reach p of the total
        merged = float(values[bisect_left(cumulative, p * total)]) if values else 0.0
        result[f"p{round(p * 100)}"] = merged
    return result


def merge_trace_shards(envelope: Mapping[str, Any]) -> Dict[str, Any]:
    """Merge a sweep envelope of shard results into one replay envelope.

    Shards are re-sorted into canonical ``function_range`` order, their
    ranges checked to tile the population exactly (no gaps, no
    overlaps), each histogram checked against its shard's counters,
    integer counters summed (peak taken as max), and the histograms
    pooled into exact percentiles (:func:`histogram_quantiles`) — so the
    output is a pure function of the set of shard results, regardless
    of sweep expansion or completion order.  Float aggregates
    (``rates``) are derived once, here, from the integer totals.  Raises
    :class:`ValueError` on a degraded (``incomplete``) sweep envelope —
    merging a partial replay would silently understate every total — on
    an envelope or shard result missing a key the merge reads or holding
    it with the wrong type (:func:`_check_shape`: counts and ranges are
    plain ints, never truncated floats), naming the shard, and on a
    shard whose histogram disagrees with its counters.  A refused call
    leaves ``envelope`` as it was: the merge only reads it.
    """
    if not isinstance(envelope, Mapping) or envelope.get("schema") != SWEEP_RESULT_SCHEMA:
        raise ValueError(f"expected a {SWEEP_RESULT_SCHEMA} envelope")
    if envelope.get("incomplete"):
        raise ValueError("cannot merge an incomplete sweep envelope; "
                         "re-run with --resume until it completes")
    if not isinstance(envelope.get("sweep"), Mapping):
        raise ValueError("sweep envelope carries no sweep description")
    results = envelope.get("results")
    if not isinstance(results, list):
        raise ValueError("sweep envelope carries no results list")
    if not results:
        raise ValueError("sweep envelope has no shard results")
    for position, result in enumerate(results):
        lo, hi = _check_shape(position, result)
        _check_histogram(f"{_shard_name(position, result)} [{lo}, {hi})",
                         result["replay"])
    ordered = sorted(results, key=_shard_key)

    base_params = ordered[0]["scenario"]["params"]
    functions_total = base_params["population"]["functions"]
    expected_lo = 0
    for result in ordered:
        lo, hi = _shard_key(result)
        if lo != expected_lo:
            raise ValueError(
                f"shard ranges do not tile the population: expected a shard "
                f"starting at {expected_lo}, got [{lo}, {hi})"
            )
        expected_lo = hi
        shard_params = result["scenario"]["params"]
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
        totals["sporadic_functions"] += replay["sporadic_functions"]
        totals["invocations"] += replay["invocations"]
        totals["zero_minutes"] += replay["zero_minutes"]
        totals["overload_minutes"] += replay["overload_minutes"]
        totals["peak_per_minute"] = max(totals["peak_per_minute"],
                                        replay["peak_per_minute"])
        totals["containers"] += replay["containers"]
        shards_out.append({
            "name": result["scenario"]["name"],
            "function_range": list(replay["function_range"]),
            "functions": replay["functions"],
            "invocations": replay["invocations"],
        })

    minutes = base_params["duration_minutes"]
    function_minutes = functions_total * minutes
    percentiles = histogram_quantiles(r["replay"]["histogram"] for r in ordered)
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
        "percentiles": {"per_minute_invocations": percentiles},
    }


__all__ = [
    "SIZING_PERCENTILE",
    "TRACE_MERGE_SCHEMA",
    "histogram_quantiles",
    "merge_trace_shards",
    "run_trace_replay",
    "shard_ranges",
]
