"""Streaming (chunked) synthesis of Azure-like traces at population scale.

The monolithic :func:`~repro.workloads.azure.synthesize_azure_trace`
materialises a whole trace in one call.  That is fine for the six
functions of Figure 9, but the trace-scale replay
(:mod:`repro.scenarios.trace_shard`) streams *tens of thousands* of
functions and must hold only one chunk of counts at a time.  This
module provides the two pieces that make that possible without changing
a single output byte:

Chunked ingestion
-----------------
:func:`iter_azure_trace_chunks` yields the per-minute counts of one
trace in chunks whose concatenation is **byte-identical** to the
monolithic synthesis for *every* chunk size.  The determinism contract
rests on two facts, both pinned by ``tests/test_trace_replay.py``:

1. the azure generator consumes its RNG in two ordered passes — the
   rate-series draws (:func:`~repro.workloads.azure.azure_rate_series`),
   then one Poisson pass over the rate array — so the chunked path can
   replay pass one verbatim and split only pass two;
2. NumPy ``Generator.poisson`` fills element by element from the bit
   stream, so drawing consecutive sub-arrays on the *same* generator
   consumes exactly the draws of one whole-array call (batch-split
   invariance, verified by a hypothesis property).

The rate series itself is O(``duration_minutes``) floats — the resident
bound is minutes + chunk, independent of how many invocations the trace
contains.

Synthetic population
--------------------
:func:`population_function` derives one function of an Azure-scale
population deterministically from ``(seed, index)``: a heavy-tailed
(log-normal) mean rate spanning orders of magnitude, a sporadic/steady
split, per-function service time and SLO deadline.  Each function's
*trace* RNG is seeded exactly like
:func:`~repro.workloads.azure.synthesize_azure_traces`
(``SeedSequence(trace_seed, spawn_key=(index,))``), so a function's
counts depend only on its global index — never on which shard replays
it or how the population is partitioned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Mapping

import numpy as np

from repro.workloads.azure import AzureTraceConfig, azure_rate_series

#: Default knobs of the synthetic population (used by ``fig9-at-scale``).
DEFAULT_POPULATION: Dict[str, Any] = {
    "functions": 10_000,
    "seed": 2021,
    "sporadic_fraction": 0.4,
    "rate_log10_mean": -2.0,
    "rate_log10_sigma": 0.8,
}


def iter_azure_trace_chunks(
    config: AzureTraceConfig,
    duration_minutes: int,
    rng: np.random.Generator,
    chunk_minutes: int,
) -> Iterator[np.ndarray]:
    """Yield one trace's per-minute counts in ``chunk_minutes``-sized chunks.

    Concatenating the yielded arrays reproduces
    :func:`~repro.workloads.azure.synthesize_azure_trace` byte-for-byte
    for every chunk size (including 1 and anything ≥ the trace length):
    the rate pass runs once up front, then each chunk draws its Poisson
    counts from the same generator in minute order.  A plain function,
    so bad arguments raise at the call rather than on the first
    ``next()``; the rate pass (which checks ``duration_minutes``) runs
    at the call too.
    """
    if chunk_minutes <= 0:
        raise ValueError("chunk_minutes must be positive")
    rates = azure_rate_series(config, duration_minutes, rng)
    return (rng.poisson(rates[start:start + chunk_minutes]).astype(int)
            for start in range(0, duration_minutes, chunk_minutes))


@dataclass(frozen=True)
class PopulationFunction:
    """One function of the synthetic at-scale population.

    ``config`` drives the trace generator; ``service_time`` /
    ``slo_deadline`` feed the per-function capacity model of the replay
    (one scalar M/M/c sizing per function).
    """

    name: str
    index: int
    config: AzureTraceConfig
    service_time: float
    slo_deadline: float


def population_function(index: int, population: Mapping[str, Any]) -> PopulationFunction:
    """Derive function ``index`` of a population, deterministically.

    All parameters are drawn from
    ``default_rng(SeedSequence(population["seed"], spawn_key=(index,)))``
    in a fixed order, so the function is a pure function of
    ``(seed, index)`` — shard boundaries can never perturb it.  The mean
    rate is log-normal (base 10), reproducing the orders-of-magnitude
    heterogeneity of the real Azure Functions trace; a
    ``sporadic_fraction`` of functions get the on/off burst pattern.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(int(population["seed"]), spawn_key=(int(index),))
    )
    # draw order is part of the determinism contract — never reorder
    u_sporadic = rng.uniform()
    log10_rate = rng.normal(float(population["rate_log10_mean"]),
                            float(population["rate_log10_sigma"]))
    variability = rng.uniform(0.2, 0.45)
    burst_multiplier = rng.uniform(4.0, 8.0)
    burst_probability = rng.uniform(0.02, 0.12)
    service_time = float(10.0 ** rng.uniform(-2.0, -0.5))
    slo_factor = rng.uniform(3.0, 10.0)

    sporadic = bool(u_sporadic < float(population["sporadic_fraction"]))
    config = AzureTraceConfig(
        mean_rate=float(10.0 ** log10_rate),
        sporadic=sporadic,
        burst_probability=float(burst_probability),
        burst_multiplier=float(burst_multiplier),
        variability=float(variability),
    )
    return PopulationFunction(
        name=f"fn-{index:06d}",
        index=int(index),
        config=config,
        service_time=service_time,
        slo_deadline=float(service_time * slo_factor),
    )


def trace_rng(trace_seed: int, index: int) -> np.random.Generator:
    """The trace RNG of function ``index`` — the exact
    :func:`~repro.workloads.azure.synthesize_azure_traces` seeding, so a
    function's counts are independent of sharding."""
    return np.random.default_rng(
        np.random.SeedSequence(int(trace_seed), spawn_key=(int(index),))
    )


__all__ = [
    "DEFAULT_POPULATION",
    "PopulationFunction",
    "iter_azure_trace_chunks",
    "population_function",
    "trace_rng",
]
