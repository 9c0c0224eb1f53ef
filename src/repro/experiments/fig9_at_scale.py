"""Figure 9 at scale: streaming replay of an Azure-scale population.

Where :mod:`repro.experiments.fig9_azure` replays the paper's six
functions on one simulated cluster, this experiment makes the
"millions of users" scale claim falsifiable: a synthetic population of
10,000 heavy-tailed functions (a full day, tens of millions of
invocations) streams through the constant-memory replay kernel of
:mod:`repro.scenarios.trace_shard`, sharded over the sweep runner and
merged into one federated-style envelope.  The replay answers the
paper's capacity questions at population scale — how many containers
the M/M/c sizing model provisions, what fraction of function-minutes
overload that sizing, and the exact per-minute invocation percentiles
— without ever holding more than one chunk of one trace in memory.

The merged envelope is byte-identical across worker counts, shard
permutations, and interrupt+resume (``tests/test_trace_replay.py``);
sustained invocations/sec is tracked as the ``trace_replay_stream`` row
of ``BENCH_PR9.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.scenarios import build
from repro.scenarios.executor import ResilientSweepRunner
from repro.scenarios.trace_shard import merge_trace_shards


@dataclass
class Fig9AtScaleResult:
    """The merged outcome of one at-scale replay."""

    functions: int
    duration_minutes: int
    shard_count: int
    invocations: int
    sporadic_functions: int
    containers: int
    peak_per_minute: int
    overload_fraction: float
    zero_fraction: float
    percentiles: Dict[str, Any]
    merged: Dict[str, Any]          #: the full ``repro/trace-replay@1`` envelope


def run_fig9_at_scale(
    functions: int = 10_000,
    duration_minutes: int = 1440,
    shards: int = 32,
    workers: int = 1,
    chunk_minutes: int = 360,
    seed: int = 9,
) -> Fig9AtScaleResult:
    """Run the sharded replay and merge the shard envelopes.

    All knobs scale down proportionally for smoke tests; the defaults
    are the full synthetic day the EXPERIMENTS.md table records.
    """
    sweep = build("fig9-at-scale", functions=functions,
                  duration_minutes=duration_minutes, shards=shards,
                  chunk_minutes=chunk_minutes, seed=seed)
    envelope = ResilientSweepRunner(sweep, workers=workers, on_failure="raise").run()
    merged = merge_trace_shards(envelope)
    totals = merged["totals"]
    return Fig9AtScaleResult(
        functions=totals["functions"],
        duration_minutes=merged["minutes"],
        shard_count=merged["shard_count"],
        invocations=totals["invocations"],
        sporadic_functions=totals["sporadic_functions"],
        containers=totals["containers"],
        peak_per_minute=totals["peak_per_minute"],
        overload_fraction=merged["rates"]["overload_fraction"],
        zero_fraction=merged["rates"]["zero_fraction"],
        percentiles=dict(merged["percentiles"]["per_minute_invocations"]),
        merged=merged,
    )


def format_fig9_at_scale(result: Fig9AtScaleResult) -> str:
    """Render the at-scale replay outcome as text."""
    pct = result.percentiles
    lines = [
        f"Azure-scale streaming replay: {result.functions:,} functions, "
        f"{result.duration_minutes:,} minutes, {result.shard_count} shards",
        f"  invocations        : {result.invocations:,}",
        f"  sporadic functions : {result.sporadic_functions:,} "
        f"({result.sporadic_functions / result.functions * 100:.1f}%)",
        f"  sized containers   : {result.containers:,}",
        f"  peak minute        : {result.peak_per_minute:,} invocations "
        "(one function)",
        f"  overloaded minutes : {result.overload_fraction * 100:.3f}% of "
        "function-minutes exceed the sized capacity",
        f"  idle minutes       : {result.zero_fraction * 100:.1f}% of "
        "function-minutes have zero invocations",
        f"  per-minute p50/p90/p95/p99: {pct['p50']:g} / {pct['p90']:g} / "
        f"{pct['p95']:g} / {pct['p99']:g}",
    ]
    return "\n".join(lines)


__all__ = ["Fig9AtScaleResult", "run_fig9_at_scale", "format_fig9_at_scale"]
