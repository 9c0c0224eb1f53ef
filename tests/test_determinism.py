"""Determinism regression tests for the fast-path simulation core.

The PR-1 refactor (tuple-keyed event heap, vectorized batched arrivals,
bucketized rate windows, incremental idle sets) must not change what a
seeded run computes:

* the same seed must produce bit-identical metrics run-to-run, and
* the vectorized arrival path (``arrival_batch_size=256``) must produce
  **identical per-epoch metrics** to the old-equivalent per-event path
  (``arrival_batch_size=1``, one scheduled event per arrival, exactly
  the cadence of the seed implementation).

The second property holds for every registered policy — the vanilla
OpenWhisk baseline included — because the thinning sampler's RNG
consumption is independent of the batch size and per-request work is
always drawn from a dedicated ``work:<function>`` stream (see
``repro/workloads/generator.py``).
"""

import pytest

from repro.simulation import SimulationRunner
from repro.workloads.functions import microbenchmark
from repro.workloads.generator import WorkloadBinding
from repro.workloads.schedules import StaticRate, StepSchedule


def _fig3_style_runner(seed: int, batch_size: int) -> SimulationRunner:
    """A Figure 3-style scenario: one function under a static Poisson load."""
    return SimulationRunner(
        workloads=[
            WorkloadBinding(
                profile=microbenchmark(0.1),
                schedule=StaticRate(25.0, duration=120.0),
                slo_deadline=0.1,
            )
        ],
        seed=seed,
        arrival_batch_size=batch_size,
    )


def _epoch_fingerprint(result):
    """Everything an epoch snapshot records, as a comparable value."""
    return [
        (
            epoch.time,
            epoch.overloaded,
            epoch.total_cpu,
            epoch.allocated_cpu,
            tuple(
                sorted(
                    (
                        name,
                        stats.containers,
                        stats.cpu,
                        stats.desired_containers,
                        stats.arrival_rate_estimate,
                        stats.service_rate_estimate,
                    )
                    for name, stats in epoch.functions.items()
                )
            ),
        )
        for epoch in result.metrics.epochs
    ]


class TestSeededReproducibility:
    def test_same_seed_same_metrics(self):
        first = _fig3_style_runner(seed=11, batch_size=256).run(duration=120.0)
        second = _fig3_style_runner(seed=11, batch_size=256).run(duration=120.0)
        assert first.generated_requests == second.generated_requests
        assert _epoch_fingerprint(first) == _epoch_fingerprint(second)
        assert first.waiting_summary().as_dict() == second.waiting_summary().as_dict()

    def test_different_seed_different_realisation(self):
        first = _fig3_style_runner(seed=11, batch_size=256).run(duration=120.0)
        second = _fig3_style_runner(seed=12, batch_size=256).run(duration=120.0)
        assert first.generated_requests != second.generated_requests or (
            _epoch_fingerprint(first) != _epoch_fingerprint(second)
        )


class TestBatchSizeInvariance:
    """Fast path vs. old-equivalent per-event path: identical numbers."""

    @pytest.mark.parametrize("seed", [1, 7])
    def test_fig3_per_epoch_metrics_identical(self, seed):
        fast = _fig3_style_runner(seed=seed, batch_size=256).run(duration=120.0)
        per_event = _fig3_style_runner(seed=seed, batch_size=1).run(duration=120.0)
        assert fast.generated_requests == per_event.generated_requests
        assert _epoch_fingerprint(fast) == _epoch_fingerprint(per_event)
        assert fast.waiting_summary().as_dict() == per_event.waiting_summary().as_dict()
        assert (
            fast.metrics.counters["completions"] == per_event.metrics.counters["completions"]
        )

    @pytest.mark.parametrize("policy", ["lass", "openwhisk"])
    def test_step_schedule_and_multiple_functions(self, policy):
        from dataclasses import replace

        def build(batch_size):
            return SimulationRunner(
                workloads=[
                    WorkloadBinding(
                        profile=replace(microbenchmark(0.1), name="fn-a"),
                        schedule=StepSchedule.staircase([5.0, 30.0, 5.0], 40.0),
                        slo_deadline=0.1,
                    ),
                    WorkloadBinding(
                        profile=replace(microbenchmark(0.2), name="fn-b"),
                        schedule=StaticRate(10.0, duration=120.0),
                        slo_deadline=0.2,
                    ),
                ],
                seed=5,
                policy=policy,
                arrival_batch_size=batch_size,
            )

        fast = build(256).run(duration=120.0)
        per_event = build(1).run(duration=120.0)
        assert fast.generated_requests == per_event.generated_requests
        assert fast.metrics.epochs
        assert _epoch_fingerprint(fast) == _epoch_fingerprint(per_event)
        assert dict(fast.metrics.counters) == dict(per_event.metrics.counters)
        assert fast.waiting_summary().as_dict() == per_event.waiting_summary().as_dict()
