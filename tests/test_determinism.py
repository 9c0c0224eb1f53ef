"""Determinism regression tests for the fast-path simulation core.

The fast paths (tuple-keyed event heap, materialised arrivals merged
into one stream beside the heap, bucketized rate windows, incremental
idle sets) must not change what a seeded run computes:

* the same seed must produce bit-identical metrics run-to-run, and
* the merged arrival stream must produce **identical per-epoch
  metrics** to the batch pump the event plane used to run
  (``oracles/arrival_pump.py``) at every batch size, including
  ``batch_size=1``: one scheduled event per arrival, exactly the
  cadence of the seed implementation.

The second property holds for every registered policy — the vanilla
OpenWhisk baseline included — because the thinning sampler's RNG
consumption is independent of how many arrivals are asked for at a
time and per-request work is always drawn from a dedicated
``work:<function>`` stream (see ``repro/workloads/generator.py``).
"""

import pytest

from oracles.arrival_pump import run_pumped

from repro.simulation import SimulationRunner
from repro.workloads.functions import microbenchmark
from repro.workloads.generator import WorkloadBinding
from repro.workloads.schedules import StaticRate, StepSchedule


#: Batch sizes the pump oracle runs at: the seed cadence, an odd split, the old default.
PUMP_BATCH_SIZES = (1, 7, 256)


def _fig3_style_runner(seed: int) -> SimulationRunner:
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
        first = _fig3_style_runner(seed=11).run(duration=120.0)
        second = _fig3_style_runner(seed=11).run(duration=120.0)
        assert first.generated_requests == second.generated_requests
        assert _epoch_fingerprint(first) == _epoch_fingerprint(second)
        assert first.waiting_summary().as_dict() == second.waiting_summary().as_dict()

    def test_different_seed_different_realisation(self):
        first = _fig3_style_runner(seed=11).run(duration=120.0)
        second = _fig3_style_runner(seed=12).run(duration=120.0)
        assert first.generated_requests != second.generated_requests or (
            _epoch_fingerprint(first) != _epoch_fingerprint(second)
        )


class TestBatchSizeInvariance:
    """The merged arrival stream vs. the batch pump it replaced: identical numbers."""

    @pytest.mark.parametrize("batch_size", PUMP_BATCH_SIZES)
    @pytest.mark.parametrize("seed", [1, 7])
    def test_fig3_per_epoch_metrics_identical(self, seed, batch_size):
        fast = _fig3_style_runner(seed=seed).run(duration=120.0)
        pumped = run_pumped(_fig3_style_runner(seed=seed), 120.0, batch_size)
        assert fast.generated_requests == pumped.generated_requests
        assert _epoch_fingerprint(fast) == _epoch_fingerprint(pumped)
        assert fast.waiting_summary().as_dict() == pumped.waiting_summary().as_dict()
        assert (
            fast.metrics.counters["completions"] == pumped.metrics.counters["completions"]
        )

    @pytest.mark.parametrize("batch_size", PUMP_BATCH_SIZES)
    @pytest.mark.parametrize("policy", ["lass", "openwhisk"])
    def test_step_schedule_and_multiple_functions(self, policy, batch_size):
        from dataclasses import replace

        def build():
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
            )

        fast = build().run(duration=120.0)
        pumped = run_pumped(build(), 120.0, batch_size)
        assert fast.generated_requests == pumped.generated_requests
        assert fast.metrics.epochs
        assert _epoch_fingerprint(fast) == _epoch_fingerprint(pumped)
        assert dict(fast.metrics.counters) == dict(pumped.metrics.counters)
        assert fast.waiting_summary().as_dict() == pumped.waiting_summary().as_dict()
