"""Ablation benchmarks for the design choices called out in DESIGN.md.

These are not figures from the paper; they quantify the contribution of
individual LaSS components by swapping them out:

* queueing-model sizing vs. a Knative-style concurrency autoscaler,
* the paper's single-pass fair share vs. iterative progressive filling.
"""

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.core.allocation.fair_share import fair_share_allocation, progressive_filling
from repro.core.controller import ControllerConfig
from repro.simulation import SimulationRunner
from repro.workloads.functions import microbenchmark
from repro.workloads.generator import WorkloadBinding
from repro.workloads.schedules import StaticRate


def _lass_run(duration=120.0, seed=7, **config_kwargs):
    runner = SimulationRunner(
        workloads=[WorkloadBinding(microbenchmark(0.1), StaticRate(30.0, duration=duration),
                                   slo_deadline=0.1)],
        cluster_config=ClusterConfig(node_count=4, cpu_per_node=8),
        controller_config=ControllerConfig(**config_kwargs),
        seed=seed,
    )
    return runner.run(duration=duration)


def test_model_driven_vs_reactive_scaling(benchmark):
    """LaSS's queueing model meets the SLO with a bounded allocation."""
    result = benchmark.pedantic(_lass_run, rounds=1, iterations=1)
    summary = result.waiting_summary("microbenchmark", warmup=30.0)
    assert summary.p95 <= 0.1 * 1.3
    # the model never allocates wildly more than the offered load requires
    _, counts = result.container_timeline("microbenchmark")
    assert max(counts) <= 10


def test_single_pass_vs_progressive_filling(benchmark):
    """The single-pass algorithm can leave capacity unused; progressive filling does not."""
    demands = {"a": 20.0, "b": 5.0, "c": 3.0}
    weights = {"a": 1.0, "b": 1.0, "c": 1.0}

    def run():
        single = fair_share_allocation(demands, weights, 24.0, discrete=False)
        filled = progressive_filling(demands, weights, 24.0, discrete=False)
        return single, filled

    single, filled = benchmark(run)
    assert sum(filled.allocations.values()) >= sum(single.allocations.values()) - 1e-9
    assert sum(filled.allocations.values()) == pytest.approx(24.0)


def test_mgc_extension_service_time_variability(benchmark):
    """Future-work extension: sizing under non-exponential service times.

    The M/G/c approximation needs no more containers than the paper's
    M/M/c model when service times are less variable than exponential
    (the DNN functions, CV ~ 0.2) and at least as many when they are more
    variable.
    """
    from repro.core.queueing.mgc import required_containers_mgc
    from repro.core.queueing.sizing import required_containers

    def run():
        rows = []
        for lam in (20.0, 40.0, 60.0, 80.0, 100.0):
            mmc = required_containers(lam, 10.0, 0.1, 0.95).containers
            low_var = required_containers_mgc(lam, 0.1, 0.04, 0.1, 0.95).containers
            high_var = required_containers_mgc(lam, 0.1, 4.0, 0.1, 0.95).containers
            rows.append((lam, mmc, low_var, high_var))
        return rows

    rows = benchmark(run)
    assert all(low <= mmc for _, mmc, low, _ in rows)
    assert all(high >= mmc - 1 for _, mmc, _, high in rows)
