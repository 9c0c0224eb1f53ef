"""Figure 5: compute time of the allocation algorithm vs. number of containers."""

import pytest

from repro.core.queueing.sizing import required_containers
from repro.core.queueing.solver import SizingSolver
from repro.experiments.fig5_scalability import max_time_seconds, run_fig5


def test_fig5_scalability_curves(benchmark):
    points = benchmark.pedantic(
        lambda: run_fig5(container_counts=(10, 100, 500, 1000)),
        rounds=1, iterations=1,
    )
    # the paper's finding: the allocation algorithm reacts in well under a
    # second even with 1000 running containers and a doubled workload
    assert max_time_seconds(points, "solver") < 1.0
    assert max_time_seconds(points, "reference") < 1.0
    # and both paths choose the same count at every point
    for reference, solver in zip(points[::2], points[1::2]):
        assert reference.new_containers == solver.new_containers


@pytest.mark.parametrize("containers", [100, 500, 1000])
def test_solver_sizing_latency(benchmark, containers):
    """Micro-benchmark: one cold solver decision after a 2x spike."""
    lam = 0.9 * containers * 10.0 * 2.0
    solver = SizingSolver()
    result = benchmark(solver.solve, lam, 10.0, 0.1, 0.99, containers)
    assert result.containers >= containers


@pytest.mark.parametrize("containers", [100, 500, 1000])
def test_reference_sizing_latency(benchmark, containers):
    """Micro-benchmark: the same decision through Algorithm 1 as written."""
    lam = 0.9 * containers * 10.0 * 2.0
    result = benchmark(required_containers, lam, 10.0, 0.1, 0.99, containers)
    assert result.containers >= containers
