"""Figure 7: effect of CPU deflation on service time for all six functions."""

from oracles.paper_checks import small_penalty_at_threshold
from repro.experiments.fig7_deflation import FIG7_FUNCTIONS, run_fig7, slowdown_at


def test_fig7_deflation_response_curves(benchmark):
    points = benchmark.pedantic(lambda: run_fig7(measured=False), rounds=1, iterations=1)
    # the paper's finding: for five of the six functions, 30% deflation only
    # costs a small service-time penalty...
    verdicts = small_penalty_at_threshold(points, threshold=0.3, max_penalty=0.2)
    assert all(verdicts.values())
    # ...while MobileNet (saturated at 2 vCPU) slows down roughly in
    # proportion to the reclaimed CPU
    assert slowdown_at(points, "mobilenet", 0.5) >= 1.7
    # beyond the slack region service time rises monotonically for everyone
    for name in FIG7_FUNCTIONS:
        series = sorted((p.deflation_ratio, p.service_time) for p in points
                        if p.function_name == name)
        values = [v for _, v in series]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_fig7_measured_in_simulator(benchmark):
    """Verify the simulator's containers actually honour the deflation curves."""
    points = benchmark.pedantic(
        lambda: run_fig7(functions=("squeezenet", "mobilenet"),
                         deflation_ratios=(0.0, 0.3, 0.5), measured=True, duration=60.0),
        rounds=1, iterations=1,
    )
    squeeze_30 = slowdown_at(points, "squeezenet", 0.3)
    mobile_30 = slowdown_at(points, "mobilenet", 0.3)
    assert squeeze_30 < mobile_30
