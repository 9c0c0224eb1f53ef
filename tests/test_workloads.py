"""Tests for the function catalogue, rate schedules, generators, and Azure traces."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.azure import (
    AzureTraceConfig,
    DEFAULT_AZURE_CONFIGS,
    synthesize_azure_trace,
    synthesize_azure_traces,
    trace_statistics,
)
from repro.workloads.functions import (
    FUNCTION_CATALOG,
    get_function,
    microbenchmark,
    proportional_speed_curve,
    slack_speed_curve,
    table1_rows,
)
from repro.workloads.generator import generate_arrival_times
from repro.workloads.schedules import (
    CompositeSchedule,
    RampSchedule,
    StaticRate,
    StepSchedule,
    TraceSchedule,
)


class TestFunctionCatalog:
    def test_table1_sizes(self):
        assert get_function("mobilenet").cpu == 2.0
        assert get_function("mobilenet").memory_mb == 1024
        assert get_function("geofence").cpu == 0.3
        assert get_function("geofence").memory_mb == 128
        assert microbenchmark().cpu == 0.4

    def test_table1_has_seven_functions(self):
        assert len(table1_rows()) == 7
        assert len(FUNCTION_CATALOG) == 7

    def test_unknown_function_raises(self):
        with pytest.raises(KeyError):
            get_function("nope")

    def test_service_rate_inverse_of_mean(self):
        profile = microbenchmark(0.2)
        assert profile.service_rate == pytest.approx(5.0)

    def test_sample_work_matches_mean(self, rng):
        profile = get_function("squeezenet")
        samples = profile.sample_work_many(rng, 5000)
        assert np.mean(samples) == pytest.approx(profile.mean_service_time, rel=0.05)

    def test_slack_curve_shape(self):
        speed = slack_speed_curve(slack=0.3, slack_penalty=0.1)
        assert speed(1.0) == pytest.approx(1.0)
        # inside the slack region the penalty is small
        assert speed(0.7) >= 1.0 / 1.1 - 1e-9
        # beyond the slack region speed drops roughly proportionally
        assert speed(0.35) == pytest.approx(speed(0.7) * 0.5, rel=1e-6)
        # monotone in CPU
        values = [speed(f) for f in np.linspace(0.05, 1.0, 50)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_proportional_curve(self):
        speed = proportional_speed_curve()
        assert speed(0.5) == pytest.approx(0.5)

    def test_service_time_at_deflation(self):
        profile = get_function("squeezenet")
        assert profile.service_time_at(1.0) == pytest.approx(profile.mean_service_time)
        assert profile.service_time_at(0.7) <= profile.mean_service_time * 1.2
        assert profile.service_time_at(0.3) > profile.service_time_at(0.7)

    def test_mobilenet_has_little_slack(self):
        mobilenet = get_function("mobilenet")
        squeezenet = get_function("squeezenet")
        # at 30% deflation MobileNet slows down more than SqueezeNet
        assert (mobilenet.service_time_at(0.7) / mobilenet.mean_service_time) > (
            squeezenet.service_time_at(0.7) / squeezenet.mean_service_time
        )

    def test_to_deployment_carries_speed_curve(self):
        profile = get_function("squeezenet")
        deployment = profile.to_deployment(weight=2.0, user="u1", slo_deadline=0.2)
        assert deployment.cpu == profile.cpu
        assert deployment.weight == 2.0
        assert deployment.user == "u1"
        assert deployment.speed_of_cpu(0.5) == pytest.approx(profile.speed_curve()(0.5))

    def test_to_service_profile_interpolates(self):
        service_profile = get_function("squeezenet").to_service_profile()
        assert service_profile.mean_service_time(1.0) == pytest.approx(0.10)
        assert service_profile.mean_service_time(0.5) > 0.10

    def test_with_service_time(self):
        fast = microbenchmark(0.1).with_service_time(0.05)
        assert fast.mean_service_time == 0.05
        assert fast.distribution.mean == pytest.approx(0.05)


class TestSchedules:
    def test_static_rate(self):
        schedule = StaticRate(10.0, duration=60.0)
        assert schedule.rate(30.0) == 10.0
        assert schedule.rate(61.0) == 0.0
        assert schedule.max_rate(0, 100) == 10.0
        assert schedule.end_time == 60.0

    def test_step_schedule(self):
        schedule = StepSchedule([(0.0, 5.0), (60.0, 30.0)], duration=120.0)
        assert schedule.rate(10.0) == 5.0
        assert schedule.rate(60.0) == 30.0
        assert schedule.rate(119.0) == 30.0
        assert schedule.rate(121.0) == 0.0
        assert schedule.max_rate(0.0, 120.0) == 30.0
        assert schedule.rate(-1.0) == 0.0

    def test_staircase_builder(self):
        schedule = StepSchedule.staircase([5, 10, 15], step_duration=60.0)
        assert schedule.rate(30.0) == 5
        assert schedule.rate(90.0) == 10
        assert schedule.rate(150.0) == 15
        assert schedule.end_time == 180.0

    def test_ramp_schedule(self):
        schedule = RampSchedule([(0.0, 0.0), (100.0, 50.0)])
        assert schedule.rate(50.0) == pytest.approx(25.0)
        assert schedule.max_rate(0.0, 100.0) == pytest.approx(50.0)

    def test_trace_schedule(self):
        schedule = TraceSchedule([60, 120, 0], interval=60.0)
        assert schedule.rate(30.0) == pytest.approx(1.0)
        assert schedule.rate(90.0) == pytest.approx(2.0)
        assert schedule.rate(150.0) == 0.0
        assert schedule.rate(500.0) == 0.0
        assert schedule.total_invocations() == 180
        assert schedule.end_time == 180.0
        assert schedule.max_rate(0.0, 180.0) == pytest.approx(2.0)

    def test_composite_schedule(self):
        composite = CompositeSchedule([StaticRate(5.0, duration=10.0), StaticRate(3.0, duration=20.0)])
        assert composite.rate(5.0) == 8.0
        assert composite.rate(15.0) == 3.0
        assert composite.end_time == 20.0

    def test_mean_rate_and_expected_arrivals(self):
        schedule = StepSchedule([(0.0, 10.0), (50.0, 20.0)], duration=100.0)
        assert schedule.mean_rate(0.0, 100.0) == pytest.approx(15.0, rel=0.05)
        assert schedule.expected_arrivals(0.0, 100.0) == pytest.approx(1500.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            StaticRate(-1.0)
        with pytest.raises(ValueError):
            StepSchedule([])
        with pytest.raises(ValueError):
            RampSchedule([(0.0, 1.0)])
        with pytest.raises(ValueError):
            TraceSchedule([])
        with pytest.raises(ValueError):
            TraceSchedule([-1.0])


class TestArrivalGeneration:
    def test_static_rate_count_matches_expectation(self, rng):
        times = generate_arrival_times(StaticRate(20.0, duration=200.0), rng, horizon=200.0)
        assert len(times) == pytest.approx(4000, rel=0.1)
        assert all(0 <= t <= 200.0 for t in times)
        assert times == sorted(times)

    def test_step_change_reflected_in_counts(self, rng):
        schedule = StepSchedule([(0.0, 5.0), (100.0, 50.0)], duration=200.0)
        times = np.array(generate_arrival_times(schedule, rng, horizon=200.0))
        first = (times < 100.0).sum()
        second = (times >= 100.0).sum()
        assert first == pytest.approx(500, rel=0.2)
        assert second == pytest.approx(5000, rel=0.1)

    def test_zero_rate_produces_nothing(self, rng):
        assert generate_arrival_times(StaticRate(0.0, duration=100.0), rng, horizon=100.0) == []

    def test_interarrival_times_exponential(self, rng):
        times = np.array(generate_arrival_times(StaticRate(50.0, duration=400.0), rng, horizon=400.0))
        gaps = np.diff(times)
        assert gaps.mean() == pytest.approx(1 / 50.0, rel=0.05)
        assert gaps.std() == pytest.approx(1 / 50.0, rel=0.1)   # CV ≈ 1 for Poisson

    @given(rate=st.floats(min_value=1.0, max_value=50.0), seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_property_counts_scale_with_rate(self, rate, seed):
        rng = np.random.default_rng(seed)
        times = generate_arrival_times(StaticRate(rate, duration=100.0), rng, horizon=100.0)
        assert len(times) == pytest.approx(rate * 100, rel=0.35, abs=30)


class TestAzureTraces:
    def test_trace_length_and_nonnegative(self, rng):
        counts = synthesize_azure_trace(AzureTraceConfig(mean_rate=10.0), 60, rng)
        assert len(counts) == 60
        assert (counts >= 0).all()

    def test_steady_trace_mean_close_to_config(self, rng):
        counts = synthesize_azure_trace(AzureTraceConfig(mean_rate=20.0), 240, rng)
        assert counts.mean() == pytest.approx(20.0 * 60, rel=0.35)

    def test_sporadic_trace_is_bursty(self, rng):
        counts = synthesize_azure_trace(
            AzureTraceConfig(mean_rate=2.0, sporadic=True), 240, rng
        )
        stats_peak_to_mean = counts.max() / max(counts.mean(), 1e-9)
        assert stats_peak_to_mean > 2.0

    def test_synthesize_traces_reproducible(self):
        first = synthesize_azure_traces(duration_minutes=30, seed=7)
        second = synthesize_azure_traces(duration_minutes=30, seed=7)
        for name in first:
            assert (first[name].counts == second[name].counts).all()

    def test_different_seeds_differ(self):
        a = synthesize_azure_traces(duration_minutes=30, seed=1)
        b = synthesize_azure_traces(duration_minutes=30, seed=2)
        assert any((a[name].counts != b[name].counts).any() for name in a)

    def test_default_configs_cover_six_functions(self):
        traces = synthesize_azure_traces(duration_minutes=10)
        assert set(traces) == set(DEFAULT_AZURE_CONFIGS)
        assert set(traces) <= set(FUNCTION_CATALOG)

    def test_trace_statistics(self):
        traces = synthesize_azure_traces(duration_minutes=30)
        stats = trace_statistics(traces)
        for name, entry in stats.items():
            assert entry["total"] == pytest.approx(traces[name].total_invocations())
            assert entry["peak_per_minute"] >= entry["mean_per_minute"]

    def test_validation(self):
        with pytest.raises(ValueError):
            AzureTraceConfig(mean_rate=-1.0)
        with pytest.raises(ValueError):
            AzureTraceConfig(mean_rate=1.0, burst_probability=2.0)
        with pytest.raises(ValueError):
            synthesize_azure_trace(AzureTraceConfig(mean_rate=1.0), 0, np.random.default_rng(0))
