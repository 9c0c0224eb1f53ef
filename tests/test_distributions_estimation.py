"""Tests for service-time distributions and the estimation layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.sliding_window import count as window_count
from oracles.sliding_window import rate as window_rate
from repro.core.estimation.ewma import EwmaEstimator
from repro.core.estimation.service_time import (
    OnlineServiceTimeEstimator,
    ServiceTimeProfile,
)
from repro.core.estimation.sliding_window import DualWindowRateEstimator, SlidingWindowCounter
from repro.core.queueing.distributions import (
    Deterministic,
    Exponential,
    LogNormal,
)


class TestDistributions:
    @pytest.mark.parametrize("dist", [
        Exponential(0.1),
        Deterministic(0.1),
        LogNormal(0.1, cv=0.3),
    ])
    def test_sample_mean_matches_declared_mean(self, dist, rng):
        samples = dist.sample(rng, size=20000)
        assert float(np.mean(samples)) == pytest.approx(dist.mean, rel=0.05)

    @pytest.mark.parametrize("dist", [
        Exponential(0.1),
        Deterministic(0.1),
        LogNormal(0.1, cv=0.3),
    ])
    def test_scaled_doubles_the_mean(self, dist):
        assert dist.scaled(2.0).mean == pytest.approx(2 * dist.mean)

    def test_rate_is_inverse_mean(self):
        assert Exponential(0.25).rate == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            LogNormal(0.1, cv=0.0)

    @pytest.mark.parametrize("dist", [
        Exponential(0.1),
        Deterministic(0.1),
        LogNormal(0.1, cv=0.3),
    ])
    def test_scaled_keeps_the_family_and_its_shape(self, dist, rng):
        # a deflated container's service times are the standard ones stretched
        scaled = dist.scaled(2.5)
        assert type(scaled) is type(dist) and scaled.rate == pytest.approx(dist.rate / 2.5)
        samples = scaled.sample(rng, size=20000)
        cv = float(np.std(samples) / np.mean(samples))
        expected_cv = {Exponential: 1.0, Deterministic: 0.0, LogNormal: 0.3}[type(dist)]
        assert cv == pytest.approx(expected_cv, abs=0.03)

    def test_deterministic_sample_consumes_no_randomness(self, rng):
        state = rng.bit_generator.state
        dist = Deterministic(0.2)
        assert dist.sample(rng) == 0.2
        assert dist.sample(rng, size=3).tolist() == [0.2, 0.2, 0.2]
        assert rng.bit_generator.state == state

    def test_deterministic_validation(self):
        for mean in (0.0, -0.1):
            with pytest.raises(ValueError, match="mean must be positive"):
                Deterministic(mean)


class TestEwma:
    def test_first_observation_seeds_value(self):
        ewma = EwmaEstimator(alpha=0.7)
        assert ewma.update(10.0) == 10.0

    def test_weights_recent_observations(self):
        ewma = EwmaEstimator(alpha=0.7)
        ewma.update(10.0)
        assert ewma.update(20.0) == pytest.approx(0.7 * 20 + 0.3 * 10)

    def test_converges_to_constant_input(self):
        ewma = EwmaEstimator(alpha=0.5, initial=0.0)
        for _ in range(40):
            ewma.update(5.0)
        assert ewma.value == pytest.approx(5.0, abs=1e-6)

    def test_history_and_count(self):
        ewma = EwmaEstimator()
        ewma.update(1.0)
        ewma.update(2.0)
        assert ewma.observations == 2
        assert len(ewma.history) == 2

    def test_predict_before_observation(self):
        assert EwmaEstimator().predict() == 0.0

    def test_reset(self):
        ewma = EwmaEstimator()
        ewma.update(3.0)
        ewma.reset()
        assert ewma.value is None and ewma.observations == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            EwmaEstimator(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaEstimator().update(-1.0)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=50),
           st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_property_stays_within_observed_range(self, observations, alpha):
        ewma = EwmaEstimator(alpha=alpha)
        for value in observations:
            ewma.update(value)
        assert min(observations) - 1e-9 <= ewma.value <= max(observations) + 1e-9


class TestBucketizedWindow:
    """The PR-1 ring-buffer counter: O(1) record, constant memory."""

    def test_constant_memory_under_bursts(self):
        counter = SlidingWindowCounter(120.0)  # default 5 s buckets -> 25 slots
        buckets = len(counter._counts)
        for i in range(50_000):
            counter.record(i * 0.001)  # a 1000 req/s burst
        assert len(counter._counts) == buckets
        assert window_count(counter, now=50.0) > 0

    def test_aligned_queries_are_exact(self):
        counter = SlidingWindowCounter(10.0, bucket_width=5.0)
        for t in (0.5, 2.0, 5.5, 9.0, 12.0):
            counter.record(t)
        # query aligned to a bucket boundary: exactly the events in (5, 15]
        assert window_count(counter, now=15.0) == 3
        assert window_count(counter, now=20.0) == 1  # only the 12.0 event remains in (10, 20]

    def test_burst_switch_at_window_boundary(self):
        estimator = DualWindowRateEstimator(long_window=120, short_window=10)
        t = 0.0
        while t < 100.0:                      # 5 req/s background
            estimator.record_arrival(t)
            t += 0.2
        while t < 110.0:                      # burst at 50 req/s filling the short window
            estimator.record_arrival(t)
            t += 0.02
        # sampled exactly at the burst-window boundary (aligned, 5 s grid)
        obs = estimator.estimate(now=110.0)
        assert obs.burst_detected
        assert obs.rate == obs.short_rate == pytest.approx(50.0, rel=0.1)
        # one short-window length later with no further arrivals the burst
        # has left the short window again
        obs_after = estimator.estimate(now=125.0)
        assert not obs_after.burst_detected
        assert obs_after.rate == obs_after.long_rate

    def test_startup_transient_uses_elapsed_cap(self):
        counter = SlidingWindowCounter(120.0)
        for t in np.arange(0.0, 5.0, 0.25):   # 4 req/s for the first five seconds
            counter.record(float(t))
        # without the cap the 20 events would be spread over the whole window
        assert window_rate(counter, now=5.0) == pytest.approx(20 / 120.0)
        assert window_rate(counter, now=5.0, elapsed=5.0) == pytest.approx(4.0)

    def test_clear_resets_counts_and_monotonicity(self):
        counter = SlidingWindowCounter(10.0)
        counter.record(5.0)
        counter.clear()
        assert window_count(counter, now=5.0) == 0
        counter.record(1.0)  # going "back in time" is fine after clear()
        assert window_count(counter, now=1.0) == 1

    def test_events_expire_after_window(self):
        counter = SlidingWindowCounter(10.0, bucket_width=5.0)
        counter.record(12.0)
        assert window_count(counter, now=15.0) == 1
        assert window_count(counter, now=30.0) == 0

    def test_bucket_width_validation(self):
        with pytest.raises(ValueError):
            SlidingWindowCounter(10.0, bucket_width=0.0)
        with pytest.raises(ValueError):
            SlidingWindowCounter(10.0, bucket_width=20.0)
        # short windows clamp the default bucket to half the window
        assert SlidingWindowCounter(2.0).bucket_width == pytest.approx(1.0)


class TestSlidingWindows:
    def test_counter_evicts_old_events(self):
        counter = SlidingWindowCounter(10.0)
        for t in (0.0, 2.0, 5.0, 9.0, 12.0):
            counter.record(t)
        # bucketized semantics: an unaligned query (12.0 on a 5 s grid)
        # includes the whole partially-covered oldest bucket [0, 5), so all
        # five events count; at the aligned query 20.0 the buckets below
        # [10, 15) have been evicted and only the 12.0 event remains
        assert window_count(counter, now=12.0) == 5
        assert window_count(counter, now=20.0) == 1

    def test_rate_uses_elapsed_cap(self):
        counter = SlidingWindowCounter(120.0)
        for t in np.arange(0.0, 5.0, 0.5):
            counter.record(float(t))
        assert window_rate(counter, now=5.0, elapsed=5.0) == pytest.approx(2.0)

    def test_no_elapsed_history_reads_no_rate(self):
        estimator = DualWindowRateEstimator(long_window=120, short_window=10)
        estimator.record_arrival(3.0)
        obs = estimator.estimate(now=3.0)      # the first arrival's instant: count / 0
        assert (obs.long_rate, obs.short_rate, obs.rate, obs.burst_detected) == (0, 0, 0, False)
        assert estimator.estimate(now=3.5).rate == pytest.approx(2.0)

    def test_non_decreasing_timestamps_enforced(self):
        counter = SlidingWindowCounter(10.0)
        counter.record(5.0)
        with pytest.raises(ValueError):
            counter.record(1.0)

    def test_dual_window_uses_long_window_without_burst(self):
        estimator = DualWindowRateEstimator(long_window=120, short_window=10)
        for t in np.arange(0.0, 100.0, 0.1):   # steady 10 req/s
            estimator.record_arrival(float(t))
        obs = estimator.estimate(now=100.0)
        assert not obs.burst_detected
        assert obs.rate == pytest.approx(10.0, rel=0.05)

    def test_dual_window_switches_on_burst(self):
        estimator = DualWindowRateEstimator(long_window=120, short_window=10, burst_factor=2.0)
        t = 0.0
        while t < 100.0:                       # 5 req/s background
            estimator.record_arrival(t)
            t += 0.2
        while t < 110.0:                       # 10-second burst at 50 req/s
            estimator.record_arrival(t)
            t += 0.02
        obs = estimator.estimate(now=110.0)
        assert obs.burst_detected
        assert obs.rate == pytest.approx(50.0, rel=0.15)
        assert obs.rate == obs.short_rate

    def test_estimate_with_no_arrivals(self):
        estimator = DualWindowRateEstimator()
        obs = estimator.estimate(now=50.0)
        assert obs.rate == 0.0
        assert not obs.burst_detected

    def test_validation(self):
        with pytest.raises(ValueError):
            DualWindowRateEstimator(long_window=10, short_window=10)
        with pytest.raises(ValueError):
            DualWindowRateEstimator(burst_factor=1.0)
        with pytest.raises(ValueError):
            SlidingWindowCounter(0.0)


class TestServiceTimeProfile:
    def make_profile(self) -> ServiceTimeProfile:
        return ServiceTimeProfile(
            function_name="fn",
            cpu_fractions=(0.5, 0.7, 1.0),
            mean_service_times=(0.2, 0.15, 0.1),
        )

    def test_interpolates_mean(self):
        profile = self.make_profile()
        assert profile.mean_service_time(1.0) == pytest.approx(0.1)
        assert profile.mean_service_time(0.5) == pytest.approx(0.2)
        assert 0.15 < profile.mean_service_time(0.6) < 0.2

    def test_service_rate_inverse(self):
        assert self.make_profile().service_rate(1.0) == pytest.approx(10.0)

    def test_from_speed_curve(self):
        profile = ServiceTimeProfile.from_speed_curve("fn", 0.1, lambda f: f)
        assert profile.mean_service_time(0.5) == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceTimeProfile("fn", (1.0, 0.5), (0.1, 0.2))   # not sorted
        with pytest.raises(ValueError):
            ServiceTimeProfile("fn", (0.5,), (0.1, 0.2))       # length mismatch
        with pytest.raises(ValueError):
            ServiceTimeProfile("fn", (0.5,), (-0.1,))


class TestOnlineEstimator:
    def test_online_estimator_learns_per_bucket(self):
        estimator = OnlineServiceTimeEstimator(bucket_width=0.1)
        for _ in range(50):
            estimator.observe(1.0, 0.1)
            estimator.observe(0.7, 0.15)
        assert estimator.mean_service_time(1.0) == pytest.approx(0.1)
        assert estimator.mean_service_time(0.7) == pytest.approx(0.15)
        assert estimator.service_rate(1.0) == pytest.approx(10.0)

    def test_online_estimator_falls_back_to_nearest_bucket(self):
        estimator = OnlineServiceTimeEstimator()
        for _ in range(30):
            estimator.observe(1.0, 0.1)
        # asking about 50% CPU: scales the standard observation proportionally
        assert estimator.mean_service_time(0.5) == pytest.approx(0.2, rel=0.05)

    def test_online_estimator_unknown_returns_none(self):
        estimator = OnlineServiceTimeEstimator()
        assert estimator.mean_service_time(1.0) is None
        assert estimator.service_rate(1.0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineServiceTimeEstimator(bucket_width=0.0)
        with pytest.raises(ValueError):
            OnlineServiceTimeEstimator().observe(1.0, -0.1)


class TestBucketizedWindowStaleRecords:
    def test_record_behind_advanced_head_is_dropped(self):
        """A count() query advances the ring; a subsequent record older than
        the retained span must not alias a newer bucket (phantom events)."""
        counter = SlidingWindowCounter(10.0, bucket_width=5.0)
        counter.record(0.0)
        assert window_count(counter, now=100.0) == 0   # advances the head far forward
        counter.record(1.0)                    # non-decreasing, but ancient
        assert window_count(counter, now=100.0) == 0   # must not appear in (90, 100]


class TestUnalignedQueryOverApproximation:
    def test_unaligned_query_never_misses_in_window_events(self):
        # events at 3 and 4 lie inside (2, 12] but in a partially-covered
        # bucket; the counter must include them (over-approximate), not
        # silently drop them — under-counting would delay burst detection
        counter = SlidingWindowCounter(10.0, bucket_width=5.0)
        for t in (3.0, 4.0, 6.0, 11.0):
            counter.record(t)
        assert window_count(counter, now=12.0) == 4
