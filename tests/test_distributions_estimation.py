"""Tests for service-time distributions and the estimation layer."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.estimation.ewma import EwmaEstimator
from repro.core.estimation.service_time import (
    OnlineServiceTimeEstimator,
    ServiceTimeProfile,
    StreamingQuantile,
)
from repro.core.estimation.sliding_window import DualWindowRateEstimator, SlidingWindowCounter
from repro.core.queueing.distributions import (
    Deterministic,
    Exponential,
    LogNormal,
    ShiftedExponential,
)


class TestDistributions:
    @pytest.mark.parametrize("dist", [
        Exponential(0.1),
        Deterministic(0.1),
        LogNormal(0.1, cv=0.3),
        ShiftedExponential(0.04, 0.06),
    ])
    def test_sample_mean_matches_declared_mean(self, dist, rng):
        samples = dist.sample(rng, size=20000)
        assert float(np.mean(samples)) == pytest.approx(dist.mean, rel=0.05)

    @pytest.mark.parametrize("dist", [
        Exponential(0.1),
        Deterministic(0.1),
        LogNormal(0.1, cv=0.3),
        ShiftedExponential(0.04, 0.06),
    ])
    def test_percentile_matches_empirical(self, dist, rng):
        samples = dist.sample(rng, size=20000)
        assert dist.percentile(0.9) == pytest.approx(float(np.quantile(samples, 0.9)), rel=0.08)

    @pytest.mark.parametrize("dist", [
        Exponential(0.1),
        Deterministic(0.1),
        LogNormal(0.1, cv=0.3),
        ShiftedExponential(0.04, 0.06),
    ])
    def test_scaled_doubles_the_mean(self, dist):
        assert dist.scaled(2.0).mean == pytest.approx(2 * dist.mean)

    def test_rate_is_inverse_mean(self):
        assert Exponential(0.25).rate == pytest.approx(4.0)

    def test_exponential_percentile_closed_form(self):
        assert Exponential(0.1).percentile(0.95) == pytest.approx(-0.1 * math.log(0.05))

    def test_validation(self):
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            LogNormal(0.1, cv=0.0)
        with pytest.raises(ValueError):
            ShiftedExponential(-0.1, 0.1)
        with pytest.raises(ValueError):
            Exponential(0.1).percentile(1.0)

    def test_lognormal_percentile_runs_with_scipy_unimportable(self, monkeypatch):
        # reached only through ControllerConfig.subtract_service_percentile
        # on a log-normal profile; the quantile is the standard library's
        dist = LogNormal(0.1, cv=0.3)
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.stats", None)
        assert dist.percentile(0.5) == pytest.approx(0.1 / math.sqrt(1.09))
        z = 1.6448536269514715          # NormalDist().inv_cdf(0.95)
        assert dist.percentile(0.95) == math.exp(dist._mu + math.sqrt(dist._sigma2) * z)

    def test_the_stdlib_normal_quantile_is_within_six_ulp_of_scipy(self):
        # not bit-equal: 0.95 itself is 3 ulp off (…715 here, …722 in
        # scipy); nothing serialised reads LogNormal.percentile
        from scipy.stats import norm
        from statistics import NormalDist

        inv_cdf = NormalDist().inv_cdf
        ps = np.concatenate([np.linspace(0.0, 1.0, 30_001)[1:-1],
                             [1e-300, 1e-12, 1e-6, 0.0912966, 0.95, 0.99, 1 - 1e-6, 1 - 1e-12]])
        ours = np.array([inv_cdf(float(p)) for p in ps])
        theirs = norm.ppf(ps)
        ulps = np.abs(ours - theirs) / np.array([math.ulp(x) for x in theirs])
        assert ulps.max() <= 6.0
        assert (ours != theirs).any()
        assert inv_cdf(0.95) == 1.6448536269514715
        assert abs(inv_cdf(0.95) - norm.ppf(0.95)) == 3 * math.ulp(1.6448536269514715)


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
        assert counter.count(now=50.0) > 0

    def test_aligned_queries_are_exact(self):
        counter = SlidingWindowCounter(10.0, bucket_width=5.0)
        for t in (0.5, 2.0, 5.5, 9.0, 12.0):
            counter.record(t)
        # query aligned to a bucket boundary: exactly the events in (5, 15]
        assert counter.count(now=15.0) == 3
        assert counter.count(now=20.0) == 1  # only the 12.0 event remains in (10, 20]

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
        assert counter.rate(now=5.0) == pytest.approx(20 / 120.0)
        assert counter.rate(now=5.0, elapsed=5.0) == pytest.approx(4.0)

    def test_clear_resets_counts_and_monotonicity(self):
        counter = SlidingWindowCounter(10.0)
        counter.record(5.0)
        counter.clear()
        assert counter.count(now=5.0) == 0
        counter.record(1.0)  # going "back in time" is fine after clear()
        assert counter.count(now=1.0) == 1

    def test_events_expire_after_window(self):
        counter = SlidingWindowCounter(10.0, bucket_width=5.0)
        counter.record(12.0)
        assert counter.count(now=15.0) == 1
        assert counter.count(now=30.0) == 0

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
        assert counter.count(now=12.0) == 5
        assert counter.count(now=20.0) == 1

    def test_rate_uses_elapsed_cap(self):
        counter = SlidingWindowCounter(120.0)
        for t in np.arange(0.0, 5.0, 0.5):
            counter.record(float(t))
        assert counter.rate(now=5.0, elapsed=5.0) == pytest.approx(2.0)

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
            distribution=Exponential(0.1),
        )

    def test_interpolates_mean(self):
        profile = self.make_profile()
        assert profile.mean_service_time(1.0) == pytest.approx(0.1)
        assert profile.mean_service_time(0.5) == pytest.approx(0.2)
        assert 0.15 < profile.mean_service_time(0.6) < 0.2

    def test_service_rate_inverse(self):
        assert self.make_profile().service_rate(1.0) == pytest.approx(10.0)

    def test_percentile_scales_with_size(self):
        profile = self.make_profile()
        assert profile.percentile(0.95, 0.5) == pytest.approx(2 * profile.percentile(0.95, 1.0))

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


class TestStreamingQuantileAndOnlineEstimator:
    def test_quantile_matches_numpy_for_small_samples(self, rng):
        sq = StreamingQuantile(max_samples=5000)
        data = rng.exponential(0.1, size=2000)
        for x in data:
            sq.add(float(x))
        assert sq.quantile(0.95) == pytest.approx(float(np.quantile(data, 0.95)), rel=0.02)
        assert sq.count == 2000

    def test_reservoir_bounds_memory(self, rng):
        sq = StreamingQuantile(max_samples=100)
        for x in rng.exponential(0.1, size=5000):
            sq.add(float(x))
        assert len(sq._sorted) == 100
        assert sq.count == 5000

    def test_quantile_requires_data(self):
        with pytest.raises(ValueError):
            StreamingQuantile().quantile(0.5)

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

    def test_percentile_from_observations(self, rng):
        estimator = OnlineServiceTimeEstimator()
        data = rng.exponential(0.1, size=2000)
        for x in data:
            estimator.observe(1.0, float(x))
        assert estimator.percentile(0.95, 1.0) == pytest.approx(float(np.quantile(data, 0.95)), rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineServiceTimeEstimator(bucket_width=0.0)
        with pytest.raises(ValueError):
            OnlineServiceTimeEstimator().observe(1.0, -0.1)
        with pytest.raises(ValueError):
            StreamingQuantile(max_samples=2)


class TestBucketizedWindowStaleRecords:
    def test_record_behind_advanced_head_is_dropped(self):
        """A count() query advances the ring; a subsequent record older than
        the retained span must not alias a newer bucket (phantom events)."""
        counter = SlidingWindowCounter(10.0, bucket_width=5.0)
        counter.record(0.0)
        assert counter.count(now=100.0) == 0   # advances the head far forward
        counter.record(1.0)                    # non-decreasing, but ancient
        assert counter.count(now=100.0) == 0   # must not appear in (90, 100]


class TestUnalignedQueryOverApproximation:
    def test_unaligned_query_never_misses_in_window_events(self):
        # events at 3 and 4 lie inside (2, 12] but in a partially-covered
        # bucket; the counter must include them (over-approximate), not
        # silently drop them — under-counting would delay burst detection
        counter = SlidingWindowCounter(10.0, bucket_width=5.0)
        for t in (3.0, 4.0, 6.0, 11.0):
            counter.record(t)
        assert counter.count(now=12.0) == 4
