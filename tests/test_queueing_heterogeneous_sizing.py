"""Tests for the heterogeneous queueing bounds and the sizing algorithms."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from oracles.naive_sizing import required_containers_naive
from repro.core.queueing.heterogeneous import HeterogeneousMMcQueue
from repro.core.queueing.mmc import MMcQueue
from repro.core.queueing.sizing import (
    required_containers,
    required_containers_heterogeneous,
    wait_budget_from_slo,
)
from repro.core.queueing.solver import SizingSolver


def cold_solve(*args):
    """One solve through a solver with no memo and no warm start."""
    return SizingSolver(cache_size=0, warm_start=False).solve(*args)


class TestHeterogeneousQueue:
    def test_reduces_to_homogeneous_bound_shape(self):
        lam, mu, c = 20.0, 10.0, 4
        het = HeterogeneousMMcQueue(lam, [mu] * c)
        hom = MMcQueue(lam, mu, c)
        # the heterogeneous worst-case bound is more pessimistic at small n
        # but both must agree on basic structure
        assert het.c == c
        assert het.aggregate_rate == pytest.approx(c * mu)
        assert het.matches_homogeneous()
        assert het.utilization == pytest.approx(hom.utilization)

    def test_probabilities_form_distribution(self):
        queue = HeterogeneousMMcQueue(15.0, [10.0, 7.0, 5.0])
        probs = queue.state_probabilities(300)
        assert (probs >= 0).all()
        assert probs.sum() <= 1.0 + 1e-9
        assert probs.sum() == pytest.approx(1.0, abs=1e-3)

    def test_worst_case_is_pessimistic_vs_homogeneous_average(self):
        # replacing fast containers by the mean-rate homogeneous system
        # should not look worse than the Alves worst case
        lam = 18.0
        rates = [10.0, 8.0, 6.0]
        het = HeterogeneousMMcQueue(lam, rates)
        hom = MMcQueue(lam, sum(rates) / len(rates), len(rates))
        assert het.wait_bound_probability(0.1) <= hom.wait_bound_probability(0.1) + 1e-9

    def test_wait_bound_monotone_in_t(self):
        queue = HeterogeneousMMcQueue(15.0, [10.0, 7.0, 5.0])
        values = [queue.wait_bound_probability(t) for t in (0.0, 0.05, 0.1, 0.2, 0.5)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_adding_a_container_helps(self):
        lam = 18.0
        base = HeterogeneousMMcQueue(lam, [10.0, 7.0, 5.0])
        more = HeterogeneousMMcQueue(lam, [10.0, 7.0, 5.0, 10.0])
        assert more.wait_bound_probability(0.1) >= base.wait_bound_probability(0.1)

    def test_percentile_bisection(self):
        queue = HeterogeneousMMcQueue(15.0, [10.0, 7.0, 5.0])
        t95 = queue.wait_bound_percentile(0.95)
        assert queue.wait_bound_probability(t95) >= 0.95
        assert queue.wait_bound_probability(max(0.0, t95 - 0.01)) < 0.95 + 1e-9

    def test_unstable_system(self):
        queue = HeterogeneousMMcQueue(100.0, [10.0, 10.0])
        assert not queue.is_stable
        assert queue.wait_bound_percentile(0.95) == math.inf
        with pytest.raises(ValueError):
            queue.log_p0()

    def test_mean_number_in_system_finite_and_positive(self):
        queue = HeterogeneousMMcQueue(15.0, [10.0, 7.0, 5.0])
        mean = queue.mean_number_in_system
        assert 0 < mean < 100

    def test_validation(self):
        with pytest.raises(ValueError):
            HeterogeneousMMcQueue(10.0, [])
        with pytest.raises(ValueError):
            HeterogeneousMMcQueue(10.0, [1.0, -2.0])
        with pytest.raises(ValueError):
            HeterogeneousMMcQueue(-1.0, [1.0])


class TestWaitBudget:
    def test_subtracts_service_percentile(self):
        budget = wait_budget_from_slo(0.5, 10.0, 0.95)
        assert budget == pytest.approx(0.5 + math.log(0.05) / 10.0)

    def test_zero_service_percentile_uses_full_deadline(self):
        assert wait_budget_from_slo(0.1, 10.0, 0.95, service_time_percentile=0.0) == 0.1

    def test_never_negative(self):
        assert wait_budget_from_slo(0.01, 1.0, 0.99) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wait_budget_from_slo(0.0, 10.0)
        with pytest.raises(ValueError):
            wait_budget_from_slo(0.1, 0.0)


class TestSizingAlgorithm1:
    def test_meets_percentile_and_is_minimal(self):
        result = required_containers(20.0, 10.0, 0.1, 0.95)
        assert result.achieved_probability >= 0.95
        if result.containers > 3:
            below = MMcQueue(20.0, 10.0, result.containers - 1)
            assert (not below.is_stable) or below.wait_bound_probability(0.1) < 0.95

    def test_zero_load_needs_no_containers(self):
        assert required_containers(0.0, 10.0, 0.1).containers == 0

    def test_tighter_slo_needs_more_containers(self):
        loose = required_containers(40.0, 10.0, 0.5, 0.95).containers
        tight = required_containers(40.0, 10.0, 0.02, 0.95).containers
        assert tight >= loose

    def test_higher_percentile_needs_more_containers(self):
        p95 = required_containers(40.0, 10.0, 0.1, 0.95).containers
        p999 = required_containers(40.0, 10.0, 0.1, 0.999).containers
        assert p999 >= p95

    def test_monotone_in_arrival_rate(self):
        counts = [required_containers(lam, 10.0, 0.1, 0.95).containers
                  for lam in (10, 20, 30, 40, 50)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_always_at_least_stable(self):
        result = required_containers(95.0, 10.0, 1.0, 0.5)
        assert result.containers >= 10

    def test_solver_and_naive_match_reference(self):
        # λ/μ ≤ 14: far below the naive oracle's overflow at λ/μ ≈ 708
        for lam in (5.0, 17.0, 60.0, 140.0):
            for budget in (0.05, 0.1, 0.3):
                reference = required_containers(lam, 10.0, budget, 0.95).containers
                assert cold_solve(lam, 10.0, budget, 0.95).containers == reference
                assert required_containers_naive(lam, 10.0, budget, 0.95).containers == reference

    def test_solver_handles_large_counts(self):
        result = cold_solve(5000.0, 10.0, 0.1, 0.99)
        assert result.containers >= 500
        assert result.achieved_probability >= 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            required_containers(-1.0, 10.0, 0.1)
        with pytest.raises(ValueError):
            required_containers(1.0, -1.0, 0.1)
        with pytest.raises(ValueError):
            required_containers(1.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            required_containers(1.0, 1.0, 0.1, percentile=1.5)

    @given(
        lam=st.floats(min_value=1.0, max_value=120.0),
        mu=st.floats(min_value=2.0, max_value=30.0),
        budget=st.floats(min_value=0.02, max_value=0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_solver_equals_reference(self, lam, mu, budget):
        reference = required_containers(lam, mu, budget, 0.95).containers
        assert cold_solve(lam, mu, budget, 0.95).containers == reference

    @given(
        lam=st.floats(min_value=1.0, max_value=100.0),
        mu=st.floats(min_value=2.0, max_value=30.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_result_meets_target(self, lam, mu):
        result = required_containers(lam, mu, 0.1, 0.95)
        queue = MMcQueue(lam, mu, result.containers)
        assert queue.is_stable
        assert queue.wait_bound_probability(0.1) >= 0.95


class TestHeterogeneousSizing:
    def test_no_addition_needed_when_existing_suffices(self):
        # plenty of standard containers already present
        result = required_containers_heterogeneous(
            lam=10.0, existing_mus=[10.0] * 8, standard_mu=10.0, wait_budget=0.1
        )
        assert result.containers == 8

    def test_adds_containers_when_deflated(self):
        base = required_containers(50.0, 10.0, 0.1, 0.95).containers
        deflated = [10.0 * 0.7] * base
        result = required_containers_heterogeneous(
            lam=50.0, existing_mus=deflated, standard_mu=10.0, wait_budget=0.1
        )
        assert result.containers >= base
        assert result.achieved_probability >= 0.95

    def test_more_deflation_needs_more_additions(self):
        base = required_containers(60.0, 10.0, 0.1, 0.95).containers
        light = required_containers_heterogeneous(
            60.0, [10.0 * 0.9] * base, 10.0, 0.1
        ).containers
        heavy = required_containers_heterogeneous(
            60.0, [10.0 * 0.5] * base, 10.0, 0.1
        ).containers
        assert heavy >= light

    def test_zero_load(self):
        result = required_containers_heterogeneous(0.0, [7.0, 10.0], 10.0, 0.1)
        assert result.containers == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            required_containers_heterogeneous(1.0, [1.0], 0.0, 0.1)
        with pytest.raises(ValueError):
            required_containers_heterogeneous(1.0, [-1.0], 1.0, 0.1)
