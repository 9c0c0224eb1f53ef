"""Tests for the model-driven autoscaler (paper §3.3)."""

import pytest

from repro.core.allocation.autoscaler import Autoscaler, ScalingQuery
from repro.core.queueing.sizing import required_containers, required_containers_heterogeneous


class TestAutoscaler:
    def test_matches_algorithm1_for_homogeneous_containers(self):
        scaler = Autoscaler(percentile=0.95)
        decision = scaler.desired_containers(
            "fn", arrival_rate=30.0, service_rate=10.0, slo_deadline=0.1
        )
        expected = required_containers(30.0, 10.0, 0.1, 0.95).containers
        assert decision.desired_containers == expected
        assert decision.achieved_probability >= 0.95
        assert not decision.used_heterogeneous_model

    def test_zero_rate_scales_to_zero(self):
        scaler = Autoscaler()
        decision = scaler.desired_containers("fn", 0.0, 10.0, 0.1, current_containers=4)
        assert decision.desired_containers == 0
        assert decision.delta == -4

    def test_min_containers_floor(self):
        scaler = Autoscaler()
        decision = scaler.desired_containers("fn", 0.0, 10.0, 0.1, min_containers=2)
        assert decision.desired_containers == 2

    def test_delta(self):
        scaler = Autoscaler()
        up = scaler.desired_containers("fn", 50.0, 10.0, 0.1, current_containers=2)
        assert up.delta > 0
        down = scaler.desired_containers("fn", 5.0, 10.0, 0.1, current_containers=10)
        assert down.delta < 0

    def test_heterogeneous_path_used_when_rates_differ(self):
        scaler = Autoscaler()
        decision = scaler.desired_containers(
            "fn", arrival_rate=30.0, service_rate=10.0, slo_deadline=0.1,
            current_containers=4, existing_service_rates=[7.0, 7.0, 10.0, 10.0],
        )
        assert decision.used_heterogeneous_model
        assert decision.desired_containers >= 4

    def test_heterogeneous_needs_at_least_homogeneous(self):
        scaler = Autoscaler()
        hom = scaler.desired_containers("fn", 40.0, 10.0, 0.1).desired_containers
        het = scaler.desired_containers(
            "fn", 40.0, 10.0, 0.1,
            existing_service_rates=[7.0] * hom,
        ).desired_containers
        assert het >= hom

    def test_the_wait_budget_is_the_whole_deadline(self):
        # the SLO is defined on waiting time: nothing is subtracted from d
        for rate in (0.0, 30.0):
            assert Autoscaler().desired_containers("fn", rate, 10.0, 0.5).wait_budget == 0.5
        with pytest.raises(ValueError, match="SLO deadline must be positive"):
            Autoscaler().desired_containers("fn", 30.0, 10.0, 0.0)

    def test_decide_batch_agrees_with_the_reference_sizing(self):
        # one epoch batch mixing homogeneous fleets and deflated ones, against
        # Algorithm 1 and its heterogeneous twin called directly
        queries = []
        for lam in (5.0, 25.0, 80.0):
            queries.append(ScalingQuery(f"fn-{lam}", lam, 10.0, 0.1, current_containers=3))
            queries.append(ScalingQuery(f"deflated-{lam}", lam, 10.0, 0.1, current_containers=3,
                                        existing_service_rates=[7.0, 7.0, 10.0]))
        decisions = Autoscaler().decide_batch(queries)
        for query, decision in zip(queries, decisions):
            if query.existing_service_rates is None:
                expected = required_containers(query.arrival_rate, 10.0, 0.1, 0.95)
            else:
                expected = required_containers_heterogeneous(
                    query.arrival_rate, query.existing_service_rates, 10.0, 0.1, 0.95)
            assert decision.function_name == query.function_name
            assert decision.desired_containers == expected.containers
            assert decision.used_heterogeneous_model == (query.existing_service_rates is not None)
            assert decision.achieved_probability >= 0.95

    def test_a_decision_depends_only_on_its_own_query(self):
        # one autoscaler sizes a mixed epoch, then each query alone and in
        # reverse order: the same decisions
        queries = [
            ScalingQuery("idle", 0.0, 10.0, 0.1, min_containers=1),
            ScalingQuery("busy", 140.0, 10.0, 0.1, current_containers=12),
            ScalingQuery("deflated", 40.0, 10.0, 0.1, current_containers=4,
                         existing_service_rates=[6.0, 7.0, 10.0, 10.0]),
            ScalingQuery("small", 5.0, 10.0, 0.1, min_containers=2),
        ]
        scaler = Autoscaler()
        epoch = scaler.decide_batch(queries)
        assert [scaler.decide_batch([q])[0] for q in queries] == epoch
        assert scaler.decide_batch(queries[::-1]) == epoch[::-1]

    def test_minimum_stable_containers(self):
        scaler = Autoscaler()
        assert scaler.minimum_stable_containers(0.0, 10.0) == 0
        assert scaler.minimum_stable_containers(25.0, 10.0) == 3
        assert scaler.minimum_stable_containers(30.0, 10.0) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            Autoscaler(percentile=1.5)
        with pytest.raises(ValueError):
            Autoscaler().desired_containers("fn", -1.0, 10.0, 0.1)
        with pytest.raises(ValueError):
            Autoscaler().desired_containers("fn", 1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            Autoscaler().minimum_stable_containers(1.0, 0.0)


def _build_removed(target, option, value):
    from repro.core.controller import ControllerConfig
    from repro.core.estimation.service_time import OnlineServiceTimeEstimator

    cls = {"Autoscaler": Autoscaler, "ControllerConfig": ControllerConfig,
           "OnlineServiceTimeEstimator": OnlineServiceTimeEstimator}[target]
    return cls(**{option: value})


@pytest.mark.parametrize("target, option, value", [
    ("Autoscaler", "subtract_service_percentile", True),
    ("Autoscaler", "subtract_service_percentile", False),
    ("ControllerConfig", "subtract_service_percentile", False),
    ("ControllerConfig", "placement_strategy", "best_fit"),
    ("OnlineServiceTimeEstimator", "max_samples_per_bucket", 64),
])
def test_a_removed_option_is_not_accepted(target, option, value):
    """The learned service-percentile subtraction and the placement choice are gone."""
    with pytest.raises(TypeError, match=option):
        _build_removed(target, option, value)
