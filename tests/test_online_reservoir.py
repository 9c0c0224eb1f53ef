"""The online service-time reservoir exists only where a percentile is read.

LaSS learns a function's mean service time online (§5); the learned
*percentile* reaches a decision only through the ``d − s_p`` wait budget
(``ControllerConfig.subtract_service_percentile``) of a function with no
offline profile.  Everywhere else the controller builds its estimators
with ``max_samples_per_bucket=0``: a running count and total per bucket,
no reservoir, no RNG draw.  Frame counts cannot see that cost (the
reservoir loop ran inside one frame), so these tests count what is kept:

* on the default scenario no estimator holds a reservoir, and the
  counts and service rate equal a 1024-sample estimator's fed the same
  stream;
* the one reader keeps its reservoirs and the bytes it had before;
* the estimator's edges: the exponential prior at size 0, refused sizes,
  and the ``reduce`` fold being the old loop bit for bit.
"""

import hashlib
import json
import math
import operator
import struct
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from oracles.percentile_reader_digest import DIGEST as READER_DIGEST
from repro.core.controller import ControllerConfig
from repro.core.estimation.service_time import OnlineServiceTimeEstimator
from repro.simulation import SimulationRunner
from repro.workloads.functions import get_function
from repro.workloads.generator import WorkloadBinding
from repro.workloads.schedules import StaticRate
from test_call_budget import DURATION, build_runner

PLANES = ("event", "columnar")


class _Recording:
    """Stands in for one function's online estimator: forwards every call, keeps the stream."""

    def __init__(self, inner: OnlineServiceTimeEstimator) -> None:
        self.inner = inner
        self.calls = []

    def observe(self, cpu_fraction, service_time):
        self.calls.append(("observe", cpu_fraction, service_time))
        self.inner.observe(cpu_fraction, service_time)

    def observe_many(self, cpu_fractions, service_times):
        self.calls.append(("observe_many", list(cpu_fractions), list(service_times)))
        self.inner.observe_many(cpu_fractions, service_times)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.mark.parametrize("plane", PLANES)
def test_the_default_scenario_keeps_no_reservoir(plane):
    runner = build_runner(data_plane=plane)
    folds = runner.policy.completion_folds
    for name, estimator in folds.items():
        folds[name] = _Recording(estimator)
    result = runner.run(DURATION)
    assert result.data_plane_used == plane

    for name, recording in folds.items():
        estimator = recording.inner
        assert estimator.max_samples_per_bucket == 0
        assert estimator._buckets == {}, name
        twin = OnlineServiceTimeEstimator()  # the 1024-sample estimator every run used to build
        for method, *arguments in recording.calls:
            getattr(twin, method)(*arguments)
        assert twin._buckets, name  # the twin did keep samples: the comparison is not vacuous
        assert estimator.observations(1.0) == twin.observations(1.0) > 0
        assert estimator.service_rate(1.0) == twin.service_rate(1.0)
        assert estimator._totals == twin._totals


def reader_run(data_plane):
    """The percentile reader: online learning only, the learned percentile subtracted."""
    runner = SimulationRunner(
        workloads=[
            WorkloadBinding(profile=get_function(name), schedule=StaticRate(rate, duration=60.0),
                            slo_deadline=slo)
            for name, rate, slo in (("squeezenet", 40.0, 0.25), ("image-resizer", 60.0, 0.2),
                                    ("geofence", 100.0, 0.1))
        ],
        controller_config=ControllerConfig(subtract_service_percentile=True, epoch_length=5.0),
        seed=11,
        use_offline_profiles=False,
        data_plane=data_plane,
    )
    controller = runner.policy
    decisions = []
    decide = controller.autoscaler.decide_batch

    def recording(queries):
        batch = decide(queries)
        decisions.append([list(decision) for decision in batch])
        return batch

    controller.autoscaler.decide_batch = recording
    result = runner.run(60.0)
    epochs = [[epoch.time, epoch.overloaded, epoch.total_cpu, epoch.allocated_cpu,
               [[s.function_name, s.containers, s.cpu, s.desired_containers,
                 s.arrival_rate_estimate, s.service_rate_estimate]
                for _, s in sorted(epoch.functions.items())]]
              for epoch in result.metrics.epochs]
    return controller, epochs, decisions


def reader_digest(epochs, decisions):
    """sha256 of the epoch timeline and the decisions (``json`` writes floats round-trip exact)."""
    blob = json.dumps({"epochs": epochs, "decisions": decisions}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("plane", PLANES)
def test_the_percentile_reader_keeps_its_reservoirs_and_bytes(plane):
    controller, epochs, decisions = reader_run(plane)
    assert len(epochs) == len(decisions) == 13
    for estimator in controller.completion_folds.values():
        assert estimator.max_samples_per_bucket == 1024
        assert estimator._buckets
    assert reader_digest(epochs, decisions) == READER_DIGEST


def test_an_offline_profile_or_no_subtraction_builds_no_reservoir(engine, paper_cluster,
                                                                  simple_deployment):
    from repro.core.controller import LassController
    from repro.core.estimation.service_time import ServiceTimeProfile

    paper_cluster.deploy(simple_deployment)
    profile = ServiceTimeProfile("fn", (1.0,), (0.05,))
    for subtract, profiles, size in ((False, {}, 0), (False, {"fn": profile}, 0),
                                     (True, {"fn": profile}, 0), (True, {}, 1024)):
        controller = LassController(
            engine, paper_cluster, ControllerConfig(subtract_service_percentile=subtract),
            service_profiles=profiles)
        assert controller.completion_folds["fn"].max_samples_per_bucket == size


# ----------------------------------------------------------------------
# The estimator's edges
# ----------------------------------------------------------------------
def test_no_reservoir_answers_the_exponential_prior():
    estimator = OnlineServiceTimeEstimator(max_samples_per_bucket=0)
    assert estimator.percentile(0.95) is None
    times = [0.05, 0.2, 0.125, 0.0, 0.3]
    estimator.observe_many([1.0] * len(times), times)
    estimator.observe(1.0, 0.075)
    mean = estimator.mean_service_time(1.0)
    assert mean == sum(times + [0.075]) / 6
    for p in (0.5, 0.95, 0.99):
        assert estimator.percentile(p) == -mean * math.log(1.0 - p)
    assert estimator._buckets == {}
    # a reservoir-keeping estimator answers from its samples instead
    sampled = OnlineServiceTimeEstimator()
    sampled.observe_many([1.0] * len(times), times)
    assert sampled.percentile(0.5) == 0.125


@pytest.mark.parametrize("size", [1, 2, 5, 9, -1, -10, -1024, float("nan")])
def test_a_reservoir_too_small_to_sample_is_refused(size):
    with pytest.raises(ValueError, match="max_samples_per_bucket"):
        OnlineServiceTimeEstimator(max_samples_per_bucket=size)


@pytest.mark.parametrize("size", [0, 10, 1024])
def test_a_refused_observation_changes_no_state(size):
    estimator = OnlineServiceTimeEstimator(max_samples_per_bucket=size)
    estimator.observe_many([1.0, 0.5], [0.1, 0.2])
    estimator.observe(1.0, 0.3)  # left pending

    def state():
        return ({key: list(totals) for key, totals in estimator._folded_totals.items()},
                {key: (list(bucket._sorted), bucket.count)
                 for key, bucket in estimator._folded_buckets.items()},
                list(estimator._pending_fractions), list(estimator._pending_times))

    before = state()
    for call, arguments in (("observe", (1.0, -0.1)), ("observe", (0.0, 0.1)),
                            ("observe_many", ([1.0, 1.0], [0.1, math.nan])),
                            ("observe_many", ([1.0, 0.5], [0.1, -1.0])),
                            ("observe_many", ([0.5, -0.5], [0.1, 0.1]))):
        with pytest.raises(ValueError):
            getattr(estimator, call)(*arguments)
        assert state() == before, (call, arguments)


_EXTREMES = st.sampled_from([math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                             1.7976931348623157e308, -0.0, 0.0])
_ANY_FLOAT = st.one_of(st.floats(), _EXTREMES)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(total=_ANY_FLOAT, values=st.lists(_ANY_FLOAT, max_size=40))
def test_the_reduce_fold_is_the_loop_bit_for_bit(total, values):
    running = total
    for value in values:
        running += value
    assert _bits(reduce(operator.add, values, total)) == _bits(running)
