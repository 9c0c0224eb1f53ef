"""Every start time of a c-server FCFS run equals the Kiefer–Wolfowitz recursion's.

The shared-queue data path with ``c`` identical containers is an FCFS
G/G/c queue, so given a run's own arrival times and service times, the
recursion in :mod:`oracles.kiefer_wolfowitz` fixes every request's start
time.  The property holds for any load and any service law; hypothesis
varies both, the fleet size, and how the fleet comes up — pre-warmed
(``noop``) or cold-started at ``start()`` (``static``), whose
simultaneous warm-ups each pull one queued request (on the columnar
plane, inside the kernel) — and requires exact float equality on both
data planes.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.request as request_module
from oracles.kiefer_wolfowitz import start_times
from repro.cluster.cluster import ClusterConfig
from repro.core.queueing.distributions import Deterministic, Exponential, LogNormal
from repro.simulation import SimulationRunner
from repro.workloads.functions import FunctionProfile
from repro.workloads.generator import WorkloadBinding
from repro.workloads.schedules import StaticRate

#: Standard-container service rate μ (requests per second).
MU = 10.0
DURATION = 8.0
UNTIL = DURATION + 5.0  # the runner's default drain

SERVICE_LAWS = {
    "exponential": Exponential(1.0),
    "deterministic": Deterministic(1.0),
    "lognormal": LogNormal(1.0, cv=1.5),
}


def _run(plane: str, *, c: int, rho: float, law: str, policy: str, seed: int):
    """One single-function run; returns ``(requests, fleet, kernel_stats)``."""
    request_module._request_counter = itertools.count(0)
    profile = FunctionProfile(name="fn", language="python", cpu=1.0, memory_mb=128.0,
                              mean_service_time=1.0 / MU, distribution=SERVICE_LAWS[law])
    binding = WorkloadBinding(profile=profile,
                              schedule=StaticRate(rho * c * MU, duration=DURATION),
                              slo_deadline=None)
    kwargs = ({"warm_start_containers": {"fn": c}} if policy == "noop"
              else {"policy_params": {"allocations": {"fn": c}}})
    runner = SimulationRunner(
        workloads=[binding],
        cluster_config=ClusterConfig(node_count=1, cpu_per_node=float(c),
                                     memory_per_node_mb=128.0 * c),
        seed=seed,
        policy=policy,
        data_plane=plane,
        **kwargs,
    )
    result = runner.run(duration=DURATION)
    fleet = result.cluster.containers_of("fn")
    return result.metrics.requests, fleet, result.kernel_stats


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    c=st.integers(min_value=1, max_value=6),
    rho=st.sampled_from((0.3, 0.8, 0.95, 1.2, 1.6)),
    law=st.sampled_from(sorted(SERVICE_LAWS)),
    policy=st.sampled_from(("noop", "static")),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_start_times_follow_the_kiefer_wolfowitz_recursion(c, rho, law, policy, seed):
    """Both planes start every request exactly when the recursion says."""
    for plane in ("event", "columnar"):
        requests, fleet, stats = _run(plane, c=c, rho=rho, law=law, policy=policy, seed=seed)
        assert len(fleet) == c
        speeds = {container.speed for container in fleet}
        assert len(speeds) == 1  # identical servers
        (speed,) = speeds
        requests = sorted(requests, key=lambda r: r.arrival_time)
        expected = start_times(
            [r.arrival_time for r in requests],
            [max(1e-9, r.work / speed) for r in requests],
            [container.warm_since for container in fleet],
        )
        started = 0
        for request, start in zip(requests, expected):
            if request.start_time is None:
                assert start >= UNTIL, (plane, request.request_id)
            else:
                assert request.start_time == start, (plane, request.request_id)
                started += 1
        assert started > 0
        if plane == "columnar" and policy == "static":
            # the cold fleet's simultaneous warm-ups were taken in-kernel
            assert stats["warm_ups"] == c
