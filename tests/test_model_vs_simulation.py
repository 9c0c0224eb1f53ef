"""The simulator against closed-form queueing theory (ROADMAP aim 3, first external anchor).

Every other guarantee in the tree is self-consistency: plane A ≡ plane B,
lazy ≡ eager, base digest ≡ head digest — all of which a faithfully
preserved wrong number passes.  Erlang-C is a standard the simulator did
not write: a fixed fleet of ``c`` identical containers under the
``"noop"`` policy (one shared FCFS queue, no control loop), Poisson
arrivals (``StaticRate``) and exponential service (``microbenchmark``)
is an M/M/c queue, whose probability of waiting, mean wait and waiting-time
percentiles ``repro.core.queueing.mmc`` and ``tests/oracles/mmc_closed_forms.py``
give in closed form.

Each cell of the grid is simulated ``len(SEEDS)`` times on each data
plane; the mean over the replications of the simulated P(wait > 0), of
the simulated mean wait and of the simulated P95 wait (the percentile
the paper's SLOs are written in, read off the same replications) must
land within the cell's stated relative interval of the closed form.  A width is four standard errors of that
eight-replication mean, rounded up, the per-replication spread having
been measured over 48 other seeds per cell (the eight here are too few
to estimate it); the seeds are fixed, so the test is deterministic.
EXPERIMENTS.md, "Model vs simulation", records grid, replications,
widths and what was read.
The grid includes ``c = 1`` — the M/M/1 case nearly every function of the
trace replay lives in — and ρ = 0.8, where waits are long enough that a
dispatch or clock error would show.
"""

import math
import statistics
from dataclasses import replace

import numpy as np
import pytest

import oracles.mmc_closed_forms as closed
from repro.cluster.cluster import ClusterConfig
from repro.core.queueing.mmc import MMcQueue, erlang_c
from repro.metrics.table import COMPLETED
from repro.simulation import SimulationRunner
from repro.workloads.functions import microbenchmark
from repro.workloads.generator import WorkloadBinding
from repro.workloads.schedules import StaticRate

MU = 10.0                 # exponential service, mean 100 ms
ARRIVALS = 10_000         # expected arrivals per replication: the run lasts ARRIVALS / λ
WARMUP = 60.0             # the queue starts empty: statistics start here (M/M/1 at ρ = 0.8 relaxes in ~9 s)
SEEDS = (2101, 2102, 2103, 2104, 2105, 2106, 2107, 2108)

#: ``(c, ρ) -> relative half-widths on (P(wait > 0), the mean wait, the P95 wait)``
INTERVALS = {
    (1, 0.5): (0.025, 0.07, 0.07),
    (1, 0.8): (0.025, 0.14, 0.16),
    (4, 0.5): (0.075, 0.15, 0.13),
    (4, 0.8): (0.06, 0.19, 0.19),
}


def simulate(c: int, rho: float, seed: int, data_plane: str):
    """One replication after the warm-up: ``(share of requests that waited, mean wait, P95 wait)``."""
    lam = rho * c * MU
    duration = ARRIVALS / lam
    profile = replace(microbenchmark(1.0 / MU), name="fn")
    result = SimulationRunner(
        workloads=[WorkloadBinding(profile=profile, schedule=StaticRate(lam, duration=duration),
                                   slo_deadline=1.0)],
        cluster_config=ClusterConfig(node_count=1, cpu_per_node=8.0),
        seed=seed,
        warm_start_containers={"fn": c},
        policy="noop",
        data_plane=data_plane,
    ).run(duration=duration, extra_drain=60.0)
    assert (result.kernel_stats is not None) == (data_plane == "columnar")
    assert len(result.cluster.containers_of("fn")) == c
    table = result.metrics.request_table()
    assert np.all(table.status == COMPLETED)            # nothing dropped, nothing left behind
    steady = table.arrival >= WARMUP
    waits = (table.start - table.arrival)[steady]
    assert waits.size > 0.9 * lam * (duration - WARMUP) and waits.min() >= 0.0
    return float(np.mean(waits > 1e-12)), float(waits.mean()), float(np.quantile(waits, 0.95))


@pytest.mark.parametrize("data_plane", ["event", "columnar"])
@pytest.mark.parametrize("c, rho", sorted(INTERVALS))
def test_simulated_mmc_lands_within_the_stated_interval_of_erlang_c(c, rho, data_plane):
    lam = rho * c * MU
    waited, mean_wait, p95_wait = zip(*(simulate(c, rho, seed, data_plane) for seed in SEEDS))
    p_wait_width, mean_wait_width, p95_wait_width = INTERVALS[(c, rho)]

    model_p_wait = erlang_c(lam, MU, c)
    model_mean_wait = MMcQueue(lam, MU, c).mean_wait
    model_p95_wait = closed.wait_percentile_exact(MMcQueue(lam, MU, c), 0.95)
    # more than 5 % of arrivals wait in every cell, so the P95 is on the exponential tail:
    # P(W > t) = C(c, a) · exp(−(c μ − λ) t)
    assert model_p95_wait == pytest.approx(
        math.log(model_p_wait / 0.05) / (c * MU - lam), rel=1e-12) and model_p95_wait > 0
    # the two closed forms agree with each other: W_q = C(c, a) / (c μ − λ)
    assert model_mean_wait == pytest.approx(model_p_wait / (c * MU - lam), rel=1e-12)
    if c == 1:
        assert model_p_wait == pytest.approx(rho, rel=1e-12)    # M/M/1: P(wait) = ρ

    assert statistics.mean(waited) == pytest.approx(model_p_wait, rel=p_wait_width), (
        f"P(wait > 0): simulated {statistics.mean(waited):.4f} over {len(SEEDS)} replications, "
        f"Erlang-C {model_p_wait:.4f}")
    assert statistics.mean(mean_wait) == pytest.approx(model_mean_wait, rel=mean_wait_width), (
        f"mean wait: simulated {statistics.mean(mean_wait) * 1e3:.2f} ms over {len(SEEDS)} "
        f"replications, M/M/c {model_mean_wait * 1e3:.2f} ms")
    assert statistics.mean(p95_wait) == pytest.approx(model_p95_wait, rel=p95_wait_width), (
        f"P95 wait: simulated {statistics.mean(p95_wait) * 1e3:.2f} ms over {len(SEEDS)} "
        f"replications, M/M/c {model_p95_wait * 1e3:.2f} ms")
