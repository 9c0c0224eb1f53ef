"""The simulator's inputs against the distributions they claim: an external standard.

Both data planes read one materialised arrival stream
(:func:`repro.workloads.generator.merge_arrivals`), so testing that
stream covers both.  A ``StaticRate(λ)`` workload of the
``microbenchmark(1/μ)`` function must arrive as a Poisson process —
interarrivals ``Exp(λ)`` — and each request's work must be ``Exp(μ)``,
drawn independently of when the request arrived.

Each cell is a two-sided test at significance ``ALPHA`` on one fixed
seed with at least ``MIN_SAMPLES`` requests: Kolmogorov–Smirnov against
the exponential with the claimed rate (scipy, tests only), and
Spearman's rank correlation between a request's interarrival gap and its
work for independence.  Seeds are fixed, so a cell either always passes
or is a finding about the sampler; its band is not to be widened.
"""

import numpy as np
import pytest
from scipy import stats

from repro.simulation import SimulationRunner
from repro.workloads.functions import microbenchmark
from repro.workloads.generator import WorkloadBinding, merge_arrivals
from repro.workloads.schedules import StaticRate

#: Significance level of every test in this module.
ALPHA = 0.01

#: Fewest requests a cell may test.
MIN_SAMPLES = 10_000

ARRIVAL_RATE = 100.0   # λ, requests per second
SERVICE_RATE = 10.0    # μ: microbenchmark(0.1)
DURATION = 150.0       # about 15,000 requests

SEEDS = (1, 3, 7, 42)


def _stream(seed):
    """``(interarrival gaps, works)`` of the merged stream a seeded run reads."""
    runner = SimulationRunner(
        workloads=[WorkloadBinding(microbenchmark(1.0 / SERVICE_RATE),
                                   StaticRate(ARRIVAL_RATE, duration=DURATION))],
        seed=seed,
    )
    _, works, _, _, merged = merge_arrivals(runner.generators)
    times, works = np.asarray(merged), np.asarray(works[0])
    assert len(times) >= MIN_SAMPLES
    # the stream starts at the engine's clock, 0 here
    return np.diff(times, prepend=0.0), works


@pytest.mark.parametrize("seed", SEEDS)
def test_static_rate_interarrivals_are_exponential(seed):
    gaps, _ = _stream(seed)
    result = stats.kstest(gaps, "expon", args=(0.0, 1.0 / ARRIVAL_RATE))
    assert result.pvalue > ALPHA, (
        f"KS D={result.statistic:.4f}, p={result.pvalue:.4g} over {len(gaps)} gaps")


@pytest.mark.parametrize("seed", SEEDS)
def test_microbenchmark_work_is_exponential(seed):
    _, works = _stream(seed)
    result = stats.kstest(works, "expon", args=(0.0, 1.0 / SERVICE_RATE))
    assert result.pvalue > ALPHA, (
        f"KS D={result.statistic:.4f}, p={result.pvalue:.4g} over {len(works)} works")


@pytest.mark.parametrize("seed", SEEDS)
def test_work_is_independent_of_the_arrival_gap(seed):
    gaps, works = _stream(seed)
    result = stats.spearmanr(gaps, works)
    assert result.pvalue > ALPHA, (
        f"Spearman rho={result.statistic:.4f}, p={result.pvalue:.4g} over {len(gaps)} requests")
