"""The rate estimator's false-burst probability, anchored to Poisson theory.

LaSS samples two sliding windows every 5 s — 120 s long, 10 s short —
and switches to the short window's rate when it reaches twice the long
window's (§5).  Under a stationary Poisson stream of rate λ every such
switch is a false burst, and with the default windows and queries
aligned to the 5 s buckets its probability has a closed form:
``N_long ~ Pois(120λ)`` arrivals in ``[now − 120, now)`` and, given
``N_long = n``, ``N_short ~ Bin(n, 1/12)`` of them in the last 10 s, so

    P(switch) = Σ_n Pois(n; 120λ) · Σ_{m ≥ 1} Bin(m; n, 1/12) · [m/10 ≥ 2·(n/120)]

with the bracket evaluated by the estimator's own float expression.
It reads 17.29 % / 5.39 % / 0.17 % at λ = 0.1 / 0.3 / 1.

The samples come from :class:`DualWindowRateEstimator` itself, fed a
Poisson stream and queried every 130 s from 300 s on: the long windows
are disjoint, so the samples are independent Bernoulli trials and the
share of switches must lie within four binomial standard errors of P
(the long-window rate's mean within four of λ).  Fixed seeds and a
stated band; the band is never widened to make a cell pass.  The
full-size cells (N = 20,000, λ up to 1) are marked ``slow`` and run in
their own CI job.
"""

import math

import numpy as np
import pytest
from scipy import stats

from repro.core.estimation.sliding_window import DualWindowRateEstimator

LONG, SHORT, FACTOR = 120.0, 10.0, 2.0
FIRST_QUERY, QUERY_EVERY = 300.0, 130.0


def switch_probability(lam: float) -> float:
    """The closed form above; the bracket is ``estimate``'s burst test on the counts."""
    mean = LONG * lam
    total = 0.0
    for n in range(int(mean + 12 * math.sqrt(mean) + 40) + 1):
        long_rate = n / LONG
        # the smallest short-window count the estimator calls a burst
        m = next(m for m in range(1, n + 2)
                 if m / SHORT >= FACTOR * long_rate and m / SHORT > 0)
        if m <= n:
            total += stats.poisson.pmf(n, mean) * stats.binom.sf(m - 1, n, SHORT / LONG)
    return total


def sample_switches(lam: float, samples: int, seed: int):
    """(share of queries that switched, mean long-window rate) over ``samples`` disjoint windows."""
    rng = np.random.default_rng(seed)
    queries = FIRST_QUERY + QUERY_EVERY * np.arange(samples)
    horizon = float(queries[-1])
    arrivals = np.sort(rng.uniform(0.0, horizon, rng.poisson(lam * horizon)))
    cuts = np.searchsorted(arrivals, queries).tolist()
    arrivals = arrivals.tolist()
    estimator = DualWindowRateEstimator()
    assert (LONG, SHORT, FACTOR) == (estimator.long.window_length,
                                     estimator.short.window_length, estimator.burst_factor)
    switches, long_total, start = 0, 0.0, 0
    for now, stop in zip(queries.tolist(), cuts):
        estimator.record_arrivals_many(arrivals[start:stop])  # everything before ``now``
        start = stop
        observation = estimator.estimate(now)
        switches += observation.burst_detected
        long_total += observation.long_rate
    return switches / samples, long_total / samples


def check_cell(lam: float, samples: int, seed: int) -> None:
    """Four-standard-error bands on the switch share and the long-window mean."""
    p = switch_probability(lam)
    share, long_mean = sample_switches(lam, samples, seed)
    assert abs(share - p) <= 4 * math.sqrt(p * (1 - p) / samples), (lam, share, p)
    assert abs(long_mean - lam) <= 4 * math.sqrt(lam / LONG / samples), (lam, long_mean)


def test_the_closed_form_reads_the_stated_values():
    assert [round(100 * switch_probability(lam), 2) for lam in (0.1, 0.3, 1.0)] == \
        [17.29, 5.39, 0.17]


@pytest.mark.parametrize("lam", [0.1, 0.3])
def test_false_bursts_match_poisson_theory(lam):
    check_cell(lam, samples=3000, seed=7)


@pytest.mark.slow
@pytest.mark.parametrize("lam", [0.1, 0.3, 1.0])
def test_false_bursts_match_poisson_theory_full_size(lam):
    check_cell(lam, samples=20000, seed=1)
