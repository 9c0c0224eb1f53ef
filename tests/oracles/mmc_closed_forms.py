"""M/M/c closed forms the tests compare against; no run sizes through them.

``repro.core.queueing.mmc.MMcQueue`` keeps what the sizing paths read
(Erlang C, the state probabilities, the paper's bound).  These are the
textbook quantities beside it: the exact FCFS waiting-time CDF and its
percentile, the bisected percentile of the paper's bound, Little's-law
means and the offered load.  Each takes an ``MMcQueue``.
"""

import math


def offered_load(queue) -> float:
    """``r = λ/μ``, the offered load in Erlangs."""
    return queue.lam / queue.mu


def mean_queue_length(queue) -> float:
    """Expected number waiting in queue (Little's law: ``L_q = λ W_q``)."""
    return queue.lam * queue.mean_wait


def mean_response_time(queue) -> float:
    """Expected sojourn time ``W = W_q + 1/μ``."""
    return queue.mean_wait + 1.0 / queue.mu


def wait_cdf_exact(queue, t: float) -> float:
    """Exact FCFS waiting-time CDF: ``P(W_q <= t) = 1 − C(c,r) e^{−(cμ−λ)t}``."""
    if t < 0 or not queue.is_stable:
        return 0.0
    return 1.0 - queue.probability_of_waiting * math.exp(-(queue.c * queue.mu - queue.lam) * t)


def wait_percentile_exact(queue, percentile: float) -> float:
    """Exact percentile of the FCFS waiting time; 0 when requests that do not wait meet it."""
    if not 0 < percentile < 1:
        raise ValueError("percentile must be in (0, 1)")
    if not queue.is_stable:
        return math.inf
    pw = queue.probability_of_waiting
    if 1.0 - pw >= percentile:
        return 0.0
    return -math.log((1.0 - percentile) / pw) / (queue.c * queue.mu - queue.lam)


def wait_bound_percentile(queue, percentile: float, resolution: float = 1e-4) -> float:
    """Smallest ``t`` at which the paper's bound reaches ``percentile``, by bisection.

    ``queue.wait_bound_probability`` is a non-decreasing step function of ``t``.
    """
    if not 0 < percentile < 1:
        raise ValueError("percentile must be in (0, 1)")
    if not queue.is_stable:
        return math.inf
    if queue.wait_bound_probability(0.0) >= percentile:
        return 0.0
    lo, hi = 0.0, 1.0 / queue.mu
    while queue.wait_bound_probability(hi) < percentile:
        hi *= 2.0
        if hi > 1e7:
            return math.inf
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if queue.wait_bound_probability(mid) >= percentile:
            hi = mid
        else:
            lo = mid
    return hi


def expected_busy_containers(queue) -> float:
    """Mean number of busy containers: ``λ/μ`` when stable, else all ``c``."""
    return offered_load(queue) if queue.is_stable else float(queue.c)
