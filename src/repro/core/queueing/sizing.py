"""Algorithm 1: iterative container sizing (paper §3.1–3.3).

Given an observed arrival rate ``λ``, a service rate ``μ`` (of a
standard container), an SLO deadline ``d`` and a target percentile
``p`` (e.g. 0.95 or 0.99), the controller must find the smallest number
of containers ``c`` such that the ``p``-th percentile of the waiting
time is at most ``t = d − s_p``, where ``s_p`` is the ``p``-th
percentile of the service time.  The paper's Algorithm 1 starts from
the current allocation and increments ``c`` until the waiting-time
bound reaches ``p``.

Two variants are provided:

* :func:`required_containers` — the faithful reference implementation of
  Algorithm 1 (homogeneous containers).
* :func:`required_containers_heterogeneous` — sizing when the existing
  containers have been deflated to different service rates: it answers
  "how many *additional standard* containers must be added so that the
  heterogeneous bound meets the SLO" (used in §6.2.2 / Figure 4).

The memoized / warm-started control-plane entry points live in
:class:`repro.core.queueing.solver.SizingSolver`; the functions here are
the stateless oracles it is tested against.  Every entry point checks
its inputs with :func:`repro.core.queueing.solver.validate_sizing`
first, so a NaN, an infinity or a percentile outside ``(0, 1)`` is a
``ValueError`` before any candidate is tried.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.core.queueing.heterogeneous import HeterogeneousMMcQueue
from repro.core.queueing.mmc import MMcQueue
from repro.core.queueing.solver import SizingResult, validate_sizing


def wait_budget_from_slo(
    slo_deadline: float,
    mu: float,
    percentile: float = 0.95,
    service_time_percentile: Optional[float] = None,
) -> float:
    """Compute the waiting-time budget ``t = d − s_p``.

    The paper sets ``t_p99 = d − 1/μ_p99``: the request may, in the worst
    case, experience a high-percentile service time, so only the
    remainder of the deadline can be spent waiting.  When the SLO is
    defined purely on waiting time (the paper's default experimental
    setting: "95% of requests should *start* being processed within
    100 ms"), pass ``service_time_percentile=0`` to use the full
    deadline as waiting budget.

    Parameters
    ----------
    slo_deadline:
        The SLO deadline ``d`` in seconds.
    mu:
        Mean service rate of a standard container (req/s).
    percentile:
        The SLO percentile (used for the service-time percentile when an
        explicit one is not given).
    service_time_percentile:
        The high-percentile service time ``s_p`` to subtract.  ``None``
        uses the exponential-distribution percentile
        ``−ln(1 − p)/μ``; ``0`` disables the subtraction.
    """
    if slo_deadline <= 0:
        raise ValueError("SLO deadline must be positive")
    if mu <= 0:
        raise ValueError("service rate must be positive")
    if service_time_percentile is None:
        service_time_percentile = -math.log(1.0 - percentile) / mu
    budget = slo_deadline - float(service_time_percentile)
    return max(0.0, budget)


def required_containers(
    lam: float,
    mu: float,
    wait_budget: float,
    percentile: float = 0.95,
    current_containers: int = 0,
    max_containers: int = 100_000,
) -> SizingResult:
    """Reference implementation of the paper's Algorithm 1.

    Starting from ``current_containers`` (the paper starts from the
    number already in the system), increment ``c`` until
    ``P(Q <= wait_budget) >= percentile``.  The returned ``c`` is always
    at least the minimum needed for stability (``⌈λ/μ⌉`` plus one when
    exactly critical).

    Raises
    ------
    ValueError
        If ``max_containers`` is reached without satisfying the SLO
        (cannot happen for a positive budget, but guards against
        pathological inputs such as a zero budget with high load).
    """
    validate_sizing(lam, mu, wait_budget, percentile)

    if lam == 0:
        return SizingResult(containers=0, achieved_probability=1.0,
                            wait_budget=wait_budget, iterations=0)

    c = max(1, int(current_containers))
    # ensure stability before evaluating the bound
    min_stable = int(math.floor(lam / mu)) + 1
    c = max(c, min_stable)
    iterations = 0
    while c <= max_containers:
        iterations += 1
        queue = MMcQueue(lam, mu, c)
        if queue.is_stable:
            probability = queue.wait_bound_probability(wait_budget)
            if probability >= percentile:
                return SizingResult(
                    containers=c,
                    achieved_probability=probability,
                    wait_budget=wait_budget,
                    iterations=iterations,
                )
        c += 1
    raise ValueError(
        f"could not satisfy SLO with up to {max_containers} containers "
        f"(lam={lam}, mu={mu}, t={wait_budget}, p={percentile})"
    )


def required_containers_heterogeneous(
    lam: float,
    existing_mus: Sequence[float],
    standard_mu: float,
    wait_budget: float,
    percentile: float = 0.95,
    max_additional: int = 100_000,
) -> SizingResult:
    """How many *additional standard* containers are needed on top of an
    existing (possibly deflated, heterogeneous) set.

    This implements the scenario of §6.2.2 / Figure 4: some containers
    have been deflated, the function is now under-provisioned, and LaSS
    adds full-size containers until the heterogeneous waiting-time bound
    (Alves et al.) meets the SLO.

    Returns a :class:`SizingResult` whose ``containers`` field is the
    *total* number of containers (existing + added).
    """
    existing = [float(m) for m in existing_mus]
    validate_sizing(lam, standard_mu, wait_budget, percentile, existing)
    if lam == 0:
        return SizingResult(len(existing), 1.0, wait_budget, 0)

    iterations = 0
    added = 0
    while added <= max_additional:
        iterations += 1
        mus = existing + [standard_mu] * added
        if mus and sum(mus) > lam:
            queue = HeterogeneousMMcQueue(lam, mus)
            probability = queue.wait_bound_probability(wait_budget)
            if probability >= percentile:
                return SizingResult(
                    containers=len(mus),
                    achieved_probability=probability,
                    wait_budget=wait_budget,
                    iterations=iterations,
                )
        added += 1
    raise ValueError("could not satisfy SLO within max_additional containers")


__all__ = [
    "SizingResult",
    "wait_budget_from_slo",
    "required_containers",
    "required_containers_heterogeneous",
]
