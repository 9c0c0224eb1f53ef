"""``required_containers_naive`` as of commit 49d89a1, consumed by ``tests/test_solver.py`` and ``tests/test_queueing_heterogeneous_sizing.py``.

Algorithm 1 with the M/M/c state probabilities accumulated term by term in
plain floats — no log space, no numpy — one candidate count at a time.  The
body below is verbatim.  It agrees with ``required_containers`` only while
its unnormalised sums stay finite: from ``λ/μ`` ≈ 708 the normalising sum
overflows, ``inf / inf`` is NaN, ``min(1.0, nan)`` is 1.0, and the search
stops a few containers low.  At the Figure 5 inputs (μ = 10, t = 0.1,
p = 0.99) that is every 2× spike from 359 current containers up (at 375:
741 against the model's 745; at 1,000: 1,991 against 1,996), so the tests
compare it only on grids that stay well below.
"""

import math

from repro.core.queueing.solver import SizingResult, validate_sizing


def required_containers_naive(
    lam: float,
    mu: float,
    wait_budget: float,
    percentile: float = 0.95,
    current_containers: int = 0,
    max_containers: int = 100_000,
) -> SizingResult:
    """A deliberately naive Algorithm 1, standing in for the paper's Scala path.

    The paper compares its original Scala implementation (slow, and prone
    to numerical precision problems on large container counts) against an
    optimised Julia implementation.  This function is the analogous slow
    path in Python: the M/M/c state probabilities are accumulated term by
    term in pure Python floating point (no log-space math, no numpy), and
    candidate container counts are tried one at a time.  Its cost grows
    roughly quadratically with the final container count, which is what
    produces the "reference" curve of the Figure 5 reproduction.

    The answer is identical to :func:`required_containers` whenever the
    naive floating-point evaluation does not underflow/overflow.
    """
    validate_sizing(lam, mu, wait_budget, percentile)
    if lam == 0:
        return SizingResult(0, 1.0, wait_budget, 0)

    r = lam / mu
    c = max(1, int(current_containers), int(math.floor(r)) + 1)
    iterations = 0
    while c <= max_containers:
        iterations += 1
        rho = r / c
        if rho < 1.0:
            # normalising constant, term by term
            term = 1.0
            norm = 1.0
            for n in range(1, c):
                term *= r / n
                norm += term
            term_c = term * r / c if c >= 1 else 1.0
            norm += term_c / (1.0 - rho)
            # cumulative probability up to L
            L = int(math.floor(wait_budget * c * mu + c - 1 + 1e-12))
            cumulative = 0.0
            term = 1.0
            for n in range(0, L + 1):
                if n > 0:
                    term *= r / min(n, c)
                cumulative += term
            probability = min(1.0, cumulative / norm) if norm > 0 else 0.0
            if probability >= percentile:
                return SizingResult(c, probability, wait_budget, iterations)
        c += 1
    raise ValueError("could not satisfy SLO within max_containers")
