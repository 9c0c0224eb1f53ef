"""The log-space bodies that answer every sizing probe above 32 containers, against exact rationals.

Above the closed form's region the solver probes
:meth:`MMcQueue.wait_bound_probability <repro.core.queueing.mmc.MMcQueue.wait_bound_probability>`
and :func:`~repro.core.queueing.heterogeneous.wait_bound`.  Both add logs
of factorials (or of a product of partial capacities) and exponentiate,
so their rounding grows with ``c``.  The oracle here is the paper's bound
for the same float inputs, summed exactly in integers: the chain's head
scaled to a common denominator, its geometric tail in closed form, and
one correctly rounded ``int / int`` division at the end.

Grid: ``c`` ∈ {33, 64, 200, 500} × ``ρ`` ∈ {0.5, 0.9, 0.99}, with the
cutoff near ``2c`` (``t = 0.1`` s at ``μ = 10`` for the homogeneous queue;
``t = c / S_c`` for a deflated fleet whose rates spread over 0.3–1.0 of a
standard container).  The widest gaps read were 9.3e-14 (homogeneous) and
1.47e-12 (fleet), both at ``c = 500``, ``ρ = 0.99``; the bounds below allow
4× that.  Tier-1 cost: about 0.4 s, nearly all of it the fleet's exact
sums at ``c = 500``.
"""

import math
from fractions import Fraction

import pytest

from repro.core.queueing.heterogeneous import wait_bound
from repro.core.queueing.mmc import MMcQueue

COUNTS = (33, 64, 200, 500)
LOADS = (0.5, 0.9, 0.99)

#: 4× the widest gap read on the grid, per body
MMC_GAP = 4 * 9.3e-14
FLEET_GAP = 4 * 1.47e-12


def exact_bound(head: int, w_c: int, p: int, q: int, cutoff: int, c: int) -> float:
    """``Σ_{n≤L} P_n`` of a chain with a geometric tail, correctly rounded.

    ``head = Σ_{n<c} w_n`` and ``w_c`` are integers on one common scale,
    and the tail ratio is ``ρ = p / q < 1``.  With ``m = L − c + 1`` the
    bound is ``(head + w_c (1 − ρ^m)/(1 − ρ)) / (head + w_c/(1 − ρ))``,
    here multiplied through by ``q^m (q − p)`` so that only integers meet.
    """
    m = cutoff - c + 1
    q_m1 = q ** (m - 1)
    inside = head * q_m1 * (q - p) + w_c * (q ** m - p ** m)
    total = q_m1 * (head * (q - p) + w_c * q)
    return inside / total


def exact_mmc(lam: float, mu: float, c: int, cutoff: int) -> float:
    """The M/M/c bound of the float inputs: ``w_n = r^n / n!`` scaled by ``b^c c!`` (``r = a/b``)."""
    r = Fraction(lam) / Fraction(mu)
    a, b = r.numerator, r.denominator
    falling = [1] * (c + 1)                  # falling[n] = c! / n!
    for n in range(c - 1, -1, -1):
        falling[n] = falling[n + 1] * (n + 1)
    head = sum(a ** n * b ** (c - n) * falling[n] for n in range(c))
    return exact_bound(head, a ** c, a, b * c, cutoff, c)


def exact_fleet(lam: float, rates, cutoff: int) -> float:
    """The Alves et al. bound of the float inputs: ``w_n = λ^n / Π_{k≤n} S_k`` with exact ``S_k``.

    Every float is ``integer / 2^e``; on the common scale ``2^E`` the
    weights times ``Π_{k≤c} S_k`` are the integers ``l^n Π_{k>n} S_k``.
    """
    fractions = [Fraction(lam)] + [Fraction(rate) for rate in rates]
    scale = max(f.denominator for f in fractions)
    lam_int = int(fractions[0] * scale)
    capacities, capacity = [], 0
    for f in fractions[1:]:
        capacity += int(f * scale)
        capacities.append(capacity)
    c = len(rates)
    beyond = [1] * (c + 1)                   # beyond[n] = S_{n+1} ... S_c
    for n in range(c - 1, -1, -1):
        beyond[n] = beyond[n + 1] * capacities[n]
    head = sum(lam_int ** n * beyond[n] for n in range(c))
    return exact_bound(head, lam_int ** c, lam_int, capacities[-1], cutoff, c)


def deflated_fleet(c: int, standard: float = 10.0):
    """``c`` ascending rates spread over 0.3–1.0 of ``standard`` (none sums exactly in floats)."""
    return tuple(sorted(standard * (0.3 + 0.7 * ((i * 37) % 101) / 100) for i in range(c)))


@pytest.mark.parametrize("c", COUNTS)
@pytest.mark.parametrize("rho", LOADS)
def test_the_mmc_log_space_body_is_within_its_pinned_gap_of_exact(c, rho):
    mu, t = 10.0, 0.1
    lam = rho * c * mu
    cutoff = math.floor(t * c * mu + c - 1 + 1e-12)
    got = MMcQueue(lam, mu, c).wait_bound_probability(t)
    assert abs(got - exact_mmc(lam, mu, c, cutoff)) <= MMC_GAP


@pytest.mark.parametrize("c", COUNTS)
@pytest.mark.parametrize("rho", LOADS)
def test_the_fleet_log_space_body_is_within_its_pinned_gap_of_exact(c, rho):
    rates = deflated_fleet(c)
    aggregate = float(sum(rates))
    lam, t = rho * aggregate, c / aggregate
    cutoff = math.floor(t * aggregate + c - 1 + 1e-12)
    got = wait_bound(lam, rates, t)
    assert abs(got - exact_fleet(lam, rates, cutoff)) <= FLEET_GAP


def test_the_exact_oracle_agrees_with_a_plain_fraction_sum():
    # the integer scaling is an identity, not an approximation: a direct
    # Fraction sum of the chain, state by state, gives the same rational
    lam, rates = 27.0, deflated_fleet(5)
    cutoff = 9
    capacities = [sum(Fraction(r) for r in rates[:k]) for k in range(1, 6)]
    weights, w = [], Fraction(1)
    for n in range(cutoff + 1):
        weights.append(w)
        w = w * Fraction(lam) / capacities[min(n + 1, 5) - 1]
    rho = Fraction(lam) / capacities[-1]
    normaliser = sum(weights[:5]) + weights[5] / (1 - rho)
    assert exact_fleet(lam, rates, cutoff) == float(sum(weights) / normaliser)
    r = Fraction(27.0) / Fraction(10.0)
    mmc = [r ** n / math.factorial(min(n, 4)) / 4 ** max(n - 4, 0) for n in range(cutoff + 1)]
    normaliser = sum(mmc[:4]) + mmc[4] / (1 - r / 4)
    assert exact_mmc(27.0, 10.0, 4, cutoff) == float(sum(mmc) / normaliser)
