"""Algorithm 1's container count against the exact M/M/c waiting-time tail, cell by cell.

The paper sizes a function by its waiting-time bound (Eq. 3–4,
:meth:`MMcQueue.wait_bound_probability
<repro.core.queueing.mmc.MMcQueue.wait_bound_probability>`).  The bound is
not the FCFS tail ``P(W_q ≤ t) = 1 − C(c, r)·e^{−(cμ−λ)t}``
(:meth:`MMcQueue.wait_cdf_exact
<repro.core.queueing.mmc.MMcQueue.wait_cdf_exact>`), so on some inputs
:func:`required_containers` provisions one container fewer than the exact
tail needs, and on others one more.

Grid: ``μ = 10``; ``λ`` ∈ {1, 3, 5, 10, 20, 40, 80, 150, 300, 600, 1200};
``t`` ∈ {5, 10, 20, 50, 100, 200, 500} ms; ``p`` ∈ {0.9, 0.95, 0.99} —
231 cells.  The exact answer is the smallest ``c`` whose exact tail reaches
``p``.  Algorithm 1 agrees on 198 cells, under-provisions 21 and
over-provisions 12, never by more than one container.  The worst
achieved probability is 0.851 (``λ = 3``, ``t = 0.1`` s, ``p = 0.9``:
Algorithm 1 picks 1 container, the exact tail needs 2).  The table below
pins every disagreeing cell; a change to the bound or to the walk that
moves any of them fails here.  Tier-1 cost: well under 0.1 s.
"""

import pytest

from repro.core.queueing.mmc import MMcQueue
from repro.core.queueing.sizing import required_containers

MU = 10.0
RATES = (1, 3, 5, 10, 20, 40, 80, 150, 300, 600, 1200)
BUDGETS = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5)
PERCENTILES = (0.9, 0.95, 0.99)

#: ``(λ, t, p): (Algorithm 1's c, the exact tail's c)`` for every cell where
#: they differ; the comment is the exact tail's probability at Algorithm 1's c
DISAGREEMENTS = {
    (1, 0.005, 0.9): (2, 1),  # 0.9957
    (1, 0.01, 0.9): (2, 1),  # 0.9961
    (1, 0.02, 0.9): (2, 1),  # 0.9967
    (1, 0.05, 0.9): (2, 1),  # 0.9982
    (1, 0.2, 0.99): (1, 2),  # 0.9835
    (3, 0.05, 0.99): (2, 3),  # 0.9833
    (3, 0.1, 0.9): (1, 2),  # 0.8510
    (3, 0.2, 0.95): (1, 2),  # 0.9260
    (5, 0.02, 0.99): (4, 3),  # 0.9991
    (5, 0.1, 0.99): (2, 3),  # 0.9777
    (10, 0.1, 0.9): (2, 3),  # 0.8774
    (10, 0.1, 0.99): (3, 4),  # 0.9877
    (20, 0.01, 0.95): (6, 5),  # 0.9879
    (20, 0.05, 0.95): (4, 5),  # 0.9360
    (20, 0.05, 0.99): (5, 6),  # 0.9867
    (20, 0.2, 0.95): (3, 4),  # 0.9399
    (40, 0.005, 0.95): (9, 8),  # 0.9815
    (40, 0.01, 0.95): (9, 8),  # 0.9856
    (40, 0.02, 0.99): (10, 9),  # 0.9973
    (40, 0.05, 0.9): (6, 7),  # 0.8952
    (80, 0.01, 0.99): (16, 15),  # 0.9959
    (80, 0.05, 0.95): (11, 12),  # 0.9453
    (80, 0.1, 0.95): (10, 11),  # 0.9446
    (80, 0.1, 0.99): (11, 12),  # 0.9878
    (150, 0.05, 0.99): (20, 21),  # 0.9868
    (300, 0.02, 0.9): (35, 36),  # 0.8953
    (300, 0.05, 0.95): (34, 35),  # 0.9491
    (300, 0.05, 0.99): (36, 37),  # 0.9895
    (600, 0.005, 0.95): (73, 72),  # 0.9638
    (600, 0.005, 0.99): (78, 77),  # 0.9933
    (600, 0.01, 0.95): (70, 71),  # 0.9465
    (1200, 0.005, 0.99): (142, 143),  # 0.9893
    (1200, 0.01, 0.9): (130, 131),  # 0.8997
}


def exact_containers(lam: float, t: float, p: float) -> int:
    """The smallest stable ``c`` whose exact FCFS tail reaches ``p`` at ``t``."""
    c = int(lam // MU) + 1
    while MMcQueue(lam, MU, c).wait_cdf_exact(t) < p:
        c += 1
    return c


@pytest.fixture(scope="module")
def table():
    """``(λ, t, p) -> (Algorithm 1's c, exact c)`` over the whole grid."""
    return {
        (lam, t, p): (required_containers(lam, MU, t, p).containers,
                      exact_containers(lam, t, p))
        for lam in RATES for t in BUDGETS for p in PERCENTILES
    }


def test_the_disagreeing_cells_are_the_pinned_ones(table):
    assert len(table) == 231
    assert {cell: pair for cell, pair in table.items()
            if pair[0] != pair[1]} == DISAGREEMENTS


def test_algorithm1_under_provisions_21_cells_and_over_provisions_12(table):
    under = [cell for cell, (alg1, exact) in table.items() if alg1 < exact]
    over = [cell for cell, (alg1, exact) in table.items() if alg1 > exact]
    assert (len(under), len(over)) == (21, 12)
    assert all(abs(alg1 - exact) <= 1 for alg1, exact in table.values())


def test_the_worst_achieved_probability_is_pinned(table):
    achieved = {
        cell: MMcQueue(cell[0], MU, alg1).wait_cdf_exact(cell[1])
        for cell, (alg1, _) in table.items()
    }
    worst = min(achieved, key=achieved.get)
    assert worst == (3, 0.1, 0.9)
    assert table[worst] == (1, 2)
    assert achieved[worst] == pytest.approx(0.851, abs=5e-4)
