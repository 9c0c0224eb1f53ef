"""The heterogeneous bound and the epoch-batched fleet solve, held to their frozen bodies.

``wait_bound`` evaluates one ``(λ, rates, t)`` probe; each value must
equal, bit for bit, what ``HeterogeneousMMcQueue`` computed before the
bound was factored out (``tests/oracles/heterogeneous_sizing.py``),
whatever was probed before it.  ``SizingSolver.solve_heterogeneous_batch``
must give the same counts as the frozen per-query search with its memo
and warm anchors off, run in sequence; its probabilities come from the
small-fleet closed form, so they match the frozen ones within
``closed_form_tolerance`` (``tests/test_solver.py``).  The last tests cover
the shared input validation and count the probes an epoch sequence costs
against the per-candidate search.
"""

import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles.heterogeneous_sizing import FrozenHeterogeneousQueue, FrozenHeterogeneousSolver
from repro.core.queueing.heterogeneous import HeterogeneousMMcQueue, wait_bound
from repro.core.queueing.sizing import (
    required_containers,
    required_containers_heterogeneous,
)
from repro.core.queueing.solver import HeterogeneousQuery, SizingQuery, SizingSolver
from test_solver import closed_form_tolerance


# ----------------------------------------------------------------------
# The one-probe bound
# ----------------------------------------------------------------------
@st.composite
def probes(draw):
    """One ``(λ, ascending rates, t)`` probe aimed at a chosen cutoff ``L``.

    Fleets of 1–64 rates put the normaliser's sum at widths 3–66; cutoffs
    of ``c − 1 + extra`` put the state sum on both sides of numpy's
    pairwise-summation blocks (8 and 128 terms) and past them.
    """
    c = draw(st.integers(min_value=1, max_value=64))
    rates = sorted(draw(st.lists(st.floats(min_value=0.05, max_value=200.0),
                                 min_size=c, max_size=c)))
    aggregate = sum(rates)
    kind = draw(st.sampled_from(("stable", "stable", "on_s2", "at_s", "over_s", "idle")))
    lam = draw(st.floats(min_value=1e-6, max_value=1.0 - 1e-9)) * aggregate
    if kind == "on_s2" and c >= 2 and rates[0] + rates[1] < aggregate:
        lam = rates[0] + rates[1]       # λ = S_2: weights 1 and 2 tie at the maximum
    elif kind == "at_s":
        lam = aggregate
    elif kind == "over_s":
        lam = aggregate * draw(st.floats(min_value=1.0, max_value=3.0))
    elif kind == "idle":
        lam = 0.0
    extra = draw(st.integers(0, 10) | st.integers(118, 138) | st.integers(250, 270)
                 | st.integers(0, 600))
    t = draw(st.sampled_from((
        (extra + 0.5) / aggregate,      # L = c − 1 + extra
        0.0, -0.0, -1e-9, -0.5,
    )))
    return float(lam), tuple(rates), t


def frozen(probe):
    """The parent's value for one probe."""
    lam, rates, t = probe
    return FrozenHeterogeneousQueue(lam, rates).wait_bound_probability(t)


@given(probe=probes())
@settings(max_examples=400, deadline=None)
def test_one_probe_equals_the_frozen_body_bitwise(probe):
    lam, rates, t = probe
    assert wait_bound(lam, rates, t) == frozen(probe)
    assert HeterogeneousMMcQueue(lam, rates).wait_bound_probability(t) == frozen(probe)


@given(pool=st.lists(probes(), min_size=1, max_size=24), order=st.randoms())
@settings(max_examples=120, deadline=None)
def test_a_probe_reads_the_same_whatever_was_probed_before_it(pool, order):
    # the log-factorial table is process state; the bound must not read it
    expected = [frozen(probe) for probe in pool]
    shuffled = list(range(len(pool)))
    order.shuffle(shuffled)
    got = {i: wait_bound(*pool[i]) for i in shuffled}
    assert [got[i] for i in range(len(pool))] == expected


def test_the_guards():
    stable = (5.0, (2.0, 4.0), 0.1)
    assert [wait_bound(*probe) for probe in (
        (6.0, (2.0, 4.0), 0.1),         # λ = S: unstable
        (5.0, (2.0, 4.0), -1e-300),     # t < 0
        (0.0, (2.0, 4.0), 0.0),         # λ = 0: never waits
        (1.0, (), 0.1),                 # no containers
        stable,
    )] == [0.0, 0.0, 1.0, 0.0, frozen(stable)]


# ----------------------------------------------------------------------
# The epoch-batched fleet solve
# ----------------------------------------------------------------------
@st.composite
def epochs(draw):
    """A drift sequence: epochs of deflated-fleet queries over four fleets.

    Rates drift by up to ±60 % an epoch, so optima move by 0, 1 or many
    containers in both directions; a fleet may repeat inside one epoch.
    """
    standard = draw(st.sampled_from((5.0, 10.0, 20.0)))
    budget = draw(st.sampled_from((0.0, 0.05, 0.1)))
    percentile = draw(st.sampled_from((0.9, 0.95, 0.99)))
    fleets = [
        draw(st.lists(st.floats(min_value=0.2, max_value=1.0), min_size=1, max_size=4))
        for _ in range(4)
    ]
    lams = [draw(st.floats(min_value=0.0, max_value=8.0)) * standard for _ in range(4)]
    sequence = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        keys = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
        queries = []
        for k in keys:
            lams[k] = max(0.0, lams[k] * draw(st.floats(min_value=0.4, max_value=1.6)))
            if draw(st.booleans()):
                lams[k] = round(lams[k])          # exact repeats
            queries.append(HeterogeneousQuery(
                lams[k], [standard * speed for speed in fleets[k]], standard, budget,
                percentile,
            ))
        sequence.append(queries)
    return sequence


def close_to(q, containers, prob, expected_prob):
    """Whether ``prob`` is within the closed form's tolerance of the frozen value for ``q``'s fleet."""
    fleet = sorted(list(q.existing_mus) + [q.standard_mu] * (containers - len(q.existing_mus)))
    return abs(prob - expected_prob) <= closed_form_tolerance(q.lam, fleet, q.wait_budget)


class GuardedQueue(FrozenHeterogeneousQueue):
    """The frozen queue plus the fix made since: a fleet whose ``λ / S_c`` underflows never waits.

    The frozen body takes ``math.log`` of that 0.0 and raises; ``wait_bound``
    now reads 1, the ``λ → 0`` answer.
    """

    def wait_bound_probability(self, t):
        if t >= 0 and self.lam / self.aggregate_rate == 0:
            return 1.0
        return super().wait_bound_probability(t)


def run_both(sequence, solver, reference):
    """Every query through both solvers: the batch one epoch at a time, the frozen one by one."""
    for queries in sequence:
        got = solver.solve_heterogeneous_batch(queries)
        assert len(got) == len(queries)
        for result, q in zip(got, queries):
            containers, prob = reference.solve_heterogeneous(*q)
            assert result.containers == containers
            assert close_to(q, containers, result.achieved_probability, prob)
            assert result.wait_budget == q.wait_budget


#: a positive λ whose ratio to the fleet's capacity underflows to 0.0
UNDERFLOWING_RATIO = [[HeterogeneousQuery(2.5e-323, [5.0, 5.0], 5.0, 0.0, 0.9)]]


@given(sequence=epochs())
@example(sequence=UNDERFLOWING_RATIO)
@settings(max_examples=80, deadline=None)
def test_batched_fleet_solves_equal_the_frozen_sequence(sequence):
    solver = SizingSolver()
    reference = FrozenHeterogeneousSolver(queue=GuardedQueue)
    run_both(sequence, solver, reference)
    # every counter but the probe count: the frozen search ladders and bisects, the solver walks
    for field in ("solves", "cache_hits", "warm_hits"):
        assert getattr(solver.stats, field) == getattr(reference.stats, field), field


@given(sequence=epochs())
@example(sequence=UNDERFLOWING_RATIO)
@settings(max_examples=30, deadline=None)
def test_a_fleet_solved_alone_reads_as_it_does_in_its_epoch(sequence):
    # one long-lived solver takes the epochs as batches, fresh ones take
    # each query alone: identical rows, probe counts included
    batched = SizingSolver()
    for queries in sequence:
        rows = batched.solve_heterogeneous_batch(queries)
        assert rows == [SizingSolver().solve_heterogeneous(*q) for q in queries]


# ----------------------------------------------------------------------
# Validation shared by every sizing entry point
# ----------------------------------------------------------------------
NAN, INF = math.nan, math.inf
GOOD = dict(lam=30.0, mu=10.0, wait_budget=0.1, percentile=0.95, rate=7.0)
MESSAGES = {
    "lam": "arrival rate must be finite and non-negative",
    "mu": "service rate must be finite and positive",
    "wait_budget": "wait budget must be finite and non-negative",
    "percentile": r"percentile must be in \(0, 1\)",
    "rate": "existing service rates must be finite and positive",
}
ZOO = {
    "lam": (NAN, INF, -INF, -0.1),
    "mu": (NAN, INF, -INF, 0.0, -1.0),
    "wait_budget": (NAN, INF, -INF, -0.1),
    "percentile": (NAN, INF, 0.0, 1.0, 1.5, -0.5),
    "rate": (NAN, INF, 0.0, -2.0),
}


def homogeneous(entry):
    """A homogeneous entry point as ``call(solver, **GOOD)`` (``rate`` unused).

    A batch entry point solves the probed query beside a good one, after
    it or before it, and the call returns the probed query's row.
    """
    def call(solver, lam, mu, wait_budget, percentile, rate):
        del rate
        t, p = wait_budget, percentile
        probed, other = SizingQuery(lam, mu, t, p), SizingQuery(30.0, 10.0, 0.1)
        if entry == "solve":
            return solver.solve(lam, mu, t, p)
        if entry == "solve_batch":
            return solver.solve_batch([other, probed])[1]
        if entry == "solve_batch, probed first":
            return solver.solve_batch([probed, other])[0]
        return entry(lam, mu, t, p)
    return call


def heterogeneous(entry):
    """A heterogeneous entry point as ``call(solver, **GOOD)``; ``rate`` joins the fleet.

    Batches as in :func:`homogeneous`.
    """
    def call(solver, lam, mu, wait_budget, percentile, rate):
        t, p, existing = wait_budget, percentile, [5.0, rate]
        probed = HeterogeneousQuery(lam, existing, mu, t, p)
        other = HeterogeneousQuery(30.0, [5.0, 7.0], 10.0, 0.1)
        if entry == "solve_heterogeneous":
            return solver.solve_heterogeneous(lam, existing, mu, t, p)
        if entry == "solve_heterogeneous_batch":
            return solver.solve_heterogeneous_batch([other, probed])[1]
        if entry == "solve_heterogeneous_batch, probed first":
            return solver.solve_heterogeneous_batch([probed, other])[0]
        return entry(lam, existing, mu, t, p)
    return call


ENTRIES = {
    "required_containers": homogeneous(required_containers),
    "SizingSolver.solve": homogeneous("solve"),
    "SizingSolver.solve_batch": homogeneous("solve_batch"),
    "SizingSolver.solve_batch, probed first": homogeneous("solve_batch, probed first"),
    "required_containers_heterogeneous": heterogeneous(required_containers_heterogeneous),
    "SizingSolver.solve_heterogeneous": heterogeneous("solve_heterogeneous"),
    "SizingSolver.solve_heterogeneous_batch": heterogeneous("solve_heterogeneous_batch"),
    "SizingSolver.solve_heterogeneous_batch, probed first":
        heterogeneous("solve_heterogeneous_batch, probed first"),
}
CASES = [
    pytest.param(entry, name, value, id=f"{entry}-{name}={value}")
    for entry in ENTRIES
    for name, values in ZOO.items()
    if name != "rate" or "heterogeneous" in entry
    for value in values
]


def solver_state(solver):
    """Everything a rejected call must leave as it was: the counters are all the state there is."""
    assert vars(solver).keys() == {"stats"}
    return vars(solver.stats).copy()


@pytest.mark.parametrize("entry, name, value", CASES)
def test_out_of_range_input_is_a_prompt_value_error_that_changes_nothing(entry, name, value):
    call = ENTRIES[entry]
    solver = SizingSolver()
    call(solver, **GOOD)                    # counters populated
    before = solver_state(solver)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=MESSAGES[name]):
        call(solver, **{**GOOD, name: value})
    assert time.perf_counter() - start < 1.0
    assert solver_state(solver) == before


@pytest.mark.parametrize("lam", (5e-324, 2.5e-323))
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_rate_whose_ratio_underflows_gets_the_vanishing_load_answer(entry, lam):
    # λ / μ (or λ / S_c) is exactly 0.0: once a math domain error, or, in
    # the solver's kernel, a NaN row that no count could satisfy
    call = ENTRIES[entry]
    got = call(SizingSolver(), **{**GOOD, "lam": lam})
    limit = call(SizingSolver(), **{**GOOD, "lam": 1e-300})
    assert (got.containers, got.achieved_probability) == (limit.containers, 1.0)
    assert limit.achieved_probability == 1.0


# ----------------------------------------------------------------------
# Work: the epoch-batched solver against the per-candidate search
# ----------------------------------------------------------------------
def drifting_rate(function: int, epoch: int) -> float:
    """A slowly drifting per-function rate, quantised so sweep-like revisits repeat exactly."""
    base = 60.0 + 17.0 * function
    phase = 2.0 * math.pi * (epoch % 25) / 25.0 + 0.7 * function
    return max(0.1, round(base * (1.0 + 0.12 * math.sin(phase)), 2))


def test_an_epoch_sequence_costs_no_more_probes_than_the_per_candidate_search():
    """Sixteen functions over fifty epochs: equal counts, no more bound evaluations.

    The per-candidate reference (Algorithm 1 as written, and its linear
    heterogeneous twin) evaluates one candidate per iteration; the
    solver's probe counter counts every probe.
    """
    solver = SizingSolver()
    reference_probes = 0
    for epoch in range(50):
        rates = [drifting_rate(f, epoch) for f in range(16)]
        homogeneous_results = solver.solve_batch(
            [SizingQuery(lam, 10.0, 0.1) for lam in rates])
        fleets = [HeterogeneousQuery(lam, [7.0] * int(lam // 10), 10.0, 0.1) for lam in rates]
        fleet_results = solver.solve_heterogeneous_batch(fleets)
        for lam, got in zip(rates, homogeneous_results):
            expected = required_containers(lam, 10.0, 0.1)
            assert got.containers == expected.containers
            reference_probes += expected.iterations
        for q, got in zip(fleets, fleet_results):
            expected = required_containers_heterogeneous(q.lam, q.existing_mus, 10.0, 0.1)
            assert got.containers == expected.containers
            reference_probes += expected.iterations
    assert solver.stats.probability_evaluations <= reference_probes
