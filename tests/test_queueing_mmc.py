"""Unit and property tests for the M/M/c queueing model (paper §3.1)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from repro.core.queueing.mmc import (
    MMcQueue,
    erlang_c,
    mmc_log_p0,
    mmc_state_probabilities,
)
from repro.core.queueing.solver import _bound


# ----------------------------------------------------------------------
# The scipy-based bodies these three functions had before the shared
# log-factorial table, frozen verbatim (validation dropped) as oracles.
# ----------------------------------------------------------------------
def _scipy_mmc_log_p0(lam, mu, c):
    r = lam / mu
    rho = r / c
    if lam == 0:
        return 0.0
    # log of the two pieces of 1/P0
    log_r = math.log(r)
    # sum_{n=0}^{c-1} r^n / n!
    n = np.arange(c)
    log_terms = n * log_r - special.gammaln(n + 1)
    log_sum_finite = special.logsumexp(log_terms)
    # r^c / (c! (1-rho))
    log_tail = c * log_r - special.gammaln(c + 1) - math.log(1.0 - rho)
    log_inv_p0 = np.logaddexp(log_sum_finite, log_tail)
    return float(-log_inv_p0)


def _scipy_mmc_state_probabilities(lam, mu, c, n_max):
    if lam == 0:
        probs = np.zeros(n_max + 1)
        probs[0] = 1.0
        return probs
    r = lam / mu
    log_r = math.log(r)
    log_p0 = _scipy_mmc_log_p0(lam, mu, c)
    n = np.arange(n_max + 1)
    log_pn = np.empty(n_max + 1)
    head = n <= c
    log_pn[head] = n[head] * log_r - special.gammaln(n[head] + 1) + log_p0
    tail = ~head
    if tail.any():
        log_pn[tail] = (
            n[tail] * log_r
            - (n[tail] - c) * math.log(c)
            - special.gammaln(c + 1)
            + log_p0
        )
    return np.exp(log_pn)


def _scipy_erlang_c(lam, mu, c):
    if lam == 0:
        return 0.0
    r = lam / mu
    rho = r / c
    if rho >= 1.0:
        return 1.0
    log_p0 = _scipy_mmc_log_p0(lam, mu, c)
    log_pw = c * math.log(r) - special.gammaln(c + 1) - math.log(1.0 - rho) + log_p0
    return float(min(1.0, math.exp(log_pw)))


class TestBitIdenticalToScipyBodies:
    """The table-indexed functions return what the ``gammaln`` ones did, bit for bit."""

    #: utilisations from idle to a hair under instability
    RHOS = (0.0, 1e-9, 0.05, 0.5, 0.9, 0.999, 1.0 - 1e-12)
    CS = (1, 2, 3, 8, 12, 13, 64, 999, 1000, 1001, 5000)
    MUS = (0.37, 1.0, 10.0)

    def test_over_the_grid(self):
        for c in self.CS:
            for mu in self.MUS:
                for rho in self.RHOS:
                    lam = rho * c * mu
                    if lam / mu / c >= 1.0:  # rounding pushed ρ → 1 over the edge
                        lam = math.nextafter(c * mu, 0.0)
                    where = (lam, mu, c)
                    assert mmc_log_p0(lam, mu, c) == _scipy_mmc_log_p0(lam, mu, c), where
                    assert erlang_c(lam, mu, c) == _scipy_erlang_c(lam, mu, c), where
                    # below c, exactly c, and into the geometric tail
                    for n_max in (0, c - 1, c, c + 7, 2 * c + 50):
                        assert np.array_equal(
                            mmc_state_probabilities(lam, mu, c, n_max),
                            _scipy_mmc_state_probabilities(lam, mu, c, n_max),
                        ), where + (n_max,)

    @given(
        rho=st.floats(min_value=1e-6, max_value=1.0 - 1e-9),
        mu=st.floats(min_value=0.01, max_value=500.0),
        c=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=200, deadline=None)
    def test_property(self, rho, mu, c):
        lam = rho * c * mu
        if lam / mu / c >= 1.0:
            return
        assert mmc_log_p0(lam, mu, c) == _scipy_mmc_log_p0(lam, mu, c)
        assert erlang_c(lam, mu, c) == _scipy_erlang_c(lam, mu, c)
        assert np.array_equal(
            mmc_state_probabilities(lam, mu, c, c + 20),
            _scipy_mmc_state_probabilities(lam, mu, c, c + 20),
        )


class TestStateProbabilities:
    def test_probabilities_sum_to_at_most_one(self):
        probs = mmc_state_probabilities(8.0, 2.0, 5, 200)
        assert probs.sum() <= 1.0 + 1e-9
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)

    def test_matches_mm1_closed_form(self):
        lam, mu = 0.5, 1.0
        probs = mmc_state_probabilities(lam, mu, 1, 50)
        rho = lam / mu
        expected = [(1 - rho) * rho**n for n in range(51)]
        assert probs == pytest.approx(expected, rel=1e-9)

    def test_zero_arrival_rate_means_empty_system(self):
        probs = mmc_state_probabilities(0.0, 1.0, 3, 10)
        assert probs[0] == 1.0
        assert probs[1:].sum() == 0.0

    def test_unstable_system_rejected(self):
        with pytest.raises(ValueError):
            mmc_log_p0(10.0, 1.0, 5)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            mmc_state_probabilities(-1.0, 1.0, 1, 10)
        with pytest.raises(ValueError):
            mmc_state_probabilities(1.0, 0.0, 1, 10)
        with pytest.raises(ValueError):
            mmc_state_probabilities(1.0, 1.0, 0, 10)

    def test_large_c_numerically_stable(self):
        # log-space evaluation must not overflow for c in the thousands
        probs = mmc_state_probabilities(900.0, 1.0, 1000, 1200)
        assert np.isfinite(probs).all()
        assert probs.sum() == pytest.approx(1.0, abs=1e-4)


class TestErlangC:
    def test_known_value_mm1(self):
        # for M/M/1 the probability of waiting equals rho
        assert erlang_c(0.7, 1.0, 1) == pytest.approx(0.7)

    def test_known_value_mm2(self):
        # Erlang-C for c=2, r=1 (rho=0.5) is 1/3
        assert erlang_c(1.0, 1.0, 2) == pytest.approx(1.0 / 3.0)

    def test_zero_load(self):
        assert erlang_c(0.0, 1.0, 3) == 0.0

    def test_unstable_returns_one(self):
        assert erlang_c(10.0, 1.0, 5) == 1.0

    def test_decreases_with_more_servers(self):
        values = [erlang_c(4.0, 1.0, c) for c in range(5, 12)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestMMcQueue:
    def test_basic_quantities(self):
        queue = MMcQueue(20.0, 10.0, 4)
        assert queue.offered_load == pytest.approx(2.0)
        assert queue.utilization == pytest.approx(0.5)
        assert queue.is_stable

    def test_mean_wait_matches_littles_law(self):
        queue = MMcQueue(20.0, 10.0, 4)
        assert queue.mean_queue_length == pytest.approx(queue.lam * queue.mean_wait)

    def test_mean_response_time_adds_service(self):
        queue = MMcQueue(20.0, 10.0, 4)
        assert queue.mean_response_time == pytest.approx(queue.mean_wait + 0.1)

    def test_exact_wait_cdf_monotone(self):
        queue = MMcQueue(30.0, 10.0, 5)
        values = [queue.wait_cdf_exact(t) for t in np.linspace(0, 1, 20)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_exact_percentile_inverts_cdf(self):
        queue = MMcQueue(30.0, 10.0, 5)
        p95 = queue.wait_percentile_exact(0.95)
        assert queue.wait_cdf_exact(p95) == pytest.approx(0.95, abs=1e-9)

    def test_percentile_zero_when_no_waiting_needed(self):
        queue = MMcQueue(1.0, 10.0, 10)
        assert queue.wait_percentile_exact(0.5) == 0.0

    def test_paper_bound_close_to_exact(self):
        # Eq. 3-4's bound should be within a small margin of the exact
        # Erlang-C percentile for moderately loaded systems
        queue = MMcQueue(30.0, 10.0, 5)
        bound = queue.wait_bound_percentile(0.95)
        exact = queue.wait_percentile_exact(0.95)
        assert bound == pytest.approx(exact, abs=0.05)

    def test_bound_probability_monotone_in_t(self):
        queue = MMcQueue(30.0, 10.0, 5)
        values = [queue.wait_bound_probability(t) for t in np.linspace(0, 0.5, 30)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_bound_probability_monotone_in_c(self):
        values = [MMcQueue(30.0, 10.0, c).wait_bound_probability(0.1) for c in range(4, 12)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_unstable_queue_has_infinite_wait(self):
        queue = MMcQueue(100.0, 10.0, 5)
        assert not queue.is_stable
        assert queue.mean_wait == math.inf
        assert queue.wait_bound_percentile(0.95) == math.inf

    def test_expected_busy_containers(self):
        assert MMcQueue(20.0, 10.0, 4).expected_busy_containers() == pytest.approx(2.0)

    def test_solver_probe_matches_scalar(self):
        for lam, c in ((10.0, 3), (20.0, 4), (30.0, 5), (300.0, 33), (600.0, 64)):
            value = _bound(lam, 10.0, 0.1, c)
            assert value == pytest.approx(MMcQueue(lam, 10.0, c).wait_bound_probability(0.1))


class TestProperties:
    @given(
        lam=st.floats(min_value=0.5, max_value=80.0),
        mu=st.floats(min_value=1.0, max_value=30.0),
        extra=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_state_probabilities_are_a_distribution(self, lam, mu, extra):
        c = int(lam / mu) + extra
        probs = mmc_state_probabilities(lam, mu, c, c + 300)
        assert (probs >= -1e-12).all()
        assert probs.sum() <= 1.0 + 1e-6

    @given(
        lam=st.floats(min_value=0.5, max_value=80.0),
        mu=st.floats(min_value=1.0, max_value=30.0),
        extra=st.integers(min_value=1, max_value=15),
        t=st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bound_never_exceeds_one(self, lam, mu, extra, t):
        c = int(lam / mu) + extra
        queue = MMcQueue(lam, mu, c)
        assert 0.0 <= queue.wait_bound_probability(t) <= 1.0
