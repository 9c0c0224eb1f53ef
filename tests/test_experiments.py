"""Smoke and shape tests for the experiment harnesses (shortened durations).

These check that each table/figure harness runs end to end and that the
qualitative findings of the paper hold (who wins, in which direction),
not the absolute numbers — the full-length runs are recorded in
EXPERIMENTS.md.
"""

import pytest

from repro.experiments.fig3_homogeneous import format_fig3, fraction_meeting_slo, run_fig3
from repro.experiments.fig4_heterogeneous import run_fig4
from repro.experiments.fig4_heterogeneous import fraction_meeting_slo as fig4_fraction
from repro.experiments.fig5_scalability import format_fig5, max_time_seconds, run_fig5
from repro.experiments.fig6_autoscaling import (
    default_rate_profiles,
    run_fig6,
    tracking_correlation,
)
from repro.experiments.fig7_deflation import (
    FIG7_FUNCTIONS,
    run_fig7,
    slowdown_at,
    small_penalty_at_threshold,
)
from repro.experiments.fig8_reclamation import build_workloads, run_fig8
from repro.experiments.fig9_azure import build_tree, run_fig9
from repro.experiments.table1_functions import (
    catalogue_consistency_checks,
    format_table1,
    run_table1,
)


class TestTable1:
    def test_rows_match_paper(self):
        rows = run_table1()
        assert len(rows) == 7
        assert ("mobilenet", "Python", "2 vCPU + 1024 MB") in rows
        assert ("geofence", "JavaScript", "0.3 vCPU + 128 MB") in rows

    def test_catalogue_consistent(self):
        assert catalogue_consistency_checks() == []

    def test_format_renders_all_rows(self):
        text = format_table1()
        for name in ("microbenchmark", "mobilenet", "binaryalert", "image-resizer"):
            assert name in text


class TestFig3:
    @pytest.fixture(scope="class")
    def points(self):
        return run_fig3(mus=(10.0,), slo_deadlines=(0.1, 0.2),
                        arrival_rates=(10.0, 30.0, 50.0), duration=150.0, seed=300)

    def test_measured_p95_close_to_slo(self, points):
        assert fraction_meeting_slo(points, tolerance=0.4) >= 0.8

    def test_container_count_grows_with_rate(self, points):
        by_slo = [p for p in points if p.slo_deadline == 0.1]
        rates = sorted(p.arrival_rate for p in by_slo)
        counts = [next(p.containers for p in by_slo if p.arrival_rate == r) for r in rates]
        assert counts == sorted(counts)

    def test_looser_slo_needs_no_more_containers(self, points):
        for rate in (10.0, 30.0, 50.0):
            tight = next(p for p in points if p.slo_deadline == 0.1 and p.arrival_rate == rate)
            loose = next(p for p in points if p.slo_deadline == 0.2 and p.arrival_rate == rate)
            assert loose.containers <= tight.containers

    def test_format(self, points):
        assert "p95 wait(ms)" in format_fig3(points)


class TestFig4:
    @pytest.fixture(scope="class")
    def points(self):
        return run_fig4(proportions=(0.5, 1.0), arrival_rates=(20.0, 60.0), duration=90.0, seed=400)

    def test_slo_met_despite_deflated_containers(self, points):
        assert fig4_fraction(points, tolerance=0.4) >= 0.75

    def test_heterogeneous_model_adds_capacity_when_needed(self, points):
        assert all(p.total_containers >= p.homogeneous_containers for p in points)
        fully_deflated = [p for p in points if p.deflated_proportion == 1.0]
        assert any(p.total_containers > p.homogeneous_containers for p in fully_deflated)


class TestFig5:
    @pytest.fixture(scope="class")
    def points(self):
        return run_fig5()

    def test_solver_path_stays_sub_second(self, points):
        assert max_time_seconds(points, "solver") < 1.0

    def test_each_point_has_a_reference_and_a_solver_row(self, points):
        assert [p.implementation for p in points] == ["reference", "solver"] * 14
        assert {(p.spike, p.current_containers) for p in points} == {
            (spike, count) for spike in ("10%", "2x")
            for count in (10, 50, 100, 250, 500, 750, 1000)}

    def test_reference_and_solver_agree_on_the_default_grid(self, points):
        # every point, 1,000 containers x 2 included
        by_key = {}
        for p in points:
            by_key.setdefault((p.spike, p.current_containers), {})[p.implementation] = \
                p.new_containers
        assert len(by_key) == 14
        for key, answers in by_key.items():
            assert answers["reference"] == answers["solver"], key
        assert by_key[("2x", 1000)]["reference"] == 1996

    def test_format(self, points):
        assert "time (ms)" in format_fig5(points)


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig6(step_duration=40.0, seed=600)

    def test_allocation_tracks_both_workloads(self, result):
        micro_rates, mobile_rates = default_rate_profiles()
        assert tracking_correlation(micro_rates, 40.0, result.micro_timeline) > 0.4
        assert tracking_correlation(mobile_rates, 40.0, result.mobilenet_timeline) > 0.4

    def test_peak_allocation_exceeds_trough(self, result):
        _, counts = result.micro_timeline
        assert max(counts) >= min(c for c in counts if c > 0) + 2

    def test_containers_during_step_helper(self, result):
        low = result.containers_during_step("microbenchmark", 0)
        high = result.containers_during_step("microbenchmark", 5)
        assert high > low


class TestFig7:
    @pytest.fixture(scope="class")
    def points(self):
        return run_fig7()

    def test_all_functions_and_ratios_covered(self, points):
        assert {p.function_name for p in points} == set(FIG7_FUNCTIONS)
        assert len({p.deflation_ratio for p in points}) == 8

    def test_small_penalty_up_to_30_percent_for_non_mobilenet(self, points):
        verdicts = small_penalty_at_threshold(points, threshold=0.3, max_penalty=0.2)
        assert all(verdicts.values())

    def test_mobilenet_degrades_roughly_proportionally(self, points):
        slowdown = slowdown_at(points, "mobilenet", 0.5)
        assert slowdown == pytest.approx(1 / 0.5, rel=0.15)

    def test_service_time_monotone_in_deflation(self, points):
        for name in FIG7_FUNCTIONS:
            series = sorted(
                (p.deflation_ratio, p.service_time) for p in points if p.function_name == name
            )
            times = [s for _, s in series]
            assert all(b >= a - 1e-12 for a, b in zip(times, times[1:]))

    def test_measured_mode_matches_analytic_at_zero_deflation(self):
        measured = run_fig7(functions=("squeezenet",), deflation_ratios=(0.0, 0.3),
                            measured=True, duration=40.0)
        analytic = run_fig7(functions=("squeezenet",), deflation_ratios=(0.0, 0.3))
        m0 = next(p for p in measured if p.deflation_ratio == 0.0)
        a0 = next(p for p in analytic if p.deflation_ratio == 0.0)
        assert m0.service_time == pytest.approx(a0.service_time, rel=0.3)


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig8(phase_duration=90.0, seed=800)

    def test_both_policies_keep_functions_at_fair_share(self, result):
        for outcome in (result.termination, result.deflation):
            for name, violation in outcome.fair_share_violations.items():
                assert violation <= 0.1, f"{outcome.policy}: {name} violated fair share"

    def test_deflation_improves_utilization(self, result):
        assert result.deflation.mean_utilization > result.termination.mean_utilization
        assert result.utilization_improvement > 0.0

    def test_deflation_causes_less_churn(self, result):
        term_ops = result.termination.container_operations
        defl_ops = result.deflation.container_operations
        assert (defl_ops["creations"] + defl_ops["terminations"]) <= (
            term_ops["creations"] + term_ops["terminations"]
        )
        assert defl_ops["deflations"] > 0
        assert term_ops["deflations"] == 0

    def test_openwhisk_baseline_collapses(self, result):
        assert result.openwhisk is not None
        assert result.openwhisk.failed_invokers >= 1
        assert result.openwhisk.completions < 0.7 * result.openwhisk.arrivals

    def test_workload_has_five_phases(self):
        bindings, duration = build_workloads(60.0)
        assert duration == 300.0
        assert {b.profile.name for b in bindings} == {"binaryalert", "mobilenet"}


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig9(duration_minutes=6, seed=900, trace_seed=77)

    def test_deflation_improves_utilization(self, result):
        assert result.deflation.mean_utilization >= result.termination.mean_utilization

    def test_deflation_reduces_churn(self, result):
        assert result.churn_reduction >= 0
        assert result.deflation.churn <= result.termination.churn

    def test_cluster_is_highly_utilised(self, result):
        assert result.termination.mean_utilization > 0.5

    def test_tree_matches_weight_split(self):
        tree = build_tree()
        shares = tree.guaranteed_shares(12.0)
        user1 = shares["shufflenet"] + shares["geofence"] + shares["image-resizer"]
        user2 = shares["mobilenet"] + shares["squeezenet"] + shares["binaryalert"]
        assert user1 == pytest.approx(4.0)
        assert user2 == pytest.approx(8.0)

    def test_trace_totals_recorded(self, result):
        assert set(result.trace_totals) == {
            "mobilenet", "shufflenet", "squeezenet", "binaryalert", "geofence", "image-resizer"
        }
