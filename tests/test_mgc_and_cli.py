"""Tests for the M/G/c extension and the command-line interface."""

import pytest

from repro.cli import main
from repro.core.queueing.distributions import Deterministic, Exponential, LogNormal
from repro.core.queueing.mgc import MGcQueue, required_containers_mgc
from repro.core.queueing.mmc import MMcQueue
from repro.core.queueing.sizing import required_containers


class TestMGcQueue:
    def test_exponential_scv_reduces_to_mmc(self):
        mgc = MGcQueue(lam=20.0, mean_service_time=0.1, scv=1.0, c=4)
        mmc = MMcQueue(20.0, 10.0, 4)
        assert mgc.mean_wait == pytest.approx(mmc.mean_wait)
        assert mgc.probability_of_waiting == pytest.approx(mmc.probability_of_waiting)
        assert mgc.wait_percentile(0.95) == pytest.approx(mmc.wait_percentile_exact(0.95), rel=1e-6)

    def test_deterministic_service_halves_the_wait(self):
        exponential = MGcQueue(20.0, 0.1, scv=1.0, c=4)
        deterministic = MGcQueue(20.0, 0.1, scv=0.0, c=4)
        assert deterministic.mean_wait == pytest.approx(0.5 * exponential.mean_wait)

    def test_high_variability_increases_the_wait(self):
        low = MGcQueue(20.0, 0.1, scv=0.04, c=4)
        high = MGcQueue(20.0, 0.1, scv=4.0, c=4)
        assert high.mean_wait > low.mean_wait

    def test_from_distribution_closed_forms(self):
        assert MGcQueue.from_distribution(10.0, Exponential(0.1), 3).scv == 1.0
        assert MGcQueue.from_distribution(10.0, Deterministic(0.1), 3).scv == 0.0
        assert MGcQueue.from_distribution(10.0, LogNormal(0.1, cv=0.2), 3).scv == pytest.approx(0.04)

    def test_wait_cdf_monotone_and_bounded(self):
        queue = MGcQueue(30.0, 0.1, scv=0.5, c=5)
        values = [queue.wait_cdf(t) for t in (0.0, 0.05, 0.1, 0.3, 1.0)]
        assert all(0 <= v <= 1 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_percentile_inverts_cdf(self):
        queue = MGcQueue(30.0, 0.1, scv=0.5, c=5)
        p95 = queue.wait_percentile(0.95)
        assert queue.wait_cdf(p95) == pytest.approx(0.95, abs=1e-9)

    def test_unstable_system(self):
        queue = MGcQueue(100.0, 0.1, scv=1.0, c=5)
        assert not queue.is_stable
        assert queue.mean_wait == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            MGcQueue(-1.0, 0.1, 1.0, 1)
        with pytest.raises(ValueError):
            MGcQueue(1.0, 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            MGcQueue(1.0, 0.1, -1.0, 1)
        with pytest.raises(ValueError):
            MGcQueue(1.0, 0.1, 1.0, 0)

    @pytest.mark.parametrize("scv", [float("nan"), float("inf"), -float("inf"), -0.5])
    def test_a_non_finite_or_negative_scv_is_refused(self, scv):
        # NaN once passed the ``scv < 0`` check and sized 178 containers at 10 req/s
        with pytest.raises(ValueError, match="squared coefficient of variation"):
            MGcQueue(10.0, 0.1, scv, 2)
        with pytest.raises(ValueError, match="squared coefficient of variation"):
            required_containers_mgc(10.0, 0.1, scv, 0.1)
        with pytest.raises(ValueError, match="squared coefficient of variation"):
            required_containers_mgc(0.0, 0.1, scv, 0.1)     # before the zero-load shortcut


class TestMGcSizing:
    def test_exponential_scv_matches_exact_mmc_percentile_sizing(self):
        # with SCV=1 the M/G/c sizing should be within one container of the
        # paper's M/M/c-based Algorithm 1
        for lam in (10.0, 30.0, 60.0):
            mmc = required_containers(lam, 10.0, 0.1, 0.95).containers
            mgc = required_containers_mgc(lam, 0.1, 1.0, 0.1, 0.95).containers
            assert abs(mgc - mmc) <= 1

    def test_low_variability_never_needs_more_containers(self):
        for lam in (20.0, 50.0, 90.0):
            exponential = required_containers_mgc(lam, 0.1, 1.0, 0.1, 0.95).containers
            low_var = required_containers_mgc(lam, 0.1, 0.04, 0.1, 0.95).containers
            assert low_var <= exponential

    def test_high_variability_needs_at_least_as_many(self):
        exponential = required_containers_mgc(60.0, 0.1, 1.0, 0.1, 0.95).containers
        bursty = required_containers_mgc(60.0, 0.1, 4.0, 0.1, 0.95).containers
        assert bursty >= exponential

    def test_zero_load(self):
        assert required_containers_mgc(0.0, 0.1, 1.0, 0.1).containers == 0

    def test_meets_declared_percentile(self):
        result = required_containers_mgc(40.0, 0.1, 0.25, 0.05, 0.99)
        assert result.achieved_probability >= 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            required_containers_mgc(-1.0, 0.1, 1.0, 0.1)
        with pytest.raises(ValueError):
            required_containers_mgc(1.0, 0.1, 1.0, 0.1, percentile=2.0)


class TestCli:
    def test_size_command(self, capsys):
        code = main(["size", "--rate", "30", "--service-time", "0.1", "--slo", "0.1"])
        output = capsys.readouterr().out
        assert code == 0
        assert output.splitlines() == [
            "arrival rate       : 30 req/s",
            "mean service time  : 100 ms (mu = 10 req/s)",
            "SLO                : P95 waiting time <= 100 ms",
            "M/M/c (Algorithm 1): 5 containers (P(wait<=t) = 0.982)",
            "M/G/c (SCV=1)   : 5 containers (P(wait<=t) = 0.968)",
        ]

    def test_functions_command(self, capsys):
        code = main(["functions"])
        output = capsys.readouterr().out
        assert code == 0
        assert "mobilenet" in output and "2 vCPU + 1024 MB" in output

    def test_experiment_table1(self, capsys):
        code = main(["experiment", "table1"])
        assert code == 0
        assert "squeezenet" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "fig99"]) == 2

    def test_simulate_command(self, capsys):
        code = main([
            "simulate", "--function", "squeezenet", "--rate", "15",
            "--duration", "90", "--slo", "0.1", "--seed", "3",
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "SLO attainment" in output

    def test_policies_command(self, capsys):
        code = main(["policies"])
        output = capsys.readouterr().out
        assert code == 0
        for name in ("lass", "openwhisk", "reactive", "static", "hybrid", "noop"):
            assert name in output

    def test_simulate_command_with_policy(self, capsys):
        code = main([
            "simulate", "--function", "squeezenet", "--rate", "10",
            "--duration", "60", "--slo", "0.2", "--seed", "3",
            "--policy", "static",
            "--policy-params", '{"allocations": {"squeezenet": 3}}',
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "policy              : static" in output

    def test_scenario_refuses_the_removed_openwhisk_kind(self, capsys, tmp_path):
        import json

        from repro.scenarios import build

        spec = dict(build("quickstart").to_dict(), kind="openwhisk")
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(spec))
        assert main(["scenario", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert 'kind="simulate"' in captured.err
        assert 'controller.policy="openwhisk"' in captured.err
        assert "Traceback" not in captured.err

    def test_scenario_refuses_the_removed_sizing_benchmark_kind(self, capsys, tmp_path):
        import json

        from repro.scenarios import build

        spec = dict(build("table1").to_dict(), kind="sizing_benchmark")
        path = tmp_path / "fig5.json"
        path.write_text(json.dumps(spec))
        assert main(["scenario", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown scenario kind 'sizing_benchmark'" in captured.err
        for kind in ("simulate", "fixed", "deflation_curve", "catalogue", "trace_replay"):
            assert repr(kind) in captured.err
        assert "Traceback" not in captured.err

    def test_experiment_fig5_renders_without_a_registry_entry(self, capsys):
        from repro.scenarios.registry import names

        assert "fig5" not in names()
        assert main(["experiment", "fig5"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["reference", "solver"] * 14

    def test_size_command_rejects_missing_args(self):
        with pytest.raises(SystemExit):
            main(["size", "--rate", "30"])

    @pytest.mark.parametrize("flags, message", [
        (["--service-time", "0"], "service time must be finite and positive"),
        (["--service-time", "-0.1"], "service time must be finite and positive"),
        (["--service-time", "nan"], "service time must be finite and positive"),
        (["--rate", "nan"], "arrival rate must be finite and non-negative"),
        (["--rate", "inf"], "arrival rate must be finite and non-negative"),
        (["--slo", "nan"], "wait budget must be finite and non-negative"),
        (["--percentile", "1.5"], r"percentile must be in \(0, 1\)"),
        (["--scv", "nan"], "squared coefficient of variation must be finite"),
        (["--rate", "1e6"], "could not satisfy SLO with up to 100000 containers"),
        (["--rate", "1e300", "--service-time", "1e300"], "infinity"),     # λ/μ overflows
    ])
    def test_size_command_bad_input_is_one_line_and_exit_2(self, capsys, flags, message):
        import re

        args = {"--rate": "10", "--service-time": "0.1"}
        args.update(zip(flags[::2], flags[1::2]))
        code = main(["size", *(item for pair in args.items() for item in pair)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and re.search(message, lines[0]), captured.err
