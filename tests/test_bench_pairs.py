"""The pair runner's verdict and gate: choosing-metrics §8, as ``tools/bench_pairs.py`` applies it."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_pairs import judge, main  # noqa: E402


def test_gain_needs_nine_tenths_of_the_pairs_and_medians_apart_by_the_base_spread():
    base = [0.60, 0.61, 0.62, 0.63, 0.64, 0.60, 0.61, 0.62, 0.63, 0.64]
    head = [b * 0.75 for b in base]
    row = judge(base, head, "lower", 0.25)
    assert (row["verdict"], row["won"], row["lost"], row["regression"]) == ("gain", 10, 0, False)
    assert row["change"] == pytest.approx(-0.25)
    # one lost pair of ten is still nine tenths; two are not
    assert judge(base, [0.70] + head[1:], "lower", 0.25)["verdict"] == "gain"
    assert judge(base, [0.70, 0.70] + head[2:], "lower", 0.25)["verdict"] == "unresolved"
    # every pair won, but by less than the base's own quartile spread
    assert judge(base, [b - 0.001 for b in base], "lower", 0.25)["verdict"] == "unresolved"


def test_higher_is_better_metrics_flip_the_sign():
    base = [100.0, 101.0, 102.0, 103.0]
    assert judge(base, [b * 1.3 for b in base], "higher", 0.25)["verdict"] == "gain"
    assert judge(base, [b * 0.7 for b in base], "higher", 0.25)["verdict"] == "worse"


def test_simulated_statistics_that_never_move_read_equal():
    row = judge([0.9565] * 4, [0.9565] * 4, "higher", 0.15)
    assert (row["verdict"], row["won"], row["lost"], row["regression"]) == ("equal", 0, 0, False)


def test_the_gate_trips_only_on_every_pair_lost_and_the_median_past_the_bound():
    base = [0.60, 0.61, 0.62, 0.63]
    assert judge(base, [b * 1.30 for b in base], "lower", 0.25)["regression"] is True
    assert judge(base, [b * 1.20 for b in base], "lower", 0.25)["regression"] is False   # inside
    mostly = [b * 1.30 for b in base[:3]] + [0.50]
    assert judge(base, mostly, "lower", 0.25)["regression"] is False                     # won one
    assert judge(base, mostly, "lower", 0.25)["verdict"] == "unresolved"
    # +0.8 % on peak_rss_mb in every pair is "worse" by the rule but nowhere near its 10 % bound
    rss = judge([59.4, 59.5, 59.4, 59.3], [59.9, 60.0, 59.9, 59.8], "lower", 0.10)
    assert (rss["verdict"], rss["regression"]) == ("worse", False)


def test_unknown_metric_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as usage:
        main(["--base", str(tmp_path), "--workload", "steady_event", "--metric", "speed"])
    assert usage.value.code == 2
