"""The pair runner's verdict and gate: choosing-metrics §8, as ``tools/bench_pairs.py`` applies it."""

import json
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


def test_a_resolved_difference_under_a_tenth_of_the_bound_is_labelled_inside_it():
    # the +0.2 MB (0.3 %) that read a bare "worse" against a declared bound of 10 %
    base = [59.40, 59.45, 59.40, 59.38, 59.42, 59.41]
    rss = judge(base, [b + 0.2 for b in base], "lower", 0.10)
    assert (rss["verdict"], rss["inside_bound"], rss["regression"]) == ("worse", True, False)
    # a gain is labelled by the same rule; 2 % of a 10 % bound is not under a tenth of it
    assert judge(base, [b - 0.2 for b in base], "lower", 0.10)["inside_bound"] is True
    assert judge(base, [b + 1.2 for b in base], "lower", 0.10)["inside_bound"] is False
    # only a resolved difference carries the label
    assert judge(base, base, "lower", 0.10)["inside_bound"] is False
    assert judge(base, [b + 0.001 for b in base], "lower", 0.10)["verdict"] == "unresolved"
    assert judge(base, [b + 0.001 for b in base], "lower", 0.10)["inside_bound"] is False


def test_unknown_metric_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as usage:
        main(["--base", str(tmp_path), "--workload", "steady_event", "--metric", "speed"])
    assert usage.value.code == 2


# ----------------------------------------------------------------------
# --head: both sides may be fresh exports, each driven by its own harness
# ----------------------------------------------------------------------
STUB_HARNESS = '''
import json, sys
from pathlib import Path
tree = Path(__file__).resolve().parents[2]
assert Path.cwd() == tree, "each tree's harness runs from its own directory"
with open(tree.parent / "order.log", "a") as log:
    log.write(tree.name + " " + " ".join(sys.argv[1:]) + "\\n")
wall = float((tree / "WALL").read_text())
values = {"setup_s": 0.2, "wall_s": wall, "cpu_s": wall, "sim_req_per_s": 1000.0 / wall,
          "peak_rss_mb": 50.0, "slo_attainment": 0.789, "sim_served_share": 0.98}
print("noise before the result line")
print(json.dumps({"metrics": {k: {"value": v} for k, v in values.items()},
                  "failed": 0, "attempted": 3}))
'''


def fake_tree(root: Path, name: str, wall: float, declaration: bool) -> Path:
    """A directory that looks enough like a checkout for ``bench_pairs`` to drive."""
    tree = root / name
    (tree / "benchmarks" / "e2e").mkdir(parents=True)
    (tree / "benchmarks" / "e2e" / "run.py").write_text(STUB_HARNESS)
    (tree / "WALL").write_text(str(wall))
    if declaration:
        real = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        (tree / "BENCHMARK.json").write_text(real.read_text())
    return tree


def test_head_names_a_second_tree_and_each_side_runs_its_own_harness(tmp_path, capsys):
    base = fake_tree(tmp_path, "base-tree", 1.0, declaration=False)
    head = fake_tree(tmp_path, "head-tree", 0.8, declaration=True)   # the declaration is head's
    out = tmp_path / "BENCH_PAIRS.json"
    code = main(["--base", str(base), "--head", str(head), "--workload", "burst_control",
                 "--pairs", "4", "--seed", "42", "--seconds", "1", "--out", str(out)])
    assert code == 0
    order = (tmp_path / "order.log").read_text().splitlines()
    # alternating which side goes first, every run with the same arguments
    assert [line.split()[0] for line in order] == [
        "base-tree", "head-tree", "head-tree", "base-tree",
        "base-tree", "head-tree", "head-tree", "base-tree"]
    assert {line.split(" ", 1)[1] for line in order} == {
        "--workload burst_control --seed 42 --seconds 1.0 --trace 0"}
    table = capsys.readouterr().out
    wall_row = next(line for line in table.splitlines() if line.strip().startswith("wall_s"))
    assert "-20.0%" in wall_row and "4/4" in wall_row and wall_row.rstrip().endswith("gain")
    assert "failed operations base 0/12, head 0/12" in table

    # the --out record holds what the table printed, and every run's value
    saved = json.loads(out.read_text(encoding="utf-8"))
    assert json.loads(json.dumps(saved)) == saved
    # neither fake tree has a .git, so each side is named by its path
    assert (saved["schema"], saved["base"], saved["head"]) == (
        "repro/bench-pairs@1", str(base), str(head))
    assert (saved["seed"], saved["seconds"], saved["pairs"]) == (42, 1.0, 4)
    run = saved["workloads"]["burst_control"]
    assert run["failed"] == {"base": 0, "head": 0} and run["attempted"] == {"base": 12, "head": 12}
    wall = run["metrics"]["wall_s"]
    assert (wall["base"], wall["head"]) == ([1.0] * 4, [0.8] * 4)
    assert (wall["base_quartiles"], wall["head_quartiles"]) == ([1.0] * 3, [0.8] * 3)
    assert (wall["won"], wall["lost"], wall["verdict"]) == (4, 0, "gain")
    assert wall["change"] == pytest.approx(-0.2)
    assert run["metrics"]["slo_attainment"]["verdict"] == "equal"
    assert set(run["metrics"]) == {m["name"] for m in json.loads(
        (head / "BENCHMARK.json").read_text())["end_to_end"]}


def test_a_head_tree_that_loses_every_pair_past_the_bound_fails_the_gate(tmp_path, capsys):
    base = fake_tree(tmp_path, "base-tree", 1.0, declaration=False)
    head = fake_tree(tmp_path, "head-tree", 1.3, declaration=True)
    arguments = ["--base", str(base), "--head", str(head), "--workload", "replay_sweep",
                 "--pairs", "2", "--seconds", "1"]
    assert main(arguments) == 1
    assert "regression: head lost every pair and left the bound on replay_sweep.wall_s" in (
        capsys.readouterr().out)
    (head / "WALL").write_text("1.2")      # every pair lost, but inside the 25 % bound
    assert main(arguments) == 0
    assert "(inside bound)" not in capsys.readouterr().out    # 20 % is not under a tenth of 25 %
    (head / "WALL").write_text("1.01")     # resolved (the stub has no spread), and 1 % of 25 %
    assert main(arguments) == 0
    wall_row = next(line for line in capsys.readouterr().out.splitlines()
                    if line.strip().startswith("wall_s"))
    assert wall_row.rstrip().endswith("worse (inside bound)")
