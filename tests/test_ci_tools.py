"""The CI steps that used to be inline scripts: the columnar chaos preset and the replay check."""

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from chaos_sweep import _preset_sweep  # noqa: E402
from check_replay import main as check_replay  # noqa: E402
from envelope_digests import compare as compare_digests  # noqa: E402
from repro.cli import main as repro  # noqa: E402
from repro.scenarios import build  # noqa: E402
from repro.scenarios.sweep import apply_overrides  # noqa: E402


def test_the_columnar_preset_is_fig3_with_a_columnar_base():
    # the spec CI once wrote inline before feeding it to --spec
    sweep = build("fig3", mus=(10.0,), slo_deadlines=(0.1,),
                  arrival_rates=(10.0, 20.0, 30.0), duration=30.0, seed=3)
    columnar = dataclasses.replace(
        sweep, base=apply_overrides(sweep.base, {"data_plane": "columnar"}))
    assert _preset_sweep("fig3-columnar").to_json() == columnar.to_json()
    assert _preset_sweep("fig3").to_json() == sweep.to_json()


def test_the_replay_check_passes_a_real_envelope_and_names_each_failure(tmp_path, capsys):
    path = tmp_path / "replay.json"
    assert repro(["replay", "--functions", "40", "--minutes", "20", "--shards", "2",
                  "--chunk-minutes", "10", "-j", "1",
                  "-o", str(path)]) == 0
    capsys.readouterr()
    assert check_replay([str(path), "--functions", "40", "--shards", "2"]) == 0
    assert capsys.readouterr().out.startswith("replay smoke ok:")
    assert check_replay([str(path), "--functions", "41", "--shards", "3"]) == 1
    err = capsys.readouterr().err
    assert "totals.functions is 40, expected 41" in err
    assert "shard_count is 2, expected 3" in err
    merged = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({**merged, "schema": "repro/trace-replay@0"}), encoding="utf-8")
    assert check_replay([str(path), "--functions", "40", "--shards", "2"]) == 1
    assert "schema is 'repro/trace-replay@0'" in capsys.readouterr().err


def test_the_replay_check_holds_other_shard_counts_to_the_same_numbers(tmp_path, capsys):
    paths = {}
    for shards in (2, 3):
        paths[shards] = tmp_path / f"replay_{shards}.json"
        assert repro(["replay", "--functions", "40", "--minutes", "20", "--shards", str(shards),
                      "--chunk-minutes", "10", "-o", str(paths[shards])]) == 0
    assert check_replay([str(paths[2]), "--functions", "40", "--shards", "2",
                         "--same-as", str(paths[3])]) == 0
    merged = json.loads(paths[3].read_text(encoding="utf-8"))
    for group, key in (("totals", "invocations"), ("percentiles", "per_minute_invocations")):
        changed = json.loads(json.dumps(merged))
        if group == "totals":
            changed[group][key] += 1
        else:
            changed[group][key]["p99"] += 1.0
        paths[3].write_text(json.dumps(changed), encoding="utf-8")
        capsys.readouterr()
        assert check_replay([str(paths[2]), "--functions", "40", "--shards", "2",
                             "--same-as", str(paths[3])]) == 1
        assert f"{group} differ from the --same-as envelope's" in capsys.readouterr().err


def test_the_digest_comparison_counts_echo_differences_without_failing_on_them(
        tmp_path, capsys):
    base, head = tmp_path / "base.txt", tmp_path / "head.txt"
    base.write_text("fig3  fig3#0000  event  e1  p1\nfig3  fig3#0001  event  e2  p2\n"
                    "fig8  fig8#0000  event  e3  p3\n", encoding="utf-8")
    head.write_text("fig3  fig3#0000  event  E1  p1\nfig3  fig3#0001  event  E2  P2\n",
                    encoding="utf-8")
    assert compare_digests(str(base), str(head)) == 1   # a payload moved
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "2 shared runs, 1 payload digest(s) differ, " \
                                   "2 echo digest(s) differ"
    assert "only in base: fig8  fig8#0000  event" in out
    head.write_text("fig3  fig3#0000  event  E1  p1\nfig3  fig3#0001  event  e2  p2\n",
                    encoding="utf-8")
    assert compare_digests(str(base), str(head)) == 0   # an echo alone is not fatal
    assert capsys.readouterr().out.splitlines()[-1] == (
        "2 shared runs, 0 payload digest(s) differ, 1 echo digest(s) differ")
