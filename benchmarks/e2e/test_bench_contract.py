"""Contract tests for the repo benchmark: schema and determinism, never timing.

They keep ``BENCHMARK.json``, the harness and the layer table from
drifting apart, and check at a tenth of the size that every declared
metric is actually produced.  No assertion here depends on how fast the
host is.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import drive  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declaration() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declaration_follows_the_contract(declaration):
    """Keys, names, units, bounds and counts are what the driver accepts."""
    assert set(declaration) == {"command", "paths", "run_seconds", "workloads",
                                "end_to_end", "per_layer"}
    assert declaration["paths"] == ["benchmarks/e2e"]
    assert declaration["command"][-1] == "benchmarks/e2e/run.py"
    assert isinstance(declaration["run_seconds"], int) and 1 <= declaration["run_seconds"] <= 60

    assert [w["name"] for w in declaration["workloads"]] == list(workloads.WORKLOADS)
    for workload in declaration["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]

    names = [w["name"] for w in declaration["workloads"]]
    for metric in declaration["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declaration["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declaration["end_to_end"] + declaration["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names), "a name is used twice"
    assert 1 <= len(declaration["end_to_end"]) <= 16
    assert 1 <= len(declaration["per_layer"]) <= 128

    setup = next(m for m in declaration["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in declaration["end_to_end"])


def test_every_layer_of_the_table_is_declared(declaration):
    """Each layer of ``tracing.LAYERS`` (and the harness) has its three metrics declared."""
    declared = {m["name"] for m in declaration["per_layer"]}
    for layer in tracing.LAYER_NAMES:
        for suffix in ("self_s", "self_share", "calls"):
            assert f"{layer}.{suffix}" in declared
    # and every source file the layer table claims still exists
    for _, prefixes in tracing.LAYERS:
        for prefix in prefixes:
            assert (ROOT / "src" / prefix).exists(), prefix


def test_inputs_are_a_pure_function_of_name_and_seed():
    """Same seed, same inputs; another seed, other inputs; all of it plain data."""
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 5)
        assert first == workloads.generate(name, 5)
        assert first != workloads.generate(name, 6)
        assert json.loads(json.dumps(first)) == first
    event = workloads.generate("steady_event", 5)
    columnar = workloads.generate("steady_columnar", 5)
    differing = {key for key in event if event[key] != columnar[key]}
    assert differing == {"workload", "data_plane"}


def test_every_seed_offers_burst_control_the_same_load():
    """The seed draws who bursts, when and how hard; never how many requests are offered."""
    def offered(seed: int) -> float:
        inputs = workloads.generate("burst_control", seed)
        return workloads.offered_requests(inputs["functions"], inputs["duration"])

    assert offered(1) == pytest.approx(workloads.BURST["offered_requests"], rel=1e-9)
    assert offered(2) == pytest.approx(offered(1), rel=1e-9)


def test_quick_run_emits_every_declared_end_to_end_metric(declaration):
    """``--quick`` over all workloads: every declared metric, finite, no failed operation."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--quick", "--seed", "5"],
        stdout=subprocess.PIPE, text=True, cwd=str(ROOT), timeout=120, check=True,
    )
    suite = json.loads(done.stdout.strip().splitlines()[-1])
    assert suite["correct"] and suite["failed"] == 0 and suite["attempted"] >= 8
    units = {m["name"]: m["unit"] for m in declaration["end_to_end"]}
    assert list(suite["workloads"]) == list(workloads.WORKLOADS)
    for result in suite["workloads"].values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == list(units)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name]
            assert math.isfinite(metric["value"]) and metric["value"] > 0, name
    # a failed determinism or plane-equivalence check would have counted
    # as a failed operation above; the two planes also print equal numbers
    event, columnar = (suite["workloads"][w]["metrics"] for w in ("steady_event", "steady_columnar"))
    for name in ("slo_attainment", "sim_served_share"):
        assert event[name]["value"] == columnar[name]["value"]


@pytest.mark.parametrize("workload", ["burst_control", "replay_sweep"])
def test_traced_quick_run_accounts_for_the_wall_clock(workload, declaration):
    """The layer table sums to the traced wall-clock and the spans nest as a tree."""
    result = drive.trace(workloads.generate(workload, 5, scale=0.1), seconds=0.0)
    assert result["failed"] == 0, result["failures"]
    metrics = result["metrics"]
    assert set(metrics) <= {m["name"] for m in declaration["per_layer"]}
    shares = [metrics[f"{layer}.self_share"] for layer in tracing.LAYER_NAMES]
    assert sum(shares) == pytest.approx(1.0)
    # the full-size runs hold 0.97-0.99; what is missing is the
    # profiler's own bookkeeping between calls, so leave it some room
    assert 0.95 <= metrics["trace.coverage"] <= 1.02

    trace = json.loads((drive.OUT_DIR / f"trace_{workload}.json").read_text())
    assert trace["spans"] and tracing.spans_form_tree(trace["spans"])
    for span in trace["spans"]:
        assert set(span) == {"id", "parent", "name", "start", "end", "workload", "iteration"}
