"""Perf-benchmark CLI: run the trajectory benchmarks and emit ``BENCH_*.json``.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_perf.py [--quick] [--output BENCH_PR9.json]
    PYTHONPATH=src python benchmarks/perf/run_perf.py --compare BENCH_PR1.json

Two kinds of baseline are reported:

* ``in-process``: the event-loop benchmarks run the frozen seed engine
  (:mod:`benchmarks.perf.baseline_engine`), and the control-plane
  benchmarks run the naive Algorithm 1 / the frozen seed sizing path
  (:mod:`benchmarks.perf.baseline_sizing`), in the same process — so
  those speedups are measured under identical conditions on every host.
* ``recorded``: the dispatcher and end-to-end benchmarks exercise the
  whole current stack, which cannot be swapped back to the seed code at
  runtime; their baselines come from ``seed_baseline.json``, recorded on
  the PR-0 tree (machine-dependent — regenerate both files together when
  the host changes).

``--compare`` loads a prior ``BENCH_*.json`` and prints per-benchmark
deltas, so the perf trajectory across PRs is inspectable without manual
JSON diffing.

See EXPERIMENTS.md ("Performance") for the JSON schema.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
from pathlib import Path
from typing import Optional

_HERE = Path(__file__).resolve().parent
_REPO = _HERE.parents[1]
for path in (str(_REPO / "src"), str(_REPO / "benchmarks")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perf import scenarios  # noqa: E402
from perf.baseline_engine import SimulationEngine as BaselineEngine  # noqa: E402

SCHEMA_VERSION = 1


def _bench_row(name, unit, value, baseline, baseline_source, params):
    row = {
        "name": name,
        "unit": unit,
        "value": value,
        "params": params,
    }
    if baseline is not None:
        row["baseline"] = baseline
        row["baseline_source"] = baseline_source
        row["speedup"] = value / baseline if baseline else None
    return row


def _best_of(repeats: int, bench, *args, better="max", key=None, **kwargs):
    """Run ``bench`` ``repeats`` times and keep the best result.

    Benchmarks in one process disturb each other through GC pressure and
    allocator state; best-of-N is the standard way to approximate the
    undisturbed number.  ``better`` selects the direction on ``key``.
    """
    best = None
    for _ in range(repeats):
        gc.collect()
        result = bench(*args, **kwargs)
        if result is None:
            return None
        if best is None:
            best = result
        else:
            a, b = result[key], best[key]
            if (better == "max" and a > b) or (better == "min" and a < b):
                best = result
    return best


def run_all(quick: bool, repeats: Optional[int] = None) -> dict:
    """Run every benchmark and return the BENCH document."""
    n_events = 200_000 if quick else 1_000_000
    n_dispatch = 20_000 if quick else 100_000
    if repeats is None:
        repeats = 1 if quick else 3
    e2e_kwargs = (
        {"functions": 4, "rate_per_function": 50.0, "duration": 120.0}
        if quick
        else {"functions": 8, "rate_per_function": 100.0, "duration": 300.0}
    )
    seed_baseline = {}
    baseline_path = _HERE / "seed_baseline.json"
    if baseline_path.exists():
        seed_baseline = json.loads(baseline_path.read_text())

    rows = []

    live = _best_of(repeats, scenarios.bench_event_loop, n_events, key="events_per_sec")
    base = _best_of(
        repeats, scenarios.bench_event_loop, n_events,
        engine_factory=BaselineEngine, key="events_per_sec",
    )
    rows.append(
        _bench_row(
            "event_loop", "events_per_sec", live["events_per_sec"],
            base["events_per_sec"], "in-process seed engine copy",
            {"n_events": n_events},
        )
    )

    many = _best_of(repeats, scenarios.bench_schedule_many, n_events, key="events_per_sec")
    if many is not None:
        rows.append(
            _bench_row(
                "event_loop_schedule_many", "events_per_sec", many["events_per_sec"],
                base["events_per_sec"], "in-process seed engine copy",
                {"n_events": n_events},
            )
        )

    recorded_dispatch = seed_baseline.get("dispatch", {}).get("dispatches_per_sec")
    dispatch = _best_of(
        repeats, scenarios.bench_dispatch, n_dispatch, key="dispatches_per_sec",
    )
    rows.append(
        _bench_row(
            "dispatch_incremental", "dispatches_per_sec", dispatch["dispatches_per_sec"],
            None if quick else recorded_dispatch, "recorded seed_baseline.json",
            {"n_requests": n_dispatch},
        )
    )

    sizing_kwargs = (
        {"functions": 32, "epochs": 30} if quick else {"functions": 64, "epochs": 50}
    )
    sizing = _best_of(
        repeats, scenarios.bench_sizing_solver, key="solves_per_sec", **sizing_kwargs
    )
    rows.append(
        _bench_row(
            "sizing_solver_epoch_sequence", "solves_per_sec", sizing["solves_per_sec"],
            sizing["naive_solves_per_sec"],
            "in-process naive Algorithm 1 (per-epoch cold search)",
            sizing_kwargs,
        )
    )

    tick_kwargs = (
        {"functions": 24, "epochs": 8, "arrival_rate": 120.0}
        if quick
        else {"functions": 64, "epochs": 30, "arrival_rate": 240.0}
    )
    tick_live = _best_of(
        repeats, scenarios.bench_epoch_tick, key="epochs_per_sec", **tick_kwargs
    )
    tick_base = _best_of(
        repeats, scenarios.bench_epoch_tick, key="epochs_per_sec",
        baseline=True, **tick_kwargs,
    )
    rows.append(
        _bench_row(
            "controller_epoch_tick", "epochs_per_sec", tick_live["epochs_per_sec"],
            tick_base["epochs_per_sec"],
            "in-process frozen seed sizing path",
            tick_kwargs,
        )
    )

    e2e = _best_of(repeats, scenarios.bench_end_to_end, better="min", key="seconds", **e2e_kwargs)
    recorded_key = "end_to_end_quick" if quick else "end_to_end"
    recorded_e2e = seed_baseline.get(recorded_key, {}).get("seconds")
    row = _bench_row(
        "end_to_end_fig5_style", "wall_seconds", e2e["seconds"],
        None, None, e2e_kwargs,
    )
    if recorded_e2e is not None:
        row["baseline"] = recorded_e2e
        row["baseline_source"] = "recorded seed_baseline.json"
        # lower is better for wall-clock: speedup = baseline / value
        row["speedup"] = recorded_e2e / e2e["seconds"]
    row["sim_events_per_sec"] = e2e["sim_events_per_sec"]
    row["arrivals"] = e2e["arrivals"]
    rows.append(row)

    plane = _best_of(
        repeats, scenarios.bench_data_plane, better="min", key="seconds", **e2e_kwargs
    )
    plane_row = _bench_row(
        "data_plane_fig5_style", "wall_seconds", plane["seconds"],
        None, None, e2e_kwargs,
    )
    if recorded_e2e is not None:
        # same convention as end_to_end_fig5_style: wall-clock vs the
        # recorded seed end-to-end run of the identical workload — the
        # "data-plane 10x" trajectory number
        plane_row["baseline"] = recorded_e2e
        plane_row["baseline_source"] = "recorded seed_baseline.json"
        plane_row["speedup"] = recorded_e2e / plane["seconds"]
    # in-process comparison against the current event-level plane, for
    # transparency alongside the seed-relative trajectory number
    plane_row["event_plane_seconds"] = plane["event_seconds"]
    plane_row["speedup_vs_event_plane"] = plane["speedup_vs_event_plane"]
    rows.append(plane_row)

    n_records = 40_000 if quick else 200_000
    record = _best_of(
        repeats, scenarios.bench_record_path, n_records, key="records_per_sec"
    )
    rows.append(
        _bench_row(
            "request_record_path", "records_per_sec", record["records_per_sec"],
            None, None, {"n_requests": n_records},
        )
    )

    replay_kwargs = (
        {"functions": 200, "duration_minutes": 240}
        if quick
        else {"functions": 1000, "duration_minutes": 720}
    )
    replay = _best_of(
        repeats, scenarios.bench_trace_replay, key="invocations_per_sec",
        **replay_kwargs,
    )
    replay_row = _bench_row(
        "trace_replay_stream", "invocations_per_sec",
        replay["invocations_per_sec"], None, None, replay_kwargs,
    )
    replay_row["invocations"] = replay["invocations"]
    rows.append(replay_row)

    return {
        "schema_version": SCHEMA_VERSION,
        "pr": "PR9",
        "created_unix": time.time(),
        "quick": quick,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "benchmarks": rows,
    }


def _print_comparison(document: dict, compare_path: str) -> None:
    """Print per-benchmark deltas against a prior ``BENCH_*.json``.

    Rates (``*_per_sec``) improve upward, wall-clock improves downward;
    the printed ratio is always "how much better than the prior PR"
    (> 1 means this tree is faster on that benchmark).
    """
    prior = json.loads(Path(compare_path).read_text())
    prior_rows = {row["name"]: row for row in prior.get("benchmarks", [])}
    print(f"\nvs {compare_path} (pr={prior.get('pr', '?')}, quick={prior.get('quick')}):")
    for row in document["benchmarks"]:
        old = prior_rows.get(row["name"])
        if old is None:
            print(f"  {row['name']:28s} (new in this PR)")
            continue
        new_value, old_value = row["value"], old["value"]
        if row.get("params") != old.get("params"):
            # e.g. a --quick run against a committed full-size document:
            # the workloads differ, so a value ratio would be meaningless
            print(
                f"  {row['name']:28s} {old_value:>14,.1f} vs {new_value:>14,.1f} "
                f"{row['unit']}  (params differ — not comparable)"
            )
            continue
        lower_is_better = not row["unit"].endswith("_per_sec")
        ratio = (old_value / new_value) if lower_is_better else (new_value / old_value)
        direction = "lower is better" if lower_is_better else "higher is better"
        print(
            f"  {row['name']:28s} {old_value:>14,.1f} -> {new_value:>14,.1f} "
            f"{row['unit']}  ({ratio:.2f}x, {direction})"
        )
    missing = sorted(set(prior_rows) - {row["name"] for row in document["benchmarks"]})
    for name in missing:
        print(f"  {name:28s} (dropped since {prior.get('pr', '?')})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small sizes for CI (~20 s)")
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="best-of-N repetitions per benchmark (default: 3 full, 1 quick); "
        "raise on noisy hosts",
    )
    parser.add_argument(
        "--output", default=str(_REPO / "BENCH_PR9.json"),
        help="where to write the JSON document (default: repo root BENCH_PR9.json)",
    )
    parser.add_argument(
        "--compare", metavar="BENCH_JSON", default=None,
        help="prior BENCH_*.json to print per-benchmark deltas against",
    )
    args = parser.parse_args(argv)
    document = run_all(quick=args.quick, repeats=args.repeats)
    # atomic replace: an interrupted run never leaves a truncated BENCH file
    from repro.ioutil import atomic_write_text

    atomic_write_text(str(args.output), json.dumps(document, indent=2) + "\n")
    for row in document["benchmarks"]:
        speed = row.get("speedup")
        speed_text = f"  ({speed:.2f}x vs {row.get('baseline_source', '?')})" if speed else ""
        print(f"{row['name']:28s} {row['value']:>14,.1f} {row['unit']}{speed_text}")
    if args.compare:
        _print_comparison(document, args.compare)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
