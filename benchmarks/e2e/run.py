"""The repo benchmark: ``python benchmarks/e2e/run.py --seed 7``.

Runs each workload of ``BENCHMARK.json`` in its own fresh interpreter
(``drive.py``; single-threaded, ``PYTHONHASHSEED=0``), checks the outputs
and prints every metric by name with its unit.  With ``--workload`` it
runs one workload and ends with the one-line JSON result the driver
reads; without it the last line holds all four.  ``--trace`` is the
separate traced run that produces the per-layer numbers; end-to-end
metrics are never taken from it.  Host times are reported relative to
the fixed loop of ``calibration.py``, run beside everything that is
timed, because this host's speed changes from second to second.  See
README.md beside this file.

This parent stays on the standard library: a child started by ``exec``
inherits the parent's resident-set high-water mark, so a heavy parent
would put a floor under every ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
DRIVE = BENCH_DIR / "drive.py"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import calibration  # noqa: E402  (standard library only, like this file)

#: Fresh-interpreter launches the set-up median is taken over.
SETUP_PROBES = 7

#: Fewest timed iterations of a full run, however slow the host.
MIN_TIMED = 3

#: Below this many timed iterations a run is unlikely to contain an undisturbed one.
FEW_ITERATIONS = 5

#: Simulated statistics: functions of the inputs alone, so two runs of
#: one tree under one seed must agree on them exactly.
DETERMINISTIC = ("slo_attainment", "sim_served_share")

#: ``--quick``: a tenth of the size, one timed iteration, one set-up probe.
QUICK = {"scale": 0.1, "seconds": 0.0, "at_least": 1, "probes": 1}


def load_declaration() -> Dict[str, Any]:
    """``BENCHMARK.json`` — the one place metric names, units and bounds are declared."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child(mode: str, workload: str, seed: int, seconds: float, scale: float,
           at_least: int) -> Optional[Dict[str, Any]]:
    """Run ``drive.py`` once in a fresh interpreter; its last stdout line is the result."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(DRIVE), mode, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--scale", str(scale), "--at-least", str(at_least)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT), check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"{workload}: drive.py {mode} exited with code {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def measure_setup(workload: str, seed: int, scale: float, probes: int
                  ) -> Optional[Tuple[List[float], List[float]]]:
    """Spawn-to-exit seconds of ``probes`` launches that import, generate and wire.

    Returns the calibrated times and the times as the clock read them.
    A launch runs in another process, maybe on the other core, so it is
    calibrated against a spin here just before it and a spin the child
    runs itself once the runner is wired (whose time is taken back out).
    """
    calibrated, raw = [], []
    for _ in range(probes):
        before = calibration.spin()
        start = time.perf_counter()
        child = _child("probe", workload, seed, 0.0, scale, 1)
        elapsed = time.perf_counter() - start
        if child is None:
            return None
        raw.append(elapsed - child["spin_s"])
        calibrated.append(calibration.to_reference(raw[-1], (before + child["spin_s"]) / 2.0))
    return calibrated, raw


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 declaration: Dict[str, Any], scale: float = 1.0, at_least: int = MIN_TIMED,
                 probes: int = SETUP_PROBES) -> Optional[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """Measure one workload: the driver-format result, and the detail the tables print."""
    if traced:
        child = _child("trace", workload, seed, seconds, scale, 1)
        if child is None or not child["metrics"]:
            return None
        # a layer that is idle on this workload reports 0, not nothing
        values = {m["name"]: child["metrics"].get(m["name"], 0.0)
                  for m in declaration["per_layer"]}
        declared = declaration["per_layer"]
        detail: Dict[str, Any] = {"iterations": child["iterations"],
                                  "plain_wall_s": child["plain_wall_s"]}
    else:
        setup = measure_setup(workload, seed, scale, probes)
        child = _child("measure", workload, seed, seconds, scale, at_least)
        if setup is None or child is None or "wall_s" not in child:
            return None
        simulated = child["simulated"]
        values = {
            "setup_s": statistics.median(setup[0]),
            "wall_s": child["wall_s"]["median"],
            "cpu_s": child["cpu_s"]["median"],
            "sim_req_per_s": child["generated"] / child["wall_s"]["median"],
            "peak_rss_mb": child["peak_rss_mb"],
            "slo_attainment": simulated["slo_attainment"],
            "sim_served_share": simulated["sim_served_share"],
        }
        declared = declaration["end_to_end"]
        detail = {"setup_s": setup, "wall_s": child["wall_s"], "cpu_s": child["cpu_s"],
                  "raw_wall_s": child["raw_wall_s"], "spin_s": child["spin_s"],
                  "simulated": simulated, "generated": child["generated"],
                  "seconds": seconds}
    for failure in child["failures"]:
        print(f"{workload}: FAILED operation: {failure}", file=sys.stderr)
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values()):
        print(f"{workload}: a metric is not a finite number: {values}", file=sys.stderr)
        return None
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    return result, detail


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def _spread(stat: Dict[str, float]) -> str:
    """``n``, quartiles and minimum of a timing, printed beside its median."""
    return (f"(median of n={stat['n']}; q1 {stat['q1']:.4f}, q3 {stat['q3']:.4f}, "
            f"min {stat['min']:.4f})")


def print_end_to_end(workload: str, result: Dict[str, Any], detail: Dict[str, Any]) -> None:
    """One workload's end-to-end metrics by name with unit; timings carry n and quartiles."""
    print(f"\n== {workload}: {result['attempted']} operations, {result['failed']} failed, "
          f"{detail['generated']} simulated requests per iteration")
    notes = {
        "setup_s": f"(median of n={len(detail['setup_s'][0])} launches) calibrated host time",
        "wall_s": _spread(detail["wall_s"]) + " calibrated host time",
        "cpu_s": _spread(detail["cpu_s"]) + " calibrated host time, children included",
        "sim_req_per_s": "simulated requests per calibrated host second",
        "peak_rss_mb": "largest process of the tree, one iteration",
        "slo_attainment": "simulated, deterministic under the seed",
        "sim_served_share": "simulated, deterministic under the seed",
    }
    for name, metric in result["metrics"].items():
        print(f"  {name:18s} {metric['value']:14.6f} {metric['unit']:6s} {notes.get(name, '')}")
    simulated = detail["simulated"]
    wait = simulated["sim_p95_wait_ms"]
    print(f"  {'sim_p95_wait_ms':18s} "
          + (f"{wait:14.6f} ms    " if wait is not None else f"{'not defined':>14s}       ")
          + " simulated (reported, not gated: per_layer dispatch.sim_p95_wait_ms)")
    print(f"  {'sim_drop_share':18s} {simulated['sim_drop_share']:14.6f} share "
          " simulated (reported, not gated: per_layer cluster.sim_drop_share)")
    n = detail["wall_s"]["n"]
    raw, spin = detail["raw_wall_s"], detail["spin_s"]
    print(f"  as the clock read it: set-up {statistics.median(detail['setup_s'][1]):.4f} s; "
          f"wall {raw['median']:.4f} s per iteration (min {raw['min']:.4f}); "
          f"calibration reading {spin['median'] * 1e3:.2f} ms a spin "
          f"(undisturbed: {calibration.REFERENCE_S * 1e3:.2f} ms)")
    print(f"  timed portion: {n} iterations, about {n * raw['median']:.1f} s")
    if detail["seconds"] and n < FEW_ITERATIONS:  # --quick asks for one iteration
        print(f"  WARNING: only {n} timed iterations — this host is too slow for the "
              f"workload's size; the timings above are coarse")


def print_per_layer(workload: str, result: Dict[str, Any], detail: Dict[str, Any]) -> None:
    """One workload's layer table (self time, share, calls) and its boundary counts."""
    metrics = result["metrics"]
    print(f"\n== {workload} (traced): {result['attempted']} operations, "
          f"{result['failed']} failed; iterations {detail['iterations']}, "
          f"untraced wall {detail['plain_wall_s']:.3f} s")
    layers = sorted({name.split(".")[0] for name in metrics if name.endswith(".self_s")},
                    key=lambda layer: -metrics[f"{layer}.self_s"]["value"])
    print(f"  {'layer':12s} {'self_s':>10s} {'share':>8s} {'calls':>12s}")
    for layer in layers:
        print(f"  {layer:12s} {metrics[f'{layer}.self_s']['value']:10.4f} "
              f"{metrics[f'{layer}.self_share']['value']:8.3f} "
              f"{metrics[f'{layer}.calls']['value']:12.0f}")
    for name, metric in metrics.items():
        if not name.endswith((".self_s", ".self_share", ".calls")):
            print(f"  {name:32s} {metric['value']:16.6f} {metric['unit']}")


def run_suite(names: List[str], seed: int, seconds: float, traced: bool,
              declaration: Dict[str, Any], **size: Any
              ) -> Optional[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """The named workloads in turn, each in its own interpreter; prints as it goes."""
    suite: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    details: Dict[str, Any] = {}
    for workload in names:
        measured = run_workload(workload, seed, seconds, traced, declaration, **size)
        if measured is None:
            return None
        result, details[workload] = measured
        (print_per_layer if traced else print_end_to_end)(workload, result, details[workload])
        suite["attempted"] += result["attempted"]
        suite["failed"] += result["failed"]
        suite["correct"] = suite["correct"] and result["correct"]
        suite["workloads"][workload] = result
    return suite, details


def selfcheck(names: List[str], seed: int, seconds: float, declaration: Dict[str, Any]) -> int:
    """Two back-to-back sets on one tree must agree within the benchmark's own bounds."""
    sets = []
    for label in ("A", "B"):
        print(f"\n######## set {label}")
        measured = run_suite(names, seed, seconds, False, declaration)
        if measured is None or not measured[0]["correct"]:
            return 1
        sets.append(measured)
    (suite_a, details_a), (suite_b, details_b) = sets
    bounds = {m["name"]: m["bound"] for m in declaration["end_to_end"]}
    print(f"\n{'workload':16s} {'metric':18s} {'A':>14s} {'B':>14s} {'differ':>8s} {'bound':>6s}")
    bad = 0
    for workload, a in suite_a["workloads"].items():
        b = suite_b["workloads"][workload]
        for name, bound in bounds.items():
            x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
            if name in DETERMINISTIC:
                ok, differ = x == y, "exact" if x == y else "DIFFERS"
            else:
                relative = abs(x - y) / min(x, y)
                ok, differ = relative <= bound, f"{relative:8.2%}"
            bad += not ok
            print(f"{workload:16s} {name:18s} {x:14.6f} {y:14.6f} {differ:>8s} {bound:6.2f}"
                  + ("" if ok else "  <-- outside"))
        for name in ("sim_p95_wait_ms", "sim_drop_share"):
            x, y = details_a[workload]["simulated"][name], details_b[workload]["simulated"][name]
            bad += x != y
            print(f"{workload:16s} {name:18s} {x!s:>14.14s} {y!s:>14.14s} "
                  f"{'exact' if x == y else 'DIFFERS':>8s}")
    print(f"\nselfcheck: {'PASS' if not bad else f'FAIL ({bad} outside)'}")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse the command line, run, print the tables and the final JSON line."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload of BENCHMARK.json (default: all)")
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced run (per-layer metrics) instead of the timed one")
    parser.add_argument("--quick", action="store_true",
                        help="one iteration at a tenth of the size: checks the schema, "
                             "its numbers mean nothing")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run everything twice and require agreement within the bounds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    declaration = load_declaration()
    names = [w["name"] for w in declaration["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; valid: {', '.join(names)}")
    seconds = float(declaration["run_seconds"]) if args.seconds is None else args.seconds
    size = dict(QUICK) if args.quick else {}
    if args.quick:
        seconds = size.pop("seconds")

    if args.selfcheck:
        return selfcheck(names, args.seed, seconds, declaration)
    measured = run_suite([args.workload] if args.workload else names, args.seed, seconds,
                         bool(args.trace), declaration, **size)
    if measured is None:
        return 1
    suite = measured[0]
    if args.workload:
        # the driver's form: it reads `correct` itself, so the exit code
        # only says whether a result was produced
        print(json.dumps(suite["workloads"][args.workload]))
        return 0
    print(json.dumps(suite))
    return 0 if suite["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
