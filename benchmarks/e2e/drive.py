"""The measuring child: builds the program from generated inputs and times it.

``run.py`` starts this file in a fresh interpreter once per workload
(and once per set-up probe), so no workload sees another's caches,
garbage or import state.  One **operation** is one iteration: build the
runner, run it, extract and serialise the summary — wiring and result
extraction are inside the number.  Only public entry points are driven
(``SimulationRunner``, ``ResilientSweepRunner``, ``merge_trace_shards``).

Modes (first argument): ``probe`` constructs the runner and exits (the
parent times the whole launch as set-up), ``measure`` runs the untraced
timed iterations, ``trace`` runs the span and profile iterations.  Each
prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import cProfile
import gc
import hashlib
import json
import os
import pickle
import pstats
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
OUT_DIR = BENCH_DIR / "out"
for _path in (str(ROOT / "src"), str(BENCH_DIR)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import calibration  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_NAMES, Tracer, layer_table  # noqa: E402

#: Least share of ``burst_control``'s profile that controller + solver +
#: allocation + estimation must hold (measured: 52 %).
CONTROL_FLOOR = 0.4

Span = Callable[[str], ContextManager[Any]]


def _no_span(_name: str) -> ContextManager[Any]:
    """The untraced stand-in for :meth:`Tracer.span`."""
    return contextlib.nullcontext()


@dataclass
class Operation:
    """One finished iteration: its host cost and its simulated statistics."""

    wall_s: float
    cpu_s: float
    stats: Dict[str, Any]
    digest: str
    handles: Dict[str, Any]
    #: Mean of the calibration readings taken just before and just after (timed loop only).
    spin_s: float = 0.0


def _cpu_seconds() -> float:
    """User+system CPU of this process and of every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


# ----------------------------------------------------------------------
# Building and running the program
# ----------------------------------------------------------------------
def build_simulation(inputs: Dict[str, Any]) -> Tuple[Any, Dict[str, float]]:
    """A wired ``SimulationRunner`` for ``inputs`` plus the per-function deadlines."""
    from repro.cluster.cluster import ClusterConfig
    from repro.core.controller import ControllerConfig
    from repro.simulation import SimulationRunner
    from repro.workloads.functions import get_function, microbenchmark
    from repro.workloads.generator import WorkloadBinding
    from repro.workloads.schedules import StaticRate, StepSchedule

    duration = inputs["duration"]
    bindings = []
    for fn in inputs["functions"]:
        if fn["profile"] == "microbenchmark" and fn["service_time"] is not None:
            profile = microbenchmark(fn["service_time"])
        else:
            profile = get_function(fn["profile"])
        steps = [(t, rate) for t, rate in fn["steps"]]
        schedule = (StaticRate(steps[0][1], duration=duration) if len(steps) == 1
                    else StepSchedule(steps, duration=duration))
        bindings.append(WorkloadBinding(
            profile=replace(profile, name=fn["name"]),
            schedule=schedule,
            slo_deadline=fn["slo_deadline"],
        ))
    runner = SimulationRunner(
        workloads=bindings,
        cluster_config=ClusterConfig(**inputs["cluster"]),
        controller_config=ControllerConfig(epoch_length=inputs["epoch_length"]),
        seed=inputs["seed"],
        warm_start_containers={b.profile.name: inputs["warm_start"] for b in bindings}
        if inputs["warm_start"] else None,
        data_plane=inputs["data_plane"],
    )
    return runner, {b.profile.name: b.slo_deadline for b in bindings}


def build_sweep(inputs: Dict[str, Any], journal: str) -> Tuple[Any, Any]:
    """The sharded replay sweep of ``inputs`` and its journaled resilient runner."""
    from repro.scenarios import build
    from repro.scenarios.executor import ResilientSweepRunner

    sweep = build(
        inputs["scenario"],
        functions=inputs["functions"],
        duration_minutes=inputs["duration_minutes"],
        shards=inputs["shards"],
        trace_seed=inputs["trace_seed"],
        population_seed=inputs["population_seed"],
    )
    return sweep, ResilientSweepRunner(sweep, workers=inputs["workers"], journal=journal)


def _simulate(inputs: Dict[str, Any], _span: Span) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Build → run → extract for a ``SimulationRunner`` workload."""
    from repro.metrics.slo import overall_attainment
    from repro.sim.request import RequestStatus

    runner, deadlines = build_simulation(inputs)
    result = runner.run(duration=inputs["duration"])

    warmup = inputs["warmup"]
    summary = result.metrics.summary(deadlines)
    waiting = result.waiting_summary(warmup=warmup)
    attainment = overall_attainment(result.slo(deadlines, warmup=warmup))
    status = collections.Counter(r.status for r in result.metrics.requests)
    counters = result.metrics.counters
    generated = sum(result.generated_requests.values())
    failed = status[RequestStatus.TIMED_OUT]
    in_flight = (status[RequestStatus.PENDING] + status[RequestStatus.QUEUED]
                 + status[RequestStatus.RUNNING])
    # every generated request is accounted for exactly once, and the
    # collector's counters agree with the request records
    accounted = counters["completions"] + counters["drops"] + failed + in_flight
    if not (generated == accounted == sum(status.values()) == counters["arrivals"]
            and counters["completions"] == status[RequestStatus.COMPLETED]):
        raise RuntimeError(
            f"conservation broken: generated={generated} accounted={accounted} "
            f"records={sum(status.values())} counters={dict(counters)}"
        )
    stats = {
        "generated": generated,
        "completions": counters["completions"],
        "drops": counters["drops"],
        "failed": failed,
        "in_flight": in_flight,
        "slo_attainment": attainment,
        "sim_served_share": 1.0 - (counters["drops"] + failed) / generated,
        "sim_drop_share": (counters["drops"] + failed) / generated,
        "sim_p95_wait_ms": waiting.p95 * 1e3,
        "summary": summary,
        "waiting": waiting.as_dict(),
    }
    return stats, {"runner": runner, "result": result}


def _replay(inputs: Dict[str, Any], span: Span) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Build → run → merge for the sharded replay sweep (journal in a fresh temp dir)."""
    from repro.scenarios.trace_shard import merge_trace_shards

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="journal-") as tmp:
        journal = os.path.join(tmp, "journal.jsonl")
        sweep, runner = build_sweep(inputs, journal)
        envelope = runner.run()
        if envelope.get("incomplete"):
            raise RuntimeError("sweep envelope is incomplete")
        with span("executor.merge"):
            merged = merge_trace_shards(envelope)
        journal_text = Path(journal).read_text()
    stats = {
        "generated": merged["totals"]["invocations"],
        # a model output: the share of function-minutes whose sized
        # allocation could serve the minute's invocations
        "slo_attainment": 1.0 - merged["rates"]["overload_fraction"],
        "sim_served_share": 1.0,   # the replay model queues and drops nothing
        "sim_drop_share": 0.0,
        "sim_p95_wait_ms": None,   # no request is simulated, so no wait exists
        "merged": merged,
    }
    return stats, {"sweep": sweep, "envelope": envelope, "journal": journal_text}


_KINDS = {"simulate": _simulate, "replay": _replay}


def run_operation(inputs: Dict[str, Any], tracer: Optional[Tracer] = None,
                  profiler: Optional[cProfile.Profile] = None) -> Operation:
    """One timed iteration: collect garbage, then build → run → extract → serialise.

    ``tracer`` records the iteration's root span (its wrappers are the
    caller's to install); ``profiler`` is switched on for exactly the
    timed region.
    """
    span: Span = _no_span
    if tracer is not None:
        tracer.iteration += 1
        span = tracer.span
    gc.collect()
    if profiler is not None:
        profiler.enable()
    try:
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        with span("iteration"):
            stats, handles = _KINDS[inputs["kind"]](inputs, span)
            text = json.dumps(stats, sort_keys=True)
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu0
    finally:
        if profiler is not None:
            profiler.disable()
    return Operation(wall, cpu, stats, hashlib.sha256(text.encode()).hexdigest(), handles)


# ----------------------------------------------------------------------
# Operations and failures
# ----------------------------------------------------------------------
class Tally:
    """Counts operations and failures; an iteration that raises is a failure, not a crash."""

    def __init__(self) -> None:
        """Start with nothing attempted."""
        self.attempted = 0
        self.failures: List[str] = []
        self.reference: Optional[Operation] = None

    def run(self, inputs: Dict[str, Any], tracer: Optional[Tracer] = None,
            profiler: Optional[cProfile.Profile] = None) -> Optional[Operation]:
        """Run one operation; check determinism against the first one that succeeded."""
        self.attempted += 1
        try:
            operation = run_operation(inputs, tracer, profiler)
        except Exception:  # noqa: BLE001 - the benchmark must report, not die
            traceback.print_exc()
            self.failures.append(traceback.format_exc(limit=1).strip().splitlines()[-1])
            return None
        if self.reference is None:
            self.reference = replace(operation, handles={})
        elif operation.digest != self.reference.digest:
            self.failures.append("summary digest differs from the warm-up iteration's")
            return None
        return operation

    def cross_check(self, inputs: Dict[str, Any]) -> None:
        """The two steady workloads must agree on every simulated statistic."""
        if self.reference is None or not inputs["workload"].startswith("steady_"):
            return
        other = "columnar" if inputs["data_plane"] == "event" else "event"
        failures = len(self.failures)
        self.run(dict(inputs, data_plane=other))
        if len(self.failures) > failures:
            self.failures[-1] = f"{other} plane on the same inputs: {self.failures[-1]}"


def _timing(values: List[float]) -> Dict[str, float]:
    """Median (the reported figure), minimum, quartiles and count of a list of timings."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"min": min(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "n": len(values)}


def _timed_loop(tally: Tally, inputs: Dict[str, Any], seconds: float, at_least: int,
                tracer: Optional[Tracer] = None,
                profiler: Optional[cProfile.Profile] = None,
                read: Callable[[], float] = calibration.reading) -> List[Operation]:
    """Run operations until ``seconds`` have gone by (and ``at_least`` ran).

    A calibration reading (``read``) is taken before the first operation
    and after each, so every operation sits between two readings of how
    fast the host is running the interpreter at that moment.
    """
    done: List[Operation] = []
    attempts = 0
    started = time.perf_counter()
    before = read()
    while ((time.perf_counter() - started < seconds or len(done) < at_least)
           and attempts < 10_000):
        attempts += 1
        if done:
            # only the last iteration's live objects are ever read; a
            # kept runner would sit in memory under every later iteration
            done[-1].handles = {}
        operation = tally.run(inputs, tracer, profiler)
        after = read()
        if operation is not None:
            operation.spin_s = (before + after) / 2.0
            done.append(operation)
        elif len(tally.failures) >= 3:
            break  # broken, not flaky: stop burning the time budget
        before = after
    return done


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def probe(inputs: Dict[str, Any]) -> Dict[str, Any]:
    """Set-up only: the inputs exist (generated and validated) and the runner is constructed."""
    if inputs["kind"] == "simulate":
        build_simulation(inputs)
    else:
        build_sweep(inputs, str(OUT_DIR / "unused-journal.jsonl"))
    # the parent calibrates the launch against this: a spin in the
    # process, and on the core, that just did the setting up
    return {"ready": True, "spin_s": calibration.spin()}


def measure(inputs: Dict[str, Any], seconds: float, at_least: int) -> Dict[str, Any]:
    """One untimed warm-up iteration, then timed iterations for ``seconds``."""
    tally = Tally()
    tally.run(inputs)  # warm-up: fills caches and lazy imports, fixes the reference digest
    # the high-water mark of one whole build -> run -> extract in a fresh
    # process is what a user's run costs, and it does not depend on how
    # many iterations the host has time for
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    timed: List[Operation] = []
    if tally.reference:
        # the replay sweep's workers run on two cores, so it is read on two
        with calibration.Readings(inputs.get("workers", 1)) as read:
            timed = _timed_loop(tally, inputs, seconds, at_least, read=read)
    tally.cross_check(inputs)
    result: Dict[str, Any] = {
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "failures": tally.failures,
        "peak_rss_mb": max(rss_self, rss_children) / 1024.0,
    }
    if timed:
        stats = tally.reference.stats
        result.update(
            # host time in undisturbed-host seconds: each iteration over the
            # calibration readings either side of it (see calibration.py)
            wall_s=_timing([calibration.to_reference(op.wall_s, op.spin_s) for op in timed]),
            cpu_s=_timing([calibration.to_reference(op.cpu_s, op.spin_s) for op in timed]),
            raw_wall_s=_timing([op.wall_s for op in timed]),
            spin_s=_timing([op.spin_s for op in timed]),
            generated=stats["generated"],
            simulated={key: stats[key] for key in
                       ("slo_attainment", "sim_served_share", "sim_drop_share", "sim_p95_wait_ms")},
            digest=tally.reference.digest,
        )
    return result


def _percentile(values: List[float], p: float) -> float:
    """``repro.metrics.percentiles.percentile``, or 0 when the layer recorded nothing."""
    from repro.metrics.percentiles import percentile

    return percentile(values, p) if values else 0.0


def _layer_counts(inputs: Dict[str, Any], operation: Operation,
                  tracer: Tracer) -> Dict[str, float]:
    """Counts read at layer boundaries from the last span iteration's public state."""
    counts: Dict[str, float] = {}
    iteration = tracer.iteration
    handles = operation.handles
    stats = operation.stats
    counts["arrivals.generated"] = stats["generated"]
    counts["arrivals.synth_ms"] = sum(tracer.durations_ms("arrivals.synth", iteration))
    counts["simulation.wire_ms"] = sum(tracer.durations_ms("simulation.wire", iteration))
    counts["simulation.prewarm_ms"] = sum(tracer.durations_ms("simulation.prewarm", iteration))
    counts["metrics.summary_ms"] = sum(tracer.durations_ms("metrics.summary", iteration))
    counts["controller.epochs"] = len(tracer.durations_ms("controller.epoch", iteration))
    counts["dispatch.sim_p95_wait_ms"] = stats["sim_p95_wait_ms"] or 0.0
    counts["cluster.sim_drop_share"] = stats["sim_drop_share"]
    if inputs["kind"] == "simulate":
        runner, result = handles["runner"], handles["result"]
        counters = result.metrics.counters
        events = runner.engine.events_processed
        counts["engine.events"] = events
        counts["engine.events_per_req"] = events / stats["generated"]
        # on the columnar plane the engine only ever executes boundary
        # events (control ticks, warm-ups); requests never reach it
        counts["columnar.boundary_events"] = events if inputs["data_plane"] == "columnar" else 0
        completed = result.metrics.completed_requests()
        queued = sum(1 for r in completed if r.start_time > r.arrival_time)
        counts["dispatch.queued_share"] = queued / len(completed) if completed else 0.0
        for key in ("creations", "terminations", "deflations", "cold_starts"):
            counts[f"cluster.{key}"] = counters.get(key, 0)
        solver = runner.policy.solver.stats
        counts["solver.batches"] = solver.batches
        counts["solver.queries"] = solver.solves
        counts["solver.prob_evals"] = solver.probability_evaluations
        if solver.solves:
            counts["solver.memo_hit_ratio"] = solver.cache_hits / solver.solves
            counts["solver.warm_hit_ratio"] = solver.warm_hits / solver.solves
    else:
        records = [json.loads(line) for line in handles["journal"].splitlines()]
        shards = handles["sweep"].expand()
        started = sum(1 for r in records if r["event"] == "started")
        counts["executor.shards"] = len(shards)
        counts["executor.attempts"] = started
        counts["executor.retries"] = started - len(shards)
        counts["executor.journal_appends"] = len(records)
        counts["executor.journal_ms"] = sum(tracer.durations_ms("executor.journal_append", iteration))
        counts["executor.merge_ms"] = sum(tracer.durations_ms("executor.merge", iteration))
        # under fork a spec reaches its worker unpickled; this is what a
        # spawn context would send.  Results always cross the pipe pickled.
        counts["executor.spec_pickle_bytes"] = sum(len(pickle.dumps(s.to_dict())) for s in shards)
        counts["executor.result_pickle_bytes"] = sum(
            len(pickle.dumps(r)) for r in handles["envelope"]["results"])
        counts["replay.invocations"] = stats["generated"]
    return counts


def trace(inputs: Dict[str, Any], seconds: float) -> Dict[str, Any]:
    """The traced run: a plain iteration, then span iterations, then profiled iterations.

    The plain iteration gives the untraced wall-clock the overhead ratio
    is taken against; spans get a quarter of ``seconds`` and the profile,
    which runs two to four times slower, half of it.  Span and profiled
    iterations of the replay sweep run their shards serially in this
    process (``workers=1`` produces a byte-identical envelope), because
    neither instrument can see into a worker process.
    """
    workload = inputs["workload"]
    in_process = dict(inputs, workers=1) if inputs["kind"] == "replay" else inputs
    tally = Tally()
    tally.run(inputs)
    plain = _timed_loop(tally, inputs, 0.0, 1) if tally.reference else []

    tracer = Tracer(workload)
    spanned: List[Operation] = []
    if plain:
        tracer.install()
        try:
            spanned = _timed_loop(tally, in_process, seconds / 4, 1, tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT_DIR / f"trace_{workload}.json")

    profiler = cProfile.Profile()
    profiled = _timed_loop(tally, in_process, seconds / 2, 1, profiler=profiler) if spanned else []
    result: Dict[str, Any] = {"metrics": {}}
    if profiled:
        plain_wall = plain[0].wall_s
        metrics = _layer_counts(in_process, spanned[-1], tracer)
        epochs = tracer.durations_ms("controller.epoch")
        metrics["controller.epoch_ms_p50"] = _percentile(epochs, 0.50)
        metrics["controller.epoch_ms_p95"] = _percentile(epochs, 0.95)
        metrics["solver.batch_ms_p50"] = _percentile(tracer.durations_ms("solver.batch"), 0.50)
        metrics["replay.shard_ms_p50"] = _percentile(tracer.durations_ms("replay.shard"), 0.50)
        if inputs["kind"] == "replay":
            serial_s = sum(tracer.durations_ms("replay.shard", tracer.iteration)) / 1e3
            metrics["executor.overhead_share"] = 1.0 - serial_s / (inputs["workers"] * plain_wall)

        table = layer_table(pstats.Stats(profiler).stats, BENCH_DIR)
        total_self = sum(row["self_s"] for row in table.values())
        for layer in LAYER_NAMES:
            metrics[f"{layer}.self_s"] = table[layer]["self_s"] / len(profiled)
            metrics[f"{layer}.self_share"] = table[layer]["self_s"] / total_self
            metrics[f"{layer}.calls"] = table[layer]["calls"] / len(profiled)
        metrics["trace.overhead_ratio"] = (
            statistics.median(op.wall_s for op in profiled) / plain_wall)
        metrics["trace.coverage"] = total_self / sum(op.wall_s for op in profiled)

        control = sum(metrics[f"{layer}.self_share"] for layer in
                      ("controller", "solver", "allocation", "estimation"))
        if workload == "burst_control" and control < CONTROL_FLOOR:
            tally.failures.append(
                f"burst_control spends {control:.0%} of traced self time in the control "
                f"plane (< {CONTROL_FLOOR:.0%}): it no longer stresses the layers it was chosen for")
        result = {
            "metrics": metrics,
            "iterations": {"plain": len(plain), "spans": len(spanned), "profile": len(profiled)},
            "plain_wall_s": plain_wall,
        }
    result.update(attempted=tally.attempted, failed=len(tally.failures), failures=tally.failures)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    """Run one mode for one workload and print its JSON result as the last line."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("probe", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--at-least", type=int, required=True)
    args = parser.parse_args(argv)

    import repro

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        print(f"repro was imported from {repro.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    inputs = workloads.generate(args.workload, args.seed, args.scale)
    if args.mode == "probe":
        result = probe(inputs)
    elif args.mode == "measure":
        result = measure(inputs, args.seconds, args.at_least)
    else:
        result = trace(inputs, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
