"""Benchmark scenario definitions.

Each scenario is a plain function that builds its workload through the
public API only (``SimulationEngine``, ``SharedQueueDispatcher``,
``SimulationRunner``), so the same scenario code can time the seed
implementation and every later fast path.  Scenarios return a dict of
measurements; the harness in :mod:`benchmarks.perf.run_perf` wraps them
with repetition and JSON output.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, Optional

# allow running as a plain script: src/ for the library, benchmarks/ for
# the sibling baseline modules deferred into function bodies
for _path in (Path(__file__).resolve().parents[2] / "src",
              Path(__file__).resolve().parents[1]):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro.cluster.container import Container  # noqa: E402
from repro.core.dispatch import SharedQueueDispatcher  # noqa: E402
from repro.sim.engine import SimulationEngine  # noqa: E402
from repro.sim.request import Request  # noqa: E402
from repro.simulation import SimulationRunner  # noqa: E402
from repro.workloads.functions import microbenchmark  # noqa: E402
from repro.workloads.generator import WorkloadBinding  # noqa: E402
from repro.workloads.schedules import StaticRate  # noqa: E402


def bench_event_loop(
    n_events: int = 1_000_000,
    engine_factory: Callable[[], object] = SimulationEngine,
) -> Dict[str, float]:
    """Pure schedule + fire of ``n_events`` trivial events.

    Half the events are pre-scheduled up front; the other half form a
    self-rescheduling chain, which is the pattern the simulator actually
    produces (completions scheduling the next completion).
    """
    engine = engine_factory()
    # Measure each engine's best fire-and-forget scheduling path: the seed
    # engine only has schedule(); the fast engine adds args-only call_later.
    sched = getattr(engine, "call_later", None) or engine.schedule
    fired = [0]

    def tick() -> None:
        fired[0] += 1

    half = n_events // 2
    start = time.perf_counter()
    for i in range(half):
        sched(float(i % 997) + 1.0, tick)

    remaining = [n_events - half]

    def chain() -> None:
        fired[0] += 1
        remaining[0] -= 1
        if remaining[0] > 0:
            sched(0.5, chain)

    engine.schedule(0.25, chain)
    engine.run()
    elapsed = time.perf_counter() - start
    assert fired[0] == n_events, (fired[0], n_events)
    return {"events": float(n_events), "seconds": elapsed, "events_per_sec": n_events / elapsed}


def bench_schedule_many(
    n_events: int = 1_000_000,
    engine_factory: Callable[[], object] = SimulationEngine,
) -> Optional[Dict[str, float]]:
    """Batch-scheduling throughput via ``schedule_many`` (fast engines only).

    Returns ``None`` when the engine does not expose ``schedule_many``
    (the seed engine), so the harness can skip the row.
    """
    engine = engine_factory()
    if not hasattr(engine, "schedule_many"):
        return None
    fired = [0]

    def tick(t: float) -> None:
        fired[0] += 1

    start = time.perf_counter()
    batch = 4096
    scheduled = 0
    base = 1.0
    while scheduled < n_events:
        count = min(batch, n_events - scheduled)
        engine.schedule_many((base + i * 1e-6, tick, (base + i * 1e-6,)) for i in range(count))
        scheduled += count
        base += 1.0
        engine.run(until=base - 0.5)
    engine.run()
    elapsed = time.perf_counter() - start
    assert fired[0] == n_events, (fired[0], n_events)
    return {"events": float(n_events), "seconds": elapsed, "events_per_sec": n_events / elapsed}


def bench_dispatch(n_requests: int = 100_000, n_containers: int = 16) -> Dict[str, float]:
    """Dispatcher throughput: submit/complete cycles over warm containers.

    Requests are injected faster than the containers can serve them, so
    the shared queue is continuously exercised (submit, queue, drain on
    completion) — the controller data path minus rate estimation.
    """
    engine = SimulationEngine()
    dispatcher = SharedQueueDispatcher(engine)
    containers = []
    for _ in range(n_containers):
        c = Container("fn", "node-0", standard_cpu=1.0, memory_mb=128.0)
        c.mark_warm(0.0)
        dispatcher.watch_container(c)
        containers.append(c)

    service = 1e-4
    gap = service / (n_containers * 2)  # 2x overload: the queue stays busy

    def inject(i: int) -> None:
        dispatcher.submit(Request(function_name="fn", arrival_time=engine.now, work=service))

    start = time.perf_counter()
    for i in range(n_requests):
        engine.schedule_at(1.0 + i * gap, inject, i)
    engine.run()
    elapsed = time.perf_counter() - start
    done = sum(c.completed_requests for c in containers)
    assert done == n_requests, (done, n_requests)
    return {
        "requests": float(n_requests),
        "seconds": elapsed,
        "dispatches_per_sec": n_requests / elapsed,
    }


def bench_end_to_end(
    functions: int = 4,
    rate_per_function: float = 50.0,
    duration: float = 300.0,
    seed: int = 7,
    data_plane: str = "event",
) -> Dict[str, float]:
    """A Figure 5-style scalability run through the full stack.

    Several identical functions under sustained Poisson load on a larger
    cluster: arrivals, rate estimation, autoscaling, dispatch, execution
    and metrics all on the hot path.  Wall-clock seconds and simulated
    events/sec are the headline numbers.  ``data_plane`` selects the
    request lifecycle implementation (``"event"`` or ``"columnar"``).
    """
    bindings = []
    for i in range(functions):
        profile = replace(microbenchmark(0.05), name=f"bench-fn-{i}")
        bindings.append(
            WorkloadBinding(
                profile=profile,
                schedule=StaticRate(rate_per_function, duration=duration),
                slo_deadline=0.1,
            )
        )
    from repro.cluster.cluster import ClusterConfig

    runner = SimulationRunner(
        workloads=bindings,
        cluster_config=ClusterConfig(node_count=8, cpu_per_node=8.0),
        seed=seed,
        warm_start_containers={b.profile.name: 2 for b in bindings},
        data_plane=data_plane,
    )
    start = time.perf_counter()
    result = runner.run(duration=duration)
    elapsed = time.perf_counter() - start
    arrivals = sum(result.generated_requests.values())
    completions = result.metrics.counters.get("completions", 0)
    return {
        "seconds": elapsed,
        "arrivals": float(arrivals),
        "completions": float(completions),
        "sim_events": float(runner.engine.events_processed),
        "sim_events_per_sec": runner.engine.events_processed / elapsed,
        "p95_wait": result.waiting_summary(warmup=30.0).p95,
    }


def bench_data_plane(
    functions: int = 8,
    rate_per_function: float = 100.0,
    duration: float = 300.0,
    seed: int = 7,
) -> Dict[str, float]:
    """Columnar vs event-level data plane on the fig5-style workload.

    Runs the identical workload through both request-lifecycle
    implementations in the same process (resetting the request-id
    counter in between so both planes see the same id stream) and
    reports both wall-clocks plus the in-process ratio.  The recorded
    seed end-to-end baseline provides the third reference point in
    ``run_perf`` (the "data-plane 10x" trajectory number).
    """
    import repro.sim.request as request_module
    import itertools

    timings = {}
    completions = {}
    for plane in ("event", "columnar"):
        request_module._request_counter = itertools.count(0)
        sample = bench_end_to_end(
            functions=functions,
            rate_per_function=rate_per_function,
            duration=duration,
            seed=seed,
            data_plane=plane,
        )
        timings[plane] = sample["seconds"]
        completions[plane] = sample["completions"]
    # both planes must have simulated the same workload, or the ratio
    # is meaningless (the differential suite checks full byte-equality)
    assert completions["event"] == completions["columnar"], completions
    return {
        "seconds": timings["columnar"],
        "event_seconds": timings["event"],
        "completions": completions["columnar"],
        "speedup_vs_event_plane": timings["event"] / timings["columnar"],
    }


def bench_record_path(n_requests: int = 200_000) -> Dict[str, float]:
    """Per-request record path: allocate, transition and collect requests.

    Guards the ``Request`` slots layout: before ``slots=True`` every
    request carried a redundant per-instance ``__dict__`` allocation in
    the hottest loop of the simulator.  The assertion fails if the class
    ever regresses to dict-backed instances, and the rate makes the
    regression visible in the BENCH trajectory even if the assert were
    removed.
    """
    from repro.metrics.collector import MetricsCollector

    probe = Request(function_name="probe", arrival_time=0.0, work=0.01)
    assert not hasattr(probe, "__dict__"), (
        "Request grew a per-instance __dict__ back; keep slots=True"
    )
    collector = MetricsCollector()
    start = time.perf_counter()
    for i in range(n_requests):
        request = Request(function_name="fn", arrival_time=i * 1e-4, work=0.01)
        request.mark_running(request.arrival_time, "c-0", "node-0", cold_start=False)
        request.mark_completed(request.arrival_time + 0.01)
        collector.record_request(request)
    elapsed = time.perf_counter() - start
    return {
        "requests": float(n_requests),
        "seconds": elapsed,
        "records_per_sec": n_requests / elapsed,
    }


def bench_trace_replay(
    functions: int = 1000, duration_minutes: int = 720,
    chunk_minutes: int = 360, sketch_size: int = 4096,
) -> Dict[str, float]:
    """Sustained streaming-replay throughput of one ``trace_replay`` shard.

    Runs a single-shard slice of the ``fig9-at-scale`` population
    through the constant-memory kernel (chunked synthesis → counters →
    reservoir sketch) and reports invocations/sec — the BENCH number the
    "planet-scale replay" claim is tracked by.
    """
    from repro.scenarios import build
    from repro.scenarios.trace_shard import run_trace_replay

    sweep = build(
        "fig9-at-scale", functions=functions,
        duration_minutes=duration_minutes, shards=1,
        chunk_minutes=chunk_minutes, sketch_size=sketch_size,
    )
    spec = next(iter(sweep.expand()))
    start = time.perf_counter()
    outcome = run_trace_replay(spec)
    elapsed = time.perf_counter() - start
    invocations = outcome.data["replay"]["invocations"]
    return {
        "invocations": float(invocations),
        "seconds": elapsed,
        "invocations_per_sec": invocations / elapsed,
    }


def _drifting_rate(function_index: int, epoch: int) -> float:
    """Deterministic slowly-drifting per-function arrival rate.

    A per-function base rate modulated by a slow sinusoid (period 25
    epochs, ±12 %), quantised to 2 decimals so sweep-style revisits of
    the same operating point actually repeat — the pattern real control
    loops and parameter sweeps produce.
    """
    base = 60.0 + 17.0 * function_index
    phase = 2.0 * math.pi * (epoch % 25) / 25.0 + 0.7 * function_index
    return max(0.1, round(base * (1.0 + 0.12 * math.sin(phase)), 2))


def bench_sizing_solver(
    functions: int = 64, epochs: int = 50, mu: float = 10.0,
    wait_budget: float = 0.1, percentile: float = 0.95,
) -> Dict[str, float]:
    """Warm-started epoch-sequence sizing vs the naive per-epoch search.

    Replays ``epochs`` control epochs over ``functions`` functions whose
    arrival rates drift slowly (the controller's real workload shape).
    The baseline re-runs the deliberately naive Algorithm 1
    (pure-Python, term-by-term — the paper's "Scala path") from scratch
    for every function every epoch; the live path sizes each epoch with
    one batched, memoized, warm-started ``SizingSolver`` call.  Both
    must return identical container counts — the assertion at the end
    is part of the benchmark's contract.
    """
    from repro.core.queueing.sizing import required_containers_naive  # noqa: E402
    from repro.core.queueing.solver import SizingQuery, SizingSolver  # noqa: E402

    grid = [
        [_drifting_rate(i, e) for i in range(functions)]
        for e in range(epochs)
    ]

    start = time.perf_counter()
    naive_counts = [
        [
            required_containers_naive(lam, mu, wait_budget, percentile).containers
            for lam in row
        ]
        for row in grid
    ]
    naive_seconds = time.perf_counter() - start

    solver = SizingSolver()
    start = time.perf_counter()
    solver_counts = []
    for row in grid:
        queries = [
            SizingQuery(lam=lam, mu=mu, wait_budget=wait_budget,
                        percentile=percentile, key=i)
            for i, lam in enumerate(row)
        ]
        solver_counts.append([r.containers for r in solver.solve_batch(queries)])
    solver_seconds = time.perf_counter() - start

    assert solver_counts == naive_counts, "solver diverged from the naive oracle"
    solves = float(functions * epochs)
    return {
        "solves": solves,
        "naive_seconds": naive_seconds,
        "solver_seconds": solver_seconds,
        "solves_per_sec": solves / solver_seconds,
        "naive_solves_per_sec": solves / naive_seconds,
        "speedup": naive_seconds / solver_seconds,
    }


def bench_epoch_tick(
    functions: int = 64, epochs: int = 30, arrival_rate: float = 240.0,
    baseline: bool = False,
) -> Dict[str, float]:
    """Controller epoch-tick throughput with the control plane saturated.

    Builds a real controller over a large cluster, feeds each function a
    burst-window arrival history (so the rate estimators report a high
    per-function λ), runs one untimed warm-up epoch (which creates the
    steady-state container fleet), then times ``epochs`` full
    ``run_epoch`` calls: rate estimation → EWMA → batched model solves →
    scaling plan → metrics snapshot.  ``baseline=True`` injects the
    frozen seed sizing path (per-function, per-epoch cold searches) into
    the same live controller, so the speedup isolates the solver.
    """
    from repro.cluster.cluster import ClusterConfig, EdgeCluster, FunctionDeployment  # noqa: E402
    from repro.core.controller import ControllerConfig, LassController  # noqa: E402

    engine = SimulationEngine()
    node_cpu = 48.0
    cluster = EdgeCluster(engine, ClusterConfig(node_count=functions, cpu_per_node=node_cpu))
    names = [f"tick-fn-{i}" for i in range(functions)]
    for name in names:
        cluster.deploy(FunctionDeployment(name=name, cpu=1.0, memory_mb=128.0,
                                          slo_deadline=0.1))
    controller = LassController(
        engine, cluster, ControllerConfig(),
        default_service_rates={name: 10.0 for name in names},
    )
    if baseline:
        from perf.baseline_sizing import BaselineSizingSolver  # noqa: E402

        controller.autoscaler.solver = BaselineSizingSolver()

    # Fill each function's short rate window with a spread of per-function
    # rates (±25 % around arrival_rate).  The estimators have no
    # bulk-ingest API — this reaches into controller state the same way
    # the dispatch data path does, without paying for request execution.
    now = 130.0
    for i, name in enumerate(names):
        estimator = controller._functions[name].rate_estimator
        rate = arrival_rate * (0.75 + 0.5 * i / max(1, functions - 1))
        count = int(rate * 10.0)
        for k in range(count):
            estimator.record_arrival(now - 10.0 + 10.0 * (k + 0.5) / count)
    engine.schedule(now, lambda: None)
    engine.run()

    controller.run_epoch()  # untimed warm-up: builds the container fleet
    start = time.perf_counter()
    for _ in range(epochs):
        controller.run_epoch()
    elapsed = time.perf_counter() - start
    return {
        "epochs": float(epochs),
        "functions": float(functions),
        "seconds": elapsed,
        "seconds_per_epoch": elapsed / epochs,
        "epochs_per_sec": epochs / elapsed,
        "containers": float(len(cluster.all_containers())),
    }
