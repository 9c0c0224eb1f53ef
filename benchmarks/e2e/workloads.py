"""Benchmark inputs: a pure function of ``(workload name, seed)``.

:func:`generate` returns plain JSON-able data (rates, step schedules,
sizes); the program under test only ever sees these inputs.  Sizes are
fixed here — the seed only varies the draws — so two runs of one
workload do the same amount of work and their host times compare.

Why these four workloads (each stresses layers the others leave idle):

``steady_event``
    Eight identical 50 ms functions at a constant 100 req/s each on the
    event plane.  Per-request pure-Python layers (engine heap, dispatch,
    container bookkeeping, estimator and metric record path) do almost
    all the work; the control plane is a few percent.
``steady_columnar``
    The same inputs on the columnar plane: the kernel replaces the
    engine and dispatcher, so an event-plane optimisation predicts no
    change here and vice versa.  Its simulated statistics must equal
    ``steady_event``'s exactly.
``burst_control``
    Sixty-four functions with bursty step schedules on a cluster too
    small for them, two-second epochs: the controller epoch, estimator
    queries, sizing solver, fair share, reclamation and placement
    dominate, and the columnar kernel is interrupted every two seconds
    instead of running long batches.
``replay_sweep``
    Many short trace-replay shards through the crash-safe executor with
    two workers: process start, journal fsync and merge are a visible
    share beside the replay kernel; no request is ever queued, so every
    data-plane and controller layer is idle.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

WORKLOADS = ("steady_event", "steady_columnar", "burst_control", "replay_sweep")

#: Fixed sizes at scale 1.  They are a fifth to a half of what the issue
#: sketched (300 s / 600 s / 4000 functions).  The driver's budget is 92
#: runs in 3420 s, so one run gets ~24 s of timed work; the host's slow
#: episodes change faster than a 2 s iteration lasts, so the calibration
#: spins either side of an iteration follow it far better when it is
#: short, and a run's median is taken over 20-70 of them, not 10.
STEADY = {
    "functions": 8,
    "rate": 100.0,
    "service_time": 0.05,
    "duration": 60.0,
    # statistics start here: the two warm containers are overrun until the
    # first epoch (10 s) has scaled out and its backlog has drained, and how
    # long that takes is the seed's doing (over ten seeds attainment spread
    # 3.5 % from 15 s on, 1.7 % from 20 s on)
    "warmup": 20.0,
    "cluster": {"node_count": 8, "cpu_per_node": 8.0},
    "warm_start": 2,
}
BURST = {
    "functions": 64,
    "duration": 150.0,
    "warmup": 15.0,
    # requests one iteration offers, whatever the seed draws (see _burst)
    "offered_requests": 11_000,
    "epoch_length": 2.0,
    "cluster": {"node_count": 3, "cpu_per_node": 8.0},
    "load_factor": 0.02,          # base rate = load_factor * mu * multiplier
    "multiplier_range": (0.5, 3.0),
    "segment_seconds": (10.0, 20.0, 30.0),
    "burst_probability": 0.3,
    "burst_range": (3.0, 6.0),
}
REPLAY = {
    "scenario": "fig9-at-scale",
    "functions": 2000,
    "duration_minutes": 720,
    "shards": 16,
    "workers": 2,
    # the population (who the functions are) is part of the fixed size:
    # its rates are log-normal over orders of magnitude, so re-drawing
    # it would change the amount of work; the seed re-draws every trace
    "population_seed": 2021,
}


def _steady(name: str, seed: int, scale: float) -> Dict[str, Any]:
    """Identical functions at a constant rate; the two planes share every other field."""
    duration = STEADY["duration"] * scale
    return {
        "workload": name,
        "kind": "simulate",
        "data_plane": "event" if name == "steady_event" else "columnar",
        "seed": seed,
        "duration": duration,
        "warmup": STEADY["warmup"] * scale,
        # shrinks with the run so a --quick run still sees epochs (and a
        # non-zero attainment); 10 s at scale 1
        "epoch_length": duration / 6.0,
        "cluster": dict(STEADY["cluster"]),
        "warm_start": STEADY["warm_start"],
        "functions": [
            {
                "name": f"fn-{i:02d}",
                "profile": "microbenchmark",
                "service_time": STEADY["service_time"],
                "slo_deadline": 0.1,
                "steps": [[0.0, STEADY["rate"]]],
            }
            for i in range(STEADY["functions"])
        ],
    }


def _burst(seed: int, scale: float) -> Dict[str, Any]:
    """Table-1 profiles under re-drawn step schedules with bursts, on an overloaded cluster."""
    from repro.workloads.functions import FUNCTION_CATALOG

    rng = random.Random(f"burst_control:{seed}")
    duration = BURST["duration"] * scale
    profiles = list(FUNCTION_CATALOG)
    count = BURST["functions"]
    # base-rate multipliers are a shuffled even grid per profile, not
    # independent draws, so every seed gives each profile the same base load
    low, high = BURST["multiplier_range"]
    multipliers: List[float] = [0.0] * count
    for k in range(len(profiles)):
        members = list(range(k, count, len(profiles)))
        grid = [low + (high - low) * j / (len(members) - 1) for j in range(len(members))]
        rng.shuffle(grid)
        for index, value in zip(members, grid):
            multipliers[index] = value

    functions = []
    for i in range(count):
        profile = profiles[i % len(profiles)]
        base = BURST["load_factor"] * FUNCTION_CATALOG[profile].service_rate * multipliers[i]
        steps, t = [], 0.0
        while t < duration:
            burst = rng.random() < BURST["burst_probability"]
            factor = rng.uniform(*BURST["burst_range"]) if burst else 1.0
            steps.append([t, base * factor])
            t += rng.choice(BURST["segment_seconds"])
        functions.append({
            "name": f"fn-{i:02d}",
            "profile": profile,
            "service_time": None,
            "slo_deadline": 0.1,
            "steps": steps,
        })
    # which functions burst, when and how hard is the seed's; how many
    # requests the whole schedule offers is not (unscaled, it moved by
    # +-7 % between seeds, and requests per second and peak memory with it)
    scale_to = BURST["offered_requests"] * scale / offered_requests(functions, duration)
    for fn in functions:
        fn["steps"] = [[t, rate * scale_to] for t, rate in fn["steps"]]
    return {
        "workload": "burst_control",
        "kind": "simulate",
        "data_plane": "columnar",
        "seed": seed,
        "duration": duration,
        "warmup": BURST["warmup"] * scale,
        "epoch_length": BURST["epoch_length"],
        "cluster": dict(BURST["cluster"]),
        "warm_start": 0,
        "functions": functions,
    }


def offered_requests(functions: List[Dict[str, Any]], duration: float) -> float:
    """Expected arrivals of step schedules over ``duration``: the sum of rate x seconds held."""
    total = 0.0
    for fn in functions:
        times = [t for t, _ in fn["steps"]] + [duration]
        total += sum(rate * (times[k + 1] - times[k]) for k, (_, rate) in enumerate(fn["steps"]))
    return total


def _replay(seed: int, scale: float) -> Dict[str, Any]:
    """A sharded replay of the fixed synthetic population with seed-drawn traces."""
    return {
        "workload": "replay_sweep",
        "kind": "replay",
        "scenario": REPLAY["scenario"],
        "functions": max(2, round(REPLAY["functions"] * scale)),
        "duration_minutes": REPLAY["duration_minutes"],
        "shards": max(2, round(REPLAY["shards"] * scale)),
        "workers": REPLAY["workers"],
        "population_seed": REPLAY["population_seed"],
        "trace_seed": seed,
    }


def generate(name: str, seed: int, scale: float = 1.0) -> Dict[str, Any]:
    """The inputs of workload ``name`` under ``seed``, as plain data.

    ``scale`` shrinks the fixed sizes (``--quick`` uses 0.1); results at
    different scales are not comparable.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if name in ("steady_event", "steady_columnar"):
        inputs = _steady(name, int(seed), scale)
    elif name == "burst_control":
        inputs = _burst(int(seed), scale)
    elif name == "replay_sweep":
        inputs = _replay(int(seed), scale)
    else:
        raise ValueError(f"unknown workload {name!r}; valid: {', '.join(WORKLOADS)}")
    validate(inputs)
    return inputs


def validate(inputs: Dict[str, Any]) -> None:
    """Reject inputs the program could not run without an operation failing."""
    if inputs["kind"] == "replay":
        if not 1 <= inputs["shards"] <= inputs["functions"]:
            raise ValueError("replay needs 1 <= shards <= functions")
        if inputs["workers"] < 1 or inputs["duration_minutes"] < 1:
            raise ValueError("replay needs workers >= 1 and duration_minutes >= 1")
        return
    if not 0 <= inputs["warmup"] < inputs["duration"]:
        raise ValueError("warmup must lie inside the run")
    names = [fn["name"] for fn in inputs["functions"]]
    if not names or len(set(names)) != len(names):
        raise ValueError("function names must be non-empty and unique")
    for fn in inputs["functions"]:
        times = [t for t, _ in fn["steps"]]
        if not times or times[0] != 0.0 or times != sorted(times):
            raise ValueError(f"{fn['name']}: steps must start at 0 and be sorted")
        if any(rate < 0 for _, rate in fn["steps"]):
            raise ValueError(f"{fn['name']}: rates must be non-negative")
