"""The traced run's two instruments: boundary spans and a per-module profile.

Both live in the benchmark, not in the program.  Spans come from thin
timing wrappers installed around low-frequency public calls (one per
epoch, batch, shard or run); they give durations and counts at layer
boundaries.  Per-request layers are called hundreds of thousands of
times per iteration, where a wrapper per call would swamp the work, so
their self time comes from ``cProfile`` instead, aggregated by source
module into the layer table.  cProfile taxes every Python call but not
work inside native code, so the shares lean towards call-heavy layers:
use them to find candidates and to see where a saving landed, never as
end-to-end numbers.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer -> source paths (relative to ``src/``) whose self time it owns.
#: A trailing ``/`` claims a package; the first match wins, so specific
#: files come before the package that contains them.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("engine", ("repro/sim/engine.py",)),
    ("columnar", ("repro/sim/columnar.py",)),
    ("request", ("repro/sim/request.py",)),
    ("arrivals", ("repro/workloads/generator.py", "repro/workloads/schedules.py",
                  "repro/workloads/functions.py", "repro/sim/rng.py")),
    ("dispatch", ("repro/core/dispatch.py", "repro/cluster/loadbalancer.py")),
    ("cluster", ("repro/cluster/",)),
    ("estimation", ("repro/core/estimation/",)),
    ("controller", ("repro/core/controller.py", "repro/core/policy.py", "repro/policies/")),
    ("solver", ("repro/core/queueing/",)),
    ("allocation", ("repro/core/allocation/",)),
    ("metrics", ("repro/metrics/",)),
    ("simulation", ("repro/simulation.py",)),
    ("replay", ("repro/scenarios/trace_shard.py", "repro/workloads/stream.py",
                "repro/workloads/azure.py")),
    ("executor", ("repro/scenarios/", "repro/ioutil.py")),
)

#: Where everything else lands: the benchmark's own build/extract code,
#: the standard library called from it, and repro modules no workload
#: here exercises (faults, federation, experiments, cli).
HARNESS = "harness"

LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _ in LAYERS) + (HARNESS,)

#: ``(module, class or None, attribute, span name)`` of every wrapped call.
SPAN_TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.simulation", "SimulationRunner", "__init__", "simulation.wire"),
    ("repro.simulation", "SimulationRunner", "prewarm", "simulation.prewarm"),
    ("repro.simulation", "SimulationRunner", "run", "simulation.run"),
    ("repro.workloads.generator", "ArrivalGenerator", "materialize_arrivals", "arrivals.synth"),
    ("repro.sim.columnar", "ColumnarKernel", "run", "columnar.run"),
    ("repro.sim.engine", "SimulationEngine", "run", "engine.run"),
    ("repro.core.controller", "LassController", "run_epoch", "controller.epoch"),
    ("repro.core.queueing.solver", "SizingSolver", "solve_batch", "solver.batch"),
    ("repro.core.allocation.autoscaler", "Autoscaler", "decide_batch", "allocation.decide_batch"),
    ("repro.core.allocation.hierarchy", "SchedulingTree", "allocate", "allocation.fair_share"),
    ("repro.core.allocation.reclamation", "DeflationPolicy", "plan", "allocation.reclaim_plan"),
    ("repro.core.allocation.reclamation", "TerminationPolicy", "plan", "allocation.reclaim_plan"),
    ("repro.metrics.collector", "MetricsCollector", "summary", "metrics.summary"),
    ("repro.scenarios.executor", "ResilientSweepRunner", "run", "executor.run"),
    ("repro.scenarios.journal", "RunJournal", "append", "executor.journal_append"),
    # the scenario runner imports this by name at call time, so the
    # module attribute is the one binding to replace
    ("repro.scenarios.trace_shard", None, "run_trace_replay", "replay.shard"),
)


class Tracer:
    """In-memory span recorder: ``{id, parent, name, start, end, workload, iteration}``.

    ``parent`` is the id of the span that was open when this one began
    (``None`` for an iteration's root), so one iteration's spans form a
    tree.  Nothing is written until :meth:`write`.
    """

    def __init__(self, workload: str) -> None:
        """Start with no spans and no wrappers installed."""
        self.workload = workload
        self.iteration = 0
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        """Record one span around the ``with`` body."""
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "workload": self.workload,
            "iteration": self.iteration,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def _wrap(self, original: Callable[..., Any], name: str) -> Callable[..., Any]:
        """A call-through wrapper that times ``original`` as a span."""
        span = self.span

        def traced(*args: Any, **kwargs: Any) -> Any:
            with span(name):
                return original(*args, **kwargs)

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    def install(self) -> None:
        """Replace every :data:`SPAN_TARGETS` attribute with its timing wrapper."""
        for module_name, class_name, attribute, name in SPAN_TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attribute]
            setattr(owner, attribute, self._wrap(original, name))
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put the original attributes back (reverse order, idempotent)."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def durations_ms(self, name: str, iteration: Optional[int] = None) -> List[float]:
        """Durations of every finished span called ``name`` (optionally of one iteration)."""
        return [
            (s["end"] - s["start"]) * 1e3
            for s in self.spans
            if s["name"] == name and s["end"] is not None
            and (iteration is None or s["iteration"] == iteration)
        ]

    def write(self, path: Path) -> None:
        """Write every span as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": self.workload, "spans": self.spans}))


def spans_form_tree(spans: List[Dict[str, Any]]) -> bool:
    """Whether every span closed, nests inside its parent, and roots are ``iteration`` spans."""
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            return False
        if s["parent"] is None:
            if s["name"] != "iteration":
                return False
            continue
        parent = by_id.get(s["parent"])
        if parent is None or parent["id"] >= s["id"]:
            return False
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            return False
        if s["iteration"] != parent["iteration"]:
            return False
    return True


def layer_of_file(filename: str, bench_dir: Path) -> Optional[str]:
    """The layer that owns ``filename``, or ``None`` for foreign code (builtins, numpy, stdlib)."""
    marker = "/src/repro/"
    at = filename.rfind(marker)
    if at >= 0:
        relative = filename[at + len("/src/"):]
        for layer, prefixes in LAYERS:
            for prefix in prefixes:
                if relative == prefix or (prefix.endswith("/") and relative.startswith(prefix)):
                    return layer
        return HARNESS
    if filename.startswith(str(bench_dir)):
        return HARNESS
    return None


def layer_table(stats: Dict[Any, Any], bench_dir: Path) -> Dict[str, Dict[str, float]]:
    """Aggregate a ``pstats`` table into ``{layer: {"self_s", "calls"}}``.

    A function defined in a layer's modules contributes its own time and
    its call count.  Foreign functions (builtins, numpy, the standard
    library) have no module of ours, so each caller's portion of their
    own time is charged to that caller's layer; when the caller is
    foreign too the walk continues up the ``callers`` table, splitting by
    the cumulative time each caller spent in it, until it reaches our
    code.  Whatever has no caller at all belongs to the harness.
    """
    table = {name: {"self_s": 0.0, "calls": 0} for name in LAYER_NAMES}
    direct = {func: layer_of_file(func[0], bench_dir) for func in stats}
    memo: Dict[Any, Dict[str, float]] = {}

    def owners(func: Any, visiting: frozenset) -> Dict[str, float]:
        """Layer -> fraction of ``func``'s time each layer should be charged."""
        layer = direct.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        visiting = visiting | {func}
        # a caller already on the walk is recursion: its share goes to
        # the callers that entered the cycle from outside
        edges = {c: e for c, e in stats[func][4].items() if c not in visiting and c in stats}
        weights = {c: (e[3] if e[3] > 0 else e[0] * 1e-9) for c, e in edges.items()}
        total = sum(weights.values())
        shares: Dict[str, float] = {}
        if total <= 0:
            shares[HARNESS] = 1.0
        for caller, weight in weights.items():
            for owner, part in owners(caller, visiting).items():
                shares[owner] = shares.get(owner, 0.0) + part * weight / total
        memo[func] = shares
        return shares

    for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
        layer = direct[func]
        if layer is not None:
            table[layer]["self_s"] += tottime
            table[layer]["calls"] += ncalls
            continue
        if not callers:
            table[HARNESS]["self_s"] += tottime
            continue
        # per-caller edges carry the foreign function's own time split
        # by who called it: (ncalls, primitive calls, tottime, cumtime)
        for caller, edge in callers.items():
            for owner, part in owners(caller, frozenset()).items():
                table[owner]["self_s"] += edge[2] * part
    return table
