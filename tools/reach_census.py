#!/usr/bin/env python
"""Reachability census: which functions of ``src/repro`` any shipped run enters.

Every run the project ships is started in its own interpreter with a
``sys.setprofile`` hook (a ``sitecustomize`` module on ``PYTHONPATH``,
so the processes a run starts itself — ``benchmarks/e2e/run.py``'s
drivers, a sweep's forked workers — are counted too).  The hook writes
every code object a ``call`` event enters, as it first enters it, so a
worker that is killed loses nothing it ran.  The universe is every
function-level code object compiled from ``src/repro`` (class bodies
included: each is entered once, when its module is imported); lambdas,
comprehensions and module bodies are left out.  A function's size is the
number of distinct lines in its own line table.

The runs (:func:`runs`):

- every registered scenario at CI size on each data plane its spec
  admits (``tools/envelope_digests.py``);
- ``benchmarks/e2e/run.py --quick``;
- each CLI verb: ``size`` with and without ``--scv``, ``experiment`` for
  every name at CI size, ``sweep`` (two workers with a journal, then a
  serial resume), ``replay``, ``scenario`` (``--list`` and a spec file),
  ``simulate`` and the listings;
- every ``examples/`` script, at its quick size;
- the CI tools that drive the CLI through its failure paths:
  ``tools/chaos_sweep.py`` (killed and poisoned shards, retried),
  ``tools/fault_smoke.py``, and one refused ``repro scenario``.

What each run enters does not depend on timing, so two censuses of one
tree agree and ``--check`` does not flake.

A function that no run enters is *unreached*.  Each one the census still
finds gets an outcome: *held* (:data:`HELD`: kept for the numbered
ROADMAP item that decides its fate), *kept* (:data:`KEPT`, with the
reason), or *interface* (an ``abstractmethod``, whose overrides are what
runs); anything else is *unexplained*.  Unreached lines outside the
CLI-only modules (:data:`CLI_ONLY`) are the *core* count.

Usage::

    python tools/reach_census.py --out REACH_CENSUS.json   # run it, write the record
    python tools/reach_census.py --check REACH_CENSUS.json # run it, gate on the record

``--out`` writes a ``repro/reach-census@1`` JSON record: the tree, each
run's command and seconds, the universe and unreached totals (all and
core), per-module counts, every unreached function with its lines and
outcome, and the ``held``, ``kept`` and ``interface`` lists.
``--check`` exits 1 when a function outside the committed record's
held, kept and interface lists is unreached; a listed function that a
run now reaches is printed, not fatal.  Either takes about three
minutes on a 2-core host.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Schema identifier of the record.
RECORD_SCHEMA = "repro/reach-census@1"

#: Modules (paths under ``src/repro``; a trailing ``/`` is a package) only
#: CLI verbs run; unreached lines anywhere else count as core.
CLI_ONLY = ("cli.py", "__main__.py", "scenarios/executor.py", "scenarios/trace_shard.py",
            "scenarios/journal.py", "scenarios/chaos.py", "experiments/")

#: Unreached code kept until a ROADMAP item decides it: pattern -> reason.
#: A pattern is a module path, or ``path::qualname`` (which also covers
#: that name's methods).
HELD: Dict[str, str] = {
    "core/queueing/mgc.py":
        "item 11: the M/G/c approximation is validated against the simulator or deleted",
    "core/allocation/fair_share.py::fair_share_allocation":
        "item 7: one fair-share algorithm is kept, checked against weighted max-min fairness",
    "core/allocation/fair_share.py::progressive_filling":
        "item 7: one fair-share algorithm is kept, checked against weighted max-min fairness",
    "core/allocation/fair_share.py::guaranteed_shares":
        "item 7: one fair-share algorithm is kept, checked against weighted max-min fairness",
    "core/queueing/heterogeneous.py::HeterogeneousMMcQueue":
        "item 10: the Erlang-C anchor finishes the heterogeneous reference",
    "core/queueing/heterogeneous.py::solve_heterogeneous":
        "item 10: the Erlang-C anchor finishes the heterogeneous reference",
    "sim/engine.py::Event.cancel":
        "item 18: no shipped run cancels an Event record since completions became bare entries",
}

_OBSERVED = "observation point: tests read state through it; no run does"
_REFUSAL = "refusal or failure path: no shipped run fails this way"
_DEFAULT = "base-class default that every registered subclass overrides"
_FAULT_HOOK = "fault hook of a policy that no registered fault scenario runs"
_LIBRARY = "library entry point the tests build runs or specs with"

#: Unreached code kept for a stated reason: pattern -> reason.  A class
#: pattern covers whichever of its methods no run enters; the census lists
#: each one, so a later change can cut them one by one.
KEPT: Dict[str, str] = {
    "core/dispatch.py::SharedQueuePolicy._unregistered": _REFUSAL,
    "federation/runner.py::GlobalPlane._drop": _REFUSAL,
    "scenarios/executor.py::ShardError.__init__": _REFUSAL,
    "cli.py::_sigterm_as_interrupt": _REFUSAL,
    "scenarios/journal.py::RunJournal.__enter__":
        "context-manager form of the journal; the executor closes it itself",
    "scenarios/journal.py::RunJournal.__exit__":
        "context-manager form of the journal; the executor closes it itself",
    "_lazy.py::lazy_exports.<locals>.__dir__":
        "PEP 562 ``dir()`` of a lazy package; no run lists a package",
    "core/policy.py::ControlPolicy": _DEFAULT,
    "core/queueing/distributions.py::ServiceTimeDistribution": _DEFAULT,
    "workloads/schedules.py::RateSchedule.rate_many": _DEFAULT,
    "policies/hybrid.py::HybridPolicy.on_container_crashed": _FAULT_HOOK,
    "policies/static_allocation.py::StaticAllocationController.on_container_crashed": _FAULT_HOOK,
    "policies/openwhisk.py::VanillaOpenWhiskController.set_dispatch_interceptor": _FAULT_HOOK,
    "core/dispatch.py::SharedQueueDispatcher.requeue": _FAULT_HOOK,
    "core/queueing/distributions.py::Deterministic":
        "service distribution of the Kiefer-Wolfowitz oracle tests and M/G/c's SCV input (item 11)",
    "core/queueing/distributions.py::LogNormal.cv": "M/G/c's SCV input (item 11)",
    "metrics/percentiles.py::percentile": "benchmarks/e2e/drive.py imports it by name",
    "simulation.py::SimulationResult.control_stats": "run-report surface (item 1)",
    "simulation.py::SimulationResult.data_plane_used": "run-report surface (item 1)",
    "sim/engine.py::SimulationEngine.events_processed": "run-report surface (item 1)",
    "sim/engine.py::SimulationEngine.schedule_at": _LIBRARY,
    "sim/engine.py::SimulationEngine.reset": _LIBRARY,
    "sim/engine.py::stop_simulation": _LIBRARY,
    "sim/rng.py::RngStreams": _LIBRARY,
    "spec_fields.py::Spec.from_json": _LIBRARY,
    "faults/spec.py::node_outage": _LIBRARY,
    "faults/spec.py::site_blackout": _LIBRARY,
    "faults/spec.py::wan_partition": _LIBRARY,
    "workloads/functions.py::FunctionProfile.with_service_time": _LIBRARY,
    "workloads/functions.py::proportional_speed_curve": _LIBRARY,
    "scenarios/registry.py::example_names": _LIBRARY,
    "scenarios/sweep.py::derive_shard_seed": _LIBRARY,
    "scenarios/sweep.py::SweepAxis.__post_init__": _LIBRARY,
    "experiments/fig8_reclamation.py::build_workloads": _LIBRARY,
    "experiments/fig9_azure.py::build_tree": _LIBRARY,
    "experiments/fig11_policies.py::Fig11Result.arm": _LIBRARY,
    "experiments/fig12_federation.py::Fig12Result.arm": _LIBRARY,
    "core/queueing/solver.py::SizingSolver.solve_heterogeneous": _LIBRARY,
    "federation/router.py::router_names": _LIBRARY,
    "core/policy.py::build_policy": _LIBRARY,
    "core/policy.py::policy_names": _LIBRARY,
    "metrics/percentiles.py::summarize_response_times": _LIBRARY,
    "cluster/cluster.py::ClusterConfig": _OBSERVED,
    "cluster/cluster.py::EdgeCluster": _OBSERVED,
    "cluster/container.py::Container": _OBSERVED,
    "cluster/node.py::Node": _OBSERVED,
    "cluster/node.py::total_capacity": _OBSERVED,
    "cluster/loadbalancer.py::WeightedRoundRobinBalancer": _OBSERVED,
    "core/allocation/fair_share.py::FairShareResult.total_allocated": _OBSERVED,
    "core/allocation/fair_share.py::is_overloaded": _OBSERVED,
    "core/allocation/reclamation.py::ReclamationPlan.is_empty": _OBSERVED,
    "core/dispatch.py::SharedQueueDispatcher": _OBSERVED,
    "core/estimation/ewma.py::EwmaEstimator": _OBSERVED,
    "core/estimation/service_time.py::OnlineServiceTimeEstimator": _OBSERVED,
    "core/estimation/sliding_window.py::DualWindowRateEstimator": _OBSERVED,
    "core/estimation/sliding_window.py::SlidingWindowCounter": _OBSERVED,
    "metrics/collector.py::EpochSnapshot.utilization": _OBSERVED,
    "metrics/collector.py::MetricsCollector": _OBSERVED,
    "metrics/utilization.py::UtilizationTracker": _OBSERVED,
    "sim/engine.py::SimulationEngine": _OBSERVED,
    "federation/health.py::SiteHealthMonitor.healthy": _OBSERVED,
    "federation/spec.py::SiteSpec.configured_cpu": _OBSERVED,
}

#: ``repro experiment`` durations at CI size (None: the experiment has no time knob).
EXPERIMENTS: Dict[str, Optional[str]] = {
    "table1": None, "fig3": "40", "fig4": "40", "fig5": None, "fig6": "20", "fig7": None,
    "fig8": "30", "fig9": "2", "fig9-at-scale": "12", "fig10": "120", "fig11": "40",
    "fig12": "40",
}

#: The profiling hook every census process imports at start-up.
HOOK = '''\
"""Reachability census hook: write each code object as it is first entered."""
import json
import os
import sys
import threading

_DIR = os.environ.get("REACH_CENSUS_DIR")
if _DIR:
    _seen = set()
    _out = []

    def _open():
        # one line-buffered file a process: a line is written when a code
        # object is first entered, so a SIGKILLed worker loses nothing
        _seen.clear()
        _out[:] = [open(os.path.join(_DIR, "%d.jsonl" % os.getpid()), "a", buffering=1,
                        encoding="utf-8")]

    def _profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in _seen:
                _seen.add(code)
                if "repro" in code.co_filename:
                    _out[0].write(json.dumps([os.path.realpath(code.co_filename),
                                              code.co_firstlineno, code.co_qualname]) + "\\n")

    _open()
    os.register_at_fork(after_in_child=_open)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
'''

Key = Tuple[str, int, str]


def _functions(code: Any) -> Iterator[Any]:
    """Every function-level code object nested in ``code`` (itself excluded)."""
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            if not const.co_name.startswith("<"):
                yield const
            yield from _functions(const)


def _abstract_lines(tree: ast.AST) -> Set[int]:
    """First lines (decorator included) of every ``abstractmethod`` in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                (d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None))
                == "abstractmethod" for d in node.decorator_list):
            lines.add(min([node.lineno] + [d.lineno for d in node.decorator_list]))
    return lines


def universe(package: Path = PACKAGE) -> Dict[Key, Dict[str, Any]]:
    """``(realpath, first line, qualname)`` -> name, module, line count and abstractness."""
    table: Dict[Key, Dict[str, Any]] = {}
    for path in sorted(package.rglob("*.py")):
        real = os.path.realpath(path)
        module = path.relative_to(package).as_posix()
        source = path.read_text(encoding="utf-8")
        abstract = _abstract_lines(ast.parse(source))
        named: Dict[str, int] = {}
        for function in sorted(_functions(compile(source, real, "exec")),
                               key=lambda c: c.co_firstlineno):
            name = f"{module}::{function.co_qualname}"
            named[name] = named.get(name, 0) + 1
            if named[name] > 1:
                # a property's setter shares its getter's qualname
                name = f"{name}#{named[name]}"
            lines = {line for _, _, line in function.co_lines() if line is not None}
            table[(real, function.co_firstlineno, function.co_qualname)] = {
                "name": name, "module": module, "lines": len(lines),
                "abstract": function.co_firstlineno in abstract}
    return table


def is_core(module: str) -> bool:
    """Whether ``module`` (a path under ``src/repro``) runs outside the CLI verbs alone."""
    return not any(module == m or (m.endswith("/") and module.startswith(m)) for m in CLI_ONLY)


def matches(pattern: str, name: str) -> bool:
    """Whether a :data:`HELD` / :data:`KEPT` pattern covers the function ``name``."""
    if "::" not in pattern:
        return name.split("::", 1)[0] == pattern
    return name == pattern or name.startswith(pattern + ".")


#: The census's record lists of still-unreached functions an outcome allows.
LISTS = ("held", "kept", "interface")


def runs(scratch: Path) -> List[Tuple[str, List[str], int]]:
    """``(label, python arguments, exit code)`` of every census run; writes the files they read."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.scenarios import build

    sweep = scratch / "sweep.json"
    sweep.write_text(build("fig3", mus=(10.0,), slo_deadlines=(0.1,), arrival_rates=(10.0, 30.0),
                           duration=40.0).to_json(), encoding="utf-8")
    scenario = scratch / "scenario.json"
    scenario.write_text(build("quickstart", duration=30.0).to_json(), encoding="utf-8")
    journal, out = str(scratch / "journal.jsonl"), str(scratch / "out.json")
    cli = ["-m", "repro"]
    size = cli + ["size", "--rate", "100", "--service-time", "0.1", "--slo", "0.1"]
    table = [
        ("registry at CI size, every plane", ["tools/envelope_digests.py"]),
        ("benchmarks/e2e/run.py --quick", ["benchmarks/e2e/run.py", "--quick"]),
        ("repro size", size),
        ("repro size --scv", size + ["--scv", "2.0"]),
    ]
    for name, duration in EXPERIMENTS.items():
        table.append((f"repro experiment {name}",
                      cli + ["experiment", name] + (["--duration", duration] if duration else [])))
    table += [
        ("repro sweep -j 2 --journal", cli + ["sweep", str(sweep), "-j", "2", "--journal", journal,
                                               "-o", out]),
        ("repro sweep --resume", cli + ["sweep", str(sweep), "--journal", journal, "--resume",
                                        "-o", out]),
        ("repro sweep --list", cli + ["sweep", "--list"]),
        ("repro replay", cli + ["replay", "--functions", "40", "--minutes", "20", "--shards", "2",
                                "--chunk-minutes", "10", "-o", out]),
        ("repro scenario --list", cli + ["scenario", "--list"]),
        ("repro scenario spec.json", cli + ["scenario", str(scenario), "-o", out]),
        ("repro simulate", cli + ["simulate", "--function", "squeezenet", "--rate", "20",
                                  "--duration", "60", "--seed", "4"]),
        ("repro functions", cli + ["functions"]),
        ("repro policies", cli + ["policies"]),
        ("repro routers", cli + ["routers"]),
        ("examples/quickstart.py", ["examples/quickstart.py"]),
        ("examples/video_analytics_burst.py", ["examples/video_analytics_burst.py"]),
        ("examples/azure_trace_replay.py --minutes 2",
         ["examples/azure_trace_replay.py", "--minutes", "2"]),
        ("examples/overload_fair_share.py --quick", ["examples/overload_fair_share.py", "--quick"]),
        ("examples/run_all_experiments.py --quick",
         ["examples/run_all_experiments.py", "--quick"]),
        # no --interrupt-after: where a timed SIGTERM lands varies run to run
        ("tools/chaos_sweep.py --preset fig3 (killed and poisoned shards, retries)",
         ["tools/chaos_sweep.py", "--preset", "fig3", "--workers", "2", "--kill", "0.6",
          "--poison", "0.4", "--retries", "3"]),
        ("tools/fault_smoke.py", ["tools/fault_smoke.py"]),
    ]
    return [(label, argv, 0) for label, argv in table] + [
        ("repro scenario <unknown name> (refused)", cli + ["scenario", "no-such-scenario"], 2),
    ]


def census(log=sys.stderr) -> Tuple[Set[Key], List[Dict[str, Any]]]:
    """Run every census run; the code objects they entered and each run's command and time."""
    scratch = Path(tempfile.mkdtemp(prefix="reach-census-"))
    try:
        hook = scratch / "hook"
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        reached: Set[Key] = set()
        done = []
        for index, (label, argv, expected) in enumerate(runs(scratch)):
            dumps = scratch / f"run-{index}"
            dumps.mkdir()
            env = dict(os.environ, REACH_CENSUS_DIR=str(dumps), PYTHONPATH=os.pathsep.join(
                filter(None, [str(hook), str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
            start = time.perf_counter()
            child = subprocess.run([sys.executable, *argv], cwd=str(ROOT), env=env,
                                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                                   check=False)
            seconds = time.perf_counter() - start
            if child.returncode != expected:
                raise RuntimeError(f"census run {label!r} exited with code {child.returncode}, "
                                   f"not {expected}:\n{child.stderr[-2000:]}")
            files = sorted(dumps.iterdir())
            for path in files:
                reached.update(tuple(json.loads(line))
                               for line in path.read_text(encoding="utf-8").splitlines())
            print(f"{seconds:7.1f} s  {len(files)} process(es)  {label}", file=log, flush=True)
            done.append({"label": label, "command": ["python", *argv], "exit_code": expected,
                         "seconds": round(seconds, 2), "processes": len(files)})
        return reached, done
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def outcome(info: Dict[str, Any]) -> Tuple[str, str]:
    """``(held | kept | interface | unexplained, reason)`` of an unreached function."""
    if info["abstract"]:
        return "interface", "abstract method: its overrides are what runs"
    for kind, table in (("held", HELD), ("kept", KEPT)):
        for pattern, reason in table.items():
            if matches(pattern, info["name"]):
                return kind, reason
    return "unexplained", ""


def summarise(functions: Dict[Key, Dict[str, Any]], reached: Set[Key]) -> Dict[str, Any]:
    """Totals, per-module counts and the unreached functions with their outcomes."""
    totals = {"functions": 0, "lines": 0}
    unreached_totals = {"functions": 0, "lines": 0}
    core = {"functions": 0, "lines": 0}
    modules: Dict[str, Dict[str, int]] = {}
    unreached: Dict[str, Dict[str, Any]] = {}
    listed: Dict[str, Dict[str, str]] = {kind: {} for kind in LISTS}
    for key, info in functions.items():
        row = modules.setdefault(info["module"], {"functions": 0, "lines": 0,
                                                  "unreached_functions": 0, "unreached_lines": 0})
        for counts in (totals, row):
            counts["functions"] += 1
            counts["lines"] += info["lines"]
        if key in reached:
            continue
        row["unreached_functions"] += 1
        row["unreached_lines"] += info["lines"]
        for counts in [unreached_totals] + ([core] if is_core(info["module"]) else []):
            counts["functions"] += 1
            counts["lines"] += info["lines"]
        kind, reason = outcome(info)
        unreached[info["name"]] = {"lines": info["lines"], "core": is_core(info["module"]),
                                   "outcome": kind}
        if kind in listed:
            listed[kind][info["name"]] = reason
    return {"universe": totals, "unreached": unreached_totals, "core_unreached": core,
            "modules": dict(sorted(modules.items())), "functions": dict(sorted(unreached.items())),
            **{kind: dict(sorted(names.items())) for kind, names in listed.items()}}


def tree_identity() -> str:
    """The commit checked out here (``-dirty`` with uncommitted changes), else the tree's path."""
    done = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--abbrev=40"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else str(ROOT)


def allowed(committed: Dict[str, Any]) -> Set[str]:
    """Every function the committed record lists under an outcome that may stay unreached."""
    return set().union(*(committed.get(kind, {}) for kind in LISTS))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the census; write the record (``--out``) and/or gate on one (``--check``)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the repro/reach-census@1 record here")
    parser.add_argument("--check", type=Path,
                        help="exit 1 when a function this record does not list is unreached")
    args = parser.parse_args(argv)
    if args.out is None and args.check is None:
        parser.error("give --out, --check or both")
    committed = None
    if args.check is not None:
        committed = json.loads(args.check.read_text(encoding="utf-8"))
        if committed.get("schema") != RECORD_SCHEMA:
            parser.error(f"{args.check} is not a {RECORD_SCHEMA} record")
    reached, done = census()
    summary = summarise(universe(), reached)
    for label in ("universe", "unreached", "core_unreached"):
        print(f"{label}: {summary[label]['functions']} functions, {summary[label]['lines']} lines")
    if args.out is not None:
        record = {"schema": RECORD_SCHEMA, "tree": tree_identity(),
                  "python": sys.version.split()[0], "runs": done, **summary}
        args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if committed is None:
        return 0
    listed = allowed(committed)
    for name in sorted(listed - set(summary["functions"])):
        print(f"reached now, still listed: {name}")
    missing = sorted(set(summary["functions"]) - listed)
    for name in missing:
        print(f"UNREACHED and not listed in {args.check}: {name}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
