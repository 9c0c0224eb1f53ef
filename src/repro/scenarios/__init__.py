"""Declarative scenarios: specs, a registry, a scenario runner, and a sweep executor.

This package turns experiment scripts into data.  A
:class:`~repro.scenarios.spec.ScenarioSpec` describes one run (workloads,
cluster, controller, metrics, seed) and round-trips through JSON; the
:mod:`~repro.scenarios.registry` re-expresses every paper experiment and
example workload as such specs; :func:`~repro.scenarios.runner.run_scenario`
executes any spec into a unified results schema; a
:class:`~repro.scenarios.sweep.SweepSpec` expands a parameter grid into
shards; and :class:`~repro.scenarios.executor.ResilientSweepRunner` — the
one sweep executor — runs them serially or across supervised worker
processes with results byte-identical either way, plus per-shard
retries, timeouts, dead-worker respawn, fsync'd lifecycle journaling
(:class:`~repro.scenarios.journal.RunJournal`), and resume-from-journal
under the same byte-identity guarantee.

Typical use::

    from repro.scenarios import ResilientSweepRunner, build, run_scenario

    outcome = run_scenario(build("quickstart"))     # a registered scenario
    print(outcome.data["metrics"]["functions"]["squeezenet"]["waiting"]["p95"])

    # a registered sweep; on_failure="raise" = first failed shard raises ShardError
    results = ResilientSweepRunner(build("fig3"), workers=4, on_failure="raise").run()
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.scenarios.executor": (
        "ResilientSweepRunner",
        "RetryPolicy",
        "ShardError",
        "backoff_delay",
    ),
    "repro.scenarios.journal": ("JOURNAL_SCHEMA", "RunJournal", "shard_spec_hash"),
    "repro.scenarios.registry": (
        "build",
        "describe",
        "example_names",
        "experiment_names",
        "get_entry",
        "names",
        "register",
    ),
    "repro.scenarios.runner": ("RESULT_SCHEMA", "ScenarioOutcome", "run_scenario"),
    "repro.scenarios.spec": (
        "SCENARIO_SCHEMA",
        "AllocationSpec",
        "ClusterSpec",
        "ControllerSpec",
        "ScenarioSpec",
        "ScheduleSpec",
        "WorkloadSpec",
        "canonical_json",
    ),
    "repro.scenarios.trace_shard": (
        "TRACE_MERGE_SCHEMA",
        "merge_trace_shards",
        "shard_ranges",
    ),
    "repro.scenarios.sweep": (
        "SWEEP_RESULT_SCHEMA",
        "SWEEP_SCHEMA",
        "SweepAxis",
        "SweepSpec",
        "apply_overrides",
        "derive_shard_seed",
    ),
})

__all__ = [
    "JOURNAL_SCHEMA",
    "SCENARIO_SCHEMA",
    "SWEEP_RESULT_SCHEMA",
    "SWEEP_SCHEMA",
    "RESULT_SCHEMA",
    "TRACE_MERGE_SCHEMA",
    "AllocationSpec",
    "ResilientSweepRunner",
    "RetryPolicy",
    "RunJournal",
    "ShardError",
    "backoff_delay",
    "shard_spec_hash",
    "ClusterSpec",
    "ControllerSpec",
    "ScenarioOutcome",
    "ScenarioSpec",
    "ScheduleSpec",
    "SweepAxis",
    "SweepSpec",
    "WorkloadSpec",
    "apply_overrides",
    "build",
    "canonical_json",
    "derive_shard_seed",
    "describe",
    "example_names",
    "experiment_names",
    "get_entry",
    "merge_trace_shards",
    "names",
    "register",
    "run_scenario",
    "shard_ranges",
]
