"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``size``
    One-off container sizing: given an arrival rate, service time, SLO
    deadline and percentile, print the container count each model
    recommends (M/M/c as in Algorithm 1, and M/G/c with a chosen
    service-time variability).
``simulate``
    Run a single function on the simulated edge cluster under the LaSS
    controller and print the measured waiting-time percentiles, SLO
    attainment, and utilisation.
``experiment``
    Regenerate one of the paper's tables/figures and print its text
    rendering.  Valid names are enumerated programmatically from the
    scenario registry (:func:`repro.scenarios.registry.experiment_names`)
    so ``--help`` can never drift from what is actually registered.
``functions``
    List the Table 1 function catalogue.
``policies``
    List the registered control-plane policies (every controller —
    LaSS and the baselines — is a registry entry usable as
    ``controller.policy`` in a scenario, or via ``simulate --policy``).
``routers``
    List the registered global router policies of the federation layer
    (usable as ``federation.router`` in a scenario).
``scenario``
    Run one scenario — a registered name (``python -m repro scenario
    --list``) or a ``spec.json`` file — and emit the unified results
    JSON (schema ``repro/scenario-result@1``).
``sweep``
    Expand a parameter sweep (registered name or ``sweep.json``) and run
    its shards under the fault-tolerant executor — optionally across
    ``--workers`` processes, with per-shard ``--retries`` and
    ``--timeout``, a crash-safe ``--journal``, and ``--resume`` from a
    previous interrupted run.  The results JSON is byte-identical
    regardless of the worker count, and an interrupted-then-resumed run
    matches an uninterrupted one byte-for-byte.
``replay``
    Run the ``fig9-at-scale`` streaming trace replay: shard an
    Azure-scale synthetic population over the same fault-tolerant
    executor, then merge the per-shard envelopes into one
    ``repro/trace-replay@1`` envelope.  Inherits every ``sweep``
    resilience flag; the merged output is byte-identical for any
    ``--workers`` value and across interrupt+resume.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def _cmd_size(args: argparse.Namespace) -> int:
    """Print the container counts the M/M/c and M/G/c models recommend."""
    from repro.core.queueing.mgc import required_containers_mgc
    from repro.core.queueing.sizing import required_containers

    # bad input (a zero, NaN or infinite value, an unsatisfiable SLO)
    # exits 2 with one line, not a traceback
    try:
        if not 0.0 < args.service_time < float("inf"):
            raise ValueError(f"service time must be finite and positive, got {args.service_time}")
        mu = 1.0 / args.service_time
        reference = required_containers(args.rate, mu, args.slo, args.percentile)
        mgc = required_containers_mgc(args.rate, args.service_time, args.scv, args.slo,
                                      args.percentile)
    except (ValueError, OverflowError) as error:
        print(f"size: {error}", file=sys.stderr)
        return 2
    print(f"arrival rate       : {args.rate:g} req/s")
    print(f"mean service time  : {args.service_time * 1000:g} ms (mu = {mu:g} req/s)")
    print(f"SLO                : P{args.percentile * 100:.0f} waiting time <= {args.slo * 1000:g} ms")
    print(f"M/M/c (Algorithm 1): {reference.containers} containers "
          f"(P(wait<=t) = {reference.achieved_probability:.3f})")
    print(f"M/G/c (SCV={args.scv:g})   : {mgc.containers} containers "
          f"(P(wait<=t) = {mgc.achieved_probability:.3f})")
    return 0


def _cmd_functions(args: argparse.Namespace) -> int:
    """Print the Table 1 function catalogue."""
    from repro.experiments.table1_functions import format_table1

    print(format_table1())
    return 0


def _cmd_policies(args: argparse.Namespace) -> int:
    """Print the registered control-plane policies."""
    from repro.core.policy import describe_policies

    for name, summary in describe_policies():
        print(f"{name:<12} {summary}")
    return 0


def _cmd_routers(args: argparse.Namespace) -> int:
    """Print the registered global router policies."""
    from repro.federation.router import describe_routers

    for name, summary in describe_routers().items():
        print(f"{name:<20} {summary}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    """Simulate one function under a chosen policy and print its SLO outcome."""
    import json as _json

    from repro import ClusterConfig, ControllerConfig, ReclamationPolicy, SimulationRunner
    from repro.workloads import StaticRate, WorkloadBinding, get_function

    function = get_function(args.function)
    # handler-validated like the experiment verb: bad policy names, bad
    # JSON, and bad params exit 2 with a message, not a traceback
    try:
        policy_params = _json.loads(args.policy_params) if args.policy_params else None
    except _json.JSONDecodeError as error:
        print(f"--policy-params is not valid JSON: {error}", file=sys.stderr)
        return 2
    try:
        runner = SimulationRunner(
            workloads=[WorkloadBinding(function, StaticRate(args.rate, duration=args.duration),
                                       slo_deadline=args.slo)],
            cluster_config=ClusterConfig(node_count=args.nodes, cpu_per_node=args.cpu_per_node),
            controller_config=ControllerConfig(
                reclamation=ReclamationPolicy(args.reclamation),
            ),
            seed=args.seed,
            policy=args.policy,
            policy_params=policy_params,
        )
    except (KeyError, ValueError) as error:
        print(_error_text(error), file=sys.stderr)
        return 2
    result = runner.run(duration=args.duration)
    # exclude the start-up transient (first cold start + initial scale-up)
    # from the SLO accounting, like the experiment harnesses do
    warmup = min(30.0, args.duration / 4)
    summary = result.waiting_summary(function.name, warmup=warmup)
    slo = result.slo({function.name: args.slo}, warmup=warmup)[function.name]
    _, containers = result.container_timeline(function.name)
    print(f"function            : {function.name}")
    print(f"policy              : {args.policy}")
    print(f"completed requests  : {result.metrics.counters.get('completions', 0)}")
    print(f"final allocation    : {containers[-1] if containers else 0} containers")
    print(f"mean / P95 / P99 wait: {summary.mean * 1000:.1f} / {summary.p95 * 1000:.1f} / "
          f"{summary.p99 * 1000:.1f} ms")
    print(f"SLO attainment      : {slo.attainment * 100:.1f}% "
          f"({'met' if slo.satisfied else 'violated'})")
    print(f"mean utilisation    : {result.mean_utilization() * 100:.1f}%")
    return 0 if slo.satisfied else 1


def _error_text(error: BaseException) -> str:
    """The error's message without ``str(KeyError)``'s surrounding quotes."""
    if isinstance(error, KeyError) and error.args:
        return str(error.args[0])
    return str(error)


def _cmd_experiment(args: argparse.Namespace) -> int:
    """Regenerate one paper experiment via the registry-driven renderers."""
    from repro.experiments import render_experiment

    try:
        print(render_experiment(args.name.lower(), duration=args.duration))
    except KeyError as error:
        print(_error_text(error), file=sys.stderr)
        return 2
    return 0


def _load_spec_argument(argument: str, expect: str):
    """Resolve a ``<name|spec.json>`` argument to a spec or sweep object.

    ``expect`` (``"scenario"`` or ``"sweep"``) only tailors the error
    text for unrecognised files; both JSON schemas are recognised by
    their ``schema`` field, so a sweep file handed to ``scenario`` (or
    vice versa) still loads.
    """
    import os

    from repro.scenarios import build, get_entry
    from repro.scenarios.spec import SCENARIO_SCHEMA, ScenarioSpec
    from repro.scenarios.sweep import SWEEP_SCHEMA, SweepSpec

    if argument.endswith(".json") or os.path.isfile(argument):
        with open(argument, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError(f"{argument}: a spec file holds one JSON object")
        schema = data.get("schema")
        if schema == SWEEP_SCHEMA or "base" in data:
            return SweepSpec.from_dict(data)
        if schema == SCENARIO_SCHEMA or "kind" in data:
            return ScenarioSpec.from_dict(data)
        raise ValueError(f"{argument}: not a recognised {expect} JSON "
                         f"(no repro/scenario@1 or repro/sweep@1 schema field)")
    get_entry(argument)  # raises KeyError with the available names
    return build(argument)


def _emit_json(payload, output: Optional[str], pretty: bool) -> None:
    """Write results JSON to stdout or ``output`` (canonical unless pretty).

    File output goes through :func:`repro.ioutil.atomic_write_text`
    (write-temp-then-replace), so an interrupt mid-write can never leave
    a truncated, valid-looking results file.
    """
    from repro.ioutil import atomic_write_text
    from repro.scenarios.spec import canonical_json

    if pretty:
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = canonical_json(payload)
    if output is None or output == "-":
        print(text)
    else:
        atomic_write_text(output, text + "\n")


def _cmd_scenario(args: argparse.Namespace) -> int:
    """Run one scenario (or a registered sweep, serially) and emit results JSON."""
    from repro.scenarios import describe, run_scenario
    from repro.scenarios.executor import ResilientSweepRunner, ShardError
    from repro.scenarios.sweep import SweepSpec

    if args.list:
        for name, tags, summary in describe():
            print(f"{name:<22} [{tags}] {summary}")
        return 0
    if args.spec is None:
        print("a scenario name or spec.json path is required (see --list)", file=sys.stderr)
        return 2
    try:
        spec = _load_spec_argument(args.spec, expect="scenario")
        if isinstance(spec, SweepSpec):
            payload = ResilientSweepRunner(spec, on_failure="raise").run()
        else:
            payload = run_scenario(spec).data
    except (KeyError, ValueError, OSError, ShardError) as error:
        print(_error_text(error), file=sys.stderr)
        return 2
    _emit_json(payload, args.output, args.pretty)
    return 0


def _sigterm_as_interrupt(signum, frame) -> None:
    """SIGTERM handler: convert to KeyboardInterrupt for clean teardown.

    The executor's cleanup path (terminate live workers, close the
    journal) runs on KeyboardInterrupt, so a SIGTERM'd sweep leaves a
    parseable journal and no partial output file — the same guarantees
    Ctrl-C gets.
    """
    raise KeyboardInterrupt


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Expand and run a sweep with the fault-tolerant executor; emit results JSON.

    Exit codes: 0 = every shard ok; 1 = completed but degraded (the
    envelope carries ``incomplete`` and per-shard ``status``); 2 = usage
    or spec errors; 130 = interrupted (journal intact, no output file).
    """
    import signal

    from repro.scenarios import describe, get_entry
    from repro.scenarios.executor import ResilientSweepRunner
    from repro.scenarios.spec import ScenarioSpec
    from repro.scenarios.sweep import SweepSpec

    if args.list:
        for name, tags, summary in describe():
            try:
                if isinstance(get_entry(name).build(), SweepSpec):
                    print(f"{name:<22} [{tags}] {summary}")
            except Exception:  # pragma: no cover - defensive: builder failure
                continue
        return 0
    if args.spec is None:
        print("a sweep name or sweep.json path is required (see --list)", file=sys.stderr)
        return 2
    if args.resume and not args.journal:
        print("--resume requires --journal PATH", file=sys.stderr)
        return 2
    try:
        spec = _load_spec_argument(args.spec, expect="sweep")
        if isinstance(spec, ScenarioSpec):
            print(f"{args.spec!r} is a single scenario, not a sweep; "
                  f"use 'python -m repro scenario'", file=sys.stderr)
            return 2
        runner = ResilientSweepRunner(
            spec,
            workers=args.workers,
            retries=args.retries,
            timeout=args.timeout,
            backoff_base=args.backoff_base,
            journal=args.journal,
            resume=args.resume,
            on_failure="continue",
        )
    except (KeyError, ValueError, OSError) as error:
        print(_error_text(error), file=sys.stderr)
        return 2
    previous_sigterm = signal.signal(signal.SIGTERM, _sigterm_as_interrupt)
    try:
        payload = runner.run()
    except KeyboardInterrupt:
        where = f"; journal intact at {args.journal!r} (resume with --resume)" \
            if args.journal else ""
        print(f"sweep interrupted{where}", file=sys.stderr)
        return 130
    except (KeyError, ValueError, OSError) as error:
        print(_error_text(error), file=sys.stderr)
        return 2
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
    _emit_json(payload, args.output, args.pretty)
    if payload.get("incomplete"):
        failed = [r for r in payload["results"] if r.get("status") != "ok"]
        print(f"sweep degraded: {len(failed)}/{len(payload['results'])} "
              f"shard(s) did not complete (see per-shard 'status'/'error')",
              file=sys.stderr)
        return 1
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    """Run the sharded at-scale trace replay and emit the merged envelope.

    Exit codes mirror ``sweep``: 0 = merged envelope written; 1 =
    degraded sweep (nothing merged — a partial replay would understate
    every total; resume it instead); 2 = usage errors, or shard results
    the merge refuses (a resumed journal's malformed ``ok`` record);
    130 = interrupted (journal intact, no output file).
    """
    import signal

    from repro.scenarios import build
    from repro.scenarios.executor import ResilientSweepRunner
    from repro.scenarios.trace_shard import merge_trace_shards

    if args.resume and not args.journal:
        print("--resume requires --journal PATH", file=sys.stderr)
        return 2
    try:
        sweep = build(
            "fig9-at-scale",
            functions=args.functions,
            duration_minutes=args.minutes,
            shards=args.shards,
            chunk_minutes=args.chunk_minutes,
        )
        runner = ResilientSweepRunner(
            sweep,
            workers=args.workers,
            retries=args.retries,
            timeout=args.timeout,
            journal=args.journal,
            resume=args.resume,
            on_failure="continue",
        )
    except (KeyError, ValueError, OSError) as error:
        print(_error_text(error), file=sys.stderr)
        return 2
    previous_sigterm = signal.signal(signal.SIGTERM, _sigterm_as_interrupt)
    try:
        envelope = runner.run()
    except KeyboardInterrupt:
        where = f"; journal intact at {args.journal!r} (resume with --resume)" \
            if args.journal else ""
        print(f"replay interrupted{where}", file=sys.stderr)
        return 130
    except (KeyError, ValueError, OSError) as error:
        print(_error_text(error), file=sys.stderr)
        return 2
    finally:
        signal.signal(signal.SIGTERM, previous_sigterm)
    if envelope.get("incomplete"):
        failed = [r for r in envelope["results"] if r.get("status") != "ok"]
        print(f"replay degraded: {len(failed)}/{len(envelope['results'])} "
              f"shard(s) did not complete; not merging a partial replay "
              f"(re-run with --journal/--resume)", file=sys.stderr)
        return 1
    try:
        merged = merge_trace_shards(envelope)
    except ValueError as error:
        # a journal's ok record can carry a malformed result into the merge
        print(f"replay merge refused: {error}", file=sys.stderr)
        return 2
    _emit_json(merged, args.output, args.pretty)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for tests)."""
    from repro.scenarios.registry import experiment_names

    parser = argparse.ArgumentParser(
        prog="repro", description="LaSS reproduction command-line interface"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    size = sub.add_parser("size", help="container sizing from the queueing models")
    size.add_argument("--rate", type=float, required=True, help="arrival rate (req/s)")
    size.add_argument("--service-time", type=float, required=True,
                      help="mean service time of a standard container (s)")
    size.add_argument("--slo", type=float, default=0.1, help="SLO deadline (s)")
    size.add_argument("--percentile", type=float, default=0.95, help="SLO percentile")
    size.add_argument("--scv", type=float, default=1.0,
                      help="squared coefficient of variation for the M/G/c model")
    size.set_defaults(func=_cmd_size)

    functions = sub.add_parser("functions", help="list the Table 1 function catalogue")
    functions.set_defaults(func=_cmd_functions)

    policies = sub.add_parser("policies",
                              help="list the registered control-plane policies")
    policies.set_defaults(func=_cmd_policies)

    routers = sub.add_parser("routers",
                             help="list the registered global router policies")
    routers.set_defaults(func=_cmd_routers)

    simulate = sub.add_parser("simulate",
                              help="simulate one function under a control-plane policy")
    simulate.add_argument("--function", default="squeezenet")
    simulate.add_argument("--rate", type=float, default=20.0)
    simulate.add_argument("--slo", type=float, default=0.1)
    simulate.add_argument("--duration", type=float, default=300.0)
    simulate.add_argument("--nodes", type=int, default=3)
    simulate.add_argument("--cpu-per-node", type=float, default=4.0)
    simulate.add_argument("--reclamation", choices=["termination", "deflation"],
                          default="deflation")
    simulate.add_argument("--policy", default="lass",
                          help="control-plane policy name (see 'policies')")
    simulate.add_argument("--policy-params", default=None,
                          help="policy-specific configuration as a JSON object")
    simulate.add_argument("--seed", type=int, default=1)
    simulate.set_defaults(func=_cmd_simulate)

    valid_experiments = experiment_names()
    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure",
        description="Regenerate one paper experiment. Valid names (from the "
                    "scenario registry): " + ", ".join(valid_experiments),
    )
    # validated in the handler (exit code 2) rather than via argparse
    # ``choices`` so unknown names return instead of raising SystemExit
    experiment.add_argument("name", metavar="{" + ",".join(valid_experiments) + "}",
                            help="experiment to regenerate")
    experiment.add_argument("--duration", type=float, default=None,
                            help="override the experiment's duration parameter")
    experiment.set_defaults(func=_cmd_experiment)

    scenario = sub.add_parser(
        "scenario", help="run a scenario (registered name or spec.json)",
        description="Run one scenario and emit the unified results JSON "
                    "(schema repro/scenario-result@1).",
    )
    scenario.add_argument("spec", nargs="?", default=None,
                          help="registered scenario name or path to a spec.json")
    scenario.add_argument("--list", action="store_true",
                          help="list the registered scenarios and exit")
    scenario.add_argument("--output", "-o", default=None,
                          help="write results JSON to this file ('-' = stdout)")
    scenario.add_argument("--pretty", action="store_true",
                          help="indent the JSON output (default: canonical bytes)")
    scenario.set_defaults(func=_cmd_scenario)

    sweep = sub.add_parser(
        "sweep", help="expand and run a parameter sweep, optionally in parallel",
        description="Expand a sweep's parameter grid and run every shard "
                    "under the fault-tolerant executor (per-shard retries, "
                    "timeouts, journaling, resume). Results are "
                    "byte-identical for any --workers value, and an "
                    "interrupted-then-resumed run matches an uninterrupted "
                    "one byte-for-byte.",
    )
    sweep.add_argument("spec", nargs="?", default=None,
                       help="registered sweep name or path to a sweep.json")
    sweep.add_argument("--list", action="store_true",
                       help="list the registered sweeps and exit")
    sweep.add_argument("--workers", "-j", type=int, default=1,
                       help="worker processes (default 1 = serial)")
    sweep.add_argument("--output", "-o", default=None,
                       help="write results JSON to this file ('-' = stdout); "
                            "written atomically (temp file + rename)")
    sweep.add_argument("--pretty", action="store_true",
                       help="indent the JSON output (default: canonical bytes)")
    sweep.add_argument("--journal", default=None, metavar="PATH",
                       help="append shard lifecycle records (JSONL) to PATH "
                            "with fsync'd writes; enables --resume")
    sweep.add_argument("--resume", action="store_true",
                       help="skip shards whose 'ok' journal record matches "
                            "the current spec hash; recompute the rest")
    sweep.add_argument("--retries", type=int, default=0,
                       help="extra attempts per shard after a failure/timeout "
                            "(default 0); retries never change result bytes")
    sweep.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="per-shard wall-clock budget; an overrunning "
                            "worker is killed and the attempt retried")
    sweep.add_argument("--backoff-base", type=float, default=0.5, metavar="SECONDS",
                       help="base delay of the capped exponential retry "
                            "backoff (default 0.5; jitter is deterministic "
                            "from the shard seed)")
    sweep.set_defaults(func=_cmd_sweep)

    replay = sub.add_parser(
        "replay", help="run the fig9-at-scale streaming trace replay",
        description="Shard the Azure-scale synthetic population over the "
                    "fault-tolerant executor, stream every shard through "
                    "the constant-memory replay kernel, and merge the "
                    "shard envelopes into one repro/trace-replay@1 "
                    "envelope. Output bytes are identical for any "
                    "--workers value and across interrupt+resume.",
    )
    replay.add_argument("--functions", type=int, default=10_000,
                        help="population size (default 10000)")
    replay.add_argument("--minutes", type=int, default=1440,
                        help="trace length in minutes (default 1440 = one day)")
    replay.add_argument("--shards", type=int, default=32,
                        help="contiguous function-range shards (default 32)")
    replay.add_argument("--chunk-minutes", type=int, default=360,
                        help="minutes of one trace held in memory at a time")
    replay.add_argument("--workers", "-j", type=int, default=1,
                        help="worker processes (default 1 = serial)")
    replay.add_argument("--output", "-o", default=None,
                        help="write the merged envelope to this file "
                             "('-' = stdout); written atomically")
    replay.add_argument("--pretty", action="store_true",
                        help="indent the JSON output (default: canonical bytes)")
    replay.add_argument("--journal", default=None, metavar="PATH",
                        help="append shard lifecycle records (JSONL) to PATH; "
                             "enables --resume")
    replay.add_argument("--resume", action="store_true",
                        help="skip shards already completed in the journal")
    replay.add_argument("--retries", type=int, default=0,
                        help="extra attempts per shard after a failure/timeout")
    replay.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="per-shard wall-clock budget")
    replay.set_defaults(func=_cmd_replay)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
