#!/usr/bin/env python
"""Self-chaos harness: attack the sweep executor and assert it recovers.

PR 4 gave the *simulated* cluster a fault injector; this tool aims the
same discipline at the execution layer itself.  It runs a real sweep
three ways and asserts the crash-safety invariants end to end:

1. **Baseline** — an uninterrupted in-process ``workers=1`` run; its
   canonical bytes are the oracle every other stage must reproduce.
2. **Chaos** — the same sweep with the env-gated fault hook
   (:mod:`repro.scenarios.chaos`) killing, poisoning, and delaying
   worker attempts, supervised by
   :class:`~repro.scenarios.executor.ResilientSweepRunner` with retries.
   Invariant: the recovered envelope is byte-identical to the baseline
   and the journal is parseable with the expected lifecycle records.
3. **Interrupt + resume** (``--interrupt-after``) — a ``python -m repro
   sweep`` subprocess (shards stretched by chaos delays) is SIGTERM'd
   mid-run, then resumed from its journal without chaos.  Invariants:
   the interrupted run leaves *no* output file and a parseable journal;
   the resumed output is byte-identical to the baseline.

Usage::

    PYTHONPATH=src python tools/chaos_sweep.py --preset fig3 --workers 4 \\
        --kill 0.5 --poison 0.3 --retries 3 --journal chaos_journal.jsonl \\
        --interrupt-after 2.0

Exit code 0 means every invariant held; any violation (or an unexpected
crash) exits non-zero.  CI runs this as the chaos smoke job.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
if str(_REPO / "src") not in sys.path:
    sys.path.insert(0, str(_REPO / "src"))

from repro.scenarios import build  # noqa: E402
from repro.scenarios.chaos import CHAOS_ENV, ChaosConfig  # noqa: E402
from repro.scenarios.executor import ResilientSweepRunner  # noqa: E402
from repro.scenarios.journal import RunJournal  # noqa: E402
from repro.scenarios.spec import canonical_json  # noqa: E402
from repro.scenarios.sweep import SweepSpec, apply_overrides  # noqa: E402


def _fig3() -> SweepSpec:
    """The CI-sized fig3 sweep (three arrival rates, 30 simulated seconds)."""
    return build("fig3", mus=(10.0,), slo_deadlines=(0.1,),
                 arrival_rates=(10.0, 20.0, 30.0), duration=30.0, seed=3)


def _columnar(sweep: SweepSpec) -> SweepSpec:
    """``sweep`` with ``data_plane=columnar`` folded into its base spec, so the executor drives the columnar kernel."""
    return dataclasses.replace(sweep, base=apply_overrides(sweep.base, {"data_plane": "columnar"}))


def _preset_sweep(name: str) -> SweepSpec:
    """A CI-sized build of one of the acceptance sweeps."""
    presets = {
        "fig3": _fig3,
        "fig3-columnar": lambda: _columnar(_fig3()),
        "fig10": lambda: build("fig10", fail_at=20.0, recover_at=40.0,
                               duration=60.0),
        "policy-shootout": lambda: build("policy-shootout", duration=45.0),
        "fig12": lambda: build("fig12", duration=45.0),
        "fig9-at-scale": lambda: build("fig9-at-scale", functions=48,
                                       duration_minutes=12, shards=6,
                                       chunk_minutes=5),
    }
    if name not in presets:
        raise SystemExit(f"unknown preset {name!r}; choose from {sorted(presets)}")
    return presets[name]()


def _load_sweep(args: argparse.Namespace) -> SweepSpec:
    """The sweep under attack: an explicit sweep.json or a named preset."""
    if args.spec:
        return SweepSpec.from_json(Path(args.spec).read_text(encoding="utf-8"))
    return _preset_sweep(args.preset)


def _check(condition: bool, label: str, failures: list) -> None:
    """Record one invariant check, printing its verdict."""
    verdict = "ok" if condition else "VIOLATED"
    print(f"  [{verdict}] {label}")
    if not condition:
        failures.append(label)


def _chaos_stage(sweep: SweepSpec, baseline: str, chaos: ChaosConfig,
                 args: argparse.Namespace, workdir: Path,
                 failures: list) -> None:
    """Stage 2: faults injected into live workers; recovery must be exact."""
    journal_path = str(workdir / "chaos_journal.jsonl")
    os.environ[CHAOS_ENV] = chaos.to_json()
    try:
        started = time.monotonic()
        envelope = ResilientSweepRunner(
            sweep, workers=args.workers, retries=args.retries,
            timeout=args.timeout, backoff_base=0.05, backoff_cap=1.0,
            journal=journal_path, on_failure="continue",
        ).run()
    finally:
        os.environ.pop(CHAOS_ENV, None)
    elapsed = time.monotonic() - started
    records = RunJournal.read_records(journal_path)
    events = [r["event"] for r in records]
    hurt = sum(1 for e in events if e in ("failed", "timeout"))
    print(f"chaos stage: {len(records)} journal records, {hurt} injected "
          f"failures/timeouts, {elapsed:.1f}s")
    _check(canonical_json(envelope) == baseline,
           "chaos-recovered envelope byte-identical to baseline", failures)
    _check(events.count("ok") == sweep.shard_count(),
           "journal has one 'ok' record per shard", failures)
    _check(hurt > 0 or (chaos.kill_probability == chaos.poison_probability
                        == chaos.delay_probability == 0.0),
           "chaos actually injected faults (raise probabilities otherwise)",
           failures)
    if args.keep_journal:
        Path(args.keep_journal).write_bytes(Path(journal_path).read_bytes())


def _mixed_delay_seed(sweep: SweepSpec, workers: int, probability: float = 0.5) -> int:
    """A chaos seed whose delay draws stretch *some* shards but not all.

    With a mixed outcome the SIGTERM always lands mid-run (a delayed
    shard is still sleeping) while at least one shard has already
    journaled its result — so the resume stage demonstrably *skips*
    work rather than recomputing everything.  The undelayed shard must
    be among the first ``workers`` dispatched, or every worker could be
    asleep when the signal lands.  The search is deterministic: chaos
    draws are pure functions of (seed, shard).
    """
    from repro.scenarios.chaos import chaos_draw
    from repro.scenarios.journal import shard_spec_hash

    hashes = [shard_spec_hash(spec.to_dict()) for spec in sweep.expand()]
    for seed in range(1000):
        delayed = [chaos_draw(seed, "delay", h, 1) < probability for h in hashes]
        if any(delayed) and not all(delayed[:workers]):
            return seed
    raise SystemExit("no mixed-delay chaos seed found (single-shard sweep?)")


def _interrupt_stage(sweep: SweepSpec, baseline: str,
                     args: argparse.Namespace, workdir: Path,
                     failures: list) -> None:
    """Stage 3: SIGTERM a CLI sweep mid-run, then resume from its journal."""
    spec_path = workdir / "chaos_sweep_spec.json"
    spec_path.write_text(sweep.to_json(), encoding="utf-8")
    journal_path = workdir / "interrupt_journal.jsonl"
    output_path = workdir / "interrupted_output.json"
    command = [
        sys.executable, "-m", "repro", "sweep", str(spec_path),
        "--workers", str(args.workers),
        "--journal", str(journal_path),
        "--output", str(output_path),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    # stretch *some* shards (deterministically mixed) so the SIGTERM lands
    # while delayed shards are in flight after fast shards have journaled
    env[CHAOS_ENV] = ChaosConfig(delay_probability=0.5,
                                 delay_seconds=max(5.0, 2 * args.interrupt_after),
                                 max_attempt=10**6,
                                 seed=_mixed_delay_seed(sweep, args.workers)).to_json()
    process = subprocess.Popen(command, env=env)
    time.sleep(args.interrupt_after)
    process.send_signal(signal.SIGTERM)
    returncode = process.wait(timeout=60)
    print(f"interrupt stage: SIGTERM after {args.interrupt_after:.1f}s, "
          f"exit code {returncode}")
    _check(returncode != 0, "interrupted sweep exits non-zero", failures)
    _check(not output_path.exists(),
           "interrupted sweep leaves no partial --output file", failures)
    records = RunJournal.read_records(str(journal_path))
    _check(bool(records) and records[0]["event"] == "sweep",
           "interrupted journal is parseable with a header record", failures)
    completed_before = sum(1 for r in records if r["event"] == "ok")
    env.pop(CHAOS_ENV)  # resume runs clean
    resumed = subprocess.run(command + ["--resume"], env=env, timeout=600)
    _check(resumed.returncode == 0, "resumed sweep exits 0", failures)
    headers = [r for r in RunJournal.read_records(str(journal_path))
               if r["event"] == "sweep"]
    _check(len(headers) >= 2 and headers[-1].get("resumed", 0) == completed_before
           and completed_before >= 1,
           f"resume skipped the {completed_before} already-journaled shard(s)",
           failures)
    resumed_bytes = output_path.read_text(encoding="utf-8") \
        if output_path.exists() else ""
    _check(resumed_bytes == baseline + "\n",
           "interrupted-then-resumed output byte-identical to baseline", failures)


def main(argv=None) -> int:
    """Run the chaos stages and report which invariants held."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="fig3",
                        choices=["fig3", "fig3-columnar", "fig10", "policy-shootout",
                                 "fig12", "fig9-at-scale"],
                        help="which acceptance sweep to attack (default fig3)")
    parser.add_argument("--spec", default=None,
                        help="attack an explicit sweep.json instead of a preset")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--retries", type=int, default=3)
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-shard wall-clock budget for the chaos stage")
    parser.add_argument("--kill", type=float, default=0.5,
                        help="P(SIGKILL) per first attempt (default 0.5)")
    parser.add_argument("--poison", type=float, default=0.3,
                        help="P(injected exception) per first attempt (default 0.3)")
    parser.add_argument("--delay-prob", type=float, default=0.0,
                        help="P(injected sleep) per first attempt (default 0)")
    parser.add_argument("--delay-seconds", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=7, help="chaos draw seed")
    parser.add_argument("--interrupt-after", type=float, default=None,
                        metavar="SECONDS",
                        help="also run the SIGTERM-mid-sweep + resume stage")
    parser.add_argument("--keep-journal", default=None, metavar="PATH",
                        help="copy the chaos-stage journal here (CI artifact)")
    args = parser.parse_args(argv)

    sweep = _load_sweep(args)
    print(f"sweep under attack: {sweep.name!r} ({sweep.shard_count()} shards), "
          f"workers={args.workers}, retries={args.retries}")
    started = time.monotonic()
    baseline = ResilientSweepRunner(sweep, workers=1).run_json()
    print(f"baseline: uninterrupted workers=1 run, {len(baseline)} bytes, "
          f"{time.monotonic() - started:.1f}s")

    failures: list = []
    chaos = ChaosConfig(kill_probability=args.kill,
                        poison_probability=args.poison,
                        delay_probability=args.delay_prob,
                        delay_seconds=args.delay_seconds,
                        max_attempt=1, seed=args.seed)
    with tempfile.TemporaryDirectory(prefix="chaos_sweep_") as tmp:
        workdir = Path(tmp)
        _chaos_stage(sweep, baseline, chaos, args, workdir, failures)
        if args.interrupt_after is not None:
            _interrupt_stage(sweep, baseline, args, workdir, failures)
    if failures:
        print(f"\n{len(failures)} invariant(s) VIOLATED:", file=sys.stderr)
        for label in failures:
            print(f"  - {label}", file=sys.stderr)
        return 1
    print("\nall chaos invariants held")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
