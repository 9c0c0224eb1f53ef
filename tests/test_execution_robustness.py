"""Tests for the crash-safe execution layer.

Covers the four robustness pillars this layer promises:

1. **Determinism under adversity** — retries, SIGKILLed workers,
   timeouts, and interrupted-then-resumed runs all produce envelopes
   byte-identical to an uninterrupted ``workers=1`` run.
2. **Durability** — the journal survives interruption with at most a
   torn final line; output files are written atomically so a partial
   ``--output`` can never exist.
3. **Graceful degradation** — exhausted shards surface as per-shard
   ``status``/``error`` entries (with full shard identity) and an
   ``incomplete`` envelope marker, never a bare worker traceback.
4. **Guard rails** — absurd sweep grids fail eagerly with a helpful
   message instead of materialising millions of specs.

The simulation-free ``catalogue`` scenario kind keeps most of these
tests millisecond-fast; the chaos hook (:mod:`repro.scenarios.chaos`)
provides the deterministic faults.
"""

import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from repro.ioutil import atomic_write_text, fsync_append_line
from repro.scenarios import build
from repro.scenarios.chaos import CHAOS_ENV, ChaosConfig, ChaosPoison, chaos_draw
from repro.scenarios.executor import (
    ResilientSweepRunner,
    RetryPolicy,
    ShardError,
    _run_shard,
    backoff_delay,
)
from repro.scenarios.journal import RunJournal, shard_spec_hash
from repro.scenarios.spec import canonical_json
from repro.scenarios.sweep import (
    MAX_SHARDS_ENV,
    SweepAxis,
    SweepSpec,
)

_REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO / "tools"))

from envelope_digests import REGISTRY_CASES  # noqa: E402


def tiny_sweep(n: int = 3, name: str = "tiny") -> SweepSpec:
    """An n-shard sweep over the simulation-free catalogue scenario."""
    return SweepSpec(name=name, base=build("table1"),
                     axes=(SweepAxis("seed", tuple(range(1, n + 1))),))


@pytest.fixture(scope="module")
def tiny_baseline() -> str:
    """Canonical bytes of the tiny sweep's uninterrupted workers=1 run."""
    return ResilientSweepRunner(tiny_sweep(), workers=1, on_failure="raise").run_json()


def fast_retry(**kwargs) -> dict:
    """Runner kwargs with near-instant (but still deterministic) backoff."""
    return dict(backoff_base=0.01, backoff_cap=0.05, **kwargs)


def chaos_env(monkeypatch, **kwargs) -> None:
    """Point the env-gated chaos hook at the given config for this test."""
    monkeypatch.setenv(CHAOS_ENV, ChaosConfig(**kwargs).to_json())


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------
class TestAtomicWrites:
    def test_write_creates_file_with_exact_content(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(str(target), '{"a":1}\n')
        assert target.read_text() == '{"a":1}\n'

    def test_overwrite_replaces_and_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(str(target), "old\n")
        atomic_write_text(str(target), "new\n")
        assert target.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failure_leaves_original_untouched(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(str(target), "original\n")
        with pytest.raises(TypeError):
            atomic_write_text(str(target), None)  # type: ignore[arg-type]
        assert target.read_text() == "original\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_append_line_rejects_embedded_newlines(self, tmp_path):
        with open(tmp_path / "j.jsonl", "a", encoding="utf-8") as handle:
            with pytest.raises(ValueError, match="newline"):
                fsync_append_line(handle, "two\nlines")


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class TestRunJournal:
    def test_round_trip_and_completed_results(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with RunJournal(path) as journal:
            journal.append({"event": "sweep", "sweep": "s", "shard_count": 1})
            journal.append({"event": "ok", "shard": 0, "spec_hash": "abc",
                            "attempt": 1, "result": {"rows": [1, 2]}})
        records = RunJournal.read_records(path)
        assert [r["event"] for r in records] == ["sweep", "ok"]
        assert RunJournal.completed_results(path) == {"abc": {"rows": [1, 2]}}

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with RunJournal(path) as journal:
            journal.append({"event": "ok", "shard": 0, "spec_hash": "abc",
                            "attempt": 1, "result": {}})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event":"ok","shard":1,"spec_ha')  # crash mid-append
        records = RunJournal.read_records(path)
        assert len(records) == 1
        assert RunJournal.completed_results(path) == {"abc": {}}

    def test_unknown_event_rejected(self, tmp_path):
        journal = RunJournal(str(tmp_path / "j.jsonl"))
        with pytest.raises(ValueError, match="unknown journal event"):
            journal.append({"event": "telemetry"})

    def test_missing_file_reads_empty(self, tmp_path):
        assert RunJournal.read_records(str(tmp_path / "absent.jsonl")) == []


# ----------------------------------------------------------------------
# Backoff and retry policy
# ----------------------------------------------------------------------
class TestBackoff:
    def test_deterministic_from_seed_and_attempt(self):
        assert backoff_delay(7, 1, 0.5, 30.0) == backoff_delay(7, 1, 0.5, 30.0)
        assert backoff_delay(7, 1, 0.5, 30.0) != backoff_delay(8, 1, 0.5, 30.0)

    def test_magnitude_doubles_then_caps(self):
        # jitter is in [0.5, 1.0), so bounds are magnitude/2 .. magnitude
        for attempt in range(1, 10):
            delay = backoff_delay(3, attempt, 0.5, 4.0)
            magnitude = min(4.0, 0.5 * 2 ** (attempt - 1))
            assert magnitude / 2 <= delay < magnitude

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=2.0, backoff_cap=1.0)
        # a NaN timeout spun the supervisor on wait(timeout=0) and never
        # timed out; a NaN backoff left the retry's resume_at never due
        nan, inf = float("nan"), float("inf")
        for bad in ({"timeout": nan}, {"timeout": inf}, {"backoff_base": nan},
                    {"backoff_cap": nan}, {"backoff_cap": inf},
                    {"backoff_base": inf, "backoff_cap": inf},
                    {"retries": 1.5}, {"retries": True}, {"retries": nan}):
            with pytest.raises(ValueError):
                RetryPolicy(**bad)
        assert RetryPolicy(retries=2, timeout=1e-3, backoff_base=0.0, backoff_cap=0.0)


# ----------------------------------------------------------------------
# Chaos hook
# ----------------------------------------------------------------------
class TestChaosConfig:
    def test_env_round_trip(self, monkeypatch):
        chaos_env(monkeypatch, poison_probability=0.5, seed=3)
        cfg = ChaosConfig.from_env()
        assert cfg.poison_probability == 0.5 and cfg.seed == 3

    def test_absent_env_is_none(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        assert ChaosConfig.from_env() is None

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            ChaosConfig(kill_probability=1.5)
        with pytest.raises(ValueError):
            ChaosConfig.from_mapping({"no_such_knob": 1})

    def test_draws_are_deterministic_and_kind_independent(self):
        a = chaos_draw(1, "kill", "deadbeef", 1)
        assert a == chaos_draw(1, "kill", "deadbeef", 1)
        assert 0.0 <= a < 1.0
        assert a != chaos_draw(1, "poison", "deadbeef", 1)


# ----------------------------------------------------------------------
# Healthy-path byte identity (the legacy contract, now via the executor)
# ----------------------------------------------------------------------
class TestHealthyByteIdentity:
    def test_envelope_matches_legacy_shape_exactly(self, tiny_baseline):
        envelope = json.loads(tiny_baseline)
        assert sorted(envelope) == ["results", "schema", "sweep"]
        assert sorted(envelope["sweep"]) == [
            "description", "name", "seed_mode", "shard_count"]
        assert all("status" not in result for result in envelope["results"])

    def test_subprocess_workers_identical_bytes(self, tiny_baseline):
        assert ResilientSweepRunner(tiny_sweep(), workers=3, on_failure="raise").run_json() == tiny_baseline

    def test_journaling_does_not_change_bytes(self, tiny_baseline, tmp_path):
        runner = ResilientSweepRunner(tiny_sweep(), workers=2,
                                      journal=str(tmp_path / "j.jsonl"))
        assert runner.run_json() == tiny_baseline


# ----------------------------------------------------------------------
# Retries, kills, timeouts: recovery must be byte-exact
# ----------------------------------------------------------------------
class TestRecoveryByteIdentity:
    def test_poisoned_first_attempts_retry_to_identical_bytes(
            self, monkeypatch, tiny_baseline, tmp_path):
        chaos_env(monkeypatch, poison_probability=1.0, max_attempt=1, seed=7)
        journal = str(tmp_path / "j.jsonl")
        runner = ResilientSweepRunner(tiny_sweep(), workers=2, journal=journal,
                                      **fast_retry(retries=2))
        assert runner.run_json() == tiny_baseline
        events = [r["event"] for r in RunJournal.read_records(journal)]
        assert events.count("failed") == 3  # every shard poisoned once
        assert events.count("ok") == 3

    def test_sigkilled_workers_are_respawned(self, monkeypatch, tiny_baseline):
        chaos_env(monkeypatch, kill_probability=1.0, max_attempt=1, seed=7)
        runner = ResilientSweepRunner(tiny_sweep(), workers=2,
                                      **fast_retry(retries=2))
        assert runner.run_json() == tiny_baseline

    def test_in_process_retry_identical_bytes(self, monkeypatch, tiny_baseline):
        # workers=1 takes the in-process path; kills are skipped there but
        # poison faults still exercise the same retry accounting
        chaos_env(monkeypatch, poison_probability=1.0, kill_probability=1.0,
                  max_attempt=1, seed=7)
        runner = ResilientSweepRunner(tiny_sweep(), workers=1,
                                      **fast_retry(retries=2))
        assert runner.run_json() == tiny_baseline

    def test_hung_worker_times_out_then_succeeds(self, monkeypatch,
                                                 tiny_baseline, tmp_path):
        chaos_env(monkeypatch, delay_probability=1.0, delay_seconds=30.0,
                  max_attempt=1, seed=7)
        journal = str(tmp_path / "j.jsonl")
        started = time.monotonic()
        runner = ResilientSweepRunner(tiny_sweep(), workers=3, timeout=0.75,
                                      journal=journal, **fast_retry(retries=1))
        assert runner.run_json() == tiny_baseline
        assert time.monotonic() - started < 20.0  # never waited out the sleeps
        events = [r["event"] for r in RunJournal.read_records(journal)]
        assert "timeout" in events


# ----------------------------------------------------------------------
# Graceful degradation and shard-identity errors
# ----------------------------------------------------------------------
class TestDegradation:
    def test_exhausted_shards_degrade_with_status_fields(self, monkeypatch):
        chaos_env(monkeypatch, poison_probability=1.0, max_attempt=10**6, seed=7)
        envelope = ResilientSweepRunner(tiny_sweep(), workers=2,
                                        **fast_retry(retries=1)).run()
        assert envelope["incomplete"] is True
        assert [r["status"] for r in envelope["results"]] == ["failed"] * 3
        error = envelope["results"][0]["error"]
        assert error["type"] == "ChaosPoison"
        assert error["shard"] == 0 and error["attempts"] == 2
        assert error["overrides"] == {"seed": 1}

    def test_mixed_outcome_marks_ok_shards_too(self, monkeypatch):
        # poison only shards whose draw clears 0.5 — pick a seed giving a
        # mixed outcome so both branches of the status stamping run
        hashes = [shard_spec_hash(s.to_dict()) for s in tiny_sweep().expand()]
        seed = next(
            s for s in range(1000)
            if 0 < sum(chaos_draw(s, "poison", h, a) < 0.5
                       for h in hashes for a in (1, 2)) // 2 < len(hashes)
            and all((chaos_draw(s, "poison", h, 1) < 0.5)
                    == (chaos_draw(s, "poison", h, 2) < 0.5) for h in hashes)
        )
        chaos_env(monkeypatch, poison_probability=0.5, max_attempt=10**6,
                  seed=seed)
        envelope = ResilientSweepRunner(tiny_sweep(), workers=2,
                                        **fast_retry(retries=1)).run()
        statuses = [r["status"] for r in envelope["results"]]
        assert "ok" in statuses and "failed" in statuses
        assert envelope["incomplete"] is True

    def test_legacy_runner_raises_shard_error_with_identity(self, monkeypatch):
        chaos_env(monkeypatch, poison_probability=1.0, max_attempt=10**6, seed=7)
        with pytest.raises(ShardError) as excinfo:
            ResilientSweepRunner(tiny_sweep(), workers=1, on_failure="raise").run()
        error = excinfo.value
        assert error.index == 0
        assert error.scenario == "table1#0000"
        assert error.overrides == {"seed": 1}
        message = str(error)
        assert "shard 0" in message and "table1#0000" in message
        assert "ChaosPoison" in message and '"seed":1' in message

    def test_worker_death_is_a_named_failure_not_a_hang(self, monkeypatch):
        chaos_env(monkeypatch, kill_probability=1.0, max_attempt=10**6, seed=7)
        envelope = ResilientSweepRunner(tiny_sweep(1), workers=2,
                                        **fast_retry(retries=1)).run()
        error = envelope["results"][0]["error"]
        assert error["type"] == "WorkerDied"
        assert error["exitcode"] == -signal.SIGKILL


# ----------------------------------------------------------------------
# Resume
# ----------------------------------------------------------------------
class TestResume:
    def test_resume_requires_journal(self):
        with pytest.raises(ValueError, match="requires a journal"):
            ResilientSweepRunner(tiny_sweep(), resume=True)

    def test_partial_run_resumes_to_identical_bytes(self, monkeypatch,
                                                    tiny_baseline, tmp_path):
        # fail a deterministic subset of shards, then resume without chaos
        hashes = [shard_spec_hash(s.to_dict()) for s in tiny_sweep().expand()]
        seed = next(s for s in range(1000)
                    if 0 < sum(chaos_draw(s, "poison", h, 1) < 0.5
                               for h in hashes) < len(hashes))
        chaos_env(monkeypatch, poison_probability=0.5, max_attempt=10**6,
                  seed=seed)
        journal = str(tmp_path / "j.jsonl")
        first = ResilientSweepRunner(tiny_sweep(), workers=2,
                                     journal=journal).run()
        assert first["incomplete"] is True
        completed = RunJournal.completed_results(journal)
        assert 0 < len(completed) < 3

        monkeypatch.delenv(CHAOS_ENV)
        resumed = ResilientSweepRunner(tiny_sweep(), workers=2,
                                       journal=journal, resume=True)
        assert resumed.run_json() == tiny_baseline

    def test_resume_reuses_results_without_recompute(self, tmp_path,
                                                     tiny_baseline, monkeypatch):
        journal = str(tmp_path / "j.jsonl")
        ResilientSweepRunner(tiny_sweep(), workers=1, journal=journal).run()
        # poison *everything*: only journal reuse can still succeed
        chaos_env(monkeypatch, poison_probability=1.0, max_attempt=10**6, seed=1)
        resumed = ResilientSweepRunner(tiny_sweep(), workers=1,
                                       journal=journal, resume=True)
        assert resumed.run_json() == tiny_baseline

    def test_spec_change_invalidates_resume_entry(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        ResilientSweepRunner(tiny_sweep(3), workers=1, journal=journal).run()
        bigger = tiny_sweep(4)
        resumed = ResilientSweepRunner(bigger, workers=1, journal=journal,
                                       resume=True).run()
        assert resumed["sweep"]["shard_count"] == 4
        assert resumed["results"][3]["scenario"]["seed"] == 4


# ----------------------------------------------------------------------
# The worker pool: how many processes start, and who pays when one dies
# ----------------------------------------------------------------------
@pytest.fixture
def started(monkeypatch) -> list:
    """Every worker process the executor starts, in start order."""
    processes: list = []
    context = ResilientSweepRunner._context

    def counting_context(self):
        ctx = context(self)

        class CountedProcess(ctx.Process):
            def start(self):
                processes.append(self)
                super().start()

        return types.SimpleNamespace(Pipe=ctx.Pipe, Process=CountedProcess)

    monkeypatch.setattr(ResilientSweepRunner, "_context", counting_context)
    return processes


def started_attempts(journal: str) -> dict:
    """shard index -> the attempt numbers of its ``started`` records."""
    attempts: dict = {}
    for record in RunJournal.read_records(journal):
        if record["event"] == "started":
            attempts.setdefault(record["shard"], []).append(record["attempt"])
    return attempts


def one_shard_draws(kind: str, n: int) -> tuple:
    """``(chaos seed, shard index)``: the first seed whose ``kind`` draw at
    probability 0.5 hits exactly one of ``tiny_sweep(n)``'s first attempts."""
    hashes = [shard_spec_hash(s.to_dict()) for s in tiny_sweep(n).expand()]
    for seed in range(1000):
        hit = [i for i, h in enumerate(hashes) if chaos_draw(seed, kind, h, 1) < 0.5]
        if len(hit) == 1:
            return seed, hit[0]
    raise AssertionError("no single-shard chaos seed")


class TestWorkerPool:
    def test_healthy_sweep_starts_one_process_per_worker(self, started):
        baseline = ResilientSweepRunner(tiny_sweep(16), workers=1).run_json()
        assert ResilientSweepRunner(tiny_sweep(16), workers=2,
                                    on_failure="raise").run_json() == baseline
        assert len(started) == 2
        started.clear()
        ResilientSweepRunner(tiny_sweep(3), workers=8, on_failure="raise").run()
        assert len(started) == 3  # never more than there are shards

    def test_idle_worker_killed_between_shards_charges_no_shard(
            self, started, tiny_baseline, tmp_path):
        # a timeout puts workers=1 on the subprocess path: one worker
        journal = str(tmp_path / "j.jsonl")
        runner = ResilientSweepRunner(tiny_sweep(), workers=1, timeout=60.0,
                                      journal=journal, on_failure="raise")
        journal_event = runner._journal_event

        def kill_idle_worker_after_first_ok(state, event, **extra):
            journal_event(state, event, **extra)
            if event == "ok" and state.index == 0:
                os.kill(started[0].pid, signal.SIGKILL)
                started[0].join(timeout=10.0)  # dead before the next job is sent
                assert started[0].exitcode == -signal.SIGKILL

        runner._journal_event = kill_idle_worker_after_first_ok
        assert runner.run_json() == tiny_baseline
        assert started_attempts(journal) == {0: [1], 1: [1], 2: [1]}
        assert len(started) == 2

    def test_chaos_killed_busy_worker_is_replaced_and_only_its_shard_retried(
            self, started, monkeypatch, tiny_baseline, tmp_path):
        seed, victim = one_shard_draws("kill", 3)
        chaos_env(monkeypatch, kill_probability=0.5, max_attempt=1, seed=seed)
        journal = str(tmp_path / "j.jsonl")
        runner = ResilientSweepRunner(tiny_sweep(), workers=1, timeout=60.0,
                                      journal=journal, **fast_retry(retries=1))
        assert runner.run_json() == tiny_baseline
        expected = {0: [1], 1: [1], 2: [1]}
        expected[victim] = [1, 2]
        assert started_attempts(journal) == expected
        failed = [(r["shard"], r["error"]["type"]) for r in RunJournal.read_records(journal)
                  if r["event"] == "failed"]
        assert failed == [(victim, "WorkerDied")]
        assert [p.exitcode for p in started] == [-signal.SIGKILL, 0]

    def test_hung_worker_is_killed_and_the_other_shard_is_unaffected(
            self, started, monkeypatch, tmp_path):
        baseline = ResilientSweepRunner(tiny_sweep(2), workers=1).run_json()
        seed, victim = one_shard_draws("delay", 2)
        chaos_env(monkeypatch, delay_probability=0.5, delay_seconds=30.0,
                  max_attempt=1, seed=seed)
        journal = str(tmp_path / "j.jsonl")
        began = time.monotonic()
        runner = ResilientSweepRunner(tiny_sweep(2), workers=2, timeout=2.0,
                                      journal=journal, **fast_retry(retries=1))
        assert runner.run_json() == baseline
        assert time.monotonic() - began < 20.0
        expected = {0: [1], 1: [1]}
        expected[victim] = [1, 2]
        assert started_attempts(journal) == expected
        timeouts = [r["shard"] for r in RunJournal.read_records(journal)
                    if r["event"] == "timeout"]
        assert timeouts == [victim]
        assert [p.exitcode for p in started].count(-signal.SIGKILL) == 1

    def test_no_worker_outlives_the_sweep(self, started, monkeypatch):
        before = set(multiprocessing.active_children())

        def assert_none_alive():
            assert started and not any(p.is_alive() for p in started)
            assert set(multiprocessing.active_children()) <= before

        ResilientSweepRunner(tiny_sweep(), workers=2, on_failure="raise").run()
        assert_none_alive()

        started.clear()
        chaos_env(monkeypatch, poison_probability=1.0, max_attempt=10**6)
        with pytest.raises(ShardError):
            ResilientSweepRunner(tiny_sweep(), workers=2, on_failure="raise").run()
        assert_none_alive()

        # interrupted with one worker idle (it just reported) and one busy
        # (its shard sleeps 30 s): the idle one is stopped, the busy one killed
        started.clear()
        seed, _ = one_shard_draws("delay", 2)
        chaos_env(monkeypatch, delay_probability=0.5, delay_seconds=30.0,
                  max_attempt=1, seed=seed)
        runner = ResilientSweepRunner(tiny_sweep(2), workers=2)
        journal_event = runner._journal_event

        def interrupt_at_first_ok(state, event, **extra):
            journal_event(state, event, **extra)
            if event == "ok":
                raise KeyboardInterrupt

        runner._journal_event = interrupt_at_first_ok
        began = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            runner.run()
        assert time.monotonic() - began < 20.0
        assert_none_alive()
        assert sorted(p.exitcode for p in started) == [-signal.SIGKILL, 0]


# ----------------------------------------------------------------------
# A reused worker is safe: a shard's bytes do not depend on what ran
# before it in the process (solver memo, log-factorial table, request-id
# and container-id counters are all process-global)
# ----------------------------------------------------------------------
ORDER_CASES = {name: REGISTRY_CASES[name]
               for name in ("fig3", "policy-shootout", "fig9-at-scale")}


def test_shard_bytes_do_not_depend_on_what_ran_before_them():
    specs = [spec.to_dict() for name in sorted(ORDER_CASES)
             for spec in build(name, **ORDER_CASES[name]).expand()]
    # every shard in its own freshly spawned interpreter ...
    with multiprocessing.get_context("spawn").Pool(2, maxtasksperchild=1) as pool:
        fresh = [canonical_json(r) for r in pool.map(_run_shard, specs, chunksize=1)]
    # ... equals it run after the others in this process, forward and shuffled
    assert [canonical_json(_run_shard(s)) for s in specs] == fresh
    order = list(range(len(specs)))
    random.Random(7).shuffle(order)
    for index in order:
        assert canonical_json(_run_shard(specs[index])) == fresh[index], specs[index]["name"]


# ----------------------------------------------------------------------
# Grid-expansion guard
# ----------------------------------------------------------------------
class TestShardCap:
    def test_absurd_grid_fails_eagerly_with_count(self):
        axes = tuple(SweepAxis(f"seed", tuple(range(60))) for _ in range(3))
        with pytest.raises(ValueError, match=r"216,000 shards.*cap of 100,000"):
            SweepSpec(name="huge", base=build("table1"), axes=axes)

    def test_env_override_loosens_and_tightens(self, monkeypatch):
        monkeypatch.setenv(MAX_SHARDS_ENV, "2")
        with pytest.raises(ValueError, match="exceeding the cap of 2"):
            tiny_sweep(3)
        monkeypatch.setenv(MAX_SHARDS_ENV, "3")
        assert tiny_sweep(3).shard_count() == 3

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(MAX_SHARDS_ENV, "lots")
        with pytest.raises(ValueError, match="must be an integer"):
            tiny_sweep(1)


# ----------------------------------------------------------------------
# CLI interrupt handling (SIGTERM mid-sweep, then resume)
# ----------------------------------------------------------------------
class TestCliInterrupt:
    def _cli_env(self, chaos: dict = None) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        env.pop(CHAOS_ENV, None)
        if chaos is not None:
            env[CHAOS_ENV] = ChaosConfig(**chaos).to_json()
        return env

    def test_sigterm_leaves_journal_but_no_output(self, tmp_path, tiny_baseline):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(tiny_sweep().to_json(), encoding="utf-8")
        journal_path = tmp_path / "journal.jsonl"
        output_path = tmp_path / "out.json"
        command = [sys.executable, "-m", "repro", "sweep", str(spec_path),
                   "--workers", "2", "--journal", str(journal_path),
                   "--output", str(output_path)]
        process = subprocess.Popen(
            command, env=self._cli_env({"delay_probability": 1.0,
                                        "delay_seconds": 30.0,
                                        "max_attempt": 10**6}),
            stderr=subprocess.PIPE, text=True)
        # wait for the journal header so the SIGTERM lands mid-sweep
        deadline = time.monotonic() + 30.0
        while not journal_path.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(0.5)
        process.send_signal(signal.SIGTERM)
        _, stderr = process.communicate(timeout=30)
        assert process.returncode == 130
        assert "interrupted" in stderr
        assert not output_path.exists(), "interrupt must not leave a partial output"
        records = RunJournal.read_records(str(journal_path))
        assert records and records[0]["event"] == "sweep"

        # resume without chaos: byte-identical to the uninterrupted run
        resumed = subprocess.run(command + ["--resume"], env=self._cli_env(),
                                 timeout=120)
        assert resumed.returncode == 0
        assert output_path.read_text(encoding="utf-8") == tiny_baseline + "\n"

    def test_degraded_sweep_exits_1_with_incomplete_envelope(self, tmp_path):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(tiny_sweep().to_json(), encoding="utf-8")
        output_path = tmp_path / "out.json"
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", str(spec_path),
             "--workers", "2", "--output", str(output_path)],
            env=self._cli_env({"poison_probability": 1.0,
                               "max_attempt": 10**6}),
            capture_output=True, text=True, timeout=120)
        assert completed.returncode == 1
        assert "degraded" in completed.stderr
        envelope = json.loads(output_path.read_text(encoding="utf-8"))
        assert envelope["incomplete"] is True

    def test_resume_without_journal_is_a_usage_error(self, tmp_path):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "fig3", "--resume"],
            env=self._cli_env(), capture_output=True, text=True, timeout=60)
        assert completed.returncode == 2
        assert "--resume requires --journal" in completed.stderr

    @pytest.mark.parametrize("verb", [["sweep", "fig3"], ["replay"]])
    def test_non_finite_timeout_is_a_usage_error(self, verb):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", *verb, "--timeout", "nan"],
            env=self._cli_env(), capture_output=True, text=True, timeout=60)
        assert completed.returncode == 2
        assert "timeout must be finite" in completed.stderr
        assert "Traceback" not in completed.stderr
