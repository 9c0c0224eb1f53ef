"""Fault-tolerant sweep execution: retries, timeouts, journaling, resume.

:class:`ResilientSweepRunner` is the one sweep executor.  ``workers=1``
with no timeout runs the shards in this process; otherwise each shard
is submitted to its own worker process (fork where available, spawn
otherwise) and supervised individually:

* **timeouts** — a per-shard wall-clock budget; an overrunning worker is
  SIGKILLed and the attempt recorded as ``timeout``;
* **retries with deterministic backoff** — failed/timed-out/dead shards
  are re-queued up to ``retries`` extra attempts, with capped
  exponential backoff whose jitter derives from the shard *seed*
  (:func:`backoff_delay`), never from wall clock or worker identity;
* **dead-worker detection** — a worker that dies without reporting (OOM
  kill, SIGKILL, interpreter abort) is noticed via its process sentinel,
  counted as a failed attempt, and its shard re-run in a fresh process:
  a killed child can neither hang nor sink the sweep;
* **graceful degradation** — with ``on_failure="continue"``, exhausted
  shards yield a placeholder entry with a ``status`` field and the
  envelope gains an ``incomplete`` marker instead of raising; with
  ``on_failure="raise"``, the first exhausted shard raises a
  :class:`ShardError` naming the shard index, scenario, and overrides;
* **journaling and resume** — every lifecycle transition is durably
  appended to a :class:`~repro.scenarios.journal.RunJournal`; with
  ``resume=True`` shards whose ``ok`` record matches the current spec
  hash are reused byte-for-byte instead of recomputed.

Why retry/resume are safe
-------------------------
PR 5 made every shard a pure function of its spec: the seed is fixed
before execution and results contain nothing host- or time-dependent.
Re-running a shard therefore produces byte-identical canonical JSON —
so a retry after a crash, a resume after an interrupt, and an
uninterrupted ``workers=1`` run are all the *same bytes*, which the
chaos harness (``tools/chaos_sweep.py``) asserts continuously.

The all-healthy envelope is byte-identical to the historical
``repro/sweep-result@1`` output: ``status`` fields and the
``incomplete`` marker appear only when at least one shard exhausted its
attempts.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Dict, List, Mapping, Optional

from repro.scenarios.chaos import maybe_inject
from repro.scenarios.journal import RunJournal, shard_spec_hash
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec, canonical_json
from repro.scenarios.sweep import SWEEP_RESULT_SCHEMA
from repro.sim.rng import _stable_hash


class ShardError(RuntimeError):
    """A sweep shard failed permanently; carries full shard identity.

    Replaces the old behaviour of surfacing a raw multiprocessing
    traceback with no indication of *which* shard died: the message
    names the shard index, scenario name, and the overrides that
    produced it, and the structured fields are available as attributes
    for programmatic handling.
    """

    def __init__(self, index: int, scenario: str, overrides: Mapping[str, Any],
                 attempts: int, status: str, error: Mapping[str, Any]) -> None:
        """Build the error from the shard's final state."""
        self.index = index
        self.scenario = scenario
        self.overrides = dict(overrides)
        self.attempts = attempts
        self.status = status
        self.error = dict(error)
        detail = error.get("message") or error.get("reason") or status
        super().__init__(
            f"shard {index} ({scenario!r}) {status} after {attempts} "
            f"attempt{'s' if attempts != 1 else ''}: "
            f"{error.get('type', 'error')}: {detail} "
            f"(overrides: {canonical_json(self.overrides)})"
        )


def backoff_delay(seed: int, attempt: int, base: float, cap: float) -> float:
    """Deterministic capped-exponential backoff for one retry.

    The magnitude doubles per attempt up to ``cap``; the jitter factor
    (in ``[0.5, 1.0)``) comes from the run-to-run-stable FNV-1a hash of
    the shard seed and attempt number — so the delay schedule is a pure
    function of *what* is retried, never of wall clock or scheduling,
    keeping chaos runs reproducible.
    """
    if attempt < 1:
        raise ValueError("attempt numbers are 1-based")
    magnitude = min(cap, base * (2.0 ** (attempt - 1)))
    jitter = 0.5 + (_stable_hash(f"backoff:{seed}:{attempt}") % 1000) / 2000.0
    return magnitude * jitter


@dataclass(frozen=True)
class RetryPolicy:
    """How shard attempts are retried and bounded.

    ``retries`` is the number of *extra* attempts after the first (0 =
    fail fast).  ``timeout`` is the per-attempt wall-clock budget in
    seconds (None = unbounded).  Backoff between attempts is capped
    exponential with deterministic jitter (:func:`backoff_delay`).
    """

    retries: int = 0
    timeout: Optional[float] = None
    backoff_base: float = 0.5
    backoff_cap: float = 30.0

    def __post_init__(self) -> None:
        """Validate the numeric ranges."""
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise ValueError("need 0 <= backoff_base <= backoff_cap")

    def delay(self, seed: int, attempt: int) -> float:
        """The deterministic pause before re-running ``attempt``'s retry."""
        return backoff_delay(seed, attempt, self.backoff_base, self.backoff_cap)


@dataclass
class _ShardState:
    """Supervisor-side bookkeeping for one shard across its attempts."""

    index: int
    spec: ScenarioSpec
    spec_dict: Dict[str, Any]
    spec_hash: str
    overrides: Dict[str, Any]
    attempts: int = 0
    status: str = "pending"  # pending | ok | failed | timeout
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None
    reused: bool = False
    process: Any = None
    conn: Any = None
    deadline: Optional[float] = None
    resume_at: float = 0.0

    def identity(self) -> Dict[str, Any]:
        """The journal-record identity fields shared by every event."""
        return {
            "shard": self.index,
            "scenario": self.spec.name,
            "spec_hash": self.spec_hash,
        }


def _run_shard(spec_dict: Mapping[str, Any]) -> Dict[str, Any]:
    """Run one shard from its serialised spec.

    Takes and returns plain dicts so a worker process only ever pickles
    JSON-safe data, never live simulator objects.
    """
    return run_scenario(ScenarioSpec.from_dict(spec_dict)).data


def _attempt_shard(conn: Any, spec_dict: Dict[str, Any], attempt: int) -> None:
    """Worker-process entry point: run one shard attempt, report via pipe.

    Sends ``("ok", result_dict)`` or ``("error", info_dict)`` through
    ``conn`` and exits.  The env-gated chaos hook runs first, so an
    injected SIGKILL takes the worker down *before* any report — which
    is exactly the silence the supervisor's dead-worker detection must
    handle.  Catching ``BaseException`` is deliberate: any escape short
    of a kill signal should still produce a structured report.
    """
    try:
        maybe_inject(shard_spec_hash(spec_dict), attempt)
        conn.send(("ok", _run_shard(spec_dict)))
    except BaseException as error:  # noqa: BLE001 - structured worker report
        import traceback

        conn.send(("error", {
            "type": type(error).__name__,
            "message": str(error),
            "traceback": traceback.format_exc(),
        }))
    finally:
        conn.close()


class ResilientSweepRunner:
    """Supervise a sweep's shards with retries, timeouts, and a journal.

    Parameters
    ----------
    sweep:
        The :class:`~repro.scenarios.sweep.SweepSpec` to execute.
    workers:
        Maximum concurrently-live worker processes.  ``workers=1`` with
        no timeout runs shards in-process (no subprocess overhead) —
        both modes produce byte-identical envelopes.
    retry / retries / timeout / backoff_base / backoff_cap:
        Either pass a ready :class:`RetryPolicy` as ``retry`` or the
        individual knobs.
    journal:
        Path (or :class:`RunJournal`) for the lifecycle journal; None
        disables journaling.
    resume:
        Reuse ``ok`` journal records whose spec hash matches the current
        expansion instead of recomputing those shards.
    on_failure:
        ``"continue"`` (default) degrades gracefully — exhausted shards
        become placeholder entries and the envelope gains ``incomplete``;
        ``"raise"`` raises :class:`ShardError` at the first exhausted
        shard — what a library caller that wants all-or-nothing passes.
    """

    def __init__(self, sweep: Any, workers: int = 1,
                 retry: Optional[RetryPolicy] = None, *,
                 retries: int = 0, timeout: Optional[float] = None,
                 backoff_base: float = 0.5, backoff_cap: float = 30.0,
                 journal: Optional[Any] = None, resume: bool = False,
                 on_failure: str = "continue") -> None:
        """Bind the sweep and supervision knobs (validating them eagerly)."""
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if on_failure not in ("continue", "raise"):
            raise ValueError("on_failure must be 'continue' or 'raise'")
        if resume and journal is None:
            raise ValueError("resume=True requires a journal")
        self.sweep = sweep
        self.workers = workers
        self.retry = retry if retry is not None else RetryPolicy(
            retries=retries, timeout=timeout,
            backoff_base=backoff_base, backoff_cap=backoff_cap,
        )
        if isinstance(journal, (str, bytes)):
            journal = RunJournal(str(journal))
        self.journal: Optional[RunJournal] = journal
        self.resume = resume
        self.on_failure = on_failure

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Execute the sweep and return its results envelope.

        All-healthy envelopes are byte-identical to the historical
        ``repro/sweep-result@1`` output; degraded envelopes add per-shard
        ``status`` fields and a top-level ``incomplete: true`` marker.
        """
        states = self._prepare_states()
        to_run = [s for s in states if s.status == "pending"]
        try:
            if self.journal is not None:
                self.journal.append({
                    "event": "sweep", "schema": "repro/sweep-journal@1",
                    "sweep": self.sweep.name, "shard_count": len(states),
                    "resumed": sum(1 for s in states if s.reused),
                })
                for state in to_run:
                    self.journal.append(dict(state.identity(),
                                             event="scheduled", attempt=1))
            if to_run:
                if self.workers == 1 and self.retry.timeout is None:
                    self._run_in_process(to_run)
                else:
                    self._run_subprocess(to_run)
        finally:
            if self.journal is not None:
                self.journal.close()
        return self._assemble(states)

    def run_json(self) -> str:
        """Run the sweep and return the canonical JSON bytes (as text)."""
        return canonical_json(self.run())

    # ------------------------------------------------------------------
    # Preparation / resume
    # ------------------------------------------------------------------
    def _prepare_states(self) -> List[_ShardState]:
        """Expand the sweep into shard states, applying resume reuse."""
        shards = self.sweep.expand()
        points = self.sweep.override_points()
        completed: Dict[str, Dict[str, Any]] = {}
        if self.resume and self.journal is not None:
            completed = RunJournal.completed_results(self.journal.path)
        states: List[_ShardState] = []
        for index, spec in enumerate(shards):
            spec_dict = spec.to_dict()
            digest = shard_spec_hash(spec_dict)
            state = _ShardState(
                index=index, spec=spec, spec_dict=spec_dict, spec_hash=digest,
                overrides=json_safe(points[index]) if index < len(points) else {},
            )
            if digest in completed:
                state.status = "ok"
                state.result = completed[digest]
                state.reused = True
            states.append(state)
        return states

    # ------------------------------------------------------------------
    # In-process execution (workers=1, no timeout)
    # ------------------------------------------------------------------
    def _run_in_process(self, to_run: List[_ShardState]) -> None:
        """Run shards serially in this process, with the same retry loop.

        The chaos hook applies here too (kills excepted — a SIGKILL
        would take down the coordinator, so only worker processes honour
        kill faults).
        """
        for state in to_run:
            while state.status == "pending":
                state.attempts += 1
                self._journal_event(state, "started")
                try:
                    maybe_inject(state.spec_hash, state.attempts, allow_kill=False)
                    state.result = _run_shard(state.spec_dict)
                except KeyboardInterrupt:
                    raise
                except Exception as error:  # noqa: BLE001 - per-shard isolation
                    import traceback

                    self._attempt_failed(state, "failed", {
                        "type": type(error).__name__,
                        "message": str(error),
                        "traceback": traceback.format_exc(),
                        "reason": "exception",
                    })
                    if state.status == "pending" and state.resume_at > 0:
                        delay = state.resume_at - time.monotonic()
                        if delay > 0:
                            time.sleep(delay)
                else:
                    state.status = "ok"
                    self._journal_event(state, "ok", result=state.result)

    # ------------------------------------------------------------------
    # Subprocess execution (supervised workers)
    # ------------------------------------------------------------------
    def _context(self):
        """The multiprocessing context: fork when available, else spawn."""
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context("fork" if "fork" in methods else "spawn")

    def _run_subprocess(self, to_run: List[_ShardState]) -> None:
        """The supervision loop: launch, wait, classify, retry.

        Watches each live worker's report pipe *and* process sentinel,
        so results, crashes, silent deaths, and deadline overruns are
        all observed promptly; cleanup in ``finally`` guarantees no
        worker outlives an interrupted sweep.
        """
        ctx = self._context()
        pending = deque(to_run)
        waiting: List[_ShardState] = []
        live: List[_ShardState] = []
        try:
            while pending or waiting or live:
                now = time.monotonic()
                for state in [s for s in waiting if s.resume_at <= now]:
                    waiting.remove(state)
                    pending.append(state)
                while pending and len(live) < self.workers:
                    state = pending.popleft()
                    self._launch(ctx, state)
                    live.append(state)
                if not live:
                    # everything is backing off; sleep until the earliest retry
                    next_at = min(s.resume_at for s in waiting)
                    time.sleep(max(0.0, next_at - time.monotonic()) + 0.001)
                    continue
                self._wait_and_classify(live, waiting)
        finally:
            for state in live:
                self._kill_worker(state)

    def _launch(self, ctx: Any, state: _ShardState) -> None:
        """Start one worker process for the shard's next attempt."""
        state.attempts += 1
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_attempt_shard,
            args=(child_conn, state.spec_dict, state.attempts),
            daemon=True,
        )
        process.start()
        child_conn.close()
        state.process, state.conn = process, parent_conn
        state.deadline = (time.monotonic() + self.retry.timeout
                          if self.retry.timeout is not None else None)
        self._journal_event(state, "started")

    def _wait_and_classify(self, live: List[_ShardState],
                           waiting: List[_ShardState]) -> None:
        """Block until a worker reports, dies, or a deadline expires."""
        now = time.monotonic()
        timeout: Optional[float] = None
        horizons = [s.deadline for s in live if s.deadline is not None]
        horizons += [s.resume_at for s in waiting]
        if horizons:
            timeout = max(0.0, min(horizons) - now)
        watch: Dict[Any, _ShardState] = {}
        for state in live:
            watch[state.conn] = state
            watch[state.process.sentinel] = state
        ready = _connection_wait(list(watch), timeout=timeout)
        seen: List[_ShardState] = []
        for handle in ready:
            state = watch[handle]
            if state in seen or state not in live:
                continue
            seen.append(state)
            self._collect(state, live, waiting)
        now = time.monotonic()
        for state in list(live):
            if state.deadline is not None and now >= state.deadline:
                self._kill_worker(state)
                live.remove(state)
                self._attempt_failed(state, "timeout", {
                    "type": "ShardTimeout",
                    "message": f"attempt exceeded {self.retry.timeout}s wall-clock budget",
                    "reason": "timeout",
                })
                if state.status == "pending":
                    waiting.append(state)

    def _collect(self, state: _ShardState, live: List[_ShardState],
                 waiting: List[_ShardState]) -> None:
        """Read one worker's outcome (report, crash report, or silent death)."""
        payload = None
        if state.conn.poll():
            try:
                payload = state.conn.recv()
            except (EOFError, OSError):
                payload = None
        if payload is not None:
            kind, body = payload
            self._reap_worker(state)
            live.remove(state)
            if kind == "ok":
                state.status = "ok"
                state.result = body
                self._journal_event(state, "ok", result=state.result)
                return
            body = dict(body, reason="exception")
            self._attempt_failed(state, "failed", body)
        else:
            # sentinel fired with no report: the worker died silently
            if state.process.is_alive():
                return  # spurious wake-up; the deadline check still applies
            exitcode = state.process.exitcode
            self._reap_worker(state)
            live.remove(state)
            self._attempt_failed(state, "failed", {
                "type": "WorkerDied",
                "message": f"worker exited without reporting (exitcode {exitcode})",
                "reason": "worker-died",
                "exitcode": exitcode,
            })
        if state.status == "pending":
            waiting.append(state)

    def _reap_worker(self, state: _ShardState) -> None:
        """Join a finished worker and release its pipe."""
        try:
            state.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        state.process.join(timeout=5.0)
        state.process, state.conn, state.deadline = None, None, None

    def _kill_worker(self, state: _ShardState) -> None:
        """Forcibly terminate a live worker (timeout or sweep teardown)."""
        if state.process is None:
            return
        try:
            if state.process.is_alive():
                state.process.kill()  # SIGKILL: must not linger on timeout
        except (OSError, ValueError):  # pragma: no cover - racing exit
            pass
        self._reap_worker(state)

    # ------------------------------------------------------------------
    # Attempt accounting shared by both execution modes
    # ------------------------------------------------------------------
    def _attempt_failed(self, state: _ShardState, status: str,
                        error: Dict[str, Any]) -> None:
        """Journal a failed/timed-out attempt; schedule a retry or finalise."""
        journal_error = {k: v for k, v in error.items() if k != "traceback"}
        self._journal_event(state, status, error=journal_error)
        if state.attempts <= self.retry.retries:
            delay = self.retry.delay(state.spec.seed, state.attempts)
            state.resume_at = time.monotonic() + delay
            self._journal_event(state, "scheduled",
                                attempt=state.attempts + 1, backoff=delay)
            return
        state.status = status
        state.error = error
        if self.on_failure == "raise":
            raise ShardError(state.index, state.spec.name, state.overrides,
                             state.attempts, status, error)

    def _journal_event(self, state: _ShardState, event: str, **extra: Any) -> None:
        """Append one lifecycle record for ``state`` (no-op without a journal)."""
        if self.journal is None:
            return
        record = dict(state.identity(), event=event, attempt=state.attempts)
        record.update(extra)
        self.journal.append(record)

    # ------------------------------------------------------------------
    # Envelope assembly
    # ------------------------------------------------------------------
    def _assemble(self, states: List[_ShardState]) -> Dict[str, Any]:
        """Build the results envelope in expansion order.

        Healthy sweeps reproduce the historical envelope byte-for-byte;
        degraded sweeps add ``status`` to every entry (placeholder
        entries for exhausted shards) plus top-level ``incomplete``.
        """
        incomplete = any(s.status != "ok" for s in states)
        results: List[Dict[str, Any]] = []
        for state in states:
            if state.status == "ok":
                entry = state.result if not incomplete else dict(
                    state.result, status="ok")
                results.append(entry)
            else:
                error = {k: v for k, v in (state.error or {}).items()
                         if k != "traceback"}
                results.append({
                    "scenario": state.spec_dict,
                    "status": state.status,
                    "error": dict(error, shard=state.index,
                                  attempts=state.attempts,
                                  overrides=state.overrides),
                })
        envelope: Dict[str, Any] = {
            "schema": SWEEP_RESULT_SCHEMA,
            "sweep": {
                "name": self.sweep.name,
                "description": self.sweep.description,
                "seed_mode": self.sweep.seed_mode,
                "shard_count": len(states),
            },
            "results": results,
        }
        if incomplete:
            envelope["incomplete"] = True
        return envelope


def json_safe(value: Any) -> Dict[str, Any]:
    """Normalise an overrides mapping to pure-JSON types (tuples → lists)."""
    import json as _json

    return _json.loads(canonical_json(dict(value)))


__all__ = [
    "RetryPolicy",
    "ResilientSweepRunner",
    "ShardError",
    "backoff_delay",
]
