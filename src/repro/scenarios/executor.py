"""Fault-tolerant sweep execution: retries, timeouts, journaling, resume.

:class:`ResilientSweepRunner` is the one sweep executor.  ``workers=1``
with no timeout runs the shards in this process; otherwise at most
``workers`` long-lived worker processes (fork where available, spawn
otherwise), each started when a shard finds none idle, take one
*attempt* — a ``(spec, attempt number)`` job sent over the worker's
pipe — at a time until the sweep ends, so a healthy sweep starts
``min(workers, shards)`` processes.  Each attempt is supervised:

* **timeouts** — a per-attempt wall-clock budget; an overrunning worker
  is SIGKILLed and replaced, and the attempt recorded as ``timeout``;
* **retries with deterministic backoff** — failed/timed-out/dead shards
  are re-queued up to ``retries`` extra attempts, with capped
  exponential backoff whose jitter derives from the shard *seed*
  (:func:`backoff_delay`), never from wall clock or worker identity;
* **dead-worker detection** — a worker that dies holding a shard (OOM
  kill, SIGKILL, interpreter abort) is noticed via its process sentinel,
  counted as a failed attempt, and replaced; one found dead while idle
  is replaced and charges no shard: a killed child can neither hang nor
  sink the sweep;
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
chaos harness (``tools/chaos_sweep.py``) asserts continuously.  A worker
running shard after shard is the in-process path's case; that a shard's
bytes do not depend on what ran before it in the process is tested.

The all-healthy envelope is byte-identical to the historical
``repro/sweep-result@1`` output: ``status`` fields and the
``incomplete`` marker appear only when at least one shard exhausted its
attempts.
"""

from __future__ import annotations

import contextlib
import json
import math
import signal
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
        """Validate types and ranges; NaN and infinities would hang the supervisor."""
        if type(self.retries) is not int or self.retries < 0:  # bool is not a count
            raise ValueError(f"retries must be an int >= 0, got {self.retries!r}")
        if self.timeout is not None and not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be finite and positive (or None), got {self.timeout!r}")
        if not 0 <= self.backoff_base <= self.backoff_cap < math.inf:
            raise ValueError("need finite 0 <= backoff_base <= backoff_cap")

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


def _error_info(error: BaseException) -> Dict[str, Any]:
    """The structured report of an attempt's exception (call inside its handler)."""
    import traceback

    return {"type": type(error).__name__, "message": str(error),
            "traceback": traceback.format_exc()}


def _serve_shards(conn: Any) -> None:
    """Worker-process entry point: answer each ``(spec_dict, attempt)`` job on ``conn``.

    Replies ``("ok", result_dict)`` or ``("error", info_dict)``; a ``None``
    job, or EOF once the supervisor is gone, ends the worker.  The chaos
    hook runs first, so an injected SIGKILL is the silence dead-worker
    detection must handle.  Any escape short of a kill signal is
    reported; an exit or interrupt then ends the worker.  SIGINT is
    ignored: the supervisor stops idle workers and kills busy ones.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with contextlib.suppress(EOFError):  # EOF: the supervisor is gone
        for spec_dict, attempt in iter(conn.recv, None):
            try:
                maybe_inject(shard_spec_hash(spec_dict), attempt)
                conn.send(("ok", _run_shard(spec_dict)))
            except BaseException as error:  # noqa: BLE001 - structured worker report
                conn.send(("error", _error_info(error)))
                if not isinstance(error, Exception):
                    return


@dataclass(eq=False)
class _Worker:
    """A long-lived worker process, its pipe, and the attempt (shard, deadline) it holds."""

    process: Any
    conn: Any
    state: Optional[_ShardState] = None
    deadline: float = math.inf


def _end_workers(idle: List[_Worker], busy: List[_Worker]) -> None:
    """Stop ``idle`` workers with a ``None`` job, SIGKILL ``busy`` ones, join them all."""
    for worker in idle:
        with contextlib.suppress(OSError):  # it died idle; the join below reaps it
            worker.conn.send(None)
    for worker in busy:
        worker.process.kill()
    for worker in idle + busy:
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():  # deaf to its stop job: no worker outlives the sweep
            worker.process.kill()
            worker.process.join()
        worker.conn.close()


class ResilientSweepRunner:
    """Supervise a sweep's shards with retries, timeouts, and a journal.

    Parameters
    ----------
    sweep:
        The :class:`~repro.scenarios.sweep.SweepSpec` to execute.
    workers:
        Maximum live worker processes, each running one shard attempt
        at a time.  ``workers=1`` with no timeout runs shards in-process
        (no subprocess overhead) — both modes produce byte-identical
        envelopes.
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
                except Exception as error:  # noqa: BLE001 - per-shard isolation
                    self._attempt_failed(state, "failed",
                                         dict(_error_info(error), reason="exception"))
                    if state.status == "pending":
                        time.sleep(max(0.0, state.resume_at - time.monotonic()))
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
        """The supervision loop: hand out attempts, wait, classify, retry.

        Watches each busy worker's pipe *and* process sentinel, so results,
        crashes, silent deaths, and deadline overruns are all observed
        promptly; ``finally`` stops idle workers and kills busy ones.
        """
        ctx = self._context()
        pending = deque(to_run)
        waiting: List[_ShardState] = []
        idle: List[_Worker] = []
        busy: List[_Worker] = []
        try:
            while pending or waiting or busy:
                now = time.monotonic()
                for state in [s for s in waiting if s.resume_at <= now]:
                    waiting.remove(state)
                    pending.append(state)
                while pending and len(busy) < self.workers:
                    busy.append(self._assign(ctx, idle, pending.popleft()))
                if not busy:
                    # everything is backing off; sleep until the earliest retry
                    next_at = min(s.resume_at for s in waiting)
                    time.sleep(max(0.0, next_at - time.monotonic()) + 0.001)
                    continue
                self._wait_and_classify(busy, idle, waiting)
        finally:
            _end_workers(idle, busy)

    def _assign(self, ctx: Any, idle: List[_Worker], state: _ShardState) -> _Worker:
        """Send the shard's next attempt to an idle worker, or to a new one.

        An idle worker that died since its last report refuses the job; it
        is reaped and replaced, and no shard is charged (nothing was handed over).
        """
        job = (state.spec_dict, state.attempts + 1)
        worker = None
        while idle and worker is None:
            candidate = idle.pop()
            try:
                candidate.conn.send(job)
                worker = candidate
            except OSError:  # BrokenPipeError: it died idle
                _end_workers([], [candidate])
        if worker is None:
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(target=_serve_shards, args=(child_conn,), daemon=True)
            process.start()
            child_conn.close()
            worker = _Worker(process, parent_conn)
            parent_conn.send(job)
        state.attempts += 1
        worker.state = state
        worker.deadline = time.monotonic() + (self.retry.timeout or math.inf)
        self._journal_event(state, "started")
        return worker

    def _wait_and_classify(self, busy: List[_Worker], idle: List[_Worker],
                           waiting: List[_ShardState]) -> None:
        """Block until a busy worker reports or dies, or a deadline or retry comes due."""
        horizon = min([w.deadline for w in busy] + [s.resume_at for s in waiting])
        timeout = max(0.0, horizon - time.monotonic()) if horizon < math.inf else None
        watch: Dict[Any, _Worker] = {w.conn: w for w in busy}
        watch.update((w.process.sentinel, w) for w in busy)
        for handle in _connection_wait(list(watch), timeout=timeout):
            if watch[handle] in busy:
                self._collect(watch[handle], busy, idle, waiting)
        now = time.monotonic()
        for worker in [w for w in busy if now >= w.deadline]:
            busy.remove(worker)
            _end_workers([], [worker])
            state = worker.state
            self._attempt_failed(state, "timeout", {
                "type": "ShardTimeout",
                "message": f"attempt exceeded {self.retry.timeout}s wall-clock budget",
                "reason": "timeout",
            })
            if state.status == "pending":
                waiting.append(state)

    def _collect(self, worker: _Worker, busy: List[_Worker], idle: List[_Worker],
                 waiting: List[_ShardState]) -> None:
        """Read one busy worker's outcome (report, crash report, or silent death)."""
        state = worker.state
        try:
            payload = worker.conn.recv() if worker.conn.poll() else None
        except (EOFError, OSError):  # it died mid-report or before one
            payload = None
        if payload is None and worker.process.is_alive():
            return  # spurious wake-up; the deadline check still applies
        busy.remove(worker)
        if payload is not None:
            idle.append(worker)
            kind, body = payload
            if kind == "ok":
                state.status = "ok"
                state.result = body
                self._journal_event(state, "ok", result=state.result)
                return
            self._attempt_failed(state, "failed", dict(body, reason="exception"))
        else:
            # sentinel fired with no report: the worker died holding the shard
            exitcode = worker.process.exitcode
            _end_workers([], [worker])
            self._attempt_failed(state, "failed", {
                "type": "WorkerDied",
                "message": f"worker exited without reporting (exitcode {exitcode})",
                "reason": "worker-died",
                "exitcode": exitcode,
            })
        if state.status == "pending":
            waiting.append(state)

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
        if self.journal is not None:  # ``extra`` may override ``attempt``
            self.journal.append({**state.identity(), "event": event,
                                 "attempt": state.attempts, **extra})

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
    return json.loads(canonical_json(dict(value)))


__all__ = [
    "RetryPolicy",
    "ResilientSweepRunner",
    "ShardError",
    "backoff_delay",
]
