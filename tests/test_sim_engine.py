"""Unit tests for the discrete-event simulation engine."""

import math
from functools import partial

import pytest

from repro.sim.engine import SimulationEngine, SimulationError, stop_simulation


class TestScheduling:
    def test_schedule_runs_callback_at_time(self, engine):
        fired = []
        engine.schedule(1.5, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [1.5]

    def test_schedule_at_absolute_time(self, engine):
        fired = []
        engine.schedule_at(3.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [3.0]

    def test_events_run_in_time_order(self, engine):
        order = []
        engine.schedule(2.0, lambda: order.append("b"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(3.0, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self, engine):
        order = []
        for label in "abcde":
            engine.schedule(1.0, lambda label=label: order.append(label))
        engine.run()
        assert order == list("abcde")

    def test_priority_orders_same_time_events(self, engine):
        order = []
        engine.schedule(1.0, lambda: order.append("control"),
                        priority=SimulationEngine.PRIORITY_CONTROL)
        engine.schedule(1.0, lambda: order.append("data"),
                        priority=SimulationEngine.PRIORITY_DATA)
        engine.run()
        assert order == ["data", "control"]

    def test_callbacks_can_schedule_more_events(self, engine):
        fired = []

        def chain(n):
            fired.append(engine.now)
            if n > 0:
                engine.schedule(1.0, chain, n - 1)

        engine.schedule(1.0, chain, 3)
        engine.run()
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_args_and_kwargs_passed_through(self, engine):
        seen = []
        engine.schedule(0.5, lambda a, b=None: seen.append((a, b)), 1, b="x")
        engine.run()
        assert seen == [(1, "x")]

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_nan_and_inf_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(math.nan, lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule(math.inf, lambda: None)

    def test_schedule_in_past_rejected(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(0.5, lambda: None)


class TestRun:
    def test_run_until_stops_clock_at_horizon(self, engine):
        engine.schedule(10.0, lambda: None)
        end = engine.run(until=5.0)
        assert end == 5.0
        assert engine.pending_events == 1  # the event is still queued

    def test_run_until_executes_events_at_horizon(self, engine):
        fired = []
        engine.schedule(5.0, lambda: fired.append(True))
        engine.run(until=5.0)
        assert fired == [True]

    def test_run_with_empty_queue_advances_to_until(self, engine):
        end = engine.run(until=7.0)
        assert end == 7.0

    def test_max_events_limits_execution(self, engine):
        fired = []
        for i in range(10):
            engine.schedule(float(i + 1), lambda i=i: fired.append(i))
        engine.run(max_events=4)
        assert len(fired) == 4

    def test_stop_simulation_halts_loop(self, engine):
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(2.0, stop_simulation)
        engine.schedule(3.0, lambda: fired.append(3))
        engine.run()
        assert fired == [1]

    def test_events_processed_counter(self, engine):
        for i in range(5):
            engine.schedule(float(i + 1), lambda: None)
        engine.run()
        assert engine.events_processed == 5

    def test_step_executes_single_event(self, engine):
        fired = []
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(2.0, lambda: fired.append("b"))
        assert engine.step() is True
        assert fired == ["a"]
        assert engine.step() is True
        assert engine.step() is False

    def test_reentrant_run_rejected(self, engine):
        def nested():
            engine.run()

        engine.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            engine.run()


class TestFastPaths:
    def test_call_later_fires_with_args(self, engine):
        seen = []
        assert engine.call_later(1.0, lambda a, b: seen.append((a, b)), 1, 2) is None
        engine.run()
        assert seen == [(1, 2)]

    def test_call_at_absolute_time(self, engine):
        fired = []
        engine.call_at(3.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [3.0]

    def test_call_later_validation(self, engine):
        with pytest.raises(SimulationError):
            engine.call_later(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.call_later(math.nan, lambda: None)
        with pytest.raises(SimulationError):
            engine.call_at(-0.5, lambda: None)

    def test_bare_and_event_entries_share_tie_break_order(self, engine):
        order = []
        engine.schedule(1.0, lambda: order.append("event"))
        engine.call_later(1.0, order.append, "bare")
        engine.schedule(1.0, lambda: order.append("event2"))
        engine.run()
        assert order == ["event", "bare", "event2"]


class TestStopCounting:
    def test_stop_event_is_counted_by_run(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, stop_simulation)
        engine.schedule(3.0, lambda: None)
        engine.run()
        # the stopping callback ran, so it counts; the event after it does not
        assert engine.events_processed == 2

    def test_stop_event_is_counted_by_step(self, engine):
        engine.schedule(1.0, stop_simulation)
        assert engine.step() is False
        assert engine.events_processed == 1


class TestCancellationAndReset:
    def test_cancelled_event_does_not_fire(self, engine):
        fired = []
        event = engine.schedule(1.0, lambda: fired.append(True))
        event.cancel()
        engine.run()
        assert fired == []

    def test_cancel_one_of_many(self, engine):
        fired = []
        keep = engine.schedule(1.0, lambda: fired.append("keep"))
        drop = engine.schedule(1.0, lambda: fired.append("drop"))
        drop.cancel()
        engine.run()
        assert fired == ["keep"]
        assert keep.cancelled is False

    def test_reset_clears_queue_and_clock(self, engine):
        engine.schedule(5.0, lambda: None)
        engine.run(until=2.0)
        engine.reset()
        assert engine.now == 0.0
        assert engine.pending_events == 0
        assert engine.events_processed == 0

    def test_reset_with_custom_start_time(self, engine):
        engine.reset(start_time=100.0)
        assert engine.now == 100.0
        fired = []
        engine.schedule(1.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [101.0]

    def test_lazy_cancellation_accounting(self, engine):
        kept = engine.schedule(1.0, lambda: None)
        for _ in range(3):
            engine.schedule(2.0, lambda: None).cancel()
        assert engine.events_cancelled == 0  # nothing discarded yet (lazy)
        assert engine.pending_events == 4
        engine.run()
        assert engine.events_cancelled == 3
        assert engine.events_processed == 1
        assert kept.cancelled is False

    def test_reset_clears_cancellation_counter(self, engine):
        engine.schedule(1.0, lambda: None).cancel()
        engine.run()
        assert engine.events_cancelled == 1
        engine.reset()
        assert engine.events_cancelled == 0


class TestPeek:
    def test_peek_reads_both_entry_shapes_without_running_them(self, engine):
        fired = []
        engine.call_at(2.0, fired.append, "bare")
        engine.schedule(1.0, fired.append, "record")
        assert engine.peek() == (1.0, fired.append, ("record",))
        assert engine.peek_time() == 1.0
        assert engine.now == 0.0 and fired == [] and engine.events_processed == 0
        engine.step()
        assert engine.peek() == (2.0, fired.append, ("bare",))
        engine.step()
        assert engine.peek() is None and engine.peek_time() is None
        assert fired == ["record", "bare"]

    def test_peek_discards_and_counts_cancelled_heads_like_run(self, engine):
        engine.schedule(1.0, lambda: None).cancel()
        engine.schedule(1.5, lambda: None).cancel()
        engine.call_later(2.0, print)
        assert engine.peek() == (2.0, print, ())
        assert engine.events_cancelled == 2
        assert engine.pending_events == 1


def _stream(engine, times, log, label="s"):
    """Merge a stream whose event ``i`` appends ``(label + str(i), its time)`` to ``log``."""

    def record(tag, time):
        assert engine.now == time  # the clock reads the event's time
        log.append((tag, time))

    engine.merge_stream(times, [partial(record, f"{label}{i}") for i in range(len(times))])


def _engine_state(engine):
    """Everything a refused stream must leave as it was (``peek`` first: it discards)."""
    return (engine.peek(), engine.now, engine.pending_events, engine.events_processed,
            engine.events_cancelled)


class TestStream:
    def test_stream_interleaves_with_the_heap_in_time_order(self, engine):
        log = []
        engine.call_at(1.5, log.append, ("h", 1.5))
        engine.schedule_at(3.5, log.append, ("e", 3.5))
        _stream(engine, [1.0, 2.0, 3.0, 4.0], log)
        engine.run()
        assert log == [("s0", 1.0), ("h", 1.5), ("s1", 2.0), ("s2", 3.0), ("e", 3.5),
                       ("s3", 4.0)]

    def test_stream_keeps_its_own_order_at_equal_times(self, engine):
        log = []
        _stream(engine, [1.0, 1.0, 1.0], log)
        engine.run()
        assert [tag for tag, _ in log] == ["s0", "s1", "s2"]

    @pytest.mark.parametrize("priority", [SimulationEngine.PRIORITY_DATA,
                                          SimulationEngine.PRIORITY_FAULT,
                                          SimulationEngine.PRIORITY_CONTROL])
    def test_a_stream_event_runs_before_heap_entries_of_equal_time(self, engine, priority):
        """The tie rule: before bare and record entries, whatever their priority."""
        log = []
        engine.call_at(2.0, log.append, ("bare", 2.0), priority=priority)
        engine.schedule_at(2.0, log.append, ("record", 2.0), priority=priority)
        _stream(engine, [2.0, 2.0], log)
        # scheduled after the stream was merged, and still after it
        engine.call_at(2.0, log.append, ("late", 2.0), priority=priority)
        engine.run()
        assert [tag for tag, _ in log] == ["s0", "s1", "bare", "record", "late"]

    def test_stream_events_count_in_events_processed(self, engine):
        log = []
        engine.call_at(0.5, log.append, ("h", 0.5))
        _stream(engine, [1.0, 2.0, 3.0, 4.0], log)
        engine.run()
        assert engine.events_processed == 5
        assert engine.pending_events == 0

    def test_pending_events_counts_the_heap_only(self, engine):
        _stream(engine, [1.0, 2.0], [])
        engine.call_at(1.5, lambda: None)
        assert engine.pending_events == 1

    def test_callbacks_schedule_heap_events_between_stream_events(self, engine):
        log = []
        engine.merge_stream(
            [1.0, 2.0],
            [lambda now: engine.call_later(0.5, log.append, ("follow-up", now))] * 2,
        )
        engine.run()
        assert log == [("follow-up", 1.0), ("follow-up", 2.0)]
        assert engine.now == 2.5

    def test_peek_and_step_read_the_stream(self, engine):
        log = []
        engine.call_at(1.5, log.append, ("h", 1.5))
        _stream(engine, [1.0, 2.0], log)
        assert engine.peek()[0] == 1.0 and engine.peek()[2] == (1.0,)
        assert engine.step() and log == [("s0", 1.0)]
        assert engine.peek_time() == 1.5
        assert engine.step() and engine.step()
        assert [tag for tag, _ in log] == ["s0", "h", "s1"]
        assert engine.peek() is None and not engine.step()
        assert engine.events_processed == 3

    def test_peek_does_not_discard_cancelled_records_behind_the_stream(self, engine):
        engine.schedule_at(2.0, lambda: None).cancel()
        _stream(engine, [1.0], [])
        assert engine.peek()[0] == 1.0
        assert engine.events_cancelled == 0
        engine.step()
        assert engine.peek() is None and engine.events_cancelled == 1

    def test_run_until_stops_mid_stream_and_resumes(self, engine):
        log = []
        _stream(engine, [1.0, 2.0, 3.0], log)
        assert engine.run(until=2.0) == 2.0
        assert [tag for tag, _ in log] == ["s0", "s1"]
        assert engine.run(until=2.5) == 2.5
        engine.run()
        assert [tag for tag, _ in log] == ["s0", "s1", "s2"]

    def test_max_events_stops_mid_stream(self, engine):
        log = []
        engine.call_at(1.5, log.append, ("h", 1.5))
        _stream(engine, [1.0, 2.0, 3.0], log)
        engine.run(max_events=2)
        assert [tag for tag, _ in log] == ["s0", "h"]
        engine.run(max_events=1)
        assert [tag for tag, _ in log] == ["s0", "h", "s1"]
        assert engine.events_processed == 3 and engine.now == 2.0

    def test_stop_simulation_mid_stream_counts_and_consumes_the_stopping_event(self, engine):
        log = []
        engine.merge_stream([1.0, 2.0, 3.0],
                            [log.append, lambda _time: stop_simulation(), log.append])
        engine.run()
        assert log == [1.0] and engine.now == 2.0 and engine.events_processed == 2
        engine.run()
        assert log == [1.0, 3.0] and engine.events_processed == 3

    def test_stop_simulation_mid_stream_under_step(self, engine):
        engine.merge_stream([1.0, 2.0], [lambda _time: stop_simulation()] * 2)
        assert not engine.step()
        assert engine.events_processed == 1 and engine.peek_time() == 2.0

    def test_a_new_stream_is_taken_once_the_last_is_read(self, engine):
        log = []
        _stream(engine, [1.0], log, "a")
        engine.run()
        _stream(engine, [1.0, 2.0], log, "b")
        engine.run()
        assert [tag for tag, _ in log] == ["a0", "b0", "b1"]

    @pytest.mark.parametrize("times", [
        [1.0, 3.0, 2.0],        # decreasing
        [1.0, math.nan, 2.0],   # NaN inside
        [math.nan],             # NaN alone
        [1.0, math.nan],        # NaN last
        [1.0, math.inf],        # not finite
        [0.5, 1.0],             # before now
    ], ids=["decreasing", "nan-inside", "nan-alone", "nan-last", "inf", "before-now"])
    def test_refused_stream_leaves_the_engine_as_it_was(self, engine, times):
        log = []
        engine.call_at(0.75, log.append, ("h", 0.75))
        engine.schedule_at(0.7, log.append, ("cancelled", 0.7)).cancel()
        _stream(engine, [0.1, 0.2], log, "read")
        engine.run(until=0.6)  # reads the whole first stream
        before = _engine_state(engine)
        with pytest.raises(SimulationError):
            _stream(engine, times, log)
        assert _engine_state(engine) == before
        engine.run()
        assert [tag for tag, _ in log] == ["read0", "read1", "h"]

    def test_a_stream_is_refused_while_the_last_one_has_unread_events(self, engine):
        log = []
        _stream(engine, [1.0, 2.0], log, "old")
        engine.run(until=1.5)
        before = _engine_state(engine)
        with pytest.raises(SimulationError):
            _stream(engine, [3.0], log, "new")
        assert _engine_state(engine) == before
        engine.run()
        assert [tag for tag, _ in log] == ["old0", "old1"]

    def test_mismatched_lengths_are_refused(self, engine):
        with pytest.raises(SimulationError):
            engine.merge_stream([1.0, 2.0], [print])
        with pytest.raises(SimulationError):
            engine.merge_stream([1.0], [])
        assert engine.peek() is None

    def test_merge_while_running_is_refused(self, engine):
        refused = []

        def merge():
            try:
                engine.merge_stream([5.0], [print])
            except SimulationError:
                refused.append(True)

        engine.call_at(1.0, merge)
        engine.run()
        assert refused == [True] and engine.peek() is None

    def test_reset_drops_the_stream(self, engine):
        _stream(engine, [1.0, 2.0], [])
        engine.reset()
        assert engine.peek() is None and not engine.step()
        _stream(engine, [1.0], [])  # an unread stream no longer blocks a new one

    def test_a_stream_read_whole_is_let_go(self, engine):
        times = [1.0, 2.0]
        engine.merge_stream(times, [lambda _time: None] * 2)
        engine.run(until=1.5)
        assert engine._stream_times is times
        engine.run()
        assert not engine._stream_times and not engine._stream_targets
        engine.merge_stream([3.0], [lambda _time: None])
        assert engine.step() and not engine._stream_times
