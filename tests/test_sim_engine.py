"""Unit tests for the discrete-event simulation engine."""

import math

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

    def test_schedule_many_batch(self, engine):
        seen = []
        count = engine.schedule_many((float(t), seen.append, (t,)) for t in (3, 1, 2))
        assert count == 3
        engine.run()
        assert seen == [1, 2, 3]

    def test_schedule_many_keeps_insertion_order_at_equal_times(self, engine):
        seen = []
        engine.schedule_many((1.0, seen.append, (label,)) for label in "abc")
        engine.run()
        assert seen == ["a", "b", "c"]

    def test_schedule_many_rejects_past_times(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_many([(0.5, lambda: None, ())])

    def test_schedule_many_counts_in_events_processed(self, engine):
        engine.schedule_many((float(i + 1), (lambda: None), ()) for i in range(4))
        engine.run()
        assert engine.events_processed == 4


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
