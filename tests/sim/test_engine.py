"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, SimulationError


def test_initial_state():
    eng = Engine()
    assert eng.now == 0
    assert eng.pending_events() == 0
    assert eng.events_processed == 0


def test_schedule_and_run_advances_time():
    eng = Engine()
    fired = []
    eng.schedule(10, fired.append, "a")
    eng.run()
    assert fired == ["a"]
    assert eng.now == 10


def test_events_fire_in_time_order():
    eng = Engine()
    order = []
    eng.schedule(30, order.append, 30)
    eng.schedule(10, order.append, 10)
    eng.schedule(20, order.append, 20)
    eng.run()
    assert order == [10, 20, 30]


def test_same_cycle_events_fire_fifo():
    eng = Engine()
    order = []
    for i in range(5):
        eng.schedule(7, order.append, i)
    eng.run()
    assert order == [0, 1, 2, 3, 4]


def test_zero_delay_runs_after_current_same_cycle_events():
    eng = Engine()
    order = []

    def first():
        order.append("first")
        eng.schedule(0, order.append, "nested")

    eng.schedule(5, first)
    eng.schedule(5, order.append, "second")
    eng.run()
    assert order == ["first", "second", "nested"]


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(-1, lambda: None)


def test_schedule_at_in_past_rejected():
    eng = Engine()
    eng.schedule(10, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.schedule_at(5, lambda: None)


def test_run_until_stops_at_boundary():
    eng = Engine()
    fired = []
    eng.schedule(5, fired.append, "early")
    eng.schedule(50, fired.append, "late")
    eng.run(until=10)
    assert fired == ["early"]
    assert eng.now == 10
    assert eng.pending_events() == 1
    eng.run()
    assert fired == ["early", "late"]


def test_run_until_includes_events_at_boundary():
    eng = Engine()
    fired = []
    eng.schedule(10, fired.append, "at")
    eng.run(until=10)
    assert fired == ["at"]


def test_max_events_limit():
    eng = Engine()
    for i in range(10):
        eng.schedule(i, lambda: None)
    executed = eng.run(max_events=4)
    assert executed == 4
    assert eng.pending_events() == 6


def test_events_can_schedule_more_events():
    eng = Engine()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 5:
            eng.schedule(1, chain, n + 1)

    eng.schedule(0, chain, 0)
    eng.run()
    assert seen == [0, 1, 2, 3, 4, 5]
    assert eng.now == 5


def test_step_executes_single_event():
    eng = Engine()
    fired = []
    eng.schedule(1, fired.append, 1)
    eng.schedule(2, fired.append, 2)
    assert eng.step()
    assert fired == [1]
    assert eng.step()
    assert not eng.step()


def test_peek_time():
    eng = Engine()
    assert eng.peek_time() is None
    eng.schedule(42, lambda: None)
    assert eng.peek_time() == 42


def test_events_processed_counter():
    eng = Engine()
    for i in range(7):
        eng.schedule(i, lambda: None)
    eng.run()
    assert eng.events_processed == 7


def test_reentrant_run_rejected():
    eng = Engine()

    def nested():
        with pytest.raises(SimulationError):
            eng.run()

    eng.schedule(0, nested)
    eng.run()


def test_callback_args_passed_through():
    eng = Engine()
    got = []
    eng.schedule(1, lambda a, b, c: got.append((a, b, c)), 1, "x", None)
    eng.run()
    assert got == [(1, "x", None)]


def test_run_until_advances_clock_when_queue_drains_early():
    eng = Engine()
    eng.schedule(5, lambda: None)
    eng.run(until=20)
    assert eng.now == 20


def test_run_until_advances_clock_on_empty_queue():
    eng = Engine()
    eng.run(until=15)
    assert eng.now == 15


def test_run_until_never_moves_clock_backwards():
    eng = Engine()
    eng.schedule(30, lambda: None)
    eng.run()
    assert eng.now == 30
    eng.run(until=10)
    assert eng.now == 30


def test_max_events_break_does_not_jump_to_until():
    eng = Engine()
    for i in range(10):
        eng.schedule(i, lambda: None)
    eng.run(until=100, max_events=4)
    # events at cycles 4..9 are still due before 100, so the clock must
    # stay at the last executed event, not leap to the bound
    assert eng.now == 3
    assert eng.pending_events() == 6


def test_max_events_break_after_queue_drained_still_advances():
    eng = Engine()
    eng.schedule(2, lambda: None)
    eng.run(until=50, max_events=1)
    assert eng.now == 50


class TestHasPendingNow:
    """``has_pending_now`` is exactly ``peek_time() == now``."""

    @staticmethod
    def _agree(eng):
        expected = eng.peek_time() == eng.now
        assert eng.has_pending_now() is expected
        return expected

    def test_empty_engine(self):
        eng = Engine()
        assert not self._agree(eng)

    def test_pending_same_cycle_event(self):
        eng = Engine()
        seen = []

        def first():
            eng.schedule(0, seen.append, "second")
            seen.append(self._agree(eng))

        eng.schedule(0, first)
        eng.run()
        assert seen == [True, "second"]

    def test_exhausted_bucket_with_later_ring_events(self):
        eng = Engine()
        seen = []
        eng.schedule(3, lambda: seen.append(self._agree(eng)))
        eng.schedule(5, lambda: None)
        eng.run(until=4)
        # the cycle-3 bucket is dispatched, cycle 5 is still pending
        assert seen == [False]
        assert not self._agree(eng)

    def test_far_heap_only(self):
        eng = Engine()
        seen = []

        def probe():
            eng.schedule(Engine.HORIZON * 3, lambda: None)
            seen.append(self._agree(eng))

        eng.schedule(1, probe)
        eng.run()
        assert seen == [False]

    def test_random_schedules(self):
        import random

        rng = random.Random(7)
        eng = Engine()
        checks = []

        def tick(depth):
            checks.append(self._agree(eng))
            if depth < 6:
                for _ in range(rng.randrange(3)):
                    delay = rng.choice((0, 0, 1, 2, Engine.HORIZON - 1,
                                        Engine.HORIZON + 5, 3 * Engine.HORIZON))
                    eng.schedule(delay, tick, depth + 1)

        for _ in range(4):
            eng.schedule(rng.randrange(4), tick, 0)
        eng.run()
        # both outcomes were exercised
        assert True in checks and False in checks
