"""Event queue semantics: ordering, priorities, cancellation."""

import pytest

from repro.sim.eventq import Event, EventQueue, SimulationError


def test_events_fire_in_tick_order():
    eq = EventQueue()
    fired = []
    eq.schedule_callback(lambda: fired.append("late"), 100)
    eq.schedule_callback(lambda: fired.append("early"), 10)
    eq.schedule_callback(lambda: fired.append("middle"), 50)
    assert eq.run() == "empty"
    assert fired == ["early", "middle", "late"]


def test_same_tick_priority_order():
    eq = EventQueue()
    fired = []
    eq.schedule_callback(lambda: fired.append("low"), 5, priority=Event.STAT_PRI)
    eq.schedule_callback(lambda: fired.append("high"), 5, priority=Event.MINIMUM_PRI)
    eq.run()
    assert fired == ["high", "low"]


def test_same_tick_same_priority_fifo():
    eq = EventQueue()
    fired = []
    for i in range(10):
        eq.schedule_callback(lambda i=i: fired.append(i), 7)
    eq.run()
    assert fired == list(range(10))


def test_cannot_schedule_in_past():
    eq = EventQueue()
    eq.schedule_callback(lambda: None, 100)
    eq.run()
    assert eq.cur_tick == 100
    with pytest.raises(SimulationError):
        eq.schedule_callback(lambda: None, 50)


def test_double_schedule_rejected():
    eq = EventQueue()
    event = Event(lambda: None)
    eq.schedule(event, 10)
    with pytest.raises(SimulationError):
        eq.schedule(event, 20)


def test_deschedule_cancels():
    eq = EventQueue()
    fired = []
    event = Event(lambda: fired.append(1))
    eq.schedule(event, 10)
    eq.deschedule(event)
    eq.run()
    assert fired == []
    assert not event.scheduled()


def test_deschedule_unscheduled_raises():
    eq = EventQueue()
    with pytest.raises(SimulationError):
        eq.deschedule(Event(lambda: None))


def test_reschedule_moves_event():
    eq = EventQueue()
    fired = []
    event = Event(lambda: fired.append(eq.cur_tick))
    eq.schedule(event, 10)
    eq.reschedule(event, 30)
    eq.run()
    assert fired == [30]


def test_event_can_be_reused_after_firing():
    eq = EventQueue()
    count = []
    event = Event(lambda: count.append(1))
    eq.schedule(event, 1)
    eq.run()
    eq.schedule(event, 2)
    eq.run()
    assert len(count) == 2


def test_events_may_schedule_events():
    eq = EventQueue()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 5:
            eq.schedule_callback(lambda: chain(depth + 1), eq.cur_tick + 10)

    eq.schedule_callback(lambda: chain(0), 0)
    eq.run()
    assert fired == list(range(6))
    assert eq.cur_tick == 50


def test_max_tick_stops_run():
    eq = EventQueue()
    fired = []
    eq.schedule_callback(lambda: fired.append(1), 10)
    eq.schedule_callback(lambda: fired.append(2), 1000)
    assert eq.run(max_tick=100) == "max_tick"
    assert fired == [1]
    assert not eq.empty()


def test_exit_simulation():
    eq = EventQueue()
    fired = []
    eq.schedule_callback(lambda: eq.exit_simulation("done early"), 5)
    eq.schedule_callback(lambda: fired.append(1), 10)
    assert eq.run() == "done early"
    assert fired == []


def test_max_events():
    eq = EventQueue()
    for i in range(10):
        eq.schedule_callback(lambda: None, i)
    assert eq.run(max_events=3) == "max_events"
    assert eq.events_fired == 3


def test_reset_clears_queue():
    eq = EventQueue()
    eq.schedule_callback(lambda: None, 10)
    eq.reset()
    assert eq.empty()
    assert eq.cur_tick == 0


def test_reset_clears_stale_exit_message():
    eq = EventQueue()
    eq.schedule_callback(lambda: eq.exit_simulation("first cause"), 5)
    assert eq.run() == "first cause"
    eq.reset()
    # A reused queue must not report the previous run's exit cause.
    assert eq._exit_message == ""
    eq.schedule_callback(lambda: None, 1)
    assert eq.run() == "empty"


def test_reset_queue_reports_fresh_exit_cause():
    eq = EventQueue()
    eq.schedule_callback(lambda: eq.exit_simulation("old"), 5)
    eq.run()
    eq.reset()
    eq.schedule_callback(lambda: eq.exit_simulation("new"), 3)
    assert eq.run() == "new"


def test_deschedule_then_empty_squashes_lazily():
    eq = EventQueue()
    event = Event(lambda: None)
    eq.schedule(event, 10)
    assert not eq.empty()
    eq.deschedule(event)
    # The heap entry is squashed lazily; empty() must drop it.
    assert eq.empty()
    assert eq.next_tick() is None


def test_reschedule_squashed_entry_not_fired_twice():
    eq = EventQueue()
    fired = []
    event = Event(lambda: fired.append(eq.cur_tick))
    eq.schedule(event, 10)
    eq.reschedule(event, 50)
    eq.reschedule(event, 20)
    eq.run()
    assert fired == [20]
    assert eq.events_fired == 1


def test_deschedule_after_fire_raises():
    eq = EventQueue()
    event = Event(lambda: None)
    eq.schedule(event, 1)
    eq.run()
    with pytest.raises(SimulationError):
        eq.deschedule(event)


def test_reschedule_unscheduled_event_schedules_it():
    eq = EventQueue()
    fired = []
    event = Event(lambda: fired.append(1))
    eq.reschedule(event, 7)
    eq.run()
    assert fired == [1]


def test_next_tick_skips_squashed_head():
    eq = EventQueue()
    early = Event(lambda: None)
    eq.schedule(early, 5)
    eq.schedule_callback(lambda: None, 9)
    eq.deschedule(early)
    assert eq.next_tick() == 9


def test_try_advance_moves_clock_when_nothing_is_due():
    q = EventQueue()
    assert q.try_advance(500)
    assert q.cur_tick == 500
    assert q.events_fired == 0


def test_try_advance_refuses_to_pass_a_due_event():
    q = EventQueue()
    q.schedule_callback(lambda: None, 300)
    assert not q.try_advance(300)  # due at the target tick: fire it first
    assert not q.try_advance(400)
    assert q.cur_tick == 0
    assert q.try_advance(299)


def test_try_advance_respects_the_running_max_tick():
    q = EventQueue()
    outcome = []

    def run_ahead():
        outcome.append((q.try_advance(1000), q.try_advance(1001)))

    q.schedule_callback(run_ahead, 10)
    assert q.run(max_tick=1000) == "empty"
    assert outcome == [(True, False)]


def test_try_advance_rejects_the_past():
    q = EventQueue()
    q.try_advance(100)
    with pytest.raises(SimulationError):
        q.try_advance(50)


def test_firing_key_is_the_popped_entry():
    eq = EventQueue()
    keys = []
    record = lambda: keys.append(eq.firing_key)  # noqa: E731
    eq.schedule_callback(record, 20)                                # seq 1
    eq.schedule_callback(record, 10, priority=Event.CPU_TICK_PRI)  # seq 2
    eq.schedule_callback(record, 10)                                # seq 3
    assert eq.firing_key is None
    eq.run()
    assert keys == [(10, Event.DEFAULT_PRI, 3),
                    (10, Event.CPU_TICK_PRI, 2),
                    (20, Event.DEFAULT_PRI, 1)]
    eq.reset()
    assert eq.firing_key is None


def test_reserved_seq_orders_like_a_scheduled_event():
    # A caller that keeps its own event takes the seq a schedule() call
    # would give it; at the same (tick, priority) the key then sorts
    # between the events scheduled before and after, as that event would.
    eq = EventQueue()
    keys = {}

    def at(name, priority=Event.DEFAULT_PRI):
        eq.schedule_callback(lambda: keys.update({name: eq.firing_key}), 30,
                             priority=priority)

    at("before")
    reserved = (30, Event.DEFAULT_PRI, eq.reserve_seq())
    at("after")
    at("tick", Event.CPU_TICK_PRI)
    eq.run()
    assert keys["before"] < reserved < keys["after"] < keys["tick"]
    assert keys["after"][2] == reserved[2] + 1
