from heapq import heappush

import pytest

from scadasim.engine import MS_PER_STEP, Engine, SimulationError, derive_seed


def collect_order(engine, log):
    def handler(eng, kind, payload):
        log.append((eng.now, kind))
    return handler


def test_dispatch_follows_due_then_insertion_order():
    engine = Engine()
    log = []
    engine.register("a", collect_order(engine, log))
    engine.schedule(5000, "a", "late")
    engine.schedule(3000, "a", "early")
    engine.schedule(3000, "a", "early-second")  # same due: insertion order
    engine.schedule(4500, "a", "mid")
    processed = engine.run(10_000)
    assert [k for _, k in log] == ["early", "early-second", "mid", "late"]
    assert processed == 4
    assert engine.now == 5000


def test_handler_scheduling_later_event_is_dispatched_after_current_step():
    engine = Engine()
    order = []

    def handler(eng, kind, payload):
        order.append(kind)
        if kind == "first":
            eng.schedule(5000, "a", "chained")

    engine.register("a", handler)
    engine.schedule(3000, "a", "first")
    engine.schedule(4000, "a", "second")
    engine.run(9000)
    assert order == ["first", "second", "chained"]


def test_empty_queue_run_keeps_clock_at_zero():
    engine = Engine()
    assert engine.run(100_000) == 0
    assert engine.now == 0


def test_until_before_first_event_dispatches_nothing():
    engine = Engine()
    engine.register("a", lambda e, kind, payload: None)
    engine.schedule(10000, "a", "later")
    assert engine.run(5000) == 0


def test_scheduling_in_the_past_is_fatal():
    engine = Engine()
    engine.register("a", lambda e, kind, payload: e.schedule(0, "a", "bad"))
    engine.schedule(2000, "a", "go")
    # raised in a handler, the SimulationError is not wrapped as a handler failure
    with pytest.raises(SimulationError,
                       match=r"^event a/bad scheduled at 0ms in the past \(clock 2000ms\)$"):
        engine.run(3000)


def test_unknown_target_is_fatal_and_names_the_event():
    engine = Engine(trace=True)
    engine.schedule(1000, "ghost", "boo")
    with pytest.raises(SimulationError,
                       match=r"^no component registered for event ghost/boo$") as info:
        engine.run(2000)
    assert info.value.__cause__ is None
    # it fails before its trace line is written
    assert engine.trace_lines == []


def test_a_handler_raising_key_error_is_a_handler_failure():
    engine = Engine(trace=True)

    def lookup(eng, kind, payload):
        return {}[payload]

    engine.register("a", lookup)
    engine.schedule(1005, "a", "k", "missing")
    with pytest.raises(SimulationError,
                       match=r"^handler failed on event a/k at 1005ms: 'missing'$") as info:
        engine.run(2000)
    assert isinstance(info.value.__cause__, KeyError)
    # it fails after its trace line is written
    assert engine.trace_lines == ["1,5,0,a,k"]


def test_events_pushed_onto_the_heap_share_the_seq_order_of_scheduled_ones():
    engine = Engine(trace=True)
    engine.register("a", lambda e, kind, payload: None)
    engine.schedule(1000, "a", "scheduled")
    heappush(engine.heap, (1000, next(engine.seq), "a", "pushed", None))
    engine.schedule(1000, "a", "scheduled-again")
    assert engine.run(2000) == 3
    assert engine.trace_lines == ["1,0,0,a,scheduled", "1,0,1,a,pushed",
                                  "1,0,2,a,scheduled-again"]


def test_handler_failure_aborts_with_event_name():
    engine = Engine()

    def boom(eng, kind, payload):
        raise ValueError("inner")

    engine.register("a", boom)
    engine.schedule(1005, "a", "explode")
    with pytest.raises(SimulationError, match="a/explode"):
        engine.run(2000)


def test_trace_replay_determinism():
    def run_once():
        engine = Engine(trace=True)

        def handler(eng, kind, payload):
            step = eng.now // MS_PER_STEP
            if kind == "tick" and step < 5:
                eng.schedule((step + 1) * MS_PER_STEP, "a", "tick")
                eng.schedule((step + 1) * MS_PER_STEP + 250, "b", "sub")

        engine.register("a", handler)
        engine.register("b", lambda e, kind, payload: None)
        engine.schedule(0, "a", "tick")
        engine.run(50000)
        return engine.trace_lines

    first = run_once()
    second = run_once()
    assert first == second
    assert first[0] == "0,0,0,a,tick"
    assert first[2] == "1,250,2,b,sub"


def test_no_event_dispatched_twice_and_none_skipped():
    engine = Engine()
    seen = []
    engine.register("a", lambda e, kind, payload: seen.append(payload))
    for step in range(20):
        engine.schedule(step * MS_PER_STEP + step % 7, "a", "e", step)
    engine.run(19999)
    assert sorted(seen) == list(range(20))
    assert len(set(seen)) == 20


def test_derive_seed_is_stable_and_component_scoped():
    assert derive_seed(42, "net") == derive_seed(42, "net")
    assert derive_seed(42, "net") != derive_seed(42, "grid")
    assert derive_seed(42, "net") != derive_seed(43, "net")
