"""Unit tests for the DES kernel (environment, events, processes)."""

import pytest

from repro.des import (
    AllOf,
    AnyOf,
    Environment,
    SimulationError,
    ns,
    ps_to_ns,
    ps_to_us,
    us,
)


class TestUnits:
    def test_ns_round_trip(self):
        assert ns(65) == 65_000
        assert ps_to_ns(ns(65)) == 65.0

    def test_us_round_trip(self):
        assert us(1.5) == 1_500_000
        assert ps_to_us(us(1.5)) == 1.5

    def test_fractional_ns(self):
        assert ns(6.7) == 6_700
        assert ns(0.02) == 20  # 20 ps/B line rate


class TestTimeout:
    def test_single_timeout_advances_clock(self):
        env = Environment()
        env.timeout(ns(100))
        env.run()
        assert env.now == ns(100)

    def test_timeouts_fire_in_order(self):
        env = Environment()
        fired = []
        for delay in (ns(30), ns(10), ns(20)):
            env.timeout(delay).callbacks.append(
                lambda e, d=delay: fired.append((env.now, d))
            )
        env.run()
        assert fired == [(ns(10), ns(10)), (ns(20), ns(20)), (ns(30), ns(30))]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_zero_delay_fifo_order(self):
        env = Environment()
        order = []
        env.timeout(0).callbacks.append(lambda e: order.append("a"))
        env.timeout(0).callbacks.append(lambda e: order.append("b"))
        env.run()
        assert order == ["a", "b"]


class TestProcess:
    def test_process_returns_value(self):
        env = Environment()

        def proc():
            yield env.timeout(ns(5))
            return 42

        p = env.process(proc())
        result = env.run(until=p)
        assert result == 42
        assert env.now == ns(5)

    def test_sequential_waits_accumulate(self):
        env = Environment()
        times = []

        def proc():
            yield env.timeout(ns(10))
            times.append(env.now)
            yield env.timeout(ns(20))
            times.append(env.now)

        env.process(proc())
        env.run()
        assert times == [ns(10), ns(30)]

    def test_process_waits_on_process(self):
        env = Environment()

        def child():
            yield env.timeout(ns(7))
            return "done"

        def parent():
            result = yield env.process(child())
            return (env.now, result)

        p = env.process(parent())
        assert env.run(until=p) == (ns(7), "done")

    def test_yield_non_event_raises(self):
        env = Environment()

        def bad():
            yield 42

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_exception_propagates_to_waiter(self):
        env = Environment()

        def failing():
            yield env.timeout(1)
            raise ValueError("boom")

        def waiter():
            try:
                yield env.process(failing())
            except ValueError as exc:
                return f"caught {exc}"

        p = env.process(waiter())
        assert env.run(until=p) == "caught boom"

    def test_unhandled_process_exception_surfaces(self):
        env = Environment()

        def failing():
            yield env.timeout(1)
            raise ValueError("unhandled")

        env.process(failing())
        with pytest.raises(ValueError, match="unhandled"):
            env.run()

    def test_wait_already_processed_event(self):
        env = Environment()
        ev = env.event()
        ev.succeed("早い")
        env.run()  # ev gets processed
        assert ev.processed

        def proc():
            value = yield ev
            return value

        p = env.process(proc())
        assert env.run(until=p) == "早い"

    def test_timeout_value_passthrough(self):
        env = Environment()

        def proc():
            got = yield env.timeout(5, value="payload")
            return got

        p = env.process(proc())
        assert env.run(until=p) == "payload"


class TestEvent:
    def test_double_succeed_raises(self):
        env = Environment()
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")

    def test_value_before_trigger_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_manual_trigger_wakes_process(self):
        env = Environment()
        gate = env.event()

        def opener():
            yield env.timeout(ns(50))
            gate.succeed("open")

        def waiter():
            value = yield gate
            return (env.now, value)

        env.process(opener())
        p = env.process(waiter())
        assert env.run(until=p) == (ns(50), "open")


class TestConditions:
    def test_all_of_waits_for_slowest(self):
        env = Environment()

        def proc():
            t1 = env.timeout(ns(10), value="a")
            t2 = env.timeout(ns(30), value="b")
            results = yield AllOf(env, [t1, t2])
            return (env.now, sorted(results.values()))

        p = env.process(proc())
        assert env.run(until=p) == (ns(30), ["a", "b"])

    def test_any_of_fires_on_fastest(self):
        env = Environment()

        def proc():
            t1 = env.timeout(ns(10), value="fast")
            t2 = env.timeout(ns(30), value="slow")
            results = yield AnyOf(env, [t1, t2])
            return (env.now, list(results.values()))

        p = env.process(proc())
        assert env.run(until=p) == (ns(10), ["fast"])

    def test_all_of_empty_fires_immediately(self):
        env = Environment()

        def proc():
            yield AllOf(env, [])
            return env.now

        p = env.process(proc())
        assert env.run(until=p) == 0


class TestRun:
    def test_run_until_time_stops_clock_exactly(self):
        env = Environment()
        env.timeout(ns(100))
        env.run(until=ns(40))
        assert env.now == ns(40)
        env.run()
        assert env.now == ns(100)

    def test_run_until_past_raises(self):
        env = Environment()
        env.timeout(ns(10))
        env.run()
        with pytest.raises(SimulationError):
            env.run(until=ns(5))

    def test_run_until_unfired_event_raises(self):
        env = Environment()
        ev = env.event()  # never triggered
        with pytest.raises(SimulationError):
            env.run(until=ev)

    def test_step_empty_queue_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.step()
