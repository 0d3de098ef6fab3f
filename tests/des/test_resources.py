"""Unit tests for Resource, Server, Store and RateLimiter."""

import pytest

from repro.des import Environment, SimulationError, ns
from repro.des.resources import RateLimiter, Resource, ServeChain, Server, Store


class TestResource:
    def test_capacity_one_serializes(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []

        def worker(name, hold):
            req = res.request()
            yield req
            log.append((name, "in", env.now))
            yield env.timeout(hold)
            res.release(req)
            log.append((name, "out", env.now))

        env.process(worker("a", ns(10)))
        env.process(worker("b", ns(10)))
        env.run()
        assert log == [
            ("a", "in", 0),
            ("a", "out", ns(10)),
            ("b", "in", ns(10)),
            ("b", "out", ns(20)),
        ]

    def test_capacity_two_overlaps(self):
        env = Environment()
        res = Resource(env, capacity=2)
        finish = []

        def worker(hold):
            req = res.request()
            yield req
            yield env.timeout(hold)
            res.release(req)
            finish.append(env.now)

        for _ in range(4):
            env.process(worker(ns(10)))
        env.run()
        assert finish == [ns(10), ns(10), ns(20), ns(20)]

    def test_fifo_grant_order(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def worker(name):
            req = res.request()
            yield req
            order.append(name)
            yield env.timeout(1)
            res.release(req)

        for name in "abcde":
            env.process(worker(name))
        env.run()
        assert order == list("abcde")

    def test_release_unheld_raises(self):
        env = Environment()
        res = Resource(env)
        req = res.request()
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    def test_bad_capacity_rejected(self):
        with pytest.raises(SimulationError):
            Resource(Environment(), capacity=0)


class TestServer:
    def test_serialization_and_accounting(self):
        env = Environment()
        port = Server(env, "mem")
        ends = []

        def job(duration):
            yield from port.serve(duration)
            ends.append(env.now)

        env.process(job(ns(100)))
        env.process(job(ns(50)))
        env.run()
        assert ends == [ns(100), ns(150)]
        assert port.busy_time == ns(150)
        assert port.jobs_served == 2
        assert port.utilization() == 1.0

    def test_idle_gap_lowers_utilization(self):
        env = Environment()
        port = Server(env)

        def job():
            yield env.timeout(ns(50))  # idle first half
            yield from port.serve(ns(50))

        env.process(job())
        env.run()
        assert port.utilization() == pytest.approx(0.5)

    def test_negative_duration_rejected(self):
        env = Environment()
        port = Server(env)

        def job():
            yield from port.serve(-1)

        env.process(job())
        with pytest.raises(SimulationError):
            env.run()

    def test_serve_chain_queues_fifo_with_serve(self):
        env = Environment()
        port = Server(env)
        ends = []

        def job(duration):
            yield from port.serve(duration)
            ends.append(("serve", env.now))

        env.process(job(ns(30)))
        env.run(until=ns(1))
        ServeChain(port, ns(20), then=lambda: ends.append(("chain", env.now)))
        env.process(job(ns(10)))
        env.run()
        assert ends == [("serve", ns(30)), ("chain", ns(50)), ("serve", ns(60))]
        assert (port.busy_time, port.jobs_served) == (ns(60), 3)
        assert port.count == 0 and port.queue_length == 0

    def test_server_is_a_capacity_one_resource(self):
        env = Environment()
        port = Server(env)
        assert isinstance(port, Resource) and port.capacity == 1
        ServeChain(port, ns(5))
        port.request()  # queued behind the chain
        env.run()
        assert port.count == 1 and port.busy_time == ns(5)


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        store.put("x")

        def getter():
            item = yield store.get()
            return item

        p = env.process(getter())
        assert env.run(until=p) == "x"

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)

        def getter():
            item = yield store.get()
            return (env.now, item)

        def putter():
            yield env.timeout(ns(30))
            store.put("late")

        p = env.process(getter())
        env.process(putter())
        assert env.run(until=p) == (ns(30), "late")

    def test_fifo_items_and_getters(self):
        env = Environment()
        store = Store(env)
        got = []

        def getter(name):
            item = yield store.get()
            got.append((name, item))

        env.process(getter("g1"))
        env.process(getter("g2"))

        def putter():
            yield env.timeout(1)
            store.put("first")
            store.put("second")

        env.process(putter())
        env.run()
        assert got == [("g1", "first"), ("g2", "second")]


class TestRateLimiter:
    def test_enforces_gap(self):
        env = Environment()
        limiter = RateLimiter(env, gap=ns(6.7))
        grants = []

        def sender(n):
            for _ in range(n):
                yield env.timeout(limiter.claim() - env.now)
                grants.append(env.now)

        env.process(sender(3))
        env.run()
        assert grants == [0, ns(6.7), 2 * ns(6.7)]

    def test_no_backlog_means_no_wait(self):
        env = Environment()
        limiter = RateLimiter(env, gap=ns(10))
        grants = []

        def sender():
            yield env.timeout(limiter.claim() - env.now)
            grants.append(env.now)
            yield env.timeout(ns(100))  # far beyond the gap
            yield env.timeout(limiter.claim() - env.now)
            grants.append(env.now)

        env.process(sender())
        env.run()
        assert grants == [0, ns(100)]

    def test_negative_gap_rejected(self):
        with pytest.raises(SimulationError):
            RateLimiter(Environment(), gap=-1)
