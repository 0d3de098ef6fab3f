"""HPUPool checkout accounting: double releases must be impossible.

Regression: ``release`` used to blindly ``put`` the id back, so a double
release put a duplicate id in the free store — two handlers could "run"
on one HPU and busy time exceeded elapsed time.
"""

import pytest

from repro.core.hpu import HPUPool
from repro.des.engine import Environment


def _take(pool: HPUPool):
    """Take a free HPU the way ``SpinNIC._run_handler`` does."""
    pool._waiting += 1
    try:
        hpu_id = yield pool._free.get()
    finally:
        pool._waiting -= 1
    return hpu_id


def _acquire(env: Environment, pool: HPUPool) -> list:
    got = []

    def proc():
        got.append((yield from _take(pool)))

    env.process(proc())
    env.run()
    return got


class TestCheckoutTracking:
    def test_acquire_release_round_trip(self):
        env = Environment()
        pool = HPUPool(env, 2)
        (a,) = _acquire(env, pool)
        assert pool._checked_out == {a}
        assert len(pool._free) == 1
        pool.release(a)
        assert pool._checked_out == set()
        assert len(pool._free) == 2

    def test_double_release_raises(self):
        env = Environment()
        pool = HPUPool(env, 2)
        (a,) = _acquire(env, pool)
        pool.release(a)
        with pytest.raises(ValueError, match="double release"):
            pool.release(a)
        assert len(pool._free) == 2  # no duplicate id entered the free store

    def test_release_of_never_acquired_id_raises(self):
        env = Environment()
        pool = HPUPool(env, 4)
        with pytest.raises(ValueError, match="not checked out"):
            pool.release(0)
        with pytest.raises(ValueError):
            pool.release(7)  # out of range, as before

    def test_release_with_waiter_hands_over_and_stays_checked_out(self):
        """A release that feeds a queued waiter keeps the id checked out."""
        env = Environment()
        pool = HPUPool(env, 1)
        (a,) = _acquire(env, pool)
        # A second acquirer now queues on the empty free store.
        waiter_got = _acquire(env, pool)
        assert waiter_got == []
        assert pool.waiting == 1
        pool.release(a)
        env.run()
        assert waiter_got == [a]  # handed straight through
        assert pool._checked_out == {a}  # ...and immediately checked out
        assert len(pool._free) == 0
        assert pool.waiting == 0
        pool.release(a)  # the waiter's own, legitimate release
        assert pool._checked_out == set()
        assert len(pool._free) == 1
        with pytest.raises(ValueError, match="double release"):
            pool.release(a)

    def test_utilization_cannot_exceed_one_per_hpu(self):
        """With double releases blocked, busy accounting stays sane."""
        env = Environment()
        pool = HPUPool(env, 1)

        def worker():
            hpu_id = yield from _take(pool)
            start = env.now
            yield env.timeout(100)
            pool.record(hpu_id, start, env.now, "h")
            pool.release(hpu_id)

        for _ in range(3):
            env.process(worker())
        env.run()
        assert env.now == 300  # strictly serialized on the single HPU
        assert pool.busy_ps == env.now
        assert pool.handlers_run == 3
