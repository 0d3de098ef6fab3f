"""HPUPool checkout accounting: double releases must be impossible.

Regression (ISSUE 5): ``release`` used to blindly ``put`` the id back, so
a double release put a duplicate id in the free store — two handlers
could "run" on one HPU and utilization exceeded 1.0.
"""

import pytest

from repro.core.hpu import HPUPool
from repro.des.engine import Environment


def _acquire(env: Environment, pool: HPUPool) -> list:
    got = []

    def proc():
        hpu_id = yield from pool.acquire()
        got.append(hpu_id)

    env.process(proc())
    env.run()
    return got


class TestCheckoutTracking:
    def test_acquire_release_round_trip(self):
        env = Environment()
        pool = HPUPool(env, 2)
        (a,) = _acquire(env, pool)
        assert pool.outstanding == {a}
        assert pool.idle == 1
        pool.release(a)
        assert pool.outstanding == frozenset()
        assert pool.idle == 2

    def test_double_release_raises(self):
        env = Environment()
        pool = HPUPool(env, 2)
        (a,) = _acquire(env, pool)
        pool.release(a)
        with pytest.raises(ValueError, match="double release"):
            pool.release(a)
        assert pool.idle == 2  # no duplicate id entered the free store

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
        pool.release(a)
        env.run()
        assert waiter_got == [a]  # handed straight through
        assert pool.outstanding == {a}  # ...and immediately checked out
        assert pool.idle == 0
        pool.release(a)  # the waiter's own, legitimate release
        assert pool.outstanding == frozenset()
        assert pool.idle == 1
        with pytest.raises(ValueError, match="double release"):
            pool.release(a)

    def test_inline_get_is_tracked(self):
        """SpinNIC inlines ``_free.get()``; tracking lives in the store."""
        env = Environment()
        pool = HPUPool(env, 2)
        got = []

        def inline_proc():
            # Mirrors SpinNIC._run_handler's inlined acquire.
            pool._waiting += 1
            try:
                hpu_id = yield pool._free.get()
            finally:
                pool._waiting -= 1
            got.append(hpu_id)

        env.process(inline_proc())
        env.run()
        assert pool.outstanding == set(got)
        pool.release(got[0])
        with pytest.raises(ValueError):
            pool.release(got[0])

    def test_utilization_cannot_exceed_one_per_hpu(self):
        """With double releases blocked, busy accounting stays sane."""
        env = Environment()
        pool = HPUPool(env, 1)

        def worker():
            hpu_id = yield from pool.acquire()
            start = env.now
            yield env.timeout(100)
            pool.record(hpu_id, start, env.now, "h")
            pool.release(hpu_id)

        for _ in range(3):
            env.process(worker())
        env.run()
        assert env.now == 300  # strictly serialized on the single HPU
        assert pool.utilization() == 1.0
        assert pool.handlers_run == 3
