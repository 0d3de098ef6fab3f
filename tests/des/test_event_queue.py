"""Oracle tests for the event queue: pops follow ``(time, priority, seq)``.

Randomized schedules — mixed priorities, nested mid-drain pushes,
interleaved cancellations — run through the kernel, and the order in which
entries fire must equal a pure-Python sort of the ``(time, priority, seq)``
keys that were pushed.  ``seq`` is unique, so that sort is the whole
contract ``Timeline.canonical_bytes()`` relies on.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import engine as E
from repro.des.engine import PRIORITY_NORMAL, PRIORITY_URGENT

#: Mostly short delays (many timestamp ties) plus a few far timers.
_DELAY = st.one_of(
    st.integers(min_value=0, max_value=5 << 20),
    st.sampled_from([0, 1, 7, 1 << 20, 3 << 20]),
)

_OPS = st.lists(
    st.tuples(_DELAY, st.sampled_from([PRIORITY_URGENT, PRIORITY_NORMAL])),
    min_size=1, max_size=60,
)


def _run_schedule(ops, cancel_every, nested):
    """Run one schedule; returns (fired keys, pushed keys still live, env)."""
    env = E.Environment()
    fired = []
    pushed = {}

    def push(delay, prio, tag, depth):
        handle = env.schedule_callback(delay, None, prio)
        key = (env.now + delay, prio, env.events_scheduled)
        pushed[key] = handle

        def cb():
            fired.append(key)
            if depth < nested:
                # Mid-drain push with a deterministically derived delay.
                push((tag * 7919) % (2 << 20), PRIORITY_NORMAL, tag, depth + 1)

        handle.fn = cb

    for i, (delay, prio) in enumerate(ops):
        push(delay, prio, i, 0)
    if cancel_every:
        for i, key in enumerate(list(pushed)):
            if i % cancel_every == 0:
                pushed.pop(key).cancel()
    env.run()
    return fired, list(pushed), env


@settings(max_examples=60, deadline=None)
@given(ops=_OPS, cancel_every=st.sampled_from([0, 2, 3]),
       nested=st.integers(min_value=0, max_value=2))
def test_pop_order_matches_sorted_oracle(ops, cancel_every, nested):
    fired, live, env = _run_schedule(ops, cancel_every, nested)
    assert fired == sorted(live)
    assert env.peek() is None


@settings(max_examples=30, deadline=None)
@given(ops=_OPS)
def test_timeout_events_match_sorted_oracle(ops):
    """Event payloads (timeouts + callback lists) follow the same order."""
    env = E.Environment()
    observed = []
    for i, (delay, _prio) in enumerate(ops):
        ev = env.timeout(delay, value=i)
        ev.callbacks.append(lambda e: observed.append((env.now, e.value)))
    env.run()
    expected = sorted((delay, i) for i, (delay, _prio) in enumerate(ops))
    assert observed == expected
    assert env.events_scheduled == len(ops)


def test_peek_is_non_mutating():
    env = E.Environment()
    log = []
    env.schedule_fn(5_000_000, lambda: log.append(("far", env.now)))
    assert env.peek() == 5_000_000
    assert env.peek() == 5_000_000  # idempotent
    env.schedule_fn(1_000, lambda: log.append(("near", env.now)))
    assert env.peek() == 1_000
    env.run()
    assert log == [("near", 1_000), ("far", 5_000_000)]


def test_peek_interleaved_with_drain():
    env = E.Environment()
    clocks = []
    for delay in (7, 70, 7_000, 70_000_000):
        env.schedule_fn(delay, lambda: clocks.append(env.now))
    while env.peek() is not None:
        nxt = env.peek()
        env.step()
        assert env.now == nxt
    assert clocks == sorted(clocks) == [7, 70, 7_000, 70_000_000]
    assert env.peek() is None


def _drain_all(env):
    env.run()


def _drain_until_time(env):
    env.run(until=1_000_000)


def _drain_until_event(env):
    env.run(until=env.timeout(500))
    env.run()


def _drain_by_step(env):
    while env.peek() is not None:
        env.step()


@pytest.mark.parametrize("drain", [_drain_all, _drain_until_time,
                                   _drain_until_event, _drain_by_step])
def test_fired_payloads_are_not_retained(drain):
    """Regression: a drained queue must not pin the payloads it fired.

    A caller may keep a finished session (and so its Environment) alive,
    so any reference the queue kept to a fired callable (and everything
    its closure holds) would leak for as long as the caller holds it.
    """
    env = E.Environment()
    refs = []
    for delay in (0, 10, 10, 1_000):
        def payload():
            pass
        refs.append(weakref.ref(payload))
        env.schedule_fn(delay, payload)
        del payload
    drain(env)
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
