"""Property-based tests (hypothesis) for DES kernel invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Event, ns
from repro.des.engine import PRIORITY_NORMAL, PRIORITY_URGENT
from repro.des.resources import RateLimiter, Resource, Server


@given(delays=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=50))
def test_callbacks_fire_in_nondecreasing_time_order(delays):
    """No matter the insertion order, observed fire times never go backwards."""
    env = Environment()
    observed = []
    for d in delays:
        env.timeout(d).callbacks.append(lambda e: observed.append(env.now))
    env.run()
    assert observed == sorted(observed)
    assert env.now == max(delays)


@given(delays=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=30))
def test_sequential_process_time_is_sum_of_delays(delays):
    env = Environment()

    def proc():
        for d in delays:
            yield env.timeout(d)
        return env.now

    p = env.process(proc())
    assert env.run(until=p) == sum(delays)


@given(
    durations=st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=30)
)
def test_server_total_busy_equals_sum_and_makespan(durations):
    """A serializing port's makespan for simultaneous arrivals is the sum."""
    env = Environment()
    port = Server(env)
    done = []

    def job(d):
        yield from port.serve(d)
        done.append(env.now)

    for d in durations:
        env.process(job(d))
    env.run()
    assert port.busy_time == sum(durations)
    assert max(done) == sum(durations)
    # FIFO: completion times are the prefix sums.
    prefix = 0
    expected = []
    for d in durations:
        prefix += d
        expected.append(prefix)
    assert done == expected


@given(
    capacity=st.integers(min_value=1, max_value=8),
    njobs=st.integers(min_value=1, max_value=40),
    hold=st.integers(min_value=1, max_value=1000),
)
def test_resource_never_exceeds_capacity(capacity, njobs, hold):
    env = Environment()
    res = Resource(env, capacity=capacity)
    max_seen = 0

    def worker():
        nonlocal max_seen
        req = res.request()
        yield req
        max_seen = max(max_seen, res.count)
        yield env.timeout(hold)
        res.release(req)

    for _ in range(njobs):
        env.process(worker())
    env.run()
    assert max_seen <= capacity
    assert res.count == 0
    # Makespan for identical jobs = ceil(njobs/capacity) * hold.
    assert env.now == -(-njobs // capacity) * hold


@given(
    gap=st.integers(min_value=0, max_value=10**5),
    n=st.integers(min_value=2, max_value=30),
)
@settings(max_examples=50)
def test_rate_limiter_minimum_spacing(gap, n):
    env = Environment()
    limiter = RateLimiter(env, gap=gap)
    grants = []

    def sender():
        for _ in range(n):
            yield env.timeout(limiter.claim() - env.now)
            grants.append(env.now)

    env.process(sender())
    env.run()
    for a, b in zip(grants, grants[1:]):
        assert b - a >= gap


@given(st.data())
def test_unit_conversions_consistent(data):
    value = data.draw(st.floats(min_value=0, max_value=1e6, allow_nan=False))
    # ns() rounds to the nearest picosecond: error bounded by 0.5 ps.
    assert abs(ns(value) - value * 1000) <= 0.5


# --- event-ordering invariants of the kernel queue -------------------------
#
# The heap orders by (time, priority, _seq): same-timestamp URGENT events
# run before NORMAL ones, and within one (time, priority) class events fire
# in scheduling (FIFO) order.  These are white-box tests against
# Environment._schedule — the exact contract process resumption and the
# golden-trace determinism guarantees are built on.


def _prearmed_event(env, callback):
    """A successful event ready to be pushed onto the queue directly."""
    ev = Event(env)
    ev._ok = True
    ev._value = None
    ev.callbacks.append(callback)
    return ev


@given(
    schedule=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),  # delay: force collisions
            st.sampled_from([PRIORITY_URGENT, PRIORITY_NORMAL]),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_same_timestamp_urgent_before_normal_and_fifo(schedule):
    """Fire order == sort by (time, priority, insertion index)."""
    env = Environment()
    fired = []
    for idx, (delay, priority) in enumerate(schedule):
        ev = _prearmed_event(env, lambda e, idx=idx: fired.append(idx))
        env._schedule(ev, priority, delay)
    env.run()
    expected = [
        idx
        for idx, (delay, priority) in sorted(
            enumerate(schedule), key=lambda item: (item[1][0], item[1][1], item[0])
        )
    ]
    assert fired == expected


@given(
    delays=st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=40)
)
def test_timeouts_with_equal_delay_fire_in_creation_order(delays):
    """Timeout events (all NORMAL) tie-break FIFO via _seq."""
    env = Environment()
    fired = []
    for idx, d in enumerate(delays):
        env.timeout(d).callbacks.append(lambda e, idx=idx: fired.append(idx))
    env.run()
    expected = [
        idx for idx, d in sorted(enumerate(delays), key=lambda item: (item[1], item[0]))
    ]
    assert fired == expected


@given(
    n_normal=st.integers(min_value=1, max_value=20),
    n_urgent=st.integers(min_value=1, max_value=20),
    delay=st.integers(min_value=0, max_value=1000),
)
def test_urgent_class_fully_precedes_normal_class(n_normal, n_urgent, delay):
    """Interleaved scheduling never lets a NORMAL event pre-empt an URGENT one."""
    env = Environment()
    fired = []
    # Interleave the two classes at the same timestamp.
    for i in range(max(n_normal, n_urgent)):
        if i < n_normal:
            ev = _prearmed_event(env, lambda e: fired.append("N"))
            env._schedule(ev, PRIORITY_NORMAL, delay)
        if i < n_urgent:
            ev = _prearmed_event(env, lambda e: fired.append("U"))
            env._schedule(ev, PRIORITY_URGENT, delay)
    env.run()
    assert fired == ["U"] * n_urgent + ["N"] * n_normal
    assert env.now == delay


@given(
    schedule=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3),
                  st.sampled_from([PRIORITY_URGENT, PRIORITY_NORMAL])),
        min_size=1,
        max_size=40,
    )
)
def test_replay_is_deterministic(schedule):
    """Two environments fed the same schedule fire in the same order."""

    def run_once():
        env = Environment()
        fired = []
        for idx, (delay, priority) in enumerate(schedule):
            ev = _prearmed_event(env, lambda e, idx=idx: fired.append(idx))
            env._schedule(ev, priority, delay)
        env.run()
        return fired

    assert run_once() == run_once()
