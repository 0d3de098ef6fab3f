"""PopulationDriver: fluid arrivals, per-client fallback, bounded memory.

The aggregated driver's contract has three legs:

* ``fluid=False`` **is** today's ``ClosedLoopDriver`` — same RNG
  schedule, same processes, byte-identical summaries;
* small fluid populations reproduce the per-client driver's summary
  statistics (machine-repairman aggregation is statistically exact for
  exponential think times);
* memory is O(in-flight), never O(population) — a million-client
  population must run with a handful of live request objects.
"""

import pytest

from repro.core.handlers import ReturnCode
from repro.sim import ClosedLoopDriver, Metrics, PopulationDriver, Session

TAG = 33

#: Walk flavours: the fast callback chains and the generator reference paths.
FLAVOURS = (True, False)


def _set_flavour(monkeypatch, fast: bool) -> None:
    monkeypatch.setenv("REPRO_FABRIC_FAST_PATH", "1" if fast else "0")
    monkeypatch.setenv("REPRO_NIC_FAST_RX", "1" if fast else "0")


def _serve_session(nodes: int = 2, target: int = 1, **overrides) -> Session:
    sess = Session.pair("int", nodes=nodes, **overrides)

    def header_handler(ctx, h):
        ctx.charge(16)
        return ReturnCode.DROP

    sess.connect(target, match_bits=TAG, length=1 << 30,
                 header_handler=header_handler)
    return sess


def _run_fluid(requests=200, population=8, think_ns=2000.0, seed=7,
               streaming=True, trace=False, **driver_kwargs):
    with _serve_session(trace=trace) as sess:
        metrics = Metrics(streaming=streaming)
        driver = PopulationDriver(
            sess, sources=(0,), population=population, requests=requests,
            think_ns=think_ns, target=1, match_bits=TAG, seed=seed,
            metrics=metrics, **driver_kwargs,
        )
        driver.start()
        sess.drain()
        lost = driver.finalize()
        summary = metrics.summary(elapsed_ps=sess.env.now)
        trace_bytes = sess.timeline.canonical_bytes() if trace else b""
    return summary, driver, lost, trace_bytes


class TestValidation:
    def test_fluid_needs_positive_think(self):
        with _serve_session() as sess:
            with pytest.raises(ValueError, match="think_ns"):
                PopulationDriver(sess, sources=(0,), population=4,
                                 requests=8, think_ns=0.0, target=1,
                                 match_bits=TAG)

    def test_per_client_mode_needs_divisible_requests(self):
        with _serve_session() as sess:
            with pytest.raises(ValueError, match="divide"):
                PopulationDriver(sess, sources=(0,), population=4,
                                 requests=10, think_ns=100.0, fluid=False,
                                 target=1, match_bits=TAG)

    def test_load_profile_requires_fluid(self):
        with _serve_session() as sess:
            with pytest.raises(ValueError, match="load_profile"):
                PopulationDriver(sess, sources=(0,), population=4,
                                 requests=8, think_ns=100.0, fluid=False,
                                 load_profile=lambda t: 1.0,
                                 target=1, match_bits=TAG)

    def test_negative_profile_rejected_at_runtime(self):
        with _serve_session() as sess:
            driver = PopulationDriver(
                sess, sources=(0,), population=4, requests=8,
                think_ns=100.0, load_profile=lambda t: -1.0,
                target=1, match_bits=TAG)
            driver.start()
            with pytest.raises(ValueError, match="load_profile"):
                sess.drain()


class TestPerClientFallback:
    def test_fluid_false_is_byte_identical_to_closed_loop(self):
        """population=N, fluid=False must *be* ClosedLoopDriver(clients=N):
        same think draws, same request schedule, same elapsed time — the
        whole summary dict, throughput included, is equal."""
        kwargs = dict(think_ns=2000.0, target=1, match_bits=TAG, seed=7)

        with _serve_session() as sess:
            m1 = Metrics()
            ref = ClosedLoopDriver(sess, sources=(0,), clients=8,
                                   requests_per_client=25, metrics=m1,
                                   **kwargs)
            ref.start()
            sess.drain()
            ref.finalize()
            expected = m1.summary(elapsed_ps=sess.env.now)

        with _serve_session() as sess:
            m2 = Metrics()
            driver = PopulationDriver(sess, sources=(0,), population=8,
                                      requests=200, fluid=False, metrics=m2,
                                      **kwargs)
            driver.start()
            sess.drain()
            driver.finalize()
            actual = m2.summary(elapsed_ps=sess.env.now)

        assert actual == expected


class TestFluidEquivalence:
    def test_small_fluid_population_matches_closed_loop_statistics(self):
        """The acceptance property: a small fluid population reproduces
        the per-client driver's summary statistics.  Counts are exact;
        latency/throughput agree statistically (different arrival
        microstructure, same offered load and service path)."""
        fluid, _, lost, _ = _run_fluid(requests=400, population=8,
                                       think_ns=2000.0, streaming=False)
        assert lost == 0

        with _serve_session() as sess:
            metrics = Metrics()
            ref = ClosedLoopDriver(sess, sources=(0,), clients=8,
                                   requests_per_client=50, think_ns=2000.0,
                                   target=1, match_bits=TAG, seed=7,
                                   metrics=metrics)
            ref.start()
            sess.drain()
            ref.finalize()
            per_client = metrics.summary(elapsed_ps=sess.env.now)

        assert fluid["completed"] == per_client["completed"] == 400
        assert fluid["dropped"] == per_client["dropped"] == 0
        # Same offered load → same latency regime and similar duration.
        assert fluid["mean_ns"] == pytest.approx(per_client["mean_ns"],
                                                 rel=0.15)
        assert fluid["p50_ns"] == pytest.approx(per_client["p50_ns"],
                                                rel=0.15)
        assert fluid["elapsed_ns"] == pytest.approx(
            per_client["elapsed_ns"], rel=0.30)

    def test_fluid_concurrency_never_exceeds_population(self):
        _, driver, _, _ = _run_fluid(requests=300, population=5,
                                     think_ns=500.0)
        assert 1 <= driver.peak_in_flight <= 5

    def test_max_in_flight_caps_concurrency(self):
        _, driver, _, _ = _run_fluid(requests=200, population=1000,
                                     think_ns=200.0, max_in_flight=3)
        assert driver.peak_in_flight <= 3

    def test_million_client_population_is_rate_not_objects(self):
        """A 1M-client population issues its requests with only a few
        request objects ever live — O(in-flight), not O(population)."""
        summary, driver, _, _ = _run_fluid(requests=500,
                                           population=1_000_000,
                                           think_ns=2.5e8)
        assert summary["completed"] == 500
        assert driver.peak_in_flight < 64
        assert len(driver._pending) == 0  # all reconciled

    def test_zero_profile_trough_does_not_deadlock(self):
        """A diurnal profile that hits exactly zero with nothing in
        flight must still finish (the rate floor turns 'off' into 'very
        rare'), not strand the remaining requests forever."""
        summary, _, lost, _ = _run_fluid(
            requests=20, population=4, think_ns=100.0,
            load_profile=lambda t_ns: 0.0 if t_ns < 1000.0 else 1.0)
        assert summary["completed"] == 20
        assert lost == 0


class TestDeterminism:
    def test_same_seed_same_summary(self):
        a, *_ = _run_fluid(seed=7)
        b, *_ = _run_fluid(seed=7)
        assert a == b

    def test_seed_steers_the_arrival_process(self):
        a, *_ = _run_fluid(seed=7)
        b, *_ = _run_fluid(seed=8)
        assert a != b

    def test_canonical_bytes_identical_across_all_flavours(self, monkeypatch):
        """The acceptance contract: a fluid population run is
        byte-identical across the fast/slow walk flavours."""
        results = []
        for fast in FLAVOURS:
            _set_flavour(monkeypatch, fast)
            summary, _, _, blob = _run_fluid(requests=60, population=6,
                                             think_ns=1500.0, trace=True)
            results.append((summary["completed"], blob))
        first = results[0]
        assert first[0] == 60
        for got, fast in zip(results[1:], FLAVOURS[1:]):
            assert got == first, f"flavour (fast={fast}) diverged"
