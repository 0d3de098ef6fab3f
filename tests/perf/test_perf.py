"""Perf subsystem: kernel meter and the pinned basket event counts."""

import json
from pathlib import Path

import pytest

from repro.campaign.__main__ import main as campaign_main
from repro.des.engine import Environment
from repro.experiments.pingpong import pingpong_half_rtt_ns
from repro.perf.basket import BASKETS, run_baskets
from repro.perf.meter import KernelMeter

REPO = Path(__file__).resolve().parents[2]

#: basket -> (kernel_events, environments) of one ``run_baskets`` pass.
#: The simulation is deterministic, so these are exact on any host.  A
#: change that moves a count on purpose updates it here and says why.
#: Every session builds its own environment, so the two microbenchmark
#: baskets count one environment per pingpong/accumulate call (64 and 12).
TINY_COUNTS = {
    "small-message": (1840, 64),
    "large-message": (5666, 12),
    "storage-trace": (35970, 4),
    "app-scale": (37028, 4),
    "congestion": (29312, 3),
    "kernel-ops": (40200, 8),
    "serving": (66468, 2),
}


class TestKernelMeter:
    def test_counts_events_across_environments(self):
        with KernelMeter() as meter:
            for _ in range(3):
                env = Environment()
                for _ in range(5):
                    env.timeout(10)
                env.run()
        assert meter.environments == 3
        assert meter.events == 15
        assert meter.wall_s > 0
        assert meter.events_per_sec > 0

    def test_environments_outside_window_not_counted(self):
        outside = Environment()
        outside.timeout(1)
        with KernelMeter() as meter:
            env = Environment()
            env.timeout(1)
            env.run()
        assert meter.events == 1

    def test_nested_meters_rejected(self):
        with KernelMeter():
            with pytest.raises(RuntimeError):
                KernelMeter().__enter__()
        # The outer exit must have restored the hook.
        with KernelMeter() as m:
            Environment().timeout(1)
        assert m.events == 1

    def test_counts_each_session_environment(self):
        # Each pingpong builds a fresh session, so two calls register two
        # environments and schedule exactly twice the events of one.
        with KernelMeter() as one:
            pingpong_half_rtt_ns(64, "spin_store", "int")
        with KernelMeter() as two:
            pingpong_half_rtt_ns(64, "spin_store", "int")
            pingpong_half_rtt_ns(64, "spin_store", "int")
        assert (one.environments, two.environments) == (1, 2)
        assert one.events > 0
        assert two.events == 2 * one.events


class TestBasket:
    def test_basket_names_fixed(self):
        # Append-only: existing entries must never change or reorder.
        assert list(BASKETS) == [
            "small-message", "large-message", "storage-trace", "app-scale",
            "congestion", "kernel-ops", "serving",
        ]

    def test_tiny_run_produces_document(self):
        doc = run_baskets(names=["small-message"])
        basket = doc["baskets"]["small-message"]
        assert basket["kernel_events"] > 0
        assert basket["events_per_sec"] > 0
        assert basket["scale"] == BASKETS["small-message"][1]

    @pytest.mark.parametrize("name", list(TINY_COUNTS))
    def test_basket_counts_match_pin(self, name):
        basket = run_baskets(names=[name])["baskets"][name]
        measured = (basket["kernel_events"], basket["environments"])
        assert measured == TINY_COUNTS[name], (
            f"{name}: (kernel_events, environments) = {measured}, "
            f"pinned {TINY_COUNTS[name]}")

    def test_unknown_basket_rejected(self):
        with pytest.raises(ValueError):
            run_baskets(names=["nope"])

    def test_unknown_basket_cli_exits_2(self, capsys):
        assert campaign_main(["perf", "-b", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown basket 'nope'; known: small-message" in err


class TestCommittedBench:
    def test_bench_2_exists_and_shows_speedup(self):
        bench = json.loads((REPO / "BENCH_2.json").read_text())
        assert bench["bench"] == 2
        base = bench["baseline"]["full"]["baskets"]
        opt = bench["optimized"]["full"]["baskets"]
        for name in ("large-message", "storage-trace"):
            assert opt[name]["events_per_sec"] > base[name]["events_per_sec"]
        assert bench["speedup_events_per_sec"]["full"]

    def test_bench_6_exists_and_shows_wall_speedup(self):
        bench = json.loads((REPO / "BENCH_6.json").read_text())
        assert bench["bench"] == 6
        wall = bench["wall_speedup"]["full"]
        # Every pre-existing basket must have gotten faster in wall time
        # (events/sec is allowed to dip: this PR removes kernel events).
        for name, ratio in wall.items():
            assert ratio >= 1.0, (name, ratio)
        assert wall["small-message"] >= 1.4
        # The new queue-core microbench is measured on the optimized side.
        assert bench["optimized"]["full"]["baskets"]["kernel-ops"][
            "kernel_events"] > 0
