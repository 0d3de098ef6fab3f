"""Tests for GOAL schedules and the synthetic application traces."""

import math
from collections import Counter

import pytest

from repro.apps import (
    APP_TRACES,
    Op,
    Schedule,
    calc,
    cloverleaf_trace,
    comd_trace,
    milc_trace,
    pop_trace,
    recv,
    send,
    waitall,
)
from repro.apps.tracegen import _grid_dims, _rank_coords


class TestOps:
    def test_constructors(self):
        assert calc(100).duration_ps == 100_000
        assert send(3, 64, tag=7).peer == 3
        assert recv(2, 64).kind == "recv"
        assert waitall().kind == "waitall"

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            Op("bogus")

    def test_negative_size(self):
        with pytest.raises(ValueError):
            Op("send", nbytes=-1)


class TestSchedule:
    def test_stats(self):
        s = Schedule()
        s.extend(0, [send(1, 100), calc(50), waitall()])
        s.extend(1, [recv(0, 100), waitall()])
        assert s.nprocs == 2
        assert s.message_count == 1
        assert s.calc_ps(0) == 50_000


class TestGridHelpers:
    def test_grid_dims_product(self):
        for n, d in [(64, 4), (64, 2), (72, 3), (16, 4), (60, 3)]:
            dims = _grid_dims(n, d)
            assert math.prod(dims) == n
            assert len(dims) == d

    def test_rank_coords_bijective(self):
        dims = [4, 2, 2]
        seen = set()
        for r in range(16):
            seen.add(tuple(_rank_coords(r, dims)))
        assert len(seen) == 16


class TestTraceGenerators:
    @pytest.mark.parametrize("gen", [milc_trace, pop_trace, comd_trace,
                                     cloverleaf_trace])
    def test_traces_are_balanced(self, gen):
        """Every send has a receive with the same peers, tag and size."""
        ranks = gen(nprocs=16, iters=2).ranks
        sends = Counter((r, op.peer, op.tag, op.nbytes)
                        for r, ops in ranks.items() for op in ops
                        if op.kind == "send")
        recvs = Counter((op.peer, r, op.tag, op.nbytes)
                        for r, ops in ranks.items() for op in ops
                        if op.kind == "recv")
        assert sends == recvs

    def test_milc_is_4d(self):
        sched = milc_trace(nprocs=16, iters=1)
        # 4D with dims (2,2,2,2): 8 neighbors → 8 sends per rank.
        sends = [op for op in sched.ranks[0] if op.kind == "send"]
        assert len(sends) == 8

    def test_pop_has_allreduce_rounds(self):
        sched = pop_trace(nprocs=16, iters=1)
        # 2D halo (4 sends) + log2(16)=4 allreduce rounds (4 sends).
        sends = [op for op in sched.ranks[0] if op.kind == "send"]
        assert len(sends) == 8
        small = [op for op in sends if op.nbytes == 8]
        assert len(small) == 4

    def test_comd_is_3d(self):
        sched = comd_trace(nprocs=64, iters=1)
        sends = [op for op in sched.ranks[0] if op.kind == "send"]
        assert len(sends) == 6

    def test_app_registry(self):
        assert set(APP_TRACES) == {"MILC", "POP", "coMD", "Cloverleaf"}
        for gen, procs, ovhd, spd in APP_TRACES.values():
            assert 0 < spd < ovhd < 10
