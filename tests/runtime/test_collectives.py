"""Tests for the recursive-doubling allreduce schedule."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.runtime import recursive_doubling_rounds


class TestRecursiveDoubling:
    @given(nprocs=st.integers(min_value=2, max_value=64))
    def test_every_rank_participates_each_core_round(self, nprocs):
        rounds = recursive_doubling_rounds(nprocs)
        pow2 = 1 << int(math.log2(nprocs))
        core_rounds = [
            r for r in rounds
            if all(a < pow2 and b < pow2 for a, b in r)
        ]
        assert len(core_rounds) >= int(math.log2(pow2))
        for rnd in core_rounds[:int(math.log2(pow2))]:
            seen = [x for pair in rnd for x in pair]
            assert len(seen) == len(set(seen))

    def test_power_of_two_round_count(self):
        assert len(recursive_doubling_rounds(16)) == 4
        assert len(recursive_doubling_rounds(2)) == 1
