"""Fig 7c: RAID-5 update time, RDMA vs sPIN protocols."""

from repro.bench.figures import fig7c_raid

from table_pins import assert_pinned


def test_fig7c(run_once):
    table = run_once(fig7c_raid)
    print("\n" + table.render())
    assert_pinned("fig7c", table)
    rows = {r.cells["size_B"]: r.cells for r in table.rows}
    small, large = rows[64], rows[262_144]
    # Small updates comparable (within 2x either way).
    assert 0.5 < small["spin_int"] / small["rdma_int"] < 2.0
    # Large block transfers: sPIN significantly faster (the parallel
    # filesystem common case).
    assert large["spin_int"] < large["rdma_int"] / 1.25
    assert large["spin_dis"] < large["rdma_dis"] / 1.25
    # Discrete slower than integrated across the board.
    assert large["spin_dis"] > large["spin_int"]
