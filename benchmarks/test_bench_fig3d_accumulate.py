"""Fig 3d: remote accumulate — RDMA/P4 vs sPIN, both NIC attachments."""

from repro.bench.figures import fig3d_accumulate

from table_pins import assert_pinned


def test_fig3d(run_once):
    table = run_once(fig3d_accumulate)
    print("\n" + table.render())
    assert_pinned("fig3d", table)
    rows = {r.cells["size_B"]: r.cells for r in table.rows}
    small, large = rows[8], rows[262_144]
    # Small accumulates: the DMA round trip makes sPIN slower, most
    # pronounced on the discrete NIC (250 ns latency).
    assert small["spin_dis"] > small["rdma_dis"]
    assert (small["spin_dis"] - small["rdma_dis"]) > (
        small["spin_int"] - small["rdma_int"]
    )
    # Large accumulates: streaming parallelism + pipelined DMA win clearly.
    assert large["spin_int"] < large["rdma_int"] / 1.3
    assert large["spin_dis"] < large["rdma_dis"] / 1.3
