"""Fig 7a: strided-datatype receive bandwidth."""

from repro.bench.figures import fig7a_datatype
from repro.bench.paper_data import FIG7A_GIBS

from table_pins import assert_pinned


def test_fig7a(run_once):
    table = run_once(fig7a_datatype)
    print("\n" + table.render())
    assert_pinned("fig7a", table)
    rows = {r.cells["blocksize_B"]: r.cells for r in table.rows}
    # sPIN approaches line rate (paper: 46.3 GiB/s) for 4 KiB blocks.
    spin_4k = rows[4096]["spin_GiBs"]
    assert abs(spin_4k - FIG7A_GIBS["spin_line_rate"]) / FIG7A_GIBS[
        "spin_line_rate"] < 0.1
    # RDMA stuck in the paper's 8.7-11.4 GiB/s band (±30%).
    rdma_4k = rows[4096]["rdma_GiBs"]
    assert FIG7A_GIBS["rdma_low"] * 0.7 < rdma_4k < FIG7A_GIBS["rdma_high"] * 1.3
    # sPIN wins everywhere at/above the knee; factor ~4x at large blocks.
    assert rows[262_144]["spin_GiBs"] > 3 * rows[262_144]["rdma_GiBs"]
    # Small blocks: per-descriptor DMA overhead erodes the sPIN advantage.
    assert rows[256]["spin_GiBs"] < rows[4096]["spin_GiBs"]
