"""Fig 3b/3c: ping-pong latency across the four protocol variants."""

from repro.bench.figures import fig3_pingpong
from repro.bench.paper_data import FIG3_SMALL_MSG_NS

from table_pins import assert_pinned


def _check_shape(table, config):
    by_size = {row.cells["size_B"]: row.cells for row in table.rows}
    small = by_size[8]
    # Paper inset ordering: sPIN < P4 < RDMA.
    assert small["spin_stream"] < small["p4"] < small["rdma"]
    # Within 25% of the paper's absolute small-message numbers.
    ref = FIG3_SMALL_MSG_NS[config]
    assert abs(small["rdma"] * 1000 - ref["rdma"]) / ref["rdma"] < 0.25
    assert abs(small["spin_stream"] * 1000 - ref["spin"]) / ref["spin"] < 0.25
    # Streaming wins large messages (never commits to host memory).
    large = by_size[262_144]
    assert large["spin_stream"] < large["rdma"]
    assert large["spin_stream"] < large["spin_store"]


def test_fig3b_integrated(run_once):
    table = run_once(fig3_pingpong, "int")
    print("\n" + table.render())
    assert_pinned("fig3b", table)
    _check_shape(table, "int")


def test_fig3c_discrete(run_once):
    table = run_once(fig3_pingpong, "dis")
    print("\n" + table.render())
    assert_pinned("fig3c", table)
    _check_shape(table, "dis")
    # The sPIN advantage is larger for the discrete NIC (higher DMA L).
    small = {r.cells["size_B"]: r.cells for r in table.rows}[8]
    assert small["rdma"] - small["spin_stream"] > 0.25  # > 250 ns gap
