"""Fig 5a: binomial broadcast at scale, three protocols."""

from repro.bench.figures import fig5a_broadcast

from table_pins import assert_pinned


def test_fig5a(run_once):
    table = run_once(fig5a_broadcast, "dis")
    print("\n" + table.render())
    assert_pinned("fig5a", table)
    rows = {r.cells["procs"]: r.cells for r in table.rows}
    biggest = rows[max(rows)]
    # sPIN fastest at both message sizes; P4 between sPIN and RDMA at 8B.
    assert biggest["spin_8B"] < biggest["p4_8B"] < biggest["rdma_8B"]
    assert biggest["spin_64KiB"] < biggest["rdma_64KiB"]
    assert biggest["spin_64KiB"] < biggest["p4_64KiB"]
    # Latency grows with process count for every protocol.
    for col in ("rdma_8B", "p4_8B", "spin_8B"):
        series = [rows[p][col] for p in sorted(rows)]
        assert series == sorted(series)


def test_fig5a_integrated_gap(run_once):
    """§4.4.3: integrated NIC shows smaller but positive sPIN gains."""
    table = run_once(fig5a_broadcast, "int")
    print("\n" + table.render())
    rows = {r.cells["procs"]: r.cells for r in table.rows}
    biggest = rows[max(rows)]
    assert biggest["spin_8B"] < biggest["rdma_8B"]
    assert biggest["spin_8B"] < biggest["p4_8B"]
