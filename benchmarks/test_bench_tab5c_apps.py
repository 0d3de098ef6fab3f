"""Table 5c: full-application speedups from offloaded message matching."""

from repro.bench.figures import tab5c_apps
from repro.bench.paper_data import TAB5C

from table_pins import assert_pinned


def test_tab5c(run_once):
    table = run_once(tab5c_apps, 16, 3)
    print("\n" + table.render())
    assert_pinned("tab5c", table)
    rows = {r.cells["program"]: r.cells for r in table.rows}
    for name, (procs, msgs, ovhd, spd) in TAB5C.items():
        got = rows[name]
        # Overhead within 2.5 percentage points of the paper's trace.
        assert abs(got["ovhd_%"] - ovhd) < 2.5, name
        # Speedup positive, below the overhead, within 2 points of paper.
        assert 0 < got["spdup_%"] <= got["ovhd_%"] + 0.5, name
        assert abs(got["spdup_%"] - spd) < 2.0, name
    # Relative ordering: POP benefits least (collectives + tiny messages).
    assert rows["POP"]["spdup_%"] == min(r["spdup_%"] for r in rows.values())
