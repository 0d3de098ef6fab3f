"""Output checks, paper-reference error and the simulated-result digest.

A job fails when it raises, when its result breaks conservation, or —
on paper-figures — when its table leaves the shape the pytest
benchmarks under ``benchmarks/`` assert.  Nothing here times anything.
"""

from __future__ import annotations

import hashlib
import json
import statistics

__all__ = ["conservation_error", "digest", "paper_error_pct", "shape_errors"]

#: Offered request counts for scenarios whose results omit ``offered``.
_OFFERED = {
    "incast_load": lambda p: p["fanin"] * p["count"],
    "permutation_traffic": lambda p: p["nhosts"] * p["count"],
    "kv_serving": lambda p: p["requests"],
    "tenant_overload": lambda p: p["tenants"] * p["requests"],
}


def conservation_error(scenario: str, params: dict, result: dict):
    """``None``, or why completed + lost/dropped != offered."""
    if "completed" not in result:
        return None
    offered = result.get("offered")
    if offered is None and scenario in _OFFERED:
        offered = _OFFERED[scenario](params)
    if offered is None:
        return None
    lost = result.get("lost", result.get("dropped", 0))
    if result["completed"] + lost != offered:
        return (f"{scenario}: completed {result['completed']} + lost {lost}"
                f" != offered {offered}")
    return None


def digest(records, events: int) -> str:
    """sha256 over each job's (scenario, params, result) plus kernel events.

    Keys and code versions are left out, so a change that only speeds up
    the simulator keeps the digest.
    """
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps([rec["scenario"], rec["params"], rec["result"]],
                            sort_keys=True).encode())
        h.update(b"\n")
    h.update(str(events).encode())
    return h.hexdigest()


# -- paper-figures tables --------------------------------------------------

def _rows(table, key):
    return {row.cells[key]: row.cells for row in table.rows}


def _fig3(table, config):
    from repro.bench.paper_data import FIG3_SMALL_MSG_NS
    rows = _rows(table, "size_B")
    small, large = rows[8], rows[262_144]
    ref = FIG3_SMALL_MSG_NS[config]
    yield small["spin_stream"] < small["p4"] < small["rdma"], \
        "8 B order sPIN < P4 < RDMA"
    for mode, col in (("rdma", "rdma"), ("spin", "spin_stream")):
        yield abs(small[col] * 1000 - ref[mode]) / ref[mode] < 0.25, \
            f"8 B {mode} within 25 % of the paper"
    yield large["spin_stream"] < min(large["rdma"], large["spin_store"]), \
        "streaming wins 256 KiB"
    if config == "dis":
        yield small["rdma"] - small["spin_stream"] > 0.25, \
            "discrete sPIN gap > 250 ns"


def _fig3d(table):
    rows = _rows(table, "size_B")
    small, large = rows[8], rows[262_144]
    yield small["spin_dis"] > small["rdma_dis"], "small accumulate: RDMA wins"
    yield (small["spin_dis"] - small["rdma_dis"]
           > small["spin_int"] - small["rdma_int"]), "gap larger on discrete"
    yield large["spin_int"] < large["rdma_int"] / 1.3, "large int: sPIN wins"
    yield large["spin_dis"] < large["rdma_dis"] / 1.3, "large dis: sPIN wins"


def _fig4(table):
    rows = _rows(table, "packet_B")
    for t in (100, 200, 500, 1000):
        col = f"T={t}ns"
        yield rows[16][col] == rows[335][col], f"{col} plateau below 335 B"
        yield rows[4096][col] < rows[335][col], f"{col} decays above 335 B"


def _fig5a(table):
    rows = _rows(table, "procs")
    big = rows[max(rows)]
    yield big["spin_8B"] < big["p4_8B"] < big["rdma_8B"], "8 B order"
    yield big["spin_64KiB"] < min(big["rdma_64KiB"], big["p4_64KiB"]), \
        "64 KiB: sPIN fastest"
    for col in ("rdma_8B", "p4_8B", "spin_8B"):
        series = [rows[p][col] for p in sorted(rows)]
        yield series == sorted(series), f"{col} grows with procs"


def _tab5c(table):
    from repro.bench.paper_data import TAB5C
    rows = _rows(table, "program")
    for name, (_procs, _msgs, ovhd, spd) in TAB5C.items():
        got = rows[name]
        yield abs(got["ovhd_%"] - ovhd) < 2.5, f"{name} overhead"
        yield 0 < got["spdup_%"] <= got["ovhd_%"] + 0.5, f"{name} speedup"
        yield abs(got["spdup_%"] - spd) < 2.0, f"{name} speedup vs paper"
    yield rows["POP"]["spdup_%"] == min(r["spdup_%"] for r in rows.values()), \
        "POP benefits least"


def _fig7a(table):
    from repro.bench.paper_data import FIG7A_GIBS
    rows = _rows(table, "blocksize_B")
    line = FIG7A_GIBS["spin_line_rate"]
    yield abs(rows[4096]["spin_GiBs"] - line) / line < 0.1, \
        "sPIN near line rate at 4 KiB"
    yield (FIG7A_GIBS["rdma_low"] * 0.7 < rows[4096]["rdma_GiBs"]
           < FIG7A_GIBS["rdma_high"] * 1.3), "RDMA in the paper band"
    yield rows[262_144]["spin_GiBs"] > 3 * rows[262_144]["rdma_GiBs"], \
        "sPIN > 3x RDMA at 256 KiB"
    yield rows[256]["spin_GiBs"] < rows[4096]["spin_GiBs"], \
        "small blocks erode sPIN"


def _fig7c(table):
    rows = _rows(table, "size_B")
    small, large = rows[64], rows[262_144]
    yield 0.5 < small["spin_int"] / small["rdma_int"] < 2.0, \
        "small updates comparable"
    yield large["spin_int"] < large["rdma_int"] / 1.25, "large int: sPIN wins"
    yield large["spin_dis"] < large["rdma_dis"] / 1.25, "large dis: sPIN wins"
    yield large["spin_dis"] > large["spin_int"], "discrete slower"


def _spc(table):
    from repro.bench.paper_data import SPC_IMPROVEMENT_RANGE
    hi = SPC_IMPROVEMENT_RANGE[1]
    imp = {(r.cells["trace"], r.cells["config"]): r.cells["improvement_%"]
           for r in table.rows}
    yield all(0 < v < hi + 20 for v in imp.values()), "every trace improves"
    fin_int = max(v for (t, c), v in imp.items()
                  if t.startswith("financial") and c == "int")
    web = max(v for (t, c), v in imp.items() if t.startswith("websearch"))
    yield fin_int == max(imp.values()) and fin_int > web, \
        "int + financial wins most"


_SHAPES = {
    "fig3b": lambda t: _fig3(t, "int"), "fig3c": lambda t: _fig3(t, "dis"),
    "fig3d": _fig3d, "fig4": _fig4, "fig5a": _fig5a, "tab5c": _tab5c,
    "fig7a": _fig7a, "fig7c": _fig7c, "spc": _spc,
}


def shape_errors(name: str, table) -> list[str]:
    """The paper-shape assertions ``table`` violates (empty when none)."""
    try:
        return [what for ok, what in _SHAPES[name](table) if not ok]
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"table malformed: {type(exc).__name__}: {exc}"]


# -- paper reference error -------------------------------------------------

def _pairs_fig3(tables):
    from repro.bench.paper_data import FIG3_SMALL_MSG_NS
    for name, config in (("fig3b", "int"), ("fig3c", "dis")):
        if name in tables:
            small = _rows(tables[name], "size_B")[8]
            for mode, col in (("rdma", "rdma"), ("p4", "p4"),
                              ("spin", "spin_stream")):
                yield small[col] * 1000, FIG3_SMALL_MSG_NS[config][mode]


def _pairs(tables, records):
    from repro.bench import paper_data as pd
    yield from _pairs_fig3(tables)
    linerate = {r["params"]["packet_bytes"]: r["result"] for r in records
                if r["scenario"] == "linerate"}
    if 64 in linerate and 4096 in linerate:
        ref = pd.FIG4_POINTS
        yield linerate[64]["max_handler_ns"], ref["hat_Ts_ns_8hpus"]
        yield linerate[4096]["max_handler_ns"], ref["hat_Tl_ns_4096"]
        yield linerate[4096]["arrival_mmps"], ref["delta_min_mmps"]
        yield linerate[64]["arrival_mmps"], ref["delta_max_mmps"]
    if "fig7a" in tables:
        rows = _rows(tables["fig7a"], "blocksize_B")
        rdma = [r["rdma_GiBs"] for r in rows.values()]
        yield min(rdma), pd.FIG7A_GIBS["rdma_low"]
        yield max(rdma), pd.FIG7A_GIBS["rdma_high"]
        yield rows[4096]["spin_GiBs"], pd.FIG7A_GIBS["spin_line_rate"]
    if "tab5c" in tables:
        rows = _rows(tables["tab5c"], "program")
        for name, (_p, _m, ovhd, spd) in pd.TAB5C.items():
            yield rows[name]["ovhd_%"], ovhd
            yield rows[name]["spdup_%"], spd
    if "spc" in tables:
        imp = [r.cells["improvement_%"] for r in tables["spc"].rows]
        lo, hi = pd.SPC_IMPROVEMENT_RANGE
        yield min(imp), lo
        yield max(imp), hi


def paper_error_pct(tables: dict, records=()) -> tuple[float, int]:
    """Median |measured - paper| / paper in %, and the reference count.

    Covers every numeric reference in ``repro.bench.paper_data`` that the
    given tables and ``linerate`` records produce a counterpart for.
    """
    errs = [abs(got - ref) / abs(ref) * 100
            for got, ref in _pairs(tables, records)]
    return statistics.median(errs), len(errs)
