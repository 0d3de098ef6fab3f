"""Exact pins for every cell of the nine default-scale paper tables.

``tests/paper_tables.json`` (next to ``CONTRACT``) holds one
``{table: {row: {column: value}}}`` entry per table.  The benchmark tests
build each table once and compare it here, so a change that moves any
cell the paper is compared against fails tier-1 with the table, row,
column, pinned and measured value.

A change that moves cells on purpose re-pins them with::

    PYTHONPATH=src python benchmarks/table_pins.py

which rebuilds the nine tables and rewrites the JSON; say in CHANGES.md
which cells moved and why.
"""

from __future__ import annotations

import json
from pathlib import Path

PINS_PATH = Path(__file__).resolve().parent.parent / "tests" / "paper_tables.json"

#: table -> (figure function in repro.bench.figures, positional args): the
#: nine tables at the scale ``python -m repro.bench all`` prints them.
TABLES = {
    "fig3b": ("fig3_pingpong", ("int",)),
    "fig3c": ("fig3_pingpong", ("dis",)),
    "fig3d": ("fig3d_accumulate", ()),
    "fig4": ("fig4_hpus", ()),
    "fig5a": ("fig5a_broadcast", ("dis",)),
    "tab5c": ("tab5c_apps", ()),
    "fig7a": ("fig7a_datatype", ()),
    "fig7c": ("fig7c_raid", ()),
    "spc": ("spc_traces", ()),
}


def table_cells(table) -> dict[str, dict]:
    """``{row: {column: value}}`` of a built table.

    A row is named by its first column plus any other text column (the
    SPC table has one row per trace and config); every other column is
    a pinned value.
    """
    first = table.columns[0]
    out = {}
    for row in table.rows:
        cells = row.cells
        keys = [c for c in table.columns
                if c == first or isinstance(cells[c], str)]
        name = " ".join(str(cells[c]) for c in keys)
        out[name] = {c: cells[c] for c in table.columns if c not in keys}
    return out


def assert_pinned(name: str, table) -> None:
    """Fail with one line per cell of ``table`` that differs from its pin."""
    pinned = json.loads(PINS_PATH.read_text())[name]
    measured = table_cells(table)
    out = []
    for row in pinned.keys() | measured.keys():
        if row not in measured or row not in pinned:
            where = "measured" if row not in pinned else "pinned"
            out.append(f"{table.title}: row {row} is only {where}")
            continue
        want, got = pinned[row], measured[row]
        for col in want.keys() | got.keys():
            if want.get(col) != got.get(col):
                out.append(f"{table.title}: row {row}, column {col}: pinned "
                           f"{want.get(col)!r}, measured {got.get(col)!r}")
    assert not out, "\n".join(sorted(out))


def main() -> None:
    from repro.bench import figures

    pins = {name: table_cells(getattr(figures, fn)(*args))
            for name, (fn, args) in TABLES.items()}
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(len(rows) for rows in pins.values())} rows of "
          f"{len(pins)} tables to {PINS_PATH}")


if __name__ == "__main__":
    main()
