"""Conditional read: NIC-filtered table scans (§5.4).

``SELECT name FROM employees WHERE id = X`` over a remote table: reading
the whole table via RDMA wastes bandwidth, so the request carries the
filter and the reply carries only matching rows.  The server's header
handler scans the (host-memory) table — charged per scanned row — and
replies from the host with just the matches.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.core.handlers import ReturnCode
from repro.machine.config import MachineConfig, config_by_name
from repro.portals.matching import MatchEntry
from repro.sim.session import Session

__all__ = ["ConditionalReader"]

SCAN_REQUEST_TAG = 70
SCAN_REPLY_TAG = 71
#: Handler cycles per scanned row (predicate evaluation on the HPU).
CYCLES_PER_ROW = 6


class ConditionalReader:
    """One client, one table server with an offloaded filter scan."""

    def __init__(self, rows: list[dict], config: MachineConfig | str = "int",
                 row_bytes: int = 64):
        if isinstance(config, str):
            config = config_by_name(config)
        self.rows = rows
        self.row_bytes = row_bytes
        self.session = Session.pair(config)
        self.cluster = self.session.cluster
        self.env = self.session.env
        self.client, self.server = self.session[0], self.session[1]
        self.bytes_saved = 0
        self.scans_served = 0
        self._reply_ct = self.client.new_counter("scan-replies")
        self.session.install(0, MatchEntry(
            match_bits=SCAN_REPLY_TAG, length=1 << 30, counter=self._reply_ct,
        ))
        reader = self

        def scan_header_handler(ctx, h):
            predicate: Callable[[dict], bool] = h.user_hdr["predicate"]
            ctx.charge(10)
            ctx.charge(CYCLES_PER_ROW * len(reader.rows))
            matches = [row for row in reader.rows if predicate(row)]
            reader.scans_served += 1
            reply_bytes = max(1, len(matches) * reader.row_bytes)
            reader.bytes_saved += (len(reader.rows) - len(matches)) * reader.row_bytes
            reader._last_matches = matches
            yield from ctx.put_from_host(
                0, reply_bytes, target=h.source, match_bits=SCAN_REPLY_TAG,
                user_hdr={"matches": matches},
            )
            return ReturnCode.DROP

        self.session.connect(
            1,
            match_bits=SCAN_REQUEST_TAG,
            header_handler=scan_header_handler,
            hpu_mem_bytes=256,
        )

    def select(self, predicate: Callable[[dict], bool]) -> Generator:
        """Run the filtered scan; returns (matching rows, elapsed ps)."""
        start = self.env.now
        expected = self._reply_ct.success + 1
        gate = self.env.event()
        self._reply_ct.on_threshold(expected, lambda: gate.succeed(self.env.now))
        yield from self.client.host_put(
            1, 0, match_bits=SCAN_REQUEST_TAG,
            user_hdr={"predicate": predicate},
        )
        yield gate
        yield from self.client.cpu.poll()
        return [r for r in self.rows if predicate(r)], self.env.now - start
