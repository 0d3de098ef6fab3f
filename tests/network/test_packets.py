"""Tests for messages and packetization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network import Message, packetize


def make_message(length, source=0, target=1):
    rng = np.random.default_rng(length)
    payload = rng.integers(0, 256, size=length, dtype=np.uint8) if length else np.zeros(0, np.uint8)
    return Message(source=source, target=target, length=length, payload=payload)


class TestMessage:
    def test_payload_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Message(source=0, target=1, length=10, payload=np.zeros(5, np.uint8))

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            Message(source=0, target=1, length=-1)

    def test_modelled_message_has_no_payload(self):
        msg = Message(source=0, target=1, length=1 << 20)
        assert msg.payload is None

    def test_unique_ids(self):
        a, b = make_message(4), make_message(4)
        assert a.msg_id != b.msg_id


class TestPacketize:
    def test_zero_length_message_single_header_packet(self):
        pkts = packetize(Message(source=0, target=1, length=0), mtu=4096)
        assert len(pkts) == 1
        assert pkts[0].is_header
        assert pkts[0].payload_len == 0
        assert pkts[0].wire_bytes == 1  # minimal wire slot

    def test_single_packet_message(self):
        pkts = packetize(make_message(100), mtu=4096)
        assert len(pkts) == 1
        assert pkts[0].is_header and pkts[0].payload_len == 100

    def test_exact_mtu_boundary(self):
        assert len(packetize(make_message(4096), mtu=4096)) == 1
        assert len(packetize(make_message(4097), mtu=4096)) == 2

    def test_packet_sequence_and_offsets(self):
        pkts = packetize(make_message(10_000), mtu=4096)
        assert [p.seq for p in pkts] == [0, 1, 2]
        assert [p.payload_offset for p in pkts] == [0, 4096, 8192]
        assert [p.payload_len for p in pkts] == [4096, 4096, 10_000 - 8192]
        assert [p.is_header for p in pkts] == [True, False, False]

    def test_payload_views_share_memory(self):
        msg = make_message(8192)
        pkts = packetize(msg, mtu=4096)
        assert pkts[1].payload.base is msg.payload or pkts[1].payload.base is msg.payload.base

    def test_invalid_mtu(self):
        with pytest.raises(ValueError):
            packetize(make_message(10), mtu=0)


class TestPacketizeProperties:
    @given(
        length=st.integers(min_value=0, max_value=200_000),
        mtu=st.sampled_from([64, 256, 1024, 4096]),
    )
    def test_round_trip_identity(self, length, mtu):
        msg = make_message(length)
        pkts = packetize(msg, mtu)
        # Packet count matches the analytic formula.
        expected = 1 if length == 0 else -(-length // mtu)
        assert len(pkts) == expected
        # Sizes sum to the message length, every packet <= mtu.
        assert sum(p.payload_len for p in pkts) == length
        assert all(p.payload_len <= mtu for p in pkts)
        # Exactly one header packet, and it is seq 0.
        headers = [p for p in pkts if p.is_header]
        assert len(headers) == 1 and headers[0].seq == 0
        if length:
            assert np.array_equal(
                np.concatenate([p.payload for p in pkts]), msg.payload)
