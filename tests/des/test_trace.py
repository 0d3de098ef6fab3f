"""Tests for timeline span collection and ASCII rendering."""

import pytest

from repro.des import Span, Timeline, render_timeline


class TestSpan:
    def test_duration(self):
        assert Span(0, "CPU", 10, 25).duration == 15

    def test_reversed_span_rejected(self):
        with pytest.raises(ValueError):
            Span(0, "CPU", 25, 10)


class TestTimeline:
    def test_record_and_busy_time(self):
        tl = Timeline()
        tl.record(0, "CPU", 0, 100)
        tl.record(0, "CPU", 200, 250)
        tl.record(1, "NIC", 0, 10)
        assert tl.busy_time(0, "CPU") == 150
        assert tl.busy_time(1, "NIC") == 10
        assert tl.busy_time(1, "CPU") == 0

    def test_disabled_timeline_records_nothing(self):
        tl = Timeline(enabled=False)
        tl.record(0, "CPU", 0, 100)
        assert tl.spans == []

    def test_lanes_in_first_appearance_order(self):
        tl = Timeline()
        tl.record(0, "NIC", 0, 1)
        tl.record(0, "CPU", 0, 1)
        tl.record(0, "NIC", 2, 3)
        assert tl.lanes() == [(0, "NIC"), (0, "CPU")]

    def test_extent(self):
        tl = Timeline()
        assert tl.extent() == (0, 0)
        tl.record(0, "CPU", 5, 10)
        tl.record(1, "CPU", 2, 20)
        assert tl.extent() == (2, 20)


class TestRender:
    def test_empty(self):
        assert render_timeline(Timeline()) == "(empty timeline)"

    def test_rows_per_lane(self):
        tl = Timeline()
        tl.record(0, "CPU", 0, 1_000_000)
        tl.record(0, "NIC", 0, 500_000)
        tl.record(1, "CPU", 500_000, 1_000_000)
        out = render_timeline(tl, width=40)
        lines = out.splitlines()
        assert len(lines) == 4  # header + 3 lanes
        assert "r0 CPU" in out and "r1 CPU" in out and "r0 NIC" in out

    def test_rank_filter(self):
        tl = Timeline()
        tl.record(0, "CPU", 0, 10)
        tl.record(1, "CPU", 0, 10)
        out = render_timeline(tl, ranks=[1])
        assert "r1 CPU" in out and "r0 CPU" not in out

    def test_busy_marks_present(self):
        tl = Timeline()
        tl.record(0, "CPU", 0, 100)
        out = render_timeline(tl, width=10)
        assert "#" in out


class TestIncrementalTotals:
    """busy_time/extent see every span, direct edits to ``spans`` included."""

    def test_busy_time_matches_rescan(self):
        tl = Timeline()
        tl.record(0, "CPU", 0, 10)
        tl.record(0, "CPU", 20, 50)
        tl.record(1, "CPU", 5, 9)
        tl.record(0, "NIC", 2, 4)
        assert tl.busy_time(0, "CPU") == 40
        assert tl.busy_time(1, "CPU") == 4
        assert tl.busy_time(0, "NIC") == 2
        assert tl.busy_time(9, "DMA") == 0

    def test_extent_tracks_min_max(self):
        tl = Timeline()
        assert tl.extent() == (0, 0)
        tl.record(0, "CPU", 100, 200)
        tl.record(1, "NIC", 50, 120)
        tl.record(0, "DMA", 180, 400)
        assert tl.extent() == (50, 400)

    def test_out_of_band_span_edits_retally(self):
        from repro.des.trace import Span

        tl = Timeline()
        tl.record(0, "CPU", 0, 10)
        # Tests (and tools) may append spans directly; totals must rebuild.
        tl.spans.append(Span(0, "CPU", 20, 25))
        assert tl.busy_time(0, "CPU") == 15
        tl.spans.append(Span(2, "HPU0", 1, 3))
        assert tl.extent() == (0, 25)
        assert tl.busy_time(2, "HPU0") == 2
        # And recording again after direct edits stays consistent.
        tl.record(0, "CPU", 30, 34)
        assert tl.busy_time(0, "CPU") == 19
