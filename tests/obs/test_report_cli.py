"""Telemetry reports and the CLI surfaces built on them."""

import json

import pytest

from repro.campaign.__main__ import main as campaign_main
from repro.obs import REPORT_SCHEMA, ObsCapture
from repro.obs.__main__ import main as obs_main
from repro.obs.report import load_report
from repro.sim import Metrics, Session


def _captured_incast():
    from repro.campaign.registry import get_scenario

    sc = get_scenario("incast_load")
    with ObsCapture() as cap:
        sc.run(dict(sc.tiny, seed=1))
    return cap


def test_report_schema_and_counters():
    cap = _captured_incast()
    doc = cap.build_report(scenario="incast_load", seed=1)
    assert doc["schema"] == REPORT_SCHEMA
    assert doc["sessions"] == 1
    counters = doc["counters"]
    assert counters["messages_sent"] == counters["messages_received"] > 0
    assert counters["packets_delivered"] > 0
    assert counters["dma_bytes_written"] > 0
    # The fan-in's shared ingress link is the hottest link in the report.
    assert doc["top_links"], "congestion run reported no links"
    assert doc["top_links"][0]["link"].endswith("->host2")
    assert doc["probe_samples"]["spans"] > 0
    assert doc["probe_samples"]["link"] > 0
    # JSON round trip preserves the document exactly.
    assert json.loads(json.dumps(doc)) == doc


def test_report_is_deterministic_across_reruns():
    a = _captured_incast().build_report(scenario="incast_load", seed=1)
    b = _captured_incast().build_report(scenario="incast_load", seed=1)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_load_report_rejects_foreign_documents(tmp_path):
    path = tmp_path / "not-a-report.json"
    path.write_text(json.dumps({"schema": "something/else", "x": 1}))
    with pytest.raises(ValueError, match="not a repro.obs report"):
        load_report(path)


def test_view_cli_renders_a_report(tmp_path, capsys):
    cap = _captured_incast()
    doc = cap.build_report(scenario="incast_load", seed=1)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert obs_main(["view", str(path)]) == 0
    out = capsys.readouterr().out
    assert "incast_load" in out
    assert "occupancy (mean / max busy fraction)" in out
    assert "hottest links" in out
    assert obs_main(["view", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["schema"] == REPORT_SCHEMA


def test_view_cli_fails_cleanly_on_missing_file(tmp_path, capsys):
    assert obs_main(["view", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_campaign_run_exports_trace_and_report(tmp_path, capsys):
    trace_path = tmp_path / "run.perfetto.json"
    report_path = tmp_path / "report.json"
    rc = campaign_main([
        "--campaign-dir", str(tmp_path / ".campaign"),
        "run", "incast_load", "--tiny",
        "--trace-out", str(trace_path), "--report", str(report_path),
    ])
    assert rc == 0
    capsys.readouterr()
    trace = json.loads(trace_path.read_text())
    assert trace["traceEvents"]
    doc = load_report(report_path)
    assert doc["scenario"] == "incast_load"
    assert doc["params"]["fanin"] == 2
    assert doc["kernel"]["events"] > 0
    assert doc["counters"]["messages_received"] > 0


@pytest.mark.parametrize("scenario", ["spc_replay", "apps_matching"])
def test_campaign_run_reports_storage_and_app_runs(tmp_path, capsys, scenario):
    report_path = tmp_path / "report.json"
    rc = campaign_main([
        "--campaign-dir", str(tmp_path / ".campaign"),
        "run", scenario, "--tiny", "--report", str(report_path),
    ])
    assert rc == 0
    capsys.readouterr()
    assert obs_main(["view", str(report_path)]) == 0
    out = capsys.readouterr().out
    table = out.split("occupancy (mean / max busy fraction):")[1]
    for row in ("hpu", "cpu", "dma"):
        assert f"\n  {row} " in table


@pytest.mark.parametrize("flag", ["--trace-out", "--report"])
def test_campaign_run_without_session_exits_cleanly(tmp_path, capsys, flag):
    # linerate is a closed form: it builds no Session, so an observed run
    # has nothing to export and says so instead of raising.
    out_path = tmp_path / "out.json"
    rc = campaign_main([
        "--campaign-dir", str(tmp_path / ".campaign"),
        "run", "linerate", "--tiny", flag, str(out_path),
    ])
    assert rc == 2
    assert not out_path.exists()
    captured = capsys.readouterr()
    err_lines = captured.err.strip().splitlines()
    assert len(err_lines) == 1
    assert "linerate" in err_lines[0] and "Session" in err_lines[0]
    assert "Traceback" not in captured.out + captured.err


def test_campaign_run_profile_out_dumps_pstats(tmp_path, capsys):
    import pstats

    profile_path = tmp_path / "run.pstats"
    rc = campaign_main([
        "--campaign-dir", str(tmp_path / ".campaign"),
        "run", "pingpong", "--tiny",
        "--profile-out", str(profile_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cProfile" in out
    stats = pstats.Stats(str(profile_path))
    assert stats.total_calls > 0


def test_multi_session_report_prefixes_resources():
    from repro.portals.matching import MatchEntry

    with ObsCapture() as cap:
        for _ in range(2):
            with Session.pair("int", trace=True) as sess:
                sess.install(1, MatchEntry(match_bits=7, length=1 << 20))
                origin = sess[0]

                def client():
                    yield from origin.host_put(1, 256, match_bits=7)

                sess.process(client())
                sess.drain()
    doc = cap.build_report()
    assert doc["sessions"] == 2
    assert any(key.startswith("s0/node") for key in doc["occupancy"])
    assert any(key.startswith("s1/node") for key in doc["occupancy"])


def test_loggp_fabric_reports_link_keys_present_but_zero():
    # Satellite fix: `observe_fabric` on the contention-free LogGP pipe
    # used to omit the link keys entirely; schemas must keep one shape.
    from repro.portals.matching import MatchEntry

    with Session.pair("int", trace=False) as sess:
        sess.install(1, MatchEntry(match_bits=7, length=1 << 20))
        origin = sess[0]

        def client():
            yield from origin.host_put(1, 256, match_bits=7)

        sess.process(client())
        sess.drain()
        metrics = Metrics()
        metrics.observe_fabric(sess.cluster.fabric, elapsed_ps=sess.env.now)
    assert metrics.notes["fabric_link_drops"] == 0
    assert metrics.notes["fabric_max_link_queue"] == 0
    assert metrics.notes["fabric_max_link_utilization"] == 0.0
    assert metrics.notes["fabric_links_down"] == 0


def test_loggp_fabric_wire_stats_share_link_row_shape():
    from repro.portals.matching import MatchEntry

    with Session.pair("int", trace=True) as sess:
        obs = sess.attach_observer()
        sess.install(1, MatchEntry(match_bits=7, length=1 << 20))
        origin = sess[0]

        def client():
            yield from origin.host_put(1, 256, match_bits=7)

        sess.process(client())
        sess.drain()
        doc = obs.build_report()
    # LogGP has no interior links; its per-endpoint wires fill the same
    # table with the same columns.
    assert doc["top_links"], "loggp run reported no wire rows"
    row = doc["top_links"][0]
    assert row["link"].startswith("wire[")
    for column in ("packets", "drops", "max_queue", "wait_ns", "busy_ns",
                   "utilization"):
        assert column in row
