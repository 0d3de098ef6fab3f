"""The serving-scale scenarios: million-client contract, SLO curves.

``kv_serving`` / ``tenant_overload`` are the scenarios the population
driver + streaming metrics stack exists for; these tests pin the
campaign contract (registration, tiny params, determinism), the
million-client memory shape, and the flavour-matrix byte-identity of
the underlying event stream.
"""

import pytest

from repro.campaign import all_scenarios, get_scenario

SERVING_SCENARIOS = ("kv_serving", "tenant_overload")

#: Walk flavours: the fast callback chains and the generator reference paths.
FLAVOURS = (True, False)


def _set_flavour(monkeypatch, fast: bool) -> None:
    monkeypatch.setenv("REPRO_FABRIC_FAST_PATH", "1" if fast else "0")
    monkeypatch.setenv("REPRO_NIC_FAST_RX", "1" if fast else "0")


#: Small-but-real kv_serving point used by several tests below: a full
#: million-client population, few enough requests to stay fast.
KV_SMALL = {"requests": 400, "window_ns": 20_000.0}


def test_serving_scenarios_registered_with_serving_tag():
    registered = all_scenarios()
    for name in SERVING_SCENARIOS:
        assert name in registered
        sc = registered[name]
        assert "serving" in sc.tags
        assert sc.tiny, f"{name} needs tiny smoke params"
        assert sc.sweep, f"{name} needs a default sweep grid"


@pytest.mark.parametrize("name", SERVING_SCENARIOS)
def test_tiny_run_is_deterministic(name):
    sc = get_scenario(name)
    assert sc.run(sc.tiny) == sc.run(sc.tiny)


def test_kv_serving_default_population_is_one_million():
    sc = get_scenario("kv_serving")
    population = {p.name: p for p in sc.params}["population"]
    assert population.default >= 1_000_000
    assert "population" not in sc.tiny  # tiny shrinks requests, not clients


def test_kv_serving_million_clients_bounded_in_flight():
    """The headline: 10^6 simulated clients, request state O(in-flight).
    ``peak_in_flight`` rides the result dict, so the bound is visible in
    every campaign record, not just this test."""
    result = get_scenario("kv_serving").run(KV_SMALL)
    assert result["population"] == 1_000_000
    assert result["completed"] == 400
    assert 0 < result["peak_in_flight"] < 256
    assert result["nic_inserts"] + result["host_fallback"] == \
           result["stored"] == 400


def test_kv_serving_reports_slo_curve():
    result = get_scenario("kv_serving").run(KV_SMALL)
    assert result["windows"] >= result["windows_active"] > 0
    assert 0.0 <= result["slo_attainment"] <= 1.0
    assert result["windows_met_p99"] <= result["windows_active"]
    assert result["p50_ns"] <= result["p99_ns"] <= result["p999_ns"]


def test_kv_serving_zipf_skew_concentrates_buckets():
    """theta=0.99 funnels traffic into hot chains (host fallbacks after
    the walk budget); theta=0 spreads it."""
    sc = get_scenario("kv_serving")
    hot = sc.run({**KV_SMALL, "theta": 0.99})
    uniform = sc.run({**KV_SMALL, "theta": 0.0})
    assert hot["host_fallback"] > uniform["host_fallback"]


def test_kv_serving_seed_steers_results():
    sc = get_scenario("kv_serving")
    assert sc.run({**KV_SMALL, "seed": 1}) != sc.run({**KV_SMALL, "seed": 2})


def test_tenant_overload_reports_per_tenant_isolation():
    result = get_scenario("tenant_overload").run(
        {"tenants": 3, "population": 20_000, "requests": 300,
         "window_ns": 30_000.0})
    for tenant in range(3):
        assert f"t{tenant}_p99_ns" in result
        assert 0.0 <= result[f"t{tenant}_slo_attainment"] <= 1.0
    assert 0.0 <= result["victim_slo_attainment"] <= 1.0
    assert result["completed"] == 900


def test_tenant_overload_aggressor_degrades_itself_most():
    """The overloading tenant's own tail should be the worst of the
    set — the NIC serialises its flood while victims keep their slots."""
    result = get_scenario("tenant_overload").run(
        {"tenants": 3, "population": 20_000, "requests": 400,
         "overload": 16.0, "window_ns": 30_000.0})
    aggressor = result["t0_p99_ns"]
    victims = [result["t1_p99_ns"], result["t2_p99_ns"]]
    assert aggressor >= max(victims)


def test_kv_serving_result_identical_across_all_flavours(monkeypatch):
    """Acceptance: the serving scenario is deterministic across the
    fast/slow walk flavours — every scalar in the result dict (latency
    percentiles included) must agree exactly."""
    results = []
    for fast in FLAVOURS:
        _set_flavour(monkeypatch, fast)
        results.append(get_scenario("kv_serving").run(KV_SMALL))
    first = results[0]
    assert first["completed"] == 400
    for got, fast in zip(results[1:], FLAVOURS[1:]):
        assert got == first, f"flavour (fast={fast}) diverged"
