"""End-to-end scenario simulations checked against their plaintext shadows."""

import hashlib
import json

import numpy as np
import pytest

from veilstream.pipeline import (
    CSV_COLUMNS,
    Scheduler,
    ScenarioResult,
    SimConfig,
    SimTransport,
    _Scenario,
    custom_table,
    encode_neutral_vector,
    measure_bandwidth,
    preset_schema,
    run_scenario,
    scenario_presets,
)

SOLO_SCENARIO = {
    "schema": {
        "name": "greenhouse",
        "metadata": [{"name": "site", "type": "string"}],
        "attributes": [
            {
                "name": "temperature",
                "aggregates": ["avg"],
                "generator": {"kind": "normal", "mean": 24, "sd": 3, "low": 5, "high": 45},
                "options": [{"kind": "stream-aggregate"}, {"kind": "private"}],
            },
            {
                "name": "moisture",
                "aggregates": ["sum"],
                "generator": {"kind": "uniform", "low": 0, "high": 2},
                "options": [{"kind": "stream-aggregate"}],
            },
        ],
    },
    "select": {
        "temp_avg": {"attribute": "temperature", "function": "avg"},
        "moisture_total": {"attribute": "moisture", "function": "sum"},
    },
    "holdout_every": 0,
}


def small_config(**kwargs):
    defaults = dict(
        preset="fitness",
        producers=60,
        windows=3,
        partition_size=30,
        seed=5,
        protocol="clique",
    )
    defaults.update(kwargs)
    return SimConfig(**defaults)


def replay_projection(result: ScenarioResult):
    """Everything that must be reproducible for a fixed seed; wall-clock
    timings are excluded on purpose."""
    return [
        (
            w.window,
            w.status,
            w.members,
            w.prf_calls,
            w.additions,
            w.bytes_producer,
            w.bytes_controller,
            w.bytes_server,
            w.outputs,
            w.released,
            w.shadow_ok,
        )
        for w in result.windows
    ]


# ---- static surfaces -----------------------------------------------------------


def test_preset_catalog_and_widths():
    assert scenario_presets() == ("fitness", "web", "car")
    assert preset_schema("fitness").width == 683
    assert preset_schema("web").width == 956
    assert preset_schema("car").width == 169


def test_bandwidth_shapes():
    one = measure_bandwidth(1)
    assert one["event_bytes"] == 24
    assert one["token_bytes"] == 58
    assert one["masked_token_bytes"] == 106
    assert one["delta_bytes_per_change"] == 32
    ten = measure_bandwidth(10, released=4)
    assert ten["event_bytes"] == 96
    assert ten["event_bytes_per_element"] == 8
    assert (ten["event_bytes"] - one["event_bytes"]) // 9 == 8
    assert ten["token_bytes"] == 48 + 10 * 4
    assert ten["masked_token_bytes"] == 96 + 10 * 4


def test_sim_config_validation():
    with pytest.raises(ValueError, match="unknown protocol"):
        SimConfig(protocol="tls")
    with pytest.raises(ValueError, match="producer"):
        SimConfig(producers=0)
    with pytest.raises(ValueError, match="event"):
        SimConfig(events_per_window=0)
    with pytest.raises(ValueError, match="partition_size"):
        SimConfig(partition_size=0)
    assert SimConfig(events_per_window=4).logical_window == 5


def test_neutral_vector_is_schema_wide_zero():
    schema = preset_schema("car")
    v = encode_neutral_vector(schema)
    assert v.shape == (169,)
    assert not v.any()


# ---- scheduler and transport -----------------------------------------------------


def test_scheduler_orders_by_time_then_insertion():
    sched = Scheduler()
    seen = []
    sched.at(2.0, lambda: seen.append("late"))
    sched.at(1.0, lambda: seen.append("first"))
    sched.at(1.0, lambda: seen.append("second"))
    sched.run()
    assert seen == ["first", "second", "late"]
    assert sched.now == 2.0


def test_transport_conserves_messages():
    sched = Scheduler()
    transport = SimTransport(
        sched,
        np.random.default_rng(3),
        latency_mean=0.1,
        latency_sigma=0.4,
        drop_rate=0.5,
    )
    landed = []
    for i in range(200):
        transport.send(10, lambda i=i: landed.append(i))
    sched.run()
    assert transport.sent == 200
    assert transport.sent == transport.delivered + transport.dropped
    assert transport.delivered == len(landed)
    assert 0 < transport.dropped < 200
    assert transport.bytes_sent == 2000


# ---- end-to-end preset runs --------------------------------------------------------


def test_fitness_run_produces_verified_outputs():
    result = run_scenario(small_config())
    assert result.summary["shadow_ok"] is True
    assert result.summary["liveness"] == 1.0
    assert result.plan_members == 58  # two holdouts keep heart_rate private
    assert result.summary["partitions"] == 2
    tr = result.summary["transport"]
    assert tr["sent"] == tr["delivered"] + tr["dropped"]
    for w in result.windows:
        assert w.status == "ok"
        assert set(w.outputs) == {
            "hr_avg",
            "speed_var",
            "altitude_hist",
            "steps_total",
            "calories_total",
        }
        assert 100 <= w.outputs["hr_avg"] <= 200
        assert w.overhead_factor > 1.0


def test_dp_preset_noised_outputs_stay_plausible():
    result = run_scenario(small_config(preset="web", producers=80, partition_size=40, windows=2))
    assert result.summary["shadow_ok"] is True
    for w in result.windows:
        assert w.status == "ok"
        # engaged_avg is a mean over ~80 users with sigma 20 ring-unit noise
        assert 40 <= w.outputs["engaged_avg"] <= 140
        assert w.outputs["views_avg"] > 0


def test_car_preset_reports_per_user_isolation():
    result = run_scenario(small_config(preset="car", windows=2))
    assert result.summary["shadow_ok"] is True
    saw_per_user = any("per_user" in w.extras for w in result.windows)
    assert saw_per_user


def test_all_protocols_agree_with_shadow():
    for protocol in ("clique", "dream", "zeph"):
        result = run_scenario(small_config(protocol=protocol, windows=2))
        assert result.summary["shadow_ok"] is True, protocol
        assert result.summary["protocol"] == protocol


def test_replay_is_deterministic():
    a = run_scenario(small_config())
    b = run_scenario(small_config())
    assert replay_projection(a) == replay_projection(b)
    assert a.summary["prf_calls_total"] == b.summary["prf_calls_total"]


def test_parallel_execution_is_refused():
    assert small_config(parallel=False).parallel is False
    with pytest.raises(ValueError, match="parallel"):
        small_config(parallel=True)


def test_dropouts_within_allowance_stay_live():
    result = run_scenario(small_config(dropout_rate=0.03, windows=4))
    assert result.summary["shadow_ok"] is True
    # catch-up events keep every window decodeable despite the churn
    assert result.summary["liveness"] == 1.0
    assert any(w.members < result.plan_members for w in result.windows)


def test_excessive_dropouts_fail_closed():
    # 15% churn exceeds the plan's 10% dropout allowance in some windows;
    # those windows must refuse to release rather than shrink the population
    result = run_scenario(small_config(dropout_rate=0.15, drop_rate=0.01, windows=4))
    statuses = {w.status for w in result.windows}
    assert "failed_min_members" in statuses
    failed = [w for w in result.windows if w.status == "failed_min_members"]
    for w in failed:
        assert w.outputs == {} or "per_user" in w.extras
    # the surviving windows still verify against the plaintext shadow
    assert all(
        w.shadow_ok for w in result.windows if w.status == "ok" and w.shadow_ok is not None
    )


def test_zeph_run_is_pinned():
    # one partition of 58 plans its epoch (b = 1); every figure below was
    # recorded from the per-peer tuple plan the bit-matrix plan replaced
    scenario = _Scenario(
        small_config(protocol="zeph", partition_size=60, colluding_fraction=0.2, seed=3)
    )
    result = scenario.run()
    assert [part.b for part in scenario.partitions] == [1]
    assert all(w.status == "ok" and w.shadow_ok for w in result.windows)
    released = json.dumps([w.released for w in result.windows]).encode()
    assert (
        hashlib.sha256(released).hexdigest()
        == "4ae08884f365504443d3dc1320eca794f5483186090a769449ec0a9b482e43a2"
    )
    # PRF counts are the tuple plan's less 2 * (683 - 407) = 552 blocks per
    # token, since tokens derive keys for the 407 source elements only
    counts = [
        (w.prf_calls, w.additions, w.bytes_controller, w.bytes_server) for w in result.windows
    ]
    assert counts == [
        (172174 - 58 * 552, 177620, 67628, 3007),
        (168112 - 58 * 552, 176122, 67628, 0),
        (160590 - 57 * 552, 163924, 66462, 48),
    ]
    summary = result.summary
    assert summary["prf_calls_total"] == 1131285 - 173 * 552
    assert summary["additions_total"] == 517666
    assert summary["bytes_producer_total"] == 4742968
    assert summary["bytes_controller_total"] == 201718
    assert summary["bytes_server_total"] == 3055


def _pinned_digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _pinned_totals(result: ScenarioResult) -> tuple:
    s = result.summary
    return (
        s["prf_calls_total"],
        s["additions_total"],
        s["bytes_producer_total"],
        s["bytes_controller_total"],
        s["bytes_server_total"],
    )


def test_clique_run_with_per_user_query_is_pinned():
    result = run_scenario(
        small_config(preset="car", producers=60, partition_size=60, seed=7)
    )
    assert all(w.status == "ok" and w.shadow_ok for w in result.windows)
    assert all(w.extras["per_user"]["status"] == "ok" for w in result.windows)
    assert (
        _pinned_digest([w.released for w in result.windows])
        == "ef899c3e7b5dce7f9360ec9cdd8500d280b19c72e017e99f5c161c35c1ad8886"
    )
    assert (
        _pinned_digest([w.extras["per_user"] for w in result.windows])
        == "28414aba9b8cb7760dcc1d7a4ec7bffac814900dbc362863133d328ba4a78868"
    )
    assert _pinned_totals(result) == (328939, 316074, 1175112, 73950, 2865)


def test_dream_run_with_dp_noise_is_pinned():
    scenario = _Scenario(
        small_config(preset="web", producers=60, partition_size=30, seed=7, protocol="dream")
    )
    assert scenario.plan.dp_epsilon is not None
    result = scenario.run()
    assert all(w.status == "ok" and w.shadow_ok for w in result.windows)
    assert (
        _pinned_digest([w.released for w in result.windows])
        == "8520fa022ef8b2b86c4a1fbb5c99a5d92cd6dd32cd18d4e7c30397748f6a7ca6"
    )
    assert _pinned_totals(result) == (905160, 38128, 6639792, 30272, 2839)


def test_tokens_use_the_plans_layout_and_source_keys_only(monkeypatch):
    from veilstream import pipeline, policy, tokens

    scenario = _Scenario(
        small_config(
            protocol="zeph", partition_size=60, colluding_fraction=0.2, seed=3, windows=2
        )
    )
    assert len(scenario.plan.directives) == 683
    assert len(scenario.plan.token_layout.sources) == 407
    layout_calls = []
    original_layout = tokens.output_layout

    def counted_layout(directives):
        layout_calls.append(len(directives))
        return original_layout(directives)

    for module in (tokens, policy):
        monkeypatch.setattr(module, "output_layout", counted_layout)
    token_blocks = []
    original_token = pipeline.single_stream_token

    def metered_token(*args, **kwargs):
        before = kwargs["prf"].calls
        token = original_token(*args, **kwargs)
        token_blocks.append(kwargs["prf"].calls - before)
        return token

    monkeypatch.setattr(pipeline, "single_stream_token", metered_token)
    result = scenario.run()
    assert all(w.status == "ok" and w.shadow_ok for w in result.windows)
    assert len(token_blocks) == sum(w.members for w in result.windows) == 116
    assert set(token_blocks) == {2 * 407}
    assert layout_calls == []


def test_zeph_keeps_only_the_current_epoch_plan():
    config = SimConfig(
        custom=SOLO_SCENARIO,
        protocol="zeph",
        producers=20,
        partition_size=20,
        colluding_fraction=0.0,
        failure_budget=0.1,
        windows=257,
        events_per_window=1,
        drop_rate=0.0,
        dropout_rate=0.0,
        seed=1,
    )
    scenario = _Scenario(config)
    (part,) = scenario.partitions
    assert part.epoch_width == 256  # window 256 opens the second epoch
    result = scenario.run()
    assert result.summary["shadow_ok"] is True
    assert result.summary["windows_ok"] == 257
    assert sorted(part.epoch_plans) == sorted(part.parties)
    assert {plan.epoch_id for plan in part.epoch_plans.values()} == {1}


def test_suppressed_window_charges_no_budget():
    # the always-online members exhaust their epsilon budget after 40
    # windows; window 40 must be suppressed before anyone else is charged
    scenario = _Scenario(
        SimConfig(
            preset="web",
            protocol="dream",
            producers=60,
            partition_size=20,
            windows=44,
            dropout_rate=0.05,
            seed=2,
        )
    )
    assemble = scenario._assemble
    spent = {}

    def spy(w):
        before = {sid: b.epsilon_spent for sid, b in scenario.budgets.items()}
        assemble(w)
        spent[w] = (before, {sid: b.epsilon_spent for sid, b in scenario.budgets.items()})

    scenario._assemble = spy
    result = scenario.run()
    suppressed = [w for w in result.windows if w.status == "suppressed"]
    assert [w.window for w in suppressed] == [40, 41, 42, 43]
    for w in suppressed:
        before, after = spent[w.window]
        assert before == after
        assert (w.prf_calls, w.additions, w.bytes_controller) == (0, 0, 0)
        assert w.extras["suppressed"] == "epsilon budget exhausted"
    assert all(w.status == "ok" and w.shadow_ok for w in result.windows[:40])


# ---- custom scenarios ----------------------------------------------------------------


def test_single_producer_custom_scenario():
    config = SimConfig(
        preset="custom",
        custom=SOLO_SCENARIO,
        producers=1,
        windows=2,
        partition_size=8,
        seed=3,
        protocol="clique",
        dropout_rate=0.0,
        drop_rate=0.0,
    )
    result = run_scenario(config)
    assert result.preset == "greenhouse"
    assert result.plan_members == 1
    assert result.summary["shadow_ok"] is True
    for w in result.windows:
        assert w.status == "ok"
        assert 5 <= w.outputs["temp_avg"] <= 45
        assert 0 <= w.outputs["moisture_total"] <= 2 * 4


def test_wrapped_sum_of_squares_fails_the_window():
    # 40 producers x 4 events of x ~ 3e6 square, in fixed point, to about
    # 1.4e19 per window: between 2**63 and 2**64, so the lifted sum is negative
    wrap = {
        "schema": {
            "name": "wrap",
            "attributes": [
                {
                    "name": "x",
                    "aggregates": ["var"],
                    "generator": {"kind": "uniform", "low": 2.9e6, "high": 3e6},
                    "options": [{"kind": "aggregate"}],
                }
            ],
        },
        "select": {"x_var": {"attribute": "x", "function": "var"}},
    }
    result = run_scenario(
        small_config(preset="custom", custom=wrap, partition_size=40, producers=40, seed=1)
    )
    assert result.summary["windows_ok"] == 0
    for w in result.windows:
        assert 1 << 63 < w.released[1] < 1 << 64
        assert w.status == "decode_warning"
        assert w.shadow_ok is True  # the ring sums are exact; their decode is not
        assert w.outputs["x_var"] < 0
        assert w.extras["decode_warnings"] == {
            "x_var": ["sum of squares wrapped past M/2; window likely overflowed"]
        }


def test_custom_scenario_validation():
    with pytest.raises(ValueError, match="'schema' mapping"):
        custom_table({"select": {"x": {}}})
    with pytest.raises(ValueError, match="at least one attribute"):
        custom_table({"schema": {"name": "s"}, "select": {"x": {}}})
    base_attr = {
        "name": "a",
        "aggregates": ["sum"],
        "options": [{"kind": "stream-aggregate"}],
    }
    with pytest.raises(ValueError, match="non-empty 'select'"):
        custom_table({"schema": {"name": "s", "attributes": [base_attr]}})
    with pytest.raises(ValueError, match="unknown generator kind"):
        custom_table(
            {
                "schema": {
                    "name": "s",
                    "attributes": [dict(base_attr, generator={"kind": "poisson"})],
                },
                "select": {"x": {"attribute": "a", "function": "sum"}},
            }
        )
    with pytest.raises(ValueError, match="missing parameters"):
        custom_table(
            {
                "schema": {
                    "name": "s",
                    "attributes": [dict(base_attr, generator={"kind": "normal", "mean": 1})],
                },
                "select": {"x": {"attribute": "a", "function": "sum"}},
            }
        )


# ---- result serialization ---------------------------------------------------------


def test_result_csv_and_json_render():
    result = run_scenario(small_config(windows=2))
    csv_text = result.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 2
    doc = json.loads(result.to_json())
    assert doc["preset"] == "fitness"
    assert len(doc["windows"]) == 2
    assert doc["windows"][0]["shadow_ok"] is True
    assert set(doc["summary"]) >= {"liveness", "shadow_ok", "transport"}
