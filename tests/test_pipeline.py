"""End-to-end scenario simulations checked against their plaintext shadows."""

import dataclasses
import hashlib
import json
import math
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veilstream import pipeline
from veilstream.pipeline import (
    CSV_COLUMNS,
    Scheduler,
    ScenarioResult,
    SimConfig,
    SimTransport,
    _Scenario,
    balanced_partitions,
    custom_table,
    encode_neutral_vector,
    measure_bandwidth,
    preset_schema,
    run_scenario,
    scenario_presets,
)
from veilstream.policy import plan_query, verify_plan
from veilstream.ring import AesPrf, CountingPrf
from veilstream.secure_agg import (
    EpochPlan,
    KeyPair,
    MaskedBatch,
    MembershipDelta,
    PeerTable,
    disconnect_bound,
    graph_bits,
    mask_base,
    optimize_b,
    round_edges,
)
from veilstream.tokens import noise_normals, stream_set_hash

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


def member_owners(scenario: _Scenario) -> frozenset:
    """The owners of the last assembled window's population members."""
    population = scenario.plans[0]
    return frozenset(compress(population.parties, population.members))


def recording_owner_sets(scenario: _Scenario) -> list:
    """Make `scenario` record each window's set of member owners, in
    window order, into the list returned."""
    owner_sets = []
    assemble = scenario._assemble

    def spy(w):
        assemble(w)
        owner_sets.append(member_owners(scenario))

    scenario._assemble = spy
    return owner_sets


def live_vector(table, owners) -> np.ndarray:
    return np.array([p in owners for p in table.parties], dtype=bool)


class PerPairKeyPair(KeyPair):
    """A key pair whose table rows come from `KeyPair`'s per-pair
    `derive_shared` loop rather than from its type's batch derivation."""

    def __init__(self, inner):
        self.inner = inner
        self.party_id = inner.party_id

    def public_identity(self):
        return self.inner.public_identity()

    def derive_shared(self, peer):
        return self.inner.derive_shared(peer)


def partition_table(scenario: _Scenario, part: slice) -> PeerTable:
    """The pairs of the partition `part` (a span of plan members) as a
    one-group table, built here from the scenario's key pairs pair by pair
    (`PerPairKeyPair`) rather than read from the scenario's table."""
    streams = scenario.plans[0].plan.members[part]
    keypairs = [PerPairKeyPair(scenario.keypairs[sid]) for sid in streams]
    return PeerTable([keypairs], scenario.registry)


def partition_sizes(scenario: _Scenario) -> list[int]:
    """Each partition's number of plan members."""
    return [part.stop - part.start for part in scenario.plans[0].partitions]


def base_edges(scenario: _Scenario, part, owners, w, prf):
    """The rows of window w's base in `part`'s own table: `round_edges`
    over the owners `owners` under the scenario's rule, with a zeph plan
    derived here for every row."""
    table = partition_table(scenario, part)
    population = scenario.plans[0]
    plan = None
    if population.zeph:
        epoch = w // population.epoch_width
        plan = EpochPlan(epoch, population.b, (), graph_bits(table.keys, epoch, prf=prf))
    live = live_vector(table, owners)
    return live, round_edges(table, live, w, plan=plan, threshold=population.threshold, prf=prf)


def pair_figures(scenario: _Scenario, owner_sets: list) -> tuple[list[int], list[int], list]:
    """Per window, from `round_edges`' pair rows: the pairs selected over
    the members, the PRF blocks that a table of ordered rows, two per
    pair, spent on each pair's second end, and the PRF blocks and ring
    additions that masking through a base and a delta adds to recomputing
    every mask from the members.

    Recomputing from the members, the second ends cost a mask per pair
    selected over the members at ceil(width/2) blocks, a dream draw per
    pair with both ends members, and in window 0 a zeph graph block per
    pair of the table. The delta path starts from every plan member
    before window 0 and goes over consecutive member sets: each base pair
    with an end no longer live is masked twice more (in the base, then
    backed out), at ceil(width/2) blocks and width additions in each of
    its two ends' rows, and dream draws once more for each base candidate
    that is no candidate now. Every window must release, all in one zeph
    epoch, so the plan's rows do not move."""
    population = scenario.plans[0]
    width = population.plan.output_width
    blocks = (width + 1) // 2
    prf = AesPrf()
    edges, second_ends, extra = [], [], []
    for w, before in enumerate([frozenset(population.parties), *owner_sets[:-1]]):
        selected = second = prf_blocks = additions = 0
        for part in population.partitions:
            table = partition_table(scenario, part)
            now, rows_now = base_edges(scenario, part, owner_sets[w], w, prf)
            candidate_now = now[table.low] & now[table.high]
            selected += len(rows_now)
            second += len(rows_now) * blocks
            if population.threshold is not None:
                second += int(np.count_nonzero(candidate_now))
            if w == 0 and population.zeph:
                second += len(table)
            base, rows = base_edges(scenario, part, before, w, prf)
            removed = int(np.count_nonzero(~candidate_now[rows]))
            prf_blocks += 2 * removed * blocks
            additions += 2 * 2 * removed * width
            if population.threshold is not None:
                candidate_base = base[table.low] & base[table.high]
                prf_blocks += int(np.count_nonzero(candidate_base & ~candidate_now))
        edges.append(selected)
        second_ends.append(second)
        extra.append((prf_blocks, additions))
    return edges, second_ends, extra


def delta_bytes(before: frozenset, after: frozenset) -> int:
    """The `bytes_server` a window bills for a membership change."""
    delta = MembershipDelta(0, after - before, before - after)
    return delta.wire_size() if delta.joined or delta.dropped else 0


def window0_bytes_shift(scenario: _Scenario, owner_sets: list) -> int:
    """How window 0's `bytes_server` moves when its delta is measured from
    every plan member instead of from nobody: less the wire size of every
    member joining, plus that of the change from the plan's members."""
    first = owner_sets[0]
    parties = frozenset(scenario.plans[0].parties)
    return delta_bytes(parties, first) - delta_bytes(frozenset(), first)


def recording_releases(scenario: _Scenario) -> dict:
    """Make `scenario` record, per window its population plan releases,
    the members and the plaintext window sums on the lane map's lanes."""
    seen = {}
    release = scenario._release

    def spy(p, w, rec, result):
        if p is scenario.plans[0]:
            seen[w] = (p.members.copy(), rec.plain.copy())
        release(p, w, rec, result)

    scenario._release = spy
    return seen


def expected_release(scenario: _Scenario, w: int, members, plain) -> list[int]:
    """Window w's released vector, rebuilt member by member: the members'
    plaintext sums on the plan's layout, plus each member's noise share,
    drawn by a one-key call under SHA-256 of (run seed, party) and sized
    for the window's members."""
    population = scenario.plans[0]
    total = plain[members].sum(axis=0)
    columns = [np.searchsorted(scenario.lanes, sources) for sources in population.plan.layout]
    out = np.array([total[c].sum() for c in columns])
    if population.plan.dp_epsilon is not None:
        noise = dataclasses.replace(population.plan.noise, party_count=int(members.sum()))
        seed = (scenario.config.seed % 2**64).to_bytes(8, "little")
        prf = AesPrf()
        for party in compress(population.parties, members):
            key = hashlib.sha256(b"dp-noise\x00" + seed + party.value).digest()[:16]
            z = noise_normals(np.frombuffer(key, np.uint8).reshape(1, 16), w, len(out), prf=prf)
            out += np.rint(noise.per_party_sigma * z[0]).astype(np.int64).astype(np.uint64)
    return out.tolist()


def noise_blocks(scenario: _Scenario, result: ScenarioResult) -> list[int]:
    """Per window, the PRF blocks of its noise: each member's share costs
    a block per two outputs, drawn by its controller and again by the
    shadow."""
    blocks = (scenario.plans[0].plan.output_width + 1) // 2
    return [2 * w.members * blocks if w.status == "ok" else 0 for w in result.windows]


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
    with pytest.raises(ValueError, match="^grace must be positive, got -1"):
        SimConfig(grace=-1.0)
    with pytest.raises(ValueError, match="^grace must be positive, got 0"):
        SimConfig(grace=0.0)
    with pytest.raises(ValueError, match="^window_size must be positive, got 0"):
        SimConfig(window_size=0.0)
    with pytest.raises(ValueError, match="^latency_mean must be positive, got 0"):
        SimConfig(latency_mean=0.0)
    with pytest.raises(ValueError, match="^latency_sigma must be at least 0, got -0.1"):
        SimConfig(latency_sigma=-0.1)
    with pytest.raises(ValueError, match=r"^drop_rate must be in \[0, 1\], got 1.5"):
        SimConfig(drop_rate=1.5)
    with pytest.raises(ValueError, match=r"^dropout_rate must be in \[0, 1\], got -0.01"):
        SimConfig(dropout_rate=-0.01)
    # the boundaries themselves are accepted
    SimConfig(grace=0.01, latency_sigma=0.0, drop_rate=1.0, dropout_rate=0.0)
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
    transport = SimTransport(
        np.random.default_rng(3),
        latency_mean=0.1,
        latency_sigma=0.4,
        drop_rate=0.5,
    )
    sends = [4.0 + 0.25 * k for k in range(200)]
    arrivals = [transport.send(10, now) for now in sends]
    # a message's fate is drawn at send time, from the send time it is given
    assert all(t >= now for now, t in zip(sends, arrivals) if t is not None)
    landed = [t for t in arrivals if t is not None]
    assert transport.sent == 200
    assert transport.sent == transport.delivered + transport.dropped
    assert transport.delivered == len(landed)
    assert 0 < transport.dropped < 200
    assert transport.bytes_sent == 2000


@pytest.mark.parametrize("producers", [60, 120])
def test_a_run_schedules_four_events_per_window(monkeypatch, producers):
    # per window: its opening, its event pass, its border pass and its
    # assembly, however many streams send
    whens = []
    original = Scheduler.at

    def counted(self, when, fn):
        whens.append(when)
        original(self, when, fn)

    monkeypatch.setattr(Scheduler, "at", counted)
    config = small_config(producers=producers, dropout_rate=0.05)
    result = run_scenario(config)
    assert result.summary["transport"]["sent"] > 4 * config.windows
    T = config.window_size
    assert sorted(whens) == sorted(
        when
        for w in range(config.windows)
        for when in (w * T, w * T, (w + 1) * T, (w + 1) * T + config.grace)
    )


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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("windows", 0, "at least one window"),
        ("windows", -2, "at least one window"),
        ("colluding_fraction", 1.5, "colluding_fraction"),
        ("colluding_fraction", 1.0, "colluding_fraction"),
        ("colluding_fraction", -0.1, "colluding_fraction"),
        ("failure_budget", 7.0, "failure_budget"),
        ("failure_budget", 0.0, "failure_budget"),
    ],
)
def test_config_refuses_out_of_range_values(field, value, message):
    # refused whatever the protocol, before any scenario is built
    for protocol in ("clique", "dream", "zeph"):
        with pytest.raises(ValueError, match=message):
            small_config(protocol=protocol, **{field: value})
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(small_config(protocol=protocol), **{field: value})
    assert small_config(windows=1, colluding_fraction=0.0, failure_budget=0.5).windows == 1


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
    # one partition of 58 plans its epoch (b = 1)
    scenario = _Scenario(
        small_config(protocol="zeph", partition_size=60, colluding_fraction=0.2, seed=3)
    )
    owner_sets = recording_owner_sets(scenario)
    result = scenario.run()
    assert len(scenario.plans[0].partitions) == 1 and scenario.plans[0].b == 1
    assert scenario.plans[0].epoch_width > len(result.windows)
    assert all(w.status == "ok" and w.shadow_ok for w in result.windows)
    released = json.dumps([w.released for w in result.windows]).encode()
    assert (
        hashlib.sha256(released).hexdigest()
        == "4ae08884f365504443d3dc1320eca794f5483186090a769449ec0a9b482e43a2"
    )
    # PRF counts and additions follow the fixed-key AES graph draws, checked
    # against a replay with F evaluated block by block by the cipher library.
    # Windows 0 and 1 equal their keyed-AES figures: at b = 1 the two rounds
    # split the 1,653 edges.
    # Masking through a base and a delta adds `extra` (window 2 loses a
    # member, so its base edges to it are masked twice more). Window 0
    # bills its delta from the plan's members: all 58 are present, so it
    # bills none, where the delta from nobody billed 58 joins.
    # A table of one row per pair evaluates each pair once, where the
    # figures above evaluated it from both ends: each PRF figure is less
    # the blocks `second` spent on second ends.
    edges, second, extra = pair_figures(scenario, owner_sets)
    assert edges[0] + edges[1] == 1653
    assert extra[0] == (0, 0) and extra[2] != (0, 0)
    shift = window0_bytes_shift(scenario, owner_sets)
    assert 3007 + shift == 1135
    # The pair secrets decide which pairs a round selects. Each figure
    # below is its part that no secret moves, the old figure less the
    # selected pairs' masks under the SHA-256 secrets (830, 823 and 809
    # pairs, two ordered rows of `blocks` blocks and `width` additions
    # each), plus those of the pairs `round_edges` selects now.
    width = scenario.plans[0].plan.output_width
    blocks = (width + 1) // 2
    masks = [(2 * blocks * e, 2 * width * e) for e in edges]
    counts = [
        (w.prf_calls, w.additions, w.bytes_controller, w.bytes_server) for w in result.windows
    ]
    assert counts == [
        (
            140158 - 2 * blocks * 830 + masks[0][0] - second[0] + extra[0][0],
            177620 - 2 * width * 830 + masks[0][1] + extra[0][1],
            67628,
            3007 + shift,
        ),
        (
            136096 - 2 * blocks * 823 + masks[1][0] - second[1] + extra[1][0],
            176122 - 2 * width * 823 + masks[1][1] + extra[1][1],
            67628,
            0,
        ),
        (
            133770 - 2 * blocks * 809 + masks[2][0] - second[2] + extra[2][0],
            173126 - 2 * width * 809 + masks[2][1] + extra[2][1],
            66462,
            48,
        ),
    ]
    # setup spends one block per pair of the scenario's table
    summary = result.summary
    assert summary["prf_calls_total"] == (
        1040433
        - 2 * blocks * (830 + 823 + 809)
        + sum(m[0] for m in masks)
        - sum(second)
        + sum(e[0] for e in extra)
        + len(scenario.plans[0].pairs)
    )
    assert summary["additions_total"] == (
        526868 - 2 * width * (830 + 823 + 809) + sum(m[1] for m in masks) + sum(e[1] for e in extra)
    )
    assert summary["bytes_producer_total"] == 4742968
    assert summary["bytes_controller_total"] == 201718
    assert summary["bytes_server_total"] == 3055 + shift


def _pinned_digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _pinned_totals(scenario: _Scenario, result: ScenarioResult, figures: tuple, shift: int) -> tuple:
    """The run's totals less what the pair secrets move, with `figures`
    from `pair_figures`: PRF blocks less setup's block per pair of the
    scenario's table, less two ordered rows' mask blocks for each selected
    pair, plus the second ends and less the delta path's extra blocks;
    additions less two ordered rows' for each selected pair and less the
    extra additions; and server bytes less window 0's `shift`."""
    edges, second, extra = figures
    width = scenario.plans[0].plan.output_width
    blocks = (width + 1) // 2
    s = result.summary
    return (
        s["prf_calls_total"]
        - len(scenario.plans[0].pairs)
        - 2 * blocks * sum(edges)
        + sum(second)
        - sum(e[0] for e in extra),
        s["additions_total"] - 2 * width * sum(edges) - sum(e[1] for e in extra),
        s["bytes_producer_total"],
        s["bytes_controller_total"],
        s["bytes_server_total"] - shift,
    )


def test_clique_run_with_per_user_query_is_pinned():
    scenario = _Scenario(small_config(preset="car", producers=60, partition_size=60, seed=7))
    owner_sets = recording_owner_sets(scenario)
    result = scenario.run()
    figures = pair_figures(scenario, owner_sets)
    assert figures[2][2] != (0, 0)
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
    shift = window0_bytes_shift(scenario, owner_sets)
    # each pinned figure is the old one less the masks of the 4,789 pairs
    # the clique selected over the windows' members (`_pinned_totals`):
    # 17 blocks and 33 additions at each of two ordered rows
    assert _pinned_totals(scenario, result, figures, shift) == (
        328939 - 2 * 17 * 4789,
        316074 - 2 * 33 * 4789,
        1175112,
        73950,
        2865,
    )


def test_dream_run_with_dp_noise_is_pinned():
    scenario = _Scenario(
        small_config(preset="web", producers=60, partition_size=30, seed=7, protocol="dream")
    )
    assert scenario.plans[0].plan.dp_epsilon is not None
    # the 58 plan members are cut 29 + 29, where the pins below were
    # recorded for a cut of 30 + 28: what the cut moves is the pairs'
    # figures, which `_pinned_totals` takes out
    assert partition_sizes(scenario) == [29, 29]
    owner_sets = recording_owner_sets(scenario)
    seen = recording_releases(scenario)
    result = scenario.run()
    figures = pair_figures(scenario, owner_sets)
    assert figures[2][2] != (0, 0)
    assert all(w.status == "ok" and w.shadow_ok for w in result.windows)
    for w in result.windows:
        assert w.released == expected_release(scenario, w.window, *seen[w.window])
    assert (
        _pinned_digest([w.released for w in result.windows])
        == "a0ed666e1d30256dad54f03e9e311dadaf930f8e03f66c74cf425125455b16c9"
    )
    # the PRF figure moves by the noise blocks alone; each pinned figure is
    # the old one less the masks of the 2,383 pairs that dream selected
    # under the SHA-256 secrets (`_pinned_totals`): 4 blocks and 8
    # additions at each of two ordered rows
    shift = window0_bytes_shift(scenario, owner_sets)
    noise = sum(noise_blocks(scenario, result))
    assert _pinned_totals(scenario, result, figures, shift) == (
        905160 - 2 * 4 * 2383 + noise,
        38128 - 2 * 8 * 2383,
        6639792,
        30272,
        2839,
    )


def test_a_window_counts_the_members_its_delta_left_without_a_pair(caplog):
    # 58 plan members in partitions of two: a member whose partner is
    # absent from a window is left without a pair in it
    scenario = _Scenario(
        small_config(
            preset="car", producers=60, partition_size=2, windows=2,
            dropout_rate=0.05, drop_rate=0.0, seed=3,
        )
    )
    assert partition_sizes(scenario) == [2] * 29
    seen = recording_releases(scenario)
    result = scenario.run()
    alone = []  # per window: the members whose partner is absent
    for w in result.windows:
        members, _ = seen[w.window]
        paired = np.repeat(members.reshape(-1, 2).all(axis=1), 2)
        alone.append(list(compress(scenario.plans[0].parties, members & ~paired)))
    assert sum(map(len, alone)) > 0
    # a window that leaves a member without a pair is refused: its batch
    # is neither unmasked nor billed
    assert [(w.status, w.shadow_ok, w.extras["isolated"]) for w in result.windows] == [
        ("isolated_member", None, len(a)) if a else ("ok", True, 0) for a in alone
    ]
    refused = [w for w in result.windows if w.status == "isolated_member"]
    assert refused and all(w.released is None and w.outputs == {} for w in refused)
    # only the per-user token is billed in a refused window
    user_plan = scenario.plans[1].plan
    user_token = measure_bandwidth(scenario.width, user_plan.output_width)["token_bytes"]
    assert all(w.bytes_controller == user_token for w in refused)
    warned = [r.getMessage() for r in caplog.records if "no active peers" in r.getMessage()]
    assert len(warned) == sum(map(len, alone))
    assert all(any(repr(p) in m for m in warned) for a in alone for p in a)
    # partitions in which every member keeps a pair count none
    assert run_scenario(small_config(windows=1)).windows[0].extras["isolated"] == 0
    # a refused DP window charges no member's budget and bills no batch
    scenario = _Scenario(
        small_config(
            preset="web", producers=60, partition_size=2, windows=3,
            dropout_rate=0.05, drop_rate=0.0, seed=1,
        )
    )
    result = scenario.run()
    assert [(w.status, w.extras["isolated"]) for w in result.windows] == [
        ("ok", 0), ("ok", 0), ("isolated_member", 2)
    ]
    assert result.windows[2].bytes_controller == 0
    assert np.all(scenario.plans[0].spent == 2 * scenario.plans[0].plan.dp_epsilon)


@pytest.mark.parametrize(
    "preset, windows, seed, built",
    [("car", 4, 3, 4238), ("web", 3, 1, 1244)],
    ids=["car", "web-dp"],
)
def test_a_refused_window_derives_no_token_key_and_no_noise(monkeypatch, preset, windows, seed, built):
    # partitions of two, as above. The delta runs before the tokens, so the
    # window it leaves a member without a pair in (the last) builds no
    # population token and draws no noise: it spends `built` PRF blocks
    # less its members' token keys and noise blocks, where `built` is what
    # it spent when it built them
    scenario = _Scenario(
        small_config(
            preset=preset, producers=60, partition_size=2, windows=windows,
            dropout_rate=0.05, drop_rate=0.0, seed=seed,
        )
    )
    L = scenario.config.logical_window
    calls = []  # (function, window, rows) of every token batch and noise pass
    for name, window_of in (
        ("token_matrix", lambda args: args[1][0] // L),
        ("noise_normals", lambda args: args[1]),
    ):

        def spy(*args, name=name, window_of=window_of, original=getattr(pipeline, name), **kw):
            calls.append((name, window_of(args), len(args[0])))
            return original(*args, **kw)

        monkeypatch.setattr(pipeline, name, spy)
    result = scenario.run()
    refused = windows - 1
    assert [w.status for w in result.windows] == ["ok"] * refused + ["isolated_member"]
    # in the refused window only car's per-user plan, of one member, builds a token
    per_user = [("token_matrix", refused, 1)] if preset == "car" else []
    assert [c for c in calls if c[1] == refused] == per_user
    plan = scenario.plans[0].plan
    sources = len(plan.token_layout.sources)
    noise = (plan.output_width + 1) // 2 if plan.dp_epsilon is not None else 0
    w = result.windows[refused]
    assert w.prf_calls == built - w.members * (2 * sources + noise)
    # the one-token claim is still recorded, before any key work
    assert (plan.plan_id, (refused * L, windows * L)) in scenario.minted


def test_a_plan_cut_with_a_one_member_partition_is_refused():
    # 59 plan members in partitions of at most two: 29 of two and one of
    # one, whose token would go out unmasked
    with pytest.raises(ValueError, match="the 59 plan members into partitions of 2 and 1: "):
        _Scenario(small_config(preset="car", producers=61, partition_size=2))
    with pytest.raises(ValueError, match="the 58 plan members into partitions of 1: "):
        run_scenario(small_config(preset="car", producers=60, partition_size=1))
    # a plan of one member is its own partition
    solo = _Scenario(SimConfig(custom=SOLO_SCENARIO, producers=1, partition_size=1, windows=1))
    assert partition_sizes(solo) == [1]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 5000), size=st.integers(1, 400))
def test_partitions_are_balanced_and_cover_the_plan_in_order(n, size):
    parts = balanced_partitions(n, size)
    assert len(parts) == -(-n // size)
    # consecutive, from the first plan member to the last
    assert [p.start for p in parts] == [0] + [p.stop for p in parts[:-1]]
    assert parts[-1].stop == n
    sizes = [p.stop - p.start for p in parts]
    assert max(sizes) <= size and max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(3, 600),
    colluding=st.sampled_from([0.0, 0.2, 0.5, 0.8]),
    budget=st.sampled_from([0.1, 1e-3, 1e-7, 1e-12]),
)
def test_the_smallest_partitions_rule_holds_for_the_larger(k, colluding, budget):
    # the rule a scenario works out for its smallest partition, of k
    # members, also meets the failure budget at k + 1
    rule = optimize_b(k, colluding, budget)
    if rule.feasible:
        honest = math.ceil((1 - colluding) * (k + 1))
        assert disconnect_bound(honest, rule.edge_probability, rule.rounds) <= budget


@pytest.mark.parametrize("protocol", ["clique", "dream", "zeph"])
def test_a_scenario_holds_one_table_rule_epoch_plan_and_base(protocol):
    scenario = _Scenario(
        small_config(
            protocol=protocol, producers=250, partition_size=100, windows=2,
            colluding_fraction=0.2, failure_budget=0.01,
        )
    )
    # one plan: 245 plan members in three partitions, one group each of one table
    (population,) = scenario.plans
    assert partition_sizes(scenario) == [82, 82, 81]
    assert isinstance(population.pairs, PeerTable)
    parts = population.partitions
    assert population.pairs.bounds.tolist() == [p.start for p in parts] + [parts[-1].stop]
    assert population.pairs.parties == population.parties
    assert (population.b is None) == (protocol == "clique")
    assert (population.threshold is None) == (protocol != "dream")
    bases = []
    mask_base_of = scenario._mask_base

    def spy(w):
        mask_base_of(w)
        bases.append(population.base)

    scenario._mask_base = spy
    result = scenario.run()
    assert result.summary["shadow_ok"] is True
    # one base per window, over every plan member, spent by its release
    assert [base.round_index for base in bases] == [0, 1]
    assert all(len(base.live) == len(population.parties) for base in bases)
    assert population.base is None
    if protocol == "zeph":
        assert population.epoch_plan.bits.shape[0] == len(population.pairs)
    else:
        assert population.epoch_plan is None


def test_a_window_with_absent_members_sizes_its_noise_to_reach_the_target(monkeypatch):
    scenario = _Scenario(
        small_config(preset="web", producers=80, partition_size=40, seed=1, dropout_rate=0.05)
    )
    specs = []
    shares = pipeline.noise_shares

    def spy(noise, normals):
        specs.append((noise, len(normals)))
        return shares(noise, normals)

    monkeypatch.setattr(pipeline, "noise_shares", spy)
    seen = recording_releases(scenario)
    result = scenario.run()
    assert result.plan_members == 78
    assert [(w.members, w.status) for w in result.windows] == [(77, "ok"), (78, "ok"), (72, "ok")]
    # each window's shares, drawn for both partitions in one pass, are
    # sized for its members
    assert len(scenario.plans[0].partitions) == 2
    for w in result.windows:
        # the release's shares, then the shadow's
        for _ in range(2):
            noise, rows = specs.pop(0)
            assert rows == noise.party_count == w.members
    assert specs == []
    # the honest members of window 2 (72 of 78, half of them honest) draw
    # noise whose sum reaches sigma_target within acceptance 08's 5%, over
    # 10^4 draws of the same rule: 1,250 windows of 8 outputs
    members, _ = seen[2]
    noise = dataclasses.replace(scenario.plans[0].plan.noise, party_count=72)
    honest = scenario.plans[0].noise_keys[members][: round(noise.honest_fraction * 72)]
    width = scenario.plans[0].plan.output_width
    sums = []
    for t in range(10_000 // width):
        drawn = shares(noise, noise_normals(honest, t, width))
        sums.append(drawn.sum(axis=0).view(np.int64))
    sd = float(np.std(sums))
    assert abs(sd - noise.sigma_target) <= 0.05 * noise.sigma_target, sd


def test_noise_keys_follow_the_run_seed():
    a, b, c = (
        _Scenario(small_config(preset="web", windows=1, seed=s)).plans[0] for s in (7, 7, 8)
    )
    assert a.parties == c.parties
    assert np.array_equal(a.noise_keys, b.noise_keys)
    assert not np.any(np.all(a.noise_keys == c.noise_keys, axis=1))
    assert len(set(map(bytes, a.noise_keys))) == len(a.parties)
    # plans without DP noise hold no noise keys
    assert _Scenario(small_config(windows=1)).plans[0].noise_keys is None
    car = _Scenario(small_config(preset="car", windows=1))
    assert [p.noise_keys for p in car.plans] == [None, None]


@pytest.mark.parametrize(
    "config, statuses, released, transport, bytes_producer",
    [
        # one piece arrives late and 11 catch-up events count for the
        # window they span
        (
            SimConfig(
                preset="car", protocol="clique", producers=60, partition_size=60, windows=5,
                seed=3, dropout_rate=0.05, latency_sigma=1.0, grace=2.0,
            ),
            [(58, "ok"), (58, "ok"), (58, "ok"), (57, "ok"), (56, "ok")],
            "6816347dce374ef066c0e20935104b9399ac2fc0cc7d71340f6b5b2de35f4d91",
            {"sent": 1673, "delivered": 1673, "dropped": 0, "bytes": 1914160},
            [390792, 392160, 357880, 385288, 388040],
        ),
        # 34 window pieces arrive late, 3 are lost and 25 catch-up events count
        (
            SimConfig(
                preset="fitness", protocol="zeph", producers=100, partition_size=50, windows=6,
                seed=4, dropout_rate=0.05, latency_sigma=1.2, grace=1.0, colluding_fraction=0.2,
            ),
            [
                (95, "ok"), (91, "ok"), (87, "failed_min_members"),
                (92, "ok"), (85, "failed_min_members"), (86, "failed_min_members"),
            ],
            "e9ae315e9c72e8528662adc1fa79a625e590631adb7d506986c664a70cf31b2f",
            {"sent": 3318, "delivered": 3315, "dropped": 3, "bytes": 15188368},
            [2494856, 2505800, 2648360, 2505816, 2533216, 2500320],
        ),
        # grace longer than a window: each assembly runs after the next
        # window has opened and sent its catch-ups, pieces and border
        (
            SimConfig(
                preset="web", protocol="dream", producers=100, partition_size=50, windows=5,
                seed=9, grace=25.0, latency_mean=3.0, latency_sigma=1.0, dropout_rate=0.1,
            ),
            [(91, "ok"), (92, "ok"), (93, "ok"), (92, "ok"), (77, "failed_min_members")],
            "c97f11898b064acfb09f6c77e248d69352fa141763aca2b90f323765ce0365b6",
            {"sent": 2678, "delivered": 2675, "dropped": 3, "bytes": 17151424},
            [3411904, 3480880, 3672560, 3327552, 3258528],
        ),
    ],
    ids=["car-clique-catch-ups", "fitness-zeph-late-pieces", "web-dream-long-grace"],
)
def test_late_pieces_and_catch_ups_decide_membership(
    config, statuses, released, transport, bytes_producer
):
    scenario = _Scenario(config)
    seen = recording_releases(scenario)
    result = scenario.run()
    assert [(w.members, w.status) for w in result.windows] == statuses
    assert all(w.shadow_ok for w in result.windows if w.status == "ok")
    for w in result.windows:
        if w.status == "ok":
            assert w.released == expected_release(scenario, w.window, *seen[w.window])
    assert _pinned_digest([w.released for w in result.windows]) == released
    assert result.summary["transport"] == transport
    assert [w.bytes_producer for w in result.windows] == bytes_producer


@pytest.mark.parametrize("preset, lanes", [("fitness", 407), ("web", 8), ("car", 65)])
def test_the_lane_map_reads_each_plans_layout(preset, lanes):
    scenario = _Scenario(small_config(preset=preset, windows=1))
    # the population plan, then car's per-user plan
    plans = [p.plan for p in scenario.plans]
    assert len(plans) == (2 if preset == "car" else 1)
    # the lanes are the sources of the plans' layouts, in lane order
    sources = {j for plan in plans for srcs in plan.layout for j in srcs}
    assert scenario.lanes.tolist() == sorted(sources) and len(sources) == lanes
    record_streams = plans[0].members
    for p in scenario.plans:
        layout = p.layout
        # each output's columns, mapped back through the lanes, are its sources
        bounds = layout.offsets.tolist() + [len(layout.sources)]
        columns = [layout.sources[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        assert tuple(tuple(scenario.lanes[c].tolist()) for c in columns) == p.plan.layout
        assert layout.width == lanes
        # each plan's rows of the window record are its members'
        assert [record_streams[r] for r in p.rows] == list(p.plan.members)
    # an open window keeps its sums, cipher and plain, on those lanes only
    scenario._schedule_window(0)
    record = scenario.open[0]
    assert record.sums.shape == record.plain.shape == (len(scenario.plans[0].plan.members), lanes)


def test_a_catch_up_fills_the_previous_window_on_the_lanes():
    # the car-clique-catch-ups configuration: 11 catch-up events count for
    # the window they span
    config = SimConfig(
        preset="car", protocol="clique", producers=60, partition_size=60, windows=5,
        seed=3, dropout_rate=0.05, latency_sigma=1.0, grace=2.0,
    )
    scenario = _Scenario(config)
    catch_ups, records = {}, {}
    encrypt_chunk, assemble = scenario._encrypt_chunk, scenario._assemble

    def spy_encrypt(w, chunk, block):
        sent = encrypt_chunk(w, chunk, block)
        catch_ups.setdefault(w, {}).update(sent)
        return sent

    def spy_assemble(w):
        records[w] = scenario.open[w]
        assemble(w)

    scenario._encrypt_chunk, scenario._assemble = spy_encrypt, spy_assemble
    scenario.run()
    L = config.logical_window
    filled = 0
    for w, sent in catch_ups.items():
        for si, ct in sent.items():
            assert len(ct.body) == scenario.width  # the wire carries every lane
            # a stream offline for window w - 1 has all L pieces there
            # only when its catch-up arrived in time
            if ct.t_prev == (w - 1) * L and records[w - 1].arrived[si] == L:
                assert np.array_equal(records[w - 1].sums[si], ct.body[scenario.lanes])
                filled += 1
    assert filled == 11


def test_tokens_use_the_plans_layout_and_source_keys_only(monkeypatch):
    from veilstream import pipeline, policy, tokens

    scenario = _Scenario(
        small_config(
            protocol="zeph", partition_size=60, colluding_fraction=0.2, seed=3, windows=2
        )
    )
    assert len(scenario.plans[0].plan.directives) == 683
    assert len(scenario.plans[0].plan.token_layout.sources) == 407
    layout_calls = []
    original_layout = tokens.output_layout

    def counted_layout(directives):
        layout_calls.append(len(directives))
        return original_layout(directives)

    for module in (tokens, policy):
        monkeypatch.setattr(module, "output_layout", counted_layout)
    batches = []  # (streams, PRF blocks) of each token batch
    original_batch = pipeline.token_matrix

    def metered_batch(masters, *args, **kwargs):
        before = kwargs["prf"].calls
        values = original_batch(masters, *args, **kwargs)
        batches.append((len(masters), kwargs["prf"].calls - before))
        return values

    monkeypatch.setattr(pipeline, "token_matrix", metered_batch)
    result = scenario.run()
    assert all(w.status == "ok" and w.shadow_ok for w in result.windows)
    # one batch per partition and window, 2 x 407 source-key blocks a token
    assert len(batches) == 2
    assert sum(n for n, _ in batches) == sum(w.members for w in result.windows) == 116
    assert all(blocks == n * 2 * 407 for n, blocks in batches)
    assert layout_calls == []


def partition_members(scenario: _Scenario, *parts) -> np.ndarray:
    """A membership vector over the plan members holding every member of
    the partitions `parts` and no other."""
    members = np.zeros(len(scenario.plans[0].plan.members), dtype=bool)
    for part in parts:
        members[part] = True
    return members


def test_a_window_token_is_minted_once():
    scenario = _Scenario(small_config(preset="car", windows=1, dropout_rate=0.0))
    result = scenario.run()
    (window,) = result.windows
    assert window.status == "ok" and window.extras["per_user"]["status"] == "ok"
    population, user = scenario.plans
    # base masks for window 0 again, so that only the one-token rule refuses
    every = partition_members(scenario, *population.partitions)
    population.base = mask_base(population.pairs, every, 0, population.plan.output_width)
    calls = scenario.prf.calls
    for part in population.partitions:
        with pytest.raises(RuntimeError, match="already minted"):
            scenario._controller_tokens(population, 0, partition_members(scenario, part))
    # a record in which the per-user stream's chain is complete
    record = pipeline._Window(0.0, len(population.plan.members), len(scenario.lanes))
    user.members = np.ones(1, dtype=bool)
    with pytest.raises(RuntimeError, match="already minted"):
        scenario._release(user, 0, record, window)
    # refused before any key material is derived
    assert scenario.prf.calls == calls
    assert len(scenario.minted) == 2


def test_tokens_are_minted_per_plan_partition_and_window():
    scenario = _Scenario(small_config(preset="car", windows=2, dropout_rate=0.0))
    result = scenario.run()
    assert [w.extras["per_user"]["status"] for w in result.windows] == ["ok", "ok"]
    L = scenario.config.logical_window
    windows = [(w * L, (w + 1) * L) for w in range(2)]
    # one token per plan and window, however many partitions release
    population, user = scenario.plans
    assert len(population.partitions) == 2
    assert scenario.minted == {
        (p.plan.plan_id, window) for p in (population, user) for window in windows
    }
    # each stream's one-stream set id, hashed once at plan setup
    assert population.set_ids == tuple(stream_set_hash([sid]) for sid in population.plan.members)
    # a window not yet released still mints, from its base masks
    part, other = population.partitions
    members = partition_members(scenario, part)
    width = population.plan.output_width
    population.base = mask_base(population.pairs, members, 2, width)
    masked, *_ = scenario._controller_tokens(population, 2, members)
    assert masked.window == (2 * L, 3 * L)
    assert masked.stream_set_ids == population.set_ids[part]
    # without base masks for the window there is no fallback: the release
    # raises before any key is derived
    calls = scenario.prf.calls
    members = partition_members(scenario, other)
    with pytest.raises(RuntimeError, match="no base masks for window 2"):
        scenario._controller_tokens(population, 2, members)
    population.base = mask_base(population.pairs, members, 3, width)
    with pytest.raises(RuntimeError, match="no base masks for window 4"):
        scenario._controller_tokens(population, 4, members)
    assert scenario.prf.calls == calls


def test_a_refused_release_records_no_claim():
    scenario = _Scenario(small_config(preset="car", windows=1, dropout_rate=0.0))
    scenario.run()
    population = scenario.plans[0]
    members = partition_members(scenario, *population.partitions)
    minted = set(scenario.minted)
    with pytest.raises(RuntimeError, match="no base masks for window 1"):
        scenario._controller_tokens(population, 1, members)
    assert scenario.minted == minted
    # the same call goes through once the window has its base masks
    population.base = mask_base(population.pairs, members, 1, population.plan.output_width)
    masked, *_ = scenario._controller_tokens(population, 1, members)
    assert masked.parties == population.parties
    L = scenario.config.logical_window
    assert scenario.minted == minted | {(population.plan.plan_id, (L, 2 * L))}


def test_a_scenario_holds_each_pair_once():
    # population-churn's preset, protocol and loss at 350 producers: the
    # 343 plan members are cut into four dream partitions of at most 100,
    # as even as can be, all under the rule of the smallest
    scenario = _Scenario(
        small_config(
            preset="web", protocol="dream", producers=350, partition_size=100, windows=2,
            seed=1, drop_rate=0.01, dropout_rate=0.02,
        )
    )
    sizes = partition_sizes(scenario)
    assert sizes == [86, 86, 86, 85]
    population = scenario.plans[0]
    assert population.b is not None and population.threshold is not None
    # one table, one group per partition
    table = population.pairs
    assert table.bounds.tolist() == [0, 86, 172, 258, 343]
    assert table.parties == population.parties
    # one row per pair of a partition, held by the scenario's table alone
    assert len(table) == sum(n * (n - 1) // 2 for n in sizes)
    row = 0
    for g, part in enumerate(population.partitions):
        assert table.bounds[g] == part.start
        alone = partition_table(scenario, part)
        rows = slice(row, row + len(alone))
        assert table.keys[rows].tobytes() == alone.keys.tobytes()
        assert table.low[rows].tolist() == (alone.low + table.bounds[g]).tolist()
        assert table.high[rows].tolist() == (alone.high + table.bounds[g]).tolist()
        row = rows.stop
    assert row == len(table)


def test_a_partition_without_members_costs_no_mask_work(caplog):
    scenario = _Scenario(small_config(preset="car", windows=1, dropout_rate=0.0))
    scenario.run()
    population = scenario.plans[0]
    part, other = population.partitions
    # the base holds every plan member; the release only `part`'s
    every = partition_members(scenario, part, other)
    population.base = mask_base(population.pairs, every, 5, population.plan.output_width)
    before = scenario.prf.calls
    masked, _, additions, isolated = scenario._controller_tokens(
        population, 5, partition_members(scenario, part)
    )
    assert masked.parties == population.parties[part]
    # `other` releases nothing, so its pairs are neither backed out nor
    # logged: the release spends only `part`'s token keys
    assert (additions, isolated) == (0, 0)
    sources = len(population.plan.token_layout.sources)
    assert scenario.prf.calls - before == len(masked.parties) * 2 * sources
    assert not [r for r in caplog.records if "no active peers" in r.getMessage()]


def test_a_release_makes_one_pass_of_each_step(monkeypatch, caplog):
    # 281 plan members in partitions of at most 20: fifteen dream
    # partitions of 19 and 18, so none is left with a lone member
    scenario = _Scenario(
        small_config(
            preset="web", protocol="dream", producers=287, partition_size=20, windows=2,
            seed=2, dropout_rate=0.05, colluding_fraction=0.0, failure_budget=0.1,
        )
    )
    assert partition_sizes(scenario) == [19] * 11 + [18] * 4
    assert len(scenario.plans[0].pairs.bounds) - 1 == 15 and scenario.plans[0].b is not None
    releases = []  # per release: the functions it called, in order
    inside = False  # the shadow's noise pass is not the release's

    def counting(name, original):
        def counted(*args, **kwargs):
            if inside:
                releases[-1].append(name)
            return original(*args, **kwargs)

        return counted

    opening = ["unmask_aggregate", "merge_elements", "apply_token"]
    for name in ["token_matrix", "noise_normals", "mask_delta"] + opening:
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
    monkeypatch.setattr(MaskedBatch, "serialize", counting("serialize", MaskedBatch.serialize))
    tokens, release_plan, shadow = scenario._controller_tokens, scenario._release, scenario._shadow

    def controller_tokens(p, w, members):
        out = tokens(p, w, members)
        # one batch of the window's members, in plan order
        assert out[0].parties == tuple(compress(p.parties, members))
        return out

    def release(*args):
        nonlocal inside
        releases.append([])
        inside = True
        try:
            release_plan(*args)
        finally:
            inside = False

    def unmetered_shadow(*args):
        nonlocal inside
        inside = False
        return shadow(*args)

    scenario._controller_tokens = controller_tokens
    scenario._release = release
    scenario._shadow = unmetered_shadow
    result = scenario.run()
    assert [w.status for w in result.windows] == ["ok", "ok"]
    assert any(w.members < result.plan_members for w in result.windows)
    # per release: one delta, token, noise and batch encode pass, then one
    # unmasking
    step = ["mask_delta", "token_matrix", "noise_normals", "serialize"] + opening
    assert releases == [step, step]
    # every member keeps a pair, so no token goes out unmasked
    assert [w.extras["isolated"] for w in result.windows] == [0, 0]
    assert not [r for r in caplog.records if "no active peers" in r.getMessage()]


def test_zeph_keeps_only_the_current_epoch_plan(monkeypatch):
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
    assert scenario.plans[0].epoch_width == 256  # window 256 opens the second epoch
    passes = []  # (epoch, rows, PRF blocks) of each graph_bits pass
    original = pipeline.graph_bits

    def metered(keys, epoch_id, *, prf):
        before = scenario.prf.calls
        bits = original(keys, epoch_id, prf=prf)
        passes.append((epoch_id, len(keys), scenario.prf.calls - before))
        return bits

    monkeypatch.setattr(pipeline, "graph_bits", metered)
    result = scenario.run()
    assert result.summary["shadow_ok"] is True
    assert result.summary["windows_ok"] == 257
    # each epoch derives its plan whole, in one pass of a block per pair
    assert passes == [(0, 190, 190), (1, 190, 190)]
    assert scenario.plans[0].epoch_plan.epoch_id == 1
    assert scenario.plans[0].epoch_plan.bits.shape == (190, 128)


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
    owner_sets = []

    def spy(w):
        before = scenario.plans[0].spent.tolist()
        assemble(w)
        spent[w] = (before, scenario.plans[0].spent.tolist())
        owner_sets.append(member_owners(scenario))

    scenario._assemble = spy
    result = scenario.run()
    suppressed = [w for w in result.windows if w.status == "suppressed"]
    assert [w.window for w in suppressed] == [40, 41, 42, 43]
    width = scenario.plans[0].plan.output_width
    for w in suppressed:
        before, after = spent[w.window]
        assert before == after
        # only the base computed for the window, over the last window's
        # members: dream's draws over its candidate pairs and the pairs'
        # masks, each entering two nonce rows
        prf = CountingPrf(AesPrf())
        pairs = sum(
            len(base_edges(scenario, part, owner_sets[w.window - 1], w.window, prf)[1])
            for part in scenario.plans[0].partitions
        )
        assert pairs > 0
        base_cost = (prf.calls + pairs * ((width + 1) // 2), 2 * pairs * width)
        assert (w.prf_calls, w.additions) == base_cost
        assert w.bytes_controller == 0
        assert w.extras["suppressed"] == "epsilon budget exhausted"
    assert all(w.status == "ok" and w.shadow_ok for w in result.windows[:40])


def test_bytes_server_bills_the_membership_delta_each_release_applies(monkeypatch):
    applied = {}  # window -> (joined, dropped) owners, over the partitions
    delta = pipeline.mask_delta

    def recording(table, base, live, **kwargs):
        joined, dropped = applied.setdefault(base.round_index, (set(), set()))
        joined.update(p for p, a, b in zip(table.parties, base.live, live) if b and not a)
        dropped.update(p for p, a, b in zip(table.parties, base.live, live) if a and not b)
        return delta(table, base, live, **kwargs)

    monkeypatch.setattr(pipeline, "mask_delta", recording)
    scenario = _Scenario(
        small_config(preset="web", protocol="dream", windows=5, seed=1, dropout_rate=0.05, drop_rate=0.01)
    )
    result = scenario.run()
    assert all(w.status == "ok" and w.shadow_ok for w in result.windows)
    # the members change in every window, and join and drop after window
    # 0, whose delta from every plan member only drops
    assert not applied[0][0] and applied[0][1]
    assert all(joined and dropped for joined, dropped in list(applied.values())[1:])
    for w in result.windows:
        joined, dropped = applied[w.window]
        wire = MembershipDelta(w.window, frozenset(joined), frozenset(dropped)).wire_size()
        assert w.bytes_server == (scenario.plans[0].plan_bytes if w.window == 0 else 0) + wire


@pytest.mark.parametrize("protocol", ["clique", "dream", "zeph"])
def test_a_steady_membership_spends_no_mask_blocks_at_release(monkeypatch, protocol):
    scenario = _Scenario(
        small_config(
            preset="web", protocol=protocol, windows=3, seed=4, dropout_rate=0.0, drop_rate=0.0,
            colluding_fraction=0.2, failure_budget=0.01,
        )
    )
    token_blocks = []
    token_matrix = pipeline.token_matrix

    def metered_tokens(*args, **kwargs):
        before = scenario.prf.calls
        values = token_matrix(*args, **kwargs)
        token_blocks[-1] += scenario.prf.calls - before
        return values

    release_blocks = []
    release_plan = scenario._release

    def metered_release(*args):
        token_blocks.append(0)
        before = scenario.prf.calls
        release_plan(*args)
        release_blocks.append(scenario.prf.calls - before)

    monkeypatch.setattr(pipeline, "token_matrix", metered_tokens)
    scenario._release = metered_release
    result = scenario.run()
    assert [w.members for w in result.windows] == [result.plan_members] * 3
    # every release, window 0's included, only builds tokens and draws noise
    noise = noise_blocks(scenario, result)
    assert all(noise)
    assert release_blocks == [t + n for t, n in zip(token_blocks, noise)]
    # the masks were spent in the bases, and count for their windows
    assert all(w.prf_calls > blocks for w, blocks in zip(result.windows, token_blocks))


# fitness/zeph with late pieces: windows 2, 4 and 5 fail min_members
FAILING_ZEPH = SimConfig(
    preset="fitness", protocol="zeph", producers=100, partition_size=50, windows=6,
    seed=4, dropout_rate=0.05, latency_sigma=1.2, grace=1.0, colluding_fraction=0.2,
)


def test_a_window_that_does_not_release_still_bills_its_membership_delta():
    # the next window's base is computed over this window's members, and
    # the controllers learn them from the delta, released or not
    scenario = _Scenario(FAILING_ZEPH)
    owner_sets = recording_owner_sets(scenario)
    result = scenario.run()
    assert [w.window for w in result.windows if w.status != "ok"] == [2, 4, 5]
    before = frozenset(scenario.plans[0].parties)  # window 0's delta: from the plan's members
    for w, owners in zip(result.windows, owner_sets):
        assert len(owners) == w.members
        assert owners != before
        wire = MembershipDelta(w.window, owners - before, before - owners).wire_size()
        assert w.bytes_server == (scenario.plans[0].plan_bytes if w.window == 0 else 0) + wire
        before = owners


@pytest.mark.parametrize(
    "config",
    [
        small_config(dropout_rate=0.15, drop_rate=0.01, windows=4),
        FAILING_ZEPH,
        SimConfig(
            preset="web", protocol="dream", producers=100, partition_size=50, windows=5,
            seed=9, grace=25.0, latency_mean=3.0, latency_sigma=1.0, dropout_rate=0.1,
        ),
        SimConfig(
            preset="web", protocol="dream", producers=60, partition_size=20, windows=44,
            dropout_rate=0.05, seed=2,
        ),
    ],
    ids=["clique-failed", "zeph-failed", "dream-failed", "dream-suppressed"],
)
def test_windows_reconcile_with_the_totals(config):
    result = run_scenario(config)
    statuses = {w.status for w in result.windows}
    assert "ok" in statuses and statuses - {"ok"}
    summary = result.summary
    for name in ("additions", "bytes_producer", "bytes_controller", "bytes_server"):
        assert summary[f"{name}_total"] == sum(getattr(w, name) for w in result.windows), name


def test_run_json_writes_numbers_as_numbers(capsys):
    from veilstream import cli

    result = run_scenario(small_config(preset="car", windows=2))
    result.windows[0].extras["count"] = np.int64(7)
    doc = json.loads(result.to_json())
    text = {"preset", "protocol"}
    for key, value in doc["summary"].items():
        if key == "transport":
            assert all(type(v) is int for v in value.values())
        elif key == "shadow_ok":
            assert value is True
        elif key not in text:
            assert type(value) in (int, float), key
    for window in doc["windows"]:
        assert all(type(window[c]) in (int, float) for c in CSV_COLUMNS if c != "status")
        assert all(type(v) is int for v in window["extras"]["missing"].values())
    assert doc["windows"][0]["extras"]["count"] == 7
    assert type(doc["windows"][0]["extras"]["count"]) is int
    cli._emit({"n": np.float64(0.5), "k": np.int64(3)})
    assert json.loads(capsys.readouterr().out) == {"n": 0.5, "k": 3}
    # anything else is refused, not written as a string
    result.windows[0].extras["count"] = object()
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        result.to_json()


def test_setup_spends_one_prf_block_per_pair_and_reports_it():
    scenario = _Scenario(small_config(preset="web", protocol="dream", partition_size=20))
    result = scenario.run()
    assert result.summary["prf_calls_setup"] == len(scenario.plans[0].pairs) > 0
    assert type(json.loads(result.to_json())["summary"]["prf_calls_setup"]) is int


def per_stream_choices(scenario: _Scenario) -> list[dict]:
    """Each stream's option choices by the rule applied stream by stream:
    every attribute's first offered kind of aggregate, dp-aggregate and
    stream-aggregate, the queried attributes' of the query's kind, the
    per-user attribute's stream-aggregate, and the first queried attribute
    kept private by every `holdout_every`-th stream where it may be."""
    table = scenario.table
    offered = {a.name: [o.kind for o in a.options] for a in scenario.schema.attributes}

    def pick(attr, *preferences):
        return next((p for p in preferences if p in offered[attr]), offered[attr][0])

    queried = [body["attribute"] for body in table["select"].values()]
    wanted = "dp-aggregate" if table["dp"] else "aggregate"
    every = table.get("holdout_every", 0)
    out = []
    for i in range(len(scenario.streams)):
        selected = {a: pick(a, "aggregate", "dp-aggregate", "stream-aggregate") for a in offered}
        for attr in queried:
            selected[attr] = pick(attr, wanted, "aggregate", "stream-aggregate")
        if table.get("per_user_attribute"):
            selected[table["per_user_attribute"]] = "stream-aggregate"
        if every and i % every == 0 and "private" in offered[queried[0]]:
            selected[queried[0]] = "private"
        out.append(selected)
    return out


@pytest.mark.parametrize("preset", ["web", "car"])
def test_streams_share_the_option_choices_of_their_kind(preset):
    scenario = _Scenario(small_config(preset=preset, producers=120))
    choices = [a.selected for a in scenario.annotations]
    assert choices == per_stream_choices(scenario)
    # both keep holdouts, and car has a per-user attribute
    holdouts = [c[scenario.queried_attrs[0]] == "private" for c in choices]
    assert [i for i, held in enumerate(holdouts) if held] == [0, 50, 100]
    assert ("per_user_attribute" in scenario.table) == (preset == "car")
    # one dict per kind of stream, shared by its streams
    assert len({id(c) for c in choices}) == 2


def test_missing_plan_streams_are_explained_by_their_first_reason():
    config = SimConfig(
        preset="fitness", protocol="clique", producers=100, partition_size=50, windows=4,
        seed=4, dropout_rate=0.05, drop_rate=0.005, latency_sigma=1.2, grace=1.0,
    )
    result = run_scenario(config)
    totals = dict.fromkeys(("offline", "lost", "late"), 0)
    for w in result.windows:
        missing = w.extras["missing"]
        assert sum(missing.values()) == result.plan_members - w.members
        for reason, count in missing.items():
            totals[reason] += count
    assert all(totals.values())


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


@pytest.mark.parametrize(
    "config",
    [
        small_config(preset="car", dropout_rate=0.0),
        SimConfig(
            custom=SOLO_SCENARIO, producers=1, partition_size=8, windows=3, seed=3,
            protocol="clique", dropout_rate=0.0, drop_rate=0.0,
        ),
    ],
    ids=["car-per-user", "solo"],
)
def test_one_member_plans_release_alike(caplog, config):
    # car's per-user plan and the solo scenario's population plan have one
    # member each, so no pairs: they compute no base or delta masks, log no
    # connectivity warning, count no isolated member and send their token
    # in the one-stream token's wire format
    scenario = _Scenario(config)
    (single,) = [p for p in scenario.plans if len(p.plan.members) == 1]
    sent = []  # (bytes, additions, isolated) of each of its releases
    tokens = scenario._controller_tokens

    def spy(p, w, members):
        out = tokens(p, w, members)
        if p is single:
            sent.append(out[1:])
        return out

    scenario._controller_tokens = spy
    result = scenario.run()
    assert single.pairs is None and single.base is None
    assert not [r for r in caplog.records if "no active peers" in r.getMessage()]
    token = 48 + 10 * single.plan.output_width
    assert sent == [(token, 0, 0)] * len(result.windows)
    assert result.summary["shadow_ok"] is True
    if single is scenario.plans[0]:
        # the solo release is the window's: no plan broadcast, no delta
        for w in result.windows:
            assert (w.status, w.shadow_ok, w.extras["isolated"]) == ("ok", True, 0)
            assert (w.bytes_controller, w.bytes_server) == (token, 0)
    else:
        assert all(w.extras["per_user"]["shadow_ok"] for w in result.windows)


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


def test_one_plan_check_per_plan_and_a_refusal_names_the_first_controller(monkeypatch):
    checked = []

    def counting_verify(plan, schema, own, **kwargs):
        checked.append(sorted(own))
        return verify_plan(plan, schema, own, **kwargs)

    monkeypatch.setattr(pipeline, "verify_plan", counting_verify)
    scenario = _Scenario(small_config(preset="car", windows=1))
    # the population plan and the per-user plan, each checked once over
    # every member's annotation
    assert checked == [list(p.plan.members) for p in scenario.plans]
    assert len(scenario.plans) == 2

    def patched_plan(query, schema, annotations, ledger, **options):
        plan = plan_query(query, schema, annotations, ledger, **options)
        # after planning, two members' controllers change their minds: the
        # fourth in plan order keeps the queried attribute private, the
        # second drops its selection
        attr = plan.outputs[0].attribute
        position = {a.stream_id: i for i, a in enumerate(annotations)}
        for k, selected in ((3, "private"), (1, None)):
            i = position[plan.members[k]]
            chosen = dict(annotations[i].selected)
            if selected is None:
                del chosen[attr]
            else:
                chosen[attr] = selected
            annotations[i] = dataclasses.replace(annotations[i], selected=chosen)
        return plan

    checked.clear()
    monkeypatch.setattr(pipeline, "plan_query", patched_plan)
    members = scenario.plans[0].plan.members
    with pytest.raises(
        RuntimeError,
        match=f"controller {members[1]} refused the preset query's plan: no_option_selected",
    ):
        _Scenario(small_config(preset="car", windows=1))
    # one check over all members, then one per member up to the refusal
    assert checked == [list(members), [members[0]], [members[1]]]
