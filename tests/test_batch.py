"""A partition's controller round as one batch, against the per-party path.

The pipeline builds, noises, selects and masks a partition's tokens as one
streams x outputs matrix. The oracle here is the per-party path it
replaced, kept in this file and written from ring primitives only: two
border key vectors and a reduceat per token, Python-rounded noise per
element, one selection draw per live peer compared as a 128-bit integer,
the epoch plan read segment by segment from each peer's graph block, one
signed mask sum per party and a struct-packed wire record per party.
"""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veilstream import ring, secure_agg
from veilstream.pipeline import SimConfig, _Scenario
from veilstream.ring import (
    DOMAIN_EDGE,
    DOMAIN_GRAPH,
    DOMAIN_MASK,
    DOMAIN_SELECT,
    AesPrf,
    CountingPrf,
    MasterSecret,
    Prf,
    derive_key,
    derive_keys,
    encrypt_block,
    prf_input,
)
from veilstream.secure_agg import (
    EpochPlan,
    IdentityRegistry,
    MaskedBatch,
    MembershipDelta,
    PairwiseSecrets,
    PartyId,
    PeerTable,
    StaticKeyAgreement,
    apply_delta,
    graph_bits,
    mask_base,
    mask_delta,
    mask_edges,
    plan_epoch,
    round_edges,
    setup_pairwise,
    simulate_party_counters,
    threshold_for_probability,
    unmask_aggregate,
)
from veilstream.tokens import (
    NoiseSpec,
    PrivacyBudget,
    Suppressed,
    TokenLayout,
    TransformationToken,
    add_dp_noise,
    merge,
    noise_shares,
    release,
    shift,
    stream_set_hash,
    token_matrix,
    withhold,
)

M = 1 << 64
MASK = M - 1


def population(n: int):
    """n parties with one stream each: their key pairs, the registry that
    holds their identities, each party's pairwise secrets from its own
    `setup_pairwise`, and the stream secrets."""
    agreement = StaticKeyAgreement()
    keypairs = [agreement.generate(b"party-%d" % i) for i in range(n)]
    registry = IdentityRegistry()
    for kp in keypairs:
        registry.register(kp.public_identity())
    ids = [kp.party_id for kp in keypairs]
    secrets = [setup_pairwise(kp, registry, ids) for kp in keypairs]
    masters = [MasterSecret(hashlib.sha256(b"m%d" % i).digest()[:16], f"s{i}") for i in range(n)]
    return ids, keypairs, registry, secrets, masters


def block_int(prf: Prf, key: bytes, msg: bytes) -> int:
    return int.from_bytes(prf.evaluate_batch(key, msg).tobytes(), "big")


def key_of(me: PairwiseSecrets, peer: PartyId) -> bytes:
    """The secret `me` shares with `peer`."""
    return me.keys[me.peers.index(peer)].tobytes()


def oracle_token(master, window, layout, prf, scale=100) -> list[int]:
    k_start = derive_key(master, window[0], layout.width, elements=layout.sources, prf=prf)
    k_end = derive_key(master, window[1], layout.width, elements=layout.sources, prf=prf)
    values = np.add.reduceat(k_start - k_end, layout.offsets).tolist()
    for o, lead in layout.adjusted:
        values[o] = (values[o] + round(lead.offset * scale)) & MASK
    return values


def oracle_peers(me: PairwiseSecrets, live_ids, w, protocol, threshold, b, epoch, prf):
    """The party's round peers; a zeph plan costs one graph block per peer,
    spent here on every peer as the per-party plan spent it."""
    peers = [p for p in me.peers if p in live_ids]
    if protocol == "dream":
        msg = prf_input(DOMAIN_SELECT, 0, w)
        peers = [p for p in peers if block_int(prf, key_of(me, p), msg) <= threshold]
    elif protocol == "zeph":
        width = (128 // b) << b
        r = w % width
        seg, value = r >> b, r & ((1 << b) - 1)
        msg = prf_input(DOMAIN_GRAPH, 0, epoch)
        graph = {p: block_int(prf, key_of(me, p), msg) for p in me.peers}
        peers = [p for p in peers if (graph[p] >> (128 - (seg + 1) * b)) & ((1 << b) - 1) == value]
    return peers


def oracle_nonce(me, peers, width, w, epoch, domain, prf) -> list[int]:
    blocks = (width + 1) // 2
    if domain == DOMAIN_MASK:
        msgs = b"".join(prf_input(DOMAIN_MASK, epoch << 16 | k, w) for k in range(blocks))
    else:
        msgs = b"".join(prf_input(DOMAIN_EDGE, k, w) for k in range(blocks))
    total = [0] * width
    for peer in peers:
        out = prf.evaluate_batch(key_of(me, peer), msgs).tobytes()
        for lane in range(width):
            value = int.from_bytes(out[8 * lane : 8 * lane + 8], "big")
            total[lane] += value if me.self_id < peer else -value
    return [t & MASK for t in total]


def oracle_record(w, epoch, party, window, sset, elements) -> bytes:
    return (
        struct.pack("<QQ", w, epoch)
        + party.value
        + struct.pack("<QQ", *window)
        + sset
        + b"".join(struct.pack("<HQ", i, v) for i, v in enumerate(elements))
    )


directive = st.one_of(
    st.just(release()),
    st.just(withhold()),
    st.sampled_from("ab").map(merge),
    st.floats(-1e4, 1e4, allow_nan=False).map(shift),
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 7),
    data=st.data(),
    directives=st.lists(directive, min_size=1, max_size=12).filter(
        lambda ds: any(d.action != "withhold" for d in ds)
    ),
    protocol=st.sampled_from(["clique", "dream-none", "dream-zero", "dream-mid", "zeph"]),
    b=st.integers(1, 3),
    w=st.integers(0, 600),
    noised=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_partition_batch_matches_the_per_party_path(
    n, data, directives, protocol, b, w, noised, seed
):
    ids, keypairs, registry, secrets, masters = population(n)
    # the table lists the parties in stream order, not in id order
    order = data.draw(st.permutations(range(n)))
    table = PeerTable([[keypairs[i] for i in order]], registry)
    live_kind = data.draw(st.sampled_from(["all", "all-but-one", "any"]))
    if live_kind == "all":
        live = np.ones(n, dtype=bool)
    elif live_kind == "all-but-one":
        live = np.ones(n, dtype=bool)
        live[data.draw(st.integers(0, n - 1))] = n == 1
    else:
        live = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    if not live.any():
        live[0] = True
    active = [order[k] for k in np.flatnonzero(live)]
    live_ids = frozenset(ids[i] for i in active)
    layout = TokenLayout.build(directives)
    width = len(layout.offsets)
    window = (5 * w, 5 * w + 5)
    threshold = {
        "dream-none": threshold_for_probability(0.0),
        "dream-zero": 0,
        "dream-mid": threshold_for_probability(0.5),
    }.get(protocol)
    kind = protocol.split("-")[0]
    epoch = w // 7
    noise = NoiseSpec(sigma_target=300.0, honest_fraction=0.5, party_count=max(n, 1))

    def rngs():
        return [np.random.default_rng([seed, i]) for i in active]

    # the batch, composed as the pipeline composes it
    prf = CountingPrf(AesPrf())
    values = token_matrix(
        [masters[i] for i in active], window, directives, layout=layout, prf=prf, scale=100
    )
    if noised:
        normals = np.array([rng.standard_normal(width) for rng in rngs()])
        values += noise_shares(noise, normals)
    plan = None
    if kind == "zeph":
        # the pairs with a live end, whose graph blocks the live parties'
        # own plans spend
        bits = np.zeros((len(table), 128), dtype=np.uint8)
        planned = np.flatnonzero(live[table.low] | live[table.high])
        bits[planned] = graph_bits(table.keys[planned], epoch, prf=prf)
        plan = EpochPlan(epoch, b, (), bits)
    rows = round_edges(table, live, w, plan=plan, threshold=threshold, prf=prf)
    nonces = mask_edges(
        table.keys[rows],
        table.low[rows],
        table.high[rows],
        n,
        width,
        epoch_id=None if plan is None else epoch,
        round_index=w,
        prf=prf,
    )
    batch = MaskedBatch(
        round_index=w,
        epoch_id=epoch,
        window=window,
        parties=tuple(ids[i] for i in active),
        stream_set_ids=tuple(stream_set_hash([masters[i].stream_id]) for i in active),
        elements=values + nonces[live],
        stream_ids=tuple(masters[i].stream_id for i in active),
    )

    # the per-party path
    ref = CountingPrf(AesPrf())
    records, masked, additions = [], [], 0
    for i, rng in zip(active, rngs()):
        token = oracle_token(masters[i], window, layout, ref)
        if noised:
            samples = rng.normal(0.0, noise.per_party_sigma, size=width)
            token = [(v + round(float(eta))) & MASK for v, eta in zip(token, samples)]
        peers = oracle_peers(secrets[i], live_ids, w, kind, threshold, b, epoch, ref)
        domain = DOMAIN_MASK if plan is not None else DOMAIN_EDGE
        nonce = oracle_nonce(secrets[i], peers, width, w, epoch, domain, ref)
        additions += len(peers) * width
        elements = [(v + m) & MASK for v, m in zip(token, nonce)]
        masked.append(elements)
        sset = stream_set_hash([masters[i].stream_id])
        records.append(oracle_record(w, epoch, ids[i], window, sset, elements))

    assert batch.elements.tolist() == masked
    # each selected pair's mask enters both of its ends' rows
    assert 2 * len(rows) * width == additions
    assert batch.serialize() == b"".join(records)
    # the per-party path evaluates each pair from both ends: the batch
    # spends the same less the second end's mask blocks of every selected
    # pair, and, of every pair with both ends live, its dream draw or its
    # zeph graph block
    both_live = np.count_nonzero(live[table.low] & live[table.high])
    second_ends = len(rows) * ((width + 1) // 2) + (both_live if kind != "clique" else 0)
    assert prf.calls == ref.calls - second_ends
    total = unmask_aggregate(batch)
    column = [sum(col) & MASK for col in zip(*masked)] if masked else []
    assert list(total.elements) == column


def test_a_party_with_no_live_peer_gets_a_zero_row_and_a_warning(caplog):
    ids, keypairs, registry, _, _ = population(4)
    table = PeerTable([keypairs], registry)
    live = np.array([True, False, False, False])
    rows = round_edges(table, live, 3)
    assert len(rows) == 0
    assert "no active peers" in caplog.text and repr(ids[0]) in caplog.text
    nonces = mask_edges(table.keys[rows], table.low[rows], table.high[rows], 4, 3, round_index=3)
    assert nonces.shape == (4, 3) and not nonces.any()


live_sets = st.lists(st.booleans(), min_size=12, max_size=12)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(3, 12),
    base_live=live_sets,
    now_live=live_sets,
    protocol=st.sampled_from(["clique", "dream", "zeph"]),
    width=st.integers(1, 9),
    b=st.integers(1, 3),
    w=st.integers(0, 600),
)
def test_base_plus_delta_equals_the_masks_of_the_live_set(
    n, base_live, now_live, protocol, width, b, w
):
    ids, keypairs, registry, secrets, _ = population(n)
    table = PeerTable([keypairs], registry)
    base_live = np.array(base_live[:n], dtype=bool)
    live = np.array(now_live[:n], dtype=bool)
    threshold = threshold_for_probability(0.5) if protocol == "dream" else None
    plan = epoch = None
    if protocol == "zeph":
        epoch = w // 7
        plan = EpochPlan(epoch, b, (), graph_bits(table.keys, epoch))
    select = dict(plan=plan, threshold=threshold)

    prf = CountingPrf(AesPrf())
    base = mask_base(table, base_live, w, width, prf=prf, **select)
    before = prf.calls
    masks = mask_delta(table, base, live, prf=prf, **select)
    spent = prf.calls - before

    # base + delta is the recomputation over the live set, exactly
    base_rows = round_edges(table, base_live, w, **select)
    rows = round_edges(table, live, w, **select)
    assert base.rows.tolist() == base_rows.tolist()
    assert masks.rows.tolist() == rows.tolist()
    expect = mask_edges(
        table.keys[rows], table.low[rows], table.high[rows], n, width,
        epoch_id=epoch, round_index=w,
    )
    assert masks.nonces.tolist() == expect.tolist()

    # the delta's blocks: a mask per removed or added row, and a draw per
    # candidate new to the round for dream
    candidate_base = base_live[table.low] & base_live[table.high]
    candidate_now = live[table.low] & live[table.high]
    removed = np.count_nonzero(~candidate_now[base_rows])
    added = np.count_nonzero(~candidate_base[rows])
    draws = np.count_nonzero(candidate_now & ~candidate_base) if protocol == "dream" else 0
    assert spent == (removed + added) * ((width + 1) // 2) + draws
    assert (base.changed, masks.changed) == (len(base_rows), removed + added)

    # each party live in both sets: the scalar delta on its base lane 0
    joined = frozenset(p for p, a, c in zip(ids, base_live, live) if c and not a)
    dropped = frozenset(p for p, a, c in zip(ids, base_live, live) if a and not c)
    delta = MembershipDelta(w, joined=joined, dropped=dropped)
    for i in np.flatnonzero(base_live & live):
        own_plan = None if plan is None else plan_epoch(secrets[i], epoch, b)
        lane = apply_delta(
            own_plan, secrets[i], int(base.nonces[i, 0]), delta, w, threshold=threshold
        )
        assert lane == int(masks.nonces[i, 0])


def test_the_delta_logs_a_party_left_without_an_edge_and_the_base_does_not(caplog):
    ids, keypairs, registry, _, _ = population(4)
    table = PeerTable([keypairs], registry)
    alone = np.array([True, False, False, False])
    mask_base(table, alone, 3, 2)
    assert caplog.records == []
    base = mask_base(table, np.array([True, True, True, False]), 3, 2)
    assert caplog.records == []
    masks = mask_delta(table, base, alone)
    (record,) = caplog.records
    assert "no active peers" in record.getMessage() and repr(ids[0]) in record.getMessage()
    assert len(masks.rows) == 0 and not masks.nonces.any()


LARGE_POPULATION = population(200)
PROTOCOLS = ("clique", "dream", "zeph")


@pytest.mark.parametrize(
    "protocol, sizes",
    [(p, (200,)) for p in PROTOCOLS] + [(p, (67, 67, 66)) for p in PROTOCOLS],
    ids=[*PROTOCOLS, *(f"{p}-three-groups" for p in PROTOCOLS)],
)
def test_a_delta_on_a_large_table_spends_only_on_the_changed_parties(protocol, sizes):
    _, keypairs, registry, _, _ = LARGE_POPULATION
    # the table lists the parties in key pair order, not in id order
    ends = np.cumsum([0, *sizes])
    table = PeerTable([keypairs[a:b] for a, b in zip(ends, ends[1:])], registry)
    n, w, width = len(table.parties), 37, 5
    assert list(table.parties) != sorted(table.parties)
    rng = np.random.default_rng(8)
    base_live = rng.random(n) < 0.9
    live = base_live.copy()
    joined = rng.choice(np.flatnonzero(~base_live), size=3, replace=False)
    dropped = rng.choice(np.flatnonzero(base_live), size=4, replace=False)
    live[joined], live[dropped] = True, False
    # the changed parties fall in every group
    groups = np.searchsorted(table.bounds, [*joined, *dropped], side="right") - 1
    assert set(groups.tolist()) == set(range(len(sizes)))
    threshold = threshold_for_probability(0.25) if protocol == "dream" else None
    plan = epoch = None
    if protocol == "zeph":
        epoch = w // 7
        plan = EpochPlan(epoch, 2, (), graph_bits(table.keys, epoch))
    select = dict(plan=plan, threshold=threshold)

    prf = CountingPrf(AesPrf())
    base = mask_base(table, base_live, w, width, prf=prf, **select)
    before = prf.calls
    masks = mask_delta(table, base, live, prf=prf, **select)
    spent = prf.calls - before

    rows = round_edges(table, live, w, **select)
    assert masks.rows.tolist() == rows.tolist()
    ends = np.concatenate((table.low[rows], table.high[rows]))
    assert masks.degree.tolist() == np.bincount(ends, minlength=n).tolist()
    expect = mask_edges(
        table.keys[rows], table.low[rows], table.high[rows], n, width,
        epoch_id=epoch, round_index=w,
    )
    assert masks.nonces.tolist() == expect.tolist()

    # the blocks of the rows with a changed end only: a mask per base row
    # backed out or row added, and for dream a draw per new candidate
    touched = np.isin(table.low, [*joined, *dropped]) | np.isin(table.high, [*joined, *dropped])
    candidate_base = base_live[table.low] & base_live[table.high]
    candidate_now = live[table.low] & live[table.high]
    removed = base.selected & ~candidate_now
    added = masks.selected & ~candidate_base
    assert not (removed | added)[~touched].any()
    draws = np.count_nonzero(candidate_now & ~candidate_base) if protocol == "dream" else 0
    changed = np.count_nonzero(removed) + np.count_nonzero(added)
    assert 0 < changed == masks.changed
    assert spent == changed * ((width + 1) // 2) + draws

    # an unchanged membership keeps the nonces and spends no block
    before = prf.calls
    same = mask_delta(table, masks, live.copy(), prf=prf, **select)
    assert prf.calls == before
    assert same.nonces is masks.nonces and same.changed == 0


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 9), data=st.data())
def test_peer_table_rows_run_over_pairs_in_id_order(n, data):
    _, keypairs, registry, _, _ = population(n)
    with pytest.raises(ValueError, match="twice"):
        PeerTable([[keypairs[0], keypairs[0]]], registry)
    keypairs = [keypairs[i] for i in data.draw(st.permutations(range(n)))]
    table = PeerTable([keypairs], registry)
    ranked = sorted(range(n), key=table.parties.__getitem__)
    assert len(table) == n * (n - 1) // 2
    assert list(zip(table.low.tolist(), table.high.tolist())) == [
        (ranked[a], ranked[b]) for a in range(n) for b in range(a + 1, n)
    ]


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 15), min_size=1, max_size=8),
    protocol=st.sampled_from(["clique", "dream", "zeph"]),
    w=st.integers(0, 600),
    width=st.integers(1, 9),
    data=st.data(),
)
def test_a_stacked_table_masks_as_its_groups_do(sizes, protocol, w, width, data):
    _, keypairs, registry, _, _ = LARGE_POPULATION
    ends = np.cumsum([0, *sizes])
    groups = [keypairs[a:b] for a, b in zip(ends, ends[1:])]
    tables = [PeerTable([group], registry) for group in groups]
    stacked = PeerTable(groups, registry)
    n = int(ends[-1])
    assert stacked.parties == tuple(kp.party_id for kp in keypairs[:n])
    assert stacked.bounds.tolist() == ends.tolist()
    # the one-group tables concatenated, their ends offset by the parties before
    assert stacked.keys.tobytes() == b"".join(table.keys.tobytes() for table in tables)
    for end in ("low", "high"):
        ends_of = [getattr(table, end) + a for table, a in zip(tables, ends)]
        assert getattr(stacked, end).tolist() == np.concatenate(ends_of).tolist()
    lives = st.lists(st.booleans(), min_size=n, max_size=n)
    before = np.array(data.draw(lives), dtype=bool)
    after = np.array(data.draw(lives), dtype=bool)

    threshold = threshold_for_probability(0.5) if protocol == "dream" else None

    def plan(table):
        if protocol != "zeph":
            return None
        return EpochPlan(w // 7, 2, (), graph_bits(table.keys, w // 7))

    prf = CountingPrf(AesPrf())
    select = dict(threshold=threshold, prf=prf)
    base = mask_base(stacked, before, w, width, plan=plan(stacked), **select)
    base_blocks = prf.calls
    masks = mask_delta(stacked, base, after, plan=plan(stacked), **select)
    delta_blocks = prf.calls - base_blocks

    # the same steps group by group, concatenated
    group_prf = CountingPrf(AesPrf())
    select = dict(threshold=threshold, prf=group_prf)
    bases, deltas = [], []
    for table, a, b in zip(tables, ends, ends[1:]):
        bases.append(mask_base(table, before[a:b], w, width, plan=plan(table), **select))
    assert group_prf.calls == base_blocks
    for table, group_base, a, b in zip(tables, bases, ends, ends[1:]):
        deltas.append(mask_delta(table, group_base, after[a:b], plan=plan(table), **select))
    assert group_prf.calls - base_blocks == delta_blocks
    for whole, groups in ((base, bases), (masks, deltas)):
        for field in ("live", "selected", "degree", "nonces"):
            parts = np.concatenate([getattr(g, field) for g in groups])
            assert getattr(whole, field).tolist() == parts.tolist()
        assert whole.changed == sum(g.changed for g in groups)


def test_a_table_plan_refuses_to_answer_for_a_peer():
    ids, keypairs, registry, secrets, _ = population(6)
    table = PeerTable([keypairs], registry)
    plan = EpochPlan(0, 2, (), graph_bits(table.keys, 0))
    assert len(plan.bits) == len(table) == 15
    with pytest.raises(ValueError, match="pair rows"):
        plan.active_in_round(ids[1], 0)
    # a party's own plan answers, as the table's plan rows of its pairs
    i = 0
    own = plan_epoch(secrets[i], 0, 2)
    for r in range(own.width):
        active = plan.round_mask(r)
        for row in np.flatnonzero((table.low == i) | (table.high == i)):
            peer = ids[table.low[row] + table.high[row] - i]
            assert own.active_in_round(peer, r) == bool(active[row])


@pytest.mark.parametrize("protocol", ["clique", "dream", "zeph"])
def test_one_base_over_n_live_parties_spends_each_pair_once(protocol):
    n, w, width = 24, 5, 7
    _, keypairs, registry, _, _ = population(n)
    table = PeerTable([keypairs], registry)
    pairs = n * (n - 1) // 2
    prf = CountingPrf(AesPrf())
    plan = threshold = None
    if protocol == "zeph":
        plan = EpochPlan(0, 1, (), graph_bits(table.keys, 0, prf=prf))
        assert prf.calls == pairs
    elif protocol == "dream":
        threshold = threshold_for_probability(0.5)
    before = prf.calls
    live = np.ones(n, dtype=bool)
    base = mask_base(table, live, w, width, plan=plan, threshold=threshold, prf=prf)
    # a mask per selected pair, and for dream a draw per pair
    masked = pairs if protocol == "clique" else len(base.rows)
    draws = pairs if protocol == "dream" else 0
    assert 0 < masked <= pairs
    assert prf.calls - before == masked * ((width + 1) // 2) + draws
    assert base.changed == masked and base.degree.sum() == 2 * masked


def test_add_dp_noise_charges_in_order_and_stops_at_a_refusal():
    noise = NoiseSpec(sigma_target=10.0, honest_fraction=1.0, party_count=1)
    token = TransformationToken(0, 1, stream_set_hash(["s"]), (0, 0, 0, 0))
    budget = PrivacyBudget(1.0)
    out = [add_dp_noise(token, noise, budget, 0.4, np.random.default_rng(i)) for i in range(3)]
    # two charges fit, the third is refused and charges nothing
    assert [isinstance(o, Suppressed) for o in out] == [False, False, True]
    assert budget.epsilon_spent == pytest.approx(0.8)
    assert out[2].epsilon_remaining == pytest.approx(0.2)
    # a share is its normals times sigma, rounded, as noise_shares draws it
    etas = [round(float(e)) & MASK for e in np.random.default_rng(1).normal(0.0, 10.0, size=4)]
    assert list(out[1].elements) == etas
    normals = np.random.default_rng(1).standard_normal((1, 4))
    assert noise_shares(noise, normals).tolist() == [etas]


def test_derive_keys_equal_derive_key_across_call_chunks(monkeypatch):
    masters = [MasterSecret(bytes([i]) * 16, f"k{i}") for i in range(5)]
    elements = np.array([3, 0, 7])
    prf = CountingPrf(AesPrf())
    # 6 blocks a stream, two streams a call: the batch spans three calls
    monkeypatch.setattr(ring, "BATCH_BLOCKS", 12)
    keys = derive_keys(masters, (10, 15), 8, elements=elements, prf=prf)
    assert prf.calls == 5 * 2 * 3
    for s, m in enumerate(masters):
        for i, t in enumerate((10, 15)):
            assert keys[s, i].tolist() == derive_key(m, t, 8, elements=elements).tolist()


class StalePrf(Prf):
    """AES outputs, each in an array of its own that the next call first
    overwrites with garbage: a caller that reads a result after its next
    call reads garbage."""

    def __init__(self):
        self.inner = AesPrf()
        self.calls = 0
        self.last = np.empty((0, 2), dtype=">u8")

    def evaluate_batch(self, key, messages):
        self.last[...] = 0xA5A5A5A5A5A5A5A5
        self.calls += 1
        self.last = self.inner.evaluate_batch(key, messages).copy()
        return self.last


STALE_POPULATION = population(6)


@settings(max_examples=40, deadline=None)
@given(
    batch=st.integers(1, 40),
    width=st.integers(1, 9),
    r=st.integers(0, 2**40),
    epoch=st.one_of(st.none(), st.integers(0, 99)),
    live=st.lists(st.booleans(), min_size=6, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_many_prf_calls_equal_one_when_each_result_goes_stale(batch, width, r, epoch, live, seed):
    """Every batched PRF caller, with calls of at most `batch` blocks (a
    row more when one row needs it) through a PRF whose results go stale
    at the next call, equals its one-call result."""
    _, keypairs, registry, _, masters = STALE_POPULATION
    table = PeerTable([keypairs], registry)
    live = np.array(live)
    threshold = threshold_for_probability(0.5)
    messages = np.random.default_rng(seed).integers(0, 2**64, size=(6, 3, width), dtype=np.uint64)
    first = derive_keys(masters, (2,), width)[:, 0]
    reverse = np.arange(width)[::-1]

    def outputs(prf):
        block = messages.copy()
        last = encrypt_block(masters, first, (3, 5, 9), block, prf=prf)
        return [
            graph_bits(table.keys, r, prf=prf).tolist(),
            round_edges(table, live, r, threshold=threshold, prf=prf).tolist(),
            mask_edges(
                table.keys, table.low, table.high, len(table.parties), width,
                epoch_id=epoch, round_index=r, prf=prf,
            ).tolist(),
            derive_keys(masters, (3, 5, 9), width, elements=reverse, prf=prf).tolist(),
            block.tolist(),
            last.tolist(),
        ]

    # at the default size each caller makes at most one call
    one = StalePrf()
    expected = outputs(one)
    assert one.calls <= 5
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "BATCH_BLOCKS", batch)
        prf = StalePrf()
        assert outputs(prf) == expected
    # the 15 rows of graph bits alone take more than one call
    assert prf.calls > one.calls or batch >= 15


def test_cost_simulator_dream_draws_equal_their_one_call_results(monkeypatch):
    parties, rounds = 40, 60
    whole = simulate_party_counters(parties, rounds, "dream", b=2, seed=5)
    made = []

    def stale():
        made.append(StalePrf())
        return made[-1]

    monkeypatch.setattr(secure_agg, "AesPrf", stale)
    # 5 rounds of 39 peers a chunk, 2 peers a call: many calls a chunk
    monkeypatch.setattr(secure_agg, "BATCH_BLOCKS", 5 * (parties - 1))
    monkeypatch.setattr(ring, "BATCH_BLOCKS", 10)
    assert simulate_party_counters(parties, rounds, "dream", b=2, seed=5) == whole
    assert made[0].calls == (rounds // 5) * 20


class RecordingPrf(Prf):
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def evaluate_batch(self, key, messages):
        self.calls += 1
        return self.inner.evaluate_batch(key, messages)


@pytest.mark.parametrize("protocol", ["clique", "dream", "zeph"])
def test_controller_prf_calls_follow_stacks_not_partitions(protocol):
    # two and four partitions of 30 parties in one pair table: the same
    # number of PRF calls per window, since the table fits one call per
    # batch step
    calls = {}
    for producers, partitions in ((62, 2), (123, 4)):
        scenario = _Scenario(
            SimConfig(
                preset="web",
                protocol=protocol,
                producers=producers,
                partition_size=30,
                windows=2,
                seed=4,
                dropout_rate=0.0,
                drop_rate=0.0,
                colluding_fraction=0.2,
                failure_budget=0.01,
            )
        )
        if protocol != "clique":
            # dream draws and zeph plans in every partition
            assert scenario.plans[0].b is not None
        recorder = RecordingPrf(scenario.prf.inner)
        scenario.prf.inner = recorder
        per_window = []

        def metered(step):
            def run(*args):
                before = recorder.calls
                step(*args)
                per_window.append(recorder.calls - before)

            return run

        scenario._release = metered(scenario._release)
        scenario._mask_base = metered(scenario._mask_base)
        result = scenario.run()
        assert [w.status for w in result.windows] == ["ok", "ok"]
        population = scenario.plans[0]
        assert [part.stop - part.start for part in population.partitions] == [30] * partitions
        assert population.pairs.bounds.tolist() == [30 * g for g in range(partitions + 1)]
        calls[partitions] = per_window
    assert calls[2] == calls[4]
    # in window order: each window's base makes one selection pass for
    # dream and the mask pass, after zeph's plan in window 0;
    # each release, over the base's members, derives every member's token
    # keys and draws every member's noise shares, and the shadow draws
    # every member's noise again in one call
    base = {"clique": 1, "dream": 2, "zeph": 1}[protocol]
    plan = 1 if protocol == "zeph" else 0
    release = 2 + 1
    assert calls[2] == [base + plan, release, base, release]
