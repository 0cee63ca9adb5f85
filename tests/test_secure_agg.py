"""Secure aggregation: mask cancellation, epoch planning, cost accounting.

The load-bearing property throughout is that the pairwise masks of any
fixed participant set sum to zero, so blinded tokens aggregate to exactly
the sum of the underlying tokens.
"""

import hashlib
import logging
import math
import pickle
from itertools import compress
from unittest import mock

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st

from veilstream import secure_agg
from veilstream.ring import (
    DEFAULT_PRF,
    DOMAIN_EDGE,
    DOMAIN_GRAPH,
    DOMAIN_MASK,
    FIXED_AES_KEY,
    MODULUS_DEFAULT,
    CounterPrf,
    CountingPrf,
    MasterSecret,
    Prf,
    prf_input,
)
from veilstream.secure_agg import (
    EcdhKeyAgreement,
    IdentityRegistry,
    KeyPair,
    MaskedBatch,
    MembershipDelta,
    PairwiseSecrets,
    PartyId,
    PeerTable,
    RoundCost,
    StaticKeyAgreement,
    UnknownIdentityError,
    apply_delta,
    disconnect_bound,
    mask_token,
    mask_vector,
    nonce_clique,
    nonce_dream,
    nonce_zeph,
    optimize_b,
    plan_epoch,
    round_peers,
    setup_pairwise,
    simulate_party_counters,
    threshold_for_probability,
    unmask_aggregate,
)
from veilstream.tokens import (
    multi_stream_partial,
    release,
    single_stream_token,
    stream_set_hash,
)

M = MODULUS_DEFAULT


def build_parties(n, agreement=None):
    """n key pairs with everyone's pairwise secrets, via the registry."""
    agreement = agreement or StaticKeyAgreement()
    registry = IdentityRegistry()
    keypairs = [agreement.generate(bytes([i]) * 8) for i in range(n)]
    for kp in keypairs:
        registry.register(kp.public_identity())
    ids = [kp.party_id for kp in keypairs]
    secrets = {kp.party_id: setup_pairwise(kp, registry, ids) for kp in keypairs}
    return ids, secrets


# ---- identities and key agreement ---------------------------------------------


def test_party_id_validation_and_order():
    with pytest.raises(ValueError, match="32 bytes"):
        PartyId(b"short")
    a = PartyId(bytes(32))
    b = PartyId(b"\x01" + bytes(31))
    assert a < b
    assert a.short() == "000000000000"


def test_a_party_id_is_its_bytes():
    raw = bytes(range(32))
    pid = PartyId(raw)
    # hashing, equality and order are the raw bytes', computed in C
    assert pid == raw and hash(pid) == hash(raw)
    assert {raw: 1}[pid] == 1 and {pid: 1}[raw] == 1
    assert pid.value == raw and type(pid.value) is bytes
    assert repr(pid) == "PartyId(000102030405)"
    high = PartyId(b"\x02" * 32)
    assert sorted([high, pid]) == [pid, high] and pid < high
    assert PartyId(b"\x00" * 31 + b"\x01") < PartyId(b"\x01" + b"\x00" * 31)
    copy = pickle.loads(pickle.dumps(pid))
    assert copy == pid and type(copy) is PartyId
    for wrong in (b"", raw[:31], raw + b"\x00"):
        with pytest.raises(ValueError, match="32 bytes"):
            PartyId(wrong)
    with pytest.raises(AttributeError):
        pid.extra = 1


def test_registry_knows_raw_owner_ids_and_refuses_malformed_ones():
    registry = IdentityRegistry()
    agreement = StaticKeyAgreement()
    a, b = (agreement.generate(bytes([i])) for i in range(2))
    registry.register(a.public_identity())
    raw = bytes(a.party_id)
    assert type(raw) is bytes
    assert registry.knows_all([raw]) and registry.knows_all([a.party_id])
    assert registry.knows_all([]) and registry.knows_all((raw, raw))
    assert not registry.knows_all([raw, bytes(b.party_id)])
    for malformed in (raw[:31], raw + b"\x00", b"", raw.hex()):
        assert not registry.knows_all([raw, malformed])


def test_registry_conflicts_and_lookup():
    registry = IdentityRegistry()
    agreement = StaticKeyAgreement()
    kp = agreement.generate(b"seed-a")
    registry.register(kp.public_identity())
    registry.register(kp.public_identity())  # idempotent
    assert kp.party_id in registry and len(registry) == 1
    from veilstream.secure_agg import PublicIdentity

    with pytest.raises(ValueError, match="conflicting registration"):
        registry.register(PublicIdentity(kp.party_id, b"impostor material"))
    with pytest.raises(UnknownIdentityError):
        registry.get(PartyId(bytes(32)))


def test_static_agreement_is_symmetric_and_distinct():
    agreement = StaticKeyAgreement()
    a, b, c = (agreement.generate(bytes([i])) for i in range(3))
    s_ab = a.derive_shared(b.public_identity())
    s_ba = b.derive_shared(a.public_identity())
    assert s_ab == s_ba and len(s_ab) == 16
    assert s_ab != a.derive_shared(c.public_identity())


def test_static_secret_is_one_fixed_key_aes_block_of_the_two_materials():
    agreement = StaticKeyAgreement()
    a, b = agreement.generate(b"lib-a"), agreement.generate(b"lib-b")
    low, high = sorted([a.public_identity().material, b.public_identity().material])
    # F_k(x) = pi(k ^ x) ^ k ^ x, with the cipher library's AES as pi
    whitened = bytes(x ^ y for x, y in zip(low[:16], high[:16]))
    pi = Cipher(algorithms.AES(FIXED_AES_KEY), modes.ECB()).encryptor()
    expected = bytes(x ^ y for x, y in zip(pi.update(whitened), whitened))
    assert a.derive_shared(b.public_identity()) == expected
    assert b.derive_shared(a.public_identity()) == expected


def test_ecdh_agreement_matches_on_both_ends():
    agreement = EcdhKeyAgreement()
    a = agreement.generate()
    b = agreement.generate()
    s_ab = a.derive_shared(b.public_identity())
    s_ba = b.derive_shared(a.public_identity())
    assert s_ab == s_ba and len(s_ab) == 16
    assert len(a.public_identity().material) == agreement.public_material_size == 65
    assert a.party_id.value == hashlib.sha256(a.public_identity().material).digest()


def test_setup_pairwise_skips_self_and_checks_registry():
    ids, secrets = build_parties(4)
    mine = secrets[ids[0]]
    assert len(mine) == 3
    assert ids[0] not in mine.peers
    registry = IdentityRegistry()
    kp = StaticKeyAgreement().generate(b"solo")
    registry.register(kp.public_identity())
    with pytest.raises(UnknownIdentityError):
        setup_pairwise(kp, registry, [kp.party_id, PartyId(bytes(32))])


def test_pairwise_secrets_validation_and_signs():
    ids, secrets = build_parties(3)
    p, q = sorted(ids[:2])
    row_pq, row_qp = secrets[p].peers.index(q), secrets[q].peers.index(p)
    assert secrets[p].keys[row_pq].tobytes() == secrets[q].keys[row_qp].tobytes()
    # the lower id adds the pair's mask and the higher id subtracts it
    key = secrets[p].keys[row_pq].tobytes()
    block = DEFAULT_PRF.evaluate_batch(key, prf_input(DOMAIN_EDGE, 0, 4))
    mask = int.from_bytes(block.tobytes()[:8], "big")
    assert int(mask_vector(secrets[p], [q], 1, epoch_id=None, round_index=4)[0]) == mask
    assert int(mask_vector(secrets[q], [p], 1, epoch_id=None, round_index=4)[0]) == (-mask) % M
    assert list(secrets[p].peers) == sorted(secrets[p].peers)
    with pytest.raises(ValueError, match="itself"):
        PairwiseSecrets(p, {p: bytes(16)})
    with pytest.raises(ValueError, match="16 bytes"):
        PairwiseSecrets(p, {q: bytes(7)})


# ---- the partition's table of edges ----------------------------------------------


def registered(keypairs):
    registry = IdentityRegistry()
    for kp in keypairs:
        registry.register(kp.public_identity())
    return registry


def assert_pairs_once(table, keypairs, registry):
    """`table` lists each unordered pair of `keypairs` once, in id order,
    with the secret both endpoints' `setup_pairwise` give it and its lower
    id as `low`."""
    parties = tuple(kp.party_id for kp in keypairs)
    secrets = {p: setup_pairwise(kp, registry, parties) for p, kp in zip(parties, keypairs)}
    assert table.parties == parties
    pairs = [(parties[lo], parties[hi]) for lo, hi in zip(table.low, table.high)]
    ranked = sorted(parties)
    assert pairs == [(a, b) for i, a in enumerate(ranked) for b in ranked[i + 1 :]]
    assert len(table) == len(table.keys) == len(table.low) == len(table.high)
    for (a, b), key in zip(pairs, table.keys):
        assert key.tobytes() == secrets[a].keys[secrets[a].peers.index(b)].tobytes()
        assert key.tobytes() == secrets[b].keys[secrets[b].peers.index(a)].tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_peer_table_equals_the_stacked_per_endpoint_rows(n, data):
    """The endpoints' `setup_pairwise` rows, stacked and kept once per
    unordered pair, are the table's rows."""
    agreement = StaticKeyAgreement()
    keypairs = [agreement.generate(b"table-%d" % i) for i in range(n)]
    # the table lists the parties in stream order, not in id order
    keypairs = [keypairs[i] for i in data.draw(st.permutations(range(n)))]
    registry = registered(keypairs)
    table = PeerTable([keypairs], registry)
    assert_pairs_once(table, keypairs, registry)
    assert len(table) == n * (n - 1) // 2


def test_peer_table_over_ecdh_equals_the_per_endpoint_rows():
    agreement = EcdhKeyAgreement()
    keypairs = [agreement.generate() for _ in range(4)]
    registry = registered(keypairs)
    prf = CountingPrf(DEFAULT_PRF)
    assert_pairs_once(PeerTable([keypairs], registry, prf=prf), keypairs, registry)
    # ECDH keeps the per-pair loop, which spends no PRF block
    assert prf.calls == 0


class CountingKeyPair(KeyPair):
    def __init__(self, inner, counter):
        self.inner = inner
        self.party_id = inner.party_id
        self.counter = counter

    def public_identity(self):
        return self.inner.public_identity()

    def derive_shared(self, peer):
        self.counter[0] += 1
        return self.inner.derive_shared(peer)


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_peer_table_derives_each_pair_once(n):
    agreement = StaticKeyAgreement()
    counter = [0]
    keypairs = [CountingKeyPair(agreement.generate(b"c%d" % i), counter) for i in range(n)]
    registry = registered(keypairs)
    table = PeerTable([keypairs], registry)
    assert counter[0] == n * (n - 1) // 2
    counter[0] = 0
    assert_pairs_once(table, keypairs, registry)
    # the per-endpoint build derives every pair from both ends
    assert counter[0] == n * (n - 1)


class RecordingPrf(Prf):
    """Records every call to the default PRF: its block count in `blocks`,
    and its keys and message blocks in `seen`."""

    def __init__(self):
        self.blocks = []
        self.seen = []

    def evaluate_batch(self, key, messages):
        msgs = np.frombuffer(messages, np.uint8).reshape(-1, 16).copy()
        self.blocks.append(len(msgs))
        self.seen.append((np.frombuffer(key, np.uint8).reshape(-1, 16).copy(), msgs))
        return DEFAULT_PRF.evaluate_batch(key, messages)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 9), min_size=1, max_size=4),
    chunk=st.sampled_from([1, 4, secure_agg.BATCH_BLOCKS]),
    data=st.data(),
)
def test_a_static_table_derives_its_pairs_in_one_prf_pass_per_group(sizes, chunk, data):
    agreement = StaticKeyAgreement()
    keypairs = [agreement.generate(b"batch-%d" % i) for i in range(sum(sizes))]
    keypairs = [keypairs[i] for i in data.draw(st.permutations(range(len(keypairs))))]
    starts = np.cumsum([0, *sizes]).tolist()
    groups = [keypairs[s : s + n] for s, n in zip(starts, sizes)]
    registry = registered(keypairs)
    prf = RecordingPrf()
    with mock.patch.object(secure_agg, "BATCH_BLOCKS", chunk):
        table = PeerTable(groups, registry, prf=prf)
    # one block per pair, in at most one call per group per `chunk` pairs
    pairs = [n * (n - 1) // 2 for n in sizes]
    assert len(table) == sum(pairs) == sum(prf.blocks)
    assert len(prf.blocks) == sum(-(-p // chunk) for p in pairs)
    # the rows equal the per-pair loop's, and each end's `derive_shared`
    # `CountingKeyPair` leaves `derive_pairs` to `KeyPair`'s loop
    counted = [[CountingKeyPair(kp, [0]) for kp in group] for group in groups]
    looped = PeerTable(counted, registry)
    assert table.keys.tobytes() == looped.keys.tobytes()
    assert table.low.tolist() == looped.low.tolist()
    assert table.high.tolist() == looped.high.tolist()
    for key, lo, hi in zip(table.keys, table.low, table.high):
        a, b = keypairs[lo], keypairs[hi]
        assert key.tobytes() == a.derive_shared(b.public_identity())
        assert key.tobytes() == b.derive_shared(a.public_identity())
    assert len({key.tobytes() for key in table.keys}) == len(table)
    # keyed by the lower material in byte order, on the higher one
    materials = [kp.public_identity().material for kp in keypairs]
    ends = [sorted([materials[lo], materials[hi]]) for lo, hi in zip(table.low, table.high)]
    keys = b"".join(k.tobytes() for k, _ in prf.seen)
    msgs = b"".join(m.tobytes() for _, m in prf.seen)
    assert keys == b"".join(low[:16] for low, _ in ends)
    assert msgs == b"".join(high[:16] for _, high in ends)


def test_a_group_of_mixed_key_pair_types_derives_pair_by_pair():
    agreement = StaticKeyAgreement()
    keypairs = [agreement.generate(b"mixed-%d" % i) for i in range(5)]
    registry = registered(keypairs)
    prf = CountingPrf(DEFAULT_PRF)
    mixed = [CountingKeyPair(keypairs[0], [0]), *keypairs[1:]]
    table = PeerTable([mixed], registry, prf=prf)
    assert prf.calls == 0
    assert table.keys.tobytes() == PeerTable([keypairs], registry).keys.tobytes()


def test_peer_table_refuses_unknown_and_repeated_parties():
    agreement = StaticKeyAgreement()
    keypairs = [agreement.generate(bytes([i])) for i in range(3)]
    registry = registered(keypairs[:2])
    with pytest.raises(UnknownIdentityError):
        PeerTable([keypairs], registry)
    registry.register(keypairs[2].public_identity())
    with pytest.raises(ValueError, match="twice"):
        PeerTable([[keypairs[0], keypairs[1], keypairs[0]]], registry)
    # across groups too
    with pytest.raises(ValueError, match="twice"):
        PeerTable([[keypairs[0], keypairs[1]], [keypairs[2], keypairs[0]]], registry)


# ---- nonce cancellation ---------------------------------------------------------


def test_clique_nonces_cancel_and_count():
    ids, secrets = build_parties(6)
    total = 0
    for pid in ids:
        prf = CountingPrf(DEFAULT_PRF)
        total += nonce_clique(secrets[pid], 12, prf=prf)
        assert prf.calls == 5
    assert total % M == 0


def test_clique_nonces_cancel_on_any_member_subset():
    ids, secrets = build_parties(7)
    members = frozenset([ids[0], ids[2], ids[3], ids[6]])
    total = sum(
        nonce_clique(secrets[pid], 4, members=members) for pid in members
    )
    assert total % M == 0


def test_dream_with_p_one_equals_clique():
    ids, secrets = build_parties(5)
    thr = threshold_for_probability(1.0)
    for pid in ids:
        assert nonce_dream(secrets[pid], 9, thr) == nonce_clique(secrets[pid], 9)


def test_dream_with_p_zero_masks_nothing():
    ids, secrets = build_parties(4)
    thr = threshold_for_probability(0.0)
    prf = CountingPrf(DEFAULT_PRF)
    assert nonce_dream(secrets[ids[0]], 3, thr, prf=prf) == 0
    assert prf.calls == 3  # draws happen, no masks follow


def test_dream_selects_draws_at_most_the_threshold():
    ids, secrets = build_parties(4)
    me = secrets[ids[0]]
    # CounterPrf makes round r's selection draw 1000 * r under every key;
    # at r = 2**60 the draw also fills the high 64 bits
    for r in (7, 1 << 60):
        assert round_peers(me, r, threshold=1000 * r, prf=CounterPrf()) == list(me.peers)
        assert round_peers(me, r, threshold=1000 * r - 1, prf=CounterPrf()) == []


def test_dream_nonces_cancel_at_intermediate_p():
    ids, secrets = build_parties(8)
    thr = threshold_for_probability(0.4)
    for round_index in range(6):
        total = sum(nonce_dream(secrets[pid], round_index, thr) for pid in ids)
        assert total % M == 0


def test_threshold_values_are_exact_for_powers_of_two():
    # p=1 clamps to the largest representable draw minus one
    assert threshold_for_probability(1.0) == (1 << 128) - 2
    assert threshold_for_probability(0.5) == (1 << 127) - 1
    assert threshold_for_probability(2.0 ** -7) == (1 << 121) - 1
    assert threshold_for_probability(0.0) == -1
    with pytest.raises(ValueError, match="probability"):
        threshold_for_probability(1.5)


# ---- epoch planning --------------------------------------------------------------


def scheduled_peers(plan, round_index):
    """The plan's peers whose edge is active in the round."""
    return tuple(compress(plan.peers, plan.round_mask(round_index)))


def test_epoch_plan_shape_and_agreement():
    ids, secrets = build_parties(5)
    b = 3
    plans = {pid: plan_epoch(secrets[pid], 7, b) for pid in ids}
    segments = 128 // b
    width = segments << b
    for pid in ids:
        plan = plans[pid]
        assert (plan.segments, plan.width, plan.b) == (segments, width, b)
        assert plan.peers == secrets[pid].peers
        assert plan.bits.shape == (len(ids) - 1, 128)
        # each edge is active in exactly one round of every segment
        masks = np.array([plan.round_mask(r) for r in range(width)])
        assert (masks.reshape(segments, 1 << b, -1).sum(axis=1) == 1).all()
    for r in range(width):
        for pid in ids:
            active = round_peers(secrets[pid], r, plan=plans[pid])
            # the two endpoints of an edge schedule identical rounds
            assert all(pid in scheduled_peers(plans[q], r) for q in active)
            assert [q for q in sorted(ids) if plans[pid].active_in_round(q, r)] == active
    with pytest.raises(ValueError, match="outside epoch"):
        plans[ids[0]].round_mask(width)


def _oracle_rounds(secrets, epoch_id, b, prf):
    """Scalar expansion of the graph PRF: each peer's round per segment."""
    msg = prf_input(DOMAIN_GRAPH, 0, epoch_id)
    seg_mask = (1 << b) - 1
    rounds = {}
    for peer, key in zip(secrets.peers, secrets.keys):
        out = int.from_bytes(prf.evaluate_batch(key.tobytes(), msg).tobytes(), "big")
        rounds[peer] = tuple(
            (s << b) | ((out >> (128 - (s + 1) * b)) & seg_mask)
            for s in range(128 // b)
        )
    return rounds


PLAN_IDS, PLAN_SECRETS = build_parties(5)


@settings(max_examples=80, deadline=None)
@given(
    b=st.integers(1, 128),
    epoch_id=st.integers(0, (1 << 64) - 1),
    sampled=st.lists(st.integers(0, (1 << 135) - 1), min_size=8, max_size=8),
)
def test_epoch_plan_matches_the_scalar_expansion(b, epoch_id, sampled):
    prf = CountingPrf(DEFAULT_PRF)
    plans = {}
    for pid in PLAN_IDS:
        before = prf.calls
        plans[pid] = plan_epoch(PLAN_SECRETS[pid], epoch_id, b, prf=prf)
        assert prf.calls - before == len(PLAN_IDS) - 1
    me = PLAN_IDS[0]
    plan = plans[me]
    oracle = _oracle_rounds(PLAN_SECRETS[me], epoch_id, b, DEFAULT_PRF)
    assert plan.peers == tuple(sorted(PLAN_SECRETS[me].peers))
    assert plan.width == (128 // b) << b
    if plan.width <= 4096:
        rounds = range(plan.width)
    else:
        # every scheduled round, its neighbours and random others
        scheduled = {r for rs in oracle.values() for r in rs}
        rounds = sorted(
            {r + d for r in scheduled for d in (-1, 0, 1) if 0 <= r + d < plan.width}
            | {x % plan.width for x in sampled}
            | {0, plan.width - 1}
        )
    for r in rounds:
        expect = tuple(p for p in plan.peers if r in oracle[p])
        assert scheduled_peers(plan, r) == expect
        for q in plan.peers:
            assert plan.active_in_round(q, r) == (q in expect)
            assert plans[q].active_in_round(me, r) == (q in expect)


def test_epoch_plan_counts_one_prf_call_per_peer():
    ids, secrets = build_parties(6)
    prf = CountingPrf(DEFAULT_PRF)
    plan_epoch(secrets[ids[0]], 0, 4, prf=prf)
    assert prf.calls == 5
    with pytest.raises(ValueError, match="segment width"):
        plan_epoch(secrets[ids[0]], 0, 0)


def test_zeph_nonces_cancel_across_the_epoch():
    ids, secrets = build_parties(6)
    b = 2
    plans = {pid: plan_epoch(secrets[pid], 3, b) for pid in ids}
    width = plans[ids[0]].width
    for round_index in range(0, width, 37):
        total = sum(
            nonce_zeph(plans[pid], secrets[pid], round_index) for pid in ids
        )
        assert total % M == 0


def test_zeph_empty_round_warns_and_returns_zero(caplog):
    ids, secrets = build_parties(2)
    plan = plan_epoch(secrets[ids[0]], 0, 7)
    empty = next(r for r in range(plan.width) if not plan.round_mask(r).any())
    with caplog.at_level(logging.WARNING):
        assert nonce_zeph(plan, secrets[ids[0]], empty) == 0
    assert any("no active peers" in rec.getMessage() for rec in caplog.records)


def test_membership_delta_validation_and_wire_size():
    a, b = PartyId(bytes(32)), PartyId(b"\x01" + bytes(31))
    with pytest.raises(ValueError, match="join and drop"):
        MembershipDelta(0, joined=frozenset([a]), dropped=frozenset([a]))
    delta = MembershipDelta(0, joined=frozenset([a]), dropped=frozenset([b]))
    assert delta.wire_size() == 16 + 32 * 2


def test_apply_delta_matches_recomputation():
    ids, secrets = build_parties(7)
    b = 1  # dense plan so drops actually touch rounds
    me = ids[0]
    plan = plan_epoch(secrets[me], 5, b)
    round_index = 11
    full = nonce_zeph(plan, secrets[me], round_index)
    dropped = frozenset([ids[3], ids[5]])
    survivors = frozenset(ids) - dropped

    prf = CountingPrf(DEFAULT_PRF)
    delta = MembershipDelta(round_index, joined=frozenset(), dropped=dropped)
    corrected = apply_delta(plan, secrets[me], full, delta, round_index, prf=prf)
    expect = nonce_zeph(plan, secrets[me], round_index, members=survivors)
    assert corrected == expect
    # one mask call per dropped peer whose edge is active in this round
    assert prf.calls == len(dropped & set(round_peers(secrets[me], round_index, plan=plan)))

    # rejoining restores the original nonce
    rejoin = MembershipDelta(round_index, joined=dropped, dropped=frozenset())
    assert apply_delta(plan, secrets[me], corrected, rejoin, round_index) == full


def test_apply_delta_skips_self_and_counts_checks():
    ids, secrets = build_parties(4)
    me = ids[1]
    plan = plan_epoch(secrets[me], 0, 1)
    dropped = frozenset(ids[2:])
    with_self = MembershipDelta(2, joined=frozenset([me]), dropped=dropped)
    without_self = MembershipDelta(2, joined=frozenset(), dropped=dropped)
    base = nonce_zeph(plan, secrets[me], 2)
    # a party is never its own peer, so listing it changes nothing
    assert apply_delta(plan, secrets[me], base, with_self, 2) == apply_delta(
        plan, secrets[me], base, without_self, 2
    )


# ---- vector masking and the full blind-aggregate flow -----------------------------


def test_mask_vectors_cancel_elementwise():
    ids, secrets = build_parties(5)
    width = 5
    acc = np.zeros(width, dtype=np.uint64)
    prf = CountingPrf(DEFAULT_PRF)
    for pid in ids:
        peers = [q for q in ids if q != pid]
        # uint64 array addition already wraps mod 2**64
        acc = acc + mask_vector(
            secrets[pid], peers, width, epoch_id=2, round_index=9, prf=prf
        )
    assert not acc.any()
    # 5 parties x 4 peers x 3 blocks of two lanes
    assert prf.calls == 5 * 4 * 3


def test_mask_vector_domain_handling():
    ids, secrets = build_parties(3)
    peers = ids[1:]
    a = mask_vector(secrets[ids[0]], peers, 4, round_index=1)
    b = mask_vector(secrets[ids[0]], peers, 4, round_index=1, epoch_id=None)
    assert not np.array_equal(a, b)
    # a party is not its own peer
    with pytest.raises(KeyError):
        mask_vector(secrets[ids[0]], ids[:2], 4, round_index=1)
    with pytest.raises(ValueError, match="40 bits"):
        mask_vector(secrets[ids[0]], peers, 4, epoch_id=1 << 40, round_index=1)
    # block indices share the first input word with the epoch id
    with pytest.raises(ValueError, match="16 bits"):
        mask_vector(secrets[ids[0]], peers, (2 << 16) + 1, round_index=1)


def test_one_prf_call_per_selection_mask_and_plan():
    ids, secrets = build_parties(8)
    me = secrets[ids[0]]
    members = frozenset(ids[:6])
    thr = threshold_for_probability(0.5)
    prf = RecordingPrf()
    # dream draws every live peer in one call
    round_peers(me, 3, threshold=thr, prf=prf)
    round_peers(me, 3, members=members, threshold=thr, prf=prf)
    assert prf.blocks == [7, 5]
    # a mask costs every peer's ceil(width / 2) blocks in one call
    prf.blocks.clear()
    mask_vector(me, ids[1:6], 5, round_index=3, prf=prf)
    mask_vector(me, ids[3:5], 1, round_index=3, epoch_id=None, prf=prf)
    assert prf.blocks == [5 * 3, 2]
    prf.blocks.clear()
    plan_epoch(me, 2, 3, prf=prf)
    assert prf.blocks == [7]


MASK_IDS, MASK_SECRETS = build_parties(6)


def _per_peer_mask_oracle(secrets, peers, width, round_index, epoch_id):
    """Each peer's lanes from its own single-key PRF call, added or
    subtracted by the order of the two party ids; epoch id None selects
    the per-round edge domain."""
    blocks = (width + 1) // 2
    if epoch_id is None:
        msgs = [prf_input(DOMAIN_EDGE, k, round_index) for k in range(blocks)]
    else:
        msgs = [prf_input(DOMAIN_MASK, epoch_id << 16 | k, round_index) for k in range(blocks)]
    total = [0] * width
    for peer in peers:
        key = secrets.keys[secrets.peers.index(peer)].tobytes()
        out = DEFAULT_PRF.evaluate_batch(key, b"".join(msgs)).tobytes()
        for lane in range(width):
            value = int.from_bytes(out[8 * lane : 8 * lane + 8], "big")
            total[lane] += value if secrets.self_id < peer else -value
    return [t % M for t in total]


@settings(max_examples=60, deadline=None)
@given(
    me=st.integers(0, 5),
    order=st.permutations(range(5)),
    count=st.integers(0, 5),
    width=st.integers(1, 9),
    round_index=st.integers(0, (1 << 64) - 1),
    epoch_id=st.integers(0, (1 << 40) - 1),
    edge=st.booleans(),
)
def test_mask_vector_matches_the_per_peer_signed_sum(
    me, order, count, width, round_index, epoch_id, edge
):
    secrets = MASK_SECRETS[MASK_IDS[me]]
    peers = [secrets.peers[i] for i in order[:count]]
    if edge:
        epoch_id = None
    got = mask_vector(secrets, peers, width, epoch_id=epoch_id, round_index=round_index)
    assert got.dtype == np.uint64 and got.shape == (width,)
    assert got.tolist() == _per_peer_mask_oracle(secrets, peers, width, round_index, epoch_id)
    if not peers:
        assert not got.any()


def test_scalar_nonce_is_lane_zero_of_the_mask_vector():
    ids, secrets = build_parties(6)
    me = secrets[ids[0]]
    members = frozenset(ids[:5])
    thr = threshold_for_probability(0.5)
    plan = plan_epoch(me, 3, 1)
    cases = [
        (
            nonce_clique(me, 7, members=members),
            round_peers(me, 7, members=members),
            {"epoch_id": None},
        ),
        (
            nonce_dream(me, 7, thr, members=members),
            round_peers(me, 7, members=members, threshold=thr),
            {"epoch_id": None},
        ),
        (
            nonce_zeph(plan, me, 7, members=members),
            round_peers(me, 7, members=members, plan=plan),
            {"epoch_id": 3},
        ),
    ]
    for nonce, peers, kwargs in cases:
        assert peers and nonce != 0
        # lane 0 does not depend on the vector's width
        for width in (1, 5):
            assert nonce == int(mask_vector(me, peers, width, round_index=7, **kwargs)[0])


def masked_flow_fixture(n=4):
    ids, secrets = build_parties(n)
    masters = [MasterSecret(bytes([i]) * 16, f"stream-{i}") for i in range(n)]
    directives = [release(), release(), release()]
    tokens = [single_stream_token(m, (0, 2), directives) for m in masters]
    masked = []
    for pid, token in zip(ids, tokens):
        peers = [q for q in ids if q != pid]
        nonces = mask_vector(secrets[pid], peers, 3, epoch_id=1, round_index=4)
        masked.append(
            mask_token(token, nonces, round_index=4, epoch_id=1, party=pid)
        )
    return ids, tokens, masked


def test_unmask_recovers_the_token_sum():
    ids, tokens, masked = masked_flow_fixture()
    combined = unmask_aggregate(masked)
    expect = multi_stream_partial(tokens)
    assert combined.elements == expect.elements
    assert combined.stream_set_id == expect.stream_set_id
    assert combined.stream_ids == expect.stream_ids
    # each single blinded row reveals nothing recognizable
    assert masked[0].elements[0].tolist() != list(tokens[0].elements)


def test_unmask_with_a_missing_party_is_garbage():
    _, tokens, masked = masked_flow_fixture()
    expect = multi_stream_partial(tokens)
    partial = unmask_aggregate(
        masked[:-1], stream_ids=[t.stream_ids[0] for t in tokens[:-1]]
    )
    assert partial.elements != multi_stream_partial(tokens[:-1]).elements
    assert partial.elements != expect.elements


def test_unmask_input_validation():
    ids, tokens, masked = masked_flow_fixture()
    with pytest.raises(ValueError, match="at least one"):
        unmask_aggregate([])
    with pytest.raises(ValueError, match="duplicate masked token"):
        unmask_aggregate([masked[0], masked[0]])
    other_round = mask_token(
        tokens[1], [0, 0, 0], round_index=5, epoch_id=1, party=ids[1]
    )
    with pytest.raises(ValueError, match="different rounds"):
        unmask_aggregate([masked[0], other_round])


def test_unmask_refuses_mixed_windows_and_widths():
    ids, tokens, masked = masked_flow_fixture()
    master = MasterSecret(bytes([1]) * 16, "stream-1")
    later = single_stream_token(master, (0, 3), [release()] * 3)
    narrow = single_stream_token(master, (0, 2), [release()] * 2)
    with pytest.raises(ValueError, match="different windows"):
        unmask_aggregate(
            [masked[0], mask_token(later, [0] * 3, round_index=4, epoch_id=1, party=ids[1])]
        )
    with pytest.raises(ValueError, match="different widths"):
        unmask_aggregate(
            [masked[0], mask_token(narrow, [0] * 2, round_index=4, epoch_id=1, party=ids[1])]
        )


def test_mask_token_takes_an_aligned_sequence():
    ids, tokens, _ = masked_flow_fixture()
    token = tokens[0]
    by_seq = mask_token(
        token, [7, 7, 7], round_index=0, epoch_id=0, party=ids[0]
    )
    # the party's one-row batch
    assert by_seq.parties == (ids[0],) and by_seq.stream_ids == token.stream_ids
    assert by_seq.elements.tolist() == [[(e + 7) % M for e in token.elements]]
    with pytest.raises(TypeError, match="sequence"):
        mask_token(token, {0: 7, 1: 7, 2: 7}, round_index=0, epoch_id=0, party=ids[0])
    with pytest.raises(ValueError, match="nonce vector length"):
        mask_token(token, [7], round_index=0, epoch_id=0, party=ids[0])


def test_masked_token_wire_size_matches_serialization():
    _, _, masked = masked_flow_fixture()
    batch = MaskedBatch.concat(masked)
    # per row: the 48-byte masked header, then the 48 + 10 * width token record
    assert len(batch.serialize()) == len(masked) * (96 + 10 * 3)
    assert batch.serialize() == b"".join(m.serialize() for m in masked)


# ---- connectivity bound and parameter search ---------------------------------------


def test_disconnect_bound_edge_cases_and_validation():
    assert disconnect_bound(50, 1.0) == 0.0
    assert disconnect_bound(50, 0.0) == 1.0
    assert disconnect_bound(3, 0.01) == 1.0  # vacuous bounds clamp
    with pytest.raises(ValueError, match="two honest"):
        disconnect_bound(1, 0.5)
    with pytest.raises(ValueError, match="edge probability"):
        disconnect_bound(10, 1.1)
    with pytest.raises(ValueError, match="rounds"):
        disconnect_bound(10, 0.5, 0)


def test_disconnect_bound_is_monotone():
    probs = [disconnect_bound(40, p) for p in (0.1, 0.3, 0.5, 0.8)]
    assert probs == sorted(probs, reverse=True)
    by_rounds = [disconnect_bound(40, 0.3, r) for r in (1, 10, 100)]
    assert by_rounds == sorted(by_rounds)


def test_disconnect_bound_dominates_exhaustive_small_graph():
    # all 2**6 graphs on 4 vertices: 38 connected, 26 disconnected
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    disconnected = 0
    for mask_bits in range(64):
        adj = {v: set() for v in range(4)}
        for e, (u, v) in enumerate(edges):
            if mask_bits >> e & 1:
                adj[u].add(v)
                adj[v].add(u)
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = adj[frontier.pop()] - seen
            seen |= nxt
            frontier.extend(nxt)
        disconnected += len(seen) < 4
    assert disconnected == 26
    assert disconnect_bound(4, 0.5) >= 26 / 64


def test_optimize_b_result_invariants():
    result = optimize_b(1000, 0.5, 1e-7)
    assert result.feasible
    assert result.rounds == (128 // result.b) << result.b
    assert result.edge_probability == 2.0 ** -result.b
    assert result.expected_degree == pytest.approx(999 * 2.0 ** -result.b)
    assert result.honest_count == 500
    assert result.bound <= 1e-7
    # feasibility of the winner is certified against honest parties only
    assert disconnect_bound(500, result.edge_probability, result.rounds) <= 1e-7


def test_optimize_b_prefers_denser_graph_on_round_ties():
    # b=1 and b=2 both give 256 rounds; the search must keep b=1
    result = optimize_b(5000, 0.0, 0.5, prf_bits=4)
    # with prf_bits=4: b=1 -> 8, b=2 -> 8, b=3 -> 8, b=4 -> 16
    assert result.feasible
    if result.rounds == 8:
        assert result.b == 1


def test_optimize_b_infeasible_and_validation():
    result = optimize_b(2, 0.9, 1e-7)
    assert not result.feasible
    assert result.b is None and result.rounds is None
    with pytest.raises(ValueError, match="two parties"):
        optimize_b(1, 0.5, 1e-7)
    with pytest.raises(ValueError, match="colluding fraction"):
        optimize_b(10, 1.0, 1e-7)
    with pytest.raises(ValueError, match="failure budget"):
        optimize_b(10, 0.5, 0.0)


def test_optimize_b_more_parties_never_fewer_rounds():
    small = optimize_b(200, 0.5, 1e-7)
    large = optimize_b(20000, 0.5, 1e-7)
    assert small.feasible and large.feasible
    assert large.rounds >= small.rounds


# ---- single-party cost benchmark -----------------------------------------------------


def test_simulate_clique_costs_are_exact():
    rows = simulate_party_counters(5, 3, "clique")
    assert rows == [RoundCost(r, 4, 4, 4, 4) for r in range(3)]


def test_simulate_validation():
    with pytest.raises(ValueError, match="two parties"):
        simulate_party_counters(1, 5, "clique")
    with pytest.raises(ValueError, match="rounds"):
        simulate_party_counters(5, 0, "clique")
    with pytest.raises(ValueError, match="dropout"):
        simulate_party_counters(5, 5, "clique", dropout=1.0)
    with pytest.raises(ValueError, match="unknown protocol"):
        simulate_party_counters(5, 5, "mesh")
    with pytest.raises(ValueError, match="segment width"):
        simulate_party_counters(5, 5, "zeph", b=0)
    with pytest.raises(ValueError, match="no feasible"):
        simulate_party_counters(3, 5, "dream")


def _bench_pairwise(parties, seed):
    """The simulated party's pairwise secrets, rebuilt from the
    simulator's recipe: peer i + 1 shares a hash of (seed, i)."""
    tag = seed.to_bytes(8, "little", signed=True)
    secrets = {
        PartyId((i + 1).to_bytes(32, "big")): hashlib.sha256(
            b"bench-secret\x00" + tag + i.to_bytes(8, "little")
        ).digest()[:16]
        for i in range(parties - 1)
    }
    return PairwiseSecrets(PartyId(bytes(32)), secrets)


def test_simulate_dream_matches_scalar_selection(monkeypatch):
    parties, rounds, b, seed = 8, 300, 2, 3
    # 128 rounds of 7 peers per draw call: 300 rounds span three calls
    monkeypatch.setattr(secure_agg, "BATCH_BLOCKS", 7 * 128)
    rows = simulate_party_counters(parties, rounds, "dream", b=b, seed=seed)
    pairwise = _bench_pairwise(parties, seed)
    threshold = threshold_for_probability(2.0 ** -b)
    for r, row in enumerate(rows):
        expect = len(round_peers(pairwise, r, threshold=threshold))
        assert row.degree == expect
        assert row.active_peers == parties - 1
        assert row.prf_calls == (parties - 1) + expect
        assert row.additions == expect


def test_simulate_zeph_replays_the_epoch_plan():
    parties, b, seed = 6, 2, 11
    width = (128 // b) << b
    rows = simulate_party_counters(parties, 25, "zeph", b=b, seed=seed)
    plan = plan_epoch(_bench_pairwise(parties, seed), 0, b)
    for r, row in enumerate(rows):
        degree = int(plan.round_mask(r % width).sum())
        assert row.degree == degree
        setup = parties - 1 if r == 0 else 0
        assert row.prf_calls == setup + degree
    # each of the 5 peers is scheduled once per segment
    full = simulate_party_counters(parties, width, "zeph", b=b, seed=seed)
    assert sum(row.degree for row in full) == (parties - 1) * (128 // b)


def _rows_digest(rows) -> str:
    fields = [(r.round_index, r.active_peers, r.degree, r.prf_calls, r.additions) for r in rows]
    return hashlib.sha256(repr(fields).encode()).hexdigest()


@pytest.mark.parametrize(
    "parties, rounds, kwargs, digest",
    [
        (200, 300, dict(seed=4), "551e68f42f045f217804f6bd6ae221f5515dd9f9046949befa184da1096d55fd"),
        (
            300,
            700,
            dict(seed=1, dropout=0.05),
            "d6bad36828bbb8f8570ee3627204923a27fd9ea0ce05200ecdc0fc0046a6c7b1",
        ),
        (6, 600, dict(b=2, seed=11), "d166e62443b36292bb9de44f8d57f35814b4486beb3912e2335deada5904676e"),
    ],
    ids=["200x300", "300x700-dropout", "6x600-b2"],
)
def test_simulate_zeph_rows_are_pinned(parties, rounds, kwargs, digest):
    # digests of rows planned with fixed-key AES, confirmed by a replay that
    # evaluates F_k(x) = pi(k ^ x) ^ k ^ x block by block with the cipher
    # library and draws the dropout binomials in round order
    rows = simulate_party_counters(parties, rounds, "zeph", **kwargs)
    assert _rows_digest(rows) == digest


def test_simulate_zeph_refuses_segments_too_wide_to_tally():
    with pytest.raises(ValueError, match="too wide to replay"):
        simulate_party_counters(5, 3, "zeph", b=25)
    # dream draws need no histogram
    assert len(simulate_party_counters(5, 3, "dream", b=70)) == 3


def test_simulate_dropout_thins_costs():
    lively = simulate_party_counters(50, 20, "clique", seed=1)
    thinned = simulate_party_counters(50, 20, "clique", dropout=0.3, seed=1)
    assert sum(r.prf_calls for r in thinned) < sum(r.prf_calls for r in lively)
    assert all(r.active_peers <= 49 for r in thinned)
    # deterministic replay
    again = simulate_party_counters(50, 20, "clique", dropout=0.3, seed=1)
    assert thinned == again
