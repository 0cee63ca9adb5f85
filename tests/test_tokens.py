"""Transformation tokens checked against plaintext transformations.

The core property: applying a token to the equally reshaped aggregate
ciphertext must equal running the directives on the plaintext sums.
"""

import hashlib
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veilstream.ring import (
    MODULUS_DEFAULT,
    AesPrf,
    CounterPrf,
    CountingPrf,
    MasterSecret,
    apply_token,
    chain_sum,
    cross_sum,
    derive_key,
    encrypt,
    merge_elements,
)
from veilstream.secure_agg import PartyId, mask_token
from veilstream.tokens import (
    ElementDirective,
    NoiseSpec,
    PrivacyBudget,
    Suppressed,
    TokenLayout,
    TokenStore,
    TransformationToken,
    add_dp_noise,
    deserialize_token,
    merge,
    multi_stream_partial,
    output_layout,
    perturb,
    release,
    serialize_token,
    shift,
    single_stream_token,
    stream_set_hash,
    withhold,
)

M = MODULUS_DEFAULT


def master(tag: str) -> MasterSecret:
    return MasterSecret(tag.encode().ljust(16, b"\0"), tag)


def window_chain(m: MasterSecret, rows):
    """Encrypt consecutive events and chain them into one window aggregate."""
    cts = [encrypt(m, t, t + 1, row) for t, row in enumerate(rows)]
    return chain_sum(cts)


# ---- directives and layout ---------------------------------------------------


def test_directive_validation():
    with pytest.raises(ValueError, match="unknown directive action"):
        ElementDirective("reveal")
    with pytest.raises(ValueError, match="group"):
        ElementDirective("merge")
    with pytest.raises(ValueError, match="noise spec"):
        ElementDirective("perturb")


def test_output_layout_groups_and_skips():
    directives = [
        release(),
        merge("bucket"),
        withhold(),
        merge("bucket"),
        release(),
        merge("other"),
    ]
    assert output_layout(directives) == ((0,), (1, 3), (4,), (5,))


def test_output_layout_all_withheld_is_empty():
    assert output_layout([withhold(), withhold()]) == ()


def test_stream_set_hash_is_order_invariant_and_checked():
    a = stream_set_hash(["s2", "s1", "s3"])
    b = stream_set_hash(["s1", "s3", "s2"])
    assert a == b and len(a) == 32
    assert a != stream_set_hash(["s1", "s2"])
    with pytest.raises(ValueError, match="duplicates"):
        stream_set_hash(["s1", "s1"])
    # pin the construction so wire peers can reproduce it
    h = hashlib.sha256(b"stream-set\x00")
    for sid in ("s1", "s2", "s3"):
        h.update(sid.encode() + b"\x1f")
    assert a == h.digest()


def test_noise_spec_per_party_sigma():
    spec = NoiseSpec(sigma_target=10.0, honest_fraction=0.5, party_count=200)
    assert spec.per_party_sigma == pytest.approx(1.0)
    with pytest.raises(ValueError, match="honest_fraction"):
        NoiseSpec(sigma_target=1, honest_fraction=0, party_count=10)
    with pytest.raises(ValueError, match="mechanism"):
        NoiseSpec(sigma_target=1, honest_fraction=1, party_count=1, mechanism="laplace")
    with pytest.raises(ValueError, match="party_count"):
        NoiseSpec(sigma_target=1, honest_fraction=1, party_count=0)


# ---- single-stream duality ----------------------------------------------------


def test_release_token_reveals_window_sums():
    m = master("rel")
    rows = [[3, 40], [7, 50], [9, 60]]
    agg = window_chain(m, rows)
    token = single_stream_token(m, (0, 3), [release(), release()])
    merged = merge_elements(agg, output_layout([release(), release()]))
    assert apply_token(merged, token) == [19, 150]


def test_merge_directive_buckets_inputs():
    m = master("mrg")
    rows = [[1, 2, 3, 4], [10, 20, 30, 40]]
    agg = window_chain(m, rows)
    directives = [merge("lo"), merge("lo"), release(), withhold()]
    token = single_stream_token(m, (0, 2), directives)
    merged = merge_elements(agg, output_layout(directives))
    # outputs: lo = (1+2) + (10+20), then element 2 alone
    assert apply_token(merged, token) == [33, 33]


def test_shift_directive_offsets_in_fixed_point():
    m = master("shf")
    agg = window_chain(m, [[500], [250]])
    directives = [shift(-2.25)]
    token = single_stream_token(m, (0, 2), directives, scale=100)
    merged = merge_elements(agg, output_layout(directives))
    assert apply_token(merged, token) == [750 - 225]


def test_perturb_directive_adds_replayable_noise():
    m = master("prt")
    noise = NoiseSpec(sigma_target=40.0, honest_fraction=1.0, party_count=1)
    agg = window_chain(m, [[1000], [2000]])
    directives = [perturb(noise)]
    token = single_stream_token(
        m, (0, 2), directives, rng=np.random.default_rng(99)
    )
    assert token.noised
    merged = merge_elements(agg, output_layout(directives))
    eta = round(float(np.random.default_rng(99).normal(0.0, noise.per_party_sigma)))
    assert apply_token(merged, token) == [(3000 + eta) % M]


def test_perturb_with_zero_sigma_is_exact():
    m = master("pz")
    noise = NoiseSpec(sigma_target=0.0, honest_fraction=0.5, party_count=4)
    agg = window_chain(m, [[11], [22]])
    token = single_stream_token(
        m, (0, 2), [perturb(noise)], rng=np.random.default_rng(0)
    )
    merged = merge_elements(agg, ((0,),))
    assert apply_token(merged, token) == [33]


def test_perturb_without_rng_is_refused():
    noise = NoiseSpec(sigma_target=1.0, honest_fraction=1.0, party_count=1)
    with pytest.raises(ValueError, match="rng"):
        single_stream_token(master("x"), (0, 1), [perturb(noise)])


def test_mixed_directives_against_plaintext_oracle():
    m = master("mix")
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 10**6, size=(5, 6)).tolist()
    agg = window_chain(m, rows)
    noise = NoiseSpec(sigma_target=0.0, honest_fraction=1.0, party_count=1)
    directives = [
        release(),
        merge("g"),
        withhold(),
        shift(3.5),
        merge("g"),
        perturb(noise),
    ]
    token = single_stream_token(
        m, (0, 5), directives, rng=np.random.default_rng(1)
    )
    merged = merge_elements(agg, output_layout(directives))
    sums = [sum(r[j] for r in rows) for j in range(6)]
    expect = [
        sums[0],
        sums[1] + sums[4],
        (sums[3] + round(3.5 * 100)) % M,
        sums[5],
    ]
    assert apply_token(merged, token) == expect


def loop_token(m, window, directives, *, prf, scale, rng):
    """The per-element token loop the vectorized builder replaced: full key
    vectors, then one Python sum per output. Kept as the oracle."""
    mask = M - 1
    width = len(directives)
    k_start = derive_key(m, window[0], width, prf=prf)
    k_end = derive_key(m, window[1], width, prf=prf)
    elements = {}
    noised = False
    for o, sources in enumerate(output_layout(directives)):
        acc = 0
        for j in sources:
            acc = (acc + int(k_start[j]) - int(k_end[j])) & mask
        lead = directives[sources[0]]
        if lead.action == "shift":
            acc = (acc + round(lead.offset * scale)) & mask
        elif lead.action == "perturb":
            eta = round(float(rng.normal(0.0, lead.noise.per_party_sigma)))
            acc = (acc + eta) & mask
            noised = True
        elements[o] = acc
    return elements, noised


directive_strategy = st.one_of(
    st.just(release()),
    st.just(withhold()),
    st.sampled_from("abc").map(merge),
    st.floats(-1e6, 1e6, allow_nan=False).map(shift),
    st.floats(0.0, 1e7, allow_nan=False).map(
        lambda sigma: perturb(NoiseSpec(sigma, honest_fraction=1.0, party_count=1))
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    directives=st.lists(directive_strategy, min_size=1, max_size=40).filter(
        lambda ds: any(d.action != "withhold" for d in ds)
    ),
    t_start=st.integers(0, 1 << 40),
    length=st.integers(1, 5000),
    prf_kind=st.sampled_from(["counter", "aes"]),
    scale=st.sampled_from([1, 100, 10_000]),
    seed=st.integers(0, 2**32 - 1),
    prebuilt=st.booleans(),
)
def test_token_matches_the_per_element_loop(
    directives, t_start, length, prf_kind, scale, seed, prebuilt
):
    m = master("oracle")
    prf = CountingPrf(CounterPrf() if prf_kind == "counter" else AesPrf())
    window = (t_start, t_start + length)
    layout = TokenLayout.build(directives) if prebuilt else None
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    token = single_stream_token(
        m, window, directives, layout=layout, prf=prf, scale=scale, rng=rng
    )
    sources = sum(d.action != "withhold" for d in directives)
    assert prf.calls == 2 * sources
    elements, noised = loop_token(
        m, window, directives, prf=prf.inner, scale=scale, rng=oracle_rng
    )
    assert dict(token.elements) == elements
    assert all(type(v) is int for v in token.elements.values())
    assert token.noised == noised
    # the same noise draws, in the same output order
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_token_layout_arrays():
    directives = [release(), merge("g"), withhold(), shift(1.5), merge("g"), release()]
    layout = TokenLayout.build(directives)
    assert layout.width == 6
    assert layout.sources.tolist() == [0, 1, 4, 3, 5]
    assert layout.offsets.tolist() == [0, 1, 3, 4]
    assert layout.adjusted == ((2, directives[3]),)
    assert not layout.sources.flags.writeable and not layout.offsets.flags.writeable
    with pytest.raises(ValueError, match="outside width"):
        TokenLayout.build(directives, ((0,), (6,)))
    with pytest.raises(ValueError, match="needs a source"):
        TokenLayout.build(directives, ((0,), ()))


def test_token_builder_input_validation():
    m = master("val")
    with pytest.raises(ValueError, match="non-empty"):
        single_stream_token(m, (3, 3), [release()])
    with pytest.raises(ValueError, match="at least one element"):
        single_stream_token(m, (0, 1), [])
    with pytest.raises(ValueError, match="release at least one"):
        single_stream_token(m, (0, 1), [withhold(), withhold()])
    with pytest.raises(ValueError, match="layout width"):
        single_stream_token(
            m, (0, 1), [release()], layout=TokenLayout.build([release(), release()])
        )


# ---- multi-stream combination --------------------------------------------------


def test_partial_tokens_fold_into_cross_stream_release():
    masters = [master(f"p{i}") for i in range(3)]
    rows = {
        0: [[1, 2], [3, 4]],
        1: [[10, 20], [30, 40]],
        2: [[100, 200], [300, 400]],
    }
    directives = [release(), release()]
    aggs = [window_chain(masters[i], rows[i]) for i in range(3)]
    combined_ct = cross_sum(aggs)
    merged = merge_elements(combined_ct, output_layout(directives))

    partial = multi_stream_partial(
        [single_stream_token(mi, (0, 2), directives) for mi in masters]
    )
    assert partial.stream_ids == ("p0", "p1", "p2")
    assert partial.stream_set_id == stream_set_hash(["p0", "p1", "p2"])
    opened = apply_token(
        merged, partial, stream_set_id=stream_set_hash(["p0", "p1", "p2"])
    )
    assert opened == [1 + 3 + 10 + 30 + 100 + 300, 2 + 4 + 20 + 40 + 200 + 400]


def test_partial_combination_rejects_mismatches():
    m0, m1 = master("a"), master("b")
    t0 = single_stream_token(m0, (0, 2), [release(), release()])
    with pytest.raises(ValueError, match="at least one token"):
        multi_stream_partial([])
    with pytest.raises(ValueError, match="different windows"):
        multi_stream_partial(
            [t0, single_stream_token(m1, (0, 3), [release(), release()])]
        )
    with pytest.raises(ValueError, match="different element patterns"):
        multi_stream_partial(
            [t0, single_stream_token(m1, (0, 2), [release(), withhold()])]
        )
    with pytest.raises(ValueError, match="overlap"):
        multi_stream_partial(
            [t0, single_stream_token(m0, (0, 2), [release(), release()])]
        )
    bare = deserialize_token(serialize_token(t0))
    with pytest.raises(ValueError, match="explicit stream ids"):
        multi_stream_partial([bare])


# ---- privacy budget -------------------------------------------------------------


def test_budget_charges_exactly_k_times():
    budget = PrivacyBudget(1.0)
    assert all(budget.charge(0.1) for _ in range(10))
    assert not budget.charge(0.1)
    assert budget.epsilon_spent == pytest.approx(1.0)
    assert budget.remaining == pytest.approx(0.0, abs=1e-9)


def test_budget_can_charge_predicts_charge_without_spending():
    budget = PrivacyBudget(0.3)
    for _ in range(3):
        assert budget.can_charge(0.1)
        assert budget.can_charge(0.1)  # asking twice spends nothing
        assert budget.charge(0.1)
    assert not budget.can_charge(0.1)
    assert not budget.charge(0.1)
    assert budget.epsilon_spent == pytest.approx(0.3)
    with pytest.raises(ValueError, match="positive"):
        budget.can_charge(0)


def test_budget_rejects_nonpositive_costs():
    budget = PrivacyBudget(1.0)
    with pytest.raises(ValueError, match="positive"):
        budget.charge(0)
    with pytest.raises(ValueError, match="positive"):
        budget.charge(-0.5)
    with pytest.raises(ValueError, match="non-negative"):
        PrivacyBudget(-1)


def test_budget_is_atomic_under_contention():
    budget = PrivacyBudget(5.0)
    hits = []

    def worker():
        if budget.charge(0.1):
            hits.append(1)

    threads = [threading.Thread(target=worker) for _ in range(100)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(hits) == 50
    assert budget.epsilon_spent <= budget.epsilon_total + 1e-9


# ---- dp noise on tokens ----------------------------------------------------------


def dp_fixture():
    m = master("dp")
    token = single_stream_token(m, (0, 2), [release(), release(), release()])
    noise = NoiseSpec(sigma_target=50.0, honest_fraction=1.0, party_count=1)
    return m, token, noise


def test_dp_noise_marks_token_and_shifts_elements():
    m, token, noise = dp_fixture()
    budget = PrivacyBudget(1.0)
    rng = np.random.default_rng(5)
    noised = add_dp_noise(token, noise, budget, 0.5, rng)
    assert isinstance(noised, TransformationToken)
    assert noised.noised and not token.noised
    assert budget.epsilon_spent == pytest.approx(0.5)
    etas = np.random.default_rng(5).normal(0.0, noise.per_party_sigma, size=3)
    for i, eta in zip(token.indices, etas):
        assert noised.elements[i] == (token.elements[i] + round(float(eta))) % M


def test_dp_noise_refuses_double_noising():
    _, token, noise = dp_fixture()
    budget = PrivacyBudget(10.0)
    noised = add_dp_noise(token, noise, budget, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="already carries noise"):
        add_dp_noise(noised, noise, budget, 1.0, np.random.default_rng(1))


def test_exhausted_budget_suppresses_without_spending():
    _, token, noise = dp_fixture()
    budget = PrivacyBudget(1.0)
    assert budget.charge(0.8)
    out = add_dp_noise(token, noise, budget, 0.5, np.random.default_rng(0))
    assert isinstance(out, Suppressed)
    assert out.reason == "epsilon budget exhausted"
    assert out.epsilon_requested == 0.5
    assert out.epsilon_remaining == pytest.approx(0.2)
    assert budget.epsilon_spent == pytest.approx(0.8)  # refusal left it untouched
    with pytest.raises(ValueError, match="positive"):
        add_dp_noise(token, noise, budget, 0, np.random.default_rng(0))


def test_dp_noise_std_tracks_per_party_sigma():
    m = master("std")
    token = single_stream_token(m, (0, 1), [release()])
    noise = NoiseSpec(sigma_target=80.0, honest_fraction=0.25, party_count=16)
    # per-party sigma = 80 / sqrt(4) = 40
    budget = PrivacyBudget(10_000.0)
    rng = np.random.default_rng(17)
    deltas = []
    for _ in range(4000):
        noised = add_dp_noise(token, noise, budget, 1e-3, rng)
        d = (noised.elements[0] - token.elements[0]) % M
        deltas.append(d - M if d > M // 2 else d)
    observed = np.std(deltas)
    assert observed == pytest.approx(40.0, rel=0.08)


# ---- token store ------------------------------------------------------------------


def test_store_builds_once_per_key_and_window():
    m = master("store")
    store = TokenStore()
    calls = []

    def build():
        calls.append(1)
        return single_stream_token(m, (0, 2), [release()])

    t1 = store.emit("query-1", (0, 2), build)
    t2 = store.emit("query-1", (0, 2), build)
    assert t1 is t2
    assert len(calls) == 1
    store.emit("query-1", (2, 4), lambda: single_stream_token(m, (2, 4), [release()]))
    store.emit("query-2", (0, 2), build)
    assert len(store) == 3


def test_store_rejects_builder_window_mismatch():
    store = TokenStore()
    with pytest.raises(ValueError, match="does not match requested window"):
        store.emit(
            "k", (0, 5), lambda: single_stream_token(master("w"), (0, 2), [release()])
        )


# ---- wire format --------------------------------------------------------------------


def test_token_wire_roundtrip_and_size():
    m = master("wire")
    directives = [release(), withhold(), release(), release()]
    token = single_stream_token(m, (3, 9), directives)
    data = serialize_token(token)
    assert len(data) == token.wire_size() == 48 + 10 * 3
    back = deserialize_token(data, noised=False)
    assert (back.window_start, back.window_end) == (3, 9)
    assert back.stream_set_id == token.stream_set_id
    assert dict(back.elements) == dict(token.elements)
    assert back.stream_ids is None  # provenance stays off the wire


def struct_serialize(token: TransformationToken) -> bytes:
    """The per-element `struct` encoder the array encoder replaced (oracle)."""
    out = bytearray(struct.pack("<QQ", token.window_start, token.window_end))
    out += token.stream_set_id
    for idx in token.indices:
        out += struct.pack("<HQ", idx, token.elements[idx])
    return bytes(out)


@settings(max_examples=60, deadline=None)
@given(
    elements=st.dictionaries(
        st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 64) - 1), min_size=1, max_size=60
    ),
    window_start=st.integers(0, (1 << 64) - 2),
    nonce_seed=st.integers(0, 2**32 - 1),
)
def test_token_wire_bytes_match_the_struct_encoder(elements, window_start, nonce_seed):
    token = TransformationToken(
        window_start=window_start,
        window_end=window_start + 1,
        stream_set_id=bytes(range(32)),
        elements=elements,
    )
    assert serialize_token(token) == struct_serialize(token)
    nonces = np.random.default_rng(nonce_seed).integers(
        0, 1 << 64, size=len(elements), dtype=np.uint64
    )
    party = PartyId(bytes(31) + b"\x07")
    masked = mask_token(token, nonces, round_index=3, epoch_id=9, party=party)
    blinded = {
        i: (elements[i] + int(v)) % M for i, v in zip(sorted(elements), nonces)
    }
    assert dict(masked.payload.elements) == blinded
    assert masked.serialize() == (
        struct.pack("<QQ", 3, 9) + party.value + struct_serialize(masked.payload)
    )


def test_token_wire_rejects_malformed_data():
    m = master("bad")
    data = serialize_token(single_stream_token(m, (0, 1), [release()]))
    with pytest.raises(ValueError, match="malformed"):
        deserialize_token(data[:-1])
    with pytest.raises(ValueError, match="malformed"):
        deserialize_token(data[:47])
    dup = data + data[48:58]
    with pytest.raises(ValueError, match="duplicate element index"):
        deserialize_token(dup)


def test_token_wire_rejects_oversized_indices():
    for elements in ({1 << 16: 5}, {3: 1, 1 << 16: 5, (1 << 16) + 1: 6}):
        token = TransformationToken(
            window_start=0,
            window_end=1,
            stream_set_id=bytes(32),
            elements=elements,
        )
        with pytest.raises(ValueError, match=f"index {1 << 16} exceeds 16 bits"):
            serialize_token(token)


def test_token_dataclass_validation():
    with pytest.raises(ValueError, match="non-empty"):
        TransformationToken(2, 2, bytes(32), {0: 1})
    with pytest.raises(ValueError, match="32 bytes"):
        TransformationToken(0, 1, b"short", {0: 1})
    with pytest.raises(ValueError, match="at least one element"):
        TransformationToken(0, 1, bytes(32), {})
    with pytest.raises(ValueError, match="negative element index"):
        TransformationToken(0, 1, bytes(32), {-1: 5})
