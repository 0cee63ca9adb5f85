"""Transformation tokens checked against plaintext transformations.

The core property: applying a token to the equally reshaped aggregate
ciphertext must equal running the directives on the plaintext sums.
"""

import hashlib
import math
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veilstream import ring
from veilstream.ring import (
    MODULUS_DEFAULT,
    AesPrf,
    CounterPrf,
    CountingPrf,
    MasterSecret,
    StreamCiphertext,
    ZeroPrf,
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
    TransformationToken,
    add_dp_noise,
    deserialize_token,
    merge,
    multi_stream_partial,
    noise_normals,
    output_layout,
    perturb,
    release,
    serialize_token,
    shift,
    single_stream_token,
    stream_set_hash,
    token_matrix,
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
    elements = []
    noised = False
    for sources in output_layout(directives):
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
        elements.append(acc)
    return tuple(elements), noised


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
    streams=st.integers(1, 3),
)
def test_token_matches_the_per_element_loop(
    directives, t_start, length, prf_kind, scale, seed, prebuilt, streams
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
    assert token.elements == elements
    assert all(type(v) is int for v in token.elements)
    assert token.noised == noised
    # the same noise draws, in the same output order
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    # a batch of streams equals one loop per stream, drawing noise stream
    # after stream from the shared rng
    masters = [master(f"oracle{i}") for i in range(streams)]
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    values = token_matrix(
        masters, window, directives, layout=layout, prf=prf, scale=scale, rng=rng
    )
    assert values.dtype == np.uint64
    assert values.shape == (streams, len(elements))
    assert prf.calls == 2 * sources * (1 + streams)
    for m, row in zip(masters, values.tolist(), strict=True):
        elements, _ = loop_token(
            m, window, directives, prf=prf.inner, scale=scale, rng=oracle_rng
        )
        assert tuple(row) == elements
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_single_stream_token_is_the_one_row_matrix():
    m = master("row")
    noise = NoiseSpec(sigma_target=5.0, honest_fraction=1.0, party_count=1)
    plain = [release(), merge("g"), merge("g"), withhold()]
    token = single_stream_token(m, (4, 9), plain)
    (row,) = token_matrix([m], (4, 9), plain).tolist()
    assert token.elements == tuple(row)
    assert (token.window_start, token.window_end) == (4, 9)
    assert token.stream_set_id == stream_set_hash(["row"])
    assert token.stream_ids == ("row",)
    assert not token.noised
    noisy = single_stream_token(
        m, (4, 9), [release(), perturb(noise)], rng=np.random.default_rng(3)
    )
    assert noisy.noised


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
    # refused with merge_elements' wording, the first problem in layout order
    with pytest.raises(ValueError, match="output element 1 has no sources"):
        TokenLayout.build(directives, ((0,), (), (9,)))
    with pytest.raises(ValueError, match="source index 0 used twice"):
        TokenLayout.build(directives, ((0,), (0,)))


@settings(max_examples=40, deadline=None)
@given(
    directives=st.lists(
        st.one_of(st.just(release()), st.just(withhold()), st.sampled_from("ab").map(merge)),
        min_size=1,
        max_size=12,
    ).filter(lambda ds: any(d.action != "withhold" for d in ds)),
    seed=st.integers(0, 2**32 - 1),
)
def test_merge_elements_takes_a_token_layout_for_its_layout(directives, seed):
    body = np.random.default_rng(seed).integers(0, M, size=len(directives), dtype=np.uint64)
    ct = StreamCiphertext(0, 5, body)
    layout = TokenLayout.build(directives)
    merged = merge_elements(ct, layout)
    assert merged.body.tolist() == merge_elements(ct, output_layout(directives)).body.tolist()
    assert (merged.t_prev, merged.t_curr) == (0, 5)
    wider = StreamCiphertext(0, 5, np.append(body, np.uint64(1)))
    with pytest.raises(ValueError, match=f"layout width {len(body)} != ciphertext width"):
        merge_elements(wider, layout)


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
    with pytest.raises(ValueError, match="different widths"):
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
    for i, eta in enumerate(etas):
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


def noise_keys(n: int) -> np.ndarray:
    keys = b"".join(hashlib.sha256(b"noise-key%d" % i).digest()[:16] for i in range(n))
    return np.frombuffer(keys, np.uint8).reshape(n, 16)


def test_noise_normals_rows_do_not_depend_on_the_batch(monkeypatch):
    keys = noise_keys(9)
    whole = noise_normals(keys, 7, 5)
    assert whole.shape == (9, 5)
    pick = np.random.default_rng(0)
    for size in (1, 2, 4, 9):
        rows = pick.permutation(9)[:size]
        assert np.array_equal(noise_normals(keys[rows], 7, 5), whole[rows])
    # two keys a call: the batch spans five calls
    monkeypatch.setattr(ring, "BATCH_BLOCKS", 6)
    assert np.array_equal(noise_normals(keys, 7, 5), whole)


def test_noise_normals_change_with_the_window_and_the_key():
    keys = noise_keys(4)
    z = noise_normals(keys, 3, 6)
    assert not np.any(z == noise_normals(keys, 4, 6))
    assert not np.any(z[0] == noise_normals(keys[1:2], 3, 6))
    # an odd width drops the last block's low lane
    assert np.array_equal(noise_normals(keys, 3, 5), z[:, :5])


def test_noise_normals_cost_a_block_per_two_lanes():
    prf = CountingPrf(AesPrf())
    for members, width in ((1, 1), (3, 2), (5, 7), (0, 4)):
        before = prf.calls
        assert noise_normals(noise_keys(members), 1, width, prf=prf).shape == (members, width)
        assert prf.calls - before == members * ((width + 1) // 2)


def test_noise_normals_are_finite_when_every_word_is_zero():
    # every uniform is 2**-53: the largest radius, at angle about 0
    z = noise_normals(noise_keys(3), 0, 5, prf=ZeroPrf())
    radius = math.sqrt(106 * math.log(2))
    assert np.all(np.isfinite(z))
    assert z[:, 0::2] == pytest.approx(radius)
    assert np.all(np.abs(z[:, 1::2]) < 1e-12)


def test_noise_normals_are_standard_normal():
    from scipy import stats

    z = noise_normals(noise_keys(500), 11, 200).ravel()
    assert stats.kstest(z, "norm").pvalue > 0.01
    # the lanes of one block, and neighbouring blocks, are uncorrelated
    pairs = noise_normals(noise_keys(50_000), 11, 4)
    assert np.all(np.abs(np.corrcoef(pairs.T) - np.eye(4)) < 0.02)


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
    assert back.elements == token.elements
    assert back.stream_ids is None  # provenance stays off the wire


def struct_serialize(token: TransformationToken) -> bytes:
    """The per-element `struct` encoder the array encoder replaced (oracle)."""
    out = bytearray(struct.pack("<QQ", token.window_start, token.window_end))
    out += token.stream_set_id
    for idx, value in enumerate(token.elements):
        out += struct.pack("<HQ", idx, value)
    return bytes(out)


@settings(max_examples=60, deadline=None)
@given(
    elements=st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=60),
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
    blinded = tuple((e + int(v)) % M for e, v in zip(elements, nonces))
    assert tuple(masked.elements[0].tolist()) == blinded
    payload = TransformationToken(window_start, window_start + 1, bytes(range(32)), blinded)
    assert masked.serialize() == (
        struct.pack("<QQ", 3, 9) + party.value + struct_serialize(payload)
    )


def test_token_wire_rejects_malformed_data():
    m = master("bad")
    data = serialize_token(single_stream_token(m, (0, 1), [release()]))
    with pytest.raises(ValueError, match="malformed"):
        deserialize_token(data[:-1])
    with pytest.raises(ValueError, match="malformed"):
        deserialize_token(data[:47])
    head = data[:48]
    # the index column must read 0..n-1: no gap, duplicate or reordering
    for indices in ((1,), (0, 0), (1, 0)):
        bad = head + b"".join(struct.pack("<HQ", i, 5) for i in indices)
        with pytest.raises(ValueError, match=r"0\.\.n-1"):
            deserialize_token(bad)


def test_token_wire_rejects_oversized_indices():
    token = TransformationToken(
        window_start=0,
        window_end=1,
        stream_set_id=bytes(32),
        elements=(0,) * ((1 << 16) + 1),
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
    with pytest.raises(ValueError, match=r"exactly 0\.\.n-1"):
        TransformationToken(0, 1, bytes(32), {0: 1, 2: 3})
    # a mapping keyed 0..n-1 becomes the dense tuple
    assert TransformationToken(0, 1, bytes(32), {1: 7, 0: 5}).elements == (5, 7)


def test_token_refuses_elements_outside_the_ring():
    for elements in ((-1, 1 << 64), (0, 1 << 64), (-1,)):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            TransformationToken(0, 1, bytes(32), elements)
    edge = TransformationToken(0, 1, bytes(32), (0, (1 << 64) - 1))
    assert deserialize_token(serialize_token(edge)).elements == edge.elements
