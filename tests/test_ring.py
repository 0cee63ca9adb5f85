"""Cipher-layer tests: PRF correctness, chaining algebra, wire format."""

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from veilstream.ring import (
    DOMAIN_KEYSTREAM,
    DOMAIN_SELECT,
    MODULUS_DEFAULT,
    AesPrf,
    ChainEncryptor,
    CounterPrf,
    CountingPrf,
    MasterSecret,
    SplitMixPrf,
    StreamCiphertext,
    TokenMismatchError,
    ZeroPrf,
    add_ciphertexts,
    apply_token,
    chain_sum,
    cross_sum,
    decrypt_window,
    derive_key,
    deserialize_event,
    encrypt,
    merge_elements,
    prf_input,
    serialize_event,
)

M = MODULUS_DEFAULT
AES = AesPrf()


def master(tag: str = "s") -> MasterSecret:
    return MasterSecret(tag.encode().ljust(16, b"\x00"), tag)


# ---- PRF layer ---------------------------------------------------------------


def test_aes_prf_matches_direct_library_call():
    """Oracle: the PRF must be plain AES-128-ECB on the input block."""
    key = bytes(range(16))
    for msg in (b"\x00" * 16, bytes(range(16)), b"\xff" * 16):
        enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
        expected = int.from_bytes(enc.update(msg) + enc.finalize(), "big")
        assert AesPrf().evaluate(key, msg) == expected


def test_aes_prf_batch_matches_single_calls():
    key = b"\x07" * 16
    blocks = [prf_input(DOMAIN_KEYSTREAM, j, 42) for j in range(5)]
    out = AES.evaluate_batch(key, b"".join(blocks))
    assert len(out) == 16 * 5
    for j, block in enumerate(blocks):
        assert int.from_bytes(out[16 * j : 16 * (j + 1)], "big") == AES.evaluate(
            key, block
        )


def test_prf_input_packing():
    data = prf_input(3, 5, 9)
    assert len(data) == 16
    assert data == (3 << 56 | 5).to_bytes(8, "big") + (9).to_bytes(8, "big")
    with pytest.raises(ValueError):
        prf_input(1, 1 << 56, 0)
    with pytest.raises(ValueError):
        prf_input(1, 0, 1 << 64)


def test_prf_uniformity_chi_squared():
    """Low byte of AES outputs over distinct inputs should look uniform."""
    key = b"\xa5" * 16
    draws = [AES.evaluate(key, prf_input(1, 0, t)) & 0xFF for t in range(8192)]
    counts = np.bincount(draws, minlength=256)
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_splitmix_vectorized_matches_scalar():
    prf = SplitMixPrf()
    keys = [bytes([i]) * 16 for i in range(1, 9)]
    seeds = np.array([prf.seed_of(k) for k in keys], dtype=np.uint64)
    for r in (0, 1, 255, 1 << 50):
        msg = prf_input(DOMAIN_SELECT, 0, r)
        hi, lo = SplitMixPrf.evaluate_seeds(seeds, msg)
        for i, k in enumerate(keys):
            assert (int(hi[i]) << 64) | int(lo[i]) == prf.evaluate(k, msg)


def test_counting_prf_counts_blocks():
    prf = CountingPrf(ZeroPrf())
    prf.evaluate(b"k" * 16, b"\x00" * 16)
    prf.evaluate_batch(b"k" * 16, b"\x00" * 48)
    assert prf.calls == 4


# ---- keystream and single events ---------------------------------------------


def test_counter_prf_hand_vector():
    """With the arithmetic stub, key(t)[j] = 1000t + j, checkable by hand."""
    m = master()
    prf = CounterPrf()
    ct = encrypt(m, 0, 1, [5], prf=prf)
    assert list(ct.body) == [1005]
    assert list(decrypt_window(m, 0, 1, ct, prf=prf)) == [5]

    e2 = encrypt(m, 1, 2, [7], prf=prf)
    assert list(e2.body) == [1007]
    window = chain_sum([ct, e2])
    assert (window.t_prev, window.t_curr) == (0, 2)
    assert list(window.body) == [2012]
    assert list(decrypt_window(m, 0, 2, window, prf=prf)) == [12]


def test_derive_key_width_and_domain():
    m = master()
    k = derive_key(m, 9, 4)
    assert k.shape == (4,) and k.dtype == np.uint64
    # element j comes from PRF input (keystream domain, j, t)
    expected = AES.evaluate(m.key, prf_input(DOMAIN_KEYSTREAM, 2, 9)) & (M - 1)
    assert int(k[2]) == expected


def test_derive_key_on_selected_elements():
    m = master("sel")
    full = derive_key(m, 41, 50)
    prf = CountingPrf(AES)
    for idx in ([7], [49, 0, 7, 7, 23], np.arange(50)[::-3], np.array([], dtype=np.intp)):
        before = prf.calls
        part = derive_key(m, 41, 50, elements=np.asarray(idx), prf=prf)
        assert prf.calls - before == len(idx)
        assert part.dtype == np.uint64
        assert part.tolist() == full[np.asarray(idx, dtype=np.intp)].tolist()
    for bad in ([50], [-1], [3, 50], [0.0], [[1]]):
        with pytest.raises(ValueError, match="elements"):
            derive_key(m, 41, 50, elements=np.asarray(bad), prf=prf)


def test_encrypt_decrypt_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        width = int(rng.integers(1, 9))
        msg = [int(v) for v in rng.integers(0, 1 << 63, width)]
        t0 = int(rng.integers(0, 1000))
        t1 = t0 + int(rng.integers(1, 50))
        ct = encrypt(master("r"), t0, t1, msg)
        assert list(decrypt_window(master("r"), t0, t1, ct)) == msg


def test_negative_values_roundtrip_as_ring_complements():
    ct = encrypt(master(), 3, 4, [-250])
    out = decrypt_window(master(), 3, 4, ct)
    assert int(out[0]) == M - 250


def test_decrypt_with_wrong_window_garbles():
    msg = [1234]
    ct = encrypt(master(), 0, 1, msg)
    assert list(decrypt_window(master(), 0, 2, ct)) != msg
    assert list(decrypt_window(master("other"), 0, 1, ct)) != msg


def test_encrypt_rejects_bad_clocks():
    with pytest.raises(ValueError):
        encrypt(master(), 5, 5, [1])
    with pytest.raises(ValueError):
        encrypt(master(), 5, 4, [1])
    with pytest.raises(ValueError):
        StreamCiphertext(-1, 2, np.zeros(1, dtype=np.uint64))


# ---- chained sums -------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    msgs=st.lists(
        st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=2, max_size=2),
        min_size=1,
        max_size=8,
    ),
    gaps=st.lists(st.integers(min_value=1, max_value=7), min_size=8, max_size=8),
    start=st.integers(min_value=0, max_value=1 << 30),
)
def test_chain_sum_telescopes(msgs, gaps, start):
    """Summing a chain reveals exactly the element-wise message sum."""
    m = master("tele")
    times = [start]
    for g in gaps[: len(msgs)]:
        times.append(times[-1] + g)
    cts = [
        encrypt(m, times[i], times[i + 1], msg) for i, msg in enumerate(msgs)
    ]
    window = chain_sum(cts)
    assert (window.t_prev, window.t_curr) == (times[0], times[len(msgs)])
    got = decrypt_window(m, times[0], times[len(msgs)], window)
    for j in range(2):
        assert int(got[j]) == sum(msg[j] for msg in msgs) % M


def test_chain_gap_raises():
    m = master()
    a = encrypt(m, 0, 1, [1])
    c = encrypt(m, 2, 3, [1])
    with pytest.raises(ValueError, match="gap"):
        chain_sum([a, c])
    with pytest.raises(ValueError):
        chain_sum([])


def test_chain_encryptor_matches_stateless_and_tracks_clock():
    m = master("chain")
    enc = ChainEncryptor(m, 2)
    assert enc.clock == 0
    c1 = enc.encrypt_next(2, [10, 20])
    c2 = enc.encrypt_next(5, [30, 40])
    assert enc.clock == 5
    assert np.array_equal(c1.body, encrypt(m, 0, 2, [10, 20]).body)
    assert np.array_equal(c2.body, encrypt(m, 2, 5, [30, 40]).body)
    with pytest.raises(ValueError):
        enc.encrypt_next(5, [0, 0])
    with pytest.raises(ValueError):
        enc.encrypt_next(9, [1, 2, 3])


def test_chain_encryptor_nonzero_start():
    m = master("late")
    enc = ChainEncryptor(m, 1, start=7)
    ct = enc.encrypt_next(9, [3])
    assert np.array_equal(ct.body, encrypt(m, 7, 9, [3]).body)


def test_add_ciphertexts_parallel_same_range():
    a = encrypt(master("a"), 4, 8, [100])
    b = encrypt(master("b"), 4, 8, [11])
    both = add_ciphertexts(a, b)
    assert (both.t_prev, both.t_curr) == (4, 8)
    assert int(both.body[0]) == (int(a.body[0]) + int(b.body[0])) % M
    with pytest.raises(ValueError, match="neither chain nor share"):
        add_ciphertexts(a, encrypt(master("b"), 5, 8, [1]))


def test_cross_sum_requires_equal_ranges():
    streams = [master(f"s{i}") for i in range(3)]
    cts = [encrypt(s, 0, 4, [i, 2 * i]) for i, s in enumerate(streams)]
    agg = cross_sum(cts)
    expected = [
        sum(int(ct.body[j]) for ct in cts) % M for j in range(2)
    ]
    assert [int(v) for v in agg.body] == expected
    with pytest.raises(ValueError, match="equal ranges"):
        cross_sum([cts[0], encrypt(streams[0], 1, 4, [1, 1])])
    with pytest.raises(ValueError):
        cross_sum([])


# ---- reshaping and token application ------------------------------------------


def test_merge_elements_sums_groups_without_warnings():
    body = np.array([(1 << 63) + 5, (1 << 63) + 7, 9, 10], dtype=np.uint64)
    ct = StreamCiphertext(0, 1, body)
    with np.errstate(over="raise"):
        out = merge_elements(ct, [(0, 1), (3,)])
    assert int(out.body[0]) == ((1 << 63) + 5 + (1 << 63) + 7) % M
    assert int(out.body[1]) == 10
    assert out.width == 2


def test_merge_elements_rejects_bad_layouts():
    ct = StreamCiphertext(0, 1, np.arange(3, dtype=np.uint64))
    with pytest.raises(ValueError, match="twice"):
        merge_elements(ct, [(0, 1), (1,)])
    with pytest.raises(ValueError, match="no sources"):
        merge_elements(ct, [()])
    with pytest.raises(ValueError, match="outside"):
        merge_elements(ct, [(5,)])


def test_apply_token_window_and_set_guards():
    from veilstream.tokens import single_stream_token, release, stream_set_hash

    m = master("tok")
    ct = chain_sum([encrypt(m, 0, 1, [50]), encrypt(m, 1, 2, [60])])
    token = single_stream_token(m, (0, 2), [release()])
    out = apply_token(ct, token, stream_set_id=stream_set_hash([m.stream_id]))
    assert out == [110]

    with pytest.raises(TokenMismatchError, match="window"):
        apply_token(encrypt(m, 0, 1, [50]), token)
    with pytest.raises(TokenMismatchError, match="stream set"):
        apply_token(ct, token, stream_set_id=stream_set_hash(["someone-else"]))


def test_apply_token_withholds_elements():
    from veilstream.tokens import (
        TransformationToken,
        output_layout,
        release,
        single_stream_token,
        stream_set_hash,
        withhold,
    )

    m = master("wh")
    ct = encrypt(m, 0, 3, [7, 8, 9])
    directives = [withhold(), release(), withhold()]
    token = single_stream_token(m, (0, 3), directives)
    # The token only carries the released outputs; the server reshapes the
    # aggregate to the same layout before combining.
    merged = merge_elements(ct, output_layout(directives))
    assert apply_token(merged, token) == [8]

    # A token with a sparse element map leaves the uncovered slots closed.
    k0 = derive_key(m, 0, 3)
    k3 = derive_key(m, 3, 3)
    corr = (int(k0[1]) - int(k3[1])) % MODULUS_DEFAULT
    sparse = TransformationToken(
        window_start=0,
        window_end=3,
        stream_set_id=stream_set_hash([m.stream_id]),
        elements={1: corr},
        noised=False,
        stream_ids=(m.stream_id,),
    )
    assert apply_token(ct, sparse) == [None, 8, None]


# ---- wire format ---------------------------------------------------------------


def test_serialize_event_roundtrip_and_size():
    ct = encrypt(master("wire"), 3, 9, [1, 2, 3, 4])
    data = serialize_event(ct)
    assert len(data) == ct.wire_size() == 16 + 8 * 4
    back = deserialize_event(data)
    assert (back.t_prev, back.t_curr) == (3, 9)
    assert np.array_equal(back.body, ct.body)


def test_deserialize_event_rejects_malformed():
    with pytest.raises(ValueError):
        deserialize_event(b"\x00" * 16)  # no elements
    with pytest.raises(ValueError):
        deserialize_event(b"\x00" * 27)  # ragged tail
