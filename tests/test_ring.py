"""Cipher-layer tests: PRF correctness, chaining algebra, wire format."""

import tracemalloc

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from veilstream.ring import (
    DOMAIN_KEYSTREAM,
    DOMAIN_SELECT,
    FEW_BLOCKS,
    FIXED_AES_KEY,
    MODULUS_DEFAULT,
    AesPrf,
    ChainEncryptor,
    CounterPrf,
    CountingPrf,
    MasterSecret,
    StreamCiphertext,
    TokenMismatchError,
    ZeroPrf,
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
    """Oracle: F_k(x) = pi(k ^ x) ^ k ^ x, where pi is AES-128-ECB under the
    public key 243f6a88..., computed block by block with the library."""
    pi_key = bytes.fromhex("243f6a8885a308d313198a2e03707344")
    for key in (bytes(16), bytes(range(16)), b"\xa5" * 16):
        for msg in (b"\x00" * 16, bytes(range(16)), b"\xff" * 16):
            whitened = bytes(a ^ b for a, b in zip(key, msg))
            enc = Cipher(algorithms.AES(pi_key), modes.ECB()).encryptor()
            permuted = enc.update(whitened) + enc.finalize()
            expected = bytes(a ^ b for a, b in zip(permuted, whitened))
            assert AesPrf().evaluate_batch(key, msg).tobytes() == expected


def test_aes_prf_batch_matches_single_calls():
    key = b"\x07" * 16
    blocks = [prf_input(DOMAIN_KEYSTREAM, j, 42) for j in range(5)]
    out = AES.evaluate_batch(key, b"".join(blocks)).tobytes()
    assert len(out) == 16 * 5
    for j, block in enumerate(blocks):
        assert out[16 * j : 16 * (j + 1)] == AES.evaluate_batch(key, block).tobytes()


@pytest.mark.parametrize(
    "make", [AesPrf, lambda: CountingPrf(AesPrf()), CounterPrf, ZeroPrf],
    ids=["aes", "counting", "counter", "zero"],
)
def test_multi_key_batch_equals_per_block_single_key_calls(make):
    prf = make()
    keys = [bytes([i]) * 16 for i in range(7)]
    blocks = [prf_input(DOMAIN_KEYSTREAM, j, 1 << 40 | j) for j in range(7)]
    out = prf.evaluate_batch(b"".join(keys), b"".join(blocks)).tobytes()
    assert out == b"".join(prf.evaluate_batch(k, m).tobytes() for k, m in zip(keys, blocks))
    if isinstance(prf, CountingPrf):
        assert prf.calls == 7 + 7  # blocks, not calls
    if isinstance(prf, AesPrf):
        # distinct keys on equal inputs give distinct outputs
        same = prf.evaluate_batch(b"".join(keys), blocks[0] * 7).tobytes()
        assert len({same[16 * i : 16 * (i + 1)] for i in range(7)}) == 7


def library_outputs(keys: bytes, msgs: bytes) -> bytes:
    """F_k(x) block by block through a fresh library context, block i of
    the n blocks under key i // (n / k) of the k keys."""
    enc = Cipher(algorithms.AES(FIXED_AES_KEY), modes.ECB()).encryptor()
    blocks = len(msgs) // 16
    run = blocks // (len(keys) // 16) if blocks else 1
    out = []
    for i in range(blocks):
        key = keys[16 * (i // run) : 16 * (i // run + 1)]
        whitened = bytes(a ^ b for a, b in zip(key, msgs[16 * i : 16 * (i + 1)]))
        out.append(bytes(a ^ b for a, b in zip(enc.update(whitened), whitened)))
    return b"".join(out)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 5), run=st.integers(0, 9), arrays=st.booleans(), data=st.data())
def test_aes_prf_runs_of_keys_equal_the_per_block_library_computation(k, run, arrays, data):
    keys = data.draw(st.binary(min_size=16 * k, max_size=16 * k))
    msgs = data.draw(st.binary(min_size=16 * k * run, max_size=16 * k * run))
    expected = library_outputs(keys, msgs)
    if arrays:
        args = (np.frombuffer(keys, np.uint8).reshape(k, 16), np.frombuffer(msgs, np.uint8))
    else:
        args = (keys, msgs)
    # the shared instance holds buffers sized by earlier calls
    for prf in (AES, AesPrf()):
        out = prf.evaluate_batch(*args)
        assert out.dtype == np.dtype(">u8") and out.shape == (k * run, 2)
        assert out.tobytes() == expected


@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(0, 40), min_size=2, max_size=5), data=st.data())
def test_an_earlier_result_is_unchanged_or_shares_a_later_ones_buffer(sizes, data):
    """A result may be a view of the buffer the next call writes, so a
    caller reads it before that call; otherwise it is left as it was."""
    prf = AesPrf()
    results = []
    for i, blocks in enumerate(sizes):
        msgs = data.draw(st.binary(min_size=16 * blocks, max_size=16 * blocks))
        out = prf.evaluate_batch(bytes([i]) * 16, msgs)
        assert out.tobytes() == library_outputs(bytes([i]) * 16, msgs)
        results.append((out, out.tobytes()))
    for i, (out, kept) in enumerate(results):
        assert out.tobytes() == kept or any(
            np.shares_memory(out, later) for later, _ in results[i + 1 :]
        )


# 64-bit words that read as signalling and quiet NaNs, infinity and -0.0
# when viewed as doubles: the keys are copied as 16-byte items, never as floats
ODD_WORDS = [0x7FF0000000000001, 0xFFF8000000000001, 0x7FF0000000000000, 1 << 63]


@pytest.mark.parametrize("form", ["bytes", "memoryview", "offset slice"])
def test_multi_key_whitening_equals_per_key_calls(form):
    rng = np.random.default_rng(3)
    odd = np.array(ODD_WORDS, dtype="<u8").view(np.uint8)
    raw = np.concatenate([odd, rng.integers(0, 256, 16 * 4, dtype=np.uint8)])  # 6 keys
    run = FEW_BLOCKS + 5
    msgs = rng.integers(0, 256, 16 * 6 * run, dtype=np.uint8).tobytes()
    if form == "bytes":
        keys = raw.tobytes()
    elif form == "memoryview":
        keys = memoryview(raw.tobytes())
    else:  # starts 3 bytes into its buffer, so it is not 16-byte aligned
        keys = np.concatenate([np.zeros(3, np.uint8), raw])[3:]
        assert keys.ctypes.data % 16
    out = AesPrf().evaluate_batch(keys, msgs).tobytes()
    assert out == library_outputs(raw.tobytes(), msgs)
    # each result is read before the next call reuses its buffer
    size = 16 * run
    per_key = b"".join(
        AES.evaluate_batch(raw[16 * i : 16 * (i + 1)], msgs[size * i : size * (i + 1)]).tobytes()
        for i in range(6)
    )
    assert out == per_key


def test_one_key_calls_of_few_blocks_equal_a_key_per_block():
    key, prf = bytes(range(16)), AesPrf()
    for blocks in range(FEW_BLOCKS + 3):
        msgs = bytes(range(256))[: 16 * blocks] if blocks <= 16 else bytes(16 * blocks)
        one = prf.evaluate_batch(key, msgs)
        assert one.dtype == np.dtype(">u8") and one.shape == (blocks, 2) and one.flags.writeable
        assert one.tobytes() == prf.evaluate_batch(key * blocks, msgs).tobytes()
        assert one.tobytes() == library_outputs(key, msgs)


def test_a_warm_multi_key_call_allocates_no_block_sized_buffer():
    """The held buffers fit a repeated call, so it allocates only its array
    headers: far less than one of its 28,680 x 16-byte buffers."""
    prf = AesPrf()
    keys = np.arange(6 * 16, dtype=np.uint8).reshape(6, 16)
    msgs = bytes(16 * 28_680)
    prf.evaluate_batch(keys, msgs)  # warm: the buffers grow to fit
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        prf.evaluate_batch(keys, msgs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024, f"a warm call allocated {peak} bytes"


SMALL_WIDE = st.tuples(st.integers(0, (1 << 56) - 1), st.integers(0, (1 << 64) - 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(SMALL_WIDE, max_size=6))
def test_counter_prf_is_1000_wide_plus_small_in_128_bits(blocks):
    msgs = b"".join(prf_input(DOMAIN_KEYSTREAM, small, wide) for small, wide in blocks)
    out = CounterPrf().evaluate_batch(b"k" * 16, msgs)
    expected = (1000 * wide + small for small, wide in blocks)
    assert out.tobytes() == b"".join(v.to_bytes(16, "big") for v in expected)


@pytest.mark.parametrize("prf", [AesPrf(), CountingPrf(AesPrf()), CounterPrf(), ZeroPrf()])
def test_prf_refuses_a_bad_key_length(prf):
    msgs = bytes(48)
    for key in (b"", bytes(15), bytes(17), bytes(32), bytes(64)):
        with pytest.raises(ValueError, match="PRF key"):
            prf.evaluate_batch(key, msgs)
    with pytest.raises(ValueError, match="PRF key"):
        prf.evaluate_batch(bytes(16), bytes(20))
    # a number of keys that divides the blocks, each covering a run
    assert prf.evaluate_batch(bytes(16), msgs).shape == (3, 2)
    assert prf.evaluate_batch(bytes(48), msgs).shape == (3, 2)
    assert prf.evaluate_batch(bytes(32), bytes(64)).shape == (4, 2)
    assert prf.evaluate_batch(b"", b"").shape == (0, 2)


@pytest.mark.parametrize("prf", [AesPrf(), CountingPrf(AesPrf()), CounterPrf(), ZeroPrf()])
def test_prf_refuses_messages_of_more_than_one_dimension(prf):
    # a blocks x 16 array has a length of its blocks, not of its bytes
    blocks = np.zeros((3, 16), np.uint8)
    with pytest.raises(ValueError, match="one-dimensional"):
        prf.evaluate_batch(bytes(16), blocks)
    assert prf.evaluate_batch(bytes(16), blocks.reshape(-1)).shape == (3, 2)


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
    out = AES.evaluate_batch(key, b"".join(prf_input(1, 0, t) for t in range(8192))).tobytes()
    # the low byte of each 16-byte output
    counts = np.bincount(np.frombuffer(out, np.uint8)[15::16], minlength=256)
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_counting_prf_counts_blocks():
    prf = CountingPrf(ZeroPrf())
    assert prf.evaluate_batch(b"k" * 16, b"\x00" * 16).tobytes() == bytes(16)
    assert prf.evaluate_batch(b"k" * 16, b"\x00" * 48).tobytes() == bytes(48)
    assert prf.calls == 4
    # a refused call spends nothing, and six 8-byte words are three blocks
    with pytest.raises(ValueError):
        prf.evaluate_batch(b"k" * 16, np.zeros((3, 16), np.uint8))
    assert prf.evaluate_batch(b"k" * 16, np.zeros(6, ">u8")).shape == (3, 2)
    assert prf.calls == 7


def test_counter_prf_blocks_are_big_endian_hand_values():
    # 1000 * wide overflows 64 bits here, so the high half is used too
    blocks = [(DOMAIN_KEYSTREAM, 3, 5), (DOMAIN_SELECT, 0, 1 << 60)]
    out = CounterPrf().evaluate_batch(b"k" * 16, b"".join(prf_input(*b) for b in blocks)).tobytes()
    assert out == b"".join((1000 * wide + small).to_bytes(16, "big") for _, small, wide in blocks)


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
    block = AES.evaluate_batch(m.key, prf_input(DOMAIN_KEYSTREAM, 2, 9)).tobytes()
    expected = int.from_bytes(block, "big") & (M - 1)
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
    with pytest.raises(ValueError, match="width mismatch"):
        cross_sum([cts[0], encrypt(streams[1], 0, 4, [1, 2, 3])])


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


def _merge_by_scan(body, layout):
    """Reference: merge_elements as a scan of the layout, one source at a
    time, raising at the first problem it meets."""
    seen, out = set(), []
    for o, sources in enumerate(layout):
        if len(sources) == 0:
            raise ValueError(f"output element {o} has no sources")
        acc = 0
        for j in sources:
            if not 0 <= j < len(body):
                raise ValueError(f"source index {j} outside width {len(body)}")
            if j in seen:
                raise ValueError(f"source index {j} used twice in layout")
            seen.add(j)
            acc = (acc + int(body[j])) % M
        out.append(acc)
    return out


@settings(max_examples=300, deadline=None)
@given(
    width=st.integers(1, 8),
    layout=st.lists(st.lists(st.integers(-2, 9), max_size=3), max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_merge_elements_matches_a_scan_of_the_layout(width, layout, seed):
    body = np.random.default_rng(seed).integers(0, M, size=width, dtype=np.uint64)
    ct = StreamCiphertext(0, 1, body)
    try:
        expect = _merge_by_scan(body, layout)
    except ValueError as refusal:
        with pytest.raises(ValueError) as raised:
            merge_elements(ct, layout)
        assert str(raised.value) == str(refusal)
    else:
        assert merge_elements(ct, layout).body.tolist() == expect


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
    from veilstream.tokens import output_layout, release, single_stream_token, withhold

    m = master("wh")
    ct = encrypt(m, 0, 3, [7, 8, 9])
    directives = [withhold(), release(), withhold()]
    token = single_stream_token(m, (0, 3), directives)
    # The token only carries the released outputs; the server reshapes the
    # aggregate to the same layout before combining.
    merged = merge_elements(ct, output_layout(directives))
    assert apply_token(merged, token) == [8]
    # withholding is the layout's job: a token never leaves outputs closed
    with pytest.raises(TokenMismatchError, match="width"):
        apply_token(ct, token)


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
