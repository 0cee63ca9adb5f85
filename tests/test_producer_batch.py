"""A producer window as one block, against the per-value and per-event paths.

The pipeline encodes a window's events one slab of streams at a time,
with one `encode_batch` per attribute, and encrypts each slab in place
with one `encrypt_block` pass. The oracles here are the paths that replaced: the
per-value encoder, kept in this file as Python arithmetic, and a
`ChainEncryptor` per stream driven one event at a time.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veilstream import pipeline, ring
from veilstream.encoding import EncodingSpec, encode, encode_batch
from veilstream.pipeline import SimConfig, _Scenario
from veilstream.ring import (
    RING_MASK,
    AesPrf,
    ChainEncryptor,
    CountingPrf,
    MasterSecret,
    StreamCiphertext,
    chain_sum,
    derive_key,
    encrypt,
    encrypt_block,
)


def reference_encode(value, spec: EncodingSpec) -> list[int]:
    """One value, one Python branch per kind."""
    kind = spec.kind
    if kind in ("sum", "sum_count", "variance", "predicate_threshold"):
        q = round(value * spec.scale)
        if kind == "sum":
            return [q & RING_MASK]
        if kind == "sum_count":
            return [q & RING_MASK, 1]
        if kind == "variance":
            return [q & RING_MASK, (q * q) & RING_MASK, 1]
        return [q & RING_MASK, 0] if value >= spec.threshold else [0, q & RING_MASK]
    out = [0] * spec.width
    if kind == "one_hot":
        if value != int(value):
            raise ValueError(f"one_hot input must be an integer, got {value!r}")
        idx = int(value) - int(spec.domain_min)
        if not 0 <= idx < spec.width:
            raise ValueError(
                f"value {value!r} outside one_hot domain [{spec.domain_min}, {spec.domain_max}]"
            )
    else:
        if not spec.domain_min <= value <= spec.domain_max:
            raise ValueError(
                f"value {value!r} outside histogram domain [{spec.domain_min}, {spec.domain_max}]"
            )
        idx = min(int((value - spec.domain_min) // spec.bin_width), spec.width - 1)
    out[idx] = 1
    return out


# ---- batch encoding ------------------------------------------------------------

SCALES = st.sampled_from([1, 2, 100])
# with scale 1 or 2, k + 0.5 and k / 4 put exact ties on the rounding
REALS = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.integers(-1000, 1000).map(lambda k: k + 0.5),
    st.integers(-4000, 4000).map(lambda k: k / 4),
    st.integers(-10**9, 10**9),
    st.floats(-1e30, 1e30, allow_nan=False, allow_infinity=False),
)


@st.composite
def spec_and_values(draw):
    kind = draw(st.sampled_from(
        ["sum", "sum_count", "variance", "predicate_threshold", "one_hot", "histogram"]
    ))
    if kind == "one_hot":
        lo = draw(st.integers(-20, 20))
        spec = EncodingSpec(kind, domain_min=lo, domain_max=lo + draw(st.integers(0, 30)))
        hi = int(spec.domain_max)
        inside = st.integers(lo, hi)
        value = st.one_of(
            inside, inside, inside.map(float), st.integers(lo - 3, hi + 3),
            st.floats(lo - 3, hi + 3, allow_nan=False),
        )
    elif kind == "histogram":
        lo = draw(st.integers(-50, 50))
        width = draw(st.sampled_from([0.5, 1, 2.5, 3, 7.3]))
        hi = lo + draw(st.sampled_from([1, 2.5, 10, 40, 99.9]))
        spec = EncodingSpec(kind, domain_min=lo, domain_max=hi, bin_width=width)
        inside = st.floats(lo, hi, allow_nan=False)
        edges = st.integers(0, spec.width).map(lambda k: lo + k * width)
        value = st.one_of(
            inside, inside, edges, st.sampled_from([lo, hi]), st.floats(lo - 5, hi + 5)
        )
    else:
        threshold = draw(st.one_of(st.integers(-100, 100), st.floats(-100, 100)))
        spec = EncodingSpec(kind, threshold=threshold, scale=draw(SCALES))
        value = st.one_of(REALS, st.just(threshold))
    return spec, draw(st.lists(value, min_size=1, max_size=12))


@settings(max_examples=400, deadline=None)
@given(spec_and_values())
def test_batch_encode_matches_the_per_value_reference(case):
    spec, values = case
    expected, error = [], None
    for v in values:
        try:
            expected.append(reference_encode(v, spec))
        except ValueError as exc:
            error, bad = exc, v
            break
    if error is not None:
        # the first value out of domain or not an integer raises, with the
        # per-value message
        with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
            encode_batch(values, spec)
        with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
            encode(bad, spec)
        return
    got = encode_batch(values, spec)
    assert got.dtype == np.uint64 and got.shape == (len(values), spec.width)
    assert got.tolist() == expected
    for v, row in zip(values, expected):
        assert encode(v, spec).tolist() == row


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["sum", "variance", "predicate_threshold", "one_hot"])
def test_batch_encode_raises_what_python_raises_for_non_finite_values(kind, bad):
    spec = EncodingSpec(kind, domain_min=0, domain_max=3, threshold=1)
    with pytest.raises((ValueError, OverflowError)) as expected:
        reference_encode(bad, spec)
    for call in (lambda: encode_batch([1, bad, 2], spec), lambda: encode(bad, spec)):
        with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
            call()


def test_batch_encode_writes_only_its_slice_of_a_block():
    spec = EncodingSpec("histogram", domain_min=0, domain_max=10, bin_width=2.5)
    block = np.full((3, 5, 9), 7, dtype=np.uint64)
    values = np.array([[0, 2.5, 9.99, 10], [1, 1, 1, 1], [5, 6, 7, 8]])
    out = encode_batch(values, spec, out=block[:, :4, 2:6])
    assert out.base is not None and np.shares_memory(out, block)
    for s in range(3):
        for e in range(4):
            assert block[s, e, 2:6].tolist() == reference_encode(values[s, e], spec)
    block[:, :4, 2:6] = 7
    assert (block == 7).all()
    with pytest.raises(ValueError, match="shape"):
        encode_batch(values, spec, out=block[:, :4, 2:7])


# ---- batch encryption ------------------------------------------------------------


def test_encrypt_block_is_msg_plus_key_minus_previous_key():
    masters = [MasterSecret(bytes([i + 1]) * 16, f"s{i}") for i in range(3)]
    rng = np.random.default_rng(4)
    messages = rng.integers(0, 2**64, size=(3, 4, 6), dtype=np.uint64)
    last = np.array([derive_key(m, 10, 6) for m in masters])
    block = messages.copy()
    keys = encrypt_block(masters, last, (11, 12, 14, 15), block)
    for s, m in enumerate(masters):
        prev = 10
        for i, t in enumerate((11, 12, 14, 15)):
            assert np.array_equal(block[s, i], messages[s, i] + derive_key(m, t, 6) - derive_key(m, prev, 6))
            prev = t
        assert np.array_equal(keys[s], derive_key(m, 15, 6))
    assert keys.base is None
    with pytest.raises(ValueError, match="advance"):
        encrypt_block(masters, last, (11, 11, 12, 13), messages.copy())
    with pytest.raises(ValueError, match="shape"):
        encrypt_block(masters, last[:2], (11, 12, 14, 15), messages.copy())


def test_window_chunks_encrypt_like_a_chain_encryptor_per_stream():
    scenario = _Scenario(
        SimConfig(preset="car", protocol="clique", producers=60, partition_size=60, windows=4, seed=5)
    )
    width, L = scenario.width, scenario.config.logical_window
    reference_prf = CountingPrf(AesPrf())
    encryptors = [
        ChainEncryptor(scenario.masters[sid], width, prf=reference_prf)
        for sid in scenario.plans[0].plan.members
    ]
    # row 0 sends every window; row 1 is first online in window 2, so it
    # needs the key at 0 and a catch-up; row 2 skips window 1 and catches
    # up in window 2; row 3 comes back in window 3 after two offline windows
    online = [[0, 2, 3], [0], [0, 1, 2], [0, 1, 2, 3]]
    rng = np.random.default_rng(11)
    caught_up = 0
    for w, rows in enumerate(online):
        messages = rng.integers(0, 2**64, size=(len(rows), L, width), dtype=np.uint64)
        block = messages.copy()
        before = (scenario.prf.calls, reference_prf.calls)
        catch_up = scenario._encrypt_chunk(w, np.array(rows), block)
        for row, si in enumerate(rows):
            enc = encryptors[si]
            if enc.clock != w * L:
                expect = enc.encrypt_next(w * L, np.zeros(width, dtype=np.uint64))
                got = catch_up.pop(si)
                assert (got.t_prev, got.t_curr) == (expect.t_prev, expect.t_curr)
                assert np.array_equal(got.body, expect.body)
                caught_up += 1
            for i in range(L):
                expect = enc.encrypt_next(w * L + i + 1, messages[row, i])
                assert np.array_equal(block[row, i], expect.body)
        assert catch_up == {}
        assert scenario.prf.calls - before[0] == reference_prf.calls - before[1]
        assert scenario.clock[rows].tolist() == [(w + 1) * L] * len(rows)
    assert caught_up == 3


def test_window_results_do_not_depend_on_the_chunk_size(monkeypatch):
    config = SimConfig(
        preset="web", protocol="dream", producers=60, partition_size=30, windows=4,
        seed=6, dropout_rate=0.1, drop_rate=0.01,
    )
    whole = pipeline.run_scenario(config)
    width = whole.summary["stream_width"]
    stream_blocks = config.logical_window * width
    # (streams a slab, streams a PRF call): a window spans many slabs and a
    # slab many calls, a call more streams than a slab, and a slab size
    # that is no multiple of a stream's block
    for slab, call in ((4, 1), (9, 2), (1, 3), (7.5, 1)):
        monkeypatch.setattr(pipeline, "SLAB_BYTES", int(slab * stream_blocks * 8))
        monkeypatch.setattr(ring, "BATCH_BLOCKS", call * stream_blocks)
        chunked = pipeline.run_scenario(config)
        assert [(w.status, w.released, w.bytes_producer) for w in chunked.windows] == [
            (w.status, w.released, w.bytes_producer) for w in whole.windows
        ]
        assert chunked.summary["prf_calls_total"] == whole.summary["prf_calls_total"]
        assert chunked.summary["transport"] == whole.summary["transport"]
        assert all(w.shadow_ok for w in chunked.windows if w.status == "ok")


def test_no_encode_window_call_covers_more_than_one_slab(monkeypatch):
    config = SimConfig(
        preset="car", protocol="clique", producers=60, partition_size=60, windows=3,
        seed=2, dropout_rate=0.1,
    )
    rows = []
    encode = _Scenario._encode_window

    def spy(self, indices, draws):
        rows.append(len(indices))
        return encode(self, indices, draws)

    monkeypatch.setattr(_Scenario, "_encode_window", spy)
    whole = pipeline.run_scenario(config)
    online = list(rows)
    assert len(online) == config.windows  # one slab a window at the default size
    stream_bytes = config.logical_window * whole.summary["stream_width"] * 8
    rows.clear()
    monkeypatch.setattr(pipeline, "SLAB_BYTES", 5 * stream_bytes + 7)
    sliced = pipeline.run_scenario(config)
    assert max(rows) == 5 and len(rows) > 3 * config.windows
    assert sum(rows) == sum(online)
    assert [w.released for w in sliced.windows] == [w.released for w in whole.windows]


def test_scenario_frees_each_windows_plaintext_after_assembly():
    scenario = _Scenario(
        SimConfig(preset="car", protocol="clique", producers=60, partition_size=60, windows=3, seed=2)
    )
    result = scenario.run()
    assert all(w.shadow_ok for w in result.windows)
    assert scenario.open == {}


# ---- window sums ---------------------------------------------------------------------


def test_chain_sum_adds_the_pieces_and_keeps_its_errors():
    m = MasterSecret(b"\x05" * 16, "chain")
    pieces = [encrypt(m, t, t + 1, [t, 2 * t]) for t in range(4)]
    total = chain_sum(pieces)
    assert (total.t_prev, total.t_curr) == (0, 4)
    assert np.array_equal(total.body, encrypt(m, 0, 4, [6, 12]).body)
    assert chain_sum(pieces[:1]) is pieces[0]
    assert chain_sum(iter(pieces)).body.tolist() == total.body.tolist()
    with pytest.raises(ValueError, match="^chaining gap: have range ending 2, next starts 3$"):
        chain_sum(pieces[:2] + pieces[3:])
    wide = StreamCiphertext(1, 2, np.zeros(3, dtype=np.uint64))
    with pytest.raises(ValueError, match=r"^element width mismatch: 2 != 3$"):
        chain_sum([pieces[0], wide])
    with pytest.raises(ValueError, match="at least one"):
        chain_sum([])
