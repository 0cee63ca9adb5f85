"""Additively homomorphic stream encryption over the ring Z/2**64.

Values live in the ring of integers modulo M = 2**64, so elements are
machine words: uint64 arrays wrap by themselves and reduction is plain
truncation.  Every timestamp t of a stream has a key vector derived from
the stream's master secret with a keyed PRF, and an event that advances
the stream clock from t_prev to t_curr is encrypted as

    body[j] = message[j] + key(t_curr)[j] - key(t_prev)[j]    (mod M)

Adding ciphertexts that chain on their timestamps telescopes the interior
keys away, so any contiguous window can be opened, or selectively released
through a transformation token, from the two border key vectors alone.

The PRF is pluggable through one method, `Prf.evaluate_batch`.  The
default instantiation is fixed-key AES-128 over 16-byte input blocks,
one cipher context for every key, and the ring takes the low 64 bits of
each output; test stubs with predictable outputs implement the same
method.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

if TYPE_CHECKING:
    from .tokens import TokenLayout

__all__ = [
    "MODULUS_DEFAULT",
    "RING_MASK",
    "Prf",
    "AesPrf",
    "ZeroPrf",
    "CounterPrf",
    "CountingPrf",
    "MasterSecret",
    "StreamCiphertext",
    "serialize_event",
    "deserialize_event",
    "ChainEncryptor",
    "TokenMismatchError",
    "prf_input",
    "BATCH_BLOCKS",
    "derive_key",
    "derive_keys",
    "encrypt",
    "encrypt_block",
    "chain_sum",
    "cross_sum",
    "merge_elements",
    "decrypt_window",
    "apply_token",
]

MODULUS_DEFAULT = 1 << 64
# Reduces Python ints into the ring; uint64 arrays need no reduction.
RING_MASK = MODULUS_DEFAULT - 1

# Domain tags keeping the PRF input spaces of the different consumers
# disjoint.  One byte, packed into the top bits of the first input word.
DOMAIN_KEYSTREAM = 1  # per-element stream keys: (j, t)
DOMAIN_GRAPH = 2      # epoch graph assignment: (0, epoch_id)
DOMAIN_MASK = 3       # epoch round masks: (epoch_id << 16 | block, round)
DOMAIN_SELECT = 4     # per-round edge selection draws: (0, round)
DOMAIN_EDGE = 5       # per-round edge masks: (block, round)


def prf_input(domain: int, small: int, wide: int) -> bytes:
    """Pack one 16-byte PRF input block.

    `small` must fit 56 bits; `wide` may use the full 64. The domain tag
    occupies the top byte so distinct consumers never collide.
    """
    if small >> 56:
        raise ValueError("small PRF argument exceeds 56 bits")
    if wide >> 64:
        raise ValueError("wide PRF argument exceeds 64 bits")
    return struct.pack(">QQ", (domain << 56) | small, wide)


class Prf:
    """Keyed PRF with 16-byte input blocks and 128-bit outputs.

    `evaluate_batch` is its one entry point: it takes a concatenation of
    input blocks and returns the outputs concatenated, each 16 bytes,
    big-endian when read as an integer. `key` is either one 16-byte key
    for every block or one 16-byte key per block (`len(key) ==
    len(messages)`), so one call can cover many pairwise keys; any other
    key length raises `ValueError`.
    """

    def evaluate_batch(self, key: bytes, messages: bytes) -> bytes:
        raise NotImplementedError


def _check_key(key: bytes, messages: bytes) -> None:
    if len(messages) % 16 or len(key) not in (16, len(messages)):
        raise ValueError(f"PRF key of {len(key)} bytes for {len(messages)} input bytes")


# The public key of the fixed permutation pi: the first 128 bits of the
# fractional part of pi (0x243F6A88...), a nothing-up-my-sleeve constant.
FIXED_AES_KEY = bytes.fromhex("243f6a8885a308d313198a2e03707344")


class AesPrf(Prf):
    """Fixed-key AES-128 PRF, F_k(x) = pi(k ^ x) ^ k ^ x with pi AES-128
    under the public `FIXED_AES_KEY`: one cipher context serves every key
    (Guo, Katz, Wang and Yu, S&P 2020). Secure in the random-permutation
    model while (blocks evaluated) x (offline pi queries) << 2**128."""

    def __init__(self):
        self._pi = Cipher(algorithms.AES(FIXED_AES_KEY), modes.ECB()).encryptor()

    def evaluate_batch(self, key: bytes, messages: bytes) -> bytes:
        _check_key(key, messages)
        if len(key) == 16:
            key = key * (len(messages) // 16)
        x = np.frombuffer(messages, np.uint64) ^ np.frombuffer(key, np.uint64)
        x ^= np.frombuffer(self._pi.update(memoryview(x).cast("B")), np.uint64)
        return x.tobytes()


class ZeroPrf(Prf):
    """Stub returning zero. Keystreams vanish; useful to expose plumbing."""

    def evaluate_batch(self, key: bytes, messages: bytes) -> bytes:
        _check_key(key, messages)
        return bytes(len(messages))


class CounterPrf(Prf):
    """Deterministic stub: decodes each input block (small, wide) and
    returns 1000*wide + small, whatever the key. With the keystream domain
    this makes the key for element j at timestamp t equal to 1000*t + j,
    so small test vectors can be checked by hand."""

    def evaluate_batch(self, key: bytes, messages: bytes) -> bytes:
        _check_key(key, messages)
        return b"".join(
            (1000 * wide + (first & ((1 << 56) - 1))).to_bytes(16, "big")
            for first, wide in struct.iter_unpack(">QQ", messages)
        )


class CountingPrf(Prf):
    """Wrapper that counts block evaluations of an inner PRF."""

    def __init__(self, inner: Prf):
        self.inner = inner
        self.calls = 0

    def evaluate_batch(self, key: bytes, messages: bytes) -> bytes:
        self.calls += len(messages) // 16
        return self.inner.evaluate_batch(key, messages)


DEFAULT_PRF = AesPrf()


@dataclass(frozen=True)
class MasterSecret:
    """Per-stream PRF key plus the stream's public identifier."""

    key: bytes
    stream_id: str

    def __post_init__(self):
        if len(self.key) != 16:
            raise ValueError("master secret key must be 16 bytes")

    def __repr__(self):  # keep key material out of logs
        return f"MasterSecret(stream_id={self.stream_id!r}, key=<redacted>)"


# Blocks per PRF call on the batched paths (token keys, dream draws, edge
# masks, epoch plans and the cost simulator's draws): 512 kB per buffer, so
# a call's arrays stay in cache. One row's blocks always share a call.
BATCH_BLOCKS = 1 << 15


def _key_inputs(times: Sequence[int], width: int, elements) -> tuple[bytes, int]:
    """The keystream PRF inputs (j, t), timestamp after timestamp, and the
    number of entries per timestamp."""
    if width < 1 or width >= 1 << 32:
        raise ValueError(f"bad key vector width: {width}")
    if elements is None:
        index = np.arange(width, dtype=np.uint64)
    else:
        index = np.asarray(elements)
        if index.ndim != 1 or not np.issubdtype(index.dtype, np.integer):
            raise ValueError("key elements must be a 1-d integer array")
        if index.size and (index.min() < 0 or index.max() >= width):
            raise ValueError(f"key elements outside width {width}")
        index = index.astype(np.uint64)
    words = np.empty((len(times), len(index), 2), dtype=">u8")
    words[:, :, 0] = (DOMAIN_KEYSTREAM << 56) + index
    for i, t in enumerate(times):
        if t < 0 or t >> 64:
            raise ValueError(f"timestamp out of range: {t}")
        words[i, :, 1] = t
    return words.tobytes(), len(index)


def _low_words(raw: bytes) -> np.ndarray:
    """The ring elements of PRF outputs: the low 64 bits of each block."""
    return np.frombuffer(raw, dtype=">u8")[1::2].astype(np.uint64)


def derive_key(
    master: MasterSecret,
    t: int,
    width: int,
    *,
    elements: Optional[np.ndarray] = None,
    prf: Prf = DEFAULT_PRF,
) -> np.ndarray:
    """Key vector for timestamp t: element j is the low 64 bits of the PRF
    output on input (t, j). Returns a uint64 array of length width, or,
    given integer `elements` in [0, width), the entries at those indices
    only, in their order, at one PRF block each. The one-stream,
    one-timestamp case of `derive_keys`, in one single-key call."""
    msgs, _ = _key_inputs((t,), width, elements)
    return _low_words(prf.evaluate_batch(master.key, msgs))


def derive_keys(
    masters: Sequence[MasterSecret],
    times: Sequence[int],
    width: int,
    *,
    elements: Optional[np.ndarray] = None,
    prf: Prf = DEFAULT_PRF,
) -> np.ndarray:
    """Key entries of several streams at several timestamps.

    `out[s, i, k]` is entry `elements[k]` (entry k when `elements` is
    omitted) of the key vector of `masters[s]` at `times[i]`, as
    `derive_key` gives it, one PRF block each, whole streams per call
    (`_keyed_calls`).
    """
    msgs, entries = _key_inputs(times, width, elements)
    out = np.empty((len(masters), len(times), entries), dtype=np.uint64)
    if out.size:
        keys = np.frombuffer(b"".join(m.key for m in masters), np.uint8).reshape(-1, 16)
        for lo, raw in _keyed_calls(keys, msgs, prf):
            words = _low_words(raw).reshape(-1, len(times), entries)
            out[lo : lo + len(words)] = words
    return out


def _keyed_calls(keys: np.ndarray, msgs: bytes, prf: Prf):
    """Evaluate the message blocks `msgs` under every row of `keys` (rows
    x 16 `uint8`), with one key per block, whole rows per call and at most
    `BATCH_BLOCKS` blocks unless one row needs more; yield each call's
    first row and output."""
    per_row = len(msgs) // 16
    step = max(1, BATCH_BLOCKS // per_row)
    for lo in range(0, len(keys), step):
        chunk = keys[lo : lo + step]
        keyed = np.repeat(chunk, per_row, axis=0).tobytes()
        yield lo, prf.evaluate_batch(keyed, msgs * len(chunk))


def _as_ring_array(values) -> np.ndarray:
    if isinstance(values, np.ndarray) and values.dtype == np.uint64:
        return values
    return np.array([int(v) & RING_MASK for v in values], dtype=np.uint64)


@dataclass(eq=False)
class StreamCiphertext:
    """Encrypted event or partial sum covering the range (t_prev, t_curr]."""

    t_prev: int
    t_curr: int
    body: np.ndarray

    def __post_init__(self):
        if not 0 <= self.t_prev < self.t_curr:
            raise ValueError(
                f"ciphertext range must satisfy 0 <= t_prev < t_curr, "
                f"got ({self.t_prev}, {self.t_curr})"
            )

    @property
    def width(self) -> int:
        return len(self.body)

    def wire_size(self) -> int:
        """Serialized size: two u64 timestamps plus 8 bytes per element."""
        return 16 + 8 * len(self.body)


def serialize_event(ct: StreamCiphertext) -> bytes:
    """Wire encoding: little-endian u64 range followed by u64 elements."""
    return struct.pack("<QQ", ct.t_prev, ct.t_curr) + ct.body.astype("<u8").tobytes()


def deserialize_event(data: bytes) -> StreamCiphertext:
    if len(data) < 24 or (len(data) - 16) % 8:
        raise ValueError(f"malformed event ciphertext of {len(data)} bytes")
    t_prev, t_curr = struct.unpack_from("<QQ", data)
    body = np.frombuffer(data, dtype="<u8", offset=16).astype(np.uint64)
    return StreamCiphertext(t_prev, t_curr, body)


def encrypt(
    master: MasterSecret,
    t_prev: int,
    t_curr: int,
    message: Sequence[int],
    *,
    prf: Prf = DEFAULT_PRF,
) -> StreamCiphertext:
    """Encrypt one event, advancing the stream clock t_prev -> t_curr."""
    if t_curr <= t_prev:
        raise ValueError(f"timestamps must advance: {t_prev} -> {t_curr}")
    msg = _as_ring_array(message)
    if len(msg) == 0:
        raise ValueError("message must have at least one element")
    return ChainEncryptor(master, len(msg), start=t_prev, prf=prf).encrypt_next(t_curr, msg)


def encrypt_block(
    masters: Sequence[MasterSecret],
    last_keys: np.ndarray,
    times: Sequence[int],
    block: np.ndarray,
    *,
    prf: Prf = DEFAULT_PRF,
) -> np.ndarray:
    """Encrypt a block of events in place, every stream at the same times.

    `block[s, i]` is the message `masters[s]` sends at `times[i]`, a
    streams x len(times) x width uint64 array; `last_keys[s]` is that
    stream's key vector at its clock, the timestamp before `times[0]`.
    Each message becomes the body msg + k(times[i]) - k(times[i-1]), with
    the keys of every stream from one `derive_keys` pass. Returns each
    stream's key vector at `times[-1]`, a streams x width copy.
    """
    n, events, width = block.shape
    if block.dtype != np.uint64 or events != len(times) or last_keys.shape != (n, width):
        raise ValueError(
            f"block of shape {block.shape} with {len(times)} times and keys "
            f"of shape {last_keys.shape}"
        )
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"timestamps must advance: {list(times)}")
    keys = derive_keys(masters, times, width, prf=prf)
    block += keys
    block[:, 0] -= last_keys
    block[:, 1:] -= keys[:, :-1]
    return keys[:, -1].copy()


class ChainEncryptor:
    """Stateful producer-side encryptor that caches the last border key.

    Encrypting a monotone stream this way costs one key vector per event
    instead of two, since the previous timestamp's vector is retained.
    Each event is the one-stream, one-timestamp case of `encrypt_block`.
    """

    def __init__(
        self,
        master: MasterSecret,
        width: int,
        *,
        start: int = 0,
        prf: Prf = DEFAULT_PRF,
    ):
        self._master = master
        self._width = width
        self._prf = prf
        self._t = start
        self._key = derive_key(master, start, width, prf=prf) if start > 0 else None

    @property
    def clock(self) -> int:
        return self._t

    def encrypt_next(self, t_curr: int, message: Sequence[int]) -> StreamCiphertext:
        if t_curr <= self._t:
            raise ValueError(f"timestamps must advance: {self._t} -> {t_curr}")
        if self._key is None:
            self._key = derive_key(self._master, self._t, self._width, prf=self._prf)
        msg = _as_ring_array(message)
        if len(msg) != self._width:
            raise ValueError(f"message width {len(msg)} != stream width {self._width}")
        block = np.array(msg, dtype=np.uint64).reshape(1, 1, -1)
        key = encrypt_block([self._master], self._key[None], [t_curr], block, prf=self._prf)
        ct = StreamCiphertext(self._t, t_curr, block[0, 0])
        self._t = t_curr
        self._key = key[0]
        return ct


def chain_sum(cts: Iterable[StreamCiphertext]) -> StreamCiphertext:
    """Fold consecutive ciphertexts of one stream into a window sum: check
    that the pieces chain and share a width, then add their bodies in one
    sum. A single piece is returned as it is."""
    pieces = list(cts)
    if not pieces:
        raise ValueError("chain_sum needs at least one ciphertext")
    width = pieces[0].width
    for a, b in zip(pieces, pieces[1:]):
        if b.t_prev != a.t_curr:
            raise ValueError(f"chaining gap: have range ending {a.t_curr}, next starts {b.t_prev}")
        if b.width != width:
            raise ValueError(f"element width mismatch: {width} != {b.width}")
    if len(pieces) == 1:
        return pieces[0]
    body = np.sum([ct.body for ct in pieces], axis=0, dtype=np.uint64)
    return StreamCiphertext(pieces[0].t_prev, pieces[-1].t_curr, body)


def cross_sum(cts: Iterable[StreamCiphertext]) -> StreamCiphertext:
    """Sum window aggregates of distinct streams covering the same range:
    check that the pieces share a range and a width, then add their bodies
    in one sum."""
    pieces = list(cts)
    if not pieces:
        raise ValueError("cross_sum needs at least one ciphertext")
    rng = (pieces[0].t_prev, pieces[0].t_curr)
    width = pieces[0].width
    for ct in pieces[1:]:
        if (ct.t_prev, ct.t_curr) != rng:
            raise ValueError(
                f"cross-stream sum needs equal ranges: {rng} vs ({ct.t_prev},{ct.t_curr})"
            )
        if ct.width != width:
            raise ValueError(f"element width mismatch: {ct.width} != {width}")
    body = np.sum([ct.body for ct in pieces], axis=0, dtype=np.uint64)
    return StreamCiphertext(rng[0], rng[1], body)


def _layout_index(layout: Sequence[Sequence[int]], width: int) -> tuple[np.ndarray, np.ndarray]:
    """A layout as index arrays: `sources` lists every output's source
    elements, output after output, and `offsets` marks where each output's
    run starts. Refuses an output without sources, a source outside
    [0, width) and a source used twice, naming the first one a scan in
    layout order meets."""
    sizes = np.fromiter(map(len, layout), np.intp, count=len(layout))
    sources = np.fromiter((j for s in layout for j in s), np.intp, count=int(sizes.sum()))
    offsets = np.zeros(len(layout), dtype=np.intp)
    np.cumsum(sizes[:-1], out=offsets[1:])
    first_use = np.zeros(len(sources), dtype=bool)
    first_use[np.unique(sources, return_index=True)[1]] = True
    outside = (sources < 0) | (sources >= width)
    bad = np.flatnonzero(outside | ~first_use)
    empty = np.flatnonzero(sizes == 0)
    # an empty output is met before the sources of the outputs after it
    if len(empty) and (not len(bad) or offsets[empty[0]] <= bad[0]):
        raise ValueError(f"output element {empty[0]} has no sources")
    if len(bad):
        p = bad[0]
        problem = f"outside width {width}" if outside[p] else "used twice in layout"
        raise ValueError(f"source index {sources[p]} {problem}")
    return sources, offsets


def merge_elements(
    ct: StreamCiphertext,
    layout: Union[Sequence[Sequence[int]], "TokenLayout"],
) -> StreamCiphertext:
    """Re-shape ciphertext elements for a transformation's output layout.

    Each entry of `layout` lists the source element indices that fold into
    one output element (bucketing merges adjacent one-hot counters, field
    selection keeps singletons). Sources must be unique across the layout.
    A plan's `TokenLayout` holds the same layout as index arrays, checked
    when it was built, so only its width is checked against the
    ciphertext's. Every output is summed by one `np.add.reduceat`.
    """
    if isinstance(layout, Sequence):
        sources, offsets = _layout_index(layout, ct.width)
    elif layout.width != ct.width:
        raise ValueError(f"layout width {layout.width} != ciphertext width {ct.width}")
    else:
        sources, offsets = layout.sources, layout.offsets
    out = np.add.reduceat(ct.body[sources], offsets)
    return StreamCiphertext(ct.t_prev, ct.t_curr, out)


def decrypt_window(
    master: MasterSecret,
    t_start: int,
    t_end: int,
    ct: StreamCiphertext,
    *,
    prf: Prf = DEFAULT_PRF,
) -> np.ndarray:
    """Open a window sum using only the two border key vectors.

    The caller asserts the ciphertext covers (t_start, t_end]; a mismatch
    is not detectable here and yields uniformly garbled output, which is
    exactly the confidentiality behaviour the construction intends.
    """
    k_end = derive_key(master, t_end, ct.width, prf=prf)
    k_start = derive_key(master, t_start, ct.width, prf=prf)
    return ct.body - k_end + k_start


class TokenMismatchError(ValueError):
    """Token and aggregate disagree on window range or stream set."""


def apply_token(
    aggregate: StreamCiphertext,
    token,
    *,
    stream_set_id: Optional[bytes] = None,
) -> list[int]:
    """Combine a transformation token with an aggregate ciphertext.

    The token must target the aggregate's exact window range and width,
    and, when the server supplies the provenance of the aggregate, the
    identical stream set; a mismatch is refused before any combination
    happens. Returns one output per aggregate element.
    """
    if (token.window_start, token.window_end) != (aggregate.t_prev, aggregate.t_curr):
        raise TokenMismatchError(
            f"token window ({token.window_start},{token.window_end}) does not match "
            f"aggregate range ({aggregate.t_prev},{aggregate.t_curr})"
        )
    if stream_set_id is not None and token.stream_set_id != stream_set_id:
        raise TokenMismatchError("token stream set does not match aggregate provenance")
    if len(token.elements) != aggregate.width:
        raise TokenMismatchError(
            f"token width {len(token.elements)} != aggregate width {aggregate.width}"
        )
    return (aggregate.body + np.array(token.elements, dtype=np.uint64)).tolist()
