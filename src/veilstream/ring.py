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
DOMAIN_NOISE = 6      # per-window DP noise draws: (block, window)


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

    `evaluate_batch(key, messages)` is its one entry point. `messages` is
    a concatenation of input blocks, a 1-d byte buffer (bytes, a
    memoryview or a `uint8` array). `key` holds k 16-byte keys (bytes, or
    a contiguous k x 16 `uint8` array), and key i covers the i-th run of
    blocks / k blocks, so one call can cover many pairwise keys; a key
    length that is not a multiple of 16 or whose count does not divide the
    blocks, or messages of more than one dimension, raise `ValueError`.
    It returns a blocks x 2 `>u8` array: the high and low 64 bits of each
    output, read big-endian, so `.tobytes()` is the outputs concatenated.
    The array may be a view of a buffer the PRF reuses: a caller consumes
    it, and may overwrite it, before its next call.
    """

    def evaluate_batch(self, key, messages) -> np.ndarray:
        raise NotImplementedError


def _check_key(key, messages) -> tuple[int, int]:
    """The number of keys and of blocks of a call, after checking that
    both are whole, that the keys divide the blocks and that the messages
    are one-dimensional, so that their length counts their bytes."""
    view = memoryview(messages)
    if view.ndim != 1:
        raise ValueError(f"PRF messages must be one-dimensional, not {view.ndim}-d")
    key_bytes, size = memoryview(key).nbytes, view.nbytes
    k, blocks = key_bytes // 16, size // 16
    if key_bytes % 16 or size % 16 or (blocks and (k == 0 or blocks % k)):
        raise ValueError(f"PRF key of {key_bytes} bytes for {size} input bytes")
    return k, blocks


# The public key of the fixed permutation pi: the first 128 bits of the
# fractional part of pi (0x243F6A88...), a nothing-up-my-sleeve constant.
FIXED_AES_KEY = bytes.fromhex("243f6a8885a308d313198a2e03707344")

FEW_BLOCKS = 16  # blocks up to which a one-key call is faster on Python integers


class AesPrf(Prf):
    """Fixed-key AES-128 PRF, F_k(x) = pi(k ^ x) ^ k ^ x with pi AES-128
    under the public `FIXED_AES_KEY`: one cipher context serves every key
    (Guo, Katz, Wang and Yu, S&P 2020). Secure in the random-permutation
    model while (blocks evaluated) x (offline pi queries) << 2**128.

    A call allocates nothing once the held buffers fit it: each key is
    written over its run of one as one 16-byte item, the messages XORed on,
    `update_into` writes pi of that into the other, and that is XORed with
    the input in place and returned. The buffers grow to the largest call
    seen; a one-key call of up to `FEW_BLOCKS` blocks uses Python integers.
    Like its cipher context, an instance is not for concurrent use."""

    def __init__(self):
        self._pi = Cipher(algorithms.AES(FIXED_AES_KEY), modes.ECB()).encryptor()
        self._grow(0)

    def _grow(self, words: int) -> None:
        self._x = np.empty(words, np.uint64)
        # update_into wants room for one more block than it writes
        self._out = np.empty(words + 2, np.uint64)
        self._out_be = self._out.view(">u8")

    def evaluate_batch(self, key, messages) -> np.ndarray:
        k, blocks = _check_key(key, messages)
        if k == 1 and blocks <= FEW_BLOCKS:
            x = int.from_bytes(messages, "big") ^ int.from_bytes(bytes(key) * blocks, "big")
            y = int.from_bytes(self._pi.update(x.to_bytes(16 * blocks, "big")), "big") ^ x
            return np.frombuffer(bytearray(y.to_bytes(16 * blocks, "big")), ">u8").reshape(-1, 2)
        n = 2 * blocks
        if len(self._x) < n:
            self._grow(n)
        x = self._x[:n]
        words = np.frombuffer(messages, np.uint64)
        if k == blocks:  # a key a block: one XOR over every word
            np.bitwise_xor(words, np.frombuffer(key, np.uint64), out=x)
        else:  # each key over its run as one 16-byte item, then one XOR
            keys = np.frombuffer(key, np.complex128).reshape(k, 1)
            np.copyto(x.view(np.complex128).reshape(k, -1), keys)
            np.bitwise_xor(x, words, out=x)
        self._pi.update_into(x.view(np.uint8), self._out.view(np.uint8))
        out = self._out[:n]
        np.bitwise_xor(out, x, out=out)
        return self._out_be[:n].reshape(-1, 2)


class ZeroPrf(Prf):
    """Stub returning zero. Keystreams vanish; useful to expose plumbing."""

    def evaluate_batch(self, key, messages) -> np.ndarray:
        _, blocks = _check_key(key, messages)
        return np.zeros((blocks, 2), dtype=">u8")


class CounterPrf(Prf):
    """Deterministic stub: decodes each input block (small, wide) and
    returns 1000*wide + small, whatever the key. With the keystream domain
    this makes the key for element j at timestamp t equal to 1000*t + j,
    so small test vectors can be checked by hand."""

    def evaluate_batch(self, key, messages) -> np.ndarray:
        _check_key(key, messages)
        first, wide = np.frombuffer(messages, ">u8").reshape(-1, 2).astype(np.uint64).T
        # 1000 * wide as 1000 * (wide >> 32) << 32 plus 1000 * its low half,
        # both below 2**42, and small below 2**56: one carry at most
        top = np.uint64(1000) * (wide >> np.uint64(32))
        rest = np.uint64(1000) * (wide & np.uint64(0xFFFFFFFF)) + (first & np.uint64((1 << 56) - 1))
        low = (top << np.uint64(32)) + rest
        out = np.empty((len(low), 2), dtype=">u8")
        out[:, 0] = (top >> np.uint64(32)) + (low < rest)
        out[:, 1] = low
        return out


class CountingPrf(Prf):
    """Wrapper that counts block evaluations of an inner PRF."""

    def __init__(self, inner: Prf):
        self.inner = inner
        self.calls = 0

    def evaluate_batch(self, key, messages) -> np.ndarray:
        out = self.inner.evaluate_batch(key, messages)
        self.calls += memoryview(messages).nbytes // 16
        return out


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
    for t in (min(times), max(times)) if len(times) else ():
        if t < 0 or t >> 64:
            raise ValueError(f"timestamp out of range: {t}")
    words = np.empty((len(times), len(index), 2), dtype=">u8")
    words[:, :, 0] = (DOMAIN_KEYSTREAM << 56) + index
    words[:, :, 1] = np.asarray(times, dtype=np.uint64)[:, None]
    return words.tobytes(), len(index)


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
    return prf.evaluate_batch(master.key, msgs)[:, 1].astype(np.uint64)


def _stream_keys(masters, times, width, elements, prf):
    """`derive_keys` call by call: yield each call's first stream and its
    streams x len(times) x entries key entries, valid until the next."""
    msgs, entries = _key_inputs(times, width, elements)
    if not len(msgs):
        return
    keys = np.frombuffer(b"".join(m.key for m in masters), np.uint8).reshape(-1, 16)
    for lo, words in _keyed_calls(keys, msgs, prf):
        yield lo, words[..., 1].reshape(len(words), len(times), entries)


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
    entries = width if elements is None else len(elements)
    out = np.empty((len(masters), len(times), entries), dtype=np.uint64)
    for lo, keys in _stream_keys(masters, times, width, elements, prf):
        out[lo : lo + len(keys)] = keys
    return out


def _keyed_calls(keys: np.ndarray, msgs: bytes, prf: Prf):
    """Evaluate the message blocks `msgs` under every row of `keys` (rows x
    16 `uint8`), whole rows per call and at most `BATCH_BLOCKS` blocks
    unless one row needs more. The rows' messages are tiled once, and each
    call passes its rows as its keys. Yield each call's first row and its
    rows x blocks x 2 output words, which are valid until the next step of
    the loop."""
    per_row = len(msgs) // 16
    step = max(1, BATCH_BLOCKS // per_row)
    tiled = memoryview(msgs * min(step, len(keys)))
    for lo in range(0, len(keys), step):
        chunk = keys[lo : lo + step]
        out = prf.evaluate_batch(chunk, tiled[: len(chunk) * len(msgs)])
        yield lo, out.reshape(len(chunk), per_row, 2)


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
    Each message becomes the body msg + k(times[i]) - k(times[i-1]). The
    keys come in calls of whole streams, at most `BATCH_BLOCKS` blocks
    each, and each call's keys are copied once into a held buffer in
    native order, from which they go into its streams' rows.
    Returns each stream's key vector at `times[-1]`, a streams x width
    array.
    """
    n, events, width = block.shape
    if block.dtype != np.uint64 or events != len(times) or last_keys.shape != (n, width):
        raise ValueError(
            f"block of shape {block.shape} with {len(times)} times and keys "
            f"of shape {last_keys.shape}"
        )
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"timestamps must advance: {list(times)}")
    out = np.empty((n, width), dtype=np.uint64)
    held = None  # sized by the first call, the largest
    for lo, keys in _stream_keys(masters, times, width, None, prf):
        held = np.empty(keys.shape, dtype=np.uint64) if held is None else held
        own = held[: len(keys)]
        np.copyto(own, keys)  # the one byteswap: the rest runs in native order
        hi = lo + len(keys)
        rows = block[lo:hi]
        rows += own
        rows[:, 0] -= last_keys[lo:hi]
        rows[:, 1:] -= own[:, :-1]
        out[lo:hi] = own[:, -1]
    return out


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
