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

The PRF is pluggable.  The default instantiation runs a 128-bit block
cipher (AES-128) over a 16-byte input block and truncates the output to
the low bits of the ring; test stubs with predictable outputs implement
the same interface.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

__all__ = [
    "MODULUS_DEFAULT",
    "RING_MASK",
    "Prf",
    "AesPrf",
    "ZeroPrf",
    "CounterPrf",
    "SplitMixPrf",
    "CountingPrf",
    "MasterSecret",
    "StreamCiphertext",
    "serialize_event",
    "deserialize_event",
    "ChainEncryptor",
    "TokenMismatchError",
    "prf_input",
    "derive_key",
    "encrypt",
    "add_ciphertexts",
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

_U128 = (1 << 128) - 1


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
    """Keyed PRF with a 16-byte input block and a 128-bit output."""

    def evaluate(self, key: bytes, message: bytes) -> int:
        raise NotImplementedError

    def evaluate_batch(self, key: bytes, messages: bytes) -> bytes:
        """Evaluate on a concatenation of 16-byte blocks, outputs concatenated."""
        out = bytearray()
        for off in range(0, len(messages), 16):
            v = self.evaluate(key, messages[off : off + 16])
            out += v.to_bytes(16, "big")
        return bytes(out)


# Cipher contexts an AesPrf keeps before it empties its cache.
_AES_CACHE_LIMIT = 65536


class AesPrf(Prf):
    """AES-128 in ECB mode used as a PRF over single 16-byte blocks.

    A pseudorandom permutation on distinct inputs is indistinguishable
    from a PRF up to the birthday bound, which is far beyond the call
    volumes here. Cipher contexts are cached per key because the protocol
    reuses a small set of keys across very many evaluations.
    """

    def __init__(self):
        self._cache: dict[bytes, object] = {}

    def _encryptor(self, key: bytes):
        enc = self._cache.get(key)
        if enc is None:
            if len(key) != 16:
                raise ValueError("AES PRF key must be 16 bytes")
            if len(self._cache) >= _AES_CACHE_LIMIT:
                self._cache.clear()
            enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
            self._cache[key] = enc
        return enc

    def evaluate(self, key: bytes, message: bytes) -> int:
        return int.from_bytes(self._encryptor(key).update(message), "big")

    def evaluate_batch(self, key: bytes, messages: bytes) -> bytes:
        return self._encryptor(key).update(messages)


class ZeroPrf(Prf):
    """Stub returning zero. Keystreams vanish; useful to expose plumbing."""

    def evaluate(self, key: bytes, message: bytes) -> int:
        return 0


class CounterPrf(Prf):
    """Deterministic stub: decodes the input block (small, wide) and
    returns 1000*wide + small. With the keystream domain this makes the
    key for element j at timestamp t equal to 1000*t + j, so small test
    vectors can be checked by hand."""

    def evaluate(self, key: bytes, message: bytes) -> int:
        first, wide = struct.unpack(">QQ", message)
        small = first & ((1 << 56) - 1)
        return 1000 * wide + small


def _mix64(x: int) -> int:
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & RING_MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & RING_MASK
    return x ^ (x >> 31)


def _mix64_np(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class SplitMixPrf(Prf):
    """Cheap keyed mixing stub for large-scale benchmarks.

    Not cryptographic; statistically well spread and fast enough that a
    ten-thousand-party epoch can be counted in seconds. Key digests are
    cached since the same pairwise secrets recur every round.
    """

    def __init__(self):
        self._seeds: dict[bytes, int] = {}

    def _seed(self, key: bytes) -> int:
        s = self._seeds.get(key)
        if s is None:
            a = int.from_bytes(key[:8].ljust(8, b"\0"), "big")
            b = int.from_bytes(key[8:16].ljust(8, b"\0"), "big")
            s = _mix64(a ^ _mix64(b ^ 0x9E3779B97F4A7C15))
            self._seeds[key] = s
        return s

    def evaluate(self, key: bytes, message: bytes) -> int:
        w0, w1 = struct.unpack(">QQ", message)
        s = self._seed(key)
        t = _mix64(_mix64(w0 ^ 0xD1B54A32D192ED03) ^ w1 ^ 0x8CB92BA72F3D8DD7)
        hi = _mix64(s ^ t)
        lo = _mix64(hi ^ s ^ 0xF1357AEA2E62A9C5)
        return (hi << 64) | lo

    def seed_of(self, key: bytes) -> int:
        """Cached key digest, for the vectorized evaluator below."""
        return self._seed(key)

    @staticmethod
    def evaluate_seeds(seeds: np.ndarray, message: bytes) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate one message under many key digests at once.

        Returns the (high, low) 64-bit output halves as uint64 arrays,
        bit-identical to per-key `evaluate` calls. Large-scale benchmarks
        use this to draw a whole round's peer selections in one shot.
        """
        w0, w1 = struct.unpack(">QQ", message)
        t = _mix64(_mix64(w0 ^ 0xD1B54A32D192ED03) ^ w1 ^ 0x8CB92BA72F3D8DD7)
        hi = _mix64_np(seeds ^ np.uint64(t))
        lo = _mix64_np(hi ^ seeds ^ np.uint64(0xF1357AEA2E62A9C5))
        return hi, lo


class CountingPrf(Prf):
    """Wrapper that counts block evaluations of an inner PRF.

    Safe to share across threads: the count is lock-guarded at call
    granularity, which is negligible next to the work being counted.
    """

    def __init__(self, inner: Prf):
        self.inner = inner
        self.calls = 0
        self._lock = threading.Lock()

    def evaluate(self, key: bytes, message: bytes) -> int:
        with self._lock:
            self.calls += 1
        return self.inner.evaluate(key, message)

    def evaluate_batch(self, key: bytes, messages: bytes) -> bytes:
        with self._lock:
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
    only, in their order, at one PRF block each."""
    if t < 0 or t >> 64:
        raise ValueError(f"timestamp out of range: {t}")
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
    words = np.empty((len(index), 2), dtype=">u8")
    words[:, 0] = (DOMAIN_KEYSTREAM << 56) + index
    words[:, 1] = t
    out = prf.evaluate_batch(master.key, words.tobytes())
    # the low 64 bits of each 128-bit output are the ring element
    return np.frombuffer(out, dtype=">u8").reshape(-1, 2)[:, 1].astype(np.uint64)


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
    k_curr = derive_key(master, t_curr, len(msg), prf=prf)
    k_prev = derive_key(master, t_prev, len(msg), prf=prf)
    return StreamCiphertext(t_prev, t_curr, msg + k_curr - k_prev)


class ChainEncryptor:
    """Stateful producer-side encryptor that caches the last border key.

    Encrypting a monotone stream this way costs one key vector per event
    instead of two, since the previous timestamp's vector is retained.
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
        k_curr = derive_key(self._master, t_curr, self._width, prf=self._prf)
        ct = StreamCiphertext(self._t, t_curr, msg + k_curr - self._key)
        self._t = t_curr
        self._key = k_curr
        return ct


def add_ciphertexts(a: StreamCiphertext, b: StreamCiphertext) -> StreamCiphertext:
    """Homomorphic addition.

    Two forms are accepted: b chains onto a (b.t_prev == a.t_curr), which
    extends the covered range; or a and b cover the identical range, which
    adds parallel streams for a cross-stream sum. Anything else is a
    chaining gap and raises.
    """
    if a.width != b.width:
        raise ValueError(f"element width mismatch: {a.width} != {b.width}")
    if b.t_prev == a.t_curr:
        rng = (a.t_prev, b.t_curr)
    elif (a.t_prev, a.t_curr) == (b.t_prev, b.t_curr):
        rng = (a.t_prev, a.t_curr)
    else:
        raise ValueError(
            f"ciphertexts neither chain nor share a range: "
            f"({a.t_prev},{a.t_curr}) + ({b.t_prev},{b.t_curr})"
        )
    return StreamCiphertext(rng[0], rng[1], a.body + b.body)


def chain_sum(cts: Iterable[StreamCiphertext]) -> StreamCiphertext:
    """Fold consecutive ciphertexts of one stream into a window sum."""
    it = iter(cts)
    try:
        acc = next(it)
    except StopIteration:
        raise ValueError("chain_sum needs at least one ciphertext") from None
    for ct in it:
        if ct.t_prev != acc.t_curr:
            raise ValueError(
                f"chaining gap: have range ending {acc.t_curr}, next starts {ct.t_prev}"
            )
        acc = add_ciphertexts(acc, ct)
    return acc


def cross_sum(cts: Iterable[StreamCiphertext]) -> StreamCiphertext:
    """Sum window aggregates of distinct streams covering the same range."""
    it = iter(cts)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("cross_sum needs at least one ciphertext") from None
    rng = (first.t_prev, first.t_curr)
    acc = first.body.copy()
    for ct in it:
        if (ct.t_prev, ct.t_curr) != rng:
            raise ValueError(
                f"cross-stream sum needs equal ranges: {rng} vs ({ct.t_prev},{ct.t_curr})"
            )
        if ct.width != len(acc):
            raise ValueError(f"element width mismatch: {ct.width} != {len(acc)}")
        acc += ct.body
    return StreamCiphertext(rng[0], rng[1], acc)


def merge_elements(
    ct: StreamCiphertext,
    layout: Sequence[Sequence[int]],
) -> StreamCiphertext:
    """Re-shape ciphertext elements for a transformation's output layout.

    Each entry of `layout` lists the source element indices that fold into
    one output element (bucketing merges adjacent one-hot counters, field
    selection keeps singletons). Sources must be unique across the layout.
    """
    seen: set[int] = set()
    out = np.zeros(len(layout), dtype=np.uint64)
    for o, sources in enumerate(layout):
        if len(sources) == 0:
            raise ValueError(f"output element {o} has no sources")
        acc = 0
        for j in sources:
            if not 0 <= j < ct.width:
                raise ValueError(f"source index {j} outside width {ct.width}")
            if j in seen:
                raise ValueError(f"source index {j} used twice in layout")
            seen.add(j)
            acc = (acc + int(ct.body[j])) & RING_MASK
        out[o] = acc
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
) -> list[Optional[int]]:
    """Combine a transformation token with an aggregate ciphertext.

    The token must target the aggregate's exact window range, and, when the
    server supplies the provenance of the aggregate, the identical stream
    set; a mismatch is refused before any combination happens. Returns one
    output per aggregate element, None where the token withholds it.
    """
    if (token.window_start, token.window_end) != (aggregate.t_prev, aggregate.t_curr):
        raise TokenMismatchError(
            f"token window ({token.window_start},{token.window_end}) does not match "
            f"aggregate range ({aggregate.t_prev},{aggregate.t_curr})"
        )
    if stream_set_id is not None and token.stream_set_id != stream_set_id:
        raise TokenMismatchError("token stream set does not match aggregate provenance")
    elements: Mapping[int, int] = token.elements
    for idx in elements:
        if not 0 <= idx < aggregate.width:
            raise TokenMismatchError(
                f"token element {idx} outside aggregate width {aggregate.width}"
            )
    out: list[Optional[int]] = []
    for i in range(aggregate.width):
        v = elements.get(i)
        out.append(None if v is None else (int(aggregate.body[i]) + v) & RING_MASK)
    return out
