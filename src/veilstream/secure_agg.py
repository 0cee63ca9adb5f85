"""Dropout-tolerant secure aggregation of transformation tokens.

Every pair of parties shares a pairwise secret from a one-time key
agreement. In a round, party p blinds its token with a nonce that sums one
PRF-derived mask per selected peer, which the lower id of the pair adds
and the higher id subtracts, by the total order of party identifiers:

    nonce(p) = sum over peers q with p < q of  +mask(p, q)
             + sum over peers q with p > q of  -mask(p, q)      (mod M)

Summed over any fixed participant set each pair's two ends cancel,
leaving exactly the sum of the tokens. Three peer-selection variants
trade PRF work against connectivity slack:

    clique  every peer, every round
    dream   each round, keep an edge with probability p via one PRF draw,
            then derive the kept edges' masks with a second draw
    epoch   one PRF block per peer per epoch, whose output is split into
            b-bit segments that schedule the edge into one round per
            segment; a round's graph is sparse but known in advance

A round can run for one party or for every party of a partition at once,
or of several partitions. `PeerTable` lays the parties' pairwise secrets
out as one row per unordered pair, where `setup_pairwise`, one party's
view, derives every secret of that party; a table holds disjoint groups
of parties one after the other, each pair staying in its group.
`round_edges` selects a round's pairs over it and `mask_edges` adds each
selected pair's mask to its low end's row of a parties x width nonce
matrix and subtracts it from its high end's.
`round_peers` and `mask_vector` are their one-party cases, sharing the
selection rules (`_round_rows`, with the dream comparison in `_selected`,
which the cost simulator also uses) and the one definition of an edge
mask; the scalar `nonce_*` functions are the width-1 case.

Masking splits into an offline base and an online delta, as pairwise
masks depend only on the secret, the round and the membership:
`mask_base` computes a round's `EdgeMasks` ahead of time for a membership
known then, and `mask_delta` moves them to the membership at release,
backing out the masks of pairs with an end no longer live and adding
those of pairs that became candidates. Its work follows the change in
membership: it finds the pairs with a changed end in one pass over the
table's ends, and reads, selects and masks only those; updating the
parties x width nonces and the degrees is O(parties). `apply_delta` is
its one-party case. Every PRF call goes through `Prf.evaluate_batch`
with one key per pair covering that pair's blocks, every pair's blocks
in one pass of calls of at most `ring.BATCH_BLOCKS` blocks.

The epoch variant ("zeph" on the command line) gives W = floor(128/b) * 2^b
rounds per epoch with expected round degree (N-1)/2^b. Privacy holds as
long as each round's graph restricted to honest parties stays connected;
`disconnect_bound` bounds the failure probability of a random graph and
`optimize_b` picks the segment width that maximizes W subject to it.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

import hashlib

from .ring import (
    BATCH_BLOCKS,
    DOMAIN_EDGE,
    DOMAIN_GRAPH,
    DOMAIN_MASK,
    DOMAIN_SELECT,
    DEFAULT_PRF,
    RING_MASK,
    AesPrf,
    Prf,
    _as_ring_array,
    _keyed_calls,
    prf_input,
)
from .tokens import (
    TransformationToken,
    stream_set_hash,
    token_records,
)

__all__ = [
    "PartyId",
    "PublicIdentity",
    "PairwiseSecrets",
    "PeerTable",
    "IdentityRegistry",
    "UnknownIdentityError",
    "KeyPair",
    "StaticKeyAgreement",
    "EcdhKeyAgreement",
    "setup_pairwise",
    "threshold_for_probability",
    "EpochPlan",
    "graph_bits",
    "plan_epoch",
    "round_peers",
    "round_edges",
    "EdgeMasks",
    "mask_base",
    "mask_delta",
    "nonce_clique",
    "nonce_dream",
    "nonce_zeph",
    "MembershipDelta",
    "apply_delta",
    "mask_vector",
    "mask_edges",
    "MaskedBatch",
    "mask_token",
    "unmask_aggregate",
    "disconnect_bound",
    "OptimizationResult",
    "optimize_b",
    "RoundCost",
    "simulate_party_counters",
]

logger = logging.getLogger(__name__)

_U128_MAX = (1 << 128) - 1


class PartyId(tuple):
    """32-byte identity hash; the byte order is the protocol's total order.

    A tuple subclass holding the bytes, so hashing, equality and ordering
    run in C. A PartyId therefore compares equal to the 1-tuple of its
    bytes, `(value,)`.
    """

    __slots__ = ()

    def __new__(cls, value: bytes):
        if len(value) != 32:
            raise ValueError("party id must be 32 bytes")
        return tuple.__new__(cls, (value,))

    def __getnewargs__(self):
        return (self[0],)

    # the raw 32 bytes, read in C
    value = property(itemgetter(0))

    def short(self) -> str:
        return self[0][:6].hex()

    def __repr__(self):
        return f"PartyId({self.short()})"


@dataclass(frozen=True)
class PublicIdentity:
    """What a party publishes: its id (hash of the material) and material."""

    party_id: PartyId
    material: bytes


class UnknownIdentityError(KeyError):
    """A referenced party id has no registered public identity."""


class IdentityRegistry:
    """Trusted directory mapping party ids to public key material."""

    def __init__(self):
        self._entries: dict[PartyId, PublicIdentity] = {}
        self._raw_ids: set[bytes] = set()

    def register(self, identity: PublicIdentity) -> None:
        existing = self._entries.get(identity.party_id)
        if existing is not None and existing.material != identity.material:
            raise ValueError(f"conflicting registration for {identity.party_id!r}")
        self._entries[identity.party_id] = identity
        self._raw_ids.add(identity.party_id.value)

    def get(self, party_id: PartyId) -> PublicIdentity:
        try:
            return self._entries[party_id]
        except KeyError:
            raise UnknownIdentityError(party_id) from None

    def __contains__(self, party_id: PartyId) -> bool:
        return party_id in self._entries

    def knows_all(self, raw_ids: Iterable[bytes]) -> bool:
        """Whether every raw 32-byte id is registered; anything else,
        malformed ids included, is unknown."""
        return self._raw_ids.issuperset(raw_ids)

    def __len__(self):
        return len(self._entries)


class KeyPair:
    """One party's key-agreement state."""

    party_id: PartyId

    def public_identity(self) -> PublicIdentity:
        raise NotImplementedError

    def derive_shared(self, peer: PublicIdentity) -> bytes:
        """16-byte pairwise secret, symmetric in the two parties."""
        raise NotImplementedError

    @staticmethod
    def derive_pairs(keypairs, public, low, high, prf: Prf = DEFAULT_PRF) -> np.ndarray:
        """The secrets of many pairs of one group, as pairs x 16 `uint8`:
        row i is `keypairs[low[i]].derive_shared(public[high[i]])`, where
        `public[j]` is the `PublicIdentity` of `keypairs[j]` and `low` and
        `high` are integer arrays. This default derives pair by pair and
        spends nothing through `prf`; a key pair type whose secrets batch
        overrides it."""
        pairs = zip(low.tolist(), high.tolist())
        joined = b"".join(keypairs[a].derive_shared(public[b]) for a, b in pairs)
        return np.frombuffer(joined, np.uint8).reshape(-1, 16)


def _static_secrets(materials: Sequence[bytes], low, high, prf: Prf) -> np.ndarray:
    """The static double's secrets of the pairs (`low[i]`, `high[i]`) of
    `materials`: one PRF block per pair, keyed by the first 16 bytes of the
    lower of its two materials in byte order, on the first 16 bytes of the
    higher, in calls of at most `BATCH_BLOCKS` pairs."""
    n = len(materials)
    rank = np.empty(n, dtype=np.intp)
    rank[sorted(range(n), key=materials.__getitem__)] = np.arange(n)
    heads = np.frombuffer(b"".join(m[:16] for m in materials), np.uint8).reshape(n, 16)
    out = np.empty((len(low), 16), dtype=np.uint8)
    for lo in range(0, len(low), BATCH_BLOCKS):
        a, b = low[lo : lo + BATCH_BLOCKS], high[lo : lo + BATCH_BLOCKS]
        first = rank[a] < rank[b]
        keys, msgs = heads[np.where(first, a, b)], heads[np.where(first, b, a)]
        out[lo : lo + len(a)] = prf.evaluate_batch(keys, msgs.reshape(-1)).view(np.uint8)
    return out


_ONE_PAIR = (np.zeros(1, dtype=np.intp), np.ones(1, dtype=np.intp))


class _StaticKeyPair(KeyPair):
    def __init__(self, seed: bytes):
        self._seed = seed
        material = hashlib.sha256(b"static-pub\x00" + seed).digest()
        self._material = material
        self.party_id = PartyId(hashlib.sha256(material).digest())

    def public_identity(self) -> PublicIdentity:
        return PublicIdentity(self.party_id, self._material)

    def derive_shared(self, peer: PublicIdentity) -> bytes:
        materials = (self._material, peer.material)
        return _static_secrets(materials, *_ONE_PAIR, DEFAULT_PRF).tobytes()

    @staticmethod
    def derive_pairs(keypairs, public, low, high, prf: Prf = DEFAULT_PRF) -> np.ndarray:
        return _static_secrets([p.material for p in public], low, high, prf)


class StaticKeyAgreement:
    """Deterministic key-agreement double for tests and simulations.

    A pair's secret is one fixed-key AES PRF block of the two public
    materials (`_static_secrets`), so it is symmetric, reproducible from a
    seed, and a whole group's secrets take one array pass. Anyone can
    compute it from the public materials: this offers no secrecy at all
    and exists to keep large simulated deployments cheap and deterministic.
    """

    def generate(self, seed: bytes) -> KeyPair:
        return _StaticKeyPair(seed)

    public_material_size = 32


class _EcdhKeyPair(KeyPair):
    def __init__(self, private_key):
        self._private = private_key
        self._material = private_key.public_key().public_bytes(
            serialization.Encoding.X962, serialization.PublicFormat.UncompressedPoint
        )
        self.party_id = PartyId(hashlib.sha256(self._material).digest())

    def public_identity(self) -> PublicIdentity:
        return PublicIdentity(self.party_id, self._material)

    def derive_shared(self, peer: PublicIdentity) -> bytes:
        peer_key = ec.EllipticCurvePublicKey.from_encoded_point(
            ec.SECP256R1(), peer.material
        )
        raw = self._private.exchange(ec.ECDH(), peer_key)
        return HKDF(
            algorithm=hashes.SHA256(),
            length=16,
            salt=None,
            info=b"veilstream pairwise v1",
        ).derive(raw)


class EcdhKeyAgreement:
    """Real instantiation: ECDH on secp256r1, HKDF-SHA256 to 16 bytes.

    Party ids are the SHA-256 hash of the uncompressed public point, which
    also yields the total order that decides which end of a pair adds its
    mask.
    """

    def generate(self, seed: bytes = b"") -> KeyPair:
        return _EcdhKeyPair(ec.generate_private_key(ec.SECP256R1()))

    public_material_size = 65


def setup_pairwise(
    keypair: KeyPair,
    registry: IdentityRegistry,
    peers: Iterable[PartyId],
) -> "PairwiseSecrets":
    """Resolve peers in the registry and derive all pairwise secrets."""
    secrets = {}
    for pid in peers:
        if pid == keypair.party_id:
            continue
        secrets[pid] = keypair.derive_shared(registry.get(pid))
    return PairwiseSecrets(keypair.party_id, secrets)


class PairwiseSecrets:
    """One party's pairwise secrets as arrays, one row per peer.

    Peers are sorted by party id. Row i of `keys` (peers x 16 `uint8`) is
    the secret shared with `peers[i]`. The party adds the masks of the
    peers whose ids sort above its own and subtracts the others', fixed by
    the total order on party ids so both endpoints of an edge agree.
    """

    def __init__(self, self_id: PartyId, secrets: Mapping[PartyId, bytes]):
        if self_id in secrets:
            raise ValueError("a party does not share a secret with itself")
        if any(len(s) != 16 for s in secrets.values()):
            raise ValueError("pairwise secrets must be 16 bytes")
        self.self_id = self_id
        self.peers = tuple(sorted(secrets))
        joined = b"".join(map(secrets.__getitem__, self.peers))
        self.keys = np.frombuffer(joined, np.uint8).reshape(-1, 16)

    def __len__(self):
        return len(self.peers)


def _own_ends(secrets: PairwiseSecrets) -> tuple[np.ndarray, np.ndarray]:
    """Each peer's pair as the low and high end in a three-row nonce
    matrix: the peers below the party are row 0, the party row 1 and the
    peers above it row 2, so row 1 gets the party's nonce."""
    above = np.arange(len(secrets.peers)) >= bisect_left(secrets.peers, secrets.self_id)
    low = above.astype(np.intp)
    return low, low + 1


class PeerTable:
    """Pairwise secrets of disjoint groups of parties, as one row per
    unordered pair of a group, for rounds batched over the parties.

    Built from each group's key pairs, `parties` in the given order, group
    after group: every party's public identity is resolved through
    `registry.get` (an unknown one raises `UnknownIdentityError`), and each
    group's secrets come from one `derive_pairs` of its key pairs' type, or
    of `KeyPair` (the per-pair `derive_shared` loop) when its types differ,
    spending any PRF blocks through `prf`. Rows run group by group and,
    within a group, by the pair's lower id and then its higher id, so each
    party's rows as the lower id are contiguous, which `mask_edges` relies
    on. `keys` (pairs x 16 `uint8`) holds each pair's secret, and `low`
    and `high` the indices into `parties` of its lower id, which adds the
    pair's mask, and its higher id, which subtracts it. Group g holds the
    parties `bounds[g]` to `bounds[g + 1]`. One group of key pairs is
    `PeerTable([keypairs], ...)`.
    """

    def __init__(
        self, groups: Sequence[Sequence[KeyPair]], registry: IdentityRegistry, prf: Prf = DEFAULT_PRF
    ):
        keypairs = [kp for group in groups for kp in group]
        self.parties = tuple(kp.party_id for kp in keypairs)
        if len(set(self.parties)) != len(self.parties):
            raise ValueError("a party appears twice in the table")
        sizes = [len(group) for group in groups]
        starts = np.cumsum([0, *sizes]).tolist()
        # every group's parties in id order, group after group
        ranked = [
            i
            for start, n in zip(starts, sizes)
            for i in sorted(range(start, start + n), key=self.parties.__getitem__)
        ]
        public = [registry.get(self.parties[i]) for i in ranked]
        order = np.array(ranked, dtype=np.intp)
        pairs = sum(n * (n - 1) // 2 for n in sizes)
        self.keys = np.empty((pairs, 16), dtype=np.uint8)
        self.low = np.empty(pairs, dtype=np.intp)
        self.high = np.empty(pairs, dtype=np.intp)
        row = 0
        for start, n in zip(starts, sizes):
            a, b = np.triu_indices(n, 1)
            rows = slice(row, row + len(a))
            row = rows.stop
            group = [keypairs[i] for i in ranked[start : start + n]]
            kinds = {type(kp) for kp in group}
            derive = kinds.pop().derive_pairs if len(kinds) == 1 else KeyPair.derive_pairs
            self.keys[rows] = derive(group, public[start : start + n], a, b, prf)
            self.low[rows], self.high[rows] = order[a + start], order[b + start]
        self.bounds = np.array(starts, dtype=np.intp)

    def __len__(self):
        return len(self.keys)


def _warn_unprotected(round_index: int, party: PartyId) -> None:
    logger.warning(
        "round %d has no active peers for %r; nonce is zero and this "
        "party's token is unprotected against a curious server",
        round_index,
        party,
    )


def threshold_for_probability(p: float) -> int:
    """128-bit comparison threshold c with P[draw <= c] equal to p.

    For p = 2**-b the probability is exact; in general it is within one
    part in 2**128.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    return min(_U128_MAX, round(p * (1 << 128))) - 1


@dataclass(frozen=True, eq=False)
class EpochPlan:
    """One party's precomputed round graph for an epoch, or a `PeerTable`'s.

    Row i of `bits` holds the 128 output bits of the graph PRF for
    `peers[i]`, or for pair row i of a table, most significant first.
    Bits s*b .. s*b+b-1 are segment s; a segment holding value g
    activates the shared edge in round s * 2**b + g, so each edge is
    active in exactly one round per segment.
    """

    epoch_id: int
    b: int
    peers: tuple[PartyId, ...]  # sorted, as `PairwiseSecrets.peers`; () for a table
    bits: np.ndarray = field(repr=False)

    @property
    def segments(self) -> int:
        return 128 // self.b

    @property
    def width(self) -> int:
        """Rounds per epoch."""
        return self.segments << self.b

    def round_mask(self, round_index: int, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Boolean per peer, or per row of `rows` when given: is the edge
        active in this round? One comparison of segment round_index >> b
        against the round's low b bits, over those rows only."""
        if not 0 <= round_index < self.width:
            raise ValueError(f"round {round_index} outside epoch of {self.width} rounds")
        b = self.b
        start = (round_index >> b) * b
        low = (round_index & ((1 << b) - 1)).to_bytes(16, "big")
        value = np.unpackbits(np.frombuffer(low, np.uint8))[128 - b :]
        segment = self.bits[:, start : start + b]
        if rows is not None:
            segment = segment[rows]
        return (segment == value).all(axis=1)

    def active_in_round(self, peer: PartyId, round_index: int) -> bool:
        """Whether the edge to `peer` is active in the round, on one
        party's plan; a table's plan, whose rows are pairs, raises
        `ValueError`."""
        if len(self.peers) != len(self.bits):
            raise ValueError("a table's plan has pair rows, not peers; use round_mask")
        i = bisect_left(self.peers, peer)
        found = i < len(self.peers) and self.peers[i] == peer
        return found and bool(self.round_mask(round_index)[i])


def graph_bits(keys: np.ndarray, epoch_id: int, *, prf: Prf = DEFAULT_PRF) -> np.ndarray:
    """The epoch graph PRF output under each pairwise secret (row of
    `keys`, rows x 16 `uint8`) as a rows x 128 bit matrix, most
    significant bit first: one block per row, `BATCH_BLOCKS` per call."""
    msg = prf_input(DOMAIN_GRAPH, 0, epoch_id)
    bits = np.empty((len(keys), 128), dtype=np.uint8)
    for lo, words in _keyed_calls(keys, msg, prf):
        # big-endian words: their bytes are the outputs, first byte first
        raw = words.reshape(-1, 2).view(np.uint8)
        bits[lo : lo + len(raw)] = np.unpackbits(raw, axis=1)
    return bits


def plan_epoch(
    secrets: PairwiseSecrets,
    epoch_id: int,
    b: int,
    *,
    prf: Prf = DEFAULT_PRF,
) -> EpochPlan:
    """Derive the epoch's round graph: one PRF block per peer, all in one
    call (`graph_bits`).

    The 128-bit output for a peer is cut into floor(128/b) segments of b
    bits each (leftover low bits unused); both endpoints derive the same
    segments from the shared secret, so the graphs agree globally. A
    `PeerTable` plans every pair of the table the same way, once.
    """
    if not 1 <= b <= 128:
        raise ValueError(f"segment width must be in [1, 128], got {b}")
    bits = graph_bits(secrets.keys, epoch_id, prf=prf)
    bits.setflags(write=False)
    return EpochPlan(epoch_id=epoch_id, b=b, peers=secrets.peers, bits=bits)


def _selected(words: np.ndarray, threshold: int) -> np.ndarray:
    """The dream selection rule: for each PRF output, given as its high
    and low 64 bits (`words`, ... x 2), is it at most `threshold`?
    Threshold -1 (p = 0) selects nothing."""
    words = words.reshape(-1, 2)
    if threshold < 0:
        return np.zeros(len(words), dtype=bool)
    hi, lo = np.uint64(threshold >> 64), np.uint64(threshold & RING_MASK)
    return (words[:, 0] < hi) | ((words[:, 0] == hi) & (words[:, 1] <= lo))


def _round_rows(keys, rows, round_index, plan, threshold, prf) -> np.ndarray:
    """Of the candidate `rows` (ascending indices into `keys`, or into the
    plan's rows), those whose edge masks enter the round: every candidate
    (clique), the plan's edges for the round (zeph), or the candidates
    whose selection draw is at most `threshold` (dream), one PRF block per
    candidate in one pass of `_keyed_calls`."""
    if plan is not None:
        return rows[plan.round_mask(round_index % plan.width, rows)]
    if threshold is None:
        return rows
    msg = prf_input(DOMAIN_SELECT, 0, round_index)
    selected = np.empty(len(rows), dtype=bool)
    for lo, words in _keyed_calls(keys[rows], msg, prf):
        selected[lo : lo + len(words)] = _selected(words, threshold)
    return rows[selected]


def round_peers(
    secrets: PairwiseSecrets,
    round_index: int,
    *,
    members=None,
    plan: Optional[EpochPlan] = None,
    threshold: Optional[int] = None,
    prf: Prf = DEFAULT_PRF,
) -> list[PartyId]:
    """The peers whose edge masks enter this party's nonce in a round: the
    one-party case of `round_edges`, through the same selection rules.

    With neither `plan` nor `threshold` (clique) that is every live peer.
    With `threshold` (dream) it is each live peer whose selection draw on
    the shared secret is at most the threshold: one PRF block per live
    peer, all in one call, and both endpoints draw the same value. With
    `plan` (zeph) it is the plan's peers for round `round_index %
    plan.width`, at no PRF cost. `members`, when given, holds the live
    parties.

    An empty result leaves the token unmasked by this party; that is a
    connectivity failure of the round graph, logged as such, and the
    parameter optimizer exists to make it vanishingly rare.
    """
    peers = secrets.peers if plan is None else plan.peers
    if members is None:
        rows = np.arange(len(peers))
    else:
        members = frozenset(members)
        live = np.fromiter((p in members for p in peers), bool, count=len(peers))
        rows = np.flatnonzero(live)
    rows = _round_rows(secrets.keys, rows, round_index, plan, threshold, prf)
    if not len(rows):
        _warn_unprotected(round_index, secrets.self_id)
    return [peers[i] for i in rows]


def round_edges(
    table: PeerTable,
    live: np.ndarray,
    round_index: int,
    *,
    plan: Optional[EpochPlan] = None,
    threshold: Optional[int] = None,
    prf: Prf = DEFAULT_PRF,
) -> np.ndarray:
    """`round_peers` for every party of a table at once: the pair rows of
    `table` whose edge masks enter the round, ascending.

    `live` is a boolean per party of `table.parties`; a pair is a candidate
    when both its ends are live. Clique keeps every candidate, dream draws
    every candidate's selection block in one pass, and zeph reads `plan`,
    whose rows must be the table's. Every live party left without a pair
    is logged as a connectivity failure, as `round_peers` logs it.
    """
    live = np.asarray(live, dtype=bool)
    rows = np.flatnonzero(live[table.low] & live[table.high])
    rows = _round_rows(table.keys, rows, round_index, plan, threshold, prf)
    _warn_isolated(table, live, _degree(table, rows), round_index)
    return rows


def _degree(table: PeerTable, rows: np.ndarray) -> np.ndarray:
    """Each party's count of the pair `rows` it is an end of."""
    ends = np.concatenate((table.low[rows], table.high[rows]))
    return np.bincount(ends, minlength=len(table.parties))


def _warn_isolated(table: PeerTable, live: np.ndarray, degree: np.ndarray, round_index: int):
    """Log every live party of `table` whose `degree`, its pairs in the
    round, is zero."""
    for i in np.flatnonzero(live & (degree == 0)):
        _warn_unprotected(round_index, table.parties[i])


class EdgeMasks(NamedTuple):
    """A round's pairwise masks over a `PeerTable` for one live set: the
    round, `live` (a boolean per party), `selected` (a boolean per pair
    row: does its mask enter the round?), `degree` (the selected pairs
    each party is an end of) and the parties x width nonce matrix the
    selected pairs sum to (`mask_edges`). `changed` counts the pairs whose
    masks the step that made them added or backed out; each enters two
    nonce rows."""

    round_index: int
    live: np.ndarray
    selected: np.ndarray
    degree: np.ndarray
    nonces: np.ndarray
    changed: int

    @property
    def rows(self) -> np.ndarray:
        """The selected pair rows, ascending, as `round_edges` gives them."""
        return np.flatnonzero(self.selected)

    @classmethod
    def empty(cls, table: PeerTable, round_index: int, width: int) -> "EdgeMasks":
        """The round's masks with no party live: no rows, zero nonces."""
        parties = len(table.parties)
        return cls(
            round_index,
            np.zeros(parties, dtype=bool),
            np.zeros(len(table), dtype=bool),
            np.zeros(parties, dtype=np.intp),
            np.zeros((parties, width), dtype=np.uint64),
            0,
        )


def mask_base(
    table: PeerTable,
    live: np.ndarray,
    round_index: int,
    width: int,
    *,
    plan: Optional[EpochPlan] = None,
    threshold: Optional[int] = None,
    prf: Prf = DEFAULT_PRF,
) -> EdgeMasks:
    """A round's masks computed ahead of the round for the live set `live`:
    the delta from the empty membership, with the rows and nonces of
    `round_edges` and `mask_edges` over `live`. The zeph plan's rows for
    `live`'s parties must be derived. Logs nothing: a base is a forecast,
    and connectivity is judged on the membership `mask_delta` applies."""
    return _delta(table, EdgeMasks.empty(table, round_index, width), live, plan, threshold, prf)


def mask_delta(
    table: PeerTable,
    base: EdgeMasks,
    live: np.ndarray,
    *,
    plan: Optional[EpochPlan] = None,
    threshold: Optional[int] = None,
    prf: Prf = DEFAULT_PRF,
) -> EdgeMasks:
    """Move a round's masks from the base's live set to `live`.

    Only the pairs with an end whose liveness changed can change: each
    changed party's pair with every other party. Of those, the selected
    ones lose their masks (an end is no longer live), and the ones that
    are candidates now (both ends live) were none in the base: the round's
    selection (`plan` for zeph, `threshold` for dream, neither for clique)
    runs on them alone, so dream draws only for them, and the masks of the
    pairs selected are added. Finding those pairs is one boolean pass over
    the table's pair ends, and the row selection is copied once; updating
    the nonce matrix and the degrees and the connectivity check are
    O(parties); reading, selecting and masking are O(changed pairs). An
    unchanged membership returns the base's nonces with no pass and at no
    PRF cost. The result equals `mask_edges` over `round_edges` for `live`
    exactly, since the ring arithmetic is exact, and every live party left
    without a pair is logged as `round_edges` logs it.
    """
    masks = _delta(table, base, live, plan, threshold, prf)
    _warn_isolated(table, masks.live, masks.degree, masks.round_index)
    return masks


def _delta(table, base, live, plan, threshold, prf) -> EdgeMasks:
    """`mask_delta` without its connectivity log."""
    live = np.asarray(live, dtype=bool)
    changed = live != base.live
    if not changed.any():
        return base._replace(changed=0)
    touched = np.flatnonzero(changed[table.low] | changed[table.high])
    # a selected pair with a changed end lost that end; a candidate pair
    # with a changed end gained it
    gone = touched[base.selected[touched]]
    fresh = touched[live[table.low[touched]] & live[table.high[touched]]]
    nonces, added = _change_masks(
        table.keys,
        table.low,
        table.high,
        base.nonces,
        gone,
        fresh,
        base.round_index,
        plan,
        threshold,
        prf,
    )
    selected = base.selected.copy()
    selected[gone] = False
    selected[added] = True
    degree = base.degree - _degree(table, gone) + _degree(table, added)
    return EdgeMasks(
        base.round_index, live, selected, degree, nonces, len(gone) + len(added)
    )


def _change_masks(keys, low, high, nonces, gone, fresh, round_index, plan, threshold, prf):
    """`nonces` less the masks of pair rows `gone`, plus those of the rows
    of `fresh` (candidate rows) the round selects, in one `mask_edges`
    pass onto a copy of `nonces`: a gone pair enters with its ends
    swapped, as backing out a mask adds it with the signs exchanged. The
    mask domain follows `plan`. Returns the new nonces and the rows
    added."""
    added = _round_rows(keys, fresh, round_index, plan, threshold, prf)
    rows = np.concatenate((gone, added))
    adds = np.concatenate((high[gone], low[added]))
    subtracts = np.concatenate((low[gone], high[added]))
    if len(gone):
        # the added rows come grouped by the end that adds, the gone rows
        # do not
        order = np.argsort(adds)
        rows, adds, subtracts = rows[order], adds[order], subtracts[order]
    nonces = mask_edges(
        keys[rows],
        adds,
        subtracts,
        len(nonces),
        nonces.shape[1],
        epoch_id=None if plan is None else plan.epoch_id,
        round_index=round_index,
        prf=prf,
        out=nonces.copy(),
    )
    return nonces, added


def _nonce(secrets, peers, round_index, plan, prf) -> int:
    """Scalar nonce over `peers`: lane 0 of their width-1 mask vector, in
    the epoch mask domain when a zeph plan schedules the round."""
    lanes = mask_vector(
        secrets,
        peers,
        1,
        epoch_id=None if plan is None else plan.epoch_id,
        round_index=round_index,
        prf=prf,
    )
    return int(lanes[0])


def nonce_clique(
    secrets: PairwiseSecrets,
    round_index: int,
    *,
    prf: Prf = DEFAULT_PRF,
    members=None,
) -> int:
    """Round nonce over every live peer: N-1 PRF blocks."""
    peers = round_peers(secrets, round_index, members=members, prf=prf)
    return _nonce(secrets, peers, round_index, None, prf)


def nonce_dream(
    secrets: PairwiseSecrets,
    round_index: int,
    threshold: int,
    *,
    prf: Prf = DEFAULT_PRF,
    members=None,
) -> int:
    """Round nonce over a random peer subset drawn per round.

    Each live peer costs one selection draw; selected edges cost one
    further PRF block for the mask, so a round totals N-1+l blocks.
    """
    peers = round_peers(
        secrets, round_index, members=members, threshold=threshold, prf=prf
    )
    return _nonce(secrets, peers, round_index, None, prf)


def nonce_zeph(
    plan: EpochPlan,
    secrets: PairwiseSecrets,
    round_index: int,
    *,
    prf: Prf = DEFAULT_PRF,
    members=None,
) -> int:
    """Round nonce over the epoch plan's active edges: deg(r) PRF blocks."""
    peers = round_peers(secrets, round_index, members=members, plan=plan, prf=prf)
    return _nonce(secrets, peers, round_index, plan, prf)


@dataclass(frozen=True)
class MembershipDelta:
    """Round-scoped membership change broadcast by the coordinator."""

    round_index: int
    joined: frozenset
    dropped: frozenset

    def __post_init__(self):
        if self.joined & self.dropped:
            raise ValueError("a party cannot both join and drop in one delta")

    def wire_size(self) -> int:
        return 16 + 32 * (len(self.joined) + len(self.dropped))


def apply_delta(
    plan: Optional[EpochPlan],
    secrets: PairwiseSecrets,
    base_nonce: int,
    delta: MembershipDelta,
    round_index: int,
    *,
    threshold: Optional[int] = None,
    prf: Prf = DEFAULT_PRF,
) -> int:
    """Correct a round nonce for late membership changes: the one-party,
    width-1 case of `mask_delta`.

    `base_nonce` is the party's nonce over a membership that holds the
    dropped parties and not the joined ones. Returns base - mask(dropped
    edges in the round) + mask(joined edges in the round), each edge
    selected as `round_peers` selects it: by `plan` (zeph), by
    `threshold` (dream) or always (clique). Only listed parties cost PRF
    blocks: a mask block per listed edge in the round, and for dream a
    selection draw per listed party. The party is never its own peer.
    """
    peers = secrets.peers
    dropped, joined = (
        np.flatnonzero(np.fromiter((p in group for p in peers), bool, count=len(peers)))
        for group in (delta.dropped, delta.joined)
    )
    # the base's rows to dropped peers: those the round selected
    gone = _round_rows(secrets.keys, dropped, round_index, plan, threshold, prf)
    nonces, _ = _change_masks(
        secrets.keys,
        *_own_ends(secrets),
        np.array([[0], [base_nonce & RING_MASK], [0]], dtype=np.uint64),
        gone,
        joined,
        round_index,
        plan,
        threshold,
        prf,
    )
    return int(nonces[1, 0])


def _peer_row(peers: Sequence[PartyId], party: PartyId) -> int:
    """Index of `party` in the sorted `peers`, by bisection."""
    i = bisect_left(peers, party)
    if i == len(peers) or peers[i] != party:
        raise KeyError(party)
    return i


def mask_vector(
    secrets: PairwiseSecrets,
    peers: Sequence[PartyId],
    width: int,
    *,
    epoch_id: Optional[int] = 0,
    round_index: int,
    prf: Prf = DEFAULT_PRF,
) -> np.ndarray:
    """Element-wise nonce vector of one party over `peers`: the one-party
    case of `mask_edges`. Peers must already be filtered to the round's
    active membership (see `round_peers`); a party that is not one of
    `secrets.peers` raises `KeyError`."""
    rows = np.fromiter((_peer_row(secrets.peers, p) for p in peers), np.intp, count=len(peers))
    rows.sort()  # grouped by low end
    low, high = _own_ends(secrets)
    return mask_edges(
        secrets.keys[rows],
        low[rows],
        high[rows],
        3,
        width,
        epoch_id=epoch_id,
        round_index=round_index,
        prf=prf,
    )[1]


def mask_edges(
    keys: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    parties: int,
    width: int,
    *,
    epoch_id: Optional[int] = 0,
    round_index: int,
    prf: Prf = DEFAULT_PRF,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Several parties' nonce vectors for a round, as a parties x width
    uint64 matrix, or added in place onto `out`, which is returned.

    Pair e, with pairwise secret `keys[e]`, adds its mask to row `low[e]`,
    its lower id, and subtracts it from row `high[e]`; the pairs of one
    low end must be contiguous, and a party without pairs gets a zero row
    (keeps its row of `out`).
    This is the one definition of an edge mask: lane k of a pair is the
    high (k even) or low (k odd) 64 bits of the pair's PRF block k // 2,
    so a pair costs ceil(width/2) PRF blocks, evaluated once for both
    ends, and a scalar nonce is lane 0. Every pair's blocks go through one
    pass of PRF calls (at most `BATCH_BLOCKS` blocks each). Each call's
    lanes are summed per low end by one `np.add.reduceat` and, in a sort
    of the call's high ends, per high end by a second. An integer
    `epoch_id` selects the epoch mask domain (zeph), `None` the per-round
    edge domain (clique and dream).
    """
    blocks = (width + 1) // 2
    msgs = np.empty((blocks, 2), dtype=">u8")
    if epoch_id is None:
        msgs[:, 0] = (DOMAIN_EDGE << 56) + np.arange(blocks, dtype=np.uint64)
    else:
        if epoch_id >> 40:
            raise ValueError("epoch id exceeds 40 bits")
        if blocks >> 16:
            raise ValueError("mask block index exceeds 16 bits")
        msgs[:, 0] = (DOMAIN_MASK << 56) | (epoch_id << 16) | np.arange(blocks, dtype=np.uint64)
    msgs[:, 1] = round_index
    nonces = np.zeros((parties, width), dtype=np.uint64) if out is None else out
    for lo, words in _keyed_calls(keys, msgs.tobytes(), prf):
        lanes = words.reshape(len(words), 2 * blocks)[:, :width].astype(np.uint64)
        hi = lo + len(lanes)
        ends = low[lo:hi]
        starts = _run_starts(ends)
        nonces[ends[starts]] += np.add.reduceat(lanes, starts, axis=0)
        order = np.argsort(high[lo:hi])
        ends = high[lo:hi][order]
        starts = _run_starts(ends)
        nonces[ends[starts]] -= np.add.reduceat(lanes[order], starts, axis=0)
    return nonces


def _run_starts(ends: np.ndarray) -> np.ndarray:
    """The index of the first element of each run of equal values."""
    first = np.empty(len(ends), dtype=bool)
    first[:1] = True
    np.not_equal(ends[1:], ends[:-1], out=first[1:])
    return np.flatnonzero(first)


# Before each token's wire record: the round and epoch as u64, then the
# 32-byte party id, all little-endian.
_MASKED_HEADER = (("round", "<u8"), ("epoch", "<u8"), ("party", "V32"))


@dataclass(frozen=True, eq=False)
class MaskedBatch:
    """Blinded partial tokens of one round, one row per party: what the
    controllers of a plan's members send for one release.

    Row i of `elements` (parties x outputs, uint64) is the blinded token of
    `parties[i]` over the stream set `stream_set_ids[i]`. `stream_ids`,
    when known, lists the streams of every row; like a token's, it stays
    in memory and never goes on the wire.
    """

    round_index: int
    epoch_id: int
    window: tuple[int, int]
    parties: tuple[PartyId, ...]
    stream_set_ids: tuple[bytes, ...]
    elements: np.ndarray = field(repr=False)
    noised: bool = False
    stream_ids: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if not self.parties:
            raise ValueError("need at least one masked token")
        elements = self.elements
        if elements.dtype != np.uint64 or elements.ndim != 2 or len(elements) != len(self.parties):
            raise ValueError("elements must be a uint64 matrix with one row per party")
        if len(self.stream_set_ids) != len(self.parties):
            raise ValueError("need one stream set id per party")

    @staticmethod
    def concat(batches: Sequence["MaskedBatch"]) -> "MaskedBatch":
        """One round's batches as one, their rows in order; batches of
        different rounds, windows or widths are refused. The stream ids are
        known when every batch knows its own."""
        if not batches:
            raise ValueError("need at least one masked token")
        first = batches[0]
        for batch in batches:
            if (batch.round_index, batch.epoch_id) != (first.round_index, first.epoch_id):
                raise ValueError("masked tokens come from different rounds")
            if batch.window != first.window:
                raise ValueError("masked tokens target different windows")
            if batch.elements.shape[1] != first.elements.shape[1]:
                raise ValueError("masked tokens have different widths")
        known = all(batch.stream_ids is not None for batch in batches)
        return MaskedBatch(
            round_index=first.round_index,
            epoch_id=first.epoch_id,
            window=first.window,
            parties=tuple(p for batch in batches for p in batch.parties),
            stream_set_ids=tuple(s for batch in batches for s in batch.stream_set_ids),
            elements=np.concatenate([batch.elements for batch in batches]),
            noised=any(batch.noised for batch in batches),
            stream_ids=tuple(s for batch in batches for s in batch.stream_ids) if known else None,
        )

    def serialize(self) -> bytes:
        """Every row's wire record, back to back, in one vectorized encode:
        the masked-token header, then the token's own wire record."""
        records = token_records(
            self.window, self.stream_set_ids, self.elements, header=_MASKED_HEADER
        )
        records["round"] = self.round_index
        records["epoch"] = self.epoch_id
        records["party"] = np.frombuffer(b"".join(p.value for p in self.parties), dtype="V32")
        return records.tobytes()


def mask_token(
    token: TransformationToken,
    nonces: Sequence[int],
    *,
    round_index: int,
    epoch_id: int,
    party: PartyId,
) -> MaskedBatch:
    """Blind each token element with the nonce lane at the same position:
    the party's one-row batch."""
    if isinstance(nonces, Mapping):
        # iterating a mapping would blind with its keys
        raise TypeError("nonces must be a sequence aligned with the token")
    if len(nonces) != len(token.elements):
        raise ValueError(
            f"nonce vector length {len(nonces)} != token width {len(token.elements)}"
        )
    return MaskedBatch(
        round_index=round_index,
        epoch_id=epoch_id,
        window=(token.window_start, token.window_end),
        parties=(party,),
        stream_set_ids=(token.stream_set_id,),
        elements=np.array([token.elements], dtype=np.uint64) + _as_ring_array(nonces),
        noised=token.noised,
        stream_ids=token.stream_ids,
    )


def unmask_aggregate(
    masked: "MaskedBatch | Sequence[MaskedBatch]",
    *,
    stream_ids: Optional[Iterable[str]] = None,
) -> TransformationToken:
    """Sum the blinded partial tokens of one round: one column sum over a
    `MaskedBatch`, or over the concatenation of several.

    The parties must be distinct. When every participant of the round
    contributed, the pairwise masks pair off and the result is the exact
    element-wise sum of the partial tokens, keyed to the union of their
    stream sets. Nothing here can detect a missing party; the output is
    then uniformly garbled, which is the protocol's privacy backstop.
    """
    batch = masked if isinstance(masked, MaskedBatch) else MaskedBatch.concat(masked)
    if len(set(batch.parties)) != len(batch.parties):
        seen: set[PartyId] = set()
        for party in batch.parties:
            if party in seen:
                raise ValueError(f"duplicate masked token from {party!r}")
            seen.add(party)
    if stream_ids is not None:
        ids = list(stream_ids)
    elif batch.stream_ids is None:
        raise ValueError("stream ids unavailable; pass stream_ids explicitly")
    else:
        ids = list(batch.stream_ids)
    return TransformationToken(
        window_start=batch.window[0],
        window_end=batch.window[1],
        stream_set_id=stream_set_hash(ids),
        elements=tuple(np.sum(batch.elements, axis=0, dtype=np.uint64).tolist()),
        noised=batch.noised,
        stream_ids=tuple(sorted(ids)),
    )


# ---- connectivity analysis and parameter choice ---------------------------


def _log_disconnect_bound(n: int, p: float, rounds: int) -> float:
    """Natural log of the union bound on any of `rounds` G(n, p) graphs
    being disconnected. May exceed 0 (a vacuous bound)."""
    if n < 2:
        raise ValueError(f"need at least two honest parties, got {n}")
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    if rounds < 1:
        raise ValueError(f"rounds must be positive, got {rounds}")
    if p == 1.0:
        return -math.inf
    if p == 0.0:
        return math.inf
    j = np.arange(1, n // 2 + 1, dtype=np.float64)
    # term_j = ((e*n/j) * (1-p)^(n-j))^j, evaluated in log space
    logs = j * (1.0 + math.log(n) - np.log(j) + (n - j) * math.log1p(-p))
    m = float(logs.max())
    return math.log(rounds) + m + math.log(float(np.exp(logs - m).sum()))


def disconnect_bound(n: int, p: float, rounds: int = 1) -> float:
    """Upper bound on the probability that any of `rounds` independent
    G(n, p) graphs is disconnected, clamped to [0, 1] for reporting.

    The per-graph bound sums, over component sizes j up to n/2, the terms
    ((e*n/j) * (1-p)^(n-j))^j; the rounds multiply in by a union bound.
    Evaluation stays in log space so large n and extreme p are exact.
    """
    lb = _log_disconnect_bound(n, p, rounds)
    if lb >= 0:
        return 1.0
    return math.exp(lb)


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of the epoch parameter search."""

    feasible: bool
    parties: int
    honest_count: int
    failure_budget: float
    b: Optional[int] = None
    rounds: Optional[int] = None
    edge_probability: Optional[float] = None
    expected_degree: Optional[float] = None
    bound: Optional[float] = None


def optimize_b(
    parties: int,
    colluding_fraction: float,
    failure_budget: float,
    *,
    prf_bits: int = 128,
) -> OptimizationResult:
    """Choose the segment width b maximizing rounds per epoch.

    With b-bit segments an epoch spans floor(prf_bits/b) * 2^b rounds and
    each edge is active with per-round probability 2^-b. Feasibility
    requires the union disconnect bound over the whole epoch, restricted
    to the honest parties (the ceil((1-colluding_fraction) * N) survivors
    of the worst tolerated collusion), to stay within the failure budget.
    Ties on rounds prefer the denser graph.
    """
    if parties < 2:
        raise ValueError(f"need at least two parties, got {parties}")
    if not 0 <= colluding_fraction < 1:
        raise ValueError(f"colluding fraction must be in [0, 1), got {colluding_fraction}")
    if not 0 < failure_budget < 1:
        raise ValueError(f"failure budget must be in (0, 1), got {failure_budget}")
    honest = math.ceil((1.0 - colluding_fraction) * parties)
    base = OptimizationResult(
        feasible=False,
        parties=parties,
        honest_count=honest,
        failure_budget=failure_budget,
    )
    if honest < 2:
        return base
    log_budget = math.log(failure_budget)
    best: Optional[tuple[int, int]] = None  # (rounds, b)
    for b in range(1, prf_bits + 1):
        rounds = (prf_bits // b) << b
        if best is not None and rounds <= best[0]:
            continue
        if _log_disconnect_bound(honest, 2.0 ** -b, rounds) <= log_budget:
            best = (rounds, b)
    if best is None:
        return base
    rounds, b = best
    p = 2.0 ** -b
    return OptimizationResult(
        feasible=True,
        parties=parties,
        honest_count=honest,
        failure_budget=failure_budget,
        b=b,
        rounds=rounds,
        edge_probability=p,
        expected_degree=(parties - 1) * p,
        bound=disconnect_bound(honest, p, rounds),
    )


# ---- single-party cost benchmark -------------------------------------------

@dataclass(frozen=True)
class RoundCost:
    """One round of a single party's accounting in the cost benchmark."""

    round_index: int
    active_peers: int
    degree: int
    prf_calls: int
    additions: int


def simulate_party_counters(
    parties: int,
    rounds: int,
    protocol: str,
    *,
    b: Optional[int] = None,
    dropout: float = 0.0,
    seed: int = 0,
    colluding_fraction: float = 0.5,
    failure_budget: float = 1e-7,
) -> list[RoundCost]:
    """Tally one party's per-round protocol costs at population scale.

    Simulates a single party among `parties` across `rounds` rounds and
    counts, per round, the PRF evaluations and ring additions the variant
    requires for a one-element token:

        clique  one mask call and one addition per live peer
        dream   one selection draw per live peer, plus one mask call and
                one addition per selected edge
        zeph    one planning call per peer at each epoch boundary, then
                one mask call and one addition per scheduled live edge

    Every draw is an AES block, the PRF `run` uses. The zeph schedule
    comes from the planner's `graph_bits`; dream draws go through `round_peers`'
    selection rule, one `evaluate_batch` over every peer for a chunk of
    whole rounds, at most `BATCH_BLOCKS` draws (a round of more peers than
    that is split across calls). Mask
    calls are tallied at one per edge, the per-edge cost `mask_vector`
    pays for a scalar token. `dropout` removes each peer independently per
    round. When `b` is omitted the epoch parameters (and the dream edge
    probability, 2**-b) come from `optimize_b`; zeph replays at most
    b = 24. Deterministic given `seed`.
    """
    if parties < 2:
        raise ValueError(f"need at least two parties, got {parties}")
    if rounds < 1:
        raise ValueError(f"rounds must be positive, got {rounds}")
    if not 0 <= dropout < 1:
        raise ValueError(f"dropout must be in [0, 1), got {dropout}")
    if protocol not in ("clique", "dream", "zeph"):
        raise ValueError(f"unknown protocol {protocol!r}")
    peers = parties - 1
    rng = np.random.default_rng(
        np.random.SeedSequence([seed & ((1 << 64) - 1), parties, rounds, len(protocol)])
    )

    if protocol == "clique":
        out = []
        for r in range(rounds):
            alive = int(rng.binomial(peers, 1.0 - dropout)) if dropout else peers
            out.append(RoundCost(r, alive, alive, alive, alive))
        return out

    if b is None:
        opt = optimize_b(parties, colluding_fraction, failure_budget)
        if not opt.feasible:
            raise ValueError(
                f"no feasible epoch parameters for {parties} parties at "
                f"failure budget {failure_budget}"
            )
        b = opt.b
    if not 1 <= b <= 128:
        raise ValueError(f"segment width must be in [1, 128], got {b}")

    prf = AesPrf()
    tag = seed.to_bytes(8, "little", signed=True)
    secrets = b"".join(
        hashlib.sha256(b"bench-secret\x00" + tag + i.to_bytes(8, "little")).digest()[:16]
        for i in range(peers)
    )
    # the party's key matrix, peer i + 1 in row i
    keys = np.frombuffer(secrets, np.uint8).reshape(peers, 16)

    if protocol == "dream":
        threshold = threshold_for_probability(2.0 ** -b)
        step = max(1, BATCH_BLOCKS // peers)
        out = []
        for first in range(0, rounds, step):
            chunk = range(first, min(first + step, rounds))
            msgs = b"".join(prf_input(DOMAIN_SELECT, 0, r) for r in chunk)
            # peer-major: each peer's key once per round of the chunk
            selected = np.empty((peers, len(chunk)), dtype=bool)
            for lo, words in _keyed_calls(keys, msgs, prf):
                hits = _selected(words, threshold)
                selected[lo : lo + len(words)] = hits.reshape(len(words), len(chunk))
            for i, r in enumerate(chunk):
                hits = selected[:, i]
                if dropout:
                    alive_mask = rng.random(peers) >= dropout
                    hits = hits & alive_mask
                    alive = int(alive_mask.sum())
                else:
                    alive = peers
                degree = int(hits.sum())
                out.append(RoundCost(r, alive, degree, alive + degree, degree))
        return out

    # zeph: replay the epoch graph, then walk its round schedule
    if b > 24:
        raise ValueError(
            f"segment width {b} is too wide to replay: a segment's degree "
            "histogram holds 2**b counts, and at most 2**24 are allowed"
        )
    width = (128 // b) << b
    seg_mask = (1 << b) - 1
    weights = 1 << np.arange(b - 1, -1, -1)
    out = []
    for r in range(rounds):
        rel = r % width
        if rel == 0:
            # the epoch's graph: one block per peer
            bits = graph_bits(keys, r // width, prf=prf)
            setup_calls = peers
        else:
            setup_calls = 0
        if rel & seg_mask == 0:
            # entering segment rel >> b: every peer is scheduled once in it
            start = (rel >> b) * b
            degree_hist = np.bincount(
                bits[:, start : start + b] @ weights, minlength=1 << b
            )
        planned = int(degree_hist[rel & seg_mask])
        degree = int(rng.binomial(planned, 1.0 - dropout)) if dropout else planned
        out.append(RoundCost(r, degree, degree, setup_calls + degree, degree))
    return out
