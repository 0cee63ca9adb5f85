"""Dropout-tolerant secure aggregation of transformation tokens.

Every ordered pair of parties shares a pairwise secret from a one-time key
agreement. In a round, party p blinds its token with a nonce that sums one
PRF-derived mask per selected peer, signed by the total order of party
identifiers:

    nonce(p) = sum over peers q with p < q of  +mask(p, q)
             + sum over peers q with p > q of  -mask(p, q)      (mod M)

Summed over any fixed participant set the signs pair off and the masks
cancel, leaving exactly the sum of the tokens. Three peer-selection
variants trade PRF work against connectivity slack:

    clique  every peer, every round
    dream   each round, keep an edge with probability p via one PRF draw,
            then derive the kept edges' masks with a second draw
    epoch   one PRF call per peer per epoch, whose output is split into
            b-bit segments that schedule the edge into one round per
            segment; a round's graph is sparse but known in advance

`round_peers` is the one place these selection rules live and
`mask_vector` the one definition of an edge mask; the scalar `nonce_*`
functions are its width-1 case.

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
from itertools import compress
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

import hashlib

from .ring import (
    DOMAIN_EDGE,
    DOMAIN_GRAPH,
    DOMAIN_MASK,
    DOMAIN_SELECT,
    DEFAULT_PRF,
    RING_MASK,
    CountingPrf,
    Prf,
    SplitMixPrf,
    _as_ring_array,
    prf_input,
)
from .tokens import TransformationToken, serialize_token, stream_set_hash

__all__ = [
    "PartyId",
    "PublicIdentity",
    "PairwiseSecret",
    "PairwiseSecrets",
    "IdentityRegistry",
    "UnknownIdentityError",
    "KeyPair",
    "StaticKeyAgreement",
    "EcdhKeyAgreement",
    "setup_pairwise",
    "threshold_for_probability",
    "EpochPlan",
    "plan_epoch",
    "round_peers",
    "nonce_clique",
    "nonce_dream",
    "nonce_zeph",
    "MembershipDelta",
    "apply_delta",
    "mask_vector",
    "MaskedToken",
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


@dataclass(frozen=True, order=True)
class PartyId:
    """32-byte identity hash; the byte order is the protocol's total order."""

    value: bytes

    def __post_init__(self):
        if len(self.value) != 32:
            raise ValueError("party id must be 32 bytes")

    def short(self) -> str:
        return self.value[:6].hex()

    def __repr__(self):
        return f"PartyId({self.short()})"


@dataclass(frozen=True)
class PublicIdentity:
    """What a party publishes: its id (hash of the material) and material."""

    party_id: PartyId
    material: bytes


@dataclass(frozen=True)
class PairwiseSecret:
    peer: PartyId
    secret: bytes

    def __post_init__(self):
        if len(self.secret) != 16:
            raise ValueError("pairwise secret must be 16 bytes")


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


class _StaticKeyPair(KeyPair):
    def __init__(self, seed: bytes):
        self._seed = seed
        material = hashlib.sha256(b"static-pub\x00" + seed).digest()
        self._material = material
        self.party_id = PartyId(hashlib.sha256(material).digest())

    def public_identity(self) -> PublicIdentity:
        return PublicIdentity(self.party_id, self._material)

    def derive_shared(self, peer: PublicIdentity) -> bytes:
        lo, hi = sorted([self._material, peer.material])
        return hashlib.sha256(b"static-shared\x00" + lo + hi).digest()[:16]


class StaticKeyAgreement:
    """Deterministic key-agreement double for tests and simulations.

    Pairwise secrets are a hash of the two public materials, so they are
    symmetric and reproducible from a seed. This offers no secrecy at all
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
    also yields the total order used for mask signs.
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
    """One party's view of its pairwise secrets, pre-sorted and signed.

    The mask sign for peer q is +1 when self < q and -1 otherwise, fixed by
    the total order on party ids so both endpoints of an edge agree.
    """

    def __init__(self, self_id: PartyId, secrets: Mapping[PartyId, bytes]):
        if self_id in secrets:
            raise ValueError("a party does not share a secret with itself")
        for s in secrets.values():
            if len(s) != 16:
                raise ValueError("pairwise secrets must be 16 bytes")
        self.self_id = self_id
        self._signed = tuple(
            (peer, secrets[peer], self_id < peer) for peer in sorted(secrets)
        )
        self._by_peer = dict(secrets)

    @property
    def peers(self) -> tuple[PartyId, ...]:
        return tuple(p for p, _, _ in self._signed)

    def secret_for(self, peer: PartyId) -> bytes:
        return self._by_peer[peer]

    def sign_for(self, peer: PartyId) -> int:
        return 1 if self.self_id < peer else -1

    def iter_signed(self, members=None):
        """Yield (peer, secret, positive) rows, optionally filtered to a
        membership set."""
        if members is None:
            return iter(self._signed)
        return ((p, s, g) for p, s, g in self._signed if p in members)

    def __len__(self):
        return len(self._signed)


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
    """One party's precomputed round graph for an epoch.

    Row i of `bits` holds the 128 output bits of the graph PRF for
    `peers[i]`, most significant first, as a (peers, 128) uint8 matrix.
    Bits s*b .. s*b+b-1 are segment s; a segment holding value g
    activates the shared edge in round s * 2**b + g, so each edge is
    active in exactly one round per segment.
    """

    epoch_id: int
    b: int
    peers: tuple[PartyId, ...]  # sorted, as `PairwiseSecrets.iter_signed`
    bits: np.ndarray = field(repr=False)

    @property
    def segments(self) -> int:
        return 128 // self.b

    @property
    def width(self) -> int:
        """Rounds per epoch."""
        return self.segments << self.b

    def round_mask(self, round_index: int) -> np.ndarray:
        """Boolean per peer: is the edge active in this round? One
        comparison of segment round_index >> b against the round's low b
        bits, over every row."""
        if not 0 <= round_index < self.width:
            raise ValueError(f"round {round_index} outside epoch of {self.width} rounds")
        b = self.b
        start = (round_index >> b) * b
        low = (round_index & ((1 << b) - 1)).to_bytes(16, "big")
        value = np.unpackbits(np.frombuffer(low, np.uint8))[128 - b :]
        return (self.bits[:, start : start + b] == value).all(axis=1)

    def peers_in_round(self, round_index: int) -> tuple[PartyId, ...]:
        return tuple(compress(self.peers, self.round_mask(round_index)))

    def active_in_round(self, peer: PartyId, round_index: int) -> bool:
        i = bisect_left(self.peers, peer)
        found = i < len(self.peers) and self.peers[i] == peer
        return found and bool(self.round_mask(round_index)[i])


def plan_epoch(
    secrets: PairwiseSecrets,
    epoch_id: int,
    b: int,
    *,
    prf: Prf = DEFAULT_PRF,
) -> EpochPlan:
    """Derive the epoch's round graph: one PRF call per peer.

    The 128-bit output for a peer is cut into floor(128/b) segments of b
    bits each (leftover low bits unused); both endpoints derive the same
    segments from the shared secret, so the graphs agree globally.
    """
    if not 1 <= b <= 128:
        raise ValueError(f"segment width must be in [1, 128], got {b}")
    msg = prf_input(DOMAIN_GRAPH, 0, epoch_id)
    outputs = b"".join(
        prf.evaluate(secret, msg).to_bytes(16, "big") for _, secret, _ in secrets.iter_signed()
    )
    bits = np.unpackbits(np.frombuffer(outputs, np.uint8)).reshape(-1, 128)
    bits.setflags(write=False)
    return EpochPlan(epoch_id=epoch_id, b=b, peers=secrets.peers, bits=bits)


def round_peers(
    secrets: PairwiseSecrets,
    round_index: int,
    *,
    members=None,
    plan: Optional[EpochPlan] = None,
    threshold: Optional[int] = None,
    prf: Prf = DEFAULT_PRF,
) -> list[PartyId]:
    """The peers whose edge masks enter this party's nonce in a round.

    With neither `plan` nor `threshold` (clique) that is every live peer.
    With `threshold` (dream) it is each live peer whose selection draw on
    the shared secret is at most the threshold: one PRF call per live
    peer, and both endpoints draw the same value. With `plan` (zeph) it is
    the plan's peers for round `round_index % plan.width`, at no PRF cost.
    `members`, when given, holds the live parties.

    An empty result leaves the token unmasked by this party; that is a
    connectivity failure of the round graph, logged as such, and the
    parameter optimizer exists to make it vanishingly rare.
    """
    if members is not None:
        members = frozenset(members)
    if plan is not None:
        peers = [
            p
            for p in plan.peers_in_round(round_index % plan.width)
            if members is None or p in members
        ]
    elif threshold is not None:
        msg = prf_input(DOMAIN_SELECT, 0, round_index)
        evaluate = prf.evaluate
        peers = [
            p
            for p, secret, _ in secrets.iter_signed(members)
            if evaluate(secret, msg) <= threshold
        ]
    else:
        peers = [p for p, _, _ in secrets.iter_signed(members)]
    if not peers:
        logger.warning(
            "round %d has no active peers for %r; nonce is zero and this "
            "party's token is unprotected against a curious server",
            round_index,
            secrets.self_id,
        )
    return peers


def _nonce(secrets, peers, round_index, plan, prf) -> int:
    """Scalar nonce over `peers`: lane 0 of their width-1 mask vector, in
    the epoch mask domain when a zeph plan schedules the round."""
    lanes = mask_vector(
        secrets,
        peers,
        1,
        epoch_id=0 if plan is None else plan.epoch_id,
        round_index=round_index,
        domain=DOMAIN_EDGE if plan is None else DOMAIN_MASK,
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
    """Round nonce over every live peer: N-1 PRF calls."""
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
    further PRF call for the mask, so a round totals N-1+l calls.
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
    """Round nonce over the epoch plan's active edges: deg(r) PRF calls."""
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
    plan: EpochPlan,
    secrets: PairwiseSecrets,
    base_nonce: int,
    delta: MembershipDelta,
    round_index: int,
    *,
    prf: Prf = DEFAULT_PRF,
) -> int:
    """Correct a zeph round nonce for late membership changes.

    Returns base - mask(dropped & active) + mask(joined & active), where
    active is the plan's peer set for the round: dropped parties' masks
    are backed out and rejoining parties' masks restored from the
    existing pairwise secrets. Only listed parties whose edge is active
    in this round cost a PRF call; the party itself is never its own peer.
    """
    active = round_peers(secrets, round_index, plan=plan, prf=prf)
    dropped, joined = (
        _nonce(secrets, [p for p in active if p in group], round_index, plan, prf)
        for group in (delta.dropped, delta.joined)
    )
    return (base_nonce - dropped + joined) & RING_MASK


def mask_vector(
    secrets: PairwiseSecrets,
    peers: Sequence[PartyId],
    width: int,
    *,
    epoch_id: int = 0,
    round_index: int,
    domain: int = DOMAIN_MASK,
    prf: Prf = DEFAULT_PRF,
) -> np.ndarray:
    """Element-wise nonce vector for tokens wider than one ring element.

    This is the one definition of an edge mask: lane k of an edge is the
    high (k even) or low (k odd) 64 bits of the edge's PRF block k // 2,
    so an edge costs ceil(width/2) PRF blocks and a scalar nonce is lane
    0. Peers must already be filtered to the round's active membership
    (see `round_peers`).
    """
    blocks = (width + 1) // 2
    msgs = np.empty((blocks, 2), dtype=">u8")
    if domain == DOMAIN_MASK:
        if epoch_id >> 40:
            raise ValueError("epoch id exceeds 40 bits")
        if blocks >> 16:
            raise ValueError("mask block index exceeds 16 bits")
        msgs[:, 0] = (DOMAIN_MASK << 56) | (epoch_id << 16) | np.arange(blocks, dtype=np.uint64)
    elif domain == DOMAIN_EDGE:
        msgs[:, 0] = (DOMAIN_EDGE << 56) + np.arange(blocks, dtype=np.uint64)
    else:
        raise ValueError(f"unsupported mask domain {domain}")
    msgs[:, 1] = round_index
    buf = msgs.tobytes()
    added, subtracted = [], []
    for peer in peers:
        out = prf.evaluate_batch(secrets.secret_for(peer), buf)
        (added if secrets.sign_for(peer) > 0 else subtracted).append(out)
    return _lane_sum(added, width) - _lane_sum(subtracted, width)


def _lane_sum(outputs: list[bytes], width: int) -> np.ndarray:
    """Lane-wise sum mod 2**64 of the first `width` lanes of PRF outputs."""
    if not outputs:
        return np.zeros(width, dtype=np.uint64)
    lanes = np.frombuffer(b"".join(outputs), dtype=">u8").reshape(len(outputs), -1)
    return lanes[:, :width].sum(axis=0, dtype=np.uint64)


@dataclass(frozen=True)
class MaskedToken:
    """A party's blinded partial token for one aggregation round."""

    round_index: int
    epoch_id: int
    party: PartyId
    payload: TransformationToken

    def wire_size(self) -> int:
        return 48 + self.payload.wire_size()

    def serialize(self) -> bytes:
        import struct as _struct

        return (
            _struct.pack("<QQ", self.round_index, self.epoch_id)
            + self.party.value
            + serialize_token(self.payload)
        )


def mask_token(
    token: TransformationToken,
    nonces: Union[Mapping[int, int], Sequence[int]],
    *,
    round_index: int,
    epoch_id: int,
    party: PartyId,
) -> MaskedToken:
    """Blind each released element with its nonce lane.

    nonces may be a mapping keyed by element index or a sequence aligned
    with the token's ascending index order.
    """
    indices = token.indices
    if isinstance(nonces, Mapping):
        nonces = [nonces[i] for i in indices]
    elif len(nonces) != len(indices):
        raise ValueError(
            f"nonce vector length {len(nonces)} != released elements {len(indices)}"
        )
    values = np.fromiter(
        (token.elements[i] for i in indices), dtype=np.uint64, count=len(indices)
    )
    blinded_values = values + _as_ring_array(nonces)
    blinded = TransformationToken(
        window_start=token.window_start,
        window_end=token.window_end,
        stream_set_id=token.stream_set_id,
        elements=dict(zip(indices, blinded_values.tolist())),
        noised=token.noised,
        stream_ids=token.stream_ids,
    )
    return MaskedToken(round_index=round_index, epoch_id=epoch_id, party=party, payload=blinded)


def unmask_aggregate(
    masked: Sequence[MaskedToken],
    *,
    stream_ids: Optional[Iterable[str]] = None,
) -> TransformationToken:
    """Sum the blinded partial tokens of one round.

    When every participant of the round contributed, the pairwise masks
    pair off and the result is the exact element-wise sum of the partial
    tokens, keyed to the union of their stream sets. Nothing here can
    detect a missing party; the output is then uniformly garbled, which is
    the protocol's privacy backstop.
    """
    if not masked:
        raise ValueError("need at least one masked token")
    first = masked[0]
    window = (first.payload.window_start, first.payload.window_end)
    indices = first.payload.indices
    seen_parties = set()
    acc = {i: 0 for i in indices}
    ids: list[str] = []
    have_ids = True
    noised = False
    for m in masked:
        if (m.round_index, m.epoch_id) != (first.round_index, first.epoch_id):
            raise ValueError("masked tokens come from different rounds")
        if (m.payload.window_start, m.payload.window_end) != window:
            raise ValueError("masked tokens target different windows")
        if m.payload.indices != indices:
            raise ValueError("masked tokens release different element patterns")
        if m.party in seen_parties:
            raise ValueError(f"duplicate masked token from {m.party!r}")
        seen_parties.add(m.party)
        noised = noised or m.payload.noised
        if m.payload.stream_ids is None:
            have_ids = False
        else:
            ids.extend(m.payload.stream_ids)
        for i in indices:
            acc[i] = (acc[i] + m.payload.elements[i]) & RING_MASK
    if stream_ids is not None:
        ids = list(stream_ids)
    elif not have_ids:
        raise ValueError("stream ids unavailable; pass stream_ids explicitly")
    return TransformationToken(
        window_start=window[0],
        window_end=window[1],
        stream_set_id=stream_set_hash(ids),
        elements=acc,
        noised=noised,
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

    The benchmark mixing stub stands in for the PRF. The zeph schedule
    comes from the real planner; dream draws evaluate the `round_peers`
    selection rule for all peers at once, since a full epoch at
    ten thousand parties takes tens of millions of draws. Mask calls are
    tallied at one per edge, the per-edge cost `mask_vector` pays for a
    scalar token. `dropout` removes each peer independently per round.
    When `b` is omitted the epoch parameters (and the dream edge
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

    prf = SplitMixPrf()
    tag = seed.to_bytes(8, "little", signed=True)
    secrets = [
        hashlib.sha256(b"bench-secret\x00" + tag + i.to_bytes(8, "little")).digest()[:16]
        for i in range(peers)
    ]

    if protocol == "dream":
        threshold = threshold_for_probability(2.0 ** -b)
        thr_hi = np.uint64(threshold >> 64)
        thr_lo = np.uint64(threshold & ((1 << 64) - 1))
        seeds = np.array([prf.seed_of(s) for s in secrets], dtype=np.uint64)
        out = []
        for r in range(rounds):
            hi, lo = SplitMixPrf.evaluate_seeds(seeds, prf_input(DOMAIN_SELECT, 0, r))
            selected = (hi < thr_hi) | ((hi == thr_hi) & (lo <= thr_lo))
            if dropout:
                alive_mask = rng.random(peers) >= dropout
                selected = selected & alive_mask
                alive = int(alive_mask.sum())
            else:
                alive = peers
            degree = int(selected.sum())
            out.append(RoundCost(r, alive, degree, alive + degree, degree))
        return out

    # zeph: replay the epoch planner, then walk its round schedule
    if b > 24:
        raise ValueError(
            f"segment width {b} is too wide to replay: a segment's degree "
            "histogram holds 2**b counts, and at most 2**24 are allowed"
        )
    ids = [PartyId(i.to_bytes(32, "big")) for i in range(1, parties)]
    pairwise = PairwiseSecrets(
        PartyId(bytes(32)), dict(zip(ids, secrets, strict=True))
    )
    counting = CountingPrf(prf)
    width = (128 // b) << b
    seg_mask = (1 << b) - 1
    weights = 1 << np.arange(b - 1, -1, -1)
    out = []
    for r in range(rounds):
        rel = r % width
        if rel == 0:
            before = counting.calls
            plan = plan_epoch(pairwise, r // width, b, prf=counting)
            setup_calls = counting.calls - before
        else:
            setup_calls = 0
        if rel & seg_mask == 0:
            # entering segment rel >> b: every peer is scheduled once in it
            start = (rel >> b) * b
            degree_hist = np.bincount(
                plan.bits[:, start : start + b] @ weights, minlength=1 << b
            )
        planned = int(degree_hist[rel & seg_mask])
        degree = int(rng.binomial(planned, 1.0 - dropout)) if dropout else planned
        out.append(RoundCost(r, degree, degree, setup_calls + degree, degree))
    return out
