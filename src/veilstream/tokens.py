"""Transformation tokens: the controller-issued keys that open aggregates.

A token carries, per released output element, the negated key material of a
window range, so that adding it to the matching aggregate ciphertext cancels
encryption exactly there and nowhere else. Element directives decide what
each input element contributes:

    release       reveal the element as-is
    withhold      keep it encrypted (absent from the token)
    merge         fold several inputs into one output (bucketing)
    shift         release plus a constant offset
    perturb       release plus sampled noise

Multi-stream transformations add per-stream tokens element-wise; the final
combined token is keyed to the exact stream set it covers. Differential
privacy enters as divisible Gaussian noise added to a party's token before
masking, gated by an epsilon budget with atomic charge-or-refuse semantics.
"""

from __future__ import annotations

import hashlib
import math
import struct
import threading
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .ring import DEFAULT_PRF, RING_MASK, MasterSecret, Prf, derive_key
from .encoding import SCALE_DEFAULT

__all__ = [
    "ElementDirective",
    "release",
    "withhold",
    "merge",
    "shift",
    "perturb",
    "output_layout",
    "TokenLayout",
    "stream_set_hash",
    "TransformationToken",
    "NoiseSpec",
    "PrivacyBudget",
    "Suppressed",
    "TokenStore",
    "single_stream_token",
    "multi_stream_partial",
    "add_dp_noise",
    "serialize_token",
    "deserialize_token",
]


@dataclass(frozen=True)
class NoiseSpec:
    """Divisible Gaussian noise parameters for a distributed release.

    sigma_target is the standard deviation, in ring units of the released
    elements, that the *honest* parties' combined noise must reach. Each
    party samples with sigma_target divided by the square root of the
    expected honest count, so the honest sum alone already carries the
    full calibration even if everyone else colludes. Callers releasing
    fixed-point elements convert their data-unit sigma to ring units
    (multiply by the scale) before constructing a NoiseSpec; count-like
    elements use ring units directly.
    """

    sigma_target: float
    honest_fraction: float
    party_count: int
    mechanism: str = "gaussian"

    def __post_init__(self):
        if self.mechanism != "gaussian":
            raise ValueError(f"unsupported noise mechanism {self.mechanism!r}")
        if self.sigma_target < 0:
            raise ValueError("sigma_target must be non-negative")
        if not 0 < self.honest_fraction <= 1:
            raise ValueError("honest_fraction must be in (0, 1]")
        if self.party_count < 1:
            raise ValueError("party_count must be at least 1")

    @property
    def per_party_sigma(self) -> float:
        return self.sigma_target / math.sqrt(self.honest_fraction * self.party_count)


@dataclass(frozen=True)
class ElementDirective:
    """What a transformation does with one input element."""

    action: str  # release | withhold | merge | shift | perturb
    group: Optional[Hashable] = None
    offset: float = 0.0
    noise: Optional[NoiseSpec] = None

    def __post_init__(self):
        if self.action not in ("release", "withhold", "merge", "shift", "perturb"):
            raise ValueError(f"unknown directive action {self.action!r}")
        if self.action == "merge" and self.group is None:
            raise ValueError("merge directive needs a group key")
        if self.action == "perturb" and self.noise is None:
            raise ValueError("perturb directive needs a noise spec")


def release() -> ElementDirective:
    return ElementDirective("release")


def withhold() -> ElementDirective:
    return ElementDirective("withhold")


def merge(group: Hashable) -> ElementDirective:
    return ElementDirective("merge", group=group)


def shift(offset: float) -> ElementDirective:
    return ElementDirective("shift", offset=offset)


def perturb(noise: NoiseSpec) -> ElementDirective:
    return ElementDirective("perturb", noise=noise)


def output_layout(
    directives: Sequence[ElementDirective],
) -> tuple[tuple[int, ...], ...]:
    """Map directives to the output element layout.

    Every non-withheld directive owns or joins an output element; merge
    groups collapse to a single output positioned at the group's first
    occurrence. The result is consumed both by token construction and by
    the server-side reshaping of aggregate ciphertexts, which keeps the two
    sides structurally aligned by construction.
    """
    layout: list[list[int]] = []
    groups: dict[Hashable, int] = {}
    for j, d in enumerate(directives):
        if d.action == "withhold":
            continue
        if d.action == "merge":
            pos = groups.get(d.group)
            if pos is None:
                groups[d.group] = len(layout)
                layout.append([j])
            else:
                layout[pos].append(j)
        else:
            layout.append([j])
    return tuple(tuple(srcs) for srcs in layout)


@dataclass(frozen=True, eq=False)
class TokenLayout:
    """An output layout as index arrays, built once and reused per token.

    `sources` lists every output's source elements, output after output,
    and `offsets` marks where each output's run starts, so one
    `np.add.reduceat` over per-source key material yields every output.
    `adjusted` pairs each output led by a shift or perturb directive, in
    output order, with that directive: only those outputs need work of
    their own.
    """

    width: int
    sources: np.ndarray
    offsets: np.ndarray
    adjusted: tuple[tuple[int, ElementDirective], ...]

    @staticmethod
    def build(
        directives: Sequence[ElementDirective],
        layout: Optional[Sequence[Sequence[int]]] = None,
    ) -> "TokenLayout":
        """Index arrays of `layout`, by default `output_layout(directives)`.

        A supplied layout must be the directives' own, as `verify_plan`
        checks for a plan's.
        """
        if layout is None:
            layout = output_layout(directives)
        if not layout:
            raise ValueError("token must release at least one element")
        sizes = np.array([len(s) for s in layout], dtype=np.intp)
        if not sizes.all():
            raise ValueError("every output element needs a source")
        sources = np.fromiter(
            (j for s in layout for j in s), dtype=np.intp, count=int(sizes.sum())
        )
        if sources.min() < 0 or sources.max() >= len(directives):
            raise ValueError(f"layout sources outside width {len(directives)}")
        offsets = np.zeros(len(layout), dtype=np.intp)
        np.cumsum(sizes[:-1], out=offsets[1:])
        adjusted = tuple(
            (o, directives[s[0]])
            for o, s in enumerate(layout)
            if directives[s[0]].action in ("shift", "perturb")
        )
        sources.flags.writeable = False
        offsets.flags.writeable = False
        return TokenLayout(len(directives), sources, offsets, adjusted)


def stream_set_hash(stream_ids: Iterable[str]) -> bytes:
    """Canonical 32-byte identifier of an unordered stream set."""
    ids = sorted(stream_ids)
    if len(ids) != len(set(ids)):
        raise ValueError("stream set contains duplicates")
    h = hashlib.sha256(b"stream-set\x00")
    for sid in ids:
        h.update(sid.encode())
        h.update(b"\x1f")
    return h.digest()


@dataclass(frozen=True)
class TransformationToken:
    """Key material releasing selected outputs of one window aggregate.

    elements maps output index -> ring value; indices absent from the map
    are withheld and stay encrypted. stream_ids is carried in memory for
    set algebra but only the 32-byte hash goes on the wire.
    """

    window_start: int
    window_end: int
    stream_set_id: bytes
    elements: Mapping[int, int]
    noised: bool = False
    stream_ids: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.window_start >= self.window_end:
            raise ValueError(
                f"window must be non-empty: ({self.window_start}, {self.window_end})"
            )
        if len(self.stream_set_id) != 32:
            raise ValueError("stream_set_id must be 32 bytes")
        if not self.elements:
            raise ValueError("token must release at least one element")
        for idx in self.elements:
            if idx < 0:
                raise ValueError(f"negative element index {idx}")

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.elements))

    def wire_size(self) -> int:
        return 48 + 10 * len(self.elements)


def single_stream_token(
    master: MasterSecret,
    window: tuple[int, int],
    directives: Sequence[ElementDirective],
    *,
    layout: Optional[TokenLayout] = None,
    prf: Prf = DEFAULT_PRF,
    scale: int = SCALE_DEFAULT,
    rng: Optional[np.random.Generator] = None,
) -> TransformationToken:
    """Build the token that opens one stream's window under the directives.

    Each output element sums key(start) - key(end) over its source inputs,
    so adding the token to the equally reshaped aggregate leaves exactly
    the plaintext transformation output. Key material is derived for the
    layout's source elements only: a token costs 2 x (source elements)
    PRF blocks. Callers holding a plan pass its precomputed `layout`;
    without one the layout is built from the directives for this call.
    """
    t_start, t_end = window
    if t_start >= t_end:
        raise ValueError(f"window must be non-empty: {window}")
    if not directives:
        raise ValueError("directives must cover at least one element")
    if layout is None:
        layout = TokenLayout.build(directives)
    elif layout.width != len(directives):
        raise ValueError(
            f"layout width {layout.width} != {len(directives)} directives"
        )
    if rng is None and any(d.action == "perturb" for _, d in layout.adjusted):
        raise ValueError("perturb directive needs an rng")
    width = layout.width
    src = layout.sources
    k_start = derive_key(master, t_start, width, elements=src, prf=prf)
    k_end = derive_key(master, t_end, width, elements=src, prf=prf)
    values = np.add.reduceat(k_start - k_end, layout.offsets).tolist()
    noised = False
    for o, lead in layout.adjusted:
        if lead.action == "shift":
            values[o] = (values[o] + round(lead.offset * scale)) & RING_MASK
        else:
            # per-party noise share, in ring units of this element
            eta = round(float(rng.normal(0.0, lead.noise.per_party_sigma)))
            values[o] = (values[o] + eta) & RING_MASK
            noised = True
    return TransformationToken(
        window_start=t_start,
        window_end=t_end,
        stream_set_id=stream_set_hash([master.stream_id]),
        elements=dict(enumerate(values)),
        noised=noised,
        stream_ids=(master.stream_id,),
    )


def multi_stream_partial(tokens: Sequence[TransformationToken]) -> TransformationToken:
    """Fold per-stream tokens into one partial token over their union.

    All inputs must target the same window with the same released-element
    pattern, and their stream sets must be disjoint: a stream entering a
    sum twice would doubly cancel its keys and corrupt the release.
    """
    if not tokens:
        raise ValueError("need at least one token")
    first = tokens[0]
    indices = first.indices
    ids: list[str] = []
    acc = {i: 0 for i in indices}
    noised = False
    for tok in tokens:
        if (tok.window_start, tok.window_end) != (first.window_start, first.window_end):
            raise ValueError("tokens target different windows")
        if tok.indices != indices:
            raise ValueError("tokens release different element patterns")
        if tok.stream_ids is None:
            raise ValueError("partial aggregation needs explicit stream ids")
        ids.extend(tok.stream_ids)
        noised = noised or tok.noised
        for i in indices:
            acc[i] = (acc[i] + tok.elements[i]) & RING_MASK
    if len(ids) != len(set(ids)):
        raise ValueError("stream sets overlap")
    return TransformationToken(
        window_start=first.window_start,
        window_end=first.window_end,
        stream_set_id=stream_set_hash(ids),
        elements=acc,
        noised=noised,
        stream_ids=tuple(sorted(ids)),
    )


class PrivacyBudget:
    """Epsilon ledger with atomic charge-or-refuse semantics.

    Spent budget never comes back; releases that would overdraw are refused
    as a whole so concurrent requesters cannot split an overdraft.
    """

    def __init__(self, epsilon_total: float):
        if epsilon_total < 0:
            raise ValueError("epsilon_total must be non-negative")
        self.epsilon_total = float(epsilon_total)
        self._spent = 0.0
        self._lock = threading.Lock()

    @property
    def epsilon_spent(self) -> float:
        return self._spent

    @property
    def remaining(self) -> float:
        return self.epsilon_total - self._spent

    def can_charge(self, cost: float) -> bool:
        """Whether `charge(cost)` would succeed now; charges nothing."""
        if cost <= 0:
            raise ValueError("epsilon cost must be positive")
        # tiny tolerance so budgets sized as k * cost survive float sums
        return self._spent + cost <= self.epsilon_total + 1e-9

    def charge(self, cost: float) -> bool:
        with self._lock:
            if not self.can_charge(cost):
                return False
            self._spent += cost
            return True

    def __repr__(self):
        return f"PrivacyBudget(spent={self._spent:.6g}, total={self.epsilon_total:.6g})"


@dataclass(frozen=True)
class Suppressed:
    """Marker value returned when a release is refused."""

    reason: str
    epsilon_requested: float = 0.0
    epsilon_remaining: float = 0.0


def add_dp_noise(
    token: TransformationToken,
    noise: NoiseSpec,
    budget: PrivacyBudget,
    epsilon_cost: float,
    rng: np.random.Generator,
) -> Union[TransformationToken, Suppressed]:
    """Add this party's share of divisible Gaussian noise to a token.

    The budget is charged first and atomically; an exhausted budget yields
    a Suppressed marker and the token is not released. Samples are drawn
    with the per-party sigma in ring units and rounded to integers, one
    per released element.
    """
    if epsilon_cost <= 0:
        raise ValueError("epsilon cost must be positive")
    if token.noised:
        raise ValueError("token already carries noise")
    if not budget.charge(epsilon_cost):
        return Suppressed(
            reason="epsilon budget exhausted",
            epsilon_requested=epsilon_cost,
            epsilon_remaining=budget.remaining,
        )
    indices = token.indices
    samples = rng.normal(0.0, noise.per_party_sigma, size=len(indices))
    elements = dict(token.elements)
    for i, eta in zip(indices, samples):
        elements[i] = (elements[i] + round(float(eta))) & RING_MASK
    return TransformationToken(
        window_start=token.window_start,
        window_end=token.window_end,
        stream_set_id=token.stream_set_id,
        elements=elements,
        noised=True,
        stream_ids=token.stream_ids,
    )


class TokenStore:
    """Enforces the one-token rule for non-private releases.

    At most one token exists per (reservation key, window); repeated
    requests return the identical stored token instead of minting new key
    material, which would widen what the window reveals.
    """

    def __init__(self):
        self._tokens: dict[tuple, TransformationToken] = {}
        self._lock = threading.Lock()

    def emit(
        self,
        key: Hashable,
        window: tuple[int, int],
        build: Callable[[], TransformationToken],
    ) -> TransformationToken:
        with self._lock:
            slot = (key, window)
            tok = self._tokens.get(slot)
            if tok is None:
                tok = build()
                if (tok.window_start, tok.window_end) != window:
                    raise ValueError("built token does not match requested window")
                self._tokens[slot] = tok
            return tok

    def __len__(self):
        return len(self._tokens)


# ---- wire format ---------------------------------------------------------
#
# Little-endian: window start and end as u64, the 32-byte stream set id,
# then one (u16 index, u64 value) pair per released element in ascending
# index order. Framing is external (length-delimited transport).


_WIRE_ELEMENT = np.dtype([("index", "<u2"), ("value", "<u8")])


def serialize_token(token: TransformationToken) -> bytes:
    indices = token.indices
    if indices[-1] >= 1 << 16:
        idx = next(i for i in indices if i >= 1 << 16)
        raise ValueError(f"element index {idx} exceeds 16 bits")
    pairs = np.empty(len(indices), dtype=_WIRE_ELEMENT)
    pairs["index"] = indices
    pairs["value"] = [token.elements[i] for i in indices]
    return (
        struct.pack("<QQ", token.window_start, token.window_end)
        + token.stream_set_id
        + pairs.tobytes()
    )


def deserialize_token(data: bytes, *, noised: bool = False) -> TransformationToken:
    if len(data) < 48 or (len(data) - 48) % 10:
        raise ValueError(f"malformed token wire data of length {len(data)}")
    start, end = struct.unpack_from("<QQ", data, 0)
    sset = data[16:48]
    elements: dict[int, int] = {}
    for off in range(48, len(data), 10):
        idx, val = struct.unpack_from("<HQ", data, off)
        if idx in elements:
            raise ValueError(f"duplicate element index {idx} on the wire")
        elements[idx] = val
    return TransformationToken(
        window_start=start,
        window_end=end,
        stream_set_id=sset,
        elements=elements,
        noised=noised,
    )
