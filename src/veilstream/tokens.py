"""Transformation tokens: the controller-issued keys that open aggregates.

A token carries, per output element of its layout, the negated key material
of a window range, so that adding it to the equally reshaped aggregate
ciphertext cancels encryption exactly there. Element directives decide what
each input element contributes:

    release       reveal the element as-is
    withhold      keep it encrypted (no output element: the layout drops it)
    merge         fold several inputs into one output (bucketing)
    shift         release plus a constant offset
    perturb       release plus sampled noise

Multi-stream transformations add per-stream tokens element-wise; the final
combined token is keyed to the exact stream set it covers. Differential
privacy enters as divisible Gaussian noise added to a party's token before
masking, gated by an epsilon budget with atomic charge-or-refuse semantics.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
import threading
from dataclasses import dataclass, replace
from typing import Hashable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .ring import (
    DEFAULT_PRF,
    DOMAIN_NOISE,
    RING_MASK,
    MasterSecret,
    Prf,
    _keyed_calls,
    _layout_index,
    derive_keys,
)
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
    "EPSILON_SLACK",
    "Suppressed",
    "token_matrix",
    "single_stream_token",
    "multi_stream_partial",
    "noise_normals",
    "noise_shares",
    "add_dp_noise",
    "token_records",
    "serialize_token",
    "deserialize_token",
]

# every epsilon check's float slack: budgets sized as k * cost survive float sums
EPSILON_SLACK = 1e-9


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


# shared instances, merge's one per group: `verify_plan` compares whole
# directive tuples, and a tuple comparison short-cuts on identity
@functools.cache
def release() -> ElementDirective:
    return ElementDirective("release")


@functools.cache
def withhold() -> ElementDirective:
    return ElementDirective("withhold")


@functools.lru_cache(maxsize=4096)
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
        checks for a plan's; it is refused as `merge_elements` refuses one.
        """
        if layout is None:
            layout = output_layout(directives)
        if not layout:
            raise ValueError("token must release at least one element")
        sources, offsets = _layout_index(layout, len(directives))
        adjusted = tuple(
            (o, directives[s[0]])
            for o, s in enumerate(layout)
            if directives[s[0]].action in ("shift", "perturb")
        )
        sources.flags.writeable = False
        offsets.flags.writeable = False
        return TokenLayout(len(directives), sources, offsets, adjusted)

    def on_lanes(self, lanes: np.ndarray) -> "TokenLayout":
        """This layout read from a vector of the sorted `lanes` alone, which hold its sources."""
        return replace(self, width=len(lanes), sources=np.searchsorted(lanes, self.sources))


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
    """Key material opening every output of one window aggregate.

    elements holds one ring value per output of the plan's layout, element
    i opening output i; what stays encrypted is the layout's choice alone.
    A mapping is accepted when its keys are exactly 0..n-1. stream_ids is
    carried in memory for set algebra but only the 32-byte hash goes on
    the wire.
    """

    window_start: int
    window_end: int
    stream_set_id: bytes
    elements: tuple[int, ...]
    noised: bool = False
    stream_ids: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.window_start >= self.window_end:
            raise ValueError(
                f"window must be non-empty: ({self.window_start}, {self.window_end})"
            )
        if len(self.stream_set_id) != 32:
            raise ValueError("stream_set_id must be 32 bytes")
        elements = self.elements
        if type(elements) is not tuple:
            if isinstance(elements, Mapping):
                if sorted(elements) != list(range(len(elements))):
                    raise ValueError("token element indices must be exactly 0..n-1")
                elements = [elements[i] for i in range(len(elements))]
            object.__setattr__(self, "elements", tuple(elements))
        if not self.elements:
            raise ValueError("token must release at least one element")
        if min(self.elements) < 0 or max(self.elements) > RING_MASK:
            raise ValueError("token elements must lie in [0, 2**64)")

    def wire_size(self) -> int:
        return 48 + 10 * len(self.elements)


def token_matrix(
    masters: Sequence[MasterSecret],
    window: tuple[int, int],
    directives: Sequence[ElementDirective],
    *,
    layout: Optional[TokenLayout] = None,
    prf: Prf = DEFAULT_PRF,
    scale: int = SCALE_DEFAULT,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """The tokens of several streams for one window, as a streams x
    outputs uint64 matrix: row s holds the elements of `masters[s]`'s
    token.

    Each output element sums key(start) - key(end) over its source inputs,
    so adding the token to the equally reshaped aggregate leaves exactly
    the plaintext transformation output. Key material is derived for the
    layout's source elements only: a token costs 2 x (source elements)
    PRF blocks, and every stream's blocks go through `derive_keys`. One
    `np.add.reduceat` along the rows yields every output; a shift output
    is one column add. Perturb outputs draw from `rng` stream after
    stream, in output order, as one `single_stream_token` call per stream
    would. Callers holding a plan pass its precomputed `layout`; without
    one the layout is built from the directives for this call.
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
    perturbed = [(o, d) for o, d in layout.adjusted if d.action == "perturb"]
    if rng is None and perturbed:
        raise ValueError("perturb directive needs an rng")
    keys = derive_keys(masters, window, layout.width, elements=layout.sources, prf=prf)
    values = np.add.reduceat(keys[:, 0] - keys[:, 1], layout.offsets, axis=1)
    for o, lead in layout.adjusted:
        if lead.action == "shift":
            values[:, o] += np.uint64(round(lead.offset * scale) & RING_MASK)
    if perturbed:
        # per-party noise shares, in ring units of each element
        sigmas = [lead.noise.per_party_sigma for _, lead in perturbed]
        etas = rng.normal(0.0, sigmas, size=(len(masters), len(perturbed)))
        values[:, [o for o, _ in perturbed]] += np.rint(etas).astype(np.int64).astype(np.uint64)
    return values


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
    """Build the token that opens one stream's window under the directives:
    the one-stream case of `token_matrix`."""
    (row,) = token_matrix(
        (master,), window, directives, layout=layout, prf=prf, scale=scale, rng=rng
    ).tolist()
    return TransformationToken(
        window_start=window[0],
        window_end=window[1],
        stream_set_id=stream_set_hash([master.stream_id]),
        elements=tuple(row),
        noised=any(d.action == "perturb" for d in directives),
        stream_ids=(master.stream_id,),
    )


def multi_stream_partial(tokens: Sequence[TransformationToken]) -> TransformationToken:
    """Fold per-stream tokens into one partial token over their union.

    All inputs must target the same window with the same width, and their
    stream sets must be disjoint: a stream entering a sum twice would doubly
    cancel its keys and corrupt the release.
    """
    if not tokens:
        raise ValueError("need at least one token")
    first = tokens[0]
    ids: list[str] = []
    noised = False
    for tok in tokens:
        if (tok.window_start, tok.window_end) != (first.window_start, first.window_end):
            raise ValueError("tokens target different windows")
        if len(tok.elements) != len(first.elements):
            raise ValueError("tokens have different widths")
        if tok.stream_ids is None:
            raise ValueError("partial aggregation needs explicit stream ids")
        ids.extend(tok.stream_ids)
        noised = noised or tok.noised
    if len(ids) != len(set(ids)):
        raise ValueError("stream sets overlap")
    stacked = np.array([t.elements for t in tokens], dtype=np.uint64)
    return TransformationToken(
        window_start=first.window_start,
        window_end=first.window_end,
        stream_set_id=stream_set_hash(ids),
        elements=tuple(np.sum(stacked, axis=0, dtype=np.uint64).tolist()),
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

    def charge(self, cost: float) -> bool:
        if cost <= 0:
            raise ValueError("epsilon cost must be positive")
        with self._lock:
            if self._spent + cost > self.epsilon_total + EPSILON_SLACK:
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


def noise_normals(
    keys: np.ndarray, window: int, width: int, *, prf: Prf = DEFAULT_PRF
) -> np.ndarray:
    """Several parties' standard normals for one window, as a parties x
    width float matrix: row i is drawn under the noise key `keys[i]`
    (rows x 16 `uint8`) alone, so it does not depend on the other rows.

    Block j of a row is the PRF on (block j, window) in the noise domain,
    one block per two lanes, and every row's blocks go through one
    `_keyed_calls` pass. Each 64-bit word w becomes the uniform
    ((w >> 11) + 1) * 2**-53 in (0, 1], never 0, so the logarithm stays
    finite. One Box-Muller step turns block j into lanes 2j and 2j + 1:
    the high word sets the radius and the low word the angle.
    """
    blocks = (width + 1) // 2
    msgs = np.empty((blocks, 2), dtype=">u8")
    msgs[:, 0] = (DOMAIN_NOISE << 56) + np.arange(blocks, dtype=np.uint64)
    msgs[:, 1] = window
    uniforms = np.empty((len(keys), blocks, 2))
    for lo, words in _keyed_calls(keys, msgs.tobytes(), prf):
        uniforms[lo : lo + len(words)] = (words >> 11) + 1
    uniforms *= 2.0**-53
    radius = np.sqrt(-2.0 * np.log(uniforms[..., 0]))
    angle = 2.0 * np.pi * uniforms[..., 1]
    normals = np.stack((radius * np.cos(angle), radius * np.sin(angle)), axis=-1)
    return normals.reshape(len(keys), 2 * blocks)[:, :width]


def noise_shares(noise: NoiseSpec, normals: np.ndarray) -> np.ndarray:
    """Several parties' shares of divisible Gaussian noise, as a parties x
    width uint64 matrix to add to their token rows: party i's standard
    normals `normals[i]` times the per-party sigma in ring units, rounded
    to integers. It charges no budget: a caller charges each party's
    epsilon before releasing its share."""
    # negative shares wrap to their ring value
    return np.rint(noise.per_party_sigma * normals).astype(np.int64).astype(np.uint64)


def add_dp_noise(
    token: TransformationToken,
    noise: NoiseSpec,
    budget: PrivacyBudget,
    epsilon_cost: float,
    rng: np.random.Generator,
) -> Union[TransformationToken, Suppressed]:
    """Add this party's share of divisible Gaussian noise to a token: the
    one-party case of `noise_shares`, charging `budget` first. An
    exhausted budget yields a Suppressed marker, charges nothing and the
    token is not released."""
    if epsilon_cost <= 0:
        raise ValueError("epsilon cost must be positive")
    if token.noised:
        raise ValueError("token already carries noise")
    normals = rng.standard_normal((1, len(token.elements)))
    if not budget.charge(epsilon_cost):
        return Suppressed(
            reason="epsilon budget exhausted",
            epsilon_requested=epsilon_cost,
            epsilon_remaining=budget.remaining,
        )
    shares = noise_shares(noise, normals)
    return TransformationToken(
        window_start=token.window_start,
        window_end=token.window_end,
        stream_set_id=token.stream_set_id,
        elements=tuple((np.array(token.elements, dtype=np.uint64) + shares[0]).tolist()),
        noised=True,
        stream_ids=token.stream_ids,
    )


# ---- wire format ---------------------------------------------------------
#
# Little-endian: window start and end as u64, the 32-byte stream set id,
# then one (u16 index, u64 value) pair per output element; the index column
# must read 0..n-1. Framing is external (length-delimited transport).


_WIRE_ELEMENT = np.dtype([("index", "<u2"), ("value", "<u8")])


def token_records(
    window: tuple[int, int],
    stream_set_ids: Sequence[bytes],
    elements: np.ndarray,
    *,
    header: Sequence[tuple[str, str]] = (),
) -> np.ndarray:
    """The wire records of equally wide tokens, one per row of `elements`
    (tokens x outputs), as a structured array whose `tobytes()` is the
    records back to back. `header` names fields placed before each
    record, for the caller to fill (the masked-token header uses it)."""
    rows, n = elements.shape
    if n > 1 << 16:
        raise ValueError(f"element index {1 << 16} exceeds 16 bits")
    records = np.empty(
        rows,
        dtype=[
            *header,
            ("start", "<u8"),
            ("end", "<u8"),
            ("stream_set", "V32"),
            ("elements", _WIRE_ELEMENT, (n,)),
        ],
    )
    records["start"], records["end"] = window
    records["stream_set"] = np.frombuffer(b"".join(stream_set_ids), dtype="V32")
    records["elements"]["index"] = np.arange(n)
    records["elements"]["value"] = elements
    return records


def serialize_token(token: TransformationToken) -> bytes:
    values = np.array([token.elements], dtype=np.uint64)
    return token_records(
        (token.window_start, token.window_end), [token.stream_set_id], values
    ).tobytes()


def deserialize_token(data: bytes, *, noised: bool = False) -> TransformationToken:
    if len(data) < 48 or (len(data) - 48) % 10:
        raise ValueError(f"malformed token wire data of length {len(data)}")
    start, end = struct.unpack_from("<QQ", data, 0)
    sset = data[16:48]
    pairs = np.frombuffer(data, dtype=_WIRE_ELEMENT, offset=48)
    if not np.array_equal(pairs["index"], np.arange(len(pairs))):
        raise ValueError("token wire indices must read 0..n-1")
    return TransformationToken(
        window_start=start,
        window_end=end,
        stream_set_id=sset,
        elements=tuple(pairs["value"].tolist()),
        noised=noised,
    )
