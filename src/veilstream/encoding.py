"""Additive encodings that turn per-event values into ring vectors.

A window aggregate in the ring is just the element-wise sum of the encoded
events, so any statistic that is linear in these vectors survives
encryption. The supported shapes:

    sum                  [x]
    sum_count            [x, 1]
    variance             [x, x**2, 1]        (Var = E[x^2] - E[x]^2)
    one_hot              indicator over an integer domain
    histogram            indicator over fixed-width bins
    predicate_threshold  [x, 0] if x >= threshold else [0, x]

`LANES` names the lanes of each scalar kind in order: a kind's width, its
decode and its overflow budget read them by name, and the policy planner
reads them to find the lanes a function releases. One_hot and histogram
have one lane per bin.

Real-valued inputs are carried in fixed point: values are scaled by a
configurable factor (100 by default, two decimal digits) and rounded, and
decoding divides back out. Counts and bin occupancies are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .ring import MODULUS_DEFAULT, RING_MASK

__all__ = [
    "KINDS",
    "LANES",
    "EncodingSpec",
    "SlabEncoder",
    "DecodedStats",
    "OverflowBudgetError",
    "encode",
    "encode_batch",
    "encode_neutral",
    "decode_stats",
    "check_overflow_budget",
]

KINDS = ("sum", "sum_count", "variance", "one_hot", "histogram", "predicate_threshold")

# the lanes of each scalar kind, in order; `SlabEncoder` writes them so
LANES = {
    "sum": ("sum",),
    "sum_count": ("sum", "count"),
    "variance": ("sum", "sum_sq", "count"),
    "predicate_threshold": ("above", "below"),
}

SCALE_DEFAULT = 100


class OverflowBudgetError(ValueError):
    """Worst-case window sums would exceed half the ring modulus."""


@dataclass(frozen=True)
class EncodingSpec:
    """Declares how one attribute's values map onto ring elements.

    domain_min/domain_max bound one_hot and histogram inputs; bin_width
    fixes histogram resolution; threshold parameterizes the predicate
    split. scale is the fixed-point factor for real-valued kinds.
    """

    kind: str
    domain_min: Optional[float] = None
    domain_max: Optional[float] = None
    bin_width: Optional[float] = None
    threshold: Optional[float] = None
    scale: int = SCALE_DEFAULT

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown encoding kind {self.kind!r}")
        if not isinstance(self.scale, int) or self.scale < 1:
            raise ValueError(f"scale must be a positive integer, got {self.scale!r}")
        if self.kind == "one_hot":
            if self.domain_min is None or self.domain_max is None:
                raise ValueError("one_hot needs domain_min and domain_max")
            if self.domain_min != int(self.domain_min) or self.domain_max != int(self.domain_max):
                raise ValueError("one_hot domain bounds must be integers")
            if self.domain_max < self.domain_min:
                raise ValueError("one_hot domain is empty")
        elif self.kind == "histogram":
            if self.domain_min is None or self.domain_max is None or self.bin_width is None:
                raise ValueError("histogram needs domain_min, domain_max and bin_width")
            if self.bin_width <= 0 or self.domain_max <= self.domain_min:
                raise ValueError("histogram domain is empty or bin_width not positive")
        elif self.kind == "predicate_threshold":
            if self.threshold is None:
                raise ValueError("predicate_threshold needs a threshold")

    @property
    def width(self) -> int:
        if self.kind in LANES:
            return len(LANES[self.kind])
        if self.kind == "one_hot":
            return int(self.domain_max) - int(self.domain_min) + 1
        return math.ceil((self.domain_max - self.domain_min) / self.bin_width)

    def bin_value(self, index: int) -> float:
        """Representative value of a bin: the domain point for one_hot,
        the bin midpoint for histogram."""
        if self.kind == "one_hot":
            return int(self.domain_min) + index
        if self.kind == "histogram":
            return self.domain_min + (index + 0.5) * self.bin_width
        raise ValueError(f"{self.kind} has no bins")


class SlabEncoder:
    """Encodings compiled into lane tables, to encode a value of each at
    once: one zeroing, one `put_along_axis` for every one_hot and histogram
    attribute and one quantize-and-scatter for every scalar one. Values
    are read as float64 (integers up to 2**53 exactly); a value outside a
    one_hot or histogram domain, or a non-integer one_hot value, raises the
    `ValueError` of the first such value of the first attribute with one,
    and a value Python's `round` refuses raises its error."""

    def __init__(self, specs: Sequence[EncodingSpec]):
        self.specs = tuple(specs)
        start = np.cumsum([0] + [s.width for s in self.specs])
        self.width = int(start[-1])
        self._binned = [a for a, s in enumerate(self.specs) if s.kind not in LANES]
        self._scalar = np.array([a for a, s in enumerate(self.specs) if s.kind in LANES], np.intp)
        bins = [self.specs[a] for a in self._binned]
        self._one_hot = np.array([s.kind == "one_hot" for s in bins], dtype=bool)
        table = [(s.domain_min, s.domain_max, s.width, s.bin_width or 1) for s in bins]
        self._low, self._high, self._bins, self._bin_width = np.array(table, float).reshape(-1, 4).T
        self._bin_lane = start[self._binned]
        scalar = [self.specs[a] for a in self._scalar]
        self._scale = np.array([s.scale for s in scalar], dtype=np.float64)
        self._lane = start[self._scalar]  # the sum lane, or the above lane
        self._square = [c for c, s in enumerate(scalar) if s.kind == "variance"]
        counted = [a for a in self._scalar if "count" in LANES[self.specs[a].kind]]
        self._count = start[1:][counted] - 1  # their last lanes
        self._split = [c for c, s in enumerate(scalar) if s.kind == "predicate_threshold"]
        self._threshold = np.array([scalar[c].threshold for c in self._split])

    def encode(self, values, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Encode `values` of shape S + (len(specs),) side by side into
        `out`, a uint64 array of shape S + (width,) that may be a slice of
        a larger block, and return it; allocate it when omitted."""
        x = np.asarray(values, dtype=np.float64)
        shape = x.shape[:-1] + (self.width,)
        if out is None:
            out = np.empty(shape, dtype=np.uint64)
        elif out.shape != shape or out.dtype != np.uint64:
            raise ValueError(f"output of shape {out.shape} for values encoding to {shape}")
        out[...] = 0
        xb = x[..., self._binned]
        inside = (self._low <= xb) & (xb <= self._high) & ((xb == np.trunc(xb)) | ~self._one_hot)
        if not inside.all():
            self._refuse(values, x, ~inside)
        index = np.minimum((xb - self._low) // self._bin_width, self._bins - 1).astype(np.intp)
        np.put_along_axis(out, index + self._bin_lane, 1, axis=-1)
        q = self._quantize(values, x, slice(None))
        if self._split:
            above = x[..., self._scalar[self._split]] >= self._threshold
            split = q[..., self._split]
            out[..., self._lane[self._split] + 1] = split * ~above
            q[..., self._split] = split * above
        out[..., self._lane] = q
        square = q[..., self._square]
        out[..., self._lane[self._square] + 1] = square * square
        out[..., self._count] = 1
        return out

    def _quantize(self, values, x: np.ndarray, cols) -> np.ndarray:
        """round(v * scale) mod 2**64, ties to even, of the scalar attributes
        `cols` selects. A product not finite, or too large for exact float
        arithmetic, takes Python's `round`, which raises for NaN and inf."""
        attrs = self._scalar[cols]
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = np.rint(x[..., attrs] * self._scale[cols])
            limit = 2.0**63 if np.asarray(values).dtype.kind == "f" else 2.0**53
            exact = np.abs(scaled) < limit
            q = np.where(exact, scaled, 0).astype(np.int64).view(np.uint64)
        if not exact.all():
            given, flat = np.asarray(values, dtype=object).reshape(-1), q.reshape(-1, len(attrs))
            for c, i in np.argwhere(~exact.reshape(-1, len(attrs)).T).tolist():
                a = attrs[c]
                flat[i, c] = round(given[i * len(self.specs) + a] * self.specs[a].scale) & RING_MASK
        return q

    def _refuse(self, values, x: np.ndarray, bad: np.ndarray):
        """Raise the error of the first bad value of the first binned
        attribute with one, after that of any scalar attribute before it."""
        col = int(np.argmax(bad.reshape(-1, len(self._binned)).any(axis=0)))
        a = self._binned[col]
        self._quantize(values, x, self._scalar < a)
        i = int(np.argmax(bad[..., col])) * len(self.specs) + a
        value = np.asarray(values, dtype=object).flat[i]
        spec = self.specs[a]
        if spec.kind == "one_hot" and value != int(value):
            raise ValueError(f"one_hot input must be an integer, got {value!r}")
        raise ValueError(
            f"value {value!r} outside {spec.kind} domain [{spec.domain_min}, {spec.domain_max}]"
        )


def encode_batch(values, spec: EncodingSpec, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Encode every value of an array of any shape S as a ring vector: the
    one-attribute case of `SlabEncoder`, writing into `out`, of shape S +
    (spec.width,), or a new array. The values are passed on as the Python
    numbers given, so that integers beyond 2**53 round exactly."""
    return SlabEncoder((spec,)).encode(np.asarray(values, dtype=object)[..., None], out)


def encode(value: float, spec: EncodingSpec) -> np.ndarray:
    """Encode one observed value as a ring vector of spec.width elements:
    the one-value case of `encode_batch`."""
    return encode_batch([value], spec)[0]


def encode_neutral(spec: EncodingSpec) -> np.ndarray:
    """The additive identity: contributes nothing to any aggregate.

    Producers emit this at window borders to terminate the key chain
    without perturbing statistics.
    """
    return np.zeros(spec.width, dtype=np.uint64)


def _lift(v: int) -> int:
    """Interpret a ring element as a signed integer centered on zero."""
    return v - MODULUS_DEFAULT if v > MODULUS_DEFAULT // 2 else v


@dataclass(frozen=True)
class DecodedStats:
    """Statistics recovered from an aggregated encoding vector.

    Fields are None when the encoding kind does not carry them. bins hold
    raw occupancy counts; order statistics are derived from bins on demand.
    """

    kind: str
    count: Optional[int] = None
    total: Optional[float] = None
    mean: Optional[float] = None
    variance: Optional[float] = None
    bins: Optional[tuple[int, ...]] = None
    sum_above: Optional[float] = None
    sum_below: Optional[float] = None
    warnings: tuple[str, ...] = ()
    _spec: Optional[EncodingSpec] = field(default=None, repr=False, compare=False)

    # ---- order statistics over bins -------------------------------------

    def _nonzero(self) -> list[int]:
        if self.bins is None:
            raise ValueError(f"{self.kind} has no bins")
        return [i for i, c in enumerate(self.bins) if c > 0]

    @property
    def mode(self) -> Optional[float]:
        nz = self._nonzero()
        if not nz:
            return None
        best = max(nz, key=lambda i: (self.bins[i], -i))
        return self._spec.bin_value(best)

    @property
    def minimum(self) -> Optional[float]:
        nz = self._nonzero()
        return self._spec.bin_value(nz[0]) if nz else None

    @property
    def maximum(self) -> Optional[float]:
        nz = self._nonzero()
        return self._spec.bin_value(nz[-1]) if nz else None

    @property
    def value_range(self) -> Optional[float]:
        nz = self._nonzero()
        if not nz:
            return None
        return self._spec.bin_value(nz[-1]) - self._spec.bin_value(nz[0])

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile over bin representatives, q in (0, 100]."""
        if not 0 < q <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {q}")
        if self.bins is None:
            raise ValueError(f"{self.kind} has no bins")
        n = sum(self.bins)
        if n == 0:
            return None
        rank = max(1, math.ceil(q / 100 * n))
        cum = 0
        for i, c in enumerate(self.bins):
            cum += c
            if cum >= rank:
                return self._spec.bin_value(i)
        return None

    @property
    def median(self) -> Optional[float]:
        return self.percentile(50)

    def top_bins(self, k: int) -> list[tuple[float, int]]:
        """The k most occupied bins as (representative value, count)."""
        nz = self._nonzero()
        nz.sort(key=lambda i: (-self.bins[i], i))
        return [(self._spec.bin_value(i), self.bins[i]) for i in nz[:k]]


def decode_stats(aggregate: Sequence[int], spec: EncodingSpec) -> DecodedStats:
    """Recover statistics from a summed encoding vector.

    Counts, bins and sums of squares are non-negative, so a value above
    M/2 on one of them is reported with a wraparound warning instead of
    being silently interpreted as negative data.
    """
    vals = [int(v) for v in aggregate]
    if len(vals) != spec.width:
        raise ValueError(f"aggregate width {len(vals)} != encoding width {spec.width}")
    warnings: list[str] = []
    scale = spec.scale
    kind = spec.kind

    def unsigned(v: int, what: str) -> int:
        lifted = _lift(v)
        if lifted < 0:
            warnings.append(f"{what} wrapped past M/2; window likely overflowed")
        return lifted

    if kind in LANES:
        lane = dict(zip(LANES[kind], vals))
        count = unsigned(lane["count"], "count") if "count" in lane else None
        sumsq = unsigned(lane["sum_sq"], "sum of squares") if "sum_sq" in lane else None
        total, above, below = (
            _lift(lane[name]) / scale if name in lane else None
            for name in ("sum", "above", "below")
        )
        mean = variance = None
        if count is not None and count > 0:
            mean = total / count
            if sumsq is not None:
                variance = sumsq / (scale * scale) / count - mean * mean
        return DecodedStats(
            kind,
            count=count,
            total=total,
            mean=mean,
            variance=variance,
            sum_above=above,
            sum_below=below,
            warnings=tuple(warnings),
            _spec=spec,
        )
    bins = tuple(unsigned(v, f"bin {i}") for i, v in enumerate(vals))
    return DecodedStats(
        kind, count=sum(bins), bins=bins, warnings=tuple(warnings), _spec=spec
    )


def check_overflow_budget(
    spec: EncodingSpec,
    max_events: int,
    max_magnitude: float,
) -> None:
    """Reject configurations whose worst-case window sums could exceed M/2.

    Beyond half the modulus the signed interpretation of sums becomes
    ambiguous, so deployments must budget events and magnitudes up front.
    """
    if max_events < 1:
        raise ValueError("max_events must be at least 1")
    q = abs(round(max_magnitude * spec.scale))
    lanes = LANES.get(spec.kind, ())
    per_event = max(q * q if "sum_sq" in lanes else q, 1) if lanes else 1
    worst = per_event * max_events
    half = MODULUS_DEFAULT // 2
    if worst >= half:
        raise OverflowBudgetError(
            f"worst-case window sum {worst} exceeds half the modulus "
            f"({half}); reduce events, magnitude or scale"
        )
