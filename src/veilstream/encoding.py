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
    "EncodingSpec",
    "DecodedStats",
    "OverflowBudgetError",
    "encode",
    "encode_neutral",
    "decode_stats",
    "check_overflow_budget",
]

KINDS = ("sum", "sum_count", "variance", "one_hot", "histogram", "predicate_threshold")

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
        if self.kind == "sum":
            return 1
        if self.kind in ("sum_count", "predicate_threshold"):
            return 2
        if self.kind == "variance":
            return 3
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


def _quantize(value: float, scale: int) -> int:
    return round(value * scale) & RING_MASK


def encode(value: float, spec: EncodingSpec) -> np.ndarray:
    """Encode one observed value as a ring vector of spec.width elements."""
    kind = spec.kind
    if kind == "sum":
        return np.array([_quantize(value, spec.scale)], dtype=np.uint64)
    if kind == "sum_count":
        return np.array([_quantize(value, spec.scale), 1], dtype=np.uint64)
    if kind == "variance":
        q = round(value * spec.scale)
        return np.array([q & RING_MASK, (q * q) & RING_MASK, 1], dtype=np.uint64)
    if kind == "predicate_threshold":
        q = _quantize(value, spec.scale)
        if value >= spec.threshold:
            return np.array([q, 0], dtype=np.uint64)
        return np.array([0, q], dtype=np.uint64)
    out = np.zeros(spec.width, dtype=np.uint64)
    if kind == "one_hot":
        if value != int(value):
            raise ValueError(f"one_hot input must be an integer, got {value!r}")
        idx = int(value) - int(spec.domain_min)
        if not 0 <= idx < spec.width:
            raise ValueError(
                f"value {value!r} outside one_hot domain "
                f"[{spec.domain_min}, {spec.domain_max}]"
            )
    else:  # histogram
        if not spec.domain_min <= value <= spec.domain_max:
            raise ValueError(
                f"value {value!r} outside histogram domain "
                f"[{spec.domain_min}, {spec.domain_max}]"
            )
        idx = min(int((value - spec.domain_min) // spec.bin_width), spec.width - 1)
    out[idx] = 1
    return out


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

    if kind == "sum":
        return DecodedStats(
            kind, total=_lift(vals[0]) / scale, warnings=tuple(warnings), _spec=spec
        )
    if kind == "sum_count":
        count = unsigned(vals[1], "count")
        total = _lift(vals[0]) / scale
        mean = total / count if count > 0 else None
        return DecodedStats(
            kind, count=count, total=total, mean=mean, warnings=tuple(warnings), _spec=spec
        )
    if kind == "variance":
        count = unsigned(vals[2], "count")
        total = _lift(vals[0]) / scale
        sumsq = unsigned(vals[1], "sum of squares") / (scale * scale)
        if count > 0:
            mean = total / count
            variance = sumsq / count - mean * mean
        else:
            mean = variance = None
        return DecodedStats(
            kind,
            count=count,
            total=total,
            mean=mean,
            variance=variance,
            warnings=tuple(warnings),
            _spec=spec,
        )
    if kind == "predicate_threshold":
        return DecodedStats(
            kind,
            sum_above=_lift(vals[0]) / scale,
            sum_below=_lift(vals[1]) / scale,
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
    if spec.kind == "variance":
        per_event = max(q * q, 1)
    elif spec.kind in ("sum", "sum_count", "predicate_threshold"):
        per_event = max(q, 1)
    else:
        per_event = 1
    worst = per_event * max_events
    half = MODULUS_DEFAULT // 2
    if worst >= half:
        raise OverflowBudgetError(
            f"worst-case window sum {worst} exceeds half the modulus "
            f"({half}); reduce events, magnitude or scale"
        )
