"""Privacy policies, schemas, and the transformation planner.

Stream owners publish a schema describing metadata attributes, the data
attributes a stream carries (whose supported aggregate functions fix the
additive encoding), and the privacy options a producer may select per
attribute. One table, `_FUNCTIONS`, holds each aggregate function's rules:
the lanes it releases, by their names in `encoding.LANES`, what they decode
as, the `param` it takes and its headline. The schema parser, select items,
the planner, `verify_plan` and the simulator's headlines all read it. An
attribute gets the first encoding kind that carries every function it
declares; a declaration no one kind carries is refused.

Options form a ladder, least to most private:

    public            raw access permitted
    stream-aggregate  per-stream window aggregates
    aggregate         aggregates over a population of streams
    dp-aggregate      population aggregates with differential privacy
    private           no release at all

A transformation complies with an attribute's selected option when the
query's chain sits at or above the option on this ladder and satisfies the
option's constraints (minimum window, minimum population, resolution
floor, epsilon budget). One rule, `_admission`, decides this per class of
streams, and one helper, `_epsilon_limit`, gives each (stream, attribute)
its epsilon limit. The planner filters candidate streams in three passes:

    (i)   metadata predicates select candidate streams,
    (ii)  the rule drops streams whose options forbid the transformation,
          then the ledger, read per attribute, drops reserved streams,
    (iii) the population floors the rule derived settle the final member
          set and the dropouts a window may absorb.

Every data owner's controller re-derives the plan with the same rules
before it will co-operate (`verify_plan`): it holds each stream's
population floor to the plan's `min_members`; after that rule and before
the owners' identities, it recompiles the plan's outputs with the
planner's output rule, `_resolve_outputs`, and refuses with
`outputs_mismatch` unless that gives exactly the plan's directives and
outputs, as a plan with no outputs never does. The simulator charges
each member's epsilon against the same limit.

Non-private plans hold an exclusive reservation per (stream, attribute);
DP plans instead draw down the attribute's epsilon budget and may overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Mapping, Optional, Sequence, Union

import yaml

from .encoding import KINDS, LANES, EncodingSpec, SCALE_DEFAULT
from .tokens import (
    EPSILON_SLACK,
    ElementDirective,
    NoiseSpec,
    TokenLayout,
    merge,
    output_layout,
    release,
    withhold,
)

__all__ = [
    "OPTION_KINDS",
    "PrivacyOption",
    "AttributeSchema",
    "StreamSchema",
    "parse_schema",
    "StreamAnnotation",
    "Predicate",
    "SelectItem",
    "DpRequest",
    "Query",
    "parse_query",
    "Rejection",
    "Verdict",
    "OutputSpec",
    "TransformationPlan",
    "ReservationLedger",
    "plan_query",
    "verify_plan",
    "release_reservation",
]

# privacy ladder, least private first; index is the compliance level
OPTION_KINDS = ("public", "stream-aggregate", "aggregate", "dp-aggregate", "private")

# One row per aggregate function:
#   - the lanes it releases, by their `encoding.LANES` names in lane order,
#     or None for every bin of a histogram or one_hot attribute (only these
#     take a `bucket_width`, which merges bins into buckets of a whole number);
#   - what they decode as, (kind, scaled), or None: the attribute's encoding;
#   - the rule its `param` must meet, (test, what it must be), or None: no param;
#   - its headline, from the decoded statistics and the param.
_FUNCTIONS = {
    "sum": (("sum",), ("sum", True), None, lambda s, p: s.total),
    "count": (("count",), ("sum", False), None, lambda s, p: s.total),
    "avg": (("sum", "count"), ("sum_count", True), None, lambda s, p: s.mean),
    "var": (("sum", "sum_sq", "count"), None, None, lambda s, p: s.variance),
    "sum_above": (("above", "below"), None, None, lambda s, p: s.sum_above),
    "sum_below": (("above", "below"), None, None, lambda s, p: s.sum_below),
    "histogram": (None, None, None, lambda s, p: dict(count=s.count, mode=s.mode, median=s.median)),
    "median": (None, None, None, lambda s, p: s.median),
    "percentile": (
        None, None, (lambda p: 0 < p <= 100, "in (0, 100]"),
        lambda s, p: s.percentile(50.0 if p is None else p),
    ),
    "min": (None, None, None, lambda s, p: s.minimum),
    "max": (None, None, None, lambda s, p: s.maximum),
    "mode": (None, None, None, lambda s, p: s.mode),
    "range": (None, None, None, lambda s, p: s.value_range),
    "topk": (
        None, None, (lambda p: p >= 1 and float(p).is_integer(), "a positive integer"),
        lambda s, p: s.top_bins(int(p) if p else 3),
    ),
}
_HISTOGRAM_FUNCTIONS = frozenset(fn for fn, row in _FUNCTIONS.items() if row[0] is None)

# share of a plan's members that may miss a window before it fails closed
_MAX_DROPOUT_FRACTION = 0.1


def _level(kind: str) -> int:
    return OPTION_KINDS.index(kind)


# the lowest level whose release mixes streams, so needs two of them
_AGGREGATE = _level("aggregate")


@dataclass(frozen=True)
class PrivacyOption:
    """One selectable release policy with its constraints."""

    kind: str
    min_population: int = 1
    min_window: int = 0
    epsilon_budget: Optional[float] = None
    max_resolution: Optional[float] = None

    def __post_init__(self):
        if self.kind not in OPTION_KINDS:
            raise ValueError(f"unknown privacy option kind {self.kind!r}")
        if self.min_population < 1:
            raise ValueError("min_population must be at least 1")
        if self.min_window < 0:
            raise ValueError("min_window must be non-negative")
        if self.kind == "dp-aggregate":
            if self.epsilon_budget is None or self.epsilon_budget <= 0:
                raise ValueError("dp-aggregate option needs a positive epsilon_budget")
        if self.max_resolution is not None and self.max_resolution <= 0:
            raise ValueError("max_resolution must be positive")


@dataclass(frozen=True)
class AttributeSchema:
    name: str
    aggregates: tuple[str, ...]
    encoding: EncodingSpec
    options: tuple[PrivacyOption, ...]

    def option(self, kind: str) -> PrivacyOption:
        for opt in self.options:
            if opt.kind == kind:
                return opt
        raise KeyError(f"attribute {self.name!r} offers no {kind!r} option")


@dataclass(frozen=True)
class StreamSchema:
    """Parsed schema: metadata attributes plus encoded stream attributes."""

    name: str
    metadata: tuple[tuple[str, str], ...]  # (name, type)
    attributes: tuple[AttributeSchema, ...]

    def attribute(self, name: str) -> AttributeSchema:
        if name not in self._by_name:
            raise KeyError(f"schema {self.name!r} has no attribute {name!r}")
        return self._by_name[name]

    @functools.cached_property
    def _by_name(self) -> dict[str, AttributeSchema]:
        return {a.name: a for a in reversed(self.attributes)}  # the first of a name wins

    @functools.cached_property
    def _options(self) -> dict[tuple[str, str], PrivacyOption]:
        """`attribute(name).option(kind)` by (name, kind), for the checks
        that look up every member's options."""
        return {
            (name, o.kind): o for name, a in self._by_name.items() for o in reversed(a.options)
        }

    @property
    def width(self) -> int:
        return sum(a.encoding.width for a in self.attributes)

    @property
    def slices(self) -> dict[str, tuple[int, int]]:
        out = {}
        at = 0
        for a in self.attributes:
            out[a.name] = (at, at + a.encoding.width)
            at += a.encoding.width
        return out


def _required(doc, key: str, where: str):
    """`doc[key]`, refused with a ValueError naming the key when `doc` is
    not a mapping that holds it."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{where} needs {key!r}")
    return doc[key]


def _carries(kind: str, function: str) -> bool:
    """Whether an attribute of encoding `kind` carries `function`."""
    if function in _HISTOGRAM_FUNCTIONS:
        return kind not in LANES
    return set(_FUNCTIONS[function][0]) <= set(LANES.get(kind, ()))


def _encoding_for(attr: dict) -> EncodingSpec:
    aggs = attr.get("aggregates") or []
    scale = int(attr.get("scale", SCALE_DEFAULT))
    name = attr.get("name", "<unnamed>")
    for fn in aggs:
        if fn not in _FUNCTIONS:
            raise ValueError(f"attribute {name!r}: unknown aggregate {fn!r}")
    if not aggs:
        raise ValueError(f"attribute {name!r} declares no aggregates")
    kind = next((k for k in KINDS if all(_carries(k, fn) for fn in aggs)), None)
    if kind is None:
        raise ValueError(f"attribute {name!r}: no one encoding carries {', '.join(aggs)}")
    bins, domain = attr.get("bins"), attr.get("domain")
    # a field the encoding does not read is refused, not silently dropped
    unread = ("bins", "domain") if kind in LANES else ()
    for key in unread + ("threshold",) * (kind != "predicate_threshold"):
        if attr.get(key) is not None:
            raise ValueError(f"attribute {name!r}: no encoding of {'/'.join(aggs)} reads {key!r}")
    if bins is not None and domain is not None:
        raise ValueError(f"attribute {name!r}: give 'bins' or 'domain', not both")
    if kind == "predicate_threshold":
        if "threshold" not in attr:
            raise ValueError(f"attribute {name!r}: predicate aggregates need 'threshold'")
        return EncodingSpec(kind, threshold=float(attr["threshold"]), scale=scale)
    if kind in LANES:
        return EncodingSpec(kind, scale=scale)
    if bins is not None:
        where = f"attribute {name!r}: bins"
        return EncodingSpec(
            "histogram",
            domain_min=float(_required(bins, "min", where)),
            domain_max=float(_required(bins, "max", where)),
            bin_width=float(_required(bins, "width", where)),
            scale=scale,
        )
    if domain is not None:
        where = f"attribute {name!r}: domain"
        return EncodingSpec(
            "one_hot",
            domain_min=int(_required(domain, "min", where)),
            domain_max=int(_required(domain, "max", where)),
            scale=scale,
        )
    raise ValueError(f"attribute {name!r}: histogram aggregates need 'bins' or 'domain'")


def parse_schema(source: Union[str, dict]) -> StreamSchema:
    """Parse a schema document (YAML text or an equivalent mapping)."""
    doc = yaml.safe_load(source) if isinstance(source, str) else source
    if not isinstance(doc, dict):
        raise ValueError("schema document must be a mapping")
    name = doc.get("name")
    if not name:
        raise ValueError("schema needs a name")
    metadata = []
    for m in doc.get("metadata", []) or []:
        mname = _required(m, "name", "metadata field")
        mtype = m.get("type", "string")
        if mtype not in ("string", "int", "float"):
            raise ValueError(f"metadata {mname!r}: unknown type {mtype!r}")
        metadata.append((mname, mtype))
    raw_attrs = doc.get("attributes")
    if not raw_attrs:
        raise ValueError("schema declares no stream attributes")
    attributes = []
    seen = set()
    for a in raw_attrs:
        aname = a.get("name")
        if not aname:
            raise ValueError("attribute without a name")
        if aname in seen:
            raise ValueError(f"duplicate attribute name {aname!r}")
        seen.add(aname)
        options = []
        for o in a.get("options", []) or []:
            options.append(
                PrivacyOption(
                    kind=_required(o, "kind", f"attribute {aname!r}: option"),
                    min_population=int(o.get("min_population", 1)),
                    min_window=int(o.get("min_window", 0)),
                    epsilon_budget=o.get("epsilon"),
                    max_resolution=o.get("max_resolution"),
                )
            )
        if not options:
            raise ValueError(f"attribute {aname!r} offers no privacy options")
        attributes.append(
            AttributeSchema(
                name=aname,
                aggregates=tuple(a.get("aggregates") or []),
                encoding=_encoding_for(a),
                options=tuple(options),
            )
        )
    return StreamSchema(name=name, metadata=tuple(metadata), attributes=tuple(attributes))


@dataclass(frozen=True)
class StreamAnnotation:
    """A producer's policy selections for one stream."""

    stream_id: str
    schema_name: str
    owner_id: bytes  # controller identity hash
    selected: Mapping[str, str]  # attribute -> option kind
    metadata: Mapping[str, object]

    def __post_init__(self):
        if len(self.owner_id) != 32:
            raise ValueError("owner_id must be 32 bytes")


@dataclass(frozen=True)
class Predicate:
    attribute: str
    op: str  # "eq" | "range"
    value: object = None
    low: Optional[float] = None
    high: Optional[float] = None

    def __post_init__(self):
        if self.op not in ("eq", "range"):
            raise ValueError(f"unknown predicate op {self.op!r}")
        if self.op == "range" and (self.low is None or self.high is None):
            raise ValueError("range predicate needs low and high")

    def matches(self, annotation: StreamAnnotation) -> bool:
        if self.attribute == "stream_id":
            subject = annotation.stream_id
        else:
            if self.attribute not in annotation.metadata:
                return False
            subject = annotation.metadata[self.attribute]
        if self.op == "eq":
            return subject == self.value
        try:
            return self.low <= subject <= self.high
        except TypeError:
            return False


@dataclass(frozen=True)
class SelectItem:
    output_name: str
    attribute: str
    function: str
    bucket_width: Optional[float] = None
    param: Optional[float] = None  # e.g. the q of a percentile

    def __post_init__(self):
        fn, p, width = self.function, self.param, self.bucket_width
        if fn not in _FUNCTIONS:
            raise ValueError(f"unknown aggregate function {fn!r}")
        if width is not None and fn not in _HISTOGRAM_FUNCTIONS:
            raise ValueError(f"{fn} takes no bucket_width, got {width!r}")
        if width is not None and not (_is_number(width) and 0 < width < math.inf):
            raise ValueError(f"bucket_width must be a positive finite number, got {width!r}")
        rule = _FUNCTIONS[fn][2]
        if p is not None and rule is None:
            raise ValueError(f"{fn} takes no param, got {p!r}")
        if p is not None and not (_is_number(p) and rule[0](p)):
            raise ValueError(f"{fn} param must be {rule[1]}, got {p!r}")


def _is_number(value) -> bool:
    """A real number, not a boolean: YAML's `true` is no count."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class DpRequest:
    epsilon_cost: float
    sigma_target: float

    def __post_init__(self):
        if self.epsilon_cost <= 0:
            raise ValueError("epsilon_cost must be positive")
        if self.sigma_target <= 0:
            raise ValueError("sigma_target must be positive")


@dataclass(frozen=True)
class Query:
    name: str
    select: tuple[SelectItem, ...]
    where: tuple[Predicate, ...] = ()
    window: int = 0
    max_population: int = 1_000_000
    dp: Optional[DpRequest] = None

    def __post_init__(self):
        if not self.select:
            raise ValueError("query selects nothing")
        if self.window <= 0:
            raise ValueError("query needs a positive window")
        if self.max_population < 1:
            raise ValueError("max_population must be at least 1")


def parse_query(source: Union[str, dict]) -> Query:
    """Parse a query document (YAML text or an equivalent mapping)."""
    doc = yaml.safe_load(source) if isinstance(source, str) else source
    select = []
    for out_name, body in (doc.get("select") or {}).items():
        select.append(
            SelectItem(
                output_name=out_name,
                attribute=_required(body, "attribute", f"select {out_name!r}"),
                function=_required(body, "function", f"select {out_name!r}"),
                bucket_width=body.get("bucket_width"),
                param=body.get("param"),
            )
        )
    where = []
    for pred in doc.get("where", []) or []:
        attribute = _required(pred, "attribute", "where predicate")
        if "equals" in pred:
            where.append(Predicate(attribute, "eq", value=pred["equals"]))
        elif "between" in pred:
            lo, hi = pred["between"]
            where.append(Predicate(attribute, "range", low=lo, high=hi))
        else:
            raise ValueError(f"predicate needs 'equals' or 'between': {pred!r}")
    dp = None
    if doc.get("dp"):
        dp = DpRequest(
            epsilon_cost=float(_required(doc["dp"], "epsilon", "dp")),
            sigma_target=float(doc["dp"].get("sigma", 1.0)),
        )
    return Query(
        name=doc.get("name", "query"),
        select=tuple(select),
        where=tuple(where),
        window=int(_required(doc, "window", "query")),
        max_population=int(doc.get("max_population", 1_000_000)),
        dp=dp,
    )


@dataclass(frozen=True)
class Rejection:
    """Why the planner refused to emit a plan. A value, not an exception."""

    reason: str
    detail: str = ""


@dataclass(frozen=True)
class Verdict:
    """A controller's answer to a proposed plan."""

    ok: bool
    reason: Optional[str] = None

    @staticmethod
    def accept() -> "Verdict":
        return Verdict(True)

    @staticmethod
    def refuse(reason: str) -> "Verdict":
        return Verdict(False, reason)


@dataclass(frozen=True)
class OutputSpec:
    """One query output: where it lives in the plan's output vector, how
    to decode it, and the select item it was compiled from."""

    name: str
    attribute: str
    function: str
    decode: EncodingSpec
    out_start: int
    out_stop: int
    param: Optional[float] = None
    bucket_width: Optional[float] = None


@dataclass(frozen=True)
class TransformationPlan:
    plan_id: str
    query_name: str
    schema_name: str
    members: tuple[str, ...]
    owners: tuple[bytes, ...]
    window: int
    chain: tuple[str, ...]
    directives: tuple[ElementDirective, ...]
    layout: tuple[tuple[int, ...], ...]
    outputs: tuple[OutputSpec, ...]
    max_dropouts: int
    dp_epsilon: Optional[float] = None
    noise: Optional[NoiseSpec] = None

    @functools.cached_property
    def token_layout(self) -> TokenLayout:
        """Index arrays of `layout`, built once per plan for every token.

        Derived here, never taken from the planner or the wire; `layout`
        itself is what `verify_plan` checks against the directives.
        """
        return TokenLayout.build(self.directives, self.layout)

    @property
    def min_members(self) -> int:
        return len(self.members) - self.max_dropouts

    @property
    def output_width(self) -> int:
        return len(self.layout)

    def queried_attributes(self) -> tuple[str, ...]:
        seen = []
        for o in self.outputs:
            if o.attribute not in seen:
                seen.append(o.attribute)
        return tuple(seen)


class ReservationLedger:
    """Tracks exclusive holds and DP budget draw-down per (stream, attribute).

    Every reservation is all-or-nothing: a refused one changes nothing.
    Holds and spent epsilon are read for whole attributes at once.
    """

    def __init__(self):
        # live reservations: (plan id, exclusive, streams, attributes)
        self._holds: list[tuple[str, bool, frozenset[str], frozenset[str]]] = []
        self._spent: dict[str, dict[str, float]] = {}  # attribute -> stream -> epsilon

    def held(self, attributes: Sequence[str], exclusive: bool) -> set[str]:
        """The streams that a new reservation of `attributes` may not take:
        held by an exclusive plan or, for an `exclusive` one, a DP plan."""
        out: set[str] = set()
        for _, excl, streams, attrs in self._holds:
            if (excl or exclusive) and not attrs.isdisjoint(attributes):
                out |= streams
        return out

    def spent(self, attribute: str) -> Mapping[str, float]:
        """The epsilon spent on `attribute`, by stream (none: 0)."""
        return self._spent.get(attribute, {})

    def dp_spent(self, pair: tuple[str, str]) -> float:
        return self.spent(pair[1]).get(pair[0], 0.0)

    def try_reserve_exclusive(
        self, plan_id: str, streams: Sequence[str], attributes: Sequence[str]
    ) -> bool:
        if not self.held(attributes, True).isdisjoint(streams):
            return False
        self._holds.append((plan_id, True, frozenset(streams), frozenset(attributes)))
        return True

    def try_charge_dp(
        self,
        plan_id: str,
        groups: Sequence[tuple[Sequence[str], Sequence[float]]],
        attributes: Sequence[str],
        cost: float,
    ) -> bool:
        """Draw `cost` from every attribute's budget of every stream in
        `groups`, each some streams and the limits, one per attribute, that
        their budgets share."""
        columns = [self.spent(attr) for attr in attributes]
        for streams, limits in groups:
            for s, limit in zip(columns, limits):
                # the stream that has spent most reaches the limit first
                most = max(map(s.get, streams, repeat(0.0)), default=0.0)
                if most + cost > limit + EPSILON_SLACK:
                    return False
        streams = [sid for group, _ in groups for sid in group]
        if not self.held(attributes, False).isdisjoint(streams):
            return False
        self._holds.append((plan_id, False, frozenset(streams), frozenset(attributes)))
        for attr in attributes:
            spent = self._spent.setdefault(attr, {})
            for sid in streams:
                spent[sid] = spent.get(sid, 0.0) + cost
        return True

    def release(self, plan_id: str) -> None:
        """Free the plan's holds. Idempotent. Spent epsilon stays spent."""
        self._holds = [hold for hold in self._holds if hold[0] != plan_id]


def release_reservation(ledger: ReservationLedger, plan_id: str) -> None:
    ledger.release(plan_id)


def _stream_hash(stream_id: str) -> bytes:
    return hashlib.sha256(b"member-order\x00" + stream_id.encode()).digest()


def _chain_for(dp: bool, member_count: int) -> tuple[tuple[str, ...], int]:
    """The chain the planner builds for a DP request and member count, and
    the ladder level its release reaches."""
    chain, level = ("window_aggregate",), "stream-aggregate"
    if member_count > 1:
        chain, level = chain + ("cross_stream_sum",), "aggregate"
    if dp:
        chain, level = chain + ("dp_noise",), "dp-aggregate"
    return chain, _level(level)


def _compile(
    item: SelectItem, enc: EncodingSpec
) -> Union[tuple[dict[int, ElementDirective], EncodingSpec, int], Rejection]:
    """The directives on its attribute's lanes, by lane, with which `item`
    releases its function over encoding `enc`, what the released elements
    decode as, and how many there are."""
    fn = item.function
    if not _carries(enc.kind, fn):
        return Rejection("unsupported_function", f"{item.attribute} carries no {fn}")
    names, decode, _, _ = _FUNCTIONS[fn]
    if names is not None:
        lanes = [LANES[enc.kind].index(name) for name in names]
        if decode is not None:
            kind, scaled = decode
            enc = EncodingSpec(kind, scale=enc.scale if scaled else 1)
        return {j: release() for j in lanes}, enc, len(lanes)
    if item.bucket_width is None:
        return {j: release() for j in range(enc.width)}, enc, enc.width
    if enc.kind != "histogram":
        return Rejection("max_resolution", "bucketing needs a histogram encoding")
    ratio = item.bucket_width / enc.bin_width
    if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
        return Rejection(
            "max_resolution", "bucket_width must be a whole multiple of the bin width"
        )
    ratio = int(round(ratio))
    merged = {j: merge((item.attribute, j // ratio)) for j in range(enc.width)}
    decode = dataclasses.replace(enc, bin_width=enc.bin_width * ratio)
    return merged, decode, math.ceil(enc.width / ratio)


def _resolve_outputs(
    schema: StreamSchema, select: Sequence[SelectItem]
) -> Union[tuple[tuple[ElementDirective, ...], tuple[OutputSpec, ...]], Rejection]:
    """Compile select items into full-width directives and output specs:
    a query's for the planner, a plan's outputs for `verify_plan`. An
    empty select is refused: a plan must release something."""
    if not select:
        return Rejection("empty_select", "selects nothing")
    slices = schema.slices
    directives: list[ElementDirective] = [withhold()] * schema.width
    compiled: dict[str, tuple[SelectItem, EncodingSpec, int]] = {}
    for item in select:
        try:
            attr = schema.attribute(item.attribute)
        except KeyError:
            return Rejection("unknown_attribute", item.attribute)
        if item.function not in attr.aggregates:
            return Rejection(
                "unsupported_function", f"{item.attribute} does not offer {item.function}"
            )
        if item.attribute in compiled:
            return Rejection(
                "duplicate_attribute", f"{item.attribute} selected more than once"
            )
        lanes = _compile(item, attr.encoding)
        if isinstance(lanes, Rejection):
            return lanes
        by_lane, decode, width = lanes
        start = slices[item.attribute][0]
        for j, directive in by_lane.items():
            directives[start + j] = directive
        compiled[item.attribute] = (item, decode, width)
    # Released elements keep stream order on the wire, so offsets follow the
    # attribute slice positions rather than the order the query listed them.
    out_start = {}
    at = 0
    for name in sorted(compiled, key=lambda name: slices[name]):
        out_start[name] = at
        at += compiled[name][2]
    outputs = tuple(
        OutputSpec(
            name=item.output_name,
            attribute=name,
            function=item.function,
            decode=decode,
            out_start=out_start[name],
            out_stop=out_start[name] + width,
            param=item.param,
            bucket_width=item.bucket_width,
        )
        for name, (item, decode, width) in compiled.items()
    )
    return tuple(directives), outputs


def _epsilon_limit(option: PrivacyOption) -> float:
    """The epsilon a stream's releases of an attribute may spend in all,
    under the option it selected for it: the option's `epsilon_budget`,
    unlimited when the option sets none."""
    return math.inf if option.epsilon_budget is None else option.epsilon_budget


def _admission(
    kinds: Sequence[Optional[str]],
    schema: StreamSchema,
    outputs: Sequence[OutputSpec],
    level: int,
    window: int,
    population: Optional[int],
    epsilon: Optional[float],
    left: Optional[Callable[[int, float], Optional[float]]],
) -> Union[str, int]:
    """Whether the option kinds a stream selects, `kinds[j]` for output j's
    attribute (None: none), admit a release: the reason they refuse it, or,
    when they admit it, the stream's population floor.

    The release reaches ladder `level`, sums windows of `window`, keeps at
    least `population` members (None: not known yet) and, with `epsilon`,
    spends that much of the stream's budget on each output's attribute, of
    whose limit `left(j, limit)` is left on output j (None: unknown), or all
    of it when `left` is None. Each output's decode
    fixes the resolution it reveals: a histogram's bin width, 1 for a
    one-hot domain. The floor is the largest `min_population` of the
    selected options, and at least 2 at `aggregate` or above. Outputs are
    checked in order and the first refusal is returned. A stream's class,
    its kinds and then what `left` reads, fixes the verdict.
    """
    floor = 1
    for j, o in enumerate(outputs):
        kind = kinds[j]
        if kind is None:
            return "no_option_selected"
        if kind == "private":
            return "option_forbids"
        option = schema._options.get((o.attribute, kind))
        if option is None:
            return "option_not_offered"
        at = _level(kind)
        if at > level:
            return "option_forbids"
        if window < option.min_window:
            return "min_window"
        floor = max(floor, option.min_population, 2 if at >= _AGGREGATE else 1)
        if population is not None and population < floor:
            return "min_population"
        if option.max_resolution is not None and o.decode.kind in ("histogram", "one_hot"):
            step = o.decode.bin_width if o.decode.kind == "histogram" else 1.0
            if step < option.max_resolution:
                return "max_resolution"
        if epsilon is not None:
            room = _epsilon_limit(option)
            if left is not None:
                room = left(j, room)
            if room is None or epsilon > room + EPSILON_SLACK:
                return "epsilon_budget"
    return floor


def plan_query(
    query: Query,
    schema: StreamSchema,
    annotations: Sequence[StreamAnnotation],
    ledger: ReservationLedger,
    *,
    colluding_fraction: float = 0.5,
) -> Union[TransformationPlan, Rejection]:
    """Compile a query into a transformation plan or a typed rejection.

    The three filtering passes, `_admission` once per class of candidates,
    are in the module docstring. The returned plan's reservations
    (exclusive holds or epsilon draw-down) are already taken; callers hand
    the plan id to release_reservation when the transformation retires.
    """
    resolved = _resolve_outputs(schema, query.select)
    if isinstance(resolved, Rejection):
        return resolved
    directives, outputs = resolved

    # pass (i): metadata filtering
    candidates = [a for a in annotations if a.schema_name == schema.name]
    for p in query.where:
        candidates = [a for a in candidates if p.matches(a)]
    if not candidates:
        return Rejection("no_matching_streams", "metadata predicates matched nothing")

    # pass (ii): each class of candidates, by option kinds and spent epsilon,
    # judged once as its controllers will, at the chain level of a
    # multi-stream plan when there are several candidates, then the
    # ledger's holds. A set that later shrinks to one member keeps only
    # streams whose floor is 1, whose options sit below `aggregate`: they
    # admit the single-stream chain too.
    dp = query.dp is not None
    chain_level = _chain_for(dp, len(candidates))[1]
    epsilon = query.dp.epsilon_cost if dp else None
    attributes = [o.attribute for o in outputs]
    columns = [[a.selected.get(attr) for a in candidates] for attr in attributes]
    if dp:
        sids = [a.stream_id for a in candidates]
        columns += [map(ledger.spent(attr).get, sids, repeat(0.0)) for attr in attributes]
    held = ledger.held(attributes, not dp)
    verdicts: dict[tuple, Union[str, int]] = {}
    survivors = []  # (annotation, its class)
    exclusions: dict[str, int] = {}
    for a, key in zip(candidates, zip(*columns)):
        why = verdicts.get(key)
        if why is None:
            why = verdicts[key] = _admission(
                key, schema, outputs, chain_level, query.window, None, epsilon,
                lambda j, limit: limit - key[len(outputs) + j],
            )
        if not isinstance(why, str) and a.stream_id in held:
            why = "reserved"
        if isinstance(why, str):
            exclusions[why] = exclusions.get(why, 0) + 1
        else:
            survivors.append((a, key))
    if not survivors:
        dominant = max(sorted(exclusions), key=lambda k: exclusions[k])
        return Rejection(dominant, f"all candidate streams excluded: {exclusions}")

    # pass (iii): population floors with deterministic capping; only the
    # cap, which binds at most once, reads the order
    current = survivors
    while True:
        if len(current) > query.max_population:
            current = sorted(current, key=lambda s: _stream_hash(s[0].stream_id))
            current = current[: query.max_population]
        n = len(current)
        kept = [s for s in current if verdicts[s[1]] <= n]
        if len(kept) == len(current):
            break
        current = kept
    if not current:
        return Rejection(
            "min_population",
            f"population constraints admit no member set from {len(survivors)} survivors",
        )

    members = tuple(sorted(a.stream_id for a, _ in current))
    owners = tuple(sorted({a.owner_id for a, _ in current}))
    chain = _chain_for(dp, len(members))[0]
    plan_id = hashlib.sha256(
        json.dumps(
            {
                "query": query.name,
                "members": members,
                "chain": chain,
                "window": query.window,
                "outputs": [(o.name, o.attribute, o.function) for o in outputs],
                "dp": epsilon,
            },
            sort_keys=True,
        ).encode()
    ).hexdigest()[:32]

    # as many dropouts as keep every member's floor
    floor = max(verdicts[key] for _, key in current)
    max_dropouts = min(int(_MAX_DROPOUT_FRACTION * len(members)), len(members) - floor)

    noise = None
    if query.dp is not None:
        noise = NoiseSpec(
            sigma_target=query.dp.sigma_target,
            honest_fraction=1.0 - colluding_fraction,
            party_count=len(owners),
        )

    if query.dp is None:
        granted = ledger.try_reserve_exclusive(plan_id, members, attributes)
    else:
        # the members by class, with the budget limits they share
        classes: dict[tuple, list[str]] = {}
        for a, key in current:
            classes.setdefault(key, []).append(a.stream_id)
        groups = [
            (streams, [_epsilon_limit(schema._options[pair]) for pair in zip(attributes, key)])
            for key, streams in classes.items()
        ]
        granted = ledger.try_charge_dp(plan_id, groups, attributes, epsilon)
    if not granted:
        return Rejection("reserved", "reservation or budget race lost")

    return TransformationPlan(
        plan_id=plan_id,
        query_name=query.name,
        schema_name=schema.name,
        members=members,
        owners=owners,
        window=query.window,
        chain=chain,
        directives=directives,
        layout=output_layout(directives),
        outputs=outputs,
        max_dropouts=max_dropouts,
        dp_epsilon=epsilon,
        noise=noise,
    )


def verify_plan(
    plan: TransformationPlan,
    schema: StreamSchema,
    own_annotations: Mapping[str, StreamAnnotation],
    *,
    registry=None,
    remaining_epsilon: Optional[Mapping[tuple[str, str], float]] = None,
) -> Verdict:
    """A controller's independent re-derivation of plan compliance.

    Controllers run this before contributing tokens: the planner is not
    trusted. Checks cover structural integrity, members strictly increasing
    and `0 <= max_dropouts < len(members)` (else `bad_members`), that the
    chain is the one the planner builds for the plan's members and DP
    request, the planner's own admission rule on this controller's
    streams, with each stream's population floor held to `min_members`,
    the members a window may not fall below, that the planner's output
    rule (`_resolve_outputs`), rerun on the plan's outputs as select
    items, gives exactly the plan's directives and outputs (else
    `outputs_mismatch`, checked after the admission rule and before the
    identities), and that all participating owners have known identities.

    `own_annotations` may hold several member streams, and non-members,
    which are ignored. The admission rule judges each class of them once,
    and the refusal of the first member in plan order whose class refuses
    is returned. Given every member's annotation, as the simulator passes
    them, it accepts exactly when each member's controller alone would,
    and a refusal has the reason of the first refusing controller in plan
    order, except that the owners' identities are checked after every
    stream, where each controller checks them after its own streams.
    """
    if tuple(output_layout(plan.directives)) != plan.layout:
        return Verdict.refuse("layout_mismatch")
    if len(plan.directives) != schema.width:
        return Verdict.refuse("width_mismatch")
    if plan.window <= 0:
        return Verdict.refuse("bad_window")
    members = plan.members
    # strictly increasing, as the planner emits them: no stream counts twice
    increasing = all(a < b for a, b in zip(members, members[1:]))
    if not increasing or not 0 <= plan.max_dropouts < len(members):
        return Verdict.refuse("bad_members")
    dp = plan.dp_epsilon is not None
    if ("dp_noise" in plan.chain) != dp or (dp and plan.noise is None):
        return Verdict.refuse("dp_chain_mismatch")
    chain, level = _chain_for(dp, len(members))
    if plan.chain != chain:
        return Verdict.refuse("chain_mismatch")

    # the caller's own streams, in plan order
    mine = [own_annotations[sid] for sid in members if sid in own_annotations]
    if not mine:
        return Verdict.refuse("not_a_member")

    # each class of the caller's streams is judged once, in the order of
    # its first member; without its own account, a controller holds each
    # budget's whole limit
    outputs, remaining = plan.outputs, remaining_epsilon
    columns = [[a.selected.get(o.attribute) for a in mine] for o in outputs]
    if remaining is not None:
        columns += [[remaining.get((a.stream_id, o.attribute)) for a in mine] for o in outputs]
    for key in dict.fromkeys(zip(*columns)):
        why = _admission(
            key, schema, outputs, level, plan.window, plan.min_members, plan.dp_epsilon,
            None if remaining is None else lambda j, _: key[len(outputs) + j],
        )
        if isinstance(why, str):
            return Verdict.refuse(why)
    # the planner's output rule, rerun on the plan's own outputs, must give
    # exactly its directives and outputs: the lanes and decoders checked
    # above are then the ones this controller derives itself
    try:
        select = [
            SelectItem(o.name, o.attribute, o.function, o.bucket_width, o.param)
            for o in plan.outputs
        ]
    except ValueError:
        return Verdict.refuse("outputs_mismatch")
    if _resolve_outputs(schema, select) != (plan.directives, plan.outputs):
        return Verdict.refuse("outputs_mismatch")
    if registry is not None and not registry.knows_all(plan.owners):
        return Verdict.refuse("unknown_identity")
    return Verdict.accept()
