"""Privacy policies, schemas, and the transformation planner.

Stream owners publish a schema describing metadata attributes, the data
attributes a stream carries (whose supported aggregate functions fix the
additive encoding), and the privacy options a producer may select per
attribute. Options form a ladder, least to most private:

    public            raw access permitted
    stream-aggregate  per-stream window aggregates
    aggregate         aggregates over a population of streams
    dp-aggregate      population aggregates with differential privacy
    private           no release at all

A transformation complies with an attribute's selected option when the
query's chain sits at or above the option on this ladder and satisfies the
option's constraints (minimum window, minimum population, resolution
floor, epsilon budget). The planner filters candidate streams in three
passes, mirroring what every data owner's controller re-derives before it
will co-operate:

    (i)   metadata predicates select candidate streams,
    (ii)  per-stream checks drop streams whose options, constraints,
          reservations, or budgets forbid the requested transformation,
    (iii) population constraints settle the final member set.

Non-private plans hold an exclusive reservation per (stream, attribute);
DP plans instead draw down the attribute's epsilon budget and may overlap.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import threading
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import yaml

from .encoding import EncodingSpec, SCALE_DEFAULT
from .tokens import (
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

_HISTOGRAM_FUNCTIONS = frozenset(
    ["histogram", "median", "percentile", "min", "max", "mode", "range", "topk"]
)
_FUNCTIONS = frozenset(["sum", "count", "avg", "var", "sum_above", "sum_below"]) | (
    _HISTOGRAM_FUNCTIONS
)

# share of a plan's members that may miss a window before it fails closed
_MAX_DROPOUT_FRACTION = 0.1


def _level(kind: str) -> int:
    return OPTION_KINDS.index(kind)


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
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise KeyError(f"schema {self.name!r} has no attribute {name!r}")

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


def _encoding_for(attr: dict) -> EncodingSpec:
    aggs = attr.get("aggregates") or []
    scale = int(attr.get("scale", SCALE_DEFAULT))
    name = attr.get("name", "<unnamed>")
    for fn in aggs:
        if fn not in _FUNCTIONS:
            raise ValueError(f"attribute {name!r}: unknown aggregate {fn!r}")
    if not aggs:
        raise ValueError(f"attribute {name!r} declares no aggregates")
    if _HISTOGRAM_FUNCTIONS & set(aggs):
        bins = attr.get("bins")
        domain = attr.get("domain")
        if bins is not None:
            return EncodingSpec(
                "histogram",
                domain_min=float(bins["min"]),
                domain_max=float(bins["max"]),
                bin_width=float(bins["width"]),
                scale=scale,
            )
        if domain is not None:
            return EncodingSpec(
                "one_hot",
                domain_min=int(domain["min"]),
                domain_max=int(domain["max"]),
                scale=scale,
            )
        raise ValueError(
            f"attribute {name!r}: histogram aggregates need 'bins' or 'domain'"
        )
    if "sum_above" in aggs or "sum_below" in aggs:
        if "threshold" not in attr:
            raise ValueError(f"attribute {name!r}: predicate aggregates need 'threshold'")
        return EncodingSpec(
            "predicate_threshold", threshold=float(attr["threshold"]), scale=scale
        )
    if "var" in aggs:
        return EncodingSpec("variance", scale=scale)
    if "avg" in aggs or "count" in aggs:
        return EncodingSpec("sum_count", scale=scale)
    return EncodingSpec("sum", scale=scale)


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
        mtype = m.get("type", "string")
        if mtype not in ("string", "int", "float"):
            raise ValueError(f"metadata {m.get('name')!r}: unknown type {mtype!r}")
        metadata.append((m["name"], mtype))
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
                    kind=o["kind"],
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
        if self.function not in _FUNCTIONS:
            raise ValueError(f"unknown aggregate function {self.function!r}")


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
                attribute=body["attribute"],
                function=body["function"],
                bucket_width=body.get("bucket_width"),
                param=body.get("param"),
            )
        )
    where = []
    for pred in doc.get("where", []) or []:
        if "equals" in pred:
            where.append(Predicate(pred["attribute"], "eq", value=pred["equals"]))
        elif "between" in pred:
            lo, hi = pred["between"]
            where.append(Predicate(pred["attribute"], "range", low=lo, high=hi))
        else:
            raise ValueError(f"predicate needs 'equals' or 'between': {pred!r}")
    dp = None
    if doc.get("dp"):
        dp = DpRequest(
            epsilon_cost=float(doc["dp"]["epsilon"]),
            sigma_target=float(doc["dp"].get("sigma", 1.0)),
        )
    return Query(
        name=doc.get("name", "query"),
        select=tuple(select),
        where=tuple(where),
        window=int(doc["window"]),
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
    """One query output: where it lives in the plan's output vector and
    how to decode it."""

    name: str
    attribute: str
    function: str
    decode: EncodingSpec
    out_start: int
    out_stop: int
    param: Optional[float] = None


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

    @functools.cached_property
    def _member_rank(self) -> dict[str, int]:
        """First position of each member, so checks can follow plan order."""
        rank: dict[str, int] = {}
        for i, sid in enumerate(self.members):
            rank.setdefault(sid, i)
        return rank

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

    All mutation is all-or-nothing under one lock so concurrent planners
    cannot interleave partial reservations.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._exclusive: dict[tuple[str, str], str] = {}
        self._dp_active: dict[tuple[str, str], set[str]] = {}
        self._dp_spent: dict[tuple[str, str], float] = {}
        self._plan_pairs: dict[str, list[tuple[str, str]]] = {}

    def exclusive_holder(self, pair: tuple[str, str]) -> Optional[str]:
        return self._exclusive.get(pair)

    def dp_spent(self, pair: tuple[str, str]) -> float:
        return self._dp_spent.get(pair, 0.0)

    def is_blocked(self, pair: tuple[str, str]) -> bool:
        return pair in self._exclusive

    def has_dp_activity(self, pair: tuple[str, str]) -> bool:
        return bool(self._dp_active.get(pair))

    def try_reserve_exclusive(self, plan_id: str, pairs: Sequence[tuple[str, str]]) -> bool:
        with self._lock:
            for pair in pairs:
                if pair in self._exclusive or self._dp_active.get(pair):
                    return False
            for pair in pairs:
                self._exclusive[pair] = plan_id
            self._plan_pairs.setdefault(plan_id, []).extend(pairs)
            return True

    def try_charge_dp(
        self,
        plan_id: str,
        pairs: Sequence[tuple[str, str]],
        cost: float,
        budget_for: Mapping[tuple[str, str], float],
    ) -> bool:
        with self._lock:
            for pair in pairs:
                if pair in self._exclusive:
                    return False
                limit = budget_for.get(pair)
                if limit is None:
                    return False
                if self._dp_spent.get(pair, 0.0) + cost > limit + 1e-9:
                    return False
            for pair in pairs:
                self._dp_spent[pair] = self._dp_spent.get(pair, 0.0) + cost
                self._dp_active.setdefault(pair, set()).add(plan_id)
            self._plan_pairs.setdefault(plan_id, []).extend(pairs)
            return True

    def release(self, plan_id: str) -> None:
        """Free the plan's holds. Idempotent. Spent epsilon stays spent."""
        with self._lock:
            pairs = self._plan_pairs.pop(plan_id, [])
            for pair in pairs:
                if self._exclusive.get(pair) == plan_id:
                    del self._exclusive[pair]
                active = self._dp_active.get(pair)
                if active:
                    active.discard(plan_id)
                    if not active:
                        del self._dp_active[pair]


def release_reservation(ledger: ReservationLedger, plan_id: str) -> None:
    ledger.release(plan_id)


def _stream_hash(stream_id: str) -> bytes:
    return hashlib.sha256(b"member-order\x00" + stream_id.encode()).digest()


def _chain_for(query: Query, member_count: int) -> tuple[str, ...]:
    chain = ["window_aggregate"]
    if member_count > 1:
        chain.append("cross_stream_sum")
    if query.dp is not None:
        chain.append("dp_noise")
    return tuple(chain)


def _chain_level(query: Query, member_count: int) -> int:
    if query.dp is not None:
        return _level("dp-aggregate")
    if member_count > 1:
        return _level("aggregate")
    return _level("stream-aggregate")


def _resolve_outputs(
    schema: StreamSchema, query: Query
) -> Union[tuple[tuple[ElementDirective, ...], tuple[OutputSpec, ...]], Rejection]:
    """Compile select items into full-width directives and output specs."""
    slices = schema.slices
    directives: list[ElementDirective] = [withhold()] * schema.width
    pending: list[dict] = []
    claimed: set[str] = set()
    for item in query.select:
        try:
            attr = schema.attribute(item.attribute)
        except KeyError:
            return Rejection("unknown_attribute", item.attribute)
        if item.function not in attr.aggregates:
            return Rejection(
                "unsupported_function", f"{item.attribute} does not offer {item.function}"
            )
        if item.attribute in claimed:
            return Rejection(
                "duplicate_attribute", f"{item.attribute} selected more than once"
            )
        claimed.add(item.attribute)
        start, _stop = slices[item.attribute]
        enc = attr.encoding
        scale = enc.scale
        fn = item.function
        if fn in _HISTOGRAM_FUNCTIONS:
            if enc.kind not in ("histogram", "one_hot"):
                return Rejection("unsupported_function", f"{item.attribute} has no bins")
            if item.bucket_width is not None:
                if enc.kind != "histogram":
                    return Rejection("max_resolution", "bucketing needs a histogram encoding")
                ratio = item.bucket_width / enc.bin_width
                if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
                    return Rejection(
                        "max_resolution",
                        "bucket_width must be a whole multiple of the bin width",
                    )
                ratio = int(round(ratio))
                merged = math.ceil(enc.width / ratio)
                for j in range(enc.width):
                    directives[start + j] = merge((item.attribute, j // ratio))
                decode = EncodingSpec(
                    "histogram",
                    domain_min=enc.domain_min,
                    domain_max=enc.domain_max,
                    bin_width=enc.bin_width * ratio,
                    scale=scale,
                )
                width_out = merged
            else:
                for j in range(enc.width):
                    directives[start + j] = release()
                decode = enc
                width_out = enc.width
        elif fn == "sum":
            if enc.kind not in ("sum", "sum_count", "variance"):
                return Rejection("unsupported_function", f"{item.attribute} carries no sum")
            directives[start] = release()
            decode = EncodingSpec("sum", scale=scale)
            width_out = 1
        elif fn == "count":
            if enc.kind == "sum_count":
                directives[start + 1] = release()
            elif enc.kind == "variance":
                directives[start + 2] = release()
            else:
                return Rejection("unsupported_function", f"{item.attribute} carries no count")
            decode = EncodingSpec("sum", scale=1)
            width_out = 1
        elif fn == "avg":
            if enc.kind == "sum_count":
                directives[start] = release()
                directives[start + 1] = release()
            elif enc.kind == "variance":
                directives[start] = release()
                directives[start + 2] = release()
            else:
                return Rejection("unsupported_function", f"{item.attribute} carries no count")
            decode = EncodingSpec("sum_count", scale=scale)
            width_out = 2
        elif fn == "var":
            if enc.kind != "variance":
                return Rejection("unsupported_function", f"{item.attribute} has no squares")
            for j in range(3):
                directives[start + j] = release()
            decode = enc
            width_out = 3
        else:  # sum_above / sum_below
            if enc.kind != "predicate_threshold":
                return Rejection("unsupported_function", f"{item.attribute} has no predicate")
            directives[start] = release()
            directives[start + 1] = release()
            decode = enc
            width_out = 2
        pending.append(
            {
                "name": item.output_name,
                "attribute": item.attribute,
                "function": fn,
                "decode": decode,
                "width": width_out,
                "param": item.param,
                "element_start": start,
            }
        )
    # Released elements keep stream order on the wire, so offsets follow the
    # attribute slice positions rather than the order the query listed them.
    out_at = 0
    for rec in sorted(pending, key=lambda r: r["element_start"]):
        rec["out_start"] = out_at
        out_at += rec["width"]
    outputs = tuple(
        OutputSpec(
            name=rec["name"],
            attribute=rec["attribute"],
            function=rec["function"],
            decode=rec["decode"],
            out_start=rec["out_start"],
            out_stop=rec["out_start"] + rec["width"],
            param=rec["param"],
        )
        for rec in pending
    )
    return tuple(directives), outputs


def _effective_resolution(schema: StreamSchema, query: Query, attribute: str) -> Optional[float]:
    enc = schema.attribute(attribute).encoding
    for item in query.select:
        if item.attribute == attribute and item.function in _HISTOGRAM_FUNCTIONS:
            if item.bucket_width is not None:
                return item.bucket_width
            if enc.kind == "histogram":
                return enc.bin_width
            return 1.0
    return None


def _stream_compliance(
    annotation: StreamAnnotation,
    schema: StreamSchema,
    query: Query,
    chain_level: int,
    ledger: ReservationLedger,
) -> Optional[str]:
    """None when the stream can join the plan, else the exclusion reason."""
    for item in query.select:
        attr = item.attribute
        kind = annotation.selected.get(attr)
        if kind is None:
            return "no_option_selected"
        if kind == "private":
            return "option_forbids"
        try:
            option = schema.attribute(attr).option(kind)
        except KeyError:
            return "option_not_offered"
        if _level(kind) > chain_level:
            return "option_forbids"
        if query.window < option.min_window:
            return "min_window"
        if option.max_resolution is not None:
            res = _effective_resolution(schema, query, attr)
            if res is not None and res < option.max_resolution:
                return "max_resolution"
        pair = (annotation.stream_id, attr)
        if query.dp is None:
            if ledger.is_blocked(pair) or ledger.has_dp_activity(pair):
                return "reserved"
        else:
            if ledger.is_blocked(pair):
                return "reserved"
            if kind == "dp-aggregate":
                limit = option.epsilon_budget
            else:
                limit = option.epsilon_budget if option.epsilon_budget is not None else math.inf
            if ledger.dp_spent(pair) + query.dp.epsilon_cost > limit + 1e-9:
                return "epsilon_budget"
    return None


def _member_requirements(
    annotation: StreamAnnotation, schema: StreamSchema, query: Query
) -> tuple[int, bool]:
    """min_population requirement and whether the member demands >= 2 peers."""
    min_pop = 1
    needs_multi = False
    for item in query.select:
        option = schema.attribute(item.attribute).option(
            annotation.selected[item.attribute]
        )
        min_pop = max(min_pop, option.min_population)
        if _level(option.kind) >= _level("aggregate"):
            needs_multi = True
    return min_pop, needs_multi


def plan_query(
    query: Query,
    schema: StreamSchema,
    annotations: Sequence[StreamAnnotation],
    ledger: ReservationLedger,
    *,
    colluding_fraction: float = 0.5,
) -> Union[TransformationPlan, Rejection]:
    """Compile a query into a transformation plan or a typed rejection.

    The three filtering passes are described in the module docstring. The
    returned plan's reservations (exclusive holds or epsilon draw-down)
    are already taken; callers hand the plan id to release_reservation
    when the transformation retires.
    """
    resolved = _resolve_outputs(schema, query)
    if isinstance(resolved, Rejection):
        return resolved
    directives, outputs = resolved

    # pass (i): metadata filtering
    candidates = [
        a
        for a in annotations
        if a.schema_name == schema.name and all(p.matches(a) for p in query.where)
    ]
    if not candidates:
        return Rejection("no_matching_streams", "metadata predicates matched nothing")

    # pass (ii): per-stream option and constraint compliance. The chain
    # level is evaluated optimistically (multi-stream if >1 candidates);
    # a later collapse to one member is re-checked below.
    chain_level = _chain_level(query, len(candidates))
    survivors = []
    exclusions: dict[str, int] = {}
    for a in candidates:
        why = _stream_compliance(a, schema, query, chain_level, ledger)
        if why is None:
            survivors.append(a)
        else:
            exclusions[why] = exclusions.get(why, 0) + 1
    if not survivors:
        dominant = max(sorted(exclusions), key=lambda k: exclusions[k])
        return Rejection(dominant, f"all candidate streams excluded: {exclusions}")

    # pass (iii): population constraints with deterministic capping
    survivors.sort(key=lambda a: _stream_hash(a.stream_id))
    reqs = {a.stream_id: _member_requirements(a, schema, query) for a in survivors}
    current = survivors
    while True:
        if len(current) > query.max_population:
            current = current[: query.max_population]
        n = len(current)
        kept = [
            a
            for a in current
            if reqs[a.stream_id][0] <= n and (not reqs[a.stream_id][1] or n >= 2)
        ]
        if len(kept) == len(current):
            break
        current = kept
    if not current:
        return Rejection(
            "min_population",
            f"population constraints admit no member set from {len(survivors)} survivors",
        )
    if len(current) == 1 and _chain_level(query, 1) < chain_level:
        # collapsed to a single stream: re-check its option at the weaker level
        why = _stream_compliance(current[0], schema, query, _chain_level(query, 1), ledger)
        if why is not None:
            return Rejection(why, "single surviving stream refuses a per-stream release")

    members = tuple(sorted(a.stream_id for a in current))
    owners = tuple(sorted({a.owner_id for a in current}))
    chain = _chain_for(query, len(members))
    plan_id = hashlib.sha256(
        json.dumps(
            {
                "query": query.name,
                "members": members,
                "chain": chain,
                "window": query.window,
                "outputs": [(o.name, o.attribute, o.function) for o in outputs],
                "dp": query.dp.epsilon_cost if query.dp else None,
            },
            sort_keys=True,
        ).encode()
    ).hexdigest()[:32]

    max_min_pop = max(reqs[m][0] for m in members)
    floor = max(max_min_pop, 2 if any(reqs[m][1] for m in members) else 1)
    max_dropouts = max(0, min(
        int(_MAX_DROPOUT_FRACTION * len(members)), len(members) - floor
    ))

    noise = None
    if query.dp is not None:
        noise = NoiseSpec(
            sigma_target=query.dp.sigma_target,
            honest_fraction=1.0 - colluding_fraction,
            party_count=len(owners),
        )

    pairs = [(m, item.attribute) for m in members for item in query.select]
    if query.dp is None:
        granted = ledger.try_reserve_exclusive(plan_id, pairs)
    else:
        budget_for = {}
        by_stream = {a.stream_id: a for a in current}
        for m, attr in pairs:
            option = schema.attribute(attr).option(by_stream[m].selected[attr])
            budget_for[(m, attr)] = (
                option.epsilon_budget if option.epsilon_budget is not None else math.inf
            )
        granted = ledger.try_charge_dp(plan_id, pairs, query.dp.epsilon_cost, budget_for)
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
        dp_epsilon=query.dp.epsilon_cost if query.dp else None,
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
    trusted. Checks cover structural integrity, the privacy ladder, every
    constraint of the selected options on this controller's streams, and
    that all participating owners have known identities.
    """
    if tuple(output_layout(plan.directives)) != plan.layout:
        return Verdict.refuse("layout_mismatch")
    if len(plan.directives) != schema.width:
        return Verdict.refuse("width_mismatch")
    if plan.window <= 0:
        return Verdict.refuse("bad_window")
    if ("dp_noise" in plan.chain) != (plan.dp_epsilon is not None):
        return Verdict.refuse("dp_chain_mismatch")
    if plan.dp_epsilon is not None and plan.noise is None:
        return Verdict.refuse("dp_chain_mismatch")
    if len(plan.members) > 1 and "cross_stream_sum" not in plan.chain:
        return Verdict.refuse("chain_mismatch")

    if plan.dp_epsilon is not None:
        level = _level("dp-aggregate")
    elif len(plan.members) > 1:
        level = _level("aggregate")
    else:
        level = _level("stream-aggregate")

    # the caller's own streams, in plan order, without a pass over members
    rank = plan._member_rank
    mine = sorted((sid for sid in own_annotations if sid in rank), key=rank.__getitem__)
    if not mine:
        return Verdict.refuse("not_a_member")
    for sid in mine:
        annotation = own_annotations[sid]
        for attr_name in plan.queried_attributes():
            kind = annotation.selected.get(attr_name)
            if kind is None:
                return Verdict.refuse("no_option_selected")
            if kind == "private" or _level(kind) > level:
                return Verdict.refuse("option_forbids")
            try:
                option = schema.attribute(attr_name).option(kind)
            except KeyError:
                return Verdict.refuse("option_not_offered")
            if plan.window < option.min_window:
                return Verdict.refuse("min_window")
            if len(plan.members) < option.min_population:
                return Verdict.refuse("min_population")
            if option.max_resolution is not None:
                for o in plan.outputs:
                    if o.attribute == attr_name and o.decode.kind == "histogram":
                        if o.decode.bin_width < option.max_resolution:
                            return Verdict.refuse("max_resolution")
            if plan.dp_epsilon is not None:
                if remaining_epsilon is not None:
                    left = remaining_epsilon.get((sid, attr_name))
                    if left is None or plan.dp_epsilon > left + 1e-9:
                        return Verdict.refuse("epsilon_budget")
                elif kind == "dp-aggregate" and plan.dp_epsilon > option.epsilon_budget + 1e-9:
                    return Verdict.refuse("epsilon_budget")
    if registry is not None and not registry.knows_all(plan.owners):
        return Verdict.refuse("unknown_identity")
    return Verdict.accept()
